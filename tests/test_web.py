"""Tests for the presentation tier: templates, HTTP model, servlets."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.web import (
    HttpRequest,
    HttpResponse,
    Router,
    SESSION_COOKIE,
    Template,
    TemplateError,
    TemplateRegistry,
    ThinClient,
    pages,
)

from .oracle_templates import PAGE_NAMES


class TestTemplates:
    def test_variable_substitution_and_escaping(self):
        template = Template("<p>{{ name }}</p>")
        assert template.render({"name": "a<b"}) == "<p>a&lt;b</p>"

    def test_safe_filter_skips_escaping(self):
        template = Template("{{ markup|safe }}")
        assert template.render({"markup": "<b>x</b>"}) == "<b>x</b>"

    def test_dotted_access_dict_and_attribute(self):
        class Thing:
            label = "attr"

        template = Template("{{ row.kind }}/{{ obj.label }}")
        assert template.render({"row": {"kind": "flare"}, "obj": Thing()}) == "flare/attr"

    def test_for_loop(self):
        template = Template("{% for x in items %}[{{ x }}]{% endfor %}")
        assert template.render({"items": [1, 2, 3]}) == "[1][2][3]"

    def test_if_else(self):
        template = Template("{% if user %}yes{% else %}no{% endif %}")
        assert template.render({"user": "ada"}) == "yes"
        assert template.render({"user": None}) == "no"

    def test_if_missing_variable_is_false(self):
        template = Template("{% if ghost %}yes{% else %}no{% endif %}")
        assert template.render({}) == "no"

    def test_include_via_registry(self):
        registry = TemplateRegistry()
        registry.register("header", "<h1>{{ title }}</h1>")
        registry.register("page", "{% include header %}body")
        assert registry.render("page", {"title": "T"}) == "<h1>T</h1>body"

    def test_none_renders_empty(self):
        assert Template("[{{ x }}]").render({"x": None}) == "[]"

    def test_float_formatting(self):
        assert Template("{{ v }}").render({"v": 3.14159265}) == "3.14159"

    def test_unknown_variable_raises(self):
        with pytest.raises(TemplateError):
            Template("{{ ghost }}").render({})

    def test_unclosed_tag_rejected(self):
        with pytest.raises(TemplateError):
            Template("{% for x in items %}no end")

    def test_unknown_template_rejected(self):
        with pytest.raises(TemplateError):
            TemplateRegistry().render("ghost", {})


class TestHttpModel:
    def test_get_parses_query_params(self):
        request = HttpRequest.get("/hedc/hle?id=7&view=full")
        assert request.params == {"id": "7", "view": "full"}
        assert request.path == "/hedc/hle"

    def test_router_longest_prefix_wins(self):
        router = Router()
        router.add("/hedc", lambda request: HttpResponse.html("root"))
        router.add("/hedc/hle", lambda request: HttpResponse.html("hle"))
        assert router.dispatch(HttpRequest.get("/hedc/hle?id=1")).text == "hle"
        assert router.dispatch(HttpRequest.get("/hedc")).text == "root"

    def test_router_404(self):
        router = Router()
        assert router.dispatch(HttpRequest.get("/nowhere")).status == 404

    def test_redirect_response(self):
        response = HttpResponse.redirect("/hedc/catalogs")
        assert response.status == 302
        assert response.headers["Location"] == "/hedc/catalogs"


@pytest.fixture(scope="module")
def web_stack(populated_hedc):
    hedc = populated_hedc
    server = hedc.web
    events = hedc.events()
    return hedc, server, events


@pytest.fixture()
def logged_in_client(web_stack):
    hedc, server, _events = web_stack
    client = ThinClient(server)
    assert client.login("reader", "reader-pw")
    return client


class TestServlets:
    def test_login_failure_reports_error(self, web_stack):
        _hedc, server, _events = web_stack
        client = ThinClient(server)
        response = client.post("/hedc/login", {"login": "reader", "password": "bad"})
        assert response.status == 200
        assert "bad password" in response.text
        assert SESSION_COOKIE not in client.cookies

    def test_login_sets_session_cookie(self, logged_in_client):
        assert SESSION_COOKIE in logged_in_client.cookies

    def test_catalog_list_and_page(self, web_stack, logged_in_client):
        hedc, _server, _events = web_stack
        listing = logged_in_client.get("/hedc/catalogs")
        assert listing.status == 200
        assert "standard" in listing.text
        page = logged_in_client.get(f"/hedc/catalog?id={hedc.standard_catalog_id}")
        assert page.status == 200
        assert "/hedc/hle?id=" in page.text

    def test_hle_page_issues_seven_queries(self, web_stack, logged_in_client):
        hedc, _server, events = web_stack
        hedc.dm.io.stats.reset()
        response = logged_in_client.get(f"/hedc/hle?id={events[0]['hle_id']}")
        assert response.status == 200
        # §7.2: on average seven DM queries per request (the page proper;
        # name-mapping's second hop counts within them).
        assert hedc.dm.io.stats.queries == 7

    def test_hle_page_contains_event_fields(self, web_stack, logged_in_client):
        _hedc, _server, events = web_stack
        response = logged_in_client.get(f"/hedc/hle?id={events[0]['hle_id']}")
        assert events[0]["kind"] in response.text
        assert "similar events" in response.text

    def test_missing_hle_id_is_400(self, logged_in_client):
        assert logged_in_client.get("/hedc/hle").status == 400
        assert logged_in_client.get("/hedc/hle?id=abc").status == 400

    def test_unknown_hle_is_500_entity_error(self, logged_in_client):
        """Named for what it pinned until ``EntityNotFound`` was mapped
        beside the other typed errors: the entity error is a 404."""
        response = logged_in_client.get("/hedc/hle?id=99999")
        assert response.status == 404
        assert "not found" in response.text

    def test_search_by_kind_and_rate(self, web_stack, logged_in_client):
        _hedc, _server, events = web_stack
        kind = events[0]["kind"]
        response = logged_in_client.get(f"/hedc/search?kind={kind}")
        assert response.status == 200
        assert f"/hedc/hle?id={events[0]['hle_id']}" in response.text

    @pytest.mark.parametrize("rate", ["0.00001", "1e-05", "2.5e-07", "1e16",
                                      "10000000000000000", "-0.0"])
    def test_search_takes_any_finite_rate(self, logged_in_client, rate):
        """float(rate) renders as 1e-05, 1e+16, ...: SQL the parser must read."""
        response = logged_in_client.get(f"/hedc/search?min_rate={rate}")
        assert response.status == 200
        assert ("/hedc/hle?id=" in response.text) == (float(rate) < 1.0)

    def test_search_with_user_sql(self, web_stack, logged_in_client):
        _hedc, _server, _events = web_stack
        sql = "select hle_id, title, kind, peak_rate from hle where peak_rate > 0"
        response = logged_in_client.get("/hedc/search?sql=" + sql.replace(" ", "+"))
        assert response.status == 200
        assert "/hedc/hle?id=" in response.text

    def test_sql_restricted_to_selects_on_domain_tables(self, web_stack, logged_in_client):
        _hedc, _server, _events = web_stack
        response = logged_in_client.get(
            "/hedc/search?sql=select+login+from+admin_users"
        )
        assert response.status == 403  # rejected
        assert "admin_users" in response.text and "reader" not in response.text

    def test_anonymous_gets_no_sql_form(self, web_stack):
        _hedc, server, _events = web_stack
        response = ThinClient(server).get("/hedc/search")
        assert "textarea" not in response.text

    def test_download_requires_right(self, web_stack, logged_in_client):
        hedc, server, _events = web_stack
        from repro.metadb import Select

        unit = hedc.dm.io.execute(Select("raw_units"))[0]
        anonymous = ThinClient(server)
        assert anonymous.get(f"/hedc/download?item={unit['item_id']}").status == 403
        response = logged_in_client.get(f"/hedc/download?item={unit['item_id']}")
        assert response.status == 200
        assert response.body[:2] == b"\x1f\x8b"  # gzipped FITS

    def test_analyze_via_web_creates_analysis(self, web_stack, logged_in_client):
        hedc, _server, events = web_stack
        response = logged_in_client.get(
            f"/hedc/analyze?hle={events[0]['hle_id']}&algorithm=histogram&n_bins=16"
        )
        assert response.status == 302
        ana_page = logged_in_client.get(response.headers["Location"])
        assert ana_page.status == 200
        assert "histogram" in ana_page.text

    def test_analysis_images_served_and_visible(self, web_stack, logged_in_client):
        _hedc, _server, events = web_stack
        result = logged_in_client.browse_hle(events[0]["hle_id"])
        assert result.page_bytes > 500
        # The analyze test above attached at least one image to this HLE.
        assert result.n_images >= 1
        assert result.image_bytes > 0

    def test_static_images_cached_client_side(self, web_stack):
        _hedc, server, _events = web_stack
        client = ThinClient(server)
        before = server.requests_served
        client.get("/static/logo.pgm")
        client.get("/static/logo.pgm")
        assert server.requests_served == before + 1  # second hit from cache

    def test_server_counts_requests_and_bytes(self, web_stack):
        _hedc, server, _events = web_stack
        client = ThinClient(server)
        before = server.bytes_sent
        client.get("/hedc/catalogs")
        assert server.bytes_sent > before

    def test_cookie_traffic_counts_as_session_hits(self, tmp_path):
        """``by_cookie`` is the only session lookup the servlets make: one
        login, then pages by cookie, must read as a warm session cache on
        every surface that reports it."""
        from .serving import build_stack

        stack = build_stack(tmp_path, n_hles=2)
        sessions = stack.dm.sessions
        for _page in range(20):
            assert stack.web.handle(stack.request("/hedc/catalogs")).status == 200
        assert sessions.hits >= 20
        assert sessions.hit_ratio > 0.9
        assert stack.dm.telemetry_report()["sessions"]["hit_ratio"] > 0.9
        assert stack.obs.registry.value("dm.sessions.hits") == sessions.hits
        served = sessions.by_cookie(stack.session_cookie).requests_served
        assert served >= 20      # the lookup touches the session itself
        misses = sessions.misses
        assert sessions.by_cookie("no-such-cookie") is None
        assert sessions.misses == misses + 1


class TestObservabilityIntegration:
    """A full browse through the three tiers, observed end to end."""

    def test_browse_produces_span_tree_and_route_metrics(self, web_stack):
        hedc, server, events = web_stack
        client = ThinClient(server)
        assert client.login("reader", "reader-pw")
        hedc.obs.enable()
        hedc.obs.tracer.reset()
        try:
            result = client.browse_hle(events[0]["hle_id"])
        finally:
            hedc.obs.disable()
        assert result.elapsed_s > 0

        # One browse is one trace: client.browse_s at the root, the
        # web → dm → metadb chain nested beneath it.
        roots = [span for span in hedc.obs.tracer.finished_spans()
                 if span.name == "client.browse_s"]
        assert len(roots) == 1
        handles = roots[0].find("web.handle")
        assert len(handles) == result.n_requests
        hle_handle = next(span for span in handles
                          if span.tags.get("route") == "/hedc/hle")
        assert hle_handle.tags.get("status") == 200
        # The page is one batch (dm.batch), its statements beneath it.
        dm_spans = hle_handle.find("dm.batch")
        assert dm_spans, "web.handle must contain a dm.batch span"
        assert len(dm_spans[0].find("metadb.execute")) == 7, \
            "dm.batch must contain the page's metadb.execute spans"
        # Every span in the tree belongs to the same trace.
        assert {span.trace_id for span in roots[0].walk()} == {roots[0].span_id}

        # The edge servlet serves per-route latency histograms.
        response = client.get("/hedc/metrics")
        assert response.status == 200
        assert response.content_type == "text/plain"
        hle_lines = [line for line in response.text.splitlines()
                     if line.startswith("web.request_s,route=/hedc/hle")]
        assert len(hle_lines) == 1
        assert "p50=" in hle_lines[0] and "p95=" in hle_lines[0]
        registry = hedc.obs.registry
        assert registry.get("web.request_s",
                            server=server.name, route="/hedc/hle").count > 0
        assert registry.value("web.responses", server=server.name,
                              route="/hedc/hle", status="200") > 0

    def test_metrics_servlet_json_format(self, web_stack):
        hedc, server, _events = web_stack
        import json

        client = ThinClient(server)
        response = client.get("/hedc/metrics?format=json")
        assert response.status == 200
        assert response.content_type == "application/json"
        data = json.loads(response.text)
        assert "metrics" in data and "traces" in data
        assert "web.requests" in data["metrics"]

    def test_telemetry_report_summarises_tiers(self, web_stack):
        hedc, _server, _events = web_stack
        report = hedc.telemetry_report()
        assert report["node"] == "dm0"
        assert report["db"]["queries"] > 0
        assert report["db"]["latency"]["count"] >= 0
        assert "pools" not in report   # nothing ever acquired from them
        assert 0.0 <= report["sessions"]["hit_ratio"] <= 1.0
        assert report["name_mapping"]["lookups"] > 0
        assert "metrics" in report


class TestConditionalGets:
    """ETag/If-None-Match on the result servlets: derived products are
    immutable, so their registered checksums are strong validators."""

    def _first_image_url(self, client, events):
        response = client.get(
            f"/hedc/analyze?hle={events[0]['hle_id']}&algorithm=histogram&n_bins=24"
        )
        assert response.status == 302
        ana_page = client.get(response.headers["Location"])
        match = re.search(r'src="(/hedc/image[^"]+)"', ana_page.text)
        assert match is not None
        return match.group(1).replace("&amp;", "&")

    def test_image_served_with_etag_then_304(self, web_stack, logged_in_client):
        _hedc, server, events = web_stack
        url = self._first_image_url(logged_in_client, events)
        first = server.handle(
            HttpRequest.get(url, logged_in_client.cookies))
        assert first.status == 200
        etag = first.headers.get("ETag")
        assert etag and etag.startswith('"')
        revalidation = server.handle(
            HttpRequest.get(url, logged_in_client.cookies,
                            headers={"If-None-Match": etag}))
        assert revalidation.status == 304
        assert revalidation.body == b""
        assert revalidation.headers["ETag"] == etag
        stale = server.handle(
            HttpRequest.get(url, logged_in_client.cookies,
                            headers={"If-None-Match": '"other"'}))
        assert stale.status == 200 and stale.body == first.body

    def test_ana_page_served_with_etag_then_304(self, web_stack, logged_in_client):
        hedc, server, events = web_stack
        response = logged_in_client.get(
            f"/hedc/analyze?hle={events[0]['hle_id']}&algorithm=histogram&n_bins=28"
        )
        assert response.status == 302
        url = response.headers["Location"]
        first = server.handle(HttpRequest.get(url, logged_in_client.cookies))
        assert first.status == 200
        etag = first.headers["ETag"]
        revalidation = server.handle(
            HttpRequest.get(url, logged_in_client.cookies,
                            headers={"If-None-Match": etag}))
        assert revalidation.status == 304
        assert hedc.obs.registry.value("web.not_modified",
                                       route="/hedc/ana") >= 1

    def test_download_revalidates_by_checksum(self, web_stack, logged_in_client):
        hedc, server, _events = web_stack
        from repro.metadb import Select

        unit = hedc.dm.io.execute(Select("raw_units"))[0]
        url = f"/hedc/download?item={unit['item_id']}"
        first = server.handle(HttpRequest.get(url, logged_in_client.cookies))
        assert first.status == 200
        etag = first.headers["ETag"]
        revalidation = server.handle(
            HttpRequest.get(url, logged_in_client.cookies,
                            headers={"If-None-Match": etag}))
        assert revalidation.status == 304

    def test_thin_client_revalidation_cache(self, web_stack, logged_in_client):
        hedc, _server, events = web_stack
        url = self._first_image_url(logged_in_client, events)
        revalidated = hedc.obs.counter("client.revalidated",
                                       client=logged_in_client.client_ip)
        before = revalidated.value
        first = logged_in_client.get(url)
        assert first.status == 200
        second = logged_in_client.get(url)
        # The client sent If-None-Match, the server answered 304, and the
        # client replayed its cached body transparently.
        assert second.status == 200
        assert second.body == first.body
        assert revalidated.value == before + 1


# -- /hedc/analyze cannot be made to fail by its parameters ------------------

#: One call of a table routine, then its variable: numbers and declared
#: choices are the only argument shapes, so no request text fits in.
_NUMBER = r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?"
_CALL_SHAPE = re.compile(
    rf"result = hsi_[a-z]+\((?:{_NUMBER}|'(?:energy|time|detector)')"
    rf"(?:, (?:{_NUMBER}|'(?:energy|time|detector)'))*\)\nresult"
)

_HOSTILE = [
    "", "abc", "nan", "inf", "-inf", "1e999", "-1", "0", "100000000", "9" * 40,
    "-" + "9" * 40, "energy')\nprint, 1\n;", "energy", "'", "\n", ";", "16; print, 1",
    "16\n", " 16 ", "1_6", "0x10", "1e2", "4.0)\nprint, 1\n;(", "\x00",
]


_hostile_values = st.one_of(
    st.sampled_from(_HOSTILE),
    st.text(max_size=16),
    st.integers().map(str),
    st.floats().map(repr),
)


def _in_bounds(parameter):
    """Text of a value the declaration admits (integers kept small: the
    largest images take seconds)."""
    if parameter.type is str:
        return st.sampled_from(parameter.choices)
    if parameter.type is int:
        return st.integers(parameter.minimum, min(parameter.maximum, 48)).map(str)
    return st.floats(parameter.minimum, parameter.maximum).map(repr)


@st.composite
def _analyze_posts(draw):
    """An algorithm (registered or arbitrary text) and, for each parameter
    it declares, nothing, a value inside its bounds or a hostile one; plus
    keys it does not declare."""
    from repro.pl import DEFAULT_STRATEGIES, AnimationStrategy

    strategies = {**DEFAULT_STRATEGIES, "animation": AnimationStrategy()}
    algorithm = draw(st.one_of(st.sampled_from(sorted(strategies)),
                               st.sampled_from(sorted(strategies)),
                               st.text(max_size=12)))
    declared = strategies[algorithm].parameters if algorithm in strategies else ()
    every_key = sorted({parameter.name for strategy in strategies.values()
                        for parameter in strategy.parameters})
    post = draw(st.dictionaries(
        st.one_of(st.sampled_from(every_key), st.text(min_size=1, max_size=8)),
        _hostile_values, max_size=2))
    post = {key: value for key, value in post.items()
            if key not in ("hle", "algorithm")
            and key not in {parameter.name for parameter in declared}}
    for parameter in declared:
        kind = draw(st.sampled_from(["absent", "in bounds", "in bounds", "hostile"]))
        if kind == "in bounds":
            post[parameter.name] = draw(_in_bounds(parameter))
        elif kind == "hostile":
            post[parameter.name] = draw(_hostile_values)
    return algorithm, post


@pytest.fixture(scope="module")
def analyze_probe(web_stack):
    """A logged-in client and a spy on what the IDL servers are handed."""
    hedc, server, events = web_stack
    client = ThinClient(server)
    assert client.login("reader", "reader-pw")
    calls = []
    invoke = hedc.idl.invoke

    def spy(source, *args, **kwargs):
        result = invoke(source, *args, **kwargs)
        calls.append((source, result))
        return result

    hedc.idl.invoke = spy
    yield hedc, client, events[0]["hle_id"], calls
    del hedc.idl.invoke


class TestAnalyzeEdges:
    @settings(max_examples=200, deadline=None)
    @given(post=_analyze_posts())
    def test_status_is_302_or_400_whatever_the_parameters(self, analyze_probe, post):
        hedc, client, hle_id, calls = analyze_probe
        algorithm, parameters = post
        del calls[:]
        rows = len(hedc.dm.semantic.analyses_for_hle(None, hle_id))
        response = client.post(
            "/hedc/analyze", {"hle": str(hle_id), "algorithm": algorithm, **parameters})
        assert response.status in (302, 400), response.text
        for source, result in calls:
            assert _CALL_SHAPE.fullmatch(source), source
            assert result.printed == []
        if response.status == 400:
            assert calls == []
            assert len(hedc.dm.semantic.analyses_for_hle(None, hle_id)) == rows

    @pytest.mark.parametrize("query", [
        "algorithm=histogram&attribute=energy')%0Aprint,%201%0A;",
        "algorithm=histogram&n_bins=abc",
        "algorithm=nope",
        "algorithm=histogram&n_bins=0",
        "algorithm=lightcurve&bin_width_s=0",
        "algorithm=lightcurve&bin_width_s=nan",
        "algorithm=imaging&n_pixels=100000000",
        "algorithm=user_routine",
        "algorithm=user_routine&routine=flare_hardness(ph_energies)%0Aprint,%201%0A;",
        "algorithm=user_routine&routine=no_such_routine",
        "algorithm=user_routine&routine=summarize_counts",      # a PRO, not a function
        "algorithm=user_routine&routine=ph_energies",           # a variable
    ])
    def test_the_probes_that_sized_the_issue(self, analyze_probe, monkeypatch, query):
        """Seven URLs that were one committed injection and six 500s,
        ``user_routine``'s two, and three names that pass for identifiers
        and are no function the servers have (500s until the name was
        checked where it enters): 400, and nothing ran."""
        hedc, client, hle_id, calls = analyze_probe
        del calls[:]
        loads = []
        monkeypatch.setattr(hedc.dm.process, "load_photons",
                            lambda *args, **kwargs: loads.append(args) or 1 / 0)
        rows = len(hedc.dm.semantic.analyses_for_hle(None, hle_id))
        response = client.get(f"/hedc/analyze?hle={hle_id}&{query}")
        assert response.status == 400
        assert calls == [] and loads == []
        assert len(hedc.dm.semantic.analyses_for_hle(None, hle_id)) == rows
        assert "print" not in response.text

    def test_submitted_routine_is_a_400_until_it_is_published(self, analyze_probe):
        hedc, client, hle_id, calls = analyze_probe
        author = hedc.register_user("routine-author", "pw", group="scientist")
        source = "function twice_mean, x\n  return, 2.0 * mean(x)\nend"
        hedc.routines.submit(author, "twice_mean", source)
        url = f"/hedc/analyze?hle={hle_id}&algorithm=user_routine&routine=twice_mean"
        del calls[:]
        assert client.get(url).status == 400
        assert calls == []
        hedc.routines.publish(author, "twice_mean")
        hedc.idl.broadcast_source(source)
        assert client.get(url).status == 302

    def test_web_reaches_a_published_routine(self, analyze_probe):
        hedc, client, hle_id, calls = analyze_probe
        del calls[:]
        response = client.get(
            f"/hedc/analyze?hle={hle_id}&algorithm=user_routine&routine=Peak_Rate")
        assert response.status == 302
        assert [source for source, _result in calls] == \
            ["result = peak_rate(ph_energies)\nresult"]


# -- the read servlets' edges: typed failures, nothing echoed as markup -----------------

_FRAGMENT = re.compile(r"<[^<>]*>")
#: Tags the pages themselves are written in: a request that spells one of
#: these cannot be told from the page.
_OUR_TAGS = set(_FRAGMENT.findall(
    "".join(getattr(pages, name.upper()) for name in PAGE_NAMES)
    + HttpResponse.error(0, "").text))

_MARKUP = [
    "<b>x</b>", "<script>x</script>", "<i>zz</i>", "<u>x</u>", "\"><img src=x>",
    "ana:<script>x</script>", "ana:<u>1</u>", "hle:<b>1</b>", "<svg/onload=alert(1)>",
    "'<x y='z'>", "<>", "< a >",
]
_hostile_text = st.one_of(
    st.sampled_from(_MARKUP), st.sampled_from(_MARKUP), st.sampled_from(_HOSTILE),
    st.text(max_size=12), st.text(alphabet="<>&\"'/ab1:", max_size=10),
    st.integers().map(str), st.floats().map(repr),
)
_SQL = [
    "select * from hle", "select hle_id, title, kind, peak_rate from hle where peak_rate > 0",
    "select * from hle where kind = '<b>x</b>'", "select * from hle where title like '%<i>%'",
    "select * from hle order by peak_rate desc limit 3", "select * from hle where nope = 1",
    "select * from hle where title > 5", "select * from hle where hle_id in (1, 2)",
    "select nope from hle", "select title from hle", "select count(*) from hle",
    "select kind, count(*) as n from hle group by kind", "select * from ana",
    "select * from catalogs", "select * from hle limit -1", "select * from hle where",
    "delete from hle", "update hle set title = '<b>'", "insert into hle (hle_id) values (1)",
    "select login from admin_users", "select * from <b>", "selec",
    "select * from hle; drop table hle", "create table t (a int)",
]


class TestItemGate:
    """``/hedc/image`` and ``/hedc/download`` serve an item's files only
    to a user its tuple is visible to; a hidden item answers exactly like
    a missing one."""

    @pytest.fixture(params=["plain", "sharded"])
    def gated(self, request, tmp_path):
        import numpy as np

        from repro.analysis import AnalysisProduct, render_pgm
        from repro.core import Hedc

        sharding = {} if request.param == "plain" else \
            {"shard_boundaries": (100.0, 200.0, 300.0)}
        hedc = Hedc.create(tmp_path / "hedc", **sharding)
        try:
            alice = hedc.register_user("alice", "pw")
            hedc.register_user("bob", "pw")
            semantic, names = hedc.dm.semantic, hedc.dm.io.names
            hle_id = semantic.insert_hle(alice, {"start_time": 150.0, "end_time": 160.0})
            product = AnalysisProduct("imaging", {"n_pixels": 8})
            product.add_image(render_pgm(np.eye(8)))
            ana_id = semantic.import_analysis(alice, hle_id, product, {})
            catalog_id = semantic.create_catalog(alice, "mine")
            for item_id in (f"hle:{hle_id}", f"cat:{catalog_id}"):
                stored = hedc.dm.io.store_payload(f"extra/{item_id}.pgm", b"P5 1 1 255 x")
                names.register_file(item_id, stored.archive_id, stored.rel_path,
                                    role="image", checksum=stored.checksum)
            clients = {"anonymous": ThinClient(hedc.web)}
            for login in ("alice", "bob"):
                clients[login] = ThinClient(hedc.web)
                assert clients[login].login(login, "pw")
            yield hedc, clients, alice, (hle_id, ana_id, catalog_id)
        finally:
            hedc.idl.stop_all()
            hedc.frontend.close()

    def test_private_items_answer_their_owner_only(self, gated):
        hedc, clients, alice, (hle_id, ana_id, catalog_id) = gated
        items = (f"ana:{ana_id}", f"hle:{hle_id}", f"cat:{catalog_id}")
        urls = [f"/hedc/ana?id={ana_id}"]
        urls += [f"/hedc/image?item={item}" for item in items]
        urls += [f"/hedc/download?item={item}" for item in items]
        missing = [url.replace(f":{ana_id}", ":99999") for url in urls if "item=ana" in url]

        def statuses(who, paths):
            return [clients[who].get(url).status for url in paths]

        assert statuses("alice", urls) == [200] * 7
        assert statuses("bob", urls) == [404] * 7
        assert statuses("bob", missing) == [404] * 2       # hidden reads as missing
        # Anonymous visitors cannot download at all.
        assert statuses("anonymous", urls) == [404] * 4 + [403] * 3

        hedc.dm.semantic.publish_analysis(alice, ana_id)
        hedc.dm.semantic.publish_hle(alice, hle_id)
        assert statuses("bob", urls[:3] + urls[4:6]) == [200] * 5
        assert statuses("anonymous", urls[:3]) == [200] * 3
        assert statuses("bob", [urls[3], urls[6]]) == [404] * 2     # the catalogue is not

    def test_item_ids_that_do_not_parse_are_400s(self, gated):
        _hedc, clients, _alice, _ids = gated
        for servlet in ("image", "download"):
            for item in ("ana:x", "hle:", "cat:1.5"):
                assert clients["alice"].get(f"/hedc/{servlet}?item={item}").status == 400
            # Kinds nobody owns are looked up as before: no files, 404.
            assert clients["alice"].get(f"/hedc/{servlet}?item=unit:nope").status == 404


@pytest.fixture(scope="module")
def edge_probe(web_stack):
    """The server, a logged-in cookie jar and the identifiers the seeded
    repository really holds (one analysis is made if there is none)."""
    from repro.metadb import Select

    hedc, server, events = web_stack
    client = ThinClient(server)
    assert client.login("reader", "reader-pw")
    hle_id = events[0]["hle_id"]
    if not hedc.dm.io.execute(Select("ana")):
        assert client.post("/hedc/analyze", {
            "hle": str(hle_id), "algorithm": "histogram", "n_bins": "16"}).status == 302
    hedc.dm.queries.register("bright", "select * from hle where peak_rate > 1")
    hedc.dm.queries.register("per_kind", "select kind, count(*) as n from hle group by kind")
    known = {
        "hle": [event["hle_id"] for event in events],
        "ana": [row["ana_id"] for row in hedc.dm.io.execute(Select("ana"))],
        "catalog": [hedc.standard_catalog_id],
        "kind": sorted({event["kind"] for event in events}),
        "preset": hedc.dm.queries.names(),
        "unit": [row["item_id"] for row in hedc.dm.io.execute(Select("raw_units"))][:3],
    }
    known["path"] = [name.path for item_id in known["unit"]
                     for name in hedc.dm.io.names.resolve_files(item_id)]
    return server, dict(client.cookies), known


def _edge_request(draw, route, known):
    """``(path, params)`` for one request to ``route``: each parameter
    absent, a value the repository holds, or hostile text."""
    def held(name):
        return st.sampled_from([str(value) for value in known[name]])

    in_range = {
        "/hedc/search": {"kind": held("kind"), "min_rate": st.floats(0, 1e6).map(repr),
                         "preset": held("preset"), "sql": st.sampled_from(_SQL)},
        "/hedc/hle": {"id": held("hle")},
        "/hedc/catalog": {"id": held("catalog")},
        "/hedc/ana": {"id": held("ana")},
        "/hedc/image": {"item": st.one_of(held("ana").map("ana:{}".format), held("unit")),
                        "index": st.integers(-2, 3).map(str)},
        "/hedc/download": {"item": st.one_of(held("ana").map("ana:{}".format), held("unit")),
                           "path": held("path")},
        "/static": {},
    }[route]
    params = {}
    for name, values in in_range.items():
        kind = draw(st.sampled_from(["absent", "in range", "in range", "hostile"]))
        if kind != "absent":
            params[name] = draw(values if kind == "in range" else _hostile_text)
    path = route
    if route == "/static":
        path += "/" + draw(st.one_of(st.sampled_from(["logo.pgm", "nav.pgm"]), _hostile_text))
    return path, params


def _assert_typed_and_escaped(response, sent):
    assert response.status in (200, 304, 400, 403, 404), response.text
    for text in sent:
        for fragment in set(_FRAGMENT.findall(text)) - _OUR_TAGS:
            assert fragment.encode("utf-8") not in response.body, (fragment, response.text)


class TestReadEdges:
    @pytest.mark.parametrize("route", [
        "/hedc/search", "/hedc/hle", "/hedc/catalog", "/hedc/ana", "/hedc/image",
        "/hedc/download", "/static"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_never_500_and_no_request_markup_in_the_body(self, edge_probe, route, data):
        server, cookies, known = edge_probe
        path, params = _edge_request(data.draw, route, known)
        logged_in = data.draw(st.booleans())
        request = HttpRequest("GET", path, params, dict(cookies) if logged_in else {})
        _assert_typed_and_escaped(server.handle(request), [path, *params.values()])

    @pytest.mark.parametrize("url, status", [
        # Error pages echoed request text as markup.
        ("/nowhere/<b>x</b>", 404),
        ("/hedc/image?item=<i>zz</i>&index=3", 404),
        ("/hedc/download?item=<u>x</u>", 404),
        ("/hedc/image?item=ana:<script>x</script>", 400),
        ("/static/<b>x</b>", 404),
        # EntityNotFound was a 500.
        ("/hedc/hle?id=999999", 404),
        ("/hedc/catalog?id=99999", 404),
        ("/hedc/ana?id=99999", 404),
        ("/hedc/image?item=ana:99999", 404),
        # Parameter text that reached float(), int() and the preset table.
        ("/hedc/search?min_rate=abc", 400),
        ("/hedc/search?min_rate=nan", 400),
        ("/hedc/search?min_rate=inf", 400),
        ("/hedc/image?item=ana:xyz", 400),
        ("/hedc/image?item=nothing&index=-1", 404),
        ("/hedc/search?preset=nope", 400),
        # User SQL: unparseable, unrenderable, not allowed.
        ("/hedc/search?sql=selec+<b>", 400),
        ("/hedc/search?sql=select+nope+from+hle", 400),
        ("/hedc/search?sql=select+count(*)+from+hle", 400),
        ("/hedc/search?preset=per_kind", 400),
        ("/hedc/search?sql=delete+from+hle", 403),
        ("/hedc/search?sql=select+login+from+admin_users", 403),
        # SUM or AVG over a TEXT column.
        ("/hedc/search?sql=select+sum(kind)+as+x+from+hle", 400),
        ("/hedc/search?sql=select+avg(kind)+as+x+from+hle+group+by+kind", 400),
        # A LIMIT or OFFSET no slice takes, or one that is not an integer.
        ("/hedc/search?sql=SELECT+hle_id,+title,+kind,+peak_rate+FROM+hle"
         "+LIMIT+99999999999999999999", 400),
        ("/hedc/search?sql=SELECT+hle_id,+title,+kind,+peak_rate+FROM+hle"
         "+LIMIT+5+OFFSET+99999999999999999999", 400),
        ("/hedc/search?sql=SELECT+hle_id,+title,+kind,+peak_rate+FROM+hle"
         "+ORDER+BY+peak_rate+DESC+LIMIT+5+OFFSET+99999999999999999999", 400),
        ("/hedc/search?sql=SELECT+hle_id,+title,+kind,+peak_rate+FROM+hle+LIMIT+2.5", 400),
        # A range whose literal does not compare with an indexed column:
        # no row matches, as on a column without an index.
        ("/hedc/search?sql=select+*+from+hle+where+peak_rate+>+'x'", 200),
        ("/hedc/search?sql=select+*+from+hle+where+start_time+between+'a'+and+'b'", 200),
        ("/hedc/search?sql=select+*+from+hle+where+kind+>+3", 200),
    ])
    def test_the_probes_that_sized_the_issue(self, edge_probe, url, status):
        """Each was a 500, or a page with the client's own tags in it."""
        server, cookies, _known = edge_probe
        request = HttpRequest.get(url, cookies)
        response = server.handle(request)
        assert response.status == status, response.text
        _assert_typed_and_escaped(response, [request.path, *request.params.values()])
        if status == 200:
            assert "/hedc/hle?id=" not in response.text
        else:
            assert response.text.startswith(f"<html><body><h1>{status}</h1><p>")

    def test_error_pages_escape_their_message_once(self):
        response = HttpResponse.error(404, "no file for <u>x</u> & 'co'")
        assert response.text == ("<html><body><h1>404</h1><p>no file for "
                                 "&lt;u&gt;x&lt;/u&gt; &amp; &#x27;co&#x27;</p></body></html>")

    def test_a_preset_and_user_sql_still_answer(self, edge_probe):
        server, cookies, known = edge_probe
        for url in ("/hedc/search?preset=bright", "/hedc/search?sql=select+*+from+hle"):
            response = server.handle(HttpRequest.get(url, cookies))
            assert response.status == 200
            assert f"/hedc/hle?id={known['hle'][0]}" in response.text
