"""The compiled template engine against the interpreter it replaced.

``repro.web.templates`` compiles a template into closures when it is
registered; ``tests/oracle_templates.py`` is the tree interpreter that
rendered every page before, copied unchanged.  Whatever hypothesis writes
as template source and context, the two return the same string or raise
the same exception with the same text; the named cases pin what is bound
at compile time and what at render time.
"""

import math
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.web import Template, TemplateError, TemplateRegistry, ThinClient, pages

from . import oracle_templates as oracle

# -- what hypothesis draws -------------------------------------------------------

#: Names a context may bind; ``ghost`` and ``nokey`` never are.
NAMES = ["a", "b", "row", "items", "user", "x"]
KEYS = ["a", "b", "kind", "title", "children", "x"]


class Reading(float):
    """A float that prints as markup: both engines format it ``.6g``."""

    def __str__(self):
        return "<reading>"


class Thing:
    """Attribute access, and a ``str()`` that needs escaping."""

    def __init__(self, **attributes):
        self.__dict__.update(attributes)

    def __str__(self):
        return "<Thing & 'co'>"


_markup = st.text(alphabet="ab <>&\"'{}%", max_size=8)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300, 1234567.0,
                     0.1 + 0.2, 3.14159265]),
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**12, 10**12), _floats,
    _floats.map(Reading), _markup, st.just("<b>bold</b>"),
)


def _containers(children):
    members = st.dictionaries(st.sampled_from(KEYS), children, max_size=3)
    return st.one_of(st.lists(children, max_size=3), members,
                     members.map(lambda attributes: Thing(**attributes)))


_values = st.recursive(_scalars, _containers, max_leaves=8)
_rows = st.fixed_dictionaries({}, optional={key: _values for key in KEYS})
_things = _rows.map(lambda attributes: Thing(**attributes))
#: Mostly the shapes the paths below expect, so that most expressions
#: resolve; then any value under any name, and a name or two unbound.
_contexts = st.builds(
    lambda shaped, extra, unbound: {name: value for name, value in {**shaped, **extra}.items()
                                    if name not in unbound},
    st.fixed_dictionaries({
        "a": st.one_of(_floats, _markup), "b": _scalars, "x": _values,
        "row": st.one_of(_rows, _things),
        "items": st.lists(st.one_of(_rows, _things, _scalars), max_size=3),
        "user": st.one_of(st.none(), _things),
    }),
    st.dictionaries(st.sampled_from(NAMES), _values, max_size=2),
    st.sets(st.sampled_from(NAMES), max_size=2),
)

_heads = st.sampled_from(NAMES * 4 + ["ghost"])
_paths = st.one_of(
    _heads,
    st.lists(st.sampled_from(KEYS * 3 + ["nokey"]), min_size=1, max_size=2).flatmap(
        lambda keys: _heads.map(lambda head: ".".join([head] + keys))),
)
_expressions = st.one_of(
    _paths, _paths, _paths,
    st.integers(-99, 99).map(str),
    st.sampled_from(["'lit'", '"<q>"', "'", "''", "+7", "1_0", "'a\"", " a ", "a.", ".a", ""]),
)
_text = st.text(alphabet="ab \n&<>\"'{}%", max_size=10)


def _tags(children):
    body = st.lists(children, max_size=3).map("".join)
    loop = st.builds(
        lambda variable, expression, inner:
            "{% for " + variable + " in " + expression + " %}" + inner + "{% endfor %}",
        st.sampled_from(NAMES), _paths, body)
    branch = st.builds(
        lambda expression, then, otherwise:
            "{% if " + expression + " %}" + then
            + ("" if otherwise is None else "{% else %}" + otherwise) + "{% endif %}",
        _expressions, body, st.one_of(st.none(), body))
    return st.one_of(loop, branch, body)


_leaves = st.one_of(
    _text,
    _expressions.map(lambda e: "{{ " + e + " }}"),
    _paths.map(lambda e: "{{ " + e + " }}"),
    _heads.map(lambda e: "{{ " + e + " }}"),
    _expressions.map(lambda e: "{{" + e + "|safe}}"),
    st.sampled_from(["{% include t1 %}", "{% include t2 %}", "{% include ghost %}",
                     "{% endfor %}", "{% else %}", "{% bogus %}", "{% for x %}",
                     "{% for x in %}", "{{", "{%"]),
)
_sources = st.recursive(_leaves, _tags, max_leaves=10)


def _outcome(call):
    """The string ``call`` returns, or the exception it raises, as data."""
    try:
        return call()
    except RecursionError:
        raise
    except Exception as exc:
        return type(exc), str(exc)


def _registries(sources):
    """The same named sources in a compiled and an interpreted registry,
    or the construction error each raised."""
    def build(registry):
        for name, source in sources.items():
            registry.register(name, source)
        return registry

    return (_outcome(lambda: build(TemplateRegistry())),
            _outcome(lambda: build(oracle.TemplateRegistry())))


class TestAgainstTheInterpreter:
    @settings(max_examples=400, deadline=None)
    @given(t0=_sources, t1=_sources, t2=_sources, context=_contexts)
    def test_same_string_or_same_error(self, t0, t1, t2, context):
        # An include names a later sibling only, so no template includes
        # itself; ``t2`` keeps its includes of the unknown ``ghost``.
        t1 = t1.replace("{% include t1 %}", "")
        t2 = t2.replace("{% include t1 %}", "").replace("{% include t2 %}", "")
        compiled, interpreted = _registries({"t0": t0, "t1": t1, "t2": t2})
        if not isinstance(interpreted, oracle.TemplateRegistry):
            assert compiled == interpreted
            assert interpreted[0] is TemplateError
            return
        assert isinstance(compiled, TemplateRegistry)
        bound = list(context.items())
        for name in ("t0", "t1", "t2"):
            expected = _outcome(lambda: interpreted.render(name, context))
            assert _outcome(lambda: compiled.render(name, context)) == expected
            # No loop wrote its variable into the caller's context.
            assert [(key, id(value)) for key, value in context.items()] \
                == [(key, id(value)) for key, value in bound]
        # A bare Template renders without a registry: includes find nothing.
        assert (_outcome(lambda: Template(t0).render(context))
                == _outcome(lambda: oracle.Template(t0).render(context)))

    @pytest.mark.parametrize("source, context, expected", [
        ("{{ s }}", {"s": "<b>&\"'"}, "&lt;b&gt;&amp;&quot;&#x27;"),
        ("{{ s|safe }}", {"s": "<b>&"}, "<b>&"),
        ("{{ t }}|{{ t|safe }}", {"t": Thing()},
         "&lt;Thing &amp; &#x27;co&#x27;&gt;|<Thing & 'co'>"),
        ("{{ f }}", {"f": 1234567.0}, "1.23457e+06"),
        ("{{ f }} {{ g }} {{ h }}", {"f": math.nan, "g": -math.inf, "h": -0.0}, "nan -inf -0"),
        ("{{ f }}|{{ f|safe }}", {"f": Reading(2.5)}, "2.5|2.5"),
        ("{{ n }}{{ b }}{{ i }}", {"n": None, "b": True, "i": -7}, "True-7"),
        ("{{ 'it''s' }}{{ \"<q>\" }}{{ 42 }}{{ +7 }}", {}, "it&#x27;&#x27;s&lt;q&gt;427"),
        ("{{ row.kind }}/{{ thing.kind }}/{{ row.sub.kind }}/{{ thing.sub.kind }}",
         {"row": {"kind": "r", "sub": Thing(kind="rs")},
          "thing": Thing(kind="t", sub={"kind": "ts"})}, "r/t/rs/ts"),
        ("{% if ghost %}y{% else %}n{% endif %}{% if row.nokey %}y{% endif %}", {"row": {}}, "n"),
        ("{% if 0 %}y{% else %}n{% endif %}{% if '' %}y{% else %}n{% endif %}", {}, "nn"),
        ("{% for x in rows %}{% for x in x.children %}{{ x }}{% endfor %}{{ x.kind }};{% endfor %}",
         {"rows": [{"kind": "k1", "children": [1, 2]}, {"kind": "k2", "children": []}]},
         "12k1;k2;"),
        ("{{ x }}{% for x in xs %}{{ x }}{% endfor %}{{ x }}",
         {"x": "o", "xs": ["i", "j"]}, "oijo"),
    ])
    def test_named_renderings(self, source, context, expected):
        assert Template(source).render(context) == expected
        assert oracle.Template(source).render(context) == expected

    @pytest.mark.parametrize("source, context, message", [
        ("{{ ghost }}", {}, "unknown template variable 'ghost'"),
        ("{{ ghost.kind }}", {}, "unknown template variable 'ghost'"),
        ("{{ row.nokey }}", {"row": {"kind": "k"}}, "no key 'nokey' in 'row'"),
        ("{{ row.kind.nokey }}", {"row": {"kind": {}}}, "no key 'nokey' in 'row'"),
        ("{{ thing.nokey }}", {"thing": Thing()}, "no attribute 'nokey' on 'thing'"),
        ("{{ row.a.b.c }}", {"row": {"a": {"b": 1}}}, "no attribute 'c' on 'row'"),
        ("{{ }}", {}, "unknown template variable ''"),
        ("{% for x in ghost %}{% endfor %}", {}, "unknown template variable 'ghost'"),
        ("{% include ghost %}", {}, "unknown template 'ghost'"),
    ])
    def test_render_errors_keep_their_text(self, source, context, message):
        for engine in (Template, oracle.Template):
            with pytest.raises(TemplateError) as raised:
                engine(source).render(context)
            assert str(raised.value) == message

    @pytest.mark.parametrize("source, message", [
        ("{% for x in xs %}no end", "missing endfor"),
        ("{% if x %}no end", "missing else/endif"),
        ("{% if x %}a{% else %}no end", "missing endif"),
        ("{% bogus %}", "unknown tag 'bogus'"),
        ("{% endfor %}", "unknown tag 'endfor'"),
        ("{% for x %}{% endfor %}", "bad for tag: 'for x'"),
        ("{% for x.y in xs %}{% endfor %}", "bad for tag: 'for x.y in xs'"),
    ])
    def test_construction_errors_keep_their_text(self, source, message):
        for engine in (Template, oracle.Template):
            with pytest.raises(TemplateError) as raised:
                engine(source)
            assert str(raised.value) == message
        # ... and nothing is registered under the name.
        registry = TemplateRegistry()
        with pytest.raises(TemplateError):
            registry.register("broken", source)
        assert "broken" not in registry

    def test_a_bad_expression_is_an_error_of_the_render_that_reaches_it(self):
        template = Template("{% if show %}{{ ghost.kind }}{% endif %}ok")
        assert template.render({"show": False}) == "ok"
        with pytest.raises(TemplateError):
            template.render({"show": True})


class TestBinding:
    """Expressions are read at compile time; names resolve at render time."""

    def test_include_registered_after_its_includer(self):
        registry = TemplateRegistry()
        registry.register("page", "[{% include part %}]")
        with pytest.raises(TemplateError, match="unknown template 'part'"):
            registry.render("page", {})
        registry.register("part", "{{ v }}")
        assert registry.render("page", {"v": 1}) == "[1]"

    def test_re_registration_reaches_every_includer(self):
        registry = TemplateRegistry()
        registry.register("part", "old")
        registry.register("page", "[{% include part %}]")
        assert registry.render("page", {}) == "[old]"
        registry.register("part", "new {{ v }}")
        assert registry.render("page", {"v": "<"}) == "[new &lt;]"

    def test_include_goes_through_the_registry_it_is_rendered_with(self):
        """``bench/trace.py`` patches ``TemplateRegistry.render`` by name
        to time the layer: an include must be one more call of it."""
        class Counting(TemplateRegistry):
            calls = 0

            def render(self, name, context):
                self.calls += 1
                return super().render(name, context)

        registry = Counting()
        registry.register("part", "p")
        registry.register(
            "page", "{% include part %}{% for x in xs %}{% include part %}{% endfor %}")
        assert registry.render("page", {"xs": [1, 2]}) == "ppp"
        assert registry.calls == 4

    def test_loop_variable_is_not_visible_after_endfor(self):
        template = Template("{% for v in xs %}{{ v }}{% endfor %}{{ v }}")
        with pytest.raises(TemplateError, match="unknown template variable 'v'"):
            template.render({"xs": [1]})
        context = {"xs": [1, 2], "v": "outer"}
        assert template.render(context) == "12outer"
        assert context == {"xs": [1, 2], "v": "outer"}

    def test_an_included_template_sees_the_loop_variable(self):
        registry = TemplateRegistry()
        registry.register("cell", "<{{ v }}>")
        registry.register("page", "{% for v in xs %}{% include cell %}{% endfor %}")
        assert registry.render("page", {"xs": [1, 2]}) == "<1><2>"

    def test_a_context_value_is_read_at_each_render(self):
        template = Template("{{ row.kind }}")
        assert template.render({"row": {"kind": "a"}}) == "a"
        assert template.render({"row": SimpleNamespace(kind="b")}) == "b"
        assert template.render({"row": {"kind": 1.5}}) == "1.5"

    def test_eight_threads_render_one_registry(self):
        registry = pages.build_registry()
        interpreted = oracle.interpreted_pages()
        contexts = [
            {"title": f"t{n}", "user": None, "sql_allowed": n % 2 == 0,
             "results": [{"hle_id": n * 100 + i, "title": f"<{n}/{i}>", "kind": "flare",
                          "peak_rate": n + i / 7} for i in range(40)]}
            for n in range(8)
        ]
        expected = [interpreted.render("search_page", context) for context in contexts]
        results: list = [None] * 8
        barrier = threading.Barrier(8)

        def work(n):
            barrier.wait(timeout=30)
            results[n] = [registry.render("search_page", contexts[n]) for _ in range(25)]

        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for n in range(8):
            assert results[n] == [expected[n]] * 25


# -- the nine registered pages -----------------------------------------------------

def test_every_registered_page_renders_the_bytes_the_interpreter_did(populated_hedc):
    """Browse a seeded repository, anonymous and logged in, keep every
    ``(name, context)`` the servlets rendered, and render each again
    through the interpreter."""
    hedc = populated_hedc
    registry = hedc.web.servlets.registry
    assert all(name in registry for name in oracle.PAGE_NAMES)
    rendered = []

    def spy(name, context):
        text = TemplateRegistry.render(registry, name, context)
        rendered.append((name, dict(context), text))
        return text

    registry.render = spy
    try:
        hle_id = hedc.events()[0]["hle_id"]
        client = ThinClient(hedc.web)
        assert client.post("/hedc/login", {"login": "reader", "password": "bad"}).status == 200
        for logged_in in (False, True):
            if logged_in:
                assert client.login("reader", "reader-pw")
                analyzed = client.post("/hedc/analyze", {
                    "hle": str(hle_id), "algorithm": "histogram", "n_bins": "16"})
                assert analyzed.status == 302
                assert client.get(analyzed.headers["Location"]).status == 200
            for url in ("/hedc/login", "/hedc/catalogs",
                        f"/hedc/catalog?id={hedc.standard_catalog_id}",
                        f"/hedc/hle?id={hle_id}", "/hedc/search",
                        "/hedc/search?kind=flare&min_rate=0.5"):
                assert client.get(url).status == 200, url
    finally:
        del registry.render
    assert {name for name, _context, _text in rendered} == set(oracle.PAGE_NAMES)
    interpreted = oracle.interpreted_pages()
    for name, context, text in rendered:
        assert interpreted.render(name, context).encode("utf-8") == text.encode("utf-8"), name
