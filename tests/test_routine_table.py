"""The analysis routine table (issue 17): every row against the class it
replaced, the edges the copies had drifted into, the degrade caps read
off the strategy, and the drill: a fifth analysis added as one row."""

import numpy as np
import pytest

from repro.analysis import LIGHTCURVE, SUPPORTED_ATTRIBUTES, render_series_pgm
from repro.analysis.routine_table import ROUTINES, Parameter, ParameterError, Routine
from repro.core import Hedc
from repro.dm import DataManager
from repro.pl import (
    DEFAULT_STRATEGIES,
    AnalysisRequest,
    Frontend,
    IdlServerManager,
    Phase,
    RoutineStrategy,
    fingerprint,
)
from repro.resil import Deadline
from repro.rhessi import TelemetryGenerator, package_units, standard_day_plan

from .oracle_strategies import ORACLE_STRATEGIES, servlet_parameters

#: ``ana`` columns that hold the wall clock.
CLOCK_COLUMNS = {"committed_at", "created_at", "updated_at"}


def _stack(root, oracle: bool):
    """A DM with one seeded observation and a started PL on top; with
    ``oracle`` the four built-ins are the classes from before the table."""
    dm = DataManager.standalone(root / "dm")
    plan = standard_day_plan(duration=240.0, seed=17, n_flares=1, n_bursts=0, n_saa=0)
    photons = TelemetryGenerator(plan, seed=17).generate()
    for unit in package_units(photons, root / "in", unit_target_photons=10**6):
        dm.process.load_raw_unit(unit, "main")
    alice = dm.users.create_user("alice", "pw", group="scientist")
    manager = IdlServerManager("server", n_servers=1)
    manager.start_all()
    frontend = Frontend(dm, manager)
    if oracle:
        for strategy in ORACLE_STRATEGIES:
            frontend.register_strategy(strategy)
    hle = dm.semantic.find_hles(alice)[0]
    return dm, frontend, manager, alice, hle


@pytest.fixture(scope="module")
def both(tmp_path_factory):
    root = tmp_path_factory.mktemp("routine-table")
    table = _stack(root / "table", oracle=False)
    oracle = _stack(root / "oracle", oracle=True)
    yield table, oracle
    for _dm, frontend, manager, _alice, _hle in (table, oracle):
        manager.stop_all()
        frontend.close()


#: Python-API requests: defaults, what the suite and the examples send,
#: and the keys the pipeline itself reads or writes.
API_CASES = [
    ("imaging", {}),
    ("imaging", {"n_pixels": 16}),
    ("imaging", {"n_pixels": 16}),                 # exact repeat: product cache
    ("imaging", {"n_pixels": 32}),                 # same algorithm: reuse hint
    ("imaging", {"n_pixels": 24, "force": True}),
    ("imaging", {"n_pixels": 12, "extent_arcsec": 1024.5,
                 "center_x": -120.0, "center_y": 35.5}),
    ("lightcurve", {}),
    ("lightcurve", {"bin_width_s": 2.0}),
    ("lightcurve", {"bin_width_s": 0.5, "force": True}),
    ("lightcurve", {"n_bins": 16}),                # not a lightcurve parameter
    ("spectroscopy", {}),
    ("spectroscopy", {"n_energy_bins": 24}),
    ("spectroscopy", {"time_bin_s": 1.0, "n_energy_bins": 48}),
    ("histogram", {}),
    ("histogram", {"n_bins": 16}),
    ("histogram", {"attribute": "energy", "n_bins": 64, "force": True}),
    ("histogram", {"attribute": "time", "n_bins": 48}),
    ("histogram", {"attribute": "detector"}),
    ("histogram", {"n_bins": 16, "probe": 3, "force": True}),
]

#: ``/hedc/analyze`` query strings shaped like ``bench/datagen.py``'s
#: ``AnalyzeStream``: floats as ``repr(float)``, integers as text.
WEB_CASES = [
    ("lightcurve", {"bin_width_s": repr(0.5)}),
    ("lightcurve", {"bin_width_s": repr(8.0)}),
    ("lightcurve", {"bin_width_s": repr(3.2718281828459045)}),
    ("histogram", {"n_bins": "17"}),
    ("histogram", {"n_bins": "256"}),
    ("histogram", {"n_bins": "99", "attribute": "time"}),
    ("imaging", {"n_pixels": "13", "extent_arcsec": repr(1024.0)}),
    ("imaging", {"n_pixels": "40", "extent_arcsec": repr(4095.999999999)}),
    ("spectroscopy", {"time_bin_s": "2.5", "n_energy_bins": "16"}),
]


def _run(stack, index, algorithm, parameters):
    dm, frontend, _manager, alice, hle = stack
    queries, edits = frontend.context.queries, frontend.context.edits
    request = AnalysisRequest(alice, hle["hle_id"], algorithm, dict(parameters),
                              request_id=f"req-diff-{index:03d}")
    frontend.run(request)
    assert request.phase is Phase.COMMITTED, request.error
    row = dm.semantic.get_analysis(alice, request.ana_id)
    return {
        "images": request.product.image_payloads,
        "summary": request.product.summary,
        "log_lines": request.product.log_lines,
        "row": {key: value for key, value in row.items() if key not in CLOCK_COLUMNS},
        "parameters": request.parameters,
        "fingerprint": fingerprint(algorithm, request.hle_id, request.parameters),
        "queries": frontend.context.queries - queries,
        "edits": frontend.context.edits - edits,
    }


class TestSameProducts:
    def test_every_row_matches_the_class_it_replaced(self, both):
        table, oracle = both
        assert {routine.name for routine in ROUTINES} == \
            {strategy.algorithm for strategy in ORACLE_STRATEGIES}
        cases = list(API_CASES)
        for algorithm, text in WEB_CASES:
            parsed = table[1].strategy_for(algorithm).parse(text)
            assert parsed == servlet_parameters(text)
            assert [type(parsed[key]) for key in sorted(parsed)] == \
                [type(value) for _key, value in sorted(servlet_parameters(text).items())]
            cases.append((algorithm, parsed))
        served = hinted = 0
        for index, (algorithm, parameters) in enumerate(cases):
            ours = _run(table, index, algorithm, parameters)
            theirs = _run(oracle, index, algorithm, parameters)
            assert ours == theirs, (algorithm, parameters)
            hinted += "reused_ana_id" in ours["parameters"]
            if ours["parameters"].get("served_from_cache"):
                served += 1
                assert (ours["queries"], ours["edits"]) == (0, 0)
            else:
                # The per-analysis figures of the paper's Tables 2 and 3.
                assert (ours["queries"], ours["edits"]) == (3, 2)
        assert served == 1 and hinted >= 1

    def test_default_strategies_are_the_table(self):
        assert list(DEFAULT_STRATEGIES) == [routine.name for routine in ROUTINES]
        for routine in ROUTINES:
            strategy = DEFAULT_STRATEGIES[routine.name]
            assert isinstance(strategy, RoutineStrategy)
            assert strategy.parameters is routine.parameters
            assert strategy.cost is routine.cost


class TestParameters:
    def test_bounds_copy_the_kernels_and_integers_have_a_ceiling(self):
        declared = {(routine.name, parameter.name): parameter
                    for routine in ROUTINES for parameter in routine.parameters}
        assert declared["imaging", "n_pixels"].minimum == 4
        assert declared["histogram", "n_bins"].minimum == 1
        assert declared["spectroscopy", "n_energy_bins"].minimum == 2
        assert declared["lightcurve", "bin_width_s"].minimum > 0
        assert declared["spectroscopy", "time_bin_s"].minimum > 0
        assert declared["histogram", "attribute"].choices == SUPPORTED_ATTRIBUTES
        for parameter in declared.values():
            if parameter.type is not str:
                assert np.isfinite(parameter.minimum) and np.isfinite(parameter.maximum)
                assert parameter.minimum <= parameter.default_for({}) <= parameter.maximum

    @pytest.mark.parametrize("raw", ["abc", "", "nan", "inf", "-inf", "1e999", None,
                                     [], "16; print, 1", "9" * 5000, 0, -3, 10**8])
    def test_integer_rejects(self, raw):
        parameter = Parameter("n", int, 8, minimum=1, maximum=64)
        with pytest.raises(ParameterError, match="'n'") as caught:
            parameter.check(raw)
        if isinstance(raw, str) and len(raw) > 3:
            assert raw not in str(caught.value)

    @pytest.mark.parametrize("raw", ["nan", "inf", float("nan"), float("inf"), "0",
                                     "-1", "1e999", "4.0)\nprint, 1", None])
    def test_float_rejects(self, raw):
        parameter = Parameter("w", float, 4.0, minimum=0.01, maximum=100.0)
        with pytest.raises(ParameterError, match="'w'"):
            parameter.check(raw)

    def test_accepts_text_and_values(self):
        count = Parameter("n", int, 8, minimum=1, maximum=64)
        width = Parameter("w", float, 4.0, minimum=0.01, maximum=100.0)
        kind = Parameter("k", str, "a", choices=("a", "b"))
        assert count.check("16") == 16 and type(count.check("16")) is int
        assert count.check(64) == 64
        assert width.check("2.5") == 2.5 and width.check(2) == 2.0
        assert type(width.check(2)) is float
        assert kind.check("b") == "b"
        with pytest.raises(ParameterError, match="one of a, b"):
            kind.check("c")
        with pytest.raises(ParameterError):
            kind.check("a'")


class TestEdges:
    """The Python-API side of the issue's probes: a typed failure that
    names the parameter, before any photon is loaded."""

    @pytest.mark.parametrize("algorithm, parameters, named", [
        ("histogram", {"attribute": "energy')\nprint, 1\n;"}, "attribute"),
        ("histogram", {"n_bins": "abc"}, "n_bins"),
        ("histogram", {"n_bins": 0}, "n_bins"),
        ("lightcurve", {"bin_width_s": 0}, "bin_width_s"),
        ("lightcurve", {"bin_width_s": float("nan")}, "bin_width_s"),
        ("imaging", {"n_pixels": 100_000_000}, "n_pixels"),
        ("spectroscopy", {"n_energy_bins": 1}, "n_energy_bins"),
        ("animation", {"n_frames": 1}, "n_frames"),
    ])
    def test_bad_parameter_fails_typed_before_any_work(self, both, monkeypatch,
                                                       algorithm, parameters, named):
        dm, frontend, manager, alice, hle = both[0]
        loads = []
        monkeypatch.setattr(dm.process, "load_photons",
                            lambda *args, **kwargs: loads.append(args) or 1 / 0)
        invocations = manager.stats()["invocations"]
        rows = len(dm.semantic.analyses_for_hle(alice, hle["hle_id"]))
        request = frontend.run(
            AnalysisRequest(alice, hle["hle_id"], algorithm, parameters), estimate=True)
        assert request.phase is Phase.FAILED
        assert f"parameter {named!r}" in request.error
        assert loads == []
        assert manager.stats()["invocations"] == invocations
        assert len(dm.semantic.analyses_for_hle(alice, hle["hle_id"])) == rows


def _nearly_spent():
    """An ambient deadline with a tenth of its budget left."""
    now = [0.0]
    deadline = Deadline(10.0, clock=lambda: now[0])
    now[0] = 9.0
    return deadline


class TestDegradeCaps:
    def test_caps_come_from_the_strategy(self, both):
        _dm, frontend, _manager, alice, hle = both[0]
        with _nearly_spent():
            request = frontend.run(AnalysisRequest(
                alice, hle["hle_id"], "spectroscopy",
                {"n_energy_bins": 64, "n_bins": 512, "force": True}))
        assert request.phase is Phase.COMMITTED, request.error
        assert request.parameters["degraded"] is True
        assert request.parameters["n_energy_bins"] == 8
        # ``n_bins`` is capped for the histogram, whose parameter it is.
        assert request.parameters["n_bins"] == 512
        assert request.product.summary["shape"][0] == 8

    def test_animation_degrades_to_a_movie_it_can_still_make(self, both):
        _dm, frontend, _manager, alice, hle = both[0]
        with _nearly_spent():
            request = frontend.run(AnalysisRequest(
                alice, hle["hle_id"], "animation", {"n_frames": 5, "n_pixels": 24}))
        assert request.phase is Phase.COMMITTED, request.error
        assert request.product.summary["frames"] == 2
        assert request.product.summary["n_pixels"] == 16


# -- the drill: a fifth analysis is one row ------------------------------------

def _hardness_series(result: np.ndarray) -> np.ndarray:
    return np.atleast_1d(result) + 1e-12


HARDNESS = Routine(
    name="hardness",
    function="flare_hardness",          # IDL source in repro.idl.ssw, not a builtin
    bound=("ph_energies",),
    parameters=(),
    cost=LIGHTCURVE,
    render=lambda result: render_series_pgm(_hardness_series(result)),
    summary=lambda result: {"hardness": float(result)},
    fields=lambda result, values: {"peak_value": float(result),
                                   "notes": "counts >= 25 keV over counts below"},
    describe=lambda result: f"ratio {float(result):.4f}",
)


class TestDrill:
    """ROADMAP item 4's drill in miniature: ``HARDNESS`` above is all
    there is to the new analysis; no line under ``src/`` exists for it."""

    def test_one_row_travels_every_surface(self, tmp_path):
        hedc = Hedc.create(tmp_path / "h")
        try:
            hedc.ingest_observation(duration_s=240.0, seed=13,
                                    unit_target_photons=200_000)
            user = hedc.register_user("u", "pw", group="scientist")
            hedc.frontend.register_strategy(RoutineStrategy(HARDNESS))
            hle_id = hedc.events()[0]["hle_id"]
            client = hedc.thin_client()
            client.login("u", "pw")

            # estimated and executed, through the Python API
            invoked = hedc.idl.stats()["invocations"]
            estimated = hedc.analyze(user, hle_id, "hardness", {"force": True},
                                     estimate=True)
            assert estimated.phase is Phase.COMMITTED, estimated.error
            assert estimated.plan.feasible and estimated.plan.predicted_seconds > 0
            assert hedc.idl.stats()["invocations"] == invoked + 1
            energies = hedc.frontend.context.load_photons_for(
                estimated.hle_row).energies
            expected = float((energies >= 25.0).sum()) / float((energies < 25.0).sum())
            assert estimated.product.summary["hardness"] == pytest.approx(expected)

            # submitted through the web tier, then served from the cache
            first = client.get(f"/hedc/analyze?hle={hle_id}&algorithm=hardness")
            assert first.status == 302
            invoked = hedc.idl.stats()["invocations"]
            again = client.get(f"/hedc/analyze?hle={hle_id}&algorithm=hardness")
            assert again.status == 302
            assert again.headers["Location"] == first.headers["Location"]
            assert hedc.idl.stats()["invocations"] == invoked

            # degraded under a nearly spent deadline
            with _nearly_spent():
                degraded = hedc.analyze(user, hle_id, "hardness", {"force": True})
            assert degraded.phase is Phase.COMMITTED, degraded.error
            assert degraded.parameters["degraded"] is True

            # shown on its page, next to a built-in's
            builtin = client.get(f"/hedc/analyze?hle={hle_id}&algorithm=histogram")
            page = client.get(first.headers["Location"])
            assert page.status == 200
            ana_id = int(first.headers["Location"].rsplit("=", 1)[1])
            assert f"<h2>Analysis {ana_id}:" in page.text
            assert "hardness" in page.text
            event_page = client.get(f"/hedc/hle?id={hle_id}").text
            assert first.headers["Location"] in event_page
            assert builtin.headers["Location"] in event_page
            row = hedc.dm.semantic.get_analysis(user, ana_id)
            assert row["algorithm"] == "hardness"
            assert row["peak_value"] == pytest.approx(expected)
        finally:
            hedc.idl.stop_all()
            hedc.frontend.close()
