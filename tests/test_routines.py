"""Tests for user-submitted analysis routines (§3.3)."""

import pytest

from repro.core import Hedc
from repro.pl import Phase, RoutineRejected
from repro.security import AuthError, ConstraintViolation

GOOD_SOURCE = """
function spectral_index, energies
  ; crude spectral slope proxy: log-count ratio of two bands
  lo = n_elements(where(energies lt 10.0))
  hi = n_elements(where(energies ge 10.0))
  if hi eq 0 then return, 0.0
  return, alog(float(lo) + 1.0) - alog(float(hi) + 1.0)
end
"""


@pytest.fixture(scope="module")
def hedc(tmp_path_factory):
    instance = Hedc.create(tmp_path_factory.mktemp("routines"))
    instance.ingest_observation(duration_s=240.0, seed=17, unit_target_photons=10**6)
    instance.register_user("author", "pw")
    instance.register_user("other", "pw")
    return instance


class TestValidation:
    def test_good_routine_accepted(self, hedc):
        author = hedc.dm.users.find("author")
        routine = hedc.routines.submit(author, "spectral_index", GOOD_SOURCE,
                                       description="slope proxy")
        assert routine.name == "spectral_index"
        assert not routine.public

    def test_syntax_error_rejected(self, hedc):
        author = hedc.dm.users.find("author")
        with pytest.raises(RoutineRejected, match="parse"):
            hedc.routines.submit(author, "broken", "function broken, x\n  oops(")

    def test_non_definition_code_rejected(self, hedc):
        author = hedc.dm.users.find("author")
        source = "function sneaky, x\n  return, x\nend\nprint, 'side effect'"
        with pytest.raises(RoutineRejected, match="definitions"):
            hedc.routines.submit(author, "sneaky", source)

    def test_wrong_name_rejected(self, hedc):
        author = hedc.dm.users.find("author")
        with pytest.raises(RoutineRejected, match="exactly one function"):
            hedc.routines.submit(author, "expected",
                                 "function different, x\n  return, x\nend")

    def test_non_terminating_routine_rejected(self, hedc):
        author = hedc.dm.users.find("author")
        source = (
            "function forever, x\n"
            "  i = 0\n"
            "  while 1 do i = i + 1\n"
            "  return, i\n"
            "end"
        )
        with pytest.raises(RoutineRejected, match="terminate"):
            hedc.routines.submit(author, "forever", source)

    def test_crashing_routine_rejected(self, hedc):
        author = hedc.dm.users.find("author")
        source = "function divzero, x\n  return, 1 / 0\nend"
        with pytest.raises(RoutineRejected, match="smoke"):
            hedc.routines.submit(author, "divzero", source)

    def test_guest_cannot_submit(self, hedc):
        guest = hedc.dm.users.create_user("guest-r", "pw", group="guest")
        with pytest.raises(AuthError):
            hedc.routines.submit(guest, "nope",
                                 "function nope, x\n  return, x\nend")

    def test_duplicate_name_rejected(self, hedc):
        author = hedc.dm.users.find("author")
        with pytest.raises(RoutineRejected, match="already exists"):
            hedc.routines.submit(author, "spectral_index", GOOD_SOURCE)


class TestPublishAndUse:
    def test_only_owner_publishes(self, hedc):
        other = hedc.dm.users.find("other")
        with pytest.raises(ConstraintViolation):
            hedc.routines.publish(other, "spectral_index")

    def test_publish_and_round_trip(self, hedc):
        author = hedc.dm.users.find("author")
        hedc.routines.publish(author, "spectral_index")
        stored = hedc.routines.get("spectral_index")
        assert stored.public
        assert "spectral_index" in stored.source
        assert [routine.name for routine in hedc.routines.published()] == [
            "spectral_index"
        ]

    def test_published_routine_loads_on_server_restart(self, hedc):
        hedc.idl.stop_all()
        hedc.idl.start_all()
        result = hedc.idl.invoke("spectral_index(findgen(20) + 3.0)")
        assert result.ok

    def test_other_user_runs_routine_through_pl(self, hedc):
        """The §3.3 promise: routines become available to other users."""
        other = hedc.dm.users.find("other")
        event = hedc.events()[0]
        request = hedc.analyze(other, event["hle_id"], "user_routine",
                               {"routine": "spectral_index"})
        assert request.phase is Phase.COMMITTED, request.error
        stored = hedc.dm.semantic.get_analysis(other, request.ana_id)
        assert stored["algorithm"] == "user_routine"
        assert "spectral_index" in stored["notes"]

    def test_hot_load_without_restart(self, hedc):
        """submit_routine(publish=True) pushes into running servers."""
        author = hedc.dm.users.find("author")
        source = "function double_rate, x\n  return, x * 2\nend"
        hedc.submit_routine(author, "double_rate", source, publish=True)
        result = hedc.idl.invoke("total(double_rate([1.0, 2.0]))")
        assert result.ok and result.value == 6.0

    def test_user_routine_passes_the_estimation_phase(self, hedc):
        other = hedc.dm.users.find("other")
        event = hedc.events()[0]
        request = hedc.analyze(other, event["hle_id"], "user_routine",
                               {"routine": "Spectral_Index", "force": True},
                               estimate=True)
        assert request.phase is Phase.COMMITTED, request.error
        assert request.plan.feasible and request.plan.predicted_seconds > 0

    @pytest.mark.parametrize("name", [
        "spectral_index(ph_energies)\nprint, 1\n; ",
        "spectral_index\n",
        "1abc", "", None, 7, ["spectral_index"],
    ])
    def test_routine_must_be_an_identifier(self, hedc, name):
        """``routine`` is written into the source that runs: anything
        but a name is refused before the interpreter sees it."""
        other = hedc.dm.users.find("other")
        event = hedc.events()[0]
        invoked = hedc.idl.stats()["invocations"]
        request = hedc.analyze(other, event["hle_id"], "user_routine",
                               {"routine": name})
        assert request.phase is Phase.FAILED
        assert "'routine'" in request.error
        assert hedc.idl.stats()["invocations"] == invoked

    def test_missing_routine_parameter_fails_request(self, hedc):
        other = hedc.dm.users.find("other")
        event = hedc.events()[0]
        request = hedc.analyze(other, event["hle_id"], "user_routine", {})
        assert request.phase is Phase.FAILED
