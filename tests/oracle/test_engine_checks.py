"""The oracle's engine self-checks and their ``verify(engine=True)`` wiring."""

from repro.oracle.engine_checks import (
    check_engine,
    check_engine_answers,
    check_engine_ledger,
    check_engine_resume,
    check_engine_retry,
)
from repro.oracle.runner import verify


class TestChecksPass:
    def test_retry_resume_ledger_clean(self):
        # engine-heal builds real artifacts; it runs in verify/CI, while
        # the unit suite covers the same path in test_artifact_cache.
        assert check_engine(heal=False) == []

    def test_individual_checks_return_lists(self):
        for check in (
            check_engine_retry,
            check_engine_resume,
            check_engine_ledger,
        ):
            assert check() == []


#: every mode the ``engine-answers`` check audits
MODES = ("trace", "symbolic", "static")


class TestAnswersCheck:
    """``engine-answers``: the answer tier serves exactly what the
    loaded arrays give, without rebuilding anything."""

    def test_served_answers_match_the_arrays(self):
        assert check_engine_answers() == []

    def test_wrong_served_answer_is_a_divergence(self, monkeypatch):
        from repro.experiments import answers
        from repro.vm.metrics import SimulationResult

        decode = answers._decode

        def off_by_one(stored):
            value = decode(stored)
            if isinstance(value, SimulationResult):
                value.page_faults += 1
            return value

        monkeypatch.setattr(answers, "_decode", off_by_one)
        found = check_engine_answers()
        assert found and {d.check for d in found} == {"engine-answers"}
        for mode in MODES:
            assert any(
                d.detail.startswith(f"{mode}: ") and "cd_result" in d.detail
                for d in found
            ), mode

    def test_unserved_answer_is_a_divergence(self, monkeypatch):
        from repro.experiments.answers import AnswerFile

        monkeypatch.setattr(AnswerFile, "get", lambda self, query: None)
        found = check_engine_answers()
        for mode in MODES:
            assert any(
                d.detail.startswith(f"{mode}: ")
                and "recomputed, not served" in d.detail
                for d in found
            ), mode


class TestVerifyWiring:
    def test_engine_divergences_become_failures(self, monkeypatch, tmp_path):
        from repro.oracle import engine_checks
        from repro.oracle.harness import Divergence

        monkeypatch.setattr(
            engine_checks,
            "check_engine",
            lambda: [Divergence("engine-retry", "synthetic divergence")],
        )
        report = verify(seeds=1, engine=True, out_dir=tmp_path, shrink=False)
        engine_failures = [f for f in report.failures if f.seed == -1]
        assert len(engine_failures) == 1
        assert engine_failures[0].check == "engine-retry"
        assert "synthetic" in engine_failures[0].detail
        # No reproducer files for engine checks — nothing to shrink.
        assert engine_failures[0].paths == []

    def test_engine_flag_off_skips_checks(self, monkeypatch, tmp_path):
        from repro.oracle import engine_checks

        def explode():
            raise AssertionError("engine checks must not run")

        monkeypatch.setattr(engine_checks, "check_engine", explode)
        report = verify(seeds=1, engine=False, out_dir=tmp_path, shrink=False)
        assert all(f.seed != -1 for f in report.failures)
