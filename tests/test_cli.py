"""CLI smoke tests (exercising the same paths a user would)."""

from pathlib import Path

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_nine(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("MAIN", "TQL", "HWSCRT"):
            assert name in out


class TestAnalyze:
    def test_workload(self, capsys):
        assert main(["analyze", "TQL"]) == 0
        out = capsys.readouterr().out
        assert "PI=" in out and "Λ=" in out

    def test_verbose_shows_contributions(self, capsys):
        assert main(["analyze", "FDJAC", "-v"]) == 0
        out = capsys.readouterr().out
        assert "FJAC" in out

    def test_source_file(self, tmp_path, capsys):
        f = tmp_path / "prog.f"
        f.write_text("DIMENSION V(64)\nDO I = 1, 8\nX = V(I)\nENDDO\nEND\n")
        assert main(["analyze", str(f)]) == 0
        assert "Δ = 1" in capsys.readouterr().out

    def test_unknown_spec(self):
        with pytest.raises(SystemExit):
            main(["analyze", "NO_SUCH_THING"])

    def test_bad_source_reports_error(self, tmp_path, capsys):
        f = tmp_path / "bad.f"
        f.write_text("DO I = 1\nEND\n")
        assert main(["analyze", str(f)]) == 1
        assert "error" in capsys.readouterr().err


class TestInstrument:
    def test_directives_shown(self, capsys):
        assert main(["instrument", "HWSCRT"]) == 0
        out = capsys.readouterr().out
        assert "ALLOCATE" in out

    def test_no_locks(self, capsys):
        assert main(["instrument", "TQL", "--no-locks"]) == 0
        out = capsys.readouterr().out
        assert "LOCK" not in out


class TestTrace:
    def test_summary(self, capsys):
        assert main(["trace", "INIT"]) == 0
        out = capsys.readouterr().out
        assert "references" in out
        assert "pages" in out


class TestSimulate:
    def test_cd_default(self, capsys):
        assert main(["simulate", "TQL", "--pi-cap", "2"]) == 0
        out = capsys.readouterr().out
        assert "CD" in out and "PF=" in out

    def test_lru(self, capsys):
        assert main(["simulate", "TQL", "--policy", "LRU", "--frames", "4"]) == 0
        assert "LRU" in capsys.readouterr().out

    def test_ws(self, capsys):
        assert main(["simulate", "TQL", "--policy", "WS", "--tau", "500"]) == 0
        assert "WS" in capsys.readouterr().out

    def test_fifo_opt_pff(self, capsys):
        for policy in ("FIFO", "OPT", "PFF"):
            assert main(["simulate", "TQL", "--policy", policy]) == 0

    def test_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["simulate", "TQL", "--policy", "MAGIC"])

    def test_stream_matches_event_driven(self, capsys):
        assert main(["simulate", "TQL", "--policy", "LRU", "--frames", "4"]) == 0
        plain = capsys.readouterr().out
        args = ["simulate", "TQL", "--policy", "LRU", "--frames", "4"]
        assert main([*args, "--stream"]) == 0
        assert capsys.readouterr().out == plain
        assert main([*args, "--stream", "--chunk-size", "97"]) == 0
        assert capsys.readouterr().out == plain

    def test_stream_rejects_clock(self):
        with pytest.raises(SystemExit):
            main(["simulate", "TQL", "--policy", "CLOCK", "--stream"])

    def test_stream_explicit_numpy_backend(self, capsys):
        args = ["simulate", "TQL", "--policy", "WS", "--tau", "100"]
        assert main([*args, "--stream", "--backend", "numpy"]) == 0
        assert "WS" in capsys.readouterr().out

    def test_missing_numba_is_a_clean_error(self, capsys):
        from repro.vm.stream import numba_available

        if numba_available():
            pytest.skip("numba installed; nothing to refuse")
        args = ["simulate", "TQL", "--policy", "LRU", "--stream"]
        assert main([*args, "--backend", "numba"]) == 1
        assert "numba" in capsys.readouterr().err

    def test_replays_hit_artifact_cache(self):
        # workload replays must reuse the content-hash artifact cache
        # rather than regenerating the trace per invocation
        from repro.cli import _replay_trace
        from repro.experiments.runner import artifacts_for

        assert _replay_trace("TQL", False) is artifacts_for("TQL").trace


class TestTable:
    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "MAIN3" in capsys.readouterr().out

    def test_unknown_table(self):
        with pytest.raises(SystemExit):
            main(["table", "9"])

    def test_stats_to_stderr(self, capsys):
        assert main(["table", "1", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "[stats]" in captured.err
        assert "cache" in captured.err

    def test_timelines_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TIMELINES_DIR", raising=False)
        tdir = tmp_path / "timelines"
        assert main(["table", "1", "--timelines", str(tdir)]) == 0
        capsys.readouterr()
        files = sorted(tdir.glob("*.jsonl"))
        assert files, "table --timelines must persist per-cell event logs"
        from repro.obs import Fault, load_events

        events = load_events(files[0])
        assert any(isinstance(e, Fault) for e in events)

    def test_env_flags_scoped_to_the_command(self, tmp_path, capsys, monkeypatch):
        """``--timelines`` and ``--backend`` must not outlive their
        command: a later render in the same process would replay
        instead of reading answers, or keep the backend."""
        import os

        from repro.experiments.cachefiles import timelines_dir

        monkeypatch.delenv("REPRO_TIMELINES_DIR", raising=False)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        args = ["table", "1", "--timelines", str(tmp_path / "t"), "--backend", "numpy"]
        assert main(args) == 0
        capsys.readouterr()
        assert timelines_dir() is None
        assert "REPRO_BACKEND" not in os.environ


class TestTracePolicy:
    def test_report_and_events(self, tmp_path, capsys):
        events_path = tmp_path / "tql.jsonl"
        assert (
            main(
                [
                    "trace",
                    "TQL",
                    "--policy",
                    "CD",
                    "--locks",
                    "--events",
                    str(events_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "paging profile" in out
        assert "fault inter-arrival" in out
        assert "lock hold times" in out
        assert events_path.exists()

    def test_event_faults_match_simulator(self, tmp_path, capsys):
        """The acceptance criterion: for every bundled workload, the
        PF total derived from the JSONL event log equals the simulator's
        count (the closed-form replay provides the independent count)."""
        from repro.directives import instrument_program
        from repro.obs import Fault, load_events
        from repro.tracegen.interpreter import generate_trace
        from repro.vm.fastsim import simulate_cd_fast
        from repro.workloads import all_workloads

        for workload in all_workloads():
            events_path = tmp_path / f"{workload.name}.jsonl"
            assert (
                main(
                    [
                        "trace",
                        workload.name,
                        "--policy",
                        "CD",
                        "--events",
                        str(events_path),
                        "--report",
                        str(tmp_path / "report.txt"),
                    ]
                )
                == 0
            ), workload.name
            capsys.readouterr()
            event_faults = sum(
                isinstance(e, Fault) for e in load_events(events_path)
            )
            program = workload.program()
            trace = generate_trace(
                program, plan=instrument_program(program, with_locks=False)
            )
            reference = simulate_cd_fast(trace)
            assert event_faults == reference.page_faults, workload.name

    def test_report_file_and_markdown(self, tmp_path, capsys):
        report = tmp_path / "profile.md"
        assert (
            main(
                [
                    "trace",
                    "INIT",
                    "--policy",
                    "LRU",
                    "--frames",
                    "4",
                    "--report",
                    str(report),
                    "--format",
                    "markdown",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wrote report" in out
        assert "|" in report.read_text()

    def test_sample_every(self, tmp_path, capsys):
        events_path = tmp_path / "e.jsonl"
        assert (
            main(
                [
                    "trace",
                    "INIT",
                    "--policy",
                    "WS",
                    "--tau",
                    "100",
                    "--sample-every",
                    "50",
                    "--events",
                    str(events_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        from repro.obs import load_events
        from repro.obs.events import ResidentSample

        samples = [
            e for e in load_events(events_path) if isinstance(e, ResidentSample)
        ]
        assert samples
        assert all(s.time % 50 == 0 for s in samples)

    def test_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["trace", "TQL", "--policy", "MAGIC"])


class TestCache:
    def test_path_info_clear(self, capsys):
        assert main(["cache", "path"]) == 0
        path_out = capsys.readouterr().out.strip()
        assert path_out  # session cache dir (tests isolate it)
        assert main(["cache", "info"]) == 0
        info_out = capsys.readouterr().out
        assert "disk entries:" in info_out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "disk entries: 0" in capsys.readouterr().out


class TestVerify:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        assert (
            main(
                [
                    "verify",
                    "--seeds",
                    "3",
                    "--no-shrink",
                    "-o",
                    str(tmp_path / "failures"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "OK" in out
        assert not (tmp_path / "failures").exists()


class TestRun:
    def test_oracle_sweep_writes_run_artifacts(self, tmp_path, capsys):
        assert (
            main(["run", "verify:4:2", "--jobs", "2", "-o", str(tmp_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "engine:" in out and "OK" in out
        (run_dir,) = tmp_path.iterdir()
        assert (run_dir / "ledger.jsonl").exists()
        assert (run_dir / "events.jsonl").exists()

    def test_table_sweep_survives_chaos(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "1",
                    "--jobs",
                    "2",
                    "--chaos",
                    "inject-exception",
                    "-o",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "retried" in out  # every first attempt was sabotaged
        (run_dir,) = tmp_path.iterdir()
        assert "MAIN3" in (run_dir / "table1.txt").read_text()

    def test_failed_sweep_exits_one_and_hints_resume(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "1",
                    "--chaos",
                    "kill-worker",
                    "--chaos-hits",
                    "9",
                    "--chaos-match",
                    "table:1",
                    "--max-retries",
                    "0",
                    "-o",
                    str(tmp_path),
                ]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "--resume" in out

    def test_unknown_target(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "bogus-table", "-o", str(tmp_path)])

    def test_keyboard_interrupt_exits_130(self, tmp_path, monkeypatch, capsys):
        import repro.engine

        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.engine, "run_sweep", interrupted)
        assert main(["run", "1", "-o", str(tmp_path)]) == 130
        assert "interrupted" in capsys.readouterr().err


class TestLint:
    DIRTY = str(Path(__file__).parent / "staticcheck" / "fixtures" / "dirty.f")

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "CD101" in out and "CD304" in out

    def test_all_workloads_exit_zero(self, capsys):
        assert main(["lint", "all"]) == 0
        out = capsys.readouterr().out
        assert "error(s)" in out

    def test_dirty_fixture_exits_one(self, capsys):
        assert main(["lint", self.DIRTY]) == 1
        out = capsys.readouterr().out
        assert "CD103" in out and "fix:" in out

    def test_json_output(self, capsys):
        import json

        assert main(["lint", "TQL", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format_version"] == 1
        assert "summary" in document

    def test_rule_filter(self, capsys):
        assert main(["lint", self.DIRTY, "--rules", "CD303"]) == 0
        out = capsys.readouterr().out
        assert "CD303" in out and "CD103" not in out
