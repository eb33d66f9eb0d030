"""The answer tier: warm table renders from ``answers-*.json`` alone.

A warm render must be byte-identical to the golden tables in every
mode while parsing, loading and replaying nothing; anything that
changes the bytes an answer file was derived from — a replaced or
corrupted archive, a damaged answer file, a format bump — must turn
its answers into misses that recompute the same rows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import answers
from repro.experiments.config import table1_rows, variant
from repro.experiments.runner import STATS, _timeline_name, clear_cache
from repro.experiments.table1 import render_table1
from repro.experiments.table2 import render_table2
from repro.experiments.table3 import generate_table3, render_table3
from repro.experiments.table4 import render_table4
from repro.workloads import all_workloads, get_workload

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "results"

RENDERS = {
    "table1": (render_table1, "table1.txt"),
    "table2": (render_table2, "table2.txt"),
    "table3": (render_table3, "table3.txt"),
    "table4": (render_table4, "table4.txt"),
    "table2-symbolic": (lambda: render_table2(mode="symbolic"), "table2.txt"),
    "table2-static": (lambda: render_table2(mode="static"), "table2.txt"),
}

#: the work a warm render must never do: (module, function) pairs
EXPENSIVE = (
    ("repro.tracegen.io", "load_trace"),
    ("repro.tracegen.io", "load_sweeps"),
    ("repro.frontend.parser", "parse_source"),
    ("repro.tracegen.interpreter", "generate_trace"),
    ("repro.vm.simulator", "simulate"),
    ("repro.vm.fastsim", "simulate_cd_fast"),
    ("repro.experiments.runner", "artifacts_for"),
    ("repro.experiments.runner", "_load_entry"),
    ("repro.analysis.symbolic.artifacts", "symbolic_artifacts_for"),
    ("repro.analysis.staticloc.artifacts", "static_artifacts_for"),
)


def _forget_everything(monkeypatch):
    """A fresh process over the same disk: drop every in-process memo,
    parsed programs included."""
    clear_cache(disk=False)
    for workload in all_workloads():
        monkeypatch.setattr(workload, "_program", None)
        monkeypatch.setattr(workload, "_symbols", None)
    STATS.reset()


def _count_calls(monkeypatch) -> dict:
    """Wrap every binding of the :data:`EXPENSIVE` functions in loaded
    ``repro`` modules with a call counter."""
    import importlib

    calls = {}
    for module_name, name in EXPENSIVE:
        original = getattr(importlib.import_module(module_name), name)
        calls[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                vars(loaded).get(name) is original
            ):
                monkeypatch.setattr(loaded, name, counted)
    return calls


def _golden(filename: str) -> str:
    return (RESULTS / filename).read_text()


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache dir every render has filled once (cold)."""
    cdir = tmp_path_factory.mktemp("answers-cache")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CACHE_DIR", str(cdir))
    clear_cache(disk=False)
    try:
        for render, filename in RENDERS.values():
            assert render() + "\n" == _golden(filename)
        yield cdir
    finally:
        clear_cache(disk=False)
        mp.undo()


class TestWarmRender:
    @pytest.mark.parametrize("which", sorted(RENDERS))
    def test_warm_render_reads_only_answers(self, which, warm_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(warm_cache))
        _forget_everything(monkeypatch)
        calls = _count_calls(monkeypatch)
        render, filename = RENDERS[which]
        assert render() + "\n" == _golden(filename)
        assert calls == {name: 0 for _module, name in EXPENSIVE}
        assert STATS.answer_hits > 0 and STATS.answer_misses == 0
        assert STATS.cache_hits == STATS.cache_misses == 0

    def test_modes_never_share_answer_files(self, warm_cache):
        names = [p.name for p in warm_cache.glob("answers-*.json")]
        for mode in ("trace", "symbolic", "static"):
            assert any(n.endswith(f"-{mode}.json") for n in names), mode
        keys = [n[len("answers-") :].rsplit("-", 1)[0] for n in names]
        assert len(keys) == len(set(keys))

    def test_warm_cli_imports_no_heavy_layer(self, warm_cache):
        """``python -m repro table 1`` over a warm cache loads neither
        numpy nor the interpreter, engine supervisor, stream engine or
        static checker."""
        code = (
            "import runpy, sys\n"
            "sys.argv = ['repro', 'table', '1']\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(warm_cache)
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.stdout == _golden("table1.txt")
        loaded = set(done.stderr.split())
        for module in (
            "repro.tracegen.interpreter",
            "repro.engine.supervisor",
            "repro.vm.stream",
            "repro.staticcheck",
            "numpy",
        ):
            assert module not in loaded, module

    def test_timelines_still_replay_every_cd_cell(
        self, warm_cache, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main

        tdir = tmp_path / "timelines"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(warm_cache))
        # the CLI sets this itself; registering it restores its absence
        monkeypatch.setenv("REPRO_TIMELINES_DIR", str(tdir))
        _forget_everything(monkeypatch)
        assert main(["table", "1", "--timelines", str(tdir)]) == 0
        assert capsys.readouterr().out == _golden("table1.txt")
        expected = {
            _timeline_name(get_workload(v.workload).name, v.config)
            for v in table1_rows()
        }
        assert {f.name for f in tdir.glob("*.jsonl")} == expected
        assert all((tdir / name).stat().st_size > 0 for name in expected)


class TestConcurrentWriters:
    def test_racing_processes_leave_valid_answer_files(self, tmp_path, monkeypatch):
        """Four processes render the same rows over one cold cache at
        once: every answer file they leave must parse and match its
        digest (``-W error`` turns a quarantine warning into a failure).  A
        racing rebuild of an archive may leave answers pinned to the
        replaced bytes — a miss, never a wrong row — so the render after
        the race re-pins them and the next is served exactly."""
        code = (
            "from repro.experiments.config import variant\n"
            "from repro.experiments.table3 import generate_table3\n"
            "print(generate_table3([variant('INIT'), variant('FIELD')]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-W",
                    "error:artifact cache entry:RuntimeWarning",
                    "-W",
                    "error:answer cache entry:RuntimeWarning",
                    "-c",
                    code,
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(4)
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            outputs.append(out)
        assert len(set(outputs)) == 1
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for _ in range(2):
            _forget_everything(monkeypatch)
            rows = generate_table3([variant("INIT"), variant("FIELD")])
            assert repr(rows) + "\n" == outputs[0]
        assert STATS.answer_misses == 0 and STATS.cache_hits == 0
        assert not list(tmp_path.glob("*.corrupt"))
        clear_cache(disk=False)


class TestInvalidation:
    """Each case recomputes the same rows; none serves stale answers."""

    ROWS = [variant("INIT"), variant("FIELD")]

    @pytest.fixture
    def fresh(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _forget_everything(monkeypatch)
        rows = generate_table3(self.ROWS)
        _forget_everything(monkeypatch)
        yield tmp_path, rows
        clear_cache(disk=False)

    def _rerun(self, monkeypatch):
        _forget_everything(monkeypatch)
        return generate_table3(self.ROWS)

    def _archive(self, cdir, prefix):
        return sorted(cdir.glob(f"{prefix}-*.npz"))[0]

    def test_unchanged_cache_is_all_hits(self, fresh, monkeypatch):
        _cdir, rows = fresh
        assert self._rerun(monkeypatch) == rows
        assert STATS.answer_misses == 0 and STATS.cache_hits == 0

    def test_replaced_archive_ignores_its_answers(self, fresh, monkeypatch):
        cdir, rows = fresh
        archive = self._archive(cdir, "sweeps")
        copy = archive.with_name(archive.name + ".copy")
        copy.write_bytes(archive.read_bytes())
        os.replace(copy, archive)  # same bytes, new inode: a rebuild
        assert self._rerun(monkeypatch) == rows
        assert STATS.answer_misses > 0 and STATS.cache_hits == 1
        # re-pinned to the new archive: warm again
        assert self._rerun(monkeypatch) == rows
        assert STATS.answer_misses == 0 and STATS.cache_hits == 0

    def test_byteflipped_archive_is_quarantined(self, fresh, monkeypatch):
        cdir, rows = fresh
        archive = self._archive(cdir, "trace")
        data = bytearray(archive.read_bytes())
        data[len(data) // 2] ^= 0xFF
        archive.write_bytes(bytes(data))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert self._rerun(monkeypatch) == rows
        assert STATS.answer_misses > 0 and STATS.cache_misses == 1
        assert list(cdir.glob("trace-*.corrupt"))

    def test_truncated_answer_file_is_quarantined(self, fresh, monkeypatch):
        cdir, rows = fresh
        path = sorted(cdir.glob("answers-*-trace.json"))[0]
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.warns(RuntimeWarning, match="answer cache entry"):
            assert self._rerun(monkeypatch) == rows
        assert list(cdir.glob("answers-*.json.*.corrupt"))
        assert STATS.answer_misses > 0

    def test_edited_answer_fails_its_digest(self, fresh, monkeypatch):
        cdir, rows = fresh
        path = sorted(cdir.glob("answers-*-trace.json"))[0]
        text = path.read_text()
        edited = text.replace('"page_faults": ', '"page_faults": 1', 1)
        assert edited != text
        path.write_text(edited)
        with pytest.warns(RuntimeWarning, match="digest"):
            assert self._rerun(monkeypatch) == rows

    def test_format_bump_is_a_miss(self, fresh, monkeypatch):
        _cdir, rows = fresh
        monkeypatch.setattr(answers, "ANSWERS_FORMAT", answers.ANSWERS_FORMAT + 1)
        assert self._rerun(monkeypatch) == rows
        assert STATS.answer_hits == 0 and STATS.answer_misses > 0

    def test_disabled_cache_computes_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        _forget_everything(monkeypatch)
        assert generate_table3(self.ROWS[:1])
        assert STATS.answer_hits == STATS.answer_misses == 0
        clear_cache(disk=False)
