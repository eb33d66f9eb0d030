"""``--mode symbolic``: routing, CLI surface, and the symbolic disk
cache (warm loads must be identical, corrupt entries quarantined)."""

import numpy as np
import pytest

from repro import formats
from repro.analysis.symbolic.artifacts import symbolic_artifacts_for
from repro.cli import main
from repro.experiments.runner import STATS, clear_cache
from repro.experiments.table2 import generate_table2, render_table2


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_cache()
    STATS.reset()
    yield tmp_path / "cache"
    clear_cache()
    STATS.reset()


class TestModeRouting:
    def test_symbolic_rows_equal_trace_rows(self, fresh_cache):
        assert generate_table2(mode="symbolic") == generate_table2()

    def test_symbolic_render_equals_trace_render(self, fresh_cache):
        assert render_table2(mode="symbolic") == render_table2()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            generate_table2(mode="psychic")

    def test_cli_table2_symbolic(self, fresh_cache, capsys):
        assert main(["table", "2", "--mode", "symbolic"]) == 0
        out = capsys.readouterr().out
        assert "HYBRJ" in out and "CONDUCT" in out

    def test_cli_other_tables_reject_symbolic(self, fresh_cache):
        with pytest.raises(SystemExit, match="table 2"):
            main(["table", "1", "--mode", "symbolic"])


class TestSymbolicDiskCache:
    def test_build_writes_trace_and_runs(self, fresh_cache):
        symbolic_artifacts_for("INIT")
        assert len(list(fresh_cache.glob("trace-*.npz"))) == 1
        assert len(list(fresh_cache.glob("runs-*.npz"))) == 1
        assert STATS.cache_misses == 1

    def test_warm_load_is_identical(self, fresh_cache):
        built = symbolic_artifacts_for("INIT")
        built_lru = built.lru.min_space_time()
        built_ws = built.ws.min_space_time()
        built_cd = built.best_cd_result()
        clear_cache(disk=False)  # cold process, warm disk
        loaded = symbolic_artifacts_for("INIT")
        assert loaded is not built
        assert STATS.cache_hits == 1
        np.testing.assert_array_equal(loaded.trace.pages, built.trace.pages)
        assert loaded.runtrace.runs == built.runtrace.runs
        for got, want in (
            (loaded.lru.min_space_time(), built_lru),
            (loaded.ws.min_space_time(), built_ws),
            (loaded.best_cd_result(), built_cd),
        ):
            assert got.parameter == want.parameter
            assert got.page_faults == want.page_faults
            assert got.space_time == want.space_time
        # the LRU arrays and ws_best were rehydrated, not recomputed
        np.testing.assert_array_equal(
            loaded.lru._distances, built.lru._distances
        )
        assert loaded.ws._min_st_cache is not None

    def test_warm_lru_curve_matches_rebuilt(self, fresh_cache):
        built = symbolic_artifacts_for("INIT")
        clear_cache(disk=False)
        loaded = symbolic_artifacts_for("INIT")
        for frames in (1, 2, 7, built.lru.max_useful_frames):
            assert loaded.lru.result(frames) == built.lru.result(frames)

    def test_corrupt_runs_entry_quarantined_and_rebuilt(self, fresh_cache):
        built = symbolic_artifacts_for("INIT")
        clear_cache(disk=False)
        victim = sorted(fresh_cache.glob("runs-*.npz"))[0]
        victim.write_bytes(b"not an npz archive")
        STATS.reset()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            healed = symbolic_artifacts_for("INIT")
        assert STATS.cache_misses == 1
        assert sorted(fresh_cache.glob("*.corrupt"))
        assert healed.ws.min_space_time() == built.ws.min_space_time()

    def test_format_bump_invalidates(self, fresh_cache, monkeypatch):
        symbolic_artifacts_for("INIT")
        clear_cache(disk=False)
        monkeypatch.setattr(formats, "SYMBOLIC_FORMAT", formats.SYMBOLIC_FORMAT + 1)
        STATS.reset()
        symbolic_artifacts_for("INIT")
        assert STATS.cache_misses == 1  # old entry never consulted

    def test_stale_ws_best_fault_service_ignored(self, fresh_cache):
        symbolic_artifacts_for("INIT")
        clear_cache(disk=False)
        victim = sorted(fresh_cache.glob("runs-*.npz"))[0]
        with np.load(victim) as arrays:
            payload = dict(arrays)
        payload["ws_best"] = payload["ws_best"].copy()
        payload["ws_best"][4] += 1  # recorded under a different service time
        np.savez(victim, **payload)
        loaded = symbolic_artifacts_for("INIT")
        assert loaded.ws._min_st_cache is None  # guard refused the seed
        # ...and the search still returns the right answer from scratch.
        assert loaded.ws.min_space_time().space_time > 0
