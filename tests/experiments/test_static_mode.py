"""``--mode static``: routing, CLI surface, and the static disk cache
(warm loads must be identical, corrupt entries quarantined) — the
third-mode twin of ``test_symbolic_mode.py``."""

import numpy as np
import pytest

from repro import formats
from repro.analysis.staticloc.artifacts import static_artifacts_for
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
    def test_static_rows_equal_trace_rows(self, fresh_cache):
        assert generate_table2(mode="static") == generate_table2()

    def test_static_rows_equal_symbolic_rows(self, fresh_cache):
        assert generate_table2(mode="static") == generate_table2(
            mode="symbolic"
        )

    def test_static_render_equals_trace_render(self, fresh_cache):
        assert render_table2(mode="static") == render_table2()

    def test_cli_table2_static(self, fresh_cache, capsys):
        assert main(["table", "2", "--mode", "static"]) == 0
        out = capsys.readouterr().out
        assert "HYBRJ" in out and "CONDUCT" in out

    def test_cli_other_tables_reject_static(self, fresh_cache):
        with pytest.raises(SystemExit, match="table 2"):
            main(["table", "1", "--mode", "static"])


class TestStaticArtifacts:
    def test_no_flat_pages_on_collapsed_workload(self, fresh_cache):
        art = static_artifacts_for("INIT")
        assert not art.string.fully_literal
        assert art.gen_stats.get("closed_form_references", 0) > 0
        # the virtual string only knows its length
        with pytest.raises(AttributeError):
            art.string.pages.tolist()

    def test_recovery_runs_during_generation(self, fresh_cache):
        art = static_artifacts_for("FIELD")
        assert art.gen_stats.get("recovered_sites", 0) >= 1

    def test_coverage_reports_nonaffine_sites(self, fresh_cache):
        report = static_artifacts_for("FIELD").coverage()
        assert "nonaffine_sites" in report
        assert report["references"] == static_artifacts_for(
            "FIELD"
        ).string.n_references


class TestStaticDiskCache:
    def test_build_writes_one_entry(self, fresh_cache):
        static_artifacts_for("INIT")
        assert len(list(fresh_cache.glob("static-*.npz"))) == 1
        assert STATS.cache_misses == 1

    def test_warm_load_is_identical(self, fresh_cache):
        built = static_artifacts_for("INIT")
        built_lru = built.lru.min_space_time()
        built_ws = built.ws.min_space_time()
        built_cd = built.best_cd_result()
        clear_cache(disk=False)  # cold process, warm disk
        loaded = static_artifacts_for("INIT")
        assert loaded is not built
        assert STATS.cache_hits == 1
        assert loaded.string.n_references == built.string.n_references
        np.testing.assert_array_equal(
            loaded.string.kept_pages, built.string.kept_pages
        )
        assert loaded.string.runs == built.string.runs
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

    def test_corrupt_entry_quarantined_and_rebuilt(self, fresh_cache):
        built = static_artifacts_for("INIT")
        clear_cache(disk=False)
        victim = sorted(fresh_cache.glob("static-*.npz"))[0]
        victim.write_bytes(b"not an npz archive")
        STATS.reset()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            healed = static_artifacts_for("INIT")
        assert STATS.cache_misses == 1
        assert sorted(fresh_cache.glob("static-*.corrupt"))
        assert healed.ws.min_space_time() == built.ws.min_space_time()

    def test_format_bump_invalidates(self, fresh_cache, monkeypatch):
        static_artifacts_for("INIT")
        clear_cache(disk=False)
        monkeypatch.setattr(formats, "STATIC_FORMAT", formats.STATIC_FORMAT + 1)
        STATS.reset()
        static_artifacts_for("INIT")
        assert STATS.cache_misses == 1  # old entry never consulted

    def test_stale_ws_best_fault_service_ignored(self, fresh_cache):
        static_artifacts_for("INIT")
        clear_cache(disk=False)
        victim = sorted(fresh_cache.glob("static-*.npz"))[0]
        with np.load(victim) as arrays:
            payload = dict(arrays)
        payload["ws_best"] = payload["ws_best"].copy()
        payload["ws_best"][4] += 1  # recorded under a different service time
        np.savez(victim, **payload)
        loaded = static_artifacts_for("INIT")
        assert loaded.ws._min_st_cache is None  # guard refused the seed
        # ...and the search still returns the right answer from scratch.
        assert loaded.ws.min_space_time().space_time > 0
