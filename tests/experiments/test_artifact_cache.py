"""The persistent artifact cache: correctness across processes.

These tests simulate a cold process by dropping the in-memory memo
while leaving the disk entries in place (``clear_cache(disk=False)``).
A warm load must reproduce the built artifacts exactly — same pages,
same directives, same policy results — and stale or corrupt entries
must be rebuilt, never trusted.
"""

import numpy as np
import pytest

from repro.experiments.runner import (
    STATS,
    WarmupError,
    artifacts_for,
    cache_dir,
    cache_info,
    clear_cache,
    warm_artifacts,
)
from repro import formats
from repro.vm.policies import CDConfig


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_cache()
    STATS.reset()
    yield tmp_path / "cache"
    clear_cache()
    STATS.reset()


class TestDiskCache:
    def test_build_writes_entries(self, fresh_cache):
        artifacts_for("FIELD")
        info = cache_info()
        assert info["disk_entries"] == 2  # trace + sweeps
        assert info["disk_bytes"] > 0
        assert STATS.cache_misses == 1

    def test_warm_load_is_identical(self, fresh_cache):
        built = artifacts_for("FIELD")
        built_cd = built.best_cd_result()
        built_ws = built.ws.min_space_time()
        clear_cache(disk=False)  # cold process, warm disk
        loaded = artifacts_for("FIELD")
        assert loaded is not built
        assert STATS.cache_hits == 1
        np.testing.assert_array_equal(loaded.trace.pages, built.trace.pages)
        assert list(loaded.trace.directives) == list(built.trace.directives)
        loaded_cd = loaded.best_cd_result()
        assert loaded_cd.page_faults == built_cd.page_faults
        assert loaded_cd.space_time == built_cd.space_time
        loaded_ws = loaded.ws.min_space_time()
        assert loaded_ws.parameter == built_ws.parameter
        assert loaded_ws.space_time == built_ws.space_time

    def test_key_separates_lock_modes(self, fresh_cache):
        artifacts_for("FIELD", with_locks=False)
        artifacts_for("FIELD", with_locks=True)
        assert cache_info()["disk_entries"] == 4

    def test_clear_cache_removes_disk(self, fresh_cache):
        artifacts_for("FIELD")
        clear_cache()
        assert cache_info()["disk_entries"] == 0
        # And the next build is a miss, not a stale hit.
        STATS.reset()
        artifacts_for("FIELD")
        assert STATS.cache_misses == 1

    def test_stale_format_version_rebuilt(self, fresh_cache, monkeypatch):
        artifacts_for("FIELD")
        clear_cache(disk=False)
        monkeypatch.setattr(formats, "TRACE_FORMAT", formats.TRACE_FORMAT + 1)
        STATS.reset()
        artifacts = artifacts_for("FIELD")
        # A version bump changes the content hash: old entries are
        # simply never looked at, and a fresh pair is written.
        assert STATS.cache_misses == 1
        assert artifacts.trace.pages.size > 0

    def test_corrupt_entry_rebuilt(self, fresh_cache):
        artifacts_for("FIELD")
        clear_cache(disk=False)
        for path in fresh_cache.glob("*.npz"):
            path.write_bytes(b"not an npz archive")
        STATS.reset()
        with pytest.warns(RuntimeWarning, match="recomputing"):
            artifacts = artifacts_for("FIELD")
        assert STATS.cache_misses == 1
        assert artifacts.trace.pages.size > 0

    def test_disabled_cache_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        clear_cache()
        assert cache_dir() is None
        artifacts_for("FIELD")
        assert cache_info()["disk_entries"] == 0
        clear_cache()


class TestCacheTiers:
    """``cache info``/``cache clear`` see every tier (the regression:
    only trace/sweeps archives were counted, so symbolic ``runs-*``,
    ``static-*`` and answer files went missing from both)."""

    @pytest.fixture
    def every_tier(self, fresh_cache):
        from repro.experiments.answers import table_artifacts

        for mode in ("trace", "symbolic", "static"):
            table_artifacts("INIT", mode=mode).lru.min_space_time()
        yield fresh_cache

    def test_info_counts_every_tier(self, every_tier):
        info = cache_info()
        files = {tier: counts["files"] for tier, counts in info["tiers"].items()}
        # a symbolic entry keeps its own trace archive beside its runs
        assert files == {
            "trace": 2,
            "sweeps": 1,
            "runs": 1,
            "static": 1,
            "answers": 3,
        }
        on_disk = [p for p in every_tier.iterdir() if p.is_file()]
        assert info["disk_entries"] == len(on_disk) == 8
        assert info["disk_bytes"] == sum(p.stat().st_size for p in on_disk)
        assert info["disk_bytes"] == sum(
            counts["bytes"] for counts in info["tiers"].values()
        )

    def test_clear_removes_every_tier(self, every_tier):
        clear_cache()
        assert cache_info()["disk_entries"] == 0
        assert not list(every_tier.iterdir())

    def test_cli_reports_and_clears_every_tier(self, every_tier, capsys):
        from repro.cli import main

        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "disk entries: 8" in out
        for tier in ("trace", "sweeps", "runs", "static", "answers"):
            assert any(line.split()[:1] == [tier] for line in out.splitlines())
        assert main(["cache", "clear"]) == 0
        assert "removed 8 cached file(s)" in capsys.readouterr().out
        assert not list(every_tier.iterdir())


class TestCacheSelfHealing:
    """A corrupt persisted entry is quarantined and rebuilt, never
    trusted and never fatal (the regression: a bit-flipped archive used
    to raise ``BadZipFile`` straight through ``artifacts_for``)."""

    def _flip_one_byte(self, path):
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_bitflip_is_quarantined_and_rebuilt(self, fresh_cache):
        built = artifacts_for("FIELD")
        built_cd = built.best_cd_result()
        clear_cache(disk=False)  # cold process, poisoned disk
        self._flip_one_byte(sorted(fresh_cache.glob("trace-*.npz"))[0])
        STATS.reset()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            healed = artifacts_for("FIELD")
        assert STATS.cache_misses == 1  # rebuilt, not crashed
        corrupt = sorted(fresh_cache.glob("*.corrupt"))
        assert corrupt, "bad bytes must be kept aside for inspection"
        assert cache_info()["quarantined"] == len(corrupt)
        healed_cd = healed.best_cd_result()
        assert healed_cd.page_faults == built_cd.page_faults
        assert healed_cd.space_time == built_cd.space_time

    def test_rebuilt_entry_is_loadable_again(self, fresh_cache):
        artifacts_for("FIELD")
        clear_cache(disk=False)
        self._flip_one_byte(sorted(fresh_cache.glob("sweeps-*.npz"))[0])
        with pytest.warns(RuntimeWarning):
            artifacts_for("FIELD")
        clear_cache(disk=False)
        STATS.reset()
        artifacts_for("FIELD")  # the healed entry, warm from disk
        assert STATS.cache_hits == 1
        assert STATS.cache_misses == 0

    def test_clear_cache_removes_quarantined_files(self, fresh_cache):
        artifacts_for("FIELD")
        clear_cache(disk=False)
        self._flip_one_byte(sorted(fresh_cache.glob("trace-*.npz"))[0])
        with pytest.warns(RuntimeWarning):
            artifacts_for("FIELD")
        assert cache_info()["quarantined"] > 0
        clear_cache()
        assert cache_info()["quarantined"] == 0


class TestQuarantineRace:
    """Concurrent quarantine must neither clobber a rebuilt entry nor
    overwrite another process's evidence (the regression: a fixed
    ``.npz.corrupt`` name did both)."""

    def _atomic_rewrite(self, path, data):
        import os

        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)  # new inode, like a real rebuild

    def test_two_quarantines_keep_distinct_evidence(self, tmp_path):
        from repro.experiments.runner import quarantine_paths

        bad = tmp_path / "trace-abc.npz"
        bad.write_bytes(b"garbage one")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            first = quarantine_paths((bad,), "artifact", "abc", "bad magic")
        bad.write_bytes(b"garbage two")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            second = quarantine_paths((bad,), "artifact", "abc", "bad magic")
        assert first and second and first != second
        corpses = sorted(tmp_path.glob("*.corrupt"))
        assert len(corpses) == 2  # both generations kept for inspection
        contents = {p.read_bytes() for p in corpses}
        assert contents == {b"garbage one", b"garbage two"}

    def test_rebuilt_entry_is_never_clobbered(self, tmp_path):
        from repro.experiments.runner import quarantine_paths, stat_fingerprint

        path = tmp_path / "trace-abc.npz"
        path.write_bytes(b"corrupt bytes some reader choked on")
        observed = {path: stat_fingerprint(path)}
        # Another process rebuilds the entry before our quarantine runs.
        self._atomic_rewrite(path, b"freshly rebuilt good entry")
        with pytest.warns(RuntimeWarning, match="quarantined nothing"):
            renamed = quarantine_paths(
                (path,), "artifact", "abc", "bad magic", observed=observed
            )
        assert renamed == []
        assert path.read_bytes() == b"freshly rebuilt good entry"
        assert not list(tmp_path.glob("*.corrupt"))

    def test_unchanged_entry_still_quarantined(self, tmp_path):
        from repro.experiments.runner import quarantine_paths, stat_fingerprint

        path = tmp_path / "sweeps-abc.npz"
        path.write_bytes(b"still the same corrupt bytes")
        observed = {path: stat_fingerprint(path)}
        with pytest.warns(RuntimeWarning, match="quarantined"):
            renamed = quarantine_paths(
                (path,), "artifact", "abc", "bad magic", observed=observed
            )
        assert len(renamed) == 1
        assert not path.exists()


class TestWarmArtifacts:
    def test_sequential_warm(self, fresh_cache):
        warm_artifacts([("FIELD", False), ("INIT", False)])
        assert cache_info()["disk_entries"] == 4
        STATS.reset()
        artifacts_for("FIELD")
        artifacts_for("INIT")
        assert STATS.cache_misses == 0  # both memoized already

    def test_warm_is_idempotent(self, fresh_cache):
        warm_artifacts([("FIELD", False)])
        STATS.reset()
        warm_artifacts([("FIELD", False)])
        assert STATS.cache_misses == 0


class TestWarmFailureIsolation:
    """One poisoned workload must cost its own cells, nothing else
    (the regression: the first failing build aborted the whole warm)."""

    @pytest.fixture
    def poisoned_init(self, monkeypatch):
        from repro.workloads.catalog import get_workload

        workload = get_workload("INIT")
        monkeypatch.setattr(workload, "_program", None)

        def boom():
            raise RuntimeError("poisoned workload")

        monkeypatch.setattr(workload, "program", boom)

    def test_sequential_warm_finishes_the_rest(self, fresh_cache, poisoned_init):
        with pytest.raises(WarmupError) as exc_info:
            warm_artifacts([("FIELD", False), ("INIT", False)])
        assert list(exc_info.value.failures) == [("INIT", False)]
        assert "poisoned workload" in exc_info.value.failures[("INIT", False)]
        assert "INIT" in str(exc_info.value)
        # FIELD was still built, cached, and memoized.
        assert cache_info()["disk_entries"] == 2
        STATS.reset()
        artifacts_for("FIELD")
        assert STATS.cache_misses == 0

    def test_parallel_warm_finishes_the_rest(self, fresh_cache, poisoned_init):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("poisoning workers requires the fork start method")
        with pytest.raises(WarmupError) as exc_info:
            warm_artifacts([("FIELD", False), ("INIT", False)], jobs=2)
        assert set(exc_info.value.failures) == {("INIT", False)}
        assert "poisoned workload" in exc_info.value.failures[("INIT", False)]
        assert cache_info()["disk_entries"] == 2  # FIELD made it to disk
        STATS.reset()
        artifacts_for("FIELD")
        assert STATS.cache_misses == 0  # pulled into the memo by warm


class TestFastSimIntegration:
    def test_cd_results_match_event_driven(self, fresh_cache):
        from repro.vm.policies import CDPolicy
        from repro.vm.simulator import simulate

        artifacts = artifacts_for("FIELD")
        for cap in (None, 2, 1):
            fast = artifacts.cd_result(CDConfig(pi_cap=cap))
            slow = simulate(artifacts.trace, CDPolicy(CDConfig(pi_cap=cap)))
            assert fast.page_faults == slow.page_faults
            assert fast.space_time == slow.space_time
            assert fast.mem_average == slow.mem_average

    def test_memory_limit_uses_event_driven(self, fresh_cache):
        artifacts = artifacts_for("FIELD")
        result = artifacts.cd_result(CDConfig(pi_cap=2, memory_limit=4))
        assert result.page_faults > 0  # exercised the general simulator
