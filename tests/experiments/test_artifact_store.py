"""The artifact store's failure battery, once per mode.

Every tier goes through the same load and store, so each must survive
the same faults: a damaged archive is quarantined and rebuilt, a full
disk leaves no temporaries and no half-entry a later load would
misread, a disabled cache writes nothing, and a format bump is a miss.
A cache filled under today's keys and archive layouts stays warm.
"""

import errno
import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import formats
from repro.analysis.parameters import PageConfig, SizingStrategy
from repro.experiments.cachefiles import TIERS
from repro.experiments.config import table1_rows, table2_rows, table34_rows
from repro.experiments.runner import STATS, build_artifacts, clear_cache
from repro.experiments.table1 import render_table1
from repro.experiments.table2 import render_table2
from repro.experiments.table3 import render_table3
from repro.experiments.table4 import render_table4
from repro.tracegen.io import _event_to_dict
from repro.workloads import all_workloads, get_workload

RESULTS = Path(__file__).resolve().parents[2] / "results"

MODES = ("trace", "symbolic", "static")

#: every archive of every mode: (mode, archive prefix)
ARCHIVES = [(mode, prefix) for mode in MODES for prefix in TIERS[mode].archives]

#: the format each mode's key carries last
FORMAT_OF = {
    "trace": "TRACE_FORMAT",
    "symbolic": "SYMBOLIC_FORMAT",
    "static": "STATIC_FORMAT",
}


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_cache()
    STATS.reset()
    yield tmp_path / "cache"
    clear_cache()
    STATS.reset()


def _summary(artifacts):
    """The numbers Table 2 takes from one workload's artifacts."""
    return (
        artifacts.best_cd_result(),
        artifacts.lru.min_space_time(),
        artifacts.ws.min_space_time(),
    )


def _flip(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


class TestDamagedArchive:
    @pytest.mark.parametrize("damage", [_flip, _truncate], ids=["bitflip", "truncated"])
    @pytest.mark.parametrize("mode,prefix", ARCHIVES)
    def test_quarantined_and_rebuilt(self, fresh_cache, mode, prefix, damage):
        built = _summary(build_artifacts(mode, "INIT"))
        clear_cache(disk=False)  # cold process, poisoned disk
        damage(sorted(fresh_cache.glob(f"{prefix}-*.npz"))[0])
        STATS.reset()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            healed = build_artifacts(mode, "INIT")
        assert STATS.cache_misses == 1
        assert list(fresh_cache.glob(f"{prefix}-*.corrupt"))
        assert _summary(healed) == built
        clear_cache(disk=False)
        STATS.reset()
        build_artifacts(mode, "INIT")  # the rebuilt entry loads again
        assert (STATS.cache_hits, STATS.cache_misses) == (1, 0)


def _full_disk(*args, **kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestFullDisk:
    """ENOSPC from the store's writes: the experiments go on, and the
    cache keeps nothing a later load could misread."""

    def _fail_savez(self, monkeypatch, mode):
        def savez(path, *args, **kwargs):
            Path(path).write_bytes(b"half an archive")  # the disk filled up
            _full_disk()

        monkeypatch.setattr(np, "savez", savez)

    def _fail_last_rename(self, monkeypatch, mode):
        """Every archive but the entry's last is renamed into place."""
        last = TIERS[mode].archives[-1]
        replace = os.replace

        def failing(src, dst):
            if Path(dst).name.startswith(f"{last}-"):
                _full_disk()
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)

    @pytest.mark.parametrize("fail", ["savez", "last_rename"])
    @pytest.mark.parametrize("mode", MODES)
    def test_no_temporaries_and_no_half_entry(
        self, fresh_cache, monkeypatch, mode, fail
    ):
        with monkeypatch.context() as patch:
            getattr(self, f"_fail_{fail}")(patch, mode)
            table = render_table2(mode=mode)
        assert table + "\n" == (RESULTS / "table2.txt").read_text()
        assert not list(fresh_cache.glob("*.tmp*"))
        assert not list(fresh_cache.glob(f"{TIERS[mode].archives[-1]}-*"))
        # a later process finds no entry, not a broken one
        clear_cache(disk=False)
        STATS.reset()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_artifacts(mode, "INIT")
        assert (STATS.cache_hits, STATS.cache_misses) == (0, 1)


class TestDisabledAndBumped:
    @pytest.mark.parametrize("mode", MODES)
    def test_disabled_cache_writes_nothing(self, tmp_path, monkeypatch, mode):
        monkeypatch.chdir(tmp_path)  # where the default cache would go
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        clear_cache()
        try:
            build_artifacts(mode, "INIT").lru.min_space_time()
        finally:
            clear_cache(disk=False)
        assert not list(tmp_path.rglob("*"))

    @pytest.mark.parametrize("mode", MODES)
    def test_format_bump_is_a_miss(self, fresh_cache, monkeypatch, mode):
        build_artifacts(mode, "INIT")
        clear_cache(disk=False)
        attr = FORMAT_OF[mode]
        monkeypatch.setattr(formats, attr, getattr(formats, attr) + 1)
        STATS.reset()
        build_artifacts(mode, "INIT")
        assert (STATS.cache_hits, STATS.cache_misses) == (0, 1)


# -- a cache filled under today's keys and layouts ------------------------------


def _legacy_key(mode, source, with_locks):
    """The entry key as the cache has always spelled it."""
    stamp = {"format": 2}
    if mode == "symbolic":
        stamp.update({"mode": "symbolic", "symbolic_format": 2})
    elif mode == "static":
        stamp.update({"mode": "static", "static_format": 1})
    payload = json.dumps(
        {
            "source": source,
            "page_bytes": PageConfig().page_bytes,
            "word_bytes": PageConfig().word_bytes,
            "strategy": SizingStrategy.ACTIVE_PAGE.value,
            "with_locks": with_locks,
            **stamp,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _json_bytes(doc):
    return np.frombuffer(json.dumps(doc).encode("utf-8"), dtype=np.uint8)


def _trace_arrays(trace):
    header = {
        "format_version": 2,
        "program_name": trace.program_name,
        "total_pages": trace.total_pages,
        "truncated": trace.truncated,
        "array_pages": {k: list(v) for k, v in trace.array_pages.items()},
        "directives": [_event_to_dict(d) for d in trace.directives],
    }
    return {"pages": trace.pages, "header": _json_bytes(header)}


def _ws_best(ws):
    best = ws.min_space_time()
    return np.array(
        [
            best.parameter,
            best.page_faults,
            best.mem_average,
            best.space_time,
            best.fault_service,
        ],
        dtype=float,
    )


def _runs(runs, prefix):
    return {
        f"{prefix}{part}": np.array([getattr(r, part) for r in runs], dtype=np.int64)
        for part in ("start", "block", "repeats")
    }


def _legacy_archives(mode, art):
    """Each archive of ``art``'s entry as the cache has always laid it out."""
    lru = {"distances": art.lru._distances, "distinct": art.lru._distinct}
    if mode == "trace":
        sweeps = {
            **lru,
            "backward": art.ws._backward,
            "forward": art.ws._forward,
            "ws_best": _ws_best(art.ws),
            "format_version": np.array(2, dtype=np.int64),
        }
        return {"trace": _trace_arrays(art.trace), "sweeps": sweeps}
    if mode == "symbolic":
        runs = {**_runs(art.runtrace.runs, ""), **lru, "ws_best": _ws_best(art.ws)}
        return {"trace": _trace_arrays(art.trace), "runs": runs}
    string = art.string
    header = {
        "static_format": 1,
        "program_name": string.program_name,
        "n_references": string.n_references,
        "total_pages": string.total_pages,
        "truncated": string.truncated,
        "array_pages": {k: list(v) for k, v in string.array_pages.items()},
        "directives": [_event_to_dict(d) for d in string.directives],
    }
    static = {
        "header": _json_bytes(header),
        "kept_pos": string.kept_pos,
        "kept_pages": string.kept_pages,
        **_runs(string.runs, "run_"),
        **lru,
        "ws_best": _ws_best(art.ws),
    }
    return {"static": static}


def _all_entries():
    """(mode, workload, with_locks) of every entry the six renders read."""
    trace_rows = table1_rows() + table2_rows() + table34_rows()
    specs = {("trace", v.workload, v.with_locks) for v in trace_rows}
    for mode in ("symbolic", "static"):
        specs |= {(mode, v.workload, v.with_locks) for v in table2_rows()}
    return sorted(specs)


RENDERS = [
    (render_table1, "table1.txt"),
    (render_table2, "table2.txt"),
    (render_table3, "table3.txt"),
    (render_table4, "table4.txt"),
    (lambda: render_table2(mode="symbolic"), "table2.txt"),
    (lambda: render_table2(mode="static"), "table2.txt"),
]


def _forget(monkeypatch):
    clear_cache(disk=False)
    for workload in all_workloads():
        monkeypatch.setattr(workload, "_program", None)
        monkeypatch.setattr(workload, "_symbols", None)
    STATS.reset()


def test_cache_filled_under_todays_layout_stays_warm(tmp_path, monkeypatch):
    """Entries written with today's keys and archive layouts — by an
    independent writer, not the store — serve all six renders without
    one archive rebuild, and the answers then recorded serve the next
    renders without one miss."""
    cdir = tmp_path / "cache"
    cdir.mkdir()
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    clear_cache()
    for mode, name, with_locks in _all_entries():
        art = build_artifacts(mode, name, with_locks=with_locks)
        key = _legacy_key(mode, get_workload(name).source, with_locks)
        for prefix, arrays in _legacy_archives(mode, art).items():
            np.savez(cdir / f"{prefix}-{key}.npz", **arrays)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cdir))
    written = sorted(cdir.iterdir())
    _forget(monkeypatch)
    for render, golden in RENDERS:
        assert render() + "\n" == (RESULTS / golden).read_text()
    assert STATS.cache_misses == 0 and STATS.cache_hits > 0
    assert not list(cdir.glob("*.corrupt"))
    assert sorted(p for p in cdir.iterdir() if "answers-" not in p.name) == written
    _forget(monkeypatch)
    for render, golden in RENDERS:
        assert render() + "\n" == (RESULTS / golden).read_text()
    assert STATS.answer_misses == 0 and STATS.answer_hits > 0
    assert STATS.cache_hits == STATS.cache_misses == 0
    clear_cache(disk=False)
