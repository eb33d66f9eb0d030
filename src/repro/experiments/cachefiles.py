"""The artifact cache's file layer: the tier table, keys, fingerprints.

Everything here is numpy-free on purpose.  A warm table render reads
its answers (:mod:`repro.experiments.answers`) through this module
alone and never imports the layers that build the archives; the store
(:mod:`repro.experiments.runner`) imports a tier's hooks only when it
builds or loads one of its entries.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import warnings
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import formats


class StageStats:
    """Wall-time/throughput accounting per pipeline stage."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.units: Dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.answer_hits = 0
        self.answer_misses = 0

    def add(self, stage: str, seconds: float, units: int = 0) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds
        self.units[stage] = self.units.get(stage, 0) + units

    def reset(self) -> None:
        self.seconds.clear()
        self.units.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.answer_hits = 0
        self.answer_misses = 0

    def describe(self) -> str:
        parts = []
        for stage in sorted(self.seconds):
            secs = self.seconds[stage]
            units = self.units.get(stage, 0)
            if units and secs > 0:
                parts.append(f"{stage} {secs:.2f}s ({units / secs / 1e3:.0f}k refs/s)")
            else:
                parts.append(f"{stage} {secs:.2f}s")
        parts.append(f"cache {self.cache_hits} hit / {self.cache_misses} miss")
        parts.append(f"answers {self.answer_hits} hit / {self.answer_misses} miss")
        return " · ".join(parts)


#: process-wide stage accounting (rendered by ``table --stats``)
STATS = StageStats()


def cache_dir() -> Optional[Path]:
    """The on-disk artifact cache directory, or None when disabled.

    ``REPRO_CACHE_DIR`` overrides the default ``.repro-cache``; setting
    it to an empty string disables persistence entirely.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        return Path(env) if env else None
    return Path(".repro-cache")


def timelines_dir() -> Optional[Path]:
    """Where per-cell CD event timelines go, or None when disabled.

    Set ``REPRO_TIMELINES_DIR`` (the ``table --timelines`` flag does) to
    make every CD replay of a table cell persist its event stream as
    one JSONL file in that directory.
    """
    env = os.environ.get("REPRO_TIMELINES_DIR")
    return Path(env) if env else None


class Tier(NamedTuple):
    """One mode of the artifact store."""

    #: file-name prefixes of an entry's archives, in the hooks' order
    archives: Tuple[str, ...]
    #: the :mod:`repro.formats` attribute versioning the tier's own
    #: archives beside the trace format's (None: the trace format alone)
    format: Optional[str]
    #: the module whose hooks produce the mode's product: ``generate``,
    #: ``encode``/``decode`` and ``assemble`` (its LRU/WS analyzers);
    #: imported only when an entry is built or loaded
    hooks: str


#: the tier table: every mode of the artifact store
TIERS: Dict[str, Tier] = {
    "trace": Tier(("trace", "sweeps"), None, "repro.experiments.runner"),
    "symbolic": Tier(
        ("trace", "runs"), "SYMBOLIC_FORMAT", "repro.analysis.symbolic.artifacts"
    ),
    "static": Tier(("static",), "STATIC_FORMAT", "repro.analysis.staticloc.artifacts"),
}

#: the cache's file kinds, by glob: every tier's archives (a symbolic
#: entry keeps a trace archive too) and the answer files of all modes
CACHE_TIERS: Dict[str, str] = {
    prefix: f"{prefix}-*.npz" for tier in TIERS.values() for prefix in tier.archives
}
CACHE_TIERS["answers"] = "answers-*.json"


def entry_key(mode: str, source: str, page_config, strategy, with_locks: bool) -> str:
    """The content hash naming one ``mode`` cache entry.

    Everything that determines the entry's contents goes in: the
    workload source, page geometry, sizing strategy and lock mode, the
    trace format and — for the symbolic and static tiers — the mode
    and the tier's own format, both read from :mod:`repro.formats` at
    call time, so modes never share an entry and a format bump is a
    miss.
    """
    tier = TIERS[mode]
    stamp: Dict[str, object] = {"format": formats.TRACE_FORMAT}
    if tier.format is not None:
        stamp.update({"mode": mode, f"{mode}_format": getattr(formats, tier.format)})
    payload = json.dumps(
        {
            "source": source,
            "page_bytes": page_config.page_bytes,
            "word_bytes": page_config.word_bytes,
            "strategy": strategy.value,
            "with_locks": with_locks,
            **stamp,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def entry_files(cdir: Path, mode: str, key: str) -> Tuple[Path, ...]:
    """The archive paths of one ``mode`` entry."""
    return tuple(cdir / f"{prefix}-{key}.npz" for prefix in TIERS[mode].archives)


#: per-process counter making quarantine names unique within one pid
_QUARANTINE_SEQ = itertools.count(1)

#: (inode, size, mtime_ns) of one file
Fingerprint = Tuple[int, int, int]


def stat_fingerprint(path: Path) -> Optional[Fingerprint]:
    """A cheap identity for the bytes currently at ``path``.

    Entries are only ever replaced atomically (write-then-``os.replace``),
    so a rebuild changes the inode — (inode, size, mtime_ns) pins the
    exact file a failed load actually read.
    """
    try:
        st = path.stat()
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def quarantine_paths(
    paths,
    label: str,
    key: str,
    reason: str,
    observed: Optional[Dict[Path, Optional[Fingerprint]]] = None,
    stacklevel: int = 4,
) -> List[str]:
    """Move bad cache files aside as uniquely named ``*.corrupt``.

    Cross-process safe: the quarantine name carries a pid/sequence
    suffix so two processes quarantining concurrently never overwrite
    each other's evidence, and when ``observed`` carries the
    :func:`stat_fingerprint` of the bytes the failed load actually
    read, a path whose fingerprint has since changed is left alone — a
    freshly rebuilt good entry must never be clobbered into
    ``*.corrupt`` by a process that raced with the rebuild.  The rename
    is best-effort — a read-only cache just stays unreadable and is
    treated as a miss each time.
    """
    renamed = []
    for path in paths:
        if not path.exists():
            continue
        if observed is not None:
            expected = observed.get(path)
            if expected is not None and stat_fingerprint(path) != expected:
                continue  # rebuilt under us: the new bytes are not ours to judge
        unique = path.with_name(
            f"{path.name}.{os.getpid()}-{next(_QUARANTINE_SEQ)}.corrupt"
        )
        try:
            os.replace(path, unique)
            renamed.append(unique.name)
        except OSError:
            pass
    warnings.warn(
        f"{label} cache entry {key} unreadable ({reason}); "
        f"quarantined {renamed or 'nothing'} and recomputing",
        RuntimeWarning,
        stacklevel=stacklevel,
    )
    return renamed
