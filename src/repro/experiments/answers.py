"""The answer tier of the artifact cache: table answers as small JSON.

Tables 1–4 print a few dozen scalars per program, yet deriving them
means parsing the program, loading its trace and sweep archives and
replaying CD.  The answer tier records each table-level answer the
first time it is computed:

* ``cd_result(config)`` for every :class:`~repro.vm.policies.CDConfig`,
  LOCK replays included;
* ``lru``/``ws`` ``min_space_time()``, ``lru.result(frames)``,
  ``ws.tau_for_mem(mem)``/``ws.result(tau)``, and Table 4's
  fault-matching searches,

in one ``answers-{key}-{mode}.json`` next to the cache entry the
answers were derived from (``key`` is that entry's content hash).  A
warm render then reads one JSON file per workload and never parses,
loads arrays or replays.

Invalidation: every answer file carries :data:`ANSWERS_FORMAT` and the
:func:`~repro.experiments.cachefiles.stat_fingerprint` (inode, size,
mtime_ns) of each archive of its entry.  A rebuilt, replaced or
corrupted archive changes its fingerprint, so one ``stat()`` per
archive — no read — tells stale answers apart; they are ignored and
recomputed from the archives (whose own checks quarantine bad bytes).
Modes have different entry keys and never share answers.  An answer
file that does not parse or match its digest is quarantined as
``*.corrupt``.  With ``--timelines`` every CD cell replays, because
the timeline is the replay's event stream.

:func:`table_artifacts` is the tables' entry point: the
:class:`AnsweredArtifacts` it returns builds the real artifacts
(:func:`~repro.experiments.runner.artifacts_for`,
:func:`~repro.analysis.symbolic.artifacts.symbolic_artifacts_for` or
:func:`~repro.analysis.staticloc.artifacts.static_artifacts_for`) only
on the first question the answer file cannot answer.  This module is
numpy-free so that a warm render imports none of the layers the
answers came from.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.parameters import PageConfig, SizingStrategy
from repro.experiments.cachefiles import (
    STATS,
    TIERS,
    cache_dir,
    entry_files,
    entry_key,
    quarantine_paths,
    stat_fingerprint,
    timelines_dir,
)
from repro.vm.metrics import SimulationResult
from repro.vm.policies.cd import CDConfig
from repro.workloads import get_workload

__all__ = [
    "ANSWERS_FORMAT",
    "AnswerFile",
    "AnsweredArtifacts",
    "AnsweredSweep",
    "BestCD",
    "audit",
    "forget",
    "table_artifacts",
]

#: bump when the meaning of a recorded answer changes (a simulator or
#: analyzer fix that moves a number): older answer files become misses
ANSWERS_FORMAT = 1

#: archive name -> [inode, size, mtime_ns]
Sources = Dict[str, list]


def _plain(value):
    """JSON fallback for numpy scalars in results."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, default=_plain)


def _digest(answers: dict) -> str:
    return hashlib.sha256(_dumps(answers).encode("utf-8")).hexdigest()


def _encode(value) -> dict:
    if isinstance(value, SimulationResult):
        return {"result": asdict(value)}
    return {"value": value}


def _decode(stored: dict):
    if "result" in stored:
        return SimulationResult(**stored["result"])
    return stored["value"]


class BestCD:
    """``best_cd_result`` over a class's own ``cd_result`` — the one
    choice of directive set shared by the builders' artifacts and the
    answered front."""

    def best_cd_result(
        self, caps: Tuple[Optional[int], ...] = (None, 2, 1)
    ) -> SimulationResult:
        """The minimum-ST CD run across directive-set choices (PI caps).

        Mirrors the paper's procedure of rerunning a program with
        different directive sets and reporting the best.
        """
        candidates = [self.cd_result(CDConfig(pi_cap=cap)) for cap in caps]
        return min(candidates, key=lambda r: r.space_time)


class AnswerFile:
    """``answers-{key}-{mode}.json``: the answers derived from one entry."""

    def __init__(self, cdir: Path, mode: str, key: str):
        self.mode = mode
        self.key = key
        self.path = cdir / f"answers-{key}-{mode}.json"
        self.archives = entry_files(cdir, mode, key)
        self._answers: Optional[Dict[str, dict]] = None
        #: fingerprints of the archives the answers were derived from
        self._sources: Optional[Sources] = None

    def fingerprints(self) -> Optional[Sources]:
        """Each archive's current fingerprint; None when one is missing."""
        sources = {}
        for path in self.archives:
            fingerprint = stat_fingerprint(path)
            if fingerprint is None:
                return None
            sources[path.name] = list(fingerprint)
        return sources

    def _read(self) -> Tuple[Dict[str, dict], Optional[Sources]]:
        """The answers on disk and the archives they came from — empty
        when the file is absent, of another format or mode, or derived
        from archives that have changed since."""
        observed = stat_fingerprint(self.path)
        if observed is None:
            return {}, None
        try:
            doc = json.loads(self.path.read_bytes())
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
            if doc.get("format") != ANSWERS_FORMAT:
                return {}, None
            answers, sources = doc["answers"], doc["sources"]
            if not isinstance(answers, dict) or doc["digest"] != _digest(answers):
                raise ValueError("answers do not match their digest")
            if doc["mode"] != self.mode:
                return {}, None
        except OSError:
            return {}, None
        except (ValueError, KeyError) as err:
            quarantine_paths(
                (self.path,),
                "answer",
                self.key,
                f"{type(err).__name__}: {err}",
                observed={self.path: observed},
            )
            return {}, None
        if sources != self.fingerprints():
            return {}, None
        return answers, sources

    def get(self, query: str) -> Optional[dict]:
        return self.recorded().get(query)

    def recorded(self) -> Dict[str, dict]:
        """Every answer on record, keyed by its encoded query."""
        if self._answers is None:
            self._answers, self._sources = self._read()
        return self._answers

    def put(self, query: str, answer: dict, sources: Optional[Sources]) -> None:
        """Record ``answer``, derived from archives with ``sources``
        fingerprints, and persist the file (None: an archive is
        missing, so the answer stays in memory only)."""
        if self._answers is None or sources != self._sources:
            # the answers held so far came from other bytes: start over
            self._answers, self._sources = {}, sources
        self._answers[query] = answer
        if sources is not None:
            self._write()

    def _write(self) -> None:
        on_disk, sources = self._read()
        if sources == self._sources:
            # another process recorded answers for the same bytes
            self._answers = {**on_disk, **self._answers}
        doc = {
            "format": ANSWERS_FORMAT,
            "mode": self.mode,
            "key": self.key,
            "sources": self._sources,
            "digest": _digest(self._answers),
            "answers": self._answers,
        }
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}.json")
        try:
            tmp.write_text(_dumps(doc))
            os.replace(tmp, self.path)
        except OSError:
            tmp.unlink(missing_ok=True)  # read-only cache: memory only


class AnsweredArtifacts(BestCD):
    """One workload's artifacts in one mode, behind its answer file.

    Table-level questions (:meth:`cd_result`, :meth:`best_cd_result`
    and the :class:`AnsweredSweep` queries on :attr:`lru`/:attr:`ws`)
    are answered from the file when it holds them; anything else —
    ``analysis``, ``plan``, ``trace``, a sweep's arrays — builds or
    loads the real artifacts on first use and delegates to them.
    """

    def __init__(
        self,
        name: str,
        mode: str,
        build: Callable[[], object],
        answers: Optional[AnswerFile],
    ):
        self.name = name
        self.mode = mode
        self._build = build
        self._file = answers
        self._artifacts = None
        self._sources: Optional[Sources] = None
        self.lru = AnsweredSweep(self, "lru")
        self.ws = AnsweredSweep(self, "ws")

    @property
    def artifacts(self):
        """The real artifacts (built, or loaded from disk, on first use)."""
        if self._artifacts is None:
            self._artifacts = self._build()
            if self._file is not None:
                self._sources = self._file.fingerprints()
        return self._artifacts

    def __getattr__(self, name: str):
        # only reached for names this class lacks; never for the
        # property itself, whose own AttributeError must not recurse
        if name.startswith("__") or name == "artifacts":
            raise AttributeError(name)
        return getattr(self.artifacts, name)

    def answer(self, query: tuple, compute: Callable[[], object]):
        """The answer to ``query``: from the answer file when recorded,
        else ``compute()``-d from the real artifacts and recorded."""
        if self._file is None:
            return compute()
        key = _dumps(query)
        stored = self._file.get(key)
        if stored is not None:
            STATS.answer_hits += 1
            return _decode(stored)
        STATS.answer_misses += 1
        value = compute()
        self._file.put(key, _encode(value), self._sources)
        return value

    def cd_result(self, config: Optional[CDConfig] = None) -> SimulationResult:
        """CD replay under ``config`` (see the builders' ``cd_result``)."""
        config = config or CDConfig()
        if timelines_dir() is not None:
            return self.artifacts.cd_result(config)
        return self.answer(
            ("cd_result", asdict(config)), lambda: self.artifacts.cd_result(config)
        )


class AnsweredSweep:
    """An LRU or WS sweep behind the answer file: the queries the
    tables ask are answered there; any other attribute is the real
    sweep's, loaded on first use."""

    def __init__(self, owner: AnsweredArtifacts, kind: str):
        self._owner = owner
        self._kind = kind

    @property
    def sweep(self):
        """The real sweep of the owner's artifacts."""
        return getattr(self._owner.artifacts, self._kind)

    def __getattr__(self, name: str):
        if name.startswith("__") or name == "sweep":
            raise AttributeError(name)
        return getattr(self.sweep, name)

    def _ask(self, method: str, *args):
        return self._owner.answer(
            (f"{self._kind}.{method}", *args),
            lambda: getattr(self.sweep, method)(*args),
        )

    def min_space_time(self) -> SimulationResult:
        return self._ask("min_space_time")

    def result(self, parameter: int) -> SimulationResult:
        return self._ask("result", int(parameter))

    def tau_for_mem(self, mem: float) -> int:
        return int(self._ask("tau_for_mem", float(mem)))

    def min_frames_with_faults_at_most(self, faults: int) -> Optional[int]:
        return self._ask("min_frames_with_faults_at_most", int(faults))

    def min_tau_with_faults_at_most(self, faults: int) -> Optional[int]:
        return self._ask("min_tau_with_faults_at_most", int(faults))

    @property
    def max_useful_frames(self) -> int:
        return self._owner.answer(
            (f"{self._kind}.max_useful_frames",),
            lambda: self.sweep.max_useful_frames,
        )


def _build(mode: str, name: str, page_config, strategy, with_locks: bool):
    if mode == "symbolic":
        from repro.analysis.symbolic.artifacts import symbolic_artifacts_for as build
    elif mode == "static":
        from repro.analysis.staticloc.artifacts import static_artifacts_for as build
    else:
        from repro.experiments.runner import artifacts_for as build
    return build(
        name, page_config=page_config, strategy=strategy, with_locks=with_locks
    )


_FRONTS: Dict[tuple, AnsweredArtifacts] = {}


def table_artifacts(
    name: str,
    mode: str = "trace",
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    with_locks: bool = False,
) -> AnsweredArtifacts:
    """The artifacts a table reads for one workload in ``mode``
    (``"trace"``, ``"symbolic"`` or ``"static"``), behind the answer
    tier; memoized per process like the builders."""
    if mode not in TIERS:
        raise ValueError(f"unknown table mode {mode!r}")
    page_config = page_config or PageConfig()
    cdir = cache_dir()
    memo = (mode, name.upper(), page_config, strategy, with_locks, cdir)
    front = _FRONTS.get(memo)
    if front is None:
        workload = get_workload(name)
        answers = None
        if cdir is not None:
            key = entry_key(mode, workload.source, page_config, strategy, with_locks)
            answers = AnswerFile(cdir, mode, key)
        front = AnsweredArtifacts(
            workload.name,
            mode,
            partial(_build, mode, name, page_config, strategy, with_locks),
            answers,
        )
        _FRONTS[memo] = front
    return front


def _ask(target, query: list):
    """Put a recorded ``query`` to ``target`` — answered artifacts or
    the real ones — through the same public call a table makes."""
    method, *args = query
    if method == "cd_result":
        return target.cd_result(CDConfig(**args[0]))
    kind, name = method.split(".")
    value = getattr(getattr(target, kind), name)
    return value(*args) if callable(value) else value


def audit(front: AnsweredArtifacts, artifacts) -> List[str]:
    """How the answers ``front`` serves from its file differ from the
    same questions put to ``artifacts`` (the real artifacts, arrays
    loaded) — empty when every served answer is exact.  The oracle's
    ``engine-answers`` check."""
    if front._file is None:
        return ["the answer tier is disabled (no cache directory)"]
    queries = [json.loads(key) for key in sorted(front._file.recorded())]
    if not queries:
        return [f"no answers on record for {front.name}"]
    served = [_ask(front, query) for query in queries]
    problems = []
    if front._artifacts is not None:
        problems.append(f"{front.name}: a recorded answer was recomputed, not served")
    for query, answer in zip(queries, served):
        expected = _ask(artifacts, query)
        if _dumps(_encode(answer)) != _dumps(_encode(expected)):
            problems.append(
                f"{front.name} {_dumps(query)}: served {_dumps(_encode(answer))}"
                f" but the arrays give {_dumps(_encode(expected))}"
            )
    return problems


def forget() -> None:
    """Drop every memoized :class:`AnsweredArtifacts`
    (:func:`~repro.experiments.runner.clear_cache` calls this)."""
    _FRONTS.clear()
