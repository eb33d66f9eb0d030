"""The artifact store: per-workload artifacts of every mode.

Generating a trace — or a symbolic run journal, or a static string —
and its LRU/WS analyzers costs real time; every table needs the same
artifacts.  Three layers keep that cost paid once:

* an in-process memo (:data:`_MEMO`, keyed by mode) so one Python run
  reuses one set of artifacts per (mode, workload, geometry), exactly
  as the paper replays one trace per program through all policies;
* a **persistent disk cache** (``.repro-cache/`` by default, see
  :func:`cache_dir`) holding each entry's archives under a content
  hash of everything that determines them (:func:`entry_key`), so
  fresh processes warm-start;
* a process-pool warm-up (:func:`warm_artifacts`) that builds missing
  trace entries for many workloads in parallel (``--jobs``).

The modes ``trace``, ``symbolic`` and ``static`` differ only in their
product: the tier table (:data:`~repro.experiments.cachefiles.TIERS`)
names each mode's archives, format and hooks module, and
:func:`build_artifacts` does the rest — parse, analyze and instrument,
load or generate, assemble the analyzers, store — the same way for all
three.  A hooks module defines

* ``generate(program, plan, symbols, page_config, stats)`` — the
  product (its ``length`` is the reference count);
* ``encode(artifacts, ws_best, paths)`` / ``decode(paths)`` — write
  the entry's archives / read them back as ``(product, sweeps)``;
* ``assemble(name, analysis, plan, product, sweeps, gen_stats)`` —
  the artifacts, with analyzers rebuilt from ``sweeps`` when given.

This module holds the trace mode's hooks.

Tables read these artifacts through the answer tier
(:mod:`repro.experiments.answers`), which records each table-level
answer beside its entry, so a warm render never comes here at all.

CD replays go through the closed-form fast path
(:mod:`repro.vm.fastsim`) whenever it is exact, and fall back to the
event-driven simulator for memory ceilings and LOCK pinning.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.locality import LocalityAnalysis, SizingStrategy, analyze_program
from repro.analysis.parameters import PageConfig
from repro.directives import instrument_program
from repro.directives.model import InstrumentationPlan
from repro.experiments.answers import BestCD
from repro.experiments.answers import forget as forget_answers
from repro.experiments.cachefiles import (
    CACHE_TIERS,
    STATS,
    TIERS,
    cache_dir,
    entry_files,
    entry_key,
    quarantine_paths,
    stat_fingerprint,
    timelines_dir,
)
from repro.tracegen import io as trace_io
from repro.tracegen.events import ReferenceTrace
from repro.tracegen.interpreter import generate_trace
from repro.vm.analyzers import LRUSweep, WSSweep
from repro.vm.fastsim import cd_fast_applicable, simulate_cd_fast
from repro.vm.metrics import SimulationResult
from repro.vm.policies import CDConfig, CDPolicy
from repro.vm.simulator import simulate
from repro.workloads import get_workload


def _timeline_name(workload: str, config: CDConfig) -> str:
    cap = "all" if config.pi_cap is None else str(config.pi_cap)
    limit = "none" if config.memory_limit is None else str(config.memory_limit)
    return f"{workload.lower()}-cd-pi{cap}-mem{limit}.jsonl"


@dataclass
class WorkloadArtifacts(BestCD):
    """Everything the experiments need for one benchmark program."""

    name: str
    analysis: LocalityAnalysis
    plan: InstrumentationPlan
    trace: ReferenceTrace  # instrumented (directives included)
    lru: LRUSweep = field(repr=False, default=None)
    ws: WSSweep = field(repr=False, default=None)

    def cd_result(self, config: Optional[CDConfig] = None) -> SimulationResult:
        """Replay the trace under CD with ``config``.

        Uses the closed-form replay when it is provably exact (no
        memory ceiling, no LOCK pinning); the event-driven simulator
        otherwise.
        """
        config = config or CDConfig()
        tracer = None
        tdir = timelines_dir()
        if tdir is not None:
            from repro.obs import JsonlSink, Tracer

            tracer = Tracer(
                JsonlSink(tdir / _timeline_name(self.name, config))
            )
        t0 = time.perf_counter()
        try:
            if cd_fast_applicable(self.trace, config):
                result = simulate_cd_fast(
                    self.trace,
                    config,
                    distances=self.lru._distances,
                    tracer=tracer,
                )
            else:
                sample = max(1, len(self.trace.pages) // 4096)
                result = simulate(
                    self.trace,
                    CDPolicy(config),
                    tracer=tracer,
                    sample_interval=sample if tracer is not None else 1,
                )
        finally:
            if tracer is not None:
                tracer.close()
        STATS.add("simulate", time.perf_counter() - t0, len(self.trace.pages))
        return result

    def policy_results(
        self,
        requests,
        backend: Optional[str] = None,
        chunk_size: Optional[int] = None,
    ) -> List[SimulationResult]:
        """One-pass multi-policy replay of this workload's trace.

        ``requests`` are :class:`repro.vm.stream.StreamRequest` items;
        a single scan of the trace feeds every policy at once instead
        of one full event-driven replay per policy.  Results are exact
        (the oracle's ``stream-*`` checks pin them to the event-driven
        simulator); non-streamable CD requests fall back transparently.
        """
        from repro.vm.stream import stream_simulate

        t0 = time.perf_counter()
        results = stream_simulate(
            self.trace, requests, backend=backend, chunk_size=chunk_size
        )
        STATS.add(
            "simulate",
            time.perf_counter() - t0,
            len(self.trace.pages) * len(requests),
        )
        return results


# -- trace mode's hooks ----------------------------------------------------------


def generate(program, plan, symbols, page_config, stats) -> ReferenceTrace:
    return generate_trace(program, plan=plan, symbols=symbols, page_config=page_config)


def encode(artifacts: WorkloadArtifacts, ws_best: np.ndarray, paths) -> None:
    trace_path, sweeps_path = paths
    trace_io.save_trace(artifacts.trace, trace_path, compress=False)
    trace_io.save_sweeps(
        {
            "distances": artifacts.lru._distances,
            "distinct": artifacts.lru._distinct,
            "backward": artifacts.ws._backward,
            "forward": artifacts.ws._forward,
            "ws_best": ws_best,
        },
        sweeps_path,
    )


def decode(paths) -> Tuple[ReferenceTrace, Dict[str, np.ndarray]]:
    trace_path, sweeps_path = paths
    return trace_io.load_trace(trace_path), trace_io.load_sweeps(sweeps_path)


def assemble(
    name: str,
    analysis: LocalityAnalysis,
    plan: InstrumentationPlan,
    trace: ReferenceTrace,
    sweeps: Dict[str, np.ndarray],
    gen_stats: Optional[Dict[str, int]] = None,
) -> WorkloadArtifacts:
    if sweeps:
        lru = LRUSweep.from_arrays(
            {
                "pages": trace.pages,
                "distances": sweeps["distances"],
                "distinct": sweeps["distinct"],
            },
            program=name,
        )
        ws = WSSweep.from_arrays(
            {
                "pages": trace.pages,
                "backward": sweeps["backward"],
                "forward": sweeps["forward"],
            },
            program=name,
        )
    else:
        lru, ws = LRUSweep(trace), WSSweep(trace)
    return WorkloadArtifacts(
        name=name, analysis=analysis, plan=plan, trace=trace, lru=lru, ws=ws
    )


# -- the store -------------------------------------------------------------------


#: memoized artifacts by (mode, workload, geometry, strategy, locks)
_MEMO: Dict[Tuple[str, str, PageConfig, SizingStrategy, bool], object] = {}


def tier_hooks(mode: str):
    """The module holding ``mode``'s hooks (see :data:`TIERS`)."""
    return importlib.import_module(TIERS[mode].hooks)


def _on_disk(paths: Sequence[Path]) -> bool:
    return all(path.exists() for path in paths)


def _pack_ws_best(ws) -> np.ndarray:
    """The default-grid WS optimum, stored with the entry so warm runs
    skip the ~80-window scan entirely."""
    best = ws.min_space_time()
    return np.array(
        [
            float(best.parameter),
            float(best.page_faults),
            best.mem_average,
            best.space_time,
            float(best.fault_service),
        ]
    )


def _unpack_ws_best(ws, best: Optional[np.ndarray], references: int) -> None:
    if best is not None and int(best[4]) == ws.fault_service:
        ws._min_st_cache = SimulationResult(
            policy="WS",
            program=ws.program,
            page_faults=int(best[1]),
            references=references,
            mem_average=float(best[2]),
            space_time=float(best[3]),
            parameter=int(best[0]),
            fault_service=ws.fault_service,
        )


def _load_entry(cdir: Path, mode: str, key: str, assemble):
    """The artifacts ``assemble`` makes of entry ``key``'s archives, or
    None when the entry is absent or unreadable."""
    paths = entry_files(cdir, mode, key)
    if not _on_disk(paths):
        return None
    observed = {path: stat_fingerprint(path) for path in paths}
    hooks = tier_hooks(mode)
    try:
        product, sweeps = hooks.decode(paths)
        artifacts = assemble(product, sweeps)
        _unpack_ws_best(artifacts.ws, sweeps.get("ws_best"), product.length)
    except Exception as err:
        # A truncated .npz surfaces as BadZipFile/EOFError, a bit-flip
        # as anything from json/zlib/numpy — every one of them is a
        # cache miss, never a crash.  Quarantine so the bad bytes are
        # kept for inspection but never re-read.
        quarantine_paths(
            paths,
            "artifact",
            key,
            f"{type(err).__name__}: {err}",
            observed=observed,
        )
        return None
    return artifacts


def _store_entry(cdir: Path, mode: str, key: str, artifacts) -> None:
    paths = entry_files(cdir, mode, key)
    # Write-then-rename so a concurrent reader (or a crash) never sees
    # a half-written archive; a write that fails leaves no temporaries.
    tmps = [path.with_name(f"{path.name}.tmp{os.getpid()}.npz") for path in paths]
    try:
        cdir.mkdir(parents=True, exist_ok=True)
        tier_hooks(mode).encode(artifacts, _pack_ws_best(artifacts.ws), tmps)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except OSError:
        pass  # a read-only or full filesystem must not break the experiments
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def build_artifacts(
    mode: str,
    name: str,
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    with_locks: bool = False,
):
    """Build (or fetch) the ``mode`` artifacts for one benchmark."""
    page_config = page_config or PageConfig()
    memo = (mode, name.upper(), page_config, strategy, with_locks)
    artifacts = _MEMO.get(memo)
    if artifacts is not None:
        return artifacts
    hooks = tier_hooks(mode)
    workload = get_workload(name)
    program = workload.program()
    symbols = workload.symbols()
    analysis = analyze_program(
        program, symbols=symbols, page_config=page_config, strategy=strategy
    )
    plan = instrument_program(program, analysis=analysis, with_locks=with_locks)
    make = partial(hooks.assemble, workload.name, analysis, plan)

    cdir = cache_dir()
    key = entry_key(mode, workload.source, page_config, strategy, with_locks)
    artifacts = _load_entry(cdir, mode, key, make) if cdir else None
    if artifacts is not None:
        STATS.cache_hits += 1
    else:
        STATS.cache_misses += 1
        gen_stats: Dict[str, int] = {}
        t0 = time.perf_counter()
        product = hooks.generate(program, plan, symbols, page_config, gen_stats)
        t1 = time.perf_counter()
        STATS.add(f"{mode}-gen", t1 - t0, product.length)
        artifacts = make(product, {}, gen_stats)
        STATS.add(
            f"{mode}-sweeps",
            time.perf_counter() - t1,
            2 * len(artifacts.lru._distances),
        )
        if cdir is not None:
            _store_entry(cdir, mode, key, artifacts)
    _MEMO[memo] = artifacts
    return artifacts


def artifacts_for(
    name: str,
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    with_locks: bool = False,
) -> WorkloadArtifacts:
    """Build (or fetch) the trace artifacts for one benchmark.

    ``with_locks`` defaults to False: the paper's evaluation studies the
    ALLOCATE directive ("The effectiveness of LOCK and UNLOCK directives
    is not studied in this work"); the LOCK ablation turns it on.
    """
    return build_artifacts("trace", name, page_config, strategy, with_locks)


def clear_cache(disk: bool = True) -> None:
    """Drop all memoized artifacts of every mode — in-memory and (by
    default) the on-disk files of every tier too (tests use this for
    isolation)."""
    _MEMO.clear()
    forget_answers()
    if not disk:
        return
    cdir = cache_dir()
    if cdir is None or not cdir.is_dir():
        return
    for pattern in (*CACHE_TIERS.values(), "*.corrupt"):
        for path in cdir.glob(pattern):
            path.unlink(missing_ok=True)


def cache_info() -> Dict[str, object]:
    """Inspect the artifact caches (for the ``cache`` CLI subcommand):
    file and byte counts per tier (:data:`CACHE_TIERS`) and in total."""
    cdir = cache_dir()
    tiers = {tier: {"files": 0, "bytes": 0} for tier in CACHE_TIERS}
    quarantined = 0
    if cdir is not None and cdir.is_dir():
        for tier, pattern in CACHE_TIERS.items():
            for path in cdir.glob(pattern):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue  # removed while we looked
                tiers[tier]["files"] += 1
                tiers[tier]["bytes"] += size
        quarantined = len(list(cdir.glob("*.corrupt")))
    return {
        "memory_entries": len(_MEMO),
        "dir": str(cdir) if cdir else None,
        "disk_entries": sum(t["files"] for t in tiers.values()),
        "disk_bytes": sum(t["bytes"] for t in tiers.values()),
        "tiers": tiers,
        "quarantined": quarantined,
    }


def cache_entry_key(
    name: str,
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    with_locks: bool = False,
) -> str:
    """The disk-cache key one (workload, geometry, locks) spec maps to.

    The service daemon uses this for per-tenant byte accounting: a
    submission is charged for exactly the entries its warm jobs were
    first to materialize (see :func:`cache_entry_bytes`).
    """
    page_config = page_config or PageConfig()
    return entry_key(
        "trace", get_workload(name).source, page_config, strategy, with_locks
    )


def cache_entry_exists(key: str) -> bool:
    """True when both archives of entry ``key`` are on disk."""
    cdir = cache_dir()
    return cdir is not None and _on_disk(entry_files(cdir, "trace", key))


def cache_entry_bytes(key: str) -> int:
    """On-disk size of entry ``key`` (0 when absent or cache disabled)."""
    cdir = cache_dir()
    if cdir is None:
        return 0
    total = 0
    for path in entry_files(cdir, "trace", key):
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return total


# -- parallel warm-up ----------------------------------------------------------


#: (workload name, with_locks) pairs; geometry/strategy ride along per call
WarmSpec = Tuple[str, bool]


class WarmupError(RuntimeError):
    """One or more workloads could not be warmed.

    Raised *after* every other spec has been built, so a single bad
    workload costs its own table cells and nothing else.  ``failures``
    maps each failing :data:`WarmSpec` to its error string.
    """

    def __init__(self, failures: Dict[WarmSpec, str]):
        self.failures = dict(failures)
        details = "; ".join(
            f"{name}{'+locks' if with_locks else ''}: {error}"
            for (name, with_locks), error in sorted(self.failures.items())
        )
        super().__init__(
            f"{len(self.failures)} workload(s) failed to warm: {details}"
        )


def warm_artifacts(
    specs: Iterable[WarmSpec],
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    jobs: Optional[int] = None,
) -> None:
    """Ensure artifacts exist for every (workload, with_locks) spec,
    fanning independent builds across supervised worker processes when
    ``jobs`` > 1 (one crash, hang, or kill fails only its own spec, and
    transient failures get one retry).

    Parallel builds communicate through the disk cache; with persistence
    disabled (``REPRO_CACHE_DIR=""``) the fan-out would be wasted work,
    so everything runs sequentially in-process instead.

    A spec that cannot be built never aborts the others: every failure
    is collected and reported at the end as one :class:`WarmupError`.
    """
    page_config = page_config or PageConfig()
    specs = list(dict.fromkeys(specs))
    todo: List[WarmSpec] = []
    cdir = cache_dir()
    for name, with_locks in specs:
        if ("trace", name.upper(), page_config, strategy, with_locks) in _MEMO:
            continue
        if cdir is not None:
            key = entry_key(
                "trace", get_workload(name).source, page_config, strategy, with_locks
            )
            if _on_disk(entry_files(cdir, "trace", key)):
                continue
        todo.append((name, with_locks))

    failures: Dict[WarmSpec, str] = {}
    jobs = jobs or 1
    if jobs > 1 and cdir is not None and len(todo) > 1:
        from repro.engine.jobs import JobSpec
        from repro.engine.supervisor import Engine, EngineConfig

        t0 = time.perf_counter()
        job_ids: Dict[str, WarmSpec] = {}
        job_specs = []
        for name, with_locks in todo:
            job_id = f"warm:{name.lower()}" + ("+locks" if with_locks else "")
            job_ids[job_id] = (name, with_locks)
            job_specs.append(
                JobSpec(
                    id=job_id,
                    kind="warm",
                    params={
                        "workload": name,
                        "with_locks": with_locks,
                        "page_bytes": page_config.page_bytes,
                        "word_bytes": page_config.word_bytes,
                        "strategy": strategy.value,
                    },
                )
            )
        engine = Engine(
            EngineConfig(
                max_workers=min(jobs, len(todo)),
                max_retries=1,
                backoff_base=0.05,
            )
        )
        report = engine.run(job_specs)
        for job_id, error in report.failed.items():
            failures[job_ids[job_id]] = error
        STATS.add("warm-pool", time.perf_counter() - t0)
        todo = []
    for name, with_locks in todo:
        try:
            artifacts_for(
                name, page_config=page_config, strategy=strategy,
                with_locks=with_locks,
            )
        except Exception as err:
            failures[(name, with_locks)] = f"{type(err).__name__}: {err}"
    # pull everything (parallel builds included) into the process memo
    for name, with_locks in specs:
        if (name, with_locks) in failures:
            continue
        try:
            artifacts_for(
                name, page_config=page_config, strategy=strategy,
                with_locks=with_locks,
            )
        except Exception as err:
            failures[(name, with_locks)] = f"{type(err).__name__}: {err}"
    if failures:
        raise WarmupError(failures)


def warm_for_table(which: str, jobs: Optional[int] = None) -> None:
    """Pre-build the artifacts a ``table`` subcommand will need."""
    from repro.experiments.config import table1_rows, table2_rows

    which = which.lower()
    if which == "1":
        rows = table1_rows()
    elif which in ("2", "3", "4"):
        rows = table2_rows()
    else:  # ablations/studies pull broadly: warm the full default set
        from repro.workloads import all_workloads

        warm_artifacts([(w.name, False) for w in all_workloads()], jobs=jobs)
        return
    warm_artifacts(
        [(v.workload, v.with_locks) for v in rows], jobs=jobs
    )
