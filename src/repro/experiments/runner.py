"""Per-workload artifact cache and CD simulation entry points.

Generating a trace and its LRU/WS sweeps costs real time; every table
needs the same artifacts.  Three layers keep that cost paid once:

* an in-process memo (:data:`_CACHE`) so one Python run reuses one
  trace per (workload, geometry), exactly as the paper replays one
  trace per program through all policies;
* a **persistent disk cache** (``.repro-cache/`` by default, see
  :func:`cache_dir`) holding the trace and the per-reference sweep
  arrays keyed by a content hash of everything that determines them —
  workload source, page geometry, sizing strategy, lock mode, and the
  on-disk format version — so fresh processes warm-start;
* a process-pool warm-up (:func:`warm_artifacts`) that builds missing
  cache entries for many workloads in parallel (``--jobs``).

Tables read these artifacts through the answer tier
(:mod:`repro.experiments.answers`), which records each table-level
answer beside its entry, so a warm render never comes here at all.

CD replays go through the closed-form fast path
(:mod:`repro.vm.fastsim`) whenever it is exact, and fall back to the
event-driven simulator for memory ceilings and LOCK pinning.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.locality import LocalityAnalysis, SizingStrategy, analyze_program
from repro.analysis.parameters import PageConfig
from repro.directives import instrument_program
from repro.directives.model import InstrumentationPlan
from repro.experiments.answers import forget as forget_answers
from repro.experiments.cachefiles import (
    STATS,
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
class WorkloadArtifacts:
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

    def best_cd_result(
        self, caps: Tuple[Optional[int], ...] = (None, 2, 1)
    ) -> SimulationResult:
        """The minimum-ST CD run across directive-set choices (PI caps).

        Mirrors the paper's procedure of rerunning a program with
        different directive sets and reporting the best.
        """
        candidates = [self.cd_result(CDConfig(pi_cap=cap)) for cap in caps]
        return min(candidates, key=lambda r: r.space_time)


_CACHE: Dict[Tuple[str, PageConfig, SizingStrategy, bool], WorkloadArtifacts] = {}


# -- disk cache ----------------------------------------------------------------


def _cache_key(
    source: str,
    page_config: PageConfig,
    strategy: SizingStrategy,
    with_locks: bool,
) -> str:
    return entry_key(
        "trace", source, page_config, strategy, with_locks, trace_io.FORMAT_VERSION
    )


def _entry_paths(cdir: Path, key: str) -> Tuple[Path, Path]:
    return entry_files(cdir, "trace", key)


def _load_entry(
    cdir: Path, key: str, name: str
) -> Optional[Tuple[ReferenceTrace, LRUSweep, WSSweep]]:
    trace_path, sweeps_path = _entry_paths(cdir, key)
    if not (trace_path.exists() and sweeps_path.exists()):
        return None
    observed = {
        path: stat_fingerprint(path) for path in (trace_path, sweeps_path)
    }
    try:
        trace = trace_io.load_trace(trace_path)
        arrays = trace_io.load_sweeps(sweeps_path)
        lru = LRUSweep.from_arrays(
            {
                "pages": trace.pages,
                "distances": arrays["distances"],
                "distinct": arrays["distinct"],
            },
            program=name,
        )
        ws = WSSweep.from_arrays(
            {
                "pages": trace.pages,
                "backward": arrays["backward"],
                "forward": arrays["forward"],
            },
            program=name,
        )
        best = arrays.get("ws_best")
        if best is not None and int(best[4]) == ws.fault_service:
            # Rehydrate the default-grid WS optimum so warm runs skip
            # the ~80-window scan entirely.
            ws._min_st_cache = SimulationResult(
                policy="WS",
                program=name,
                page_faults=int(best[1]),
                references=len(trace.pages),
                mem_average=float(best[2]),
                space_time=float(best[3]),
                parameter=int(best[0]),
                fault_service=ws.fault_service,
            )
    except Exception as err:
        # A truncated .npz surfaces as BadZipFile/EOFError, a bit-flip
        # as anything from json/zlib/numpy — every one of them is a
        # cache miss, never a crash.  Quarantine so the bad bytes are
        # kept for inspection but never re-read.
        quarantine_paths(
            (trace_path, sweeps_path),
            "artifact",
            key,
            f"{type(err).__name__}: {err}",
            observed=observed,
        )
        return None
    return trace, lru, ws


def _store_entry(
    cdir: Path, key: str, trace: ReferenceTrace, lru: LRUSweep, ws: WSSweep
) -> None:
    try:
        cdir.mkdir(parents=True, exist_ok=True)
        trace_path, sweeps_path = _entry_paths(cdir, key)
        # Write-then-rename so a concurrent reader (or a crash) never
        # sees a half-written archive.
        tmp = trace_path.with_name(trace_path.name + f".tmp{os.getpid()}.npz")
        try:
            trace_io.save_trace(trace, tmp, compress=False)
            os.replace(tmp, trace_path)
        finally:
            if tmp.exists():
                tmp.unlink()
        best = ws.min_space_time()  # computed once, reused warm
        tmp = sweeps_path.with_name(sweeps_path.name + f".tmp{os.getpid()}.npz")
        try:
            trace_io.save_sweeps(
                {
                    "distances": lru._distances,
                    "distinct": lru._distinct,
                    "backward": ws._backward,
                    "forward": ws._forward,
                    "ws_best": np.array(
                        [
                            float(best.parameter),
                            float(best.page_faults),
                            best.mem_average,
                            best.space_time,
                            float(best.fault_service),
                        ]
                    ),
                },
                tmp,
            )
            os.replace(tmp, sweeps_path)
        finally:
            if tmp.exists():
                tmp.unlink()
    except OSError:
        pass  # a read-only filesystem must not break the experiments


# -- artifact construction -----------------------------------------------------


def artifacts_for(
    name: str,
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    with_locks: bool = False,
) -> WorkloadArtifacts:
    """Build (or fetch) the artifacts for one benchmark.

    ``with_locks`` defaults to False: the paper's evaluation studies the
    ALLOCATE directive ("The effectiveness of LOCK and UNLOCK directives
    is not studied in this work"); the LOCK ablation turns it on.
    """
    page_config = page_config or PageConfig()
    key = (name.upper(), page_config, strategy, with_locks)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    workload = get_workload(name)
    program = workload.program()
    symbols = workload.symbols()
    analysis = analyze_program(
        program, symbols=symbols, page_config=page_config, strategy=strategy
    )
    plan = instrument_program(program, analysis=analysis, with_locks=with_locks)

    cdir = cache_dir()
    disk_key = _cache_key(workload.source, page_config, strategy, with_locks)
    entry = _load_entry(cdir, disk_key, workload.name) if cdir else None
    if entry is not None:
        trace, lru, ws = entry
        STATS.cache_hits += 1
    else:
        STATS.cache_misses += 1
        t0 = time.perf_counter()
        trace = generate_trace(
            program, plan=plan, symbols=symbols, page_config=page_config
        )
        t1 = time.perf_counter()
        STATS.add("tracegen", t1 - t0, len(trace.pages))
        lru = LRUSweep(trace)
        ws = WSSweep(trace)
        STATS.add("sweeps", time.perf_counter() - t1, 2 * len(trace.pages))
        if cdir is not None:
            _store_entry(cdir, disk_key, trace, lru, ws)

    artifacts = WorkloadArtifacts(
        name=workload.name,
        analysis=analysis,
        plan=plan,
        trace=trace,
        lru=lru,
        ws=ws,
    )
    _CACHE[key] = artifacts
    return artifacts


#: the cache's file tiers, by glob: trace and sweep archives (trace
#: mode; symbolic entries keep a trace archive too), symbolic run
#: journals, static strings, and the answer files of all three modes
CACHE_TIERS: Dict[str, str] = {
    "trace": "trace-*.npz",
    "sweeps": "sweeps-*.npz",
    "runs": "runs-*.npz",
    "static": "static-*.npz",
    "answers": "answers-*.json",
}


def clear_cache(disk: bool = True) -> None:
    """Drop all memoized artifacts — in-memory and (by default) the
    on-disk entries of every tier too (tests use this for isolation)."""
    _CACHE.clear()
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
        "memory_entries": len(_CACHE),
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
    return _cache_key(
        get_workload(name).source, page_config, strategy, with_locks
    )


def cache_entry_exists(key: str) -> bool:
    """True when both archives of entry ``key`` are on disk."""
    cdir = cache_dir()
    if cdir is None:
        return False
    trace_path, sweeps_path = _entry_paths(cdir, key)
    return trace_path.exists() and sweeps_path.exists()


def cache_entry_bytes(key: str) -> int:
    """On-disk size of entry ``key`` (0 when absent or cache disabled)."""
    cdir = cache_dir()
    if cdir is None:
        return 0
    total = 0
    for path in _entry_paths(cdir, key):
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
        mem_key = (name.upper(), page_config, strategy, with_locks)
        if mem_key in _CACHE:
            continue
        if cdir is not None:
            disk_key = _cache_key(
                get_workload(name).source, page_config, strategy, with_locks
            )
            trace_path, sweeps_path = _entry_paths(cdir, disk_key)
            if trace_path.exists() and sweeps_path.exists():
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
