"""Symbolic (trace-free) per-workload artifacts.

:func:`symbolic_artifacts_for` is the drop-in twin of
:func:`repro.experiments.runner.artifacts_for`: same signature, same
in-process memo and mode-marked disk cache, but the LRU/WS sweeps are
the weighted analyzers over the collapsed run journal and CD replays
walk the structure instead of the full distance array.  Every number
matches the trace-backed artifacts exactly (Table 2 produced either
way is identical); only the time to produce them differs.

Affine coverage is best-effort by construction: a nest the recipe tier
or the binder cannot prove (the static checker flags such subscripts
as **CD301** ``nonaffine-subscript``) is *recovered* by the ordinary
interpreter — the flat trace stays exact, the nest simply contributes
no runs and is analyzed at weight 1.  :meth:`SymbolicArtifacts.coverage`
reports that split (flagged sites, compiled/kept reference counts) so
a fallback-heavy run is visible rather than silently slow.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import formats
from repro.analysis.locality import LocalityAnalysis, SizingStrategy, analyze_program
from repro.analysis.parameters import PageConfig
from repro.analysis.symbolic.cd import simulate_cd_symbolic
from repro.analysis.symbolic.collapse import Surrogate
from repro.analysis.symbolic.interp import generate_runtrace
from repro.analysis.symbolic.locality import SymbolicLRU, SymbolicWS
from repro.analysis.symbolic.runtrace import Run, RunTrace
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
)
from repro.tracegen import io as trace_io
from repro.vm.analyzers import LRUSweep
from repro.vm.fastsim import cd_fast_applicable, simulate_cd_fast
from repro.vm.metrics import SimulationResult
from repro.vm.policies import CDConfig, CDPolicy
from repro.vm.simulator import simulate
from repro.workloads import get_workload

__all__ = ["SymbolicArtifacts", "symbolic_artifacts_for", "clear_symbolic_cache"]

#: bumped (in :mod:`repro.formats`) when the detector/collapse/cache
#: layout changes — invalidates entries
SYMBOLIC_FORMAT = formats.SYMBOLIC_FORMAT


@dataclass
class SymbolicArtifacts:
    """Everything the experiments need, derived without a full replay."""

    name: str
    analysis: LocalityAnalysis
    plan: InstrumentationPlan
    runtrace: RunTrace
    surrogate: Surrogate = field(repr=False)
    lru: SymbolicLRU = field(repr=False)
    ws: SymbolicWS = field(repr=False)
    gen_stats: Dict[str, int] = field(default_factory=dict, repr=False)

    @property
    def trace(self):
        """The exact flat trace (directives included)."""
        return self.runtrace.trace

    def cd_result(self, config: Optional[CDConfig] = None) -> SimulationResult:
        """CD replay: structure walk when the closed form applies,
        exact fallback otherwise (ceiling / LOCK pinning / a journal
        the walk rejects)."""
        config = config or CDConfig()
        t0 = time.perf_counter()
        try:
            if cd_fast_applicable(self.trace, config):
                try:
                    return simulate_cd_symbolic(
                        self.runtrace,
                        config,
                        surrogate=self.surrogate,
                        kept_distances=self.lru._distances,
                    )
                except ValueError:
                    return simulate_cd_fast(self.trace, config)
            return simulate(self.trace, CDPolicy(config))
        finally:
            STATS.add(
                "simulate", time.perf_counter() - t0, len(self.trace.pages)
            )

    def best_cd_result(
        self, caps: Tuple[Optional[int], ...] = (None, 2, 1)
    ) -> SimulationResult:
        """Minimum-ST CD run across directive-set choices (PI caps) —
        same candidates and tie-breaking as the trace-backed artifacts."""
        candidates = [self.cd_result(CDConfig(pi_cap=cap)) for cap in caps]
        return min(candidates, key=lambda r: r.space_time)

    def coverage(self) -> Dict[str, int]:
        """Affine coverage: CD301-flagged subscript sites versus what
        the symbolic tier compiled/collapsed vs recovered."""
        from repro.staticcheck import lint_program

        flagged = sum(
            1
            for d in lint_program(self.analysis.program, plan=self.plan)
            if d.rule == "CD301"
        )
        report = dict(self.gen_stats)
        report["nonaffine_sites"] = flagged
        return report


_SYM_CACHE: Dict[
    Tuple[str, PageConfig, SizingStrategy, bool], SymbolicArtifacts
] = {}


def _symbolic_cache_key(
    source: str,
    page_config: PageConfig,
    strategy: SizingStrategy,
    with_locks: bool,
) -> str:
    return entry_key(
        "symbolic",
        source,
        page_config,
        strategy,
        with_locks,
        trace_io.FORMAT_VERSION,
        SYMBOLIC_FORMAT,
    )


def _entry_paths(cdir: Path, key: str) -> Tuple[Path, Path]:
    return entry_files(cdir, "symbolic", key)


def _load_entry(
    cdir: Path, key: str
) -> Optional[Tuple[RunTrace, Dict[str, np.ndarray]]]:
    trace_path, runs_path = _entry_paths(cdir, key)
    if not (trace_path.exists() and runs_path.exists()):
        return None
    observed = {
        path: stat_fingerprint(path) for path in (trace_path, runs_path)
    }
    try:
        trace = trace_io.load_trace(trace_path)
        with np.load(runs_path) as arrays:
            runs = [
                Run(int(s), int(b), int(k))
                for s, b, k in zip(
                    arrays["start"], arrays["block"], arrays["repeats"]
                )
            ]
            sweeps = {
                name: arrays[name]
                for name in ("distances", "distinct", "ws_best")
                if name in arrays
            }
        return RunTrace(trace, runs), sweeps
    except Exception as err:
        quarantine_paths(
            (trace_path, runs_path),
            "symbolic",
            key,
            f"{type(err).__name__}: {err}",
            observed=observed,
        )
        return None


def _store_entry(
    cdir: Path,
    key: str,
    runtrace: RunTrace,
    lru: SymbolicLRU,
    ws: SymbolicWS,
) -> None:
    try:
        cdir.mkdir(parents=True, exist_ok=True)
        trace_path, runs_path = _entry_paths(cdir, key)
        tmp = trace_path.with_name(trace_path.name + f".tmp{os.getpid()}.npz")
        try:
            trace_io.save_trace(runtrace.trace, tmp, compress=False)
            os.replace(tmp, trace_path)
        finally:
            if tmp.exists():
                tmp.unlink()
        runs = runtrace.runs
        # The analysis arrays ride along like trace-mode's sweeps-*.npz:
        # the kept-string LRU distances/distinct skip the stack
        # simulation on reload, and ws_best skips the min-ST search.
        best = ws.min_space_time()
        tmp = runs_path.with_name(runs_path.name + f".tmp{os.getpid()}.npz")
        try:
            np.savez(
                tmp,
                start=np.array([r.start for r in runs], dtype=np.int64),
                block=np.array([r.block for r in runs], dtype=np.int64),
                repeats=np.array([r.repeats for r in runs], dtype=np.int64),
                distances=lru._distances,
                distinct=lru._distinct,
                ws_best=np.array(
                    [
                        best.parameter,
                        best.page_faults,
                        best.mem_average,
                        best.space_time,
                        best.fault_service,
                    ]
                ),
            )
            os.replace(tmp, runs_path)
        finally:
            if tmp.exists():
                tmp.unlink()
    except OSError:
        pass  # a read-only filesystem must not break the experiments


def symbolic_artifacts_for(
    name: str,
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    with_locks: bool = False,
) -> SymbolicArtifacts:
    """Build (or fetch) the symbolic artifacts for one benchmark."""
    page_config = page_config or PageConfig()
    key = (name.upper(), page_config, strategy, with_locks)
    cached = _SYM_CACHE.get(key)
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
    disk_key = _symbolic_cache_key(workload.source, page_config, strategy, with_locks)
    stats: Dict[str, int] = {}
    loaded = _load_entry(cdir, disk_key) if cdir else None
    if loaded is not None:
        STATS.cache_hits += 1
        runtrace, sweeps = loaded
    else:
        STATS.cache_misses += 1
        sweeps = {}
        t0 = time.perf_counter()
        runtrace = generate_runtrace(
            program,
            plan=plan,
            symbols=symbols,
            page_config=page_config,
            stats=stats,
        )
        STATS.add(
            "symbolic-gen", time.perf_counter() - t0, len(runtrace.trace.pages)
        )

    t0 = time.perf_counter()
    surrogate = Surrogate(runtrace.trace.pages, runtrace.runs)
    inner = None
    if "distances" in sweeps and "distinct" in sweeps:
        inner = LRUSweep.from_arrays(
            {
                "pages": surrogate.kept_pages,
                "distances": sweeps["distances"],
                "distinct": sweeps["distinct"],
            },
            program=workload.name,
        )
    lru = SymbolicLRU(surrogate, program=workload.name, inner=inner)
    ws = SymbolicWS(surrogate, program=workload.name)
    best = sweeps.get("ws_best")
    if best is not None and int(best[4]) == ws.fault_service:
        ws._min_st_cache = SimulationResult(
            policy="WS",
            program=workload.name,
            page_faults=int(best[1]),
            references=len(runtrace.trace.pages),
            mem_average=float(best[2]),
            space_time=float(best[3]),
            parameter=int(best[0]),
            fault_service=ws.fault_service,
        )
    STATS.add(
        "symbolic-sweeps", time.perf_counter() - t0, 2 * len(surrogate.kept_pos)
    )
    if loaded is None and cdir is not None:
        _store_entry(cdir, disk_key, runtrace, lru, ws)
    artifacts = SymbolicArtifacts(
        name=workload.name,
        analysis=analysis,
        plan=plan,
        runtrace=runtrace,
        surrogate=surrogate,
        lru=lru,
        ws=ws,
        gen_stats=stats,
    )
    _SYM_CACHE[key] = artifacts
    return artifacts


def clear_symbolic_cache(disk: bool = True) -> None:
    """Drop memoized symbolic artifacts (and disk entries by default)."""
    _SYM_CACHE.clear()
    forget_answers()
    if not disk:
        return
    cdir = cache_dir()
    if cdir is None or not cdir.is_dir():
        return
    for pattern in ("runs-*.npz", "runs-*.corrupt", "answers-*-symbolic.json"):
        for path in cdir.glob(pattern):
            path.unlink(missing_ok=True)
