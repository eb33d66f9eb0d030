"""Static (closed-form) per-workload artifacts.

:func:`static_artifacts_for` is the third drop-in twin of
:func:`repro.experiments.runner.artifacts_for` (after the symbolic
builder): same signature, same in-process memo and mode-marked disk
cache, but generation partially evaluates the program into a
:class:`~repro.analysis.staticloc.string.StaticString` — the flat
reference string is never materialized, recipe-tier nests contribute
their run journal in closed form straight from the affine subscripts,
and the weighted analyzers and CD structure walk run on the surrogate
built with :meth:`Surrogate.from_parts`.  Every number matches the
trace-backed and symbolic artifacts exactly (Table 2 produced any of
the three ways is identical); only the cost differs.

Two exact fallbacks remain for CD configurations the structure walk
cannot serve (a memory ceiling, honored LOCKs, or a journal the walk
rejects): a LOCK-instrumented execution compiles nothing, so its
string is fully literal and materializes for free; anything else
regenerates the trace once and counts it in ``gen_stats`` — visible,
never silent.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro import formats
from repro.analysis.locality import LocalityAnalysis, SizingStrategy, analyze_program
from repro.analysis.parameters import PageConfig
from repro.analysis.staticloc.interp import generate_static_string
from repro.analysis.staticloc.string import StaticString
from repro.analysis.symbolic.cd import simulate_cd_symbolic
from repro.analysis.symbolic.collapse import Surrogate
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
from repro.tracegen.events import ReferenceTrace
from repro.tracegen.interpreter import generate_trace
from repro.tracegen.io import _event_from_dict, _event_to_dict
from repro.vm.analyzers import LRUSweep
from repro.vm.fastsim import cd_fast_applicable, simulate_cd_fast
from repro.vm.metrics import SimulationResult
from repro.vm.policies import CDConfig, CDPolicy
from repro.vm.simulator import simulate
from repro.workloads import get_workload

__all__ = ["StaticArtifacts", "static_artifacts_for", "clear_static_cache"]

#: bumped (in :mod:`repro.formats`) when the closed-form math or the
#: cache layout changes
STATIC_FORMAT = formats.STATIC_FORMAT


@dataclass
class StaticArtifacts:
    """Everything the experiments need, derived without any trace."""

    name: str
    analysis: LocalityAnalysis
    plan: InstrumentationPlan
    string: StaticString
    runtrace: RunTrace = field(repr=False)
    surrogate: Surrogate = field(repr=False)
    lru: SymbolicLRU = field(repr=False)
    ws: SymbolicWS = field(repr=False)
    gen_stats: Dict[str, int] = field(default_factory=dict, repr=False)
    _exact: Optional[ReferenceTrace] = field(default=None, repr=False)

    def cd_result(self, config: Optional[CDConfig] = None) -> SimulationResult:
        """CD replay: structure walk when the closed form applies,
        exact fallback otherwise (ceiling / LOCK pinning / a journal
        the walk rejects)."""
        config = config or CDConfig()
        t0 = time.perf_counter()
        try:
            if cd_fast_applicable(self.string, config):
                try:
                    return simulate_cd_symbolic(
                        self.runtrace,
                        config,
                        surrogate=self.surrogate,
                        kept_distances=self.lru._distances,
                    )
                except ValueError:
                    return simulate_cd_fast(self._exact_trace(), config)
            return simulate(self._exact_trace(), CDPolicy(config))
        finally:
            STATS.add(
                "simulate", time.perf_counter() - t0, self.string.n_references
            )

    def best_cd_result(
        self, caps: Tuple[Optional[int], ...] = (None, 2, 1)
    ) -> SimulationResult:
        """Minimum-ST CD run across directive-set choices (PI caps) —
        same candidates and tie-breaking as the other two builders."""
        candidates = [self.cd_result(CDConfig(pi_cap=cap)) for cap in caps]
        return min(candidates, key=lambda r: r.space_time)

    def coverage(self) -> Dict[str, int]:
        """Static coverage: CD301-flagged subscript sites versus what
        the closed form / compiler proved vs recovered by
        interpretation, plus any exact-trace fallbacks taken."""
        from repro.staticcheck import lint_program

        flagged = sum(
            1
            for d in lint_program(self.analysis.program, plan=self.plan)
            if d.rule == "CD301"
        )
        report = dict(self.gen_stats)
        report["nonaffine_sites"] = flagged
        return report

    def _exact_trace(self) -> ReferenceTrace:
        """The flat trace, for the CD configurations the walk cannot
        serve.  Free for fully literal strings; otherwise a counted
        one-time regeneration."""
        if self._exact is None:
            if self.string.fully_literal:
                self._exact = self.string.to_reference_trace()
            else:
                self.gen_stats["exact_fallback_traces"] = (
                    self.gen_stats.get("exact_fallback_traces", 0) + 1
                )
                workload = get_workload(self.name)
                self._exact = generate_trace(
                    workload.program(),
                    plan=self.plan,
                    symbols=workload.symbols(),
                )
        return self._exact


_STATIC_CACHE: Dict[
    Tuple[str, PageConfig, SizingStrategy, bool], StaticArtifacts
] = {}


def _static_cache_key(
    source: str,
    page_config: PageConfig,
    strategy: SizingStrategy,
    with_locks: bool,
) -> str:
    return entry_key(
        "static",
        source,
        page_config,
        strategy,
        with_locks,
        trace_io.FORMAT_VERSION,
        STATIC_FORMAT,
    )


def _entry_path(cdir: Path, key: str) -> Path:
    (path,) = entry_files(cdir, "static", key)
    return path


def _load_entry(
    cdir: Path, key: str
) -> Optional[Tuple[StaticString, Dict[str, np.ndarray]]]:
    path = _entry_path(cdir, key)
    if not path.exists():
        return None
    observed = {path: stat_fingerprint(path)}
    try:
        with np.load(path) as arrays:
            header = json.loads(arrays["header"].tobytes().decode("utf-8"))
            if header.get("static_format") != STATIC_FORMAT:
                raise ValueError(
                    f"static cache format {header.get('static_format')}"
                )
            string = StaticString(
                program_name=header["program_name"],
                n_references=int(header["n_references"]),
                total_pages=int(header["total_pages"]),
                directives=[
                    _event_from_dict(d) for d in header["directives"]
                ],
                array_pages={
                    name: (int(first), int(count))
                    for name, (first, count) in header["array_pages"].items()
                },
                truncated=bool(header["truncated"]),
                kept_pos=arrays["kept_pos"].astype(np.int64),
                kept_pages=arrays["kept_pages"].astype(np.int32),
                runs=[
                    Run(int(s), int(b), int(k))
                    for s, b, k in zip(
                        arrays["run_start"],
                        arrays["run_block"],
                        arrays["run_repeats"],
                    )
                ],
            )
            sweeps = {
                name: arrays[name]
                for name in ("distances", "distinct", "ws_best")
                if name in arrays
            }
        return string, sweeps
    except Exception as err:
        quarantine_paths(
            (path,),
            "static",
            key,
            f"{type(err).__name__}: {err}",
            observed=observed,
        )
        return None


def _store_entry(
    cdir: Path,
    key: str,
    string: StaticString,
    lru: SymbolicLRU,
    ws: SymbolicWS,
) -> None:
    try:
        cdir.mkdir(parents=True, exist_ok=True)
        path = _entry_path(cdir, key)
        header = {
            "static_format": STATIC_FORMAT,
            "program_name": string.program_name,
            "n_references": string.n_references,
            "total_pages": string.total_pages,
            "truncated": string.truncated,
            "array_pages": {
                name: [first, count]
                for name, (first, count) in string.array_pages.items()
            },
            "directives": [_event_to_dict(d) for d in string.directives],
        }
        best = ws.min_space_time()
        tmp = path.with_name(path.name + f".tmp{os.getpid()}.npz")
        try:
            np.savez(
                tmp,
                header=np.frombuffer(
                    json.dumps(header).encode("utf-8"), dtype=np.uint8
                ),
                kept_pos=string.kept_pos,
                kept_pages=string.kept_pages,
                run_start=np.array(
                    [r.start for r in string.runs], dtype=np.int64
                ),
                run_block=np.array(
                    [r.block for r in string.runs], dtype=np.int64
                ),
                run_repeats=np.array(
                    [r.repeats for r in string.runs], dtype=np.int64
                ),
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
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()
    except OSError:
        pass  # a read-only filesystem must not break the experiments


def static_artifacts_for(
    name: str,
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    with_locks: bool = False,
) -> StaticArtifacts:
    """Build (or fetch) the static artifacts for one benchmark."""
    page_config = page_config or PageConfig()
    key = (name.upper(), page_config, strategy, with_locks)
    cached = _STATIC_CACHE.get(key)
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
    disk_key = _static_cache_key(workload.source, page_config, strategy, with_locks)
    stats: Dict[str, int] = {}
    loaded = _load_entry(cdir, disk_key) if cdir else None
    if loaded is not None:
        STATS.cache_hits += 1
        string, sweeps = loaded
    else:
        STATS.cache_misses += 1
        sweeps = {}
        t0 = time.perf_counter()
        # FORAY-GEN affine recovery: rewrite recoverable CD301 sites so
        # the closed-form compiler sees affine subscripts.  The rewrite
        # is trace-equivalent by construction (and re-proven by the
        # static oracle battery), so the string is unchanged — only how
        # much of it the recipe/closed-form tiers can serve.
        from repro.staticcheck.recovery import recover_program

        recovery = recover_program(program, symbols=symbols)
        stats["recovered_sites"] = len(recovery.sites)
        string = generate_static_string(
            recovery.program,
            plan=plan,
            symbols=symbols,
            page_config=page_config,
            stats=stats,
        )
        STATS.add("static-gen", time.perf_counter() - t0, string.n_references)

    t0 = time.perf_counter()
    surrogate = string.surrogate()
    runtrace = RunTrace(string, string.runs)
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
            references=string.n_references,
            mem_average=float(best[2]),
            space_time=float(best[3]),
            parameter=int(best[0]),
            fault_service=ws.fault_service,
        )
    STATS.add(
        "static-sweeps", time.perf_counter() - t0, 2 * len(surrogate.kept_pos)
    )
    if loaded is None and cdir is not None:
        _store_entry(cdir, disk_key, string, lru, ws)
    artifacts = StaticArtifacts(
        name=workload.name,
        analysis=analysis,
        plan=plan,
        string=string,
        runtrace=runtrace,
        surrogate=surrogate,
        lru=lru,
        ws=ws,
        gen_stats=stats,
    )
    _STATIC_CACHE[key] = artifacts
    return artifacts


def clear_static_cache(disk: bool = True) -> None:
    """Drop memoized static artifacts (and disk entries by default)."""
    _STATIC_CACHE.clear()
    forget_answers()
    if not disk:
        return
    cdir = cache_dir()
    if cdir is None or not cdir.is_dir():
        return
    for pattern in ("static-*.npz", "static-*.corrupt", "answers-*-static.json"):
        for path in cdir.glob(pattern):
            path.unlink(missing_ok=True)
