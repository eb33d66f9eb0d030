"""Symbolic (trace-free) per-workload artifacts: the ``symbolic`` tier.

:func:`symbolic_artifacts_for` builds them through the artifact store
(:func:`repro.experiments.runner.build_artifacts`) with the hooks
below: the LRU/WS sweeps are the weighted analyzers over the collapsed
run journal and CD replays walk the structure instead of the full
distance array.  Every number matches the trace-backed artifacts
exactly (Table 2 produced either way is identical); only the time to
produce them differs.  :class:`SurrogateArtifacts` is the part the
static tier (:mod:`repro.analysis.staticloc.artifacts`) shares.

Affine coverage is best-effort by construction: a nest the recipe tier
or the binder cannot prove (the static checker flags such subscripts
as **CD301** ``nonaffine-subscript``) is *recovered* by the ordinary
interpreter — the flat trace stays exact, the nest simply contributes
no runs and is analyzed at weight 1.  :meth:`SurrogateArtifacts.coverage`
reports that split (flagged sites, compiled/kept reference counts) so
a fallback-heavy run is visible rather than silently slow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.locality import LocalityAnalysis, SizingStrategy
from repro.analysis.parameters import PageConfig
from repro.analysis.symbolic.cd import simulate_cd_symbolic
from repro.analysis.symbolic.collapse import Surrogate
from repro.analysis.symbolic.interp import generate_runtrace
from repro.analysis.symbolic.locality import SymbolicLRU, SymbolicWS
from repro.analysis.symbolic.runtrace import Run, RunTrace
from repro.directives.model import InstrumentationPlan
from repro.experiments.answers import BestCD
from repro.experiments.cachefiles import STATS
from repro.experiments.runner import build_artifacts
from repro.tracegen import io as trace_io
from repro.vm.analyzers import LRUSweep
from repro.vm.fastsim import cd_fast_applicable, simulate_cd_fast
from repro.vm.metrics import SimulationResult
from repro.vm.policies import CDConfig, CDPolicy
from repro.vm.simulator import simulate

__all__ = ["SurrogateArtifacts", "SymbolicArtifacts", "symbolic_artifacts_for"]


@dataclass
class SurrogateArtifacts(BestCD):
    """Artifacts analyzed on a weighted surrogate of a run journal."""

    name: str
    analysis: LocalityAnalysis
    plan: InstrumentationPlan
    runtrace: RunTrace
    lru: SymbolicLRU = field(repr=False)
    ws: SymbolicWS = field(repr=False)
    gen_stats: Dict[str, int] = field(default_factory=dict, repr=False)

    @property
    def surrogate(self) -> Surrogate:
        return self.lru.surrogate

    def _exact_trace(self):
        """The flat trace, for the CD configurations the walk cannot
        serve."""
        return self.runtrace.trace

    def cd_result(self, config: Optional[CDConfig] = None) -> SimulationResult:
        """CD replay: structure walk when the closed form applies,
        exact fallback otherwise (ceiling / LOCK pinning / a journal
        the walk rejects)."""
        config = config or CDConfig()
        t0 = time.perf_counter()
        try:
            if cd_fast_applicable(self.runtrace.trace, config):
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
            STATS.add("simulate", time.perf_counter() - t0, self.runtrace.length)

    def coverage(self) -> Dict[str, int]:
        """Affine coverage: CD301-flagged subscript sites versus what
        the tier compiled, proved in closed form or recovered, plus any
        exact-trace fallbacks taken."""
        from repro.staticcheck import lint_program

        flagged = sum(
            1
            for d in lint_program(self.analysis.program, plan=self.plan)
            if d.rule == "CD301"
        )
        report = dict(self.gen_stats)
        report["nonaffine_sites"] = flagged
        return report


@dataclass
class SymbolicArtifacts(SurrogateArtifacts):
    """Everything the experiments need, derived without a full replay."""

    @property
    def trace(self):
        """The exact flat trace (directives included)."""
        return self.runtrace.trace


def surrogate_analyzers(
    surrogate: Surrogate, sweeps: Dict[str, np.ndarray], name: str
) -> Tuple[SymbolicLRU, SymbolicWS]:
    """The weighted LRU/WS analyzers of ``surrogate``; the kept-string
    LRU arrays in ``sweeps`` skip the stack simulation."""
    inner = None
    if "distances" in sweeps and "distinct" in sweeps:
        inner = LRUSweep.from_arrays(
            {
                "pages": surrogate.kept_pages,
                "distances": sweeps["distances"],
                "distinct": sweeps["distinct"],
            },
            program=name,
        )
    lru = SymbolicLRU(surrogate, program=name, inner=inner)
    return lru, SymbolicWS(surrogate, program=name)


def runs_to_arrays(runs: List[Run], prefix: str = "") -> Dict[str, np.ndarray]:
    return {
        f"{prefix}{part}": np.array([getattr(r, part) for r in runs], dtype=np.int64)
        for part in ("start", "block", "repeats")
    }


def runs_from_arrays(arrays, prefix: str = "") -> List[Run]:
    return [
        Run(int(s), int(b), int(k))
        for s, b, k in zip(
            arrays[f"{prefix}start"],
            arrays[f"{prefix}block"],
            arrays[f"{prefix}repeats"],
        )
    ]


def sweep_arrays(arrays) -> Dict[str, np.ndarray]:
    """The analysis arrays stored beside a surrogate tier's product."""
    return {
        name: arrays[name]
        for name in ("distances", "distinct", "ws_best")
        if name in arrays
    }


# -- the symbolic tier's hooks ---------------------------------------------------


def generate(program, plan, symbols, page_config, stats) -> RunTrace:
    return generate_runtrace(
        program, plan=plan, symbols=symbols, page_config=page_config, stats=stats
    )


def encode(artifacts: SymbolicArtifacts, ws_best: np.ndarray, paths) -> None:
    trace_path, runs_path = paths
    trace_io.save_trace(artifacts.trace, trace_path, compress=False)
    # The analysis arrays ride along like trace mode's sweeps-*.npz:
    # the kept-string LRU distances/distinct skip the stack simulation
    # on reload, and ws_best skips the min-ST search.
    np.savez(
        runs_path,
        **runs_to_arrays(artifacts.runtrace.runs),
        distances=artifacts.lru._distances,
        distinct=artifacts.lru._distinct,
        ws_best=ws_best,
    )


def decode(paths) -> Tuple[RunTrace, Dict[str, np.ndarray]]:
    trace_path, runs_path = paths
    trace = trace_io.load_trace(trace_path)
    with np.load(runs_path) as arrays:
        return RunTrace(trace, runs_from_arrays(arrays)), sweep_arrays(arrays)


def assemble(name, analysis, plan, runtrace: RunTrace, sweeps, gen_stats=None):
    surrogate = Surrogate(runtrace.trace.pages, runtrace.runs)
    lru, ws = surrogate_analyzers(surrogate, sweeps, name)
    return SymbolicArtifacts(
        name=name,
        analysis=analysis,
        plan=plan,
        runtrace=runtrace,
        lru=lru,
        ws=ws,
        gen_stats=gen_stats or {},
    )


def symbolic_artifacts_for(
    name: str,
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    with_locks: bool = False,
) -> SymbolicArtifacts:
    """Build (or fetch) the symbolic artifacts for one benchmark."""
    return build_artifacts("symbolic", name, page_config, strategy, with_locks)
