"""Trace-free (symbolic) locality engine.

Computes the paper's LRU / WS / CD statistics from a *run-structured*
trace: the compiled affine nests report their periodic structure, runs
are verified element-wise, and weighted analyzers reproduce the exact
analyzers' integer counts from only the collapsed representatives.
"""

from repro.analysis.symbolic.cd import simulate_cd_symbolic
from repro.analysis.symbolic.collapse import Surrogate, detect_runs
from repro.analysis.symbolic.interp import SymbolicCompiler, generate_runtrace
from repro.analysis.symbolic.locality import SymbolicLRU, SymbolicWS
from repro.analysis.symbolic.runtrace import Run, RunTrace

__all__ = [
    "Run",
    "RunTrace",
    "Surrogate",
    "SymbolicArtifacts",
    "SymbolicCompiler",
    "SymbolicLRU",
    "SymbolicWS",
    "detect_runs",
    "generate_runtrace",
    "simulate_cd_symbolic",
    "symbolic_artifacts_for",
]


def __getattr__(name):
    # artifacts imports the experiments runner (the artifact store);
    # load it lazily to keep `repro.analysis.symbolic`
    # importable without the experiments package in the cycle.
    if name in ("SymbolicArtifacts", "symbolic_artifacts_for"):
        from repro.analysis.symbolic import artifacts

        return getattr(artifacts, name)
    raise AttributeError(name)
