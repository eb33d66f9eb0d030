"""repro — Compiler Directed Memory Management Policy for Numerical
Programs (Malkawi & Patel, SOSP 1985): a full reproduction.

The pipeline, end to end:

1. :mod:`repro.frontend` parses mini-FORTRAN source;
2. :mod:`repro.analysis` computes the Section-2 locality parameters
   (Λ, Δ, X, Θ per loop) and Procedure-1 priority indexes;
3. :mod:`repro.directives` inserts ALLOCATE/LOCK/UNLOCK directives
   (Algorithms 1 and 2);
4. :mod:`repro.tracegen` executes the program, emitting the
   page-reference trace with resolved directive events;
5. :mod:`repro.vm` replays the trace under LRU, WS, CD (and FIFO, OPT,
   PFF) and reports PF, MEM, and ST;
6. :mod:`repro.workloads` bundles the nine benchmark programs and
   :mod:`repro.experiments` regenerates Tables 1–4.

Quickstart::

    from repro import quick_compare
    for result in quick_compare("CONDUCT"):
        print(result.describe())
"""

from typing import TYPE_CHECKING, List

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.vm.metrics import SimulationResult

# Public names resolve on first use (PEP 562): ``python -m repro``
# imports this package, and a warm ``repro table`` must not pay for
# numpy, the trace interpreter or the simulators it never runs.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".analysis": ("LocalityAnalysis", "PageConfig", "analyze_program"),
        ".directives": ("instrument_program", "render_instrumented"),
        ".frontend": ("parse_source",),
        ".frontend.symbols": ("SymbolTable",),
        ".tracegen": ("generate_trace",),
        ".vm": (
            "BLIAnalyzer",
            "CDConfig",
            "CDPolicy",
            "FIFOPolicy",
            "LRUPolicy",
            "LRUSweep",
            "MultiprogSimulator",
            "OPTPolicy",
            "PFFPolicy",
            "SimulationResult",
            "WorkingSetPolicy",
            "WSSweep",
            "simulate",
        ),
        ".vm.policies": ("AdaptiveCDPolicy", "ClockPolicy"),
        ".workloads": ("all_workloads", "get_workload", "workload_names"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveCDPolicy",
    "BLIAnalyzer",
    "CDConfig",
    "CDPolicy",
    "ClockPolicy",
    "FIFOPolicy",
    "MultiprogSimulator",
    "LRUPolicy",
    "LRUSweep",
    "LocalityAnalysis",
    "OPTPolicy",
    "PFFPolicy",
    "PageConfig",
    "SimulationResult",
    "SymbolTable",
    "WSSweep",
    "WorkingSetPolicy",
    "all_workloads",
    "analyze_program",
    "generate_trace",
    "get_workload",
    "instrument_program",
    "parse_source",
    "quick_compare",
    "render_instrumented",
    "simulate",
    "workload_names",
]


def quick_compare(workload_name: str) -> List["SimulationResult"]:
    """Replay one bundled workload under CD, LRU, and WS at matched
    average memory — the paper's Table-3 comparison for one program."""
    from repro.experiments.runner import artifacts_for
    from repro.vm.policies import CDConfig

    artifacts = artifacts_for(workload_name)
    cd = artifacts.cd_result(CDConfig(pi_cap=2))
    frames = max(1, round(cd.mem_average))
    lru = artifacts.lru.result(frames)
    tau = artifacts.ws.tau_for_mem(cd.mem_average)
    ws = artifacts.ws.result(tau)
    return [cd, lru, ws]
