"""Virtual-memory simulation substrate.

An event-driven paging simulator replays a
:class:`~repro.tracegen.events.ReferenceTrace` under a replacement
policy and reports the paper's three performance indexes:

* **PF** — page faults;
* **MEM** — average memory allocated (resident pages, averaged over
  reference time);
* **ST** — space-time cost, the integral of resident pages over virtual
  time, where every fault adds a 2000-reference service delay (the
  paper's assumption).

Policies: :class:`LRUPolicy` and :class:`FIFOPolicy` (fixed partition),
:class:`WorkingSetPolicy` (WS), :class:`OPTPolicy` (Belady MIN),
:class:`PFFPolicy` (page-fault frequency), and :class:`CDPolicy` — the
paper's compiler-directed policy driven by ALLOCATE/LOCK/UNLOCK events.

:mod:`repro.vm.analyzers` provides one-pass parameter-sweep analyzers
(all LRU partition sizes via stack distances; all WS windows via
inter-reference gaps) that agree exactly with the event simulator.
"""

from repro._lazy import lazy_exports

# PEP 562: each name imports its submodule on first use, so importing
# one light submodule (``repro.vm.metrics``, ``repro.vm.policies.cd``)
# does not drag in numpy and every simulator.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".metrics": ("FAULT_SERVICE_REFERENCES", "SimulationResult"),
        ".simulator": ("simulate",),
        ".policies": (
            "CDConfig",
            "CDPolicy",
            "DampedWorkingSetPolicy",
            "FIFOPolicy",
            "LRUPolicy",
            "OPTPolicy",
            "PFFPolicy",
            "SampledWorkingSetPolicy",
            "VariableSampledWorkingSetPolicy",
            "WorkingSetPolicy",
        ),
        ".analyzers": ("LRUSweep", "WSSweep"),
        ".bli": ("BLIAnalyzer", "LocalityInterval", "compare_with_predictions"),
        ".multiprog": ("MultiprogSimulator", "MultiprogResult"),
    },
)

__all__ = [
    "BLIAnalyzer",
    "CDConfig",
    "CDPolicy",
    "DampedWorkingSetPolicy",
    "FAULT_SERVICE_REFERENCES",
    "FIFOPolicy",
    "LRUPolicy",
    "LRUSweep",
    "LocalityInterval",
    "MultiprogResult",
    "MultiprogSimulator",
    "OPTPolicy",
    "PFFPolicy",
    "SampledWorkingSetPolicy",
    "SimulationResult",
    "VariableSampledWorkingSetPolicy",
    "WSSweep",
    "WorkingSetPolicy",
    "compare_with_predictions",
    "simulate",
]
