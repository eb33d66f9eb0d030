"""Page-replacement policies for the VM simulator."""

from repro._lazy import lazy_exports

# PEP 562: ``CDConfig`` is needed by every experiment row definition;
# importing it must not import OPT's numpy or the other policies.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("Policy",),
        ".cd": ("CDConfig", "CDPolicy"),
        ".cd_adaptive": ("AdaptiveCDPolicy",),
        ".clock": ("ClockPolicy",),
        ".fifo": ("FIFOPolicy",),
        ".lru": ("LRUPolicy",),
        ".opt": ("OPTPolicy",),
        ".pff": ("PFFPolicy",),
        ".ws": ("WorkingSetPolicy",),
        ".ws_family": (
            "DampedWorkingSetPolicy",
            "SampledWorkingSetPolicy",
            "VariableSampledWorkingSetPolicy",
        ),
    },
)

__all__ = [
    "AdaptiveCDPolicy",
    "CDConfig",
    "CDPolicy",
    "ClockPolicy",
    "DampedWorkingSetPolicy",
    "FIFOPolicy",
    "LRUPolicy",
    "OPTPolicy",
    "PFFPolicy",
    "Policy",
    "SampledWorkingSetPolicy",
    "VariableSampledWorkingSetPolicy",
    "WorkingSetPolicy",
]
