"""Source-level locality analysis (Section 2 of the paper).

The paper identifies six parameters for computing the virtual size of a
program's current localities:

====  =============================================================
P     page size (system dependent) — :class:`PageConfig`
Σ     array size from the DIMENSION statement — :class:`PageConfig`
      derives AVS (array virtual size) and CVS (column virtual size)
Δ     nest depth of the loop structure — :class:`looptree.LoopTree`
X     number of distinct indexed variables — :mod:`reference_order`
Θ     order of reference (row-wise / column-wise) — :mod:`reference_order`
Λ     level at which arrays are referenced — :class:`looptree.LoopNode`
====  =============================================================

On top of these, :mod:`locality` computes the locality virtual size of
every loop (the ``X`` argument of ALLOCATE directives) and
:mod:`priority` implements Procedure 1 (Figure 2), the bottom-up priority
index assignment.
"""

from repro._lazy import lazy_exports

# PEP 562: ``PageConfig``/``SizingStrategy`` name every cache entry;
# importing them must not import the whole analysis.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".locality": (
            "Contribution",
            "LocalityAnalysis",
            "LocalityReport",
            "SizingStrategy",
            "analyze_program",
        ),
        ".looptree": ("LoopNode", "LoopTree"),
        ".parameters": ("PageConfig",),
        ".priority": ("assign_priority_indexes",),
        ".reference_order": (
            "ReferenceGroup",
            "ReferenceOrder",
            "classify_references",
            "expression_variables",
            "normalize_expression",
        ),
    },
)

__all__ = [
    "Contribution",
    "LocalityAnalysis",
    "LocalityReport",
    "LoopNode",
    "LoopTree",
    "PageConfig",
    "ReferenceGroup",
    "ReferenceOrder",
    "SizingStrategy",
    "analyze_program",
    "assign_priority_indexes",
    "classify_references",
    "expression_variables",
    "normalize_expression",
]
