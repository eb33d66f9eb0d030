"""Trace generation: executing a program to produce its page-reference
string.

The paper's evaluation replays "traces of array references" through a
virtual-memory simulator.  This package provides:

* :mod:`paging` — the page-aligned, column-major memory layout mapping
  array elements to global page numbers;
* :mod:`events` — the trace representation: a dense page-reference
  string plus sparse, position-stamped directive events;
* :mod:`interpreter` — a tree-walking interpreter for mini-FORTRAN that
  actually performs the numerics (so data-dependent control flow, e.g.
  convergence loops, behaves realistically) while recording one
  reference per array-element access and resolving directive events at
  their execution points.

Constants, scalars, and instructions generate no references: the paper
assumes they are "permanently resident in memory".
"""

from repro._lazy import lazy_exports

# PEP 562: importing ``repro.tracegen.events`` (for the directive event
# types) must not import the interpreter and its compiler.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".events": ("DirectiveEvent", "DirectiveKind", "ReferenceTrace"),
        ".interpreter": ("ExecutionLimitError", "Interpreter", "generate_trace"),
        ".paging": ("MemoryLayout",),
    },
)

__all__ = [
    "DirectiveEvent",
    "DirectiveKind",
    "ExecutionLimitError",
    "Interpreter",
    "MemoryLayout",
    "ReferenceTrace",
    "generate_trace",
]
