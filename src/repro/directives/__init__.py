"""Memory directives (Section 3 of the paper).

Three directives are modeled:

``ALLOCATE ((PI1, X1) else (PI2, X2) else …)``
    A prioritized list of memory requests sized to the localities of the
    enclosing loop levels.  Inserted before every loop by Algorithm 1
    (:mod:`allocate_insertion`).

``LOCK (PJ, Y1, Y2, …)``
    A soft pin on the current pages of arrays referenced in an outer
    loop, inserted before each inner loop by Algorithm 2
    (:mod:`lock_insertion`).

``UNLOCK (Y1, Y2, …)``
    Releases the pins; inserted at the end of each outermost loop.

:func:`instrument_program` runs both algorithms and returns an
:class:`InstrumentationPlan` the trace generator consults at run time;
:func:`render_instrumented` prints the program with directives
interleaved, Figure-5c style.
"""

from repro._lazy import lazy_exports

# PEP 562: the directive model (needed by every trace event) must not
# import the insertion algorithms and the analysis they run.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".model": (
            "AllocateDirective",
            "AllocateRequest",
            "InstrumentationPlan",
            "LockDirective",
            "UnlockDirective",
        ),
        ".allocate_insertion": ("insert_allocate_directives",),
        ".lock_insertion": ("insert_lock_directives",),
        ".instrument": ("instrument_program",),
        ".parse": (
            "check_instrumented_roundtrip",
            "extract_plan",
            "parse_instrumented",
            "splice_plan",
        ),
        ".render": ("render_instrumented",),
    },
)

__all__ = [
    "AllocateDirective",
    "AllocateRequest",
    "InstrumentationPlan",
    "LockDirective",
    "UnlockDirective",
    "check_instrumented_roundtrip",
    "extract_plan",
    "insert_allocate_directives",
    "insert_lock_directives",
    "instrument_program",
    "parse_instrumented",
    "render_instrumented",
    "splice_plan",
]
