"""Closed-form static locality analysis.

The symbolic engine (:mod:`repro.analysis.symbolic`) interprets a
program once, cold, to *detect* periodic runs in the page string it
just generated.  This package removes that last trace: the static
engine partially evaluates the program at compile time — loop bounds,
subscript matrices and directive positions come straight from the AST —
and derives the run structure of every recipe-tier nest **in closed
form** from its affine access functions, never materializing the flat
reference string.  The result is the same weighted surrogate the
symbolic analyzers consume, so LRU reuse histograms, WS(τ) curves and
the CD structure walk are bit-identical to both the trace and symbolic
paths (``repro table 2 --mode static``), at a fraction of the cost.

Layer map:

* :mod:`~repro.analysis.staticloc.affine` — closed-form page-crossing
  and run-claiming math for one affine binding;
* :mod:`~repro.analysis.staticloc.string` — the virtual reference
  string (:class:`StaticString`) and the piecewise buffer that stands
  in for the interpreter's flat page list;
* :mod:`~repro.analysis.staticloc.interp` — the static compiler and
  interpreter subclasses plus :func:`generate_static_string`;
* :mod:`~repro.analysis.staticloc.artifacts` — the ``--mode static``
  tier of the artifact store: its hooks and per-workload artifacts
  (:func:`static_artifacts_for`).
"""

from repro.analysis.staticloc.affine import ClosedFormPages, ap_crossings
from repro.analysis.staticloc.artifacts import StaticArtifacts, static_artifacts_for
from repro.analysis.staticloc.interp import generate_static_string
from repro.analysis.staticloc.string import RunBuffer, StaticString

__all__ = [
    "ClosedFormPages",
    "ap_crossings",
    "StaticArtifacts",
    "static_artifacts_for",
    "generate_static_string",
    "RunBuffer",
    "StaticString",
]
