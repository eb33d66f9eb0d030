"""On-disk format versions of the persisted artifact-cache tiers.

They live in this numpy-free module rather than beside the code that
reads each format, so the answer tier can compute a warm entry's key
without importing the trace, symbolic or static layers.  Bump a
version when its layout or meaning changes: every cache key that
includes it changes, and old entries are never read again.
"""

#: trace/sweep ``.npz`` archives and sharded traces (:mod:`repro.tracegen.io`)
TRACE_FORMAT = 2

#: symbolic run journals, ``runs-*.npz``
#: (:mod:`repro.analysis.symbolic.artifacts`)
SYMBOLIC_FORMAT = 2

#: closed-form static strings, ``static-*.npz``
#: (:mod:`repro.analysis.staticloc.artifacts`)
STATIC_FORMAT = 1
