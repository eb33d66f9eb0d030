"""Resilient sweep engine: supervised workers, checkpoint/resume, chaos.

The paper's evaluation is a large grid — nine workloads x policies x
geometries x sizing strategies — and a production-scale reproduction
has to survive a worker that crashes, hangs, or gets OOM-killed halfway
through.  This package runs experiment sweeps as a DAG of retryable
jobs:

* :mod:`repro.engine.jobs` — the job model and the job-kind registry
  (``warm``, ``table``, ``oracle``, ``selftest``);
* :mod:`repro.engine.supervisor` — the engine: per-attempt worker
  processes, timeouts, bounded retries with backoff + jitter, crash
  isolation, lifecycle events through :mod:`repro.obs`;
* :mod:`repro.engine.ledger` — the JSONL run ledger under
  ``results/runs/<run-id>/``, giving exact checkpoint/resume;
* :mod:`repro.engine.chaos` — deterministic fault injection
  (kill-worker, inject-exception, slow-job, corrupt-cache-entry);
* :mod:`repro.engine.sweeps` — target expansion and the ``repro run``
  entry point.
"""

from repro._lazy import lazy_exports

# PEP 562: the ``table`` CLI reaches ``repro.engine.jobs`` for its
# renderer registry; that must not import the supervisor.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".chaos": ("CHAOS_MODES", "ChaosError", "ChaosPlan"),
        ".jobs": ("JOB_KINDS", "JobSpec", "render_table", "run_job"),
        ".ledger": ("LedgerState", "RunLedger"),
        ".supervisor": (
            "Engine",
            "EngineConfig",
            "GracefulExit",
            "RunReport",
            "Wakeup",
            "with_priority",
        ),
        ".sweeps": ("SweepResult", "build_sweep", "new_run_id", "run_sweep"),
    },
)

__all__ = [
    "CHAOS_MODES",
    "ChaosError",
    "ChaosPlan",
    "Engine",
    "EngineConfig",
    "GracefulExit",
    "JOB_KINDS",
    "JobSpec",
    "LedgerState",
    "RunLedger",
    "RunReport",
    "SweepResult",
    "Wakeup",
    "build_sweep",
    "new_run_id",
    "render_table",
    "run_job",
    "run_sweep",
    "with_priority",
]
