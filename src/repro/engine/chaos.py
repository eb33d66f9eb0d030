"""Fault injection for the sweep engine.

A :class:`ChaosPlan` describes *deterministic* sabotage: which jobs it
hits (an ``fnmatch`` pattern over job ids), and how many attempts per
job it ruins (``hits``).  With ``hits <= max_retries`` every sabotaged
job still completes — each injection shows up as a ``JobRetry`` event —
and with ``hits > max_retries`` the job fails permanently, which is how
the checkpoint/resume tests interrupt a sweep mid-run.

Modes
-----

``kill-worker``
    The worker SIGKILLs itself before running the job — the hard-crash
    case (no exception, no exit handler, no message back).

``inject-exception``
    The worker raises :class:`ChaosError` before running the job.

``slow-job``
    The worker sleeps ``delay`` seconds before running the job; pair it
    with a small ``--timeout`` to exercise the supervisor's hang
    detection.

``corrupt-cache-entry``
    Supervisor-side: before the attempt launches, one persisted
    artifact-cache archive gets a byte flipped, proving the cache
    self-healing path (quarantine + rebuild) end to end.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, Optional

__all__ = ["CHAOS_MODES", "ChaosError", "ChaosPlan", "corrupt_one_cache_entry"]

CHAOS_MODES = (
    "kill-worker",
    "inject-exception",
    "slow-job",
    "corrupt-cache-entry",
)


class ChaosError(RuntimeError):
    """The injected failure for ``inject-exception`` mode."""


@dataclass
class ChaosPlan:
    """Deterministic sabotage schedule for one engine run."""

    mode: str
    hits: int = 1  # attempts per matching job to sabotage (1-based)
    match: str = "*"  # fnmatch pattern over job ids
    delay: float = 0.5  # sleep for slow-job mode
    #: per-job injection counts, for post-run assertions
    injected: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in CHAOS_MODES:
            raise ValueError(
                f"unknown chaos mode {self.mode!r}; known: {', '.join(CHAOS_MODES)}"
            )
        if self.hits < 1:
            raise ValueError("chaos hits must be >= 1")

    def applies(self, job_id: str, attempt: int) -> bool:
        """Sabotage this attempt?  (attempts are 1-based)"""
        return attempt <= self.hits and fnmatch(job_id, self.match)

    def record(self, job_id: str) -> None:
        self.injected[job_id] = self.injected.get(job_id, 0) + 1

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def worker_action(self) -> Optional[tuple]:
        """The (mode, arg) tuple shipped to the worker, or None for
        supervisor-side modes."""
        if self.mode == "corrupt-cache-entry":
            return None
        return (self.mode, self.delay)


def apply_in_worker(action: Optional[tuple]) -> None:
    """Execute a worker-side chaos action (called inside the child)."""
    if action is None:
        return
    mode, delay = action
    if mode == "kill-worker":
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "inject-exception":
        raise ChaosError("injected failure (chaos mode inject-exception)")
    elif mode == "slow-job":
        time.sleep(delay)


def corrupt_one_cache_entry(seed: int = 0) -> Optional[str]:
    """Flip one byte in one persisted artifact-cache archive.

    Returns the corrupted path (None when the cache is empty or
    disabled).  The choice of file and byte is a deterministic function
    of ``seed`` and the cache contents, so chaos runs replay exactly.
    """
    from repro.experiments.cachefiles import cache_dir

    cdir = cache_dir()
    if cdir is None or not cdir.is_dir():
        return None
    archives = sorted(cdir.glob("trace-*.npz")) + sorted(cdir.glob("sweeps-*.npz"))
    if not archives:
        return None
    target = archives[seed % len(archives)]
    data = bytearray(target.read_bytes())
    if not data:
        return None
    index = (seed * 2654435761 + len(data) // 2) % len(data)
    data[index] ^= 0xFF
    target.write_bytes(bytes(data))
    return str(target)
