"""Shared plumbing: paths, statistics, operation accounting, child processes."""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
#: per-run working space (artifact caches, service dirs, shards, traces)
RUNS_DIR = ROOT / ".perfbench-runs"


class SpeedProbe:
    """Samples of a fixed reference kernel, taken between timed operations.

    The shared host this benchmark runs on changes speed by 15-25%
    within minutes, for every process alike: a pure-Python loop timed
    in 20-second windows spread 25% (IQR/median) from window to window.
    The ratio of the program's time to this kernel's time in the same
    window spread 2%.  So each run reports its times scaled to a host
    on which the kernel takes :data:`REFERENCE_S` (see
    :func:`host_factor`), and prints the raw times beside them.

    The kernel is benchmark code alone — a pure-Python loop and a numpy
    sort of a fixed 3 MB array — so no change to the program moves it.
    Samples are taken only while the run's own work is idle, so the
    program's load never slows the kernel.
    """

    #: kernel seconds on the reference host
    REFERENCE_S = 0.006

    def __init__(self):
        import numpy as np

        self._data = np.random.default_rng(0).integers(0, 1 << 30, 400_000)
        self.samples: List[float] = []

    def _kernel(self) -> int:
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        return acc + int(self._data.copy().sort() is None)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)


def host_factor(samples: Sequence[float]) -> float:
    """Scale from this run's seconds to reference-host seconds: the
    reference kernel time over the median kernel time of the run."""
    return SpeedProbe.REFERENCE_S / median(samples)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def own_peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among reaped descendants."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _signal_group(pgid: int, signum: int) -> bool:
    """Signal a process group; False once no process is left in it."""
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        return False
    return True


def _end_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill what is left of a reaped child's process group (orphaned
    grandchildren) and wait until the group is empty."""
    if not _signal_group(pgid, signal.SIGKILL):
        return
    deadline = time.monotonic() + timeout
    while _signal_group(pgid, 0) and time.monotonic() < deadline:
        time.sleep(0.02)


@dataclass
class Ops:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


@dataclass
class Result:
    """What a workload hands back to the runner."""

    #: end-to-end metric name -> value (tracing off)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: workload-specific breakdown (units in ``metrics.DETAIL_UNITS``),
    #: printed by name
    detail: Dict[str, float] = field(default_factory=dict)
    #: per-layer metric name -> value (traced run only)
    layers: Dict[str, float] = field(default_factory=dict)
    #: the traced run's merged spans
    spans: List[dict] = field(default_factory=list)
    ops: Ops = field(default_factory=Ops)
    #: end-to-end times scaled to the reference host (``SpeedProbe``)
    scaled: Tuple[str, ...] = ("setup_s", "pass_s", "op_ms", "op_p95_ms")


class RunContext:
    """One benchmark run: budget, private directories, children.

    Every artifact cache, service directory and trace the run touches
    lives under ``run_dir``; child processes get ``REPRO_CACHE_DIR``
    pointed there, so ``./.repro-cache`` is never read or written.
    Every child started through :meth:`popen` is killed and reaped by
    :meth:`close`, whatever path the run exits by.
    """

    def __init__(self, seconds: float, trace: bool):
        self.seconds = seconds
        self.trace = trace
        RUNS_DIR.mkdir(exist_ok=True)
        self.run_dir = RUNS_DIR / f"run-{os.getpid()}-{time.monotonic_ns()}"
        self.run_dir.mkdir()
        self._children: List[subprocess.Popen] = []
        self._counter = 0
        #: host-speed samples of the whole run, workers' included
        self.probe = SpeedProbe()

    def fresh_dir(self, stem: str) -> Path:
        self._counter += 1
        path = self.run_dir / f"{stem}{self._counter}"
        path.mkdir()
        return path

    def rel(self, path: Path) -> str:
        """``path`` relative to the checkout root (UNIX socket paths
        must stay short, and every child runs from the root)."""
        return os.path.relpath(path, ROOT)

    def popen(self, argv: Sequence[str], cache_dir: Path, **kwargs) -> subprocess.Popen:
        """Start a child with ``cache_dir`` as its artifact cache, in a
        process group of its own, so whatever it forks (the daemon's
        engine workers) can be stopped with it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["TMPDIR"] = str(self.run_dir)
        env.pop("REPRO_TIMELINES_DIR", None)
        proc = subprocess.Popen(
            list(argv), cwd=ROOT, env=env, start_new_session=True, **kwargs
        )
        self._children.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float = 30.0) -> int:
        """Wait for ``proc``, killing its group if it outlives ``timeout``;
        then make sure nothing it started is left running."""
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            _signal_group(proc.pid, signal.SIGKILL)
            code = proc.wait()
        _end_group(proc.pid)
        if proc in self._children:
            self._children.remove(proc)
        return code

    def reap_measured(self, proc: subprocess.Popen) -> tuple:
        """Wait for ``proc`` (whose output is already drained); returns
        its exit code and its own peak RSS in MB."""
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _end_group(proc.pid)
        self._children.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def close(self) -> None:
        for proc in list(self._children):
            if proc.poll() is None:
                _signal_group(proc.pid, signal.SIGTERM)
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    _signal_group(proc.pid, signal.SIGKILL)
                    proc.wait()
            _end_group(proc.pid)
            for stream in (proc.stdin, proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()
        self._children.clear()
        shutil.rmtree(self.run_dir, ignore_errors=True)


class Worker:
    """A ``perfbench/worker.py`` child speaking a line protocol.

    The child imports what its task needs, prints ``ready``, waits for
    ``go`` on stdin, does the work, writes one JSON line and exits.
    Spawning it up to ``ready`` is the set-up a workload times.
    """

    def __init__(self, ctx: RunContext, task: str, spec: dict, cache_dir: Path):
        self.ctx = ctx
        self.cache_dir = cache_dir
        spec_path = ctx.run_dir / f"spec-{task}-{time.monotonic_ns()}.json"
        spec_path.write_text(json.dumps(spec))
        self.proc = ctx.popen(
            [sys.executable, str(BENCH / "worker.py"), task, str(spec_path)],
            cache_dir,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().strip()
        if line != "ready":
            ctx.reap(self.proc, timeout=5)
            raise RuntimeError(f"worker {task} failed to start (said {line!r})")

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker closed its output")
        return json.loads(line)

    def run(self, timeout: float = 170.0) -> dict:
        """Start the work and wait for the result."""
        self.send("go")
        return self.finish(timeout)

    def finish(self, timeout: float = 170.0) -> dict:
        self.proc.stdin.close()
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        code = self.ctx.reap(self.proc, timeout=timeout)
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return json.loads(out.strip().splitlines()[-1])

    def stop(self) -> None:
        """Discard the worker: a closed stdin tells it to exit."""
        self.proc.stdin.close()
        self.ctx.reap(self.proc, timeout=10)
        self.proc.stdout.close()


def time_setups(make, count: int, probe: SpeedProbe):
    """Run the set-up ``count`` times; return (median seconds, last state).

    Earlier states are discarded through their ``stop()``.  Repeating
    it gives ``setup_s`` a median, so work moved into set-up shows.
    ``probe`` is sampled before each set-up.
    """
    times = []
    state = None
    for _ in range(count):
        if state is not None:
            state.stop()
        probe.sample(3)
        t0 = time.perf_counter()
        state = make()
        times.append(time.perf_counter() - t0)
    return median(times), state


def spans_path(ctx: RunContext, tag: str) -> Path:
    return ctx.run_dir / f"spans-{tag}-{time.monotonic_ns()}.json"
