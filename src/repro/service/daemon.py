"""The ``repro serve`` daemon: a persistent sweep service.

One process, three kinds of threads:

* the **main thread** runs the supervised engine in serving mode
  (:meth:`repro.engine.Engine.run` with ``intake``/``cancels``/
  ``stop``/``wakeup``), so worker forking and signal handling stay
  where POSIX wants them;
* a **listener thread** accepts UNIX-socket connections;
* one **handler thread** per connection speaks the NDJSON protocol
  (:mod:`repro.service.protocol`).

Handlers never touch the engine directly: submissions and
cancellations go through thread-safe queues the engine loop drains,
and a :class:`~repro.obs.BroadcastSink` on the engine's tracer fans
lifecycle events out to an always-on JSONL log and every live
``watch`` subscription; the daemon's settlement bookkeeping sees each
event right after them and wakes the settled job's watchers.

Engine spec ids are *global*: two tenants submitting overlapping
targets share the underlying jobs, and a spec that already completed
replays instantly (a scheduler-level warm-cache hit — ``status``
shows ``attempts: 0`` for every spec the submission got for free).

Shutdown: SIGTERM (or the ``shutdown`` op) requests a drain — no new
launches, in-flight attempts finish, queued jobs stay journaled — and
the daemon exits 143 (clean ``shutdown``: 0).  SIGINT aborts like any
engine run: workers are killed and the interrupt is recorded.  Either
way ``repro serve --resume`` picks the queue back up exactly.
"""

from __future__ import annotations

import os
import queue as queue_mod
import signal
import socket
import threading
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.engine.jobs import JobSpec
from repro.engine.ledger import LedgerState, RunLedger
from repro.engine.supervisor import Engine, EngineConfig, Wakeup, with_priority
from repro.engine.sweeps import build_sweep
from repro.obs import Tracer
from repro.obs.events import JobDone, JobFail, JobStart
from repro.obs.sinks import BroadcastSink, JsonlSink, QueueSink, Sink
from repro.service.protocol import (
    ProtocolError,
    recv_message,
    send_message,
    socket_path,
)
from repro.service.queue import JobQueue, ServiceJob
from repro.service.quota import TenantQuotas

__all__ = ["ServeDaemon"]

#: how often a watching handler re-checks that the engine loop is still
#: running (seconds); settlement itself wakes watchers at once
_POLL = 0.25

#: queued on a job's watch sinks when the job settles (or the engine
#: loop ends), after any event that settled it
_WAKE = object()


def _default_expand(targets: Sequence[str]) -> List[JobSpec]:
    """Targets -> engine specs, exactly as ``repro run`` would."""
    return build_sweep(list(targets))


def _cache_entry_exists(key: str) -> bool:
    try:
        from repro.experiments.runner import cache_entry_exists

        return cache_entry_exists(key)
    except Exception:
        return False  # cache disabled: nothing is pre-paid


class _SettlementSink(Sink):
    """Engine lifecycle events -> service-job state transitions."""

    def __init__(self, daemon: "ServeDaemon"):
        self._daemon = daemon

    def handle(self, event) -> None:
        if isinstance(event, JobStart):
            self._daemon._on_spec_start(event.job)
        elif isinstance(event, JobDone):
            self._daemon._on_spec_settled(event.job, "done", None, event.attempts)
        elif isinstance(event, JobFail):
            self._daemon._on_spec_settled(
                event.job, "failed", event.error, event.attempts
            )


class _ServiceLedger(RunLedger):
    """The engine ledger, with payloads mirrored into the daemon."""

    def __init__(self, path, daemon: "ServeDaemon"):
        super().__init__(path)
        self._daemon = daemon

    def job_done(self, job, fingerprint, attempts, payload) -> None:
        super().job_done(job, fingerprint, attempts, payload)
        with self._daemon._lock:
            self._daemon.payloads[job] = payload


class ServeDaemon:
    """The service: queue + quotas + engine + socket front end.

    ``expand`` is the seam between submissions and engine specs: it
    maps a target list to :class:`JobSpec` objects (default: the
    ``repro run`` sweep builder).  Tests inject a cheap ``selftest``
    expansion so service behavior is exercised without real traces.
    """

    def __init__(
        self,
        service_dir: Union[str, Path],
        config: Optional[EngineConfig] = None,
        quotas: Optional[TenantQuotas] = None,
        expand: Optional[Callable[[Sequence[str]], List[JobSpec]]] = None,
    ):
        self.dir = Path(service_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.sock_path = socket_path(self.dir)
        self.config = config or EngineConfig(max_workers=2)
        # the daemon drains on SIGTERM itself; the engine must not
        # hijack the signal into an abort
        self.config.install_sigterm = False
        self.quotas = quotas or TenantQuotas()
        self.expand = expand or _default_expand

        self._lock = threading.RLock()
        self._intake: "deque[JobSpec]" = deque()
        self._cancels: "deque[str]" = deque()
        self._stop = False
        self._term_signal: Optional[str] = None
        self._serving = threading.Event()  # listener is accepting
        self._finished = threading.Event()  # engine loop has returned
        self.wakeup = Wakeup()
        self.broadcast = BroadcastSink()

        self.queue: Optional[JobQueue] = None
        #: spec id -> the JobSpec as (first) submitted
        self.specs: Dict[str, JobSpec] = {}
        #: spec id -> tenant whose submission first introduced it
        self.spec_owner: Dict[str, str] = {}
        #: spec id -> {"state", "error", "attempts"}
        self.spec_states: Dict[str, dict] = {}
        #: spec id -> settled payload (engine-ledger mirror)
        self.payloads: Dict[str, dict] = {}
        self._resume_state: Optional[LedgerState] = None
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        #: job id -> the sinks of its live ``watch`` connections
        self._watchers: Dict[str, List[QueueSink]] = {}

    # -- startup / resume ------------------------------------------------------

    def start(self, resume: bool = False) -> None:
        """Load (or create) the queue journal and re-enqueue survivors."""
        journal_path = self.dir / "queue.jsonl"
        existing = journal_path.exists() and journal_path.stat().st_size > 0
        if existing and not resume:
            raise RuntimeError(
                f"{journal_path} already has a queue; start with --resume "
                "to pick it up (or remove the service directory)"
            )
        if resume and existing:
            self.queue, charges = JobQueue.resume(journal_path)
            for record in charges:
                self.quotas.charge(
                    record.get("tenant") or "default",
                    record.get("key", ""),
                    int(record.get("bytes", 0)),
                )
            self._resume_state = LedgerState.load(self.dir / "ledger.jsonl")
            self.payloads.update(
                {
                    job: payload
                    for job, (_fp, payload) in self._resume_state.completed.items()
                }
            )
            for job in self.queue.pending():
                self._enqueue_specs(job, announce=False)
        else:
            self.queue = JobQueue(journal_path)

    def _enqueue_specs(self, job: ServiceJob, announce: bool = True) -> None:
        """Expand a job's targets and hand the specs to the engine.

        Used both for fresh submissions and for journal-resumed jobs;
        for the latter, specs whose checkpoint fingerprint still
        matches settle instantly inside the engine.
        """
        specs = [with_priority(s, job.priority) for s in self.expand(job.targets)]
        for spec in specs:
            self.specs.setdefault(spec.id, spec)
            self.spec_owner.setdefault(spec.id, job.tenant)
            state = self.spec_states.get(spec.id)
            if state is not None and state["state"] == "failed":
                # the engine gives failed ids a fresh chance; so do we
                del self.spec_states[spec.id]
            elif state is not None and state["state"] == "done":
                # a warm hit settles this job now, before the engine
                # replays the spec (with no attempt): report it as such
                state["attempts"] = 0
            if (
                self._resume_state is not None
                and spec.id not in self.spec_states
                and self._resume_state.payload_for(spec.id, spec.fingerprint())
                is not None
            ):
                self.spec_states[spec.id] = {
                    "state": "done",
                    "error": None,
                    "attempts": 0,
                }
            self._intake.append(spec)
        self._recompute_job(job)
        self.wakeup.set()

    # -- submission / cancellation (handler threads) ---------------------------

    def submit(self, tenant: str, priority: int, targets: List[str]) -> dict:
        with self._lock:
            if self._stop:
                raise RuntimeError("daemon is draining; submission refused")
            self.quotas.check_admission(tenant)
            try:
                expanded = self.expand(targets)
            except ValueError as err:
                raise RuntimeError(str(err)) from None
            if not expanded:
                raise RuntimeError("submission expanded to no jobs")
            # cache entries that already exist are free for everyone
            for spec in expanded:
                key = self._cache_key_for(spec)
                if key is not None and _cache_entry_exists(key):
                    self.quotas.mark_free(key)
            job = self.queue.submit(
                tenant, priority, targets, tuple(s.id for s in expanded)
            )
            self._enqueue_specs(job)
            warm_hits = [
                s.id
                for s in expanded
                if self.spec_states.get(s.id, {}).get("state") == "done"
            ]
            return {"job": job.id, "specs": list(job.specs), "warm": warm_hits}

    def cancel(self, job_id: str) -> dict:
        with self._lock:
            job = (self.queue.jobs if self.queue else {}).get(job_id)
            if job is None:
                raise RuntimeError(f"unknown job {job_id!r}")
            if job.settled:
                return {"job": job.id, "state": job.state, "cancelled": []}
            self._settle(job, "cancelled", "cancelled by client")
            to_cancel = []
            for spec_id in job.specs:
                state = self.spec_states.get(spec_id)
                if state is not None and state["state"] == "done":
                    continue  # already settled; nothing to stop
                if self.queue.spec_refs(spec_id):
                    continue  # another live job still needs it
                to_cancel.append(spec_id)
            self._cancels.extend(to_cancel)
            self.wakeup.set()
            return {"job": job.id, "state": job.state, "cancelled": to_cancel}

    def request_shutdown(self) -> None:
        with self._lock:
            self._stop = True
        self.wakeup.set()

    # -- settlement (engine thread, via the settlement sink) -------------------

    def _on_spec_start(self, spec_id: str) -> None:
        with self._lock:
            self.spec_states[spec_id] = {
                "state": "running",
                "error": None,
                "attempts": self.spec_states.get(spec_id, {}).get("attempts", 0),
            }
            for job in self.queue.spec_refs(spec_id):
                if job.state == "queued":
                    self.queue.set_state(job, "running")

    def _on_spec_settled(
        self, spec_id: str, state: str, error: Optional[str], attempts: int
    ) -> None:
        with self._lock:
            self.spec_states[spec_id] = {
                "state": state,
                "error": error,
                "attempts": attempts,
            }
            if state == "done":
                self._charge_for(spec_id)
            for job in self.queue.spec_refs(spec_id):
                self._recompute_job(job)

    def _recompute_job(self, job: ServiceJob) -> None:
        if job.settled:
            return
        states = [self.spec_states.get(s) for s in job.specs]
        if any(s is None or s["state"] in ("queued", "running") for s in states):
            return
        failed = [
            (spec_id, s["error"])
            for spec_id, s in zip(job.specs, states)
            if s["state"] == "failed"
        ]
        if failed:
            spec_id, error = failed[0]
            self._settle(job, "failed", f"{spec_id}: {error}")
        else:
            self._settle(job, "done")

    def _settle(self, job: ServiceJob, state: str, error: Optional[str] = None) -> None:
        """Record a final state and wake the job's watchers."""
        self.queue.set_state(job, state, error)
        self._wake_watchers(job.id)

    def _wake_watchers(self, job_id: Optional[str] = None) -> None:
        """Wake the watchers of ``job_id`` (every watcher when None)."""
        with self._lock:
            if job_id is None:
                sinks = [s for group in self._watchers.values() for s in group]
            else:
                sinks = list(self._watchers.get(job_id, ()))
        for sink in sinks:
            sink.handle(_WAKE)

    # -- quotas ----------------------------------------------------------------

    def _cache_key_for(self, spec: JobSpec) -> Optional[str]:
        if spec.kind != "warm":
            return None
        try:
            from repro.experiments.runner import cache_entry_key

            return cache_entry_key(
                str(spec.params["workload"]),
                with_locks=bool(spec.params.get("with_locks", False)),
            )
        except Exception:
            return None  # cache disabled or unknown workload: nothing to meter

    def _charge_for(self, spec_id: str) -> None:
        spec = self.specs.get(spec_id)
        if spec is None:
            return
        key = self._cache_key_for(spec)
        if key is None:
            return
        from repro.experiments.runner import cache_entry_bytes

        tenant = self.spec_owner.get(spec_id, "default")
        nbytes = cache_entry_bytes(key)
        if self.quotas.charge(tenant, key, nbytes):
            self.queue.record_charge(tenant, key, nbytes)

    # -- status / results (handler threads) ------------------------------------

    def job_record(self, job: ServiceJob) -> dict:
        with self._lock:
            record = job.to_dict()
            record["spec_states"] = {
                spec_id: dict(
                    self.spec_states.get(
                        spec_id,
                        {"state": "queued", "error": None, "attempts": 0},
                    )
                )
                for spec_id in job.specs
            }
            return record

    def status(self, job_id: Optional[str] = None) -> dict:
        with self._lock:
            if job_id is not None:
                job = self.queue.jobs.get(job_id)
                if job is None:
                    raise RuntimeError(f"unknown job {job_id!r}")
                return {"job": self.job_record(job)}
            return {
                "jobs": [
                    self.job_record(j) for j in self.queue.jobs.values()
                ],
                "tenants": self.quotas.snapshot(),
                "draining": self._stop,
            }

    def results(self, job_id: str) -> dict:
        with self._lock:
            job = self.queue.jobs.get(job_id)
            if job is None:
                raise RuntimeError(f"unknown job {job_id!r}")
            if not job.settled:
                raise RuntimeError(f"job {job_id} is {job.state}; not settled")
            if job.state != "done":
                raise RuntimeError(
                    f"job {job_id} {job.state}: {job.error or 'no results'}"
                )
            missing = [s for s in job.specs if s not in self.payloads]
            if missing:
                raise RuntimeError(
                    f"job {job_id} payloads missing for: {', '.join(missing)}"
                )
            return {
                "job": job.id,
                "payloads": {s: self.payloads[s] for s in job.specs},
            }

    # -- the socket front end --------------------------------------------------

    def _handle_connection(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        try:
            while True:
                try:
                    request = recv_message(reader)
                except ProtocolError as err:
                    send_message(conn, {"ok": False, "error": str(err)})
                    return
                if request is None:
                    return
                op = request.get("op")
                try:
                    if op == "ping":
                        with self._lock:
                            reply = {
                                "pid": os.getpid(),
                                "jobs": len(self.queue.jobs),
                                "pending": len(self.queue.pending()),
                            }
                    elif op == "submit":
                        reply = self.submit(
                            str(request.get("tenant") or "default"),
                            int(request.get("priority") or 0),
                            [str(t) for t in request.get("targets", [])],
                        )
                    elif op == "status":
                        reply = self.status(request.get("job"))
                    elif op == "results":
                        reply = self.results(str(request.get("job")))
                    elif op == "cancel":
                        reply = self.cancel(str(request.get("job")))
                    elif op == "shutdown":
                        self.request_shutdown()
                        reply = {"draining": True}
                    elif op == "watch":
                        self._handle_watch(conn, str(request.get("job")))
                        continue
                    else:
                        raise RuntimeError(f"unknown op {op!r}")
                except Exception as err:
                    # report everything: a half-dead connection is worse
                    # for the client than an ugly error string
                    send_message(conn, {"ok": False, "error": str(err)})
                    continue
                reply["ok"] = True
                send_message(conn, reply)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; nothing to clean up but the socket
        finally:
            reader.close()
            conn.close()

    def _handle_watch(self, conn: socket.socket, job_id: str) -> None:
        """Stream the job's engine events until it settles.

        Settlement is checked before every wait, so a job that settled
        before this watch subscribed (a warm resubmission) is reported
        at once; a job settling later wakes the wait through its sink.
        Events queue ahead of the wake-up that follows them (settlement
        runs after the broadcast), so the settling event is always
        streamed before ``done``.
        """
        with self._lock:
            job = self.queue.jobs.get(job_id)
        if job is None:
            send_message(conn, {"ok": False, "error": f"unknown job {job_id!r}"})
            return
        sink = QueueSink(maxsize=4096)
        with self._lock:
            self._watchers.setdefault(job.id, []).append(sink)
        self.broadcast.subscribe(sink)
        try:
            send_message(conn, {"ok": True, "watching": job.id})
            event = None
            while True:
                if getattr(event, "job", None) in job.specs:
                    send_message(conn, {"event": event.to_dict()})
                try:
                    event = sink.queue.get_nowait()
                    continue  # stream everything queued first
                except queue_mod.Empty:
                    pass
                with self._lock:
                    settled, state = job.settled, job.state
                if settled:
                    send_message(conn, {"done": True, "state": state})
                    return
                if self._finished.is_set():
                    send_message(conn, {"done": False, "state": state})
                    return
                try:
                    event = sink.queue.get(timeout=_POLL)
                except queue_mod.Empty:
                    event = None
        finally:
            self.broadcast.unsubscribe(sink)
            with self._lock:
                watchers = self._watchers.get(job.id, [])
                if sink in watchers:
                    watchers.remove(sink)
                if not watchers:
                    self._watchers.pop(job.id, None)

    def _listen(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    # -- the main loop ---------------------------------------------------------

    def _drain_intake(self) -> List[JobSpec]:
        specs = []
        while True:
            try:
                specs.append(self._intake.popleft())
            except IndexError:
                return specs

    def _drain_cancels(self) -> List[str]:
        ids = []
        while True:
            try:
                ids.append(self._cancels.popleft())
            except IndexError:
                return ids

    def serve(
        self,
        resume: bool = False,
        announce: Optional[Callable[[str], None]] = None,
    ) -> int:
        """Run until drained; returns the process exit code."""
        say = announce or (lambda _msg: None)
        self.start(resume)
        if self.sock_path.exists():
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(str(self.sock_path))
            except OSError:
                self.sock_path.unlink()  # stale socket from a dead daemon
            else:
                probe.close()
                raise RuntimeError(
                    f"another daemon is already serving on {self.sock_path}"
                )
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(str(self.sock_path))
        self._listener.listen()

        events_sink = JsonlSink(self.dir / "events.jsonl", append=True)
        self.broadcast.subscribe(events_sink)
        # Settlement sees each event after every broadcast subscriber,
        # so a watcher has the event that settles its job queued before
        # the wake-up that reports the settlement.
        tracer = Tracer(BroadcastSink(self.broadcast, _SettlementSink(self)))
        ledger = _ServiceLedger(self.dir / "ledger.jsonl", self)
        engine = Engine(self.config, tracer=tracer, ledger=ledger)
        self.engine = engine

        previous_term = None
        term_installable = (
            threading.current_thread() is threading.main_thread()
        )
        if term_installable:

            def _on_sigterm(_signum, _frame):
                self._term_signal = "SIGTERM"
                self.request_shutdown()

            previous_term = signal.signal(signal.SIGTERM, _on_sigterm)

        listener_thread = threading.Thread(target=self._listen, daemon=True)
        listener_thread.start()
        self._serving.set()
        resumed = f" ({len(self.queue.pending())} job(s) resumed)" if resume else ""
        say(f"serving on {self.sock_path}{resumed}")
        try:
            engine.run(
                [],
                resume=self._resume_state,
                intake=self._drain_intake,
                cancels=self._drain_cancels,
                stop=lambda: self._stop,
                wakeup=self.wakeup,
            )
        finally:
            self._finished.set()
            self._wake_watchers()
            try:
                self._listener.close()
            except OSError:
                pass
            self.sock_path.unlink(missing_ok=True)
            tracer.close()
            ledger.close()
            if self.queue is not None:
                self.queue.close()
            self.wakeup.close()
            if term_installable:
                signal.signal(
                    signal.SIGTERM,
                    signal.SIG_DFL if previous_term is None else previous_term,
                )
        say("drained; exiting")
        return 143 if self._term_signal else 0
