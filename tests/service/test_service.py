"""The serve daemon end to end: sockets, tenants, warm hits, drain.

The daemon runs in a background thread with a ``selftest`` expansion
injected, so every service behavior — submission, dedupe, priorities,
quotas, cancel refcounts, drain, resume — is exercised over the real
UNIX socket without paying for trace generation.  Target syntax used
by the injected expansion: ``self:VALUE[:SLEEP]`` and ``fail:VALUE``.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.engine import EngineConfig, JobSpec
from repro.service import ServeDaemon, ServiceClient, ServiceError, TenantQuotas


def expand_selftest(targets):
    specs = []
    for target in targets:
        parts = target.split(":")
        kind, value = parts[0], int(parts[1])
        params = {"value": value}
        if len(parts) > 2:
            params["sleep"] = float(parts[2])
        if kind == "fail":
            params["fail"] = True
        specs.append(
            JobSpec(id=f"{kind}:{value}", kind="selftest", params=params)
        )
    return specs


class DaemonHarness:
    """One in-thread daemon on a throwaway service directory."""

    def __init__(self, tmp_path, **daemon_kwargs):
        daemon_kwargs.setdefault(
            "config", EngineConfig(max_workers=2, max_retries=0, backoff_base=0.01)
        )
        daemon_kwargs.setdefault("expand", expand_selftest)
        self.dir = tmp_path / "service"
        self.daemon = ServeDaemon(self.dir, **daemon_kwargs)
        self.exit_code = None
        self.thread = None

    def start(self, resume=False):
        def run():
            self.exit_code = self.daemon.serve(resume=resume)

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        deadline = time.monotonic() + 10
        while not self.daemon._serving.is_set():
            assert time.monotonic() < deadline, "daemon never started"
            time.sleep(0.01)
        return self

    def client(self):
        return ServiceClient(self.dir)

    def stop(self):
        if self.thread and self.thread.is_alive():
            try:
                with self.client() as c:
                    c.shutdown()
            except ServiceError:
                pass
            self.thread.join(timeout=15)
        assert not (self.thread and self.thread.is_alive()), "daemon hung"


@pytest.fixture
def harness(tmp_path):
    h = DaemonHarness(tmp_path).start()
    yield h
    h.stop()


class TestRoundTrip:
    def test_submit_wait_results(self, harness):
        with harness.client() as c:
            assert c.ping()["pending"] == 0
            reply = c.submit(["self:3", "self:4"], tenant="alice", priority=5)
            assert reply["job"] == "j0001"
            assert reply["specs"] == ["self:3", "self:4"]
            assert c.wait("j0001") == "done"
            record = c.status("j0001")["job"]
            assert record["state"] == "done"
            assert record["tenant"] == "alice"
            assert record["priority"] == 5
            payloads = c.results("j0001")["payloads"]
            assert payloads["self:3"] == {"value": 3, "square": 9}
            assert payloads["self:4"] == {"value": 4, "square": 16}

    def test_failed_spec_fails_the_job(self, harness):
        with harness.client() as c:
            job = c.submit(["fail:1", "self:2"])["job"]
            assert c.wait(job) == "failed"
            record = c.status(job)["job"]
            assert "fail:1" in record["error"]
            with pytest.raises(ServiceError, match="failed"):
                c.results(job)

    def test_unknown_job_and_op_errors(self, harness):
        with harness.client() as c:
            with pytest.raises(ServiceError, match="unknown job"):
                c.status("j9999")
            with pytest.raises(ServiceError, match="unknown job"):
                c.results("nope")

    def test_watch_streams_lifecycle_then_done(self, harness):
        with harness.client() as c:
            job = c.submit(["self:6:0.3"])["job"]
            frames = list(c.watch(job))
        assert frames[-1] == {"done": True, "state": "done"}
        kinds = [f["event"]["kind"] for f in frames if "event" in f]
        assert "job_done" in kinds
        assert all(f["event"]["job"] == "self:6" for f in frames if "event" in f)


class TestSharedSpecs:
    def test_second_tenant_gets_warm_hit(self, harness):
        with harness.client() as c:
            first = c.submit(["self:9"], tenant="alice")["job"]
            assert c.wait(first) == "done"
            reply = c.submit(["self:9"], tenant="bob")
            assert reply["warm"] == ["self:9"]
            assert c.wait(reply["job"]) == "done"
            record = c.status(reply["job"])["job"]
            # attempts 0: replayed from the scheduler, no worker ran
            assert record["spec_states"]["self:9"]["attempts"] == 0
            # byte-identical payload, same underlying result object
            assert (
                c.results(reply["job"])["payloads"]["self:9"]
                == c.results(first)["payloads"]["self:9"]
            )

    def test_cancel_keeps_specs_other_jobs_need(self, harness):
        with harness.client() as c:
            a = c.submit(["self:7:0.5", "self:8:0.5"])["job"]
            b = c.submit(["self:7:0.5"])["job"]
            reply = c.cancel(a)
            assert reply["state"] == "cancelled"
            # self:7 is shared with b: only self:8 may be stopped
            assert "self:7" not in reply["cancelled"]
            assert c.wait(b) == "done"
            assert c.status(a)["job"]["state"] == "cancelled"

    def test_cancel_settled_job_is_a_noop(self, harness):
        with harness.client() as c:
            job = c.submit(["self:5"])["job"]
            assert c.wait(job) == "done"
            reply = c.cancel(job)
            assert reply["state"] == "done"
            assert reply["cancelled"] == []


class TestWatchWakeup:
    """Watchers wake on settlement, not on the liveness poll: with the
    poll stretched to 30 s, every wait below must still return at once
    (the regression: a job that settled before its watcher subscribed
    always waited out one full poll)."""

    @pytest.fixture
    def slow_poll(self, monkeypatch, tmp_path):
        from repro.service import daemon as daemon_mod

        monkeypatch.setattr(daemon_mod, "_POLL", 30.0)
        h = DaemonHarness(tmp_path).start()
        yield h
        h.stop()

    def test_warm_resubmission_returns_at_once(self, slow_poll):
        with slow_poll.client() as c:
            first = c.submit(["self:9"])["job"]
            assert c.wait(first) == "done"
            reply = c.submit(["self:9"])
            assert reply["warm"] == ["self:9"]
            start = time.monotonic()
            assert c.wait(reply["job"]) == "done"
            assert time.monotonic() - start < 1.0

    def test_running_job_streams_its_settling_event_then_done(self, slow_poll):
        with slow_poll.client() as c:
            job = c.submit(["self:4:0.2"])["job"]
            start = time.monotonic()
            frames = list(c.watch(job))
            assert time.monotonic() - start < 5.0
        assert frames[-1] == {"done": True, "state": "done"}
        assert "job_done" in [f["event"]["kind"] for f in frames if "event" in f]

    def test_cancel_wakes_its_watcher(self, slow_poll):
        with slow_poll.client() as watching, slow_poll.client() as c:
            job = c.submit(["self:3:5"])["job"]
            result = {}

            def wait():
                result["state"] = watching.wait(job)

            waiter = threading.Thread(target=wait)
            waiter.start()
            time.sleep(0.2)  # let the watch subscribe
            start = time.monotonic()
            c.cancel(job)
            waiter.join(timeout=5)
            assert not waiter.is_alive()
            assert result["state"] == "cancelled"
            assert time.monotonic() - start < 1.0


class TestQuotas:
    def test_warm_spec_submission_survives_cache_lookup(self, tmp_path):
        """Regression: warm-kind specs hit the artifact-cache metering
        path at submit time; the lookup must not blow up the handler
        even when the cache is cold or disabled.  The engine is not
        started — admission alone is what broke."""

        def expand_warm(targets):
            return [
                JobSpec(
                    id=f"warm:{t.lower()}",
                    kind="warm",
                    params={"workload": t, "with_locks": False},
                )
                for t in targets
            ]

        daemon = ServeDaemon(tmp_path / "service", expand=expand_warm)
        daemon.start()
        try:
            reply = daemon.submit("alice", 0, ["FIELD"])
            assert reply["specs"] == ["warm:field"]
            assert len(daemon._intake) == 1
        finally:
            daemon.queue.close()

    def test_admission_denied_over_quota(self, tmp_path):
        quotas = TenantQuotas({"broke": 0})
        h = DaemonHarness(tmp_path, quotas=quotas).start()
        try:
            with h.client() as c:
                with pytest.raises(ServiceError, match="over quota"):
                    c.submit(["self:1"], tenant="broke")
                rich = c.submit(["self:1"], tenant="rich")["job"]
                assert c.wait(rich) == "done"
                tenants = c.status()["tenants"]
                assert tenants["broke"]["limit_bytes"] == 0
        finally:
            h.stop()


class TestDrainAndResume:
    def test_drain_keeps_queued_jobs_for_resume(self, tmp_path):
        h = DaemonHarness(
            tmp_path,
            config=EngineConfig(max_workers=1, max_retries=0, backoff_base=0.01),
        ).start()
        with h.client() as c:
            # One worker: the sleeper is in flight, the rest queue up.
            job = c.submit(["self:1:0.4", "self:2"])["job"]
            time.sleep(0.15)
            c.shutdown()
        h.thread.join(timeout=15)
        assert h.exit_code == 0  # clean shutdown op, not a signal

        journal = (h.dir / "queue.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in journal]
        assert any(r["kind"] == "submit" for r in records)
        # The job never settled: no terminal state in the journal.
        terminal = [
            r
            for r in records
            if r["kind"] == "job-state"
            and r["state"] in ("done", "failed", "cancelled")
        ]
        assert terminal == []

        # Restart the daemon on the same directory and resume.
        h2 = DaemonHarness(tmp_path).start(resume=True)
        try:
            with h2.client() as c:
                assert c.wait(job) == "done"
                record = c.status(job)["job"]
                # the spec that finished before the drain replays from
                # the engine ledger without re-running
                assert record["spec_states"]["self:1"]["attempts"] == 0
                payloads = c.results(job)["payloads"]
                assert payloads["self:2"] == {"value": 2, "square": 4}
        finally:
            h2.stop()

    def test_restart_without_resume_refuses(self, tmp_path):
        h = DaemonHarness(tmp_path).start()
        with h.client() as c:
            c.submit(["self:1"])
            c.shutdown()
        h.thread.join(timeout=15)
        h2 = DaemonHarness(tmp_path)
        with pytest.raises(RuntimeError, match="--resume"):
            h2.daemon.serve()

    def test_second_daemon_on_live_socket_refuses(self, tmp_path, harness):
        other = ServeDaemon(harness.dir, expand=expand_selftest)
        with pytest.raises(RuntimeError, match="already serving|--resume"):
            other.serve(resume=True)

    def test_submissions_refused_while_draining(self, harness):
        with harness.client() as c:
            c.submit(["self:1:1.0"])
            c.shutdown()
            with pytest.raises(ServiceError, match="draining"):
                c.submit(["self:2"])


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_143(self, tmp_path):
        """SIGTERM to a real daemon process: in-flight attempts drain,
        the queue journal survives, the process exits 128+15."""
        script = textwrap.dedent(
            """
            import sys
            sys.path.insert(0, sys.argv[1])
            sys.path.insert(0, sys.argv[2])
            from repro.engine import EngineConfig
            from repro.service import ServeDaemon
            from tests.service.test_service import expand_selftest

            daemon = ServeDaemon(
                sys.argv[3],
                config=EngineConfig(max_workers=1, max_retries=0),
                expand=expand_selftest,
            )
            code = daemon.serve(announce=lambda m: print(m, flush=True))
            sys.exit(code)
            """
        )
        here = os.path.dirname(__file__)
        src = os.path.join(here, "..", "..", "src")
        root = os.path.join(here, "..", "..")
        service_dir = tmp_path / "service"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, src, root, str(service_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert "serving on" in proc.stdout.readline()
            with ServiceClient(service_dir) as c:
                job = c.submit(["self:1:0.5", "self:2:0.5"])["job"]
                time.sleep(0.2)  # first spec in flight
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=20)
            assert proc.returncode == 143
            # the journal survived with the job still pending
            records = [
                json.loads(line)
                for line in (service_dir / "queue.jsonl").read_text().splitlines()
            ]
            assert any(
                r["kind"] == "submit" and r["job"] == job for r in records
            )
            assert not any(
                r["kind"] == "job-state" and r["state"] == "done"
                for r in records
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
