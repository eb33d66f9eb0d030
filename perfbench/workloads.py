"""The four workloads.

Each takes a :class:`~perfbench.common.RunContext` and its seeded
inputs and returns a :class:`~perfbench.common.Result`: the end-to-end
metrics (tracing off), the workload-specific breakdown, the per-layer
metrics (traced run) and the operations attempted and failed.

With tracing on, a workload makes one untraced pass and one traced
pass; the difference of their ``pass_s`` is the tracing overhead.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from perfbench.common import (
    Ops,
    Result,
    RunContext,
    Worker,
    children_peak_rss_mb,
    host_factor,
    median,
    percentile,
    spans_path,
    time_setups,
)
from perfbench.gates import golden_tables, service_job_failures, table_failures
from perfbench.metrics import per_layer_values
from perfbench.spans import Tracer, load_dump

BENCH_DIR = Path(__file__).resolve().parent


def _latency_metrics(result: Result, seconds: List[float]) -> None:
    result.metrics["op_ms"] = median(seconds) * 1e3
    result.metrics["op_p95_ms"] = percentile(seconds, 95) * 1e3


def _pass_metrics(result: Result, walls: List[float], kernels: List[float],
                  latencies: List[tuple]) -> None:
    """``pass_s`` and the ``op_*`` latencies from repeated passes.  Each
    pass wall is scaled by the median reference-kernel time ``kernels``
    sampled during that pass, and each ``(seconds, kernel)`` latency by
    the kernel samples nearest it, rather than by the run's median,
    since the host's speed drifts within a run; the unscaled figures go
    to the detail lines."""
    result.metrics["pass_s"] = median([w * host_factor([k]) for w, k in zip(walls, kernels)])
    _latency_metrics(result, [s * host_factor([k]) for s, k in latencies])
    raw = [s for s, _kernel in latencies]
    result.detail["raw_pass_s"] = median(walls)
    result.detail["raw_op_ms"] = median(raw) * 1e3
    result.detail["raw_op_p95_ms"] = percentile(raw, 95) * 1e3
    result.scaled = ("setup_s",)


# -- paper-tables -------------------------------------------------------------------


def _table_key(args: List[str]) -> str:
    return args[0] if len(args) == 1 else f"2-{args[2]}"


def _warm_render(ctx: RunContext, cache_dir: Path, args: List[str], goldens, ops: Ops,
                 tracer: Tracer) -> tuple:
    """One render as a fresh CLI process; returns its wall time and its
    peak RSS."""
    label = " ".join(args)
    if tracer.enabled:
        path = spans_path(ctx, "cli")
        argv = [sys.executable, str(BENCH_DIR / "worker.py"), "cli", str(path), "table", *args]
    else:
        argv = [sys.executable, "-m", "repro", "table", *args]
    with tracer.span(f"table {label}", "request", request=f"warm {label}") as span_id:
        start = time.perf_counter()
        proc = ctx.popen(argv, cache_dir, stdout=subprocess.PIPE, text=True)
        printed = proc.stdout.read()
        proc.stdout.close()
        code, rss_mb = ctx.reap_measured(proc)
        seconds = time.perf_counter() - start
    if tracer.enabled:
        tracer.adopt(load_dump(path), parent=span_id)
    ok = code == 0 and not table_failures(args[0], printed, goldens)
    ops.check(ok, f"warm table {label} exited {code} or differs from the golden file")
    return seconds, rss_mb


def _tables_pass(ctx: RunContext, worker: Worker, renders, goldens, ops: Ops,
                 tracer: Tracer, deadline: float) -> dict:
    """Each render cold in ``worker`` (its cache starts empty), then at
    once as a fresh CLI process over the cache the cold render filled.
    Then rounds of the six warm renders, alternately in reverse and in
    seeded order: at least one, and more while one more is expected to
    end before ``deadline``.  Every render has as many warm samples as
    the others, spread over the whole pass."""
    cold: Dict[str, float] = {}
    warm: Dict[str, List[float]] = {_table_key(args): [] for args in renders}
    warm_rss = []

    def warm_render(args) -> None:
        seconds, rss_mb = _warm_render(ctx, worker.cache_dir, args, goldens, ops, tracer)
        warm[_table_key(args)].append(seconds)
        warm_rss.append(rss_mb)
        ctx.probe.sample(3)

    t0 = time.perf_counter()
    worker.send("go")
    for index, args in enumerate(renders):
        worker.send(str(index))
        reply = worker.reply()
        ok = not table_failures(args[0], reply["text"], goldens)
        ops.check(ok, f"cold table {' '.join(args)} differs from the golden file")
        cold[_table_key(args)] = reply["seconds"]
        ctx.probe.sample(3)
        warm_render(args)
    worker.send("done")
    final = worker.finish()
    order = list(reversed(renders))
    while True:
        start = time.perf_counter()
        for args in order:
            warm_render(args)
        order.reverse()
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    wall = time.perf_counter() - t0
    if tracer.enabled:
        tracer.adopt(load_dump(worker.spans))
    return {"cold": cold, "warm": warm, "wall": wall, "cold_rss_mb": final["rss_mb"],
            "warm_rss_mb": max(warm_rss)}


def paper_tables(ctx: RunContext, inputs: dict) -> Result:
    goldens = golden_tables()
    renders = inputs["renders"]
    result = Result()

    def make(trace: bool = False) -> Worker:
        path = spans_path(ctx, "tables")
        spec = {"renders": renders, "trace": trace, "spans": str(path)}
        worker = Worker(ctx, "tables", spec, ctx.fresh_dir("cache"))
        worker.spans = path
        return worker

    setup_s, worker = time_setups(make, 1 if ctx.trace else 3, ctx.probe)
    # with tracing on: one untraced and one traced pass of two rounds each
    deadline = time.perf_counter() + (0.0 if ctx.trace else ctx.seconds)
    untraced = Tracer(enabled=False)
    one = _tables_pass(ctx, worker, renders, goldens, result.ops, untraced, deadline)

    if ctx.trace:
        tracer = Tracer()
        traced = _tables_pass(ctx, make(trace=True), renders, goldens, result.ops, tracer, 0.0)
        result.spans = tracer.spans
        result.layers = per_layer_values(
            tracer.spans, tracer.counts, {"tracing.overhead_s": traced["wall"] - one["wall"]}
        )
        return result

    # per render, the median of its warm samples; the six renders cost
    # different amounts, so a median of all samples would fall in the
    # gap between two of them
    warm = {key: median(samples) for key, samples in one["warm"].items()}
    result.metrics["setup_s"] = setup_s
    result.metrics["pass_s"] = sum(one["cold"].values())
    result.metrics["op_ms"] = sum(warm.values()) / len(warm) * 1e3
    result.metrics["op_p95_ms"] = percentile(
        [s for samples in one["warm"].values() for s in samples], 95
    ) * 1e3
    # the cold worker's peak depends on the (seeded) render order, so
    # the gated figure is the largest warm `repro table` process
    result.metrics["peak_rss_mb"] = one["warm_rss_mb"]
    result.detail = {
        "tables_cold_s": sum(one["cold"][k] for k in "1234"),
        "table2_symbolic_cold_s": one["cold"]["2-symbolic"],
        "table2_static_cold_s": one["cold"]["2-static"],
        "tables_warm_s": sum(warm[k] for k in "1234"),
        "table2_symbolic_warm_s": warm["2-symbolic"],
        "table2_static_warm_s": warm["2-static"],
        "warm_renders": float(sum(len(samples) for samples in one["warm"].values())),
        "peak_rss_mb": result.metrics["peak_rss_mb"],
        "cold_peak_rss_mb": one["cold_rss_mb"],
    }
    return result


# -- user-programs ------------------------------------------------------------------


def user_programs(ctx: RunContext, inputs: dict) -> Result:
    result = Result()
    inputs_path = ctx.run_dir / "programs.json"
    inputs_path.write_text(json.dumps(inputs))
    # with tracing on: one untraced and one traced pass
    budget = 0.0 if ctx.trace else ctx.seconds

    def make(trace: bool = False) -> Worker:
        path = spans_path(ctx, "programs")
        spec = {"inputs": str(inputs_path), "seconds": budget, "trace": trace,
                "spans": str(path)}
        worker = Worker(ctx, "programs", spec, ctx.fresh_dir("cache"))
        worker.spans = path
        return worker

    def measure(worker: Worker) -> dict:
        out = worker.run()
        ctx.probe.samples += out["speed"]
        names = [p["name"] for p in inputs["programs"]]
        for name in names:
            result.ops.check(name not in out["mismatches"],
                             f"program {name}: {out['mismatches'].get(name)}")
        return out

    setup_s, worker = time_setups(make, 1 if ctx.trace else 3, ctx.probe)
    out = measure(worker)
    if ctx.trace:
        tracer = Tracer()
        traced_worker = make(trace=True)
        traced = measure(traced_worker)
        tracer.adopt(load_dump(traced_worker.spans))
        overhead = median(traced["passes"]) - median(out["passes"])
        result.spans = tracer.spans
        result.layers = per_layer_values(
            tracer.spans, tracer.counts, {"tracing.overhead_s": overhead}
        )
        return result
    result.metrics["setup_s"] = setup_s
    _pass_metrics(
        result,
        out["passes"],
        out["kernel_s"],
        [(s, k) for lat, k in zip(out["latencies"], out["kernel_s"]) for s in lat],
    )
    result.metrics["peak_rss_mb"] = out["rss_mb"]
    result.detail.update({
        "program_p50_ms": result.detail["raw_op_ms"],
        "program_p95_ms": result.detail["raw_op_p95_ms"],
    })
    return result


# -- long-replay --------------------------------------------------------------------


def _replay_reference(shards: Path, requests: List[dict]) -> List[int]:
    """Independent answers for the stream requests: LRU and WS from the
    all-sizes sweeps, CD from the closed-form replay (None = unchecked)."""
    from repro.tracegen.io import open_sharded_trace
    from repro.vm.analyzers import LRUSweep, WSSweep
    from repro.vm.fastsim import simulate_cd_fast
    from repro.vm.policies import CDConfig

    trace = open_sharded_trace(shards).to_reference_trace()
    lru, ws = LRUSweep(trace), WSSweep(trace)
    want = []
    for raw in requests:
        if raw["kind"] == "LRU":
            want.append(lru.faults(raw["frames"]))
        elif raw["kind"] == "WS":
            want.append(ws.faults(raw["tau"]))
        elif raw["kind"] == "CD":
            config = CDConfig(pi_cap=raw["pi_cap"], min_allocation=raw["min_allocation"])
            want.append(
                simulate_cd_fast(trace, config, distances=lru._distances).page_faults
            )
        else:
            want.append(None)
    return want


def long_replay(ctx: RunContext, inputs: dict) -> Result:
    result = Result()
    inputs_path = ctx.run_dir / "replay.json"
    inputs_path.write_text(json.dumps(inputs))
    requests = inputs["requests"]

    def make(trace: bool = False) -> Worker:
        path = spans_path(ctx, "replay")
        shards = ctx.fresh_dir("shards")
        spec = {"inputs": str(inputs_path), "shards": str(shards), "trace": trace,
                "spans": str(path), "seconds": 0.0 if ctx.trace else ctx.seconds}
        worker = Worker(ctx, "replay", spec, ctx.fresh_dir("cache"))
        worker.spans, worker.shards = path, shards
        return worker

    reference: List[int] = []

    def measure(worker: Worker) -> dict:
        out = worker.run()
        ctx.probe.samples += out["speed"]
        if not reference:
            reference.extend(_replay_reference(worker.shards, requests))
        for one in out["passes"]:
            for raw, faults, want in zip(requests, one["answers"], reference):
                ok = want is None or faults == want
                result.ops.check(ok, f"stream {raw}: {faults} faults, reference {want}")
            for run in one["pool"]:
                ok = not run["violations"] and run["completed"] <= run["arrivals"]
                result.ops.check(ok, f"pool {run['policy']}: violations {run['violations'][:3]}")
        return out

    setup_s, worker = time_setups(make, 1 if ctx.trace else 3, ctx.probe)
    out = measure(worker)
    passes = out["passes"]

    if ctx.trace:
        tracer = Tracer()
        traced_worker = make(trace=True)
        traced = measure(traced_worker)["passes"][0]
        tracer.adopt(load_dump(traced_worker.spans))
        arrivals = sum(run["arrivals"] for run in traced["pool"])
        extra = {
            "tracing.overhead_s": traced["wall"] - passes[0]["wall"],
            "vm.multiprog.executed_refs": float(sum(r["executed_refs"] for r in traced["pool"])),
            "vm.multiprog.completed_ratio": sum(r["completed"] for r in traced["pool"])
            / max(arrivals, 1),
        }
        result.spans = tracer.spans
        result.layers = per_layer_values(tracer.spans, tracer.counts, extra)
        return result

    # scaled per pass, and the sweep by the samples around it: the
    # stream sweep's speed drifts with the host's within a run, and the
    # run's kernel median did not follow it
    latencies = []
    for one in passes:
        # the one-pass sweep answers every stream request when it ends
        latencies += [(one["sweep_s"], one["sweep_kernel_s"])] * len(requests)
        latencies += [(run["seconds"], one["kernel_s"]) for run in one["pool"]]
    _pass_metrics(result, [one["wall"] for one in passes],
                  [one["kernel_s"] for one in passes], latencies)
    result.metrics["setup_s"] = setup_s
    result.metrics["peak_rss_mb"] = out["rss_mb"]
    result.detail.update({
        "policy_refs_per_s": median(
            [out["references"] * len(requests) / one["sweep_s"] for one in passes]
        ),
        "pool_refs_per_s": median(
            [
                sum(r["executed_refs"] for r in one["pool"])
                / sum(r["seconds"] for r in one["pool"])
                for one in passes
            ]
        ),
        "peak_rss_mb": result.metrics["peak_rss_mb"],
    })
    return result


# -- service-mix --------------------------------------------------------------------


#: the daemon's watch-loop poll period (``_POLL`` in repro.service.daemon)
WATCH_POLL_S = 0.25


class Daemon:
    """A ``repro serve`` child in its own service directory and cache."""

    def __init__(self, ctx: RunContext):
        from repro.service import ServiceClient

        self.ctx = ctx
        self.dir = ctx.rel(ctx.fresh_dir("svc"))
        self.proc = ctx.popen(
            [sys.executable, "-m", "repro", "serve", "--dir", self.dir, "-j", "1"],
            ctx.fresh_dir("cache"),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on"):
            ctx.reap(self.proc, timeout=5)
            raise RuntimeError(f"daemon failed to start (said {line!r})")
        with ServiceClient(self.dir, timeout=30) as client:
            client.ping()

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient(self.dir, timeout=170)

    def stop(self) -> None:
        """Drain and reap; a daemon that does not exit is killed."""
        from repro.service import ServiceError

        try:
            with self.client() as client:
                client.shutdown()
        except (ServiceError, OSError):
            pass
        self.ctx.reap(self.proc, timeout=60)
        self.proc.stdout.close()


def _submit(client, targets: List[str], tracer: Tracer, request: str) -> dict:
    """One closed-loop submission: ``submit`` then wait for settlement —
    through ``ServiceClient.wait`` untraced, through the same watch
    stream it reads when traced, so engine frames can be timed."""
    start = time.perf_counter()
    if not tracer.enabled:
        reply = client.submit(targets)
        state = client.wait(reply["job"])
        return {"reply": reply, "state": state, "seconds": time.perf_counter() - start}
    with tracer.span("submission", "request", request=request):
        with tracer.span("service.submit", "service"):
            reply = client.submit(targets)
        replied = time.perf_counter()
        first_start, last_done, last_frame, attempts = None, None, replied, {}
        state = "unknown"
        with tracer.span("service.wait", "service") as wait_id:
            for frame in client.watch(reply["job"]):
                now = time.perf_counter()
                if "done" in frame:
                    state = str(frame.get("state", "unknown"))
                    break
                event = frame["event"]
                last_frame = now
                if event["kind"] == "job_start" and first_start is None:
                    first_start = now
                elif event["kind"] == "job_done":
                    last_done = now
                    attempts[event["job"]] = event["attempts"]
            settled = time.perf_counter()
        if first_start is not None:
            tracer.add("engine.queue", "engine", replied, first_start, wait_id, request)
            fresh = [s for s, n in attempts.items() if n]
            layer = "oracle" if fresh and all(s.startswith("oracle:") for s in fresh) else "engine"
            tracer.add(f"{layer}.run", layer, first_start, last_done or settled, wait_id, request)
    return {
        "reply": reply,
        "state": state,
        "seconds": time.perf_counter() - start,
        "rtt": replied - start,
        "settle": settled - last_frame,
        "queue": None if first_start is None else first_start - replied,
        "run": None if first_start is None else (last_done or settled) - first_start,
        "attempts": attempts,
    }


#: the closed-loop schedule runs in this many segments; between two,
#: with no submission in flight, the host's speed is sampled
SERVICE_SEGMENTS = 5


def _service_pass(ctx: RunContext, daemon: Daemon, inputs: dict, tracer: Tracer) -> dict:
    """Prime the table targets, then run both clients' schedules."""
    t0 = time.perf_counter()
    with daemon.client() as client:
        prime = _submit(client, inputs["prime"], tracer, "prime")
    prime["kind"] = "prime"
    primed_s = time.perf_counter() - t0
    schedules = inputs["clients"]
    records: List[List[dict]] = [[] for _ in schedules]
    errors: List[str] = []

    def run_client(index: int, begin: int, end: int) -> None:
        try:
            with daemon.client() as client:
                for n in range(begin, end):
                    item = schedules[index][n]
                    record = _submit(client, item["targets"], tracer, f"c{index}:{n}")
                    record["kind"] = item["kind"]
                    records[index].append(record)
        except Exception as err:  # reported as failed operations
            errors.append(f"client {index}: {type(err).__name__}: {err}")

    loop_s = 0.0
    length = len(schedules[0])
    bounds = [length * k // SERVICE_SEGMENTS for k in range(SERVICE_SEGMENTS + 1)]
    for begin, end in zip(bounds, bounds[1:]):
        ctx.probe.sample(10)
        threads = [
            threading.Thread(target=run_client, args=(i, begin, end))
            for i in range(len(schedules))
        ]
        t1 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        loop_s += time.perf_counter() - t1
    return {
        "records": [prime] + [r for rs in records for r in rs],
        "wall": primed_s + loop_s,
        "loop_s": loop_s,
        "loop_count": sum(len(rs) for rs in records),
        "errors": errors,
        "expected": 1 + sum(len(s) for s in schedules),
    }


def _check_service(daemon: Daemon, out: dict, goldens, ops: Ops) -> int:
    """Every job settled done with golden tables and clean oracle
    payloads; returns the oracle seeds the payloads report."""
    seeds = {}
    with daemon.client() as client:
        for record in out["records"]:
            job = record["reply"]["job"]
            payloads = None
            if record["state"] == "done":
                payloads = client.results(job)["payloads"]
                for spec, payload in payloads.items():
                    if spec.startswith("oracle:"):
                        seeds[spec] = payload.get("seeds_run", 0)
            failures = service_job_failures(job, record["state"], payloads, goldens)
            ops.check(not failures, "; ".join(failures))
    for _ in range(out["expected"] - len(out["records"])):
        ops.check(False, "; ".join(out["errors"]) or "submission missing")
    return sum(seeds.values())


def service_mix(ctx: RunContext, inputs: dict) -> Result:
    result = Result()
    goldens = golden_tables()
    setup_s, daemon = time_setups(lambda: Daemon(ctx), 1 if ctx.trace else 3, ctx.probe)
    try:
        out = _service_pass(ctx, daemon, inputs, Tracer(enabled=False))
        _check_service(daemon, out, goldens, result.ops)
    finally:
        daemon.stop()

    if ctx.trace:
        tracer = Tracer()
        daemon = Daemon(ctx)
        try:
            traced = _service_pass(ctx, daemon, inputs, tracer)
            seeds = _check_service(daemon, traced, goldens, result.ops)
        finally:
            daemon.stop()
        records = traced["records"]
        replies = [r["reply"] for r in records]
        fresh = [r for r in records if r["queue"] is not None]
        extra = {
            "tracing.overhead_s": traced["wall"] - out["wall"],
            "service.submit_rtt_ms": median([r["rtt"] for r in records]) * 1e3,
            "service.watch_settle_ms": sum(r["settle"] for r in records) / len(records) * 1e3,
            "service.warm_spec_ratio": sum(len(r["warm"]) for r in replies)
            / max(1, sum(len(r["specs"]) for r in replies)),
            "engine.queue_wait_ms": median([r["queue"] for r in fresh]) * 1e3 if fresh else 0.0,
            "engine.run_s": median([r["run"] for r in fresh]) if fresh else 0.0,
            "engine.attempts": float(
                sum(n for r in records for n in r["attempts"].values())
            ),
            "oracle.seeds_run": float(seeds),
        }
        result.spans = tracer.spans
        result.layers = per_layer_values(tracer.spans, tracer.counts, extra)
        return result

    records = out["records"]
    warm = [r["seconds"] for r in records if r["kind"] == "warm"]
    fresh = [r["seconds"] for r in records if r["kind"] == "fresh"]
    result.metrics["setup_s"] = setup_s
    result.metrics["pass_s"] = out["wall"]
    # About a quarter of warm hits wait out the daemon's watch poll, and
    # which ones do is a race: the median warm hit, and even the median
    # of the hits that beat the poll, moved by up to a third between runs on a
    # steady host.  So the typical submission is the mean over the
    # closed loop, warm and fresh, whose total is as steady as the pass.
    # The p95 of warm hits is the poll's timer, which host speed does
    # not scale.
    loop = [r["seconds"] for r in records if r["kind"] != "prime"]
    result.metrics["op_ms"] = sum(loop) / len(loop) * 1e3
    result.metrics["op_p95_ms"] = percentile(warm, 95) * 1e3
    result.scaled = ("setup_s", "pass_s", "op_ms")
    fast = [w for w in warm if w < WATCH_POLL_S]
    result.metrics["peak_rss_mb"] = children_peak_rss_mb()
    result.detail = {
        "submissions_per_s": out["loop_count"] / out["loop_s"],
        "warm_submit_p50_ms": median(warm) * 1e3,
        "warm_submit_p95_ms": percentile(warm, 95) * 1e3,
        "prime_submit_s": records[0]["seconds"],
        "fresh_submit_p50_s": median(fresh) if fresh else float("nan"),
        "warm_slow_share": 1 - len(fast) / len(warm),
        "peak_rss_mb": result.metrics["peak_rss_mb"],
    }
    return result


WORKLOADS = {
    "paper-tables": paper_tables,
    "user-programs": user_programs,
    "long-replay": long_replay,
    "service-mix": service_mix,
}
