"""Child-process side of the benchmark.

Usage (the workloads start it; it is not meant to be run by hand)::

    python perfbench/worker.py <task> <spec.json>     # ready/go protocol
    python perfbench/worker.py cli <spans.json> <repro CLI args...>

Tasks that need fresh process state — an empty in-process memo, a
clean peak-RSS counter — run here.  A ready/go task imports and sets
up, prints ``ready``, waits for ``go`` on stdin, runs its timed work
and prints one JSON line.  ``cli`` is the traced stand-in for
``python -m repro …``: it times ``import repro.cli`` and runs
``repro.cli.main`` with the layer probes installed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

# repro is imported inside the tasks, never here: ``cli`` times that import
from perfbench.common import SpeedProbe, median, own_peak_rss_mb  # noqa: E402
from perfbench.spans import Tracer, install_probes  # noqa: E402


def _first_use(seen: set, obj) -> bool:
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    return True


def table_probes() -> list:
    """Probes for table builds: every layer a table render reaches."""
    sym_seen: set = set()
    static_seen: set = set()

    def count_refs(tracer, trace):
        tracer.count("tracegen.refs", len(trace.pages))

    def count_symbolic(tracer, artifacts):
        if _first_use(sym_seen, artifacts):
            tracer.count("symbolic.kept", len(artifacts.surrogate.kept_pos))
            tracer.count("symbolic.refs", len(artifacts.runtrace.trace.pages))

    def count_static(tracer, artifacts):
        if _first_use(static_seen, artifacts):
            stats = artifacts.gen_stats
            for key in ("references", "compiled_references", "closed_form_references",
                        "kept_references", "recovered_sites"):
                tracer.count(f"staticloc.{key}", stats.get(key, 0))

    return [
        ("repro.frontend.parser", "parse_source", "frontend.parse", "frontend"),
        ("repro.analysis.locality", "analyze_program", "analysis.analyze", "analysis"),
        ("repro.directives.instrument", "instrument_program", "directives.instrument",
         "directives"),
        ("repro.tracegen.interpreter", "generate_trace", "tracegen.generate", "tracegen",
         count_refs),
        ("repro.vm.analyzers", "LRUSweep.__init__", "vm.analyzers.lru_sweep",
         "vm.analyzers"),
        ("repro.vm.analyzers", "WSSweep.__init__", "vm.analyzers.ws_sweep",
         "vm.analyzers"),
        ("repro.vm.analyzers", "LRUSweep.min_space_time", "vm.analyzers.lru_min_st",
         "vm.analyzers"),
        ("repro.vm.analyzers", "WSSweep.min_space_time", "vm.analyzers.ws_min_st",
         "vm.analyzers"),
        ("repro.vm.fastsim", "simulate_cd_fast", "vm.fastsim.cd", "vm.fastsim"),
        ("repro.vm.simulator", "simulate", "vm.simulator.cd_locks", "vm.simulator"),
        ("repro.analysis.symbolic.artifacts", "symbolic_artifacts_for", "symbolic.build",
         "symbolic", count_symbolic),
        ("repro.analysis.symbolic.locality", "SymbolicLRU.min_space_time",
         "symbolic.min_st", "symbolic"),
        ("repro.analysis.symbolic.locality", "SymbolicWS.min_space_time",
         "symbolic.min_st", "symbolic"),
        ("repro.analysis.staticloc.artifacts", "static_artifacts_for", "staticloc.build",
         "staticloc", count_static),
        ("repro.experiments.runner", "_load_entry", "experiments.cache_load",
         "experiments"),
        ("repro.experiments.runner", "_store_entry", "experiments.cache_store",
         "experiments"),
    ]


def _cache_counts(tracer: Tracer, with_bytes: bool) -> None:
    """Cache hits and misses of this process; with ``with_bytes``, also
    the size of the artifact cache it filled."""
    import os

    from repro.experiments.runner import STATS

    tracer.count("experiments.cache_hits", STATS.cache_hits)
    tracer.count("experiments.cache_misses", STATS.cache_misses)
    if with_bytes:
        cdir = Path(os.environ["REPRO_CACHE_DIR"])
        tracer.count(
            "experiments.cache_bytes",
            sum(p.stat().st_size for p in cdir.glob("*") if p.is_file()),
        )


# -- tasks ------------------------------------------------------------------------


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter (Linux ``clear_refs`` 5),
    so the peak reported covers the timed work, not set-up."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS since :func:`reset_peak_rss` (``VmHWM``), else since start."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return own_peak_rss_mb()


def setup_tables(spec: dict):
    """Cold renders one at a time: the parent sends a render index per
    line (so it can run the warm CLI render in between) and ``done``."""
    from repro.engine.jobs import render_table
    from repro.experiments.table2 import render_table2

    tracer = Tracer(enabled=spec["trace"])
    if tracer.enabled:
        install_probes(tracer, table_probes())

    def render(args: list) -> str:
        with tracer.span("table " + " ".join(args), "request", request=" ".join(args)):
            if len(args) == 1:
                return render_table(args[0])
            return render_table2(mode=args[2])

    def go() -> dict:
        reset_peak_rss()
        for line in sys.stdin:
            if line.strip() == "done":
                break
            args = spec["renders"][int(line)]
            start = time.perf_counter()
            text = render(args)
            reply = {"args": args, "seconds": time.perf_counter() - start, "text": text + "\n"}
            print(json.dumps(reply), flush=True)
        if tracer.enabled:
            _cache_counts(tracer, with_bytes=True)
            tracer.dump(Path(spec["spans"]))
        return {"rss_mb": peak_rss_mb()}

    return go


def _program_pipeline(program_input: dict, tracer: Tracer):
    from repro.analysis.locality import analyze_program
    from repro.directives import instrument_program
    from repro.frontend.parser import parse_source
    from repro.staticcheck import lint_program
    from repro.tracegen.interpreter import generate_trace
    from repro.vm.analyzers import LRUSweep, WSSweep
    from repro.vm.fastsim import cd_fast_applicable, simulate_cd_fast
    from repro.vm.policies import CDConfig, CDPolicy
    from repro.vm.simulator import simulate

    span = tracer.span
    with span("frontend.parse", "frontend"):
        program = parse_source(program_input["source"])
    with span("analysis.analyze", "analysis"):
        analysis = analyze_program(program)
    with span("directives.instrument", "directives"):
        plan = instrument_program(program, analysis=analysis, with_locks=False)
    with span("staticcheck.lint", "staticcheck"):
        diagnostics = lint_program(program, plan=plan)
    tracer.count("staticcheck.diagnostics", len(diagnostics))
    with span("tracegen.generate", "tracegen"):
        trace = generate_trace(program, plan=plan, max_references=200_000)
    tracer.count("tracegen.refs", len(trace.pages))
    with span("vm.analyzers.lru_sweep", "vm.analyzers"):
        lru = LRUSweep(trace)
        lru_point = lru.result(program_input["frames"])
    with span("vm.analyzers.ws_sweep", "vm.analyzers"):
        ws = WSSweep(trace)
        ws_point = ws.result(program_input["tau"])
    with span("vm.analyzers.lru_min_st", "vm.analyzers"):
        lru.min_space_time()
    with span("vm.analyzers.ws_min_st", "vm.analyzers"):
        ws.min_space_time()
    config = CDConfig()
    if cd_fast_applicable(trace, config):
        with span("vm.fastsim.cd", "vm.fastsim"):
            simulate_cd_fast(trace, config)
    else:
        with span("vm.simulator.cd_locks", "vm.simulator"):
            simulate(trace, CDPolicy(config))
    return trace, lru_point, ws_point


#: generated programs between two host-speed samples
PROBE_EVERY = 10


def _fields(result) -> list:
    return [result.page_faults, result.references, result.mem_average, result.space_time]


def setup_programs(spec: dict):
    from repro.vm.policies import LRUPolicy, WorkingSetPolicy
    from repro.vm.simulator import simulate

    programs = json.loads(Path(spec["inputs"]).read_text())["programs"]
    tracer = Tracer(enabled=spec["trace"])
    probe = SpeedProbe()

    def go() -> dict:
        reset_peak_rss()
        latencies, passes, kernels, first = [], [], [], {}
        errors = {}
        deadline = time.perf_counter() + spec["seconds"]
        # a further pass only if one more is expected to end in budget
        while not passes or time.perf_counter() + median(passes) <= deadline:
            probed = len(probe.samples)
            latencies.append([])
            t0 = time.perf_counter()
            for index, item in enumerate(programs):
                if index % PROBE_EVERY == 0:
                    # counted in neither the latency nor the pass time
                    probe.sample()
                start = time.perf_counter()
                try:
                    with tracer.span("program", "request", request=item["name"]):
                        outcome = _program_pipeline(item, tracer)
                except Exception as err:  # a failed program is a failed operation
                    errors.setdefault(item["name"], f"{type(err).__name__}: {err}")
                    continue
                latencies[-1].append(time.perf_counter() - start)
                if not passes:
                    first[item["name"]] = outcome
            passes.append(time.perf_counter() - t0 - sum(probe.samples[probed:]))
            kernels.append(median(probe.samples[probed:]))
        rss = peak_rss_mb()
        # correctness, outside the timed region: the sweeps' answers at
        # the seeded frame count and window against event-driven replays
        mismatches = dict(errors)
        for item in programs:
            if item["name"] not in first:
                continue
            trace, lru_point, ws_point = first[item["name"]]
            want_lru = simulate(trace, LRUPolicy(item["frames"]))
            want_ws = simulate(trace, WorkingSetPolicy(item["tau"]))
            if _fields(lru_point) != _fields(want_lru):
                mismatches[item["name"]] = f"LRU({item['frames']}) {_fields(lru_point)} != {_fields(want_lru)}"
            elif _fields(ws_point) != _fields(want_ws):
                mismatches[item["name"]] = f"WS({item['tau']}) {_fields(ws_point)} != {_fields(want_ws)}"
        if tracer.enabled:
            tracer.dump(Path(spec["spans"]))
        return {
            "latencies": latencies,
            "passes": passes,
            "kernel_s": kernels,
            "mismatches": mismatches,
            "rss_mb": rss,
            "speed": probe.samples,
        }

    return go


def _stream_request(raw: dict):
    from repro.vm.policies import CDConfig
    from repro.vm.stream import StreamRequest

    if raw["kind"] == "LRU":
        return StreamRequest.lru(raw["frames"])
    if raw["kind"] == "FIFO":
        return StreamRequest.fifo(raw["frames"])
    if raw["kind"] == "WS":
        return StreamRequest.ws(raw["tau"])
    return StreamRequest.cd(
        CDConfig(pi_cap=raw["pi_cap"], min_allocation=raw["min_allocation"])
    )


def build_trace_mix(inputs: dict, tracer: Tracer):
    """Paper traces (ALLOCATE-only plans) concatenated in the seeded
    order; each program keeps its own page range, directives are
    shifted to their new positions."""
    from dataclasses import replace

    import numpy as np

    from repro.analysis.locality import analyze_program
    from repro.directives import instrument_program
    from repro.tracegen.events import ReferenceTrace
    from repro.tracegen.interpreter import generate_trace
    from repro.workloads import get_workload

    traces = {}
    for name in sorted(set(inputs["sequence"])):
        workload = get_workload(name)
        program, symbols = workload.program(), workload.symbols()
        analysis = analyze_program(program, symbols=symbols)
        plan = instrument_program(program, analysis=analysis, with_locks=False)
        with tracer.span("tracegen.generate", "tracegen"):
            traces[name] = generate_trace(program, plan=plan, symbols=symbols)
    base, offset = {}, 0
    for name in sorted(traces):
        base[name] = offset
        offset += traces[name].total_pages
    pages, directives, position = [], [], 0
    for name in inputs["sequence"]:
        trace = traces[name]
        pages.append(trace.pages + base[name])
        directives.extend(replace(d, position=d.position + position) for d in trace.directives)
        position += len(trace.pages)
    mix = ReferenceTrace(
        program_name="MIX",
        pages=np.concatenate(pages),
        total_pages=offset,
        directives=directives,
    )
    return traces, mix


def setup_replay(spec: dict):
    import gc

    from repro.tracegen.io import open_sharded_trace, save_trace_sharded
    from repro.vm.multiprog import JobProfile, LoadControlledPool, poisson_arrivals
    from repro.vm.stream import stream_simulate

    inputs = json.loads(Path(spec["inputs"]).read_text())
    tracer = Tracer(enabled=spec["trace"])
    pool = inputs["pool"]
    traces, mix = build_trace_mix(inputs, tracer)
    with tracer.span("tracegen.save_sharded", "tracegen"):
        save_trace_sharded(mix, spec["shards"])
    references = len(mix.pages)
    with tracer.span("vm.multiprog.profile", "vm.multiprog"):
        profiles = [
            JobProfile.from_trace(traces[name], name=name, max_refs=pool["max_refs"])
            for name in sorted(traces)
        ]
    streams = [
        poisson_arrivals(profiles, load=pool["load"], horizon=pool["horizon"], seed=seed)
        for seed in pool["arrival_seeds"]
    ]
    requests = [_stream_request(raw) for raw in inputs["requests"]]
    del traces, mix
    gc.collect()
    probe = SpeedProbe()

    def one_pass(source) -> dict:
        probe.sample(3)
        probed = len(probe.samples)
        t0 = time.perf_counter()
        with tracer.span("stream sweep", "request", request="stream"):
            with tracer.span("vm.stream.sweep", "vm.stream"):
                answers = stream_simulate(source, requests)
        sweep_s = time.perf_counter() - t0
        probe.sample(3)
        pool_runs = []
        for policy in pool["policies"]:
            for index, arrivals in enumerate(streams):
                start = time.perf_counter()
                with tracer.span(f"pool {policy}", "request", request=f"pool:{policy}:{index}"):
                    with tracer.span(f"vm.multiprog.pool_{policy}", "vm.multiprog"):
                        result = LoadControlledPool(
                            arrivals,
                            total_frames=pool["total_frames"],
                            policy=policy,
                            horizon=pool["run_horizon"],
                        ).run()
                seconds = time.perf_counter() - start
                probe.sample()
                pool_runs.append(
                    {
                        "policy": policy,
                        "seconds": seconds,
                        "executed_refs": result.executed_refs,
                        "completed": result.completed,
                        "arrivals": result.arrivals,
                        "violations": list(result.violations),
                    }
                )
        return {
            "answers": [r.page_faults for r in answers],
            "sweep_s": sweep_s,
            "pool": pool_runs,
            "wall": time.perf_counter() - t0 - sum(probe.samples[probed:]),
            # the host's speed during this pass, and around its sweep
            "kernel_s": median(probe.samples[probed - 3:]),
            "sweep_kernel_s": median(probe.samples[probed - 3:probed + 3]),
        }

    def go() -> dict:
        reset_peak_rss()
        source = open_sharded_trace(spec["shards"])
        passes = []
        deadline = time.perf_counter() + spec["seconds"]
        # a further pass only if one more is expected to end in budget
        while not passes or time.perf_counter() + median([p["wall"] for p in passes]) <= deadline:
            passes.append(one_pass(source))
        rss = peak_rss_mb()
        if tracer.enabled:
            # per-policy attribution: one sweep per policy kind, outside
            # the compared pass and its layer self times
            for kind in ("LRU", "FIFO", "WS", "CD"):
                subset = [r for r in requests if r.kind == kind]
                start = time.perf_counter()
                stream_simulate(source, subset)
                tracer.count(f"vm.stream.{kind.lower()}_only_s", time.perf_counter() - start)
            tracer.dump(Path(spec["spans"]))
        return {"references": references, "passes": passes, "rss_mb": rss,
                "speed": probe.samples}

    return go


TASKS = {"tables": setup_tables, "programs": setup_programs, "replay": setup_replay}


def run_cli(spans_path: str, argv: list) -> int:
    tracer = Tracer(enabled=True)
    with tracer.span("cli.import", "cli"):
        import repro.cli
    install_probes(tracer, table_probes())
    try:
        with tracer.span("cli.main", "cli"):
            code = repro.cli.main(argv)
    finally:
        sys.stdout.flush()
        _cache_counts(tracer, with_bytes=False)
        tracer.dump(Path(spans_path))
    return code or 0


def main(argv: list) -> int:
    task = argv[0]
    if task == "cli":
        return run_cli(argv[1], argv[2:])
    spec = json.loads(Path(argv[1]).read_text())
    go = TASKS[task](spec)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0  # discarded set-up
    print(json.dumps(go()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
