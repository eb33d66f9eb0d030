"""Self-tests of the benchmark itself.

Run from the checkout root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import types

import pytest

from perfbench import inputs, workloads
from perfbench.common import ROOT, RUNS_DIR, Ops, SpeedProbe, host_factor
from perfbench.gates import golden_tables, service_job_failures, table_failures
from perfbench.metrics import END_TO_END, PER_LAYER, per_layer_values
from perfbench.spans import Tracer, layer_report

WORKLOADS = ("paper-tables", "user-programs", "long-replay", "service-mix")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    first = inputs.for_workload(workload, 7, 8)
    again = inputs.for_workload(workload, 7, 8)
    other = inputs.for_workload(workload, 8, 8)
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert inputs.digest(first) == inputs.digest(again)
    assert inputs.digest(first) != inputs.digest(other)


def test_service_schedule_is_mostly_warm():
    schedule = inputs.service_mix(3, 8)
    items = [item for client in schedule["clients"] for item in client]
    fresh = [item for item in items if item["kind"] == "fresh"]
    assert 0.03 < len(fresh) / len(items) < 0.2
    windows = [int(item["targets"][0].split(":")[1]) for item in fresh]
    assert len(set(windows)) == len(windows)


def _corrupt_cell(text: str) -> str:
    lines = text.splitlines(keepends=True)
    row = len(lines) - 1
    lines[row] = lines[row][:-2] + ("8" if lines[row][-2] != "8" else "9") + "\n"
    return "".join(lines)


def test_corrupted_table_cell_is_a_failed_operation(monkeypatch):
    goldens = golden_tables()
    corrupted = _corrupt_cell(goldens["2"])
    assert table_failures("2", goldens["2"], goldens) == []
    assert table_failures("2", corrupted, goldens)

    renders = [["1"], ["2", "--mode", "static"]]
    printed = [goldens["1"], corrupted]

    class ColdWorker:
        """Stands in for the cold worker; render 1 prints a bad cell."""

        cache_dir = None

        def send(self, line):
            self.index = int(line) if line.isdigit() else None

        def reply(self):
            return {"args": renders[self.index], "seconds": 0.1, "text": printed[self.index]}

        def finish(self):
            return {"rss_mb": 1.0}

    def warm_render(ctx, cache_dir, args, goldens, ops, tracer):
        ops.check(True, "")
        return 0.1, 1.0

    monkeypatch.setattr(workloads, "_warm_render", warm_render)
    ops = Ops()
    ctx = types.SimpleNamespace(probe=SpeedProbe())
    workloads._tables_pass(ctx, ColdWorker(), renders, goldens, ops, Tracer(enabled=False), 0.0)
    # two cold renders, each then warm, and one more warm round
    assert (ops.attempted, ops.failed) == (6, 1)
    assert "2 --mode static" in ops.messages[0]


class _FakeDaemon:
    def __init__(self, payloads):
        self.payloads = payloads

    @contextlib.contextmanager
    def client(self):
        daemon = self

        class Client:
            def results(self, job):
                return {"payloads": daemon.payloads[job]}

        yield Client()


def test_failed_service_job_is_a_failed_operation():
    goldens = golden_tables()
    good_table = {"table:2": {"which": "2", "text": goldens["2"].rstrip("\n")}}
    bad_oracle = {"oracle:0-1": {"seeds_run": 2, "failures": [{"seed": 1}]}}
    assert service_job_failures("j1", "done", good_table, goldens) == []
    assert service_job_failures("j2", "failed", None, goldens)
    assert service_job_failures("j3", "done", bad_oracle, goldens)

    records = [
        {"reply": {"job": "j1"}, "state": "done"},
        {"reply": {"job": "j2"}, "state": "failed"},
        {"reply": {"job": "j3"}, "state": "done"},
    ]
    out = {"records": records, "expected": 4, "errors": ["client 1: daemon gone"]}
    ops = Ops()
    seeds = workloads._check_service(_FakeDaemon({"j1": good_table, "j3": bad_oracle}), out, goldens, ops)
    assert (ops.attempted, ops.failed) == (4, 3)
    assert seeds == 2


def test_host_factor_scales_to_the_reference_kernel():
    reference = SpeedProbe.REFERENCE_S
    assert host_factor([reference] * 3) == pytest.approx(1.0)
    # on a host twice as slow, raw times are halved; an outlier does not count
    assert host_factor([2 * reference, 2 * reference, 9.0]) == pytest.approx(0.5)
    probe = SpeedProbe()
    probe.sample(2)
    assert len(probe.samples) == 2 and all(s > 0 for s in probe.samples)


def test_self_time_per_layer():
    tracer = Tracer()
    tracer.add("request", "request", 0.0, 10.0, None, span_id=1)
    tracer.add("tracegen.generate", "tracegen", 1.0, 4.0, 1, span_id=2)
    tracer.add("vm.analyzers.lru_sweep", "vm.analyzers", 2.0, 3.0, 2, span_id=3)
    tracer.add("vm.fastsim.cd", "vm.fastsim", 5.0, 6.5, 1, span_id=4)
    report = layer_report(tracer.spans)
    assert report["tracegen.self_s"] == pytest.approx(2.0)
    assert report["vm.analyzers.self_s"] == pytest.approx(1.0)
    assert report["vm.fastsim.self_s"] == pytest.approx(1.5)
    assert report["unattributed.self_s"] == pytest.approx(5.5)
    values = per_layer_values(tracer.spans, {"tracegen.refs": 600.0})
    assert values["tracegen.refs_per_s"] == pytest.approx(200.0)
    assert set(values) == {name for name, _unit in PER_LAYER}


def test_adopted_child_spans_nest_under_the_waiting_span():
    child = Tracer()
    with child.span("cli.main", "cli"):
        with child.span("experiments.cache_load", "experiments"):
            pass
    parent = Tracer()
    with parent.span("table 2", "request") as waiting:
        pass
    parent.adopt({"spans": child.spans, "counts": {"experiments.cache_hits": 3}}, waiting)
    by_name = {span["name"]: span for span in parent.spans}
    assert by_name["cli.main"]["parent"] == by_name["table 2"]["id"]
    assert by_name["experiments.cache_load"]["parent"] == by_name["cli.main"]["id"]
    assert parent.counts["experiments.cache_hits"] == 3


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_runner_refuses_a_checkout_without_the_program():
    bare = RUNS_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper-tables",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
