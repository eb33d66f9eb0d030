"""Metric definitions: the end-to-end set every workload reports, the
workload-specific breakdown printed by name, and the per-layer set of
the traced run."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from perfbench.spans import LAYERS, layer_report, total_by_name

#: (name, unit, better) — reported by every workload with tracing off
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("op_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: the workload-specific figures each end-to-end metric is built from,
#: printed by name before the result line
DETAIL_UNITS = {
    "tables_cold_s": "s",
    "table2_symbolic_cold_s": "s",
    "table2_static_cold_s": "s",
    "tables_warm_s": "s",
    "table2_symbolic_warm_s": "s",
    "table2_static_warm_s": "s",
    "warm_renders": "count",
    "program_p50_ms": "ms",
    "program_p95_ms": "ms",
    "policy_refs_per_s": "refs*req/s",
    "pool_refs_per_s": "refs/s",
    "submissions_per_s": "1/s",
    "warm_submit_p50_ms": "ms",
    "warm_submit_p95_ms": "ms",
    "prime_submit_s": "s",
    "fresh_submit_p50_s": "s",
    "peak_rss_mb": "MB",
    "cold_peak_rss_mb": "MB",
    "warm_slow_share": "ratio",
    "raw_setup_s": "s",
    "raw_pass_s": "s",
    "raw_op_ms": "ms",
    "raw_op_p95_ms": "ms",
    "host_kernel_ms": "ms",
}

_SECONDS = "s"
#: (name, unit) — reported by every workload in the traced run; a layer
#: the workload does not exercise reads 0
PER_LAYER = (
    [(f"{layer}.self_s", _SECONDS) for layer in LAYERS]
    + [
        ("unattributed.self_s", _SECONDS),
        ("tracing.overhead_s", _SECONDS),
        ("cli.import_s", _SECONDS),
        ("frontend.parse_s", _SECONDS),
        ("analysis.analyze_s", _SECONDS),
        ("directives.instrument_s", _SECONDS),
        ("staticcheck.lint_s", _SECONDS),
        ("staticcheck.diagnostics", "count"),
        ("tracegen.generate_s", _SECONDS),
        ("tracegen.refs", "count"),
        ("tracegen.refs_per_s", "refs/s"),
        ("vm.analyzers.lru_sweep_s", _SECONDS),
        ("vm.analyzers.ws_sweep_s", _SECONDS),
        ("vm.analyzers.lru_min_st_s", _SECONDS),
        ("vm.analyzers.ws_min_st_s", _SECONDS),
        ("vm.fastsim.cd_s", _SECONDS),
        ("vm.simulator.cd_locks_s", _SECONDS),
        ("symbolic.build_s", _SECONDS),
        ("symbolic.kept_ratio", "ratio"),
        ("staticloc.build_s", _SECONDS),
        ("staticloc.references", "count"),
        ("staticloc.compiled_references", "count"),
        ("staticloc.closed_form_references", "count"),
        ("staticloc.kept_references", "count"),
        ("staticloc.recovered_sites", "count"),
        ("experiments.cache_load_s", _SECONDS),
        ("experiments.cache_store_s", _SECONDS),
        ("experiments.cache_bytes", "bytes"),
        ("experiments.cache_hits", "count"),
        ("experiments.cache_misses", "count"),
        ("vm.stream.sweep_s", _SECONDS),
        ("vm.stream.lru_only_s", _SECONDS),
        ("vm.stream.fifo_only_s", _SECONDS),
        ("vm.stream.ws_only_s", _SECONDS),
        ("vm.stream.cd_only_s", _SECONDS),
        ("vm.multiprog.pool_uncontrolled_s", _SECONDS),
        ("vm.multiprog.pool_knee_s", _SECONDS),
        ("vm.multiprog.pool_ws_s", _SECONDS),
        ("vm.multiprog.pool_cd_s", _SECONDS),
        ("vm.multiprog.executed_refs", "count"),
        ("vm.multiprog.completed_ratio", "ratio"),
        ("vm.multiprog.profile_s", _SECONDS),
        ("service.submit_rtt_ms", "ms"),
        ("service.watch_settle_ms", "ms"),
        ("service.warm_spec_ratio", "ratio"),
        ("engine.queue_wait_ms", "ms"),
        ("engine.run_s", _SECONDS),
        ("engine.attempts", "count"),
        ("oracle.seeds_run", "count"),
    ]
)

#: per-layer metrics that sum a span name's durations
_SPAN_TOTALS = {
    "cli.import_s": "cli.import",
    "frontend.parse_s": "frontend.parse",
    "analysis.analyze_s": "analysis.analyze",
    "directives.instrument_s": "directives.instrument",
    "staticcheck.lint_s": "staticcheck.lint",
    "tracegen.generate_s": "tracegen.generate",
    "vm.analyzers.lru_sweep_s": "vm.analyzers.lru_sweep",
    "vm.analyzers.ws_sweep_s": "vm.analyzers.ws_sweep",
    "vm.analyzers.lru_min_st_s": "vm.analyzers.lru_min_st",
    "vm.analyzers.ws_min_st_s": "vm.analyzers.ws_min_st",
    "vm.fastsim.cd_s": "vm.fastsim.cd",
    "vm.simulator.cd_locks_s": "vm.simulator.cd_locks",
    "symbolic.build_s": "symbolic.build",
    "staticloc.build_s": "staticloc.build",
    "experiments.cache_load_s": "experiments.cache_load",
    "experiments.cache_store_s": "experiments.cache_store",
    "vm.stream.sweep_s": "vm.stream.sweep",
    "vm.multiprog.pool_uncontrolled_s": "vm.multiprog.pool_uncontrolled",
    "vm.multiprog.pool_knee_s": "vm.multiprog.pool_knee",
    "vm.multiprog.pool_ws_s": "vm.multiprog.pool_ws",
    "vm.multiprog.pool_cd_s": "vm.multiprog.pool_cd",
    "vm.multiprog.profile_s": "vm.multiprog.profile",
}

_COUNTS = (
    "staticcheck.diagnostics",
    "tracegen.refs",
    "staticloc.references",
    "staticloc.compiled_references",
    "staticloc.closed_form_references",
    "staticloc.kept_references",
    "staticloc.recovered_sites",
    "experiments.cache_bytes",
    "experiments.cache_hits",
    "experiments.cache_misses",
    "vm.stream.lru_only_s",
    "vm.stream.fifo_only_s",
    "vm.stream.ws_only_s",
    "vm.stream.cd_only_s",
)


def per_layer_values(
    spans: List[dict],
    counts: Mapping[str, float],
    extra: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the traced run's spans,
    counters and workload-supplied ``extra`` values (0 when absent)."""
    values: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    values.update(layer_report(spans))
    for metric, span_name in _SPAN_TOTALS.items():
        values[metric] = total_by_name(spans, span_name)
    for name in _COUNTS:
        values[name] = float(counts.get(name, 0))
    if values["tracegen.generate_s"] > 0:
        values["tracegen.refs_per_s"] = values["tracegen.refs"] / values["tracegen.generate_s"]
    if counts.get("symbolic.refs"):
        values["symbolic.kept_ratio"] = counts["symbolic.kept"] / counts["symbolic.refs"]
    values.update(extra or {})
    unknown = set(values) - {name for name, _unit in PER_LAYER}
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return values
