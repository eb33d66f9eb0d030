"""Experiment harness: regenerates every table of the paper's evaluation.

* :mod:`runner` — per-workload cache of programs, analyses, directive
  plans, traces, and LRU/WS sweeps;
* :mod:`answers` — the cache's answer tier: every table-level answer,
  recorded once as JSON so warm renders load no arrays;
* :mod:`cachefiles` — cache locations, keys, fingerprints, quarantine;
* :mod:`config` — the fourteen CD experiment rows (MAIN/MAIN1-3,
  FDJAC/FDJAC1, TQL1/TQL2, and the six single-variant programs);
* :mod:`table1` … :mod:`table4` — the four tables of Section 5;
* :mod:`ablations` — the policy zoo, sizing-strategy and LOCK ablations
  this reproduction adds;
* :mod:`report` — plain-text table rendering.
"""

from repro._lazy import lazy_exports

# PEP 562: a table render imports only the modules it uses.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("CDVariant", "table1_rows", "table2_rows", "table34_rows"),
        ".runner": ("WorkloadArtifacts", "artifacts_for", "clear_cache"),
        ".report": ("format_table",),
        ".table1": ("generate_table1",),
        ".table2": ("generate_table2",),
        ".table3": ("generate_table3",),
        ".table4": ("generate_table4",),
        ".ablations": (
            "lock_ablation",
            "policy_zoo",
            "sizing_strategy_ablation",
            "ws_family_comparison",
        ),
        ".controllability": ("controllability_study",),
        ".curves": ("policy_curves",),
        ".geometry": ("geometry_sweep",),
        ".multiprog_study": ("multiprog_study",),
    },
)

__all__ = [
    "CDVariant",
    "WorkloadArtifacts",
    "artifacts_for",
    "clear_cache",
    "controllability_study",
    "format_table",
    "generate_table1",
    "generate_table2",
    "generate_table3",
    "generate_table4",
    "geometry_sweep",
    "lock_ablation",
    "multiprog_study",
    "policy_curves",
    "policy_zoo",
    "sizing_strategy_ablation",
    "table1_rows",
    "table2_rows",
    "table34_rows",
    "ws_family_comparison",
]
