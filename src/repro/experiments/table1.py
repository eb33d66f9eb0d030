"""Table 1: "The Effect of Executing Different Sets of Directives Under
CD Policy" — MEM, PF, ST for MAIN/MAIN1-3, FDJAC/FDJAC1, TQL1/TQL2.

The paper's observation this table carries: "Less memory allocation
results from executing the directives associated with the inner loops.
Directives at outer levels consume more memory and generate fewer page
faults."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.answers import table_artifacts
from repro.experiments.config import CDVariant, table1_rows
from repro.experiments.report import format_table
from repro.vm.metrics import SimulationResult


@dataclass(frozen=True)
class Table1Row:
    label: str
    mem: float
    page_faults: int
    space_time: float

    @property
    def st_millions(self) -> float:
        return self.space_time / 1e6


def run_variant(variant: CDVariant) -> SimulationResult:
    """Replay one experiment row (answered from the answer tier when
    a previous run recorded it)."""
    artifacts = table_artifacts(variant.workload, with_locks=variant.with_locks)
    return artifacts.cd_result(variant.config)


def generate_table1(variants: Optional[List[CDVariant]] = None) -> List[Table1Row]:
    """Compute every row of Table 1."""
    rows = []
    for variant in variants or table1_rows():
        result = run_variant(variant)
        rows.append(
            Table1Row(
                label=variant.label,
                mem=result.mem_average,
                page_faults=result.page_faults,
                space_time=result.space_time,
            )
        )
    return rows


def render_table1(rows: Optional[List[Table1Row]] = None) -> str:
    rows = rows if rows is not None else generate_table1()
    return format_table(
        ["Program", "MEM", "PF", "ST (10^6)"],
        [(r.label, r.mem, r.page_faults, round(r.st_millions, 3)) for r in rows],
        title="Table 1: The Effect of Executing Different Sets of Directives Under CD Policy",
    )
