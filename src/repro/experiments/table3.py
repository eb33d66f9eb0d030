"""Table 3: "Comparing LRU and WS versus CD When Similar Average Memory
is Allocated to All Policies" — ΔPF and %ST at matched MEM.

"We chose to select the average memory allocated by CD.  Similar values
were obtained by direct assignment for LRU or by adjusting the WS
parameter, the window size τ."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.answers import table_artifacts
from repro.experiments.config import CDVariant, table34_rows
from repro.experiments.report import format_table
from repro.experiments.table1 import run_variant
from repro.vm.metrics import percent_excess


@dataclass(frozen=True)
class Table3Row:
    label: str
    mem_cd: float
    pf_cd: int
    st_cd: float
    lru_frames: int
    pf_lru: int
    st_lru: float
    ws_tau: int
    mem_ws: float
    pf_ws: int
    st_ws: float

    @property
    def delta_pf_lru(self) -> int:
        return self.pf_lru - self.pf_cd

    @property
    def delta_pf_ws(self) -> int:
        return self.pf_ws - self.pf_cd

    @property
    def pct_st_lru(self) -> float:
        return percent_excess(self.st_lru, self.st_cd)

    @property
    def pct_st_ws(self) -> float:
        return percent_excess(self.st_ws, self.st_cd)


def generate_table3(variants: Optional[List[CDVariant]] = None) -> List[Table3Row]:
    """Compute every row of Table 3."""
    rows = []
    for variant in variants or table34_rows():
        artifacts = table_artifacts(variant.workload, with_locks=variant.with_locks)
        cd = run_variant(variant)
        frames = max(1, round(cd.mem_average))
        lru = artifacts.lru.result(frames)
        tau = artifacts.ws.tau_for_mem(cd.mem_average)
        ws = artifacts.ws.result(tau)
        rows.append(
            Table3Row(
                label=variant.label,
                mem_cd=cd.mem_average,
                pf_cd=cd.page_faults,
                st_cd=cd.space_time,
                lru_frames=frames,
                pf_lru=lru.page_faults,
                st_lru=lru.space_time,
                ws_tau=tau,
                mem_ws=ws.mem_average,
                pf_ws=ws.page_faults,
                st_ws=ws.space_time,
            )
        )
    return rows


def render_table3(rows: Optional[List[Table3Row]] = None) -> str:
    rows = rows if rows is not None else generate_table3()
    return format_table(
        ["PROGRAM", "MEM(CD)", "dPF LRU", "%ST LRU", "dPF WS", "%ST WS"],
        [
            (
                r.label,
                round(r.mem_cd, 2),
                r.delta_pf_lru,
                round(r.pct_st_lru, 1),
                r.delta_pf_ws,
                round(r.pct_st_ws, 1),
            )
            for r in rows
        ],
        title=(
            "Table 3: Comparing LRU and WS versus CD When Similar Average "
            "Memory is Allocated to All Policies"
        ),
    )
