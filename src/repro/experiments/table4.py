"""Table 4: "The Cost of Generating The Same Number of Page Faults as CD
by LRU and WS" — %MEM and %ST at matched fault counts.

For each row, find the smallest LRU allocation / smallest WS window
whose fault count does not exceed CD's, and report the excess memory
and space-time: "LRU needs at least 63 pages of memory, 442% more than
CD needs, to generate at most 521 page faults."  When even the largest
allocation cannot reach CD's fault count (possible because CD's
allocation varies while cold faults bound the static policies from
below), the full-space configuration is reported.
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
class Table4Row:
    label: str
    mem_cd: float
    pf_cd: int
    st_cd: float
    lru_frames: int
    mem_lru: float
    st_lru: float
    lru_reached: bool  # False when even the full space faults more than CD
    ws_tau: int
    mem_ws: float
    st_ws: float
    ws_reached: bool

    @property
    def pct_mem_lru(self) -> float:
        return percent_excess(self.mem_lru, self.mem_cd)

    @property
    def pct_mem_ws(self) -> float:
        return percent_excess(self.mem_ws, self.mem_cd)

    @property
    def pct_st_lru(self) -> float:
        return percent_excess(self.st_lru, self.st_cd)

    @property
    def pct_st_ws(self) -> float:
        return percent_excess(self.st_ws, self.st_cd)


def generate_table4(variants: Optional[List[CDVariant]] = None) -> List[Table4Row]:
    """Compute every row of Table 4."""
    rows = []
    for variant in variants or table34_rows():
        artifacts = table_artifacts(variant.workload, with_locks=variant.with_locks)
        cd = run_variant(variant)
        frames = artifacts.lru.min_frames_with_faults_at_most(cd.page_faults)
        lru_reached = frames is not None
        if frames is None:
            frames = max(artifacts.lru.max_useful_frames, 1)
        lru = artifacts.lru.result(frames)
        tau = artifacts.ws.min_tau_with_faults_at_most(cd.page_faults)
        ws_reached = tau is not None
        if tau is None:
            tau = max(cd.references, 1)  # the whole trace
        ws = artifacts.ws.result(tau)
        rows.append(
            Table4Row(
                label=variant.label,
                mem_cd=cd.mem_average,
                pf_cd=cd.page_faults,
                st_cd=cd.space_time,
                lru_frames=frames,
                mem_lru=lru.mem_average,
                st_lru=lru.space_time,
                lru_reached=lru_reached,
                ws_tau=tau,
                mem_ws=ws.mem_average,
                st_ws=ws.space_time,
                ws_reached=ws_reached,
            )
        )
    return rows


def render_table4(rows: Optional[List[Table4Row]] = None) -> str:
    rows = rows if rows is not None else generate_table4()
    return format_table(
        ["PROGRAM", "PF(CD)", "%MEM LRU", "%ST LRU", "%MEM WS", "%ST WS"],
        [
            (
                r.label,
                r.pf_cd,
                round(r.pct_mem_lru, 1),
                round(r.pct_st_lru, 1),
                round(r.pct_mem_ws, 1),
                round(r.pct_st_ws, 1),
            )
            for r in rows
        ],
        title=(
            "Table 4: The Cost of Generating The Same Number of Page Faults "
            "as CD by LRU and WS"
        ),
    )
