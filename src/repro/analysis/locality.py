"""Locality virtual-size calculus — the deterministic procedure the paper
defers to future work, reconstructed from its Figure-5 walkthrough.

For a loop ``L`` at level λ, the locality comprised by ``L`` is sized by
summing, over every array referenced inside ``L``'s subtree, the number
of pages of that array which participate in the locality.  The
contribution of a reference group (array ``A`` driven by loop ``M`` at
level μ, depth difference ``d = μ − λ``) follows the paper's rules:

=================  =====  ==================================================
Θ of the group       d    contribution (pages, always capped at AVS)
=================  =====  ==================================================
INVARIANT           any   ``X`` (distinct tuples — same pages re-referenced)
SEQUENTIAL (vec)     0    ``X`` ("a maximum of three pages of vector V…")
SEQUENTIAL (vec)    ≥1    AVS ("the entire virtual space of a vector
                          referenced at level λ≠1 contributes to all
                          higher level localities")
ROW_WISE             0    ``X_r · X_c`` (no locality at its own level)
ROW_WISE             1    ``X_r · N`` ("we use N instead of X_c … once a
                          row I is referenced all of its elements will be")
ROW_WISE            ≥2    AVS
COLUMN_WISE          0    ACTIVE_PAGE: ``X_r · X_c`` / CONSERVATIVE:
                          ``X_c · CVS`` (the walked column(s))
COLUMN_WISE          1    ``X_r · X_c`` when the column subscript is driven
                          by ``L`` itself (fresh column per iteration, the
                          DD case) else ``X_c · CVS`` (same columns re-walked)
COLUMN_WISE         ≥2    AVS ("contributes … at least two levels higher")
DIAGONAL             0    ``X`` (distinct tuples)
DIAGONAL            ≥1    AVS
=================  =====  ==================================================

A loop that references no arrays "does not form a locality"; its X is
the system-default minimum allocation (``min_pages``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.frontend import ast
from repro.frontend.symbols import SymbolTable
from repro.analysis.looptree import LoopNode, LoopTree
from repro.analysis.parameters import PageConfig, SizingStrategy
from repro.analysis.priority import assign_priority_indexes
from repro.analysis.reference_order import (
    ReferenceGroup,
    ReferenceOrder,
    classify_references,
    expression_variables,
)


@dataclass
class Contribution:
    """Pages one reference group contributes to one loop's locality."""

    array: str
    driver_loop_id: Optional[int]
    driver_level: Optional[int]
    order: ReferenceOrder
    depth_difference: Optional[int]
    pages: int
    rule: str


@dataclass
class LocalityReport:
    """Analysis result for one loop."""

    loop_id: int
    line: int
    var: str
    level: int  # Λ
    nest_depth: int  # Δ of the nest containing this loop
    priority_index: int  # PI from Procedure 1
    virtual_size: int  # X: pages of the locality comprised by this loop
    contributions: List[Contribution] = field(default_factory=list)
    #: True when some array contributed (False ⇒ virtual_size is the
    #: system-default minimum)
    forms_locality: bool = True


class LocalityAnalysis:
    """Whole-program locality analysis.

    Combines the loop tree (Δ, Λ), Procedure-1 priority indexes, and the
    per-loop locality virtual sizes, exposing them by ``loop_id``.
    """

    def __init__(
        self,
        program: ast.Program,
        symbols: SymbolTable,
        page_config: Optional[PageConfig] = None,
        strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
        min_pages: int = 1,
    ):
        if min_pages < 1:
            raise ValueError("min_pages must be at least 1")
        self.program = program
        self.symbols = symbols
        self.page_config = page_config or PageConfig()
        self.strategy = strategy
        self.min_pages = min_pages
        self.tree = LoopTree(program)
        self.priority = assign_priority_indexes(self.tree)
        self.reports: Dict[int, LocalityReport] = {}
        self._ranks = {name: info.rank for name, info in symbols.arrays.items()}
        for node in self.tree.nodes():
            self.reports[node.loop_id] = self._analyze_loop(node)

    # -- public queries ------------------------------------------------------

    def report_for(self, loop_id: int) -> LocalityReport:
        return self.reports[loop_id]

    @property
    def program_virtual_size(self) -> int:
        """V: total pages of the (page-aligned) array space."""
        return sum(
            self.page_config.array_virtual_size(info)
            for info in self.symbols.arrays.values()
        )

    # -- calculus --------------------------------------------------------------

    def _analyze_loop(self, node: LoopNode) -> LocalityReport:
        groups = classify_references(self.tree, node, self._ranks)
        contributions: List[Contribution] = []
        # Combine the groups of one array by summing, capped at AVS: the
        # paper's vector example "W = V(I) + V(I+1) + V(J)" counts three
        # pages even though V(J) is invariant within the loop containing
        # V.  The AVS cap keeps overlapping groups (the same array driven
        # by sibling loops) from counting the array more than once whole.
        per_array: Dict[str, int] = {}
        for group in groups:
            contribution = self._contribution(group, node)
            contributions.append(contribution)
            per_array[group.array] = per_array.get(group.array, 0) + contribution.pages
        total = 0
        for array, pages in per_array.items():
            avs = self.page_config.array_virtual_size(self.symbols.arrays[array])
            total += min(pages, avs)
        forms_locality = total > 0
        return LocalityReport(
            loop_id=node.loop_id,
            line=node.loop.line,
            var=node.var,
            level=node.level,
            nest_depth=self.tree.nest_depth(node),
            priority_index=self.priority[node.loop_id],
            virtual_size=max(total, self.min_pages),
            contributions=contributions,
            forms_locality=forms_locality,
        )

    def _contribution(self, group: ReferenceGroup, scope: LoopNode) -> Contribution:
        info = self.symbols.arrays[group.array]
        avs = self.page_config.array_virtual_size(info)
        cvs = self.page_config.column_virtual_size(info)
        order = group.order
        if group.driver is None:
            pages = min(group.x_total, avs)
            return self._make(group, scope, order, None, pages, "invariant: X tuples")
        d = group.driver.level - scope.level
        if group.rank == 1:
            if d == 0:
                pages, rule = min(group.x_total, avs), "vector d=0: X pages"
            else:
                pages, rule = avs, "vector d>=1: AVS"
        elif order is ReferenceOrder.ROW_WISE:
            if d == 0:
                pages, rule = (
                    min(group.x_row * group.x_col, avs),
                    "row-wise d=0: Xr*Xc active pages",
                )
            elif d == 1:
                pages, rule = (
                    min(group.x_row * info.columns, avs),
                    "row-wise d=1: Xr*N",
                )
            else:
                pages, rule = avs, "row-wise d>=2: AVS"
        elif order is ReferenceOrder.COLUMN_WISE:
            if d == 0:
                if self.strategy is SizingStrategy.CONSERVATIVE:
                    # The walked column(s) — but never below the live
                    # pages (a stencil can touch more rows than one
                    # column spans, e.g. Xr = 3 with a one-page column).
                    pages, rule = (
                        min(max(group.x_col * cvs, group.x_row * group.x_col), avs),
                        "column-wise d=0 (conservative): max(Xc*CVS, Xr*Xc)",
                    )
                else:
                    pages, rule = (
                        min(group.x_row * group.x_col, avs),
                        "column-wise d=0 (active-page): Xr*Xc",
                    )
            elif d == 1:
                if self._columns_driven_by(group, scope):
                    pages, rule = (
                        min(group.x_row * group.x_col, avs),
                        "column-wise d=1, fresh columns: Xr*Xc",
                    )
                else:
                    pages, rule = (
                        min(max(group.x_col * cvs, group.x_row * group.x_col), avs),
                        "column-wise d=1, re-walked columns: max(Xc*CVS, Xr*Xc)",
                    )
            else:
                pages, rule = avs, "column-wise d>=2: AVS"
        else:  # DIAGONAL
            if d == 0:
                pages, rule = min(group.x_total, avs), "diagonal d=0: X tuples"
            else:
                pages, rule = avs, "diagonal d>=1: AVS"
        return self._make(group, scope, order, d, pages, rule)

    @staticmethod
    def _columns_driven_by(group: ReferenceGroup, scope: LoopNode) -> bool:
        """True when any column subscript of the group depends on the
        scope loop's own variable (fresh columns every iteration)."""
        for ref in group.refs:
            if scope.var in expression_variables(ref.indices[1]):
                return True
        return False

    @staticmethod
    def _make(
        group: ReferenceGroup,
        scope: LoopNode,
        order: ReferenceOrder,
        d: Optional[int],
        pages: int,
        rule: str,
    ) -> Contribution:
        return Contribution(
            array=group.array,
            driver_loop_id=group.driver.loop_id if group.driver else None,
            driver_level=group.driver.level if group.driver else None,
            order=order,
            depth_difference=d,
            pages=pages,
            rule=rule,
        )


def analyze_program(
    program: ast.Program,
    symbols: Optional[SymbolTable] = None,
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    min_pages: int = 1,
) -> LocalityAnalysis:
    """Convenience wrapper: resolve symbols (when not given) and analyze."""
    if symbols is None:
        symbols = SymbolTable.from_program(program)
    return LocalityAnalysis(
        program,
        symbols,
        page_config=page_config,
        strategy=strategy,
        min_pages=min_pages,
    )
