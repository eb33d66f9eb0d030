"""Trace representation: dense reference string + sparse directives.

A trace is the page-reference string of one program execution, stored as
a numpy ``int32`` array for fast replay, together with the directive
events the instrumented program executed.  Each directive event is
stamped with its *position*: the index of the reference before which it
fires.  Policies that ignore directives (LRU, WS, FIFO, OPT, …) replay
``pages`` directly; the CD policy merges the two streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.directives.model import AllocateRequest

if TYPE_CHECKING:
    import numpy as np


class DirectiveKind(enum.Enum):
    ALLOCATE = "allocate"
    LOCK = "lock"
    UNLOCK = "unlock"


@dataclass(frozen=True)
class DirectiveEvent:
    """One executed directive, resolved to run-time values.

    ``position`` — fires before ``ReferenceTrace.pages[position]``
    (``position == len(pages)`` means after the last reference).
    ``site`` — the ``loop_id`` the directive was inserted at; a LOCK
    executed again at the same site supersedes the pages it locked
    there previously (the pin follows the moving locality).
    """

    position: int
    kind: DirectiveKind
    site: int
    requests: Tuple[AllocateRequest, ...] = ()
    lock_pages: Tuple[int, ...] = ()
    priority_index: int = 0  # PJ for LOCK events

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ValueError("position must be non-negative")
        if self.kind is DirectiveKind.ALLOCATE and not self.requests:
            raise ValueError("ALLOCATE event needs requests")
        if self.kind is DirectiveKind.LOCK and self.priority_index < 2:
            raise ValueError("LOCK event needs PJ >= 2")


@dataclass
class ReferenceTrace:
    """The page-reference string of one execution."""

    program_name: str
    pages: np.ndarray  # int32 page numbers, one per array-element access
    total_pages: int  # V: size of the virtual page space
    directives: List[DirectiveEvent] = field(default_factory=list)
    #: first_page/page_count per array, for diagnostics and reports
    array_pages: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: True when generation stopped at the reference cap
    truncated: bool = False

    def __post_init__(self) -> None:
        # numpy is imported here, not at module level: the directive
        # event types above must load without it (the CD policy's
        # configuration imports them on every table render).
        import numpy as np

        self.pages = np.asarray(self.pages, dtype=np.int32)
        positions = [d.position for d in self.directives]
        if positions != sorted(positions):
            raise ValueError("directive events must be position-ordered")
        if len(self.pages) and self.pages.min() < 0:
            raise ValueError("negative page number in trace")
        if len(self.pages) and self.total_pages <= int(self.pages.max()):
            raise ValueError("total_pages smaller than a referenced page")

    @property
    def length(self) -> int:
        """R: the reference-string length."""
        return int(len(self.pages))

    @property
    def distinct_pages(self) -> int:
        """Number of distinct pages actually referenced."""
        import numpy as np

        if not len(self.pages):
            return 0
        return int(len(np.unique(self.pages)))

    def footprint_by_array(self) -> Dict[str, int]:
        """Distinct pages referenced, per array."""
        import numpy as np

        result: Dict[str, int] = {}
        if not len(self.pages):
            return {name: 0 for name in self.array_pages}
        unique = np.unique(self.pages)
        for name, (first, count) in self.array_pages.items():
            mask = (unique >= first) & (unique < first + count)
            result[name] = int(mask.sum())
        return result

    def without_directives(self) -> "ReferenceTrace":
        """A copy that carries no directive events (for baseline runs)."""
        return ReferenceTrace(
            program_name=self.program_name,
            pages=self.pages,
            total_pages=self.total_pages,
            directives=[],
            array_pages=dict(self.array_pages),
            truncated=self.truncated,
        )

    def summary(self) -> str:
        return (
            f"{self.program_name}: R={self.length} references, "
            f"V={self.total_pages} pages ({self.distinct_pages} touched), "
            f"{len(self.directives)} directive events"
        )
