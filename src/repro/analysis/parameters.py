"""Page geometry and the Σ-derived size parameters (AVS, CVS).

The paper's experiments "assume a paged system with a 256 byte page
size"; FORTRAN REALs of the era were 4 bytes, giving 64 elements per
page.  Both are configurable so experiments can sweep the geometry.

Definitions from Section 2 of the paper:

* ``AVS = (M × N) / P`` — the virtual size of an array, in pages;
* ``CVS = M / P`` — the virtual size of one array column, in pages.

We round up (an array occupying any part of a page occupies the page)
and lay arrays out page-aligned, which makes AVS additive across arrays.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.frontend.symbols import ArrayInfo


class SizingStrategy(enum.Enum):
    """How to size a column walked at its own level (d = 0).

    ACTIVE_PAGE follows the Figure-5 walkthrough (count pages live at one
    instant); CONSERVATIVE follows the Figure-1 narrative (the whole
    column is the locality).  CONSERVATIVE allocations are never smaller.

    Defined here, beside :class:`PageConfig`, because both name every
    artifact-cache entry and must import without the analysis itself;
    :mod:`repro.analysis.locality` re-exports it.
    """

    ACTIVE_PAGE = "active-page"
    CONSERVATIVE = "conservative"


@dataclass(frozen=True)
class PageConfig:
    """System-dependent geometry: page size and element width.

    ``page_bytes`` is the paper's parameter ``P`` (in bytes);
    ``word_bytes`` is the storage size of one REAL array element.
    """

    page_bytes: int = 256
    word_bytes: int = 4

    def __post_init__(self) -> None:
        if self.page_bytes <= 0 or self.word_bytes <= 0:
            raise ValueError("page_bytes and word_bytes must be positive")
        if self.page_bytes % self.word_bytes != 0:
            raise ValueError("page size must be a whole number of elements")

    @property
    def elements_per_page(self) -> int:
        """Array elements per page (the ``P`` used in AVS/CVS formulas)."""
        return self.page_bytes // self.word_bytes

    def pages_for_elements(self, element_count: int) -> int:
        """Number of pages needed for ``element_count`` contiguous elements."""
        if element_count < 0:
            raise ValueError("element_count must be non-negative")
        return math.ceil(element_count / self.elements_per_page)

    def array_virtual_size(self, info: ArrayInfo) -> int:
        """AVS: pages spanned by the whole (page-aligned) array."""
        return self.pages_for_elements(info.element_count)

    def column_virtual_size(self, info: ArrayInfo) -> int:
        """CVS: pages spanned by one column (``ceil(M / P)``).

        For vectors this is the same as AVS (a vector is its own single
        column, the paper's ``N = 1`` convention).
        """
        return self.pages_for_elements(info.rows)

    def page_of_element(self, linear_index: int) -> int:
        """Page number (within the array) of a 0-based linear element index."""
        if linear_index < 0:
            raise ValueError("linear_index must be non-negative")
        return linear_index // self.elements_per_page
