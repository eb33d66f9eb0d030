"""Registry of the nine benchmark programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.workloads import (
    approx,
    conduct,
    fdjac,
    field as field_mod,
    hwscrt,
    hybrj,
    init,
    main_driver,
    tql,
)

if TYPE_CHECKING:
    from repro.frontend import ast
    from repro.frontend.symbols import SymbolTable


@dataclass
class Workload:
    """One benchmark program: source text plus lazily parsed artifacts.

    The frontend is imported on first parse: a warm table render needs
    only the source text (it names the cache entry), never the AST.
    """

    name: str
    source: str
    description: str
    origin: str  # the package family the paper drew the program from
    _program: Optional[ast.Program] = field(default=None, repr=False)
    _symbols: Optional[SymbolTable] = field(default=None, repr=False)

    def program(self) -> ast.Program:
        """The parsed program (cached)."""
        if self._program is None:
            from repro.frontend.parser import parse_source

            self._program = parse_source(self.source)
        return self._program

    def symbols(self) -> SymbolTable:
        """The resolved symbol table (cached)."""
        if self._symbols is None:
            from repro.frontend.symbols import SymbolTable

            self._symbols = SymbolTable.from_program(self.program())
        return self._symbols


_CATALOG: Dict[str, Workload] = {}


def _register(name: str, module, description: str, origin: str) -> None:
    _CATALOG[name] = Workload(
        name=name, source=module.SOURCE, description=description, origin=origin
    )


_register(
    "MAIN",
    main_driver,
    "atmospheric-model driver: 3-deep time-stepping nest",
    "UIARL",
)
_register("FDJAC", fdjac, "forward-difference Jacobian (fdjac2)", "MINPACK")
_register("TQL", tql, "tridiagonal QL eigensolver with eigenvectors (tql2)", "EISPACK")
_register("FIELD", field_mod, "Jacobi relaxation of a potential field", "NRL")
_register("INIT", init, "mixed-order array initialization kernel", "AFWL")
_register("APPROX", approx, "Chebyshev least-squares fit", "ACM")
_register("HYBRJ", hybrj, "Powell hybrid step with analytic Jacobian", "MINPACK")
_register("CONDUCT", conduct, "explicit heat conduction, 270-page grid", "IEEE")
_register("HWSCRT", hwscrt, "Helmholtz solver on a rectangle (SOR)", "FISHPACK")


def workload_names() -> List[str]:
    """Names of all nine benchmark programs, in catalog order."""
    return list(_CATALOG)


def get_workload(name: str) -> Workload:
    """Look up one benchmark by (case-insensitive) name."""
    try:
        return _CATALOG[name.upper()]
    except KeyError:
        known = ", ".join(_CATALOG)
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def all_workloads() -> List[Workload]:
    """All nine benchmarks, in catalog order."""
    return list(_CATALOG.values())
