"""Lazy (PEP 562) re-exports for package ``__init__`` modules.

A package ``__init__`` that re-exports names from its submodules
imports every one of them — numpy, the trace interpreter, the engine
supervisor — the moment *any* submodule of the package is imported.
:func:`lazy_exports` defers each submodule import to the first access
of a name it provides, so ``from repro.vm import simulate`` works as
before while ``import repro.vm.metrics`` stays cheap.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each submodule (relative, e.g. ``".simulator"``)
    to the public names it defines.  A name is imported on first
    access and then cached in the package namespace.
    """
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
