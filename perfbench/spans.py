"""Traced-run layer accounting.

A :class:`Tracer` records spans — name, layer, start, end, parent and
request id — around the calls the benchmark makes into each layer, and
around the layer functions those calls reach (installed by
:func:`install_probes`, which rebinds the functions in the loaded
``repro`` modules; the program's code is not edited).  Spans stay in
memory and are written as JSON when the process ends.

:func:`layer_report` turns spans from any number of processes into
self time per layer: a span's duration minus the part of it its child
spans cover.  Request spans (layer ``request``) wrap one table, program
or submission; their self time is the time no layer span covers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

#: the repository's layers, named after its modules
LAYERS = (
    "cli",
    "frontend",
    "analysis",
    "directives",
    "staticcheck",
    "tracegen",
    "vm.analyzers",
    "vm.fastsim",
    "vm.simulator",
    "vm.stream",
    "vm.multiprog",
    "symbolic",
    "staticloc",
    "experiments",
    "engine",
    "service",
    "oracle",
)

REQUEST = "request"


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[dict] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> Optional[str]:
        return getattr(self._local, "request", None)

    @contextlib.contextmanager
    def span(self, name: str, layer: str, request: Optional[str] = None):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        previous = self.request
        if request is not None:
            self._local.request = request
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self._local.request = previous
            self.add(name, layer, start, end, parent, request or previous, span_id)

    def add(
        self,
        name: str,
        layer: str,
        start: float,
        end: float,
        parent: Optional[int],
        request: Optional[str] = None,
        span_id: Optional[int] = None,
    ) -> int:
        """Record a span whose times were measured elsewhere."""
        span_id = span_id if span_id is not None else next(self._ids)
        record = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "layer": layer,
            "start": start,
            "end": end,
            "request": request,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        with self._lock:
            self.spans.append(record)
        return span_id

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, layer):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    # -- persistence ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        Path(path).write_text(
            json.dumps({"spans": self.spans, "counts": dict(self.counts)})
        )

    def adopt(self, dump: dict, parent: Optional[int] = None) -> None:
        """Merge a child process's dump; its root spans become children
        of ``parent`` (the span that waited for the child)."""
        ids = {}
        for span in dump["spans"]:
            ids[span["id"]] = next(self._ids)
        pid, tid = os.getpid(), threading.get_ident()
        with self._lock:
            for span in dump["spans"]:
                merged = dict(span, id=ids[span["id"]], pid=pid, tid=tid)
                merged["parent"] = ids.get(span["parent"], parent)
                self.spans.append(merged)
            for name, amount in dump["counts"].items():
                self.counts[name] += amount


def load_dump(path: Path) -> dict:
    return json.loads(Path(path).read_text())


# -- probes -----------------------------------------------------------------------


def _rebind(old: Callable, new: Callable) -> int:
    """Replace every module-level binding of ``old`` in loaded repro
    modules (``from x import f`` copies included)."""
    hits = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                hits += 1
    return hits


def install_probes(tracer: Tracer, probes: Iterable[tuple]) -> None:
    """Install ``(module, qualname, span name, layer[, on_result])``
    probes: functions are rebound wherever they were imported,
    methods are replaced on their class."""
    for probe in probes:
        module_name, qualname, name, layer = probe[:4]
        on_result = probe[4] if len(probe) > 4 else None
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(original, name, layer, on_result))
        else:
            original = getattr(module, attr)
            _rebind(original, tracer.wrap(original, name, layer, on_result))


# -- accounting -------------------------------------------------------------------


def self_times(spans: List[dict]) -> List[tuple]:
    """``(span, self seconds)`` for every span: its duration minus the
    union of its children's intervals (children share its process)."""
    children: Dict[tuple, List[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append(span)
    out = []
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get((span["pid"], span["id"]), ()), key=lambda s: s["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span, max(0.0, span["end"] - span["start"] - covered)))
    return out


def layer_report(spans: List[dict]) -> Dict[str, float]:
    """Self seconds per layer, plus ``unattributed.self_s``: the part of
    every request span no layer span covers."""
    totals = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    totals["unattributed.self_s"] = 0.0
    for span, seconds in self_times(spans):
        if span["layer"] == REQUEST:
            totals["unattributed.self_s"] += seconds
        else:
            totals[f"{span['layer']}.self_s"] += seconds
    return totals


def total_by_name(spans: List[dict], name: str) -> float:
    """Summed duration (not self time) of every span called ``name``."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
