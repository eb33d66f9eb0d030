"""Trace persistence: save/load reference traces with their directives.

The paper's methodology separates trace *generation* from trace
*consumption* ("Traces of array references were generated for 9
numerical programs … A virtual memory simulator is used to simulate
program behavior").  Persisting traces supports the same separation
here: generate once, replay many times (or on another machine), and
keep the directive events with the pages.

Two formats:

* a single ``.npz`` file holding the page array plus a JSON header
  (program name, page space, array layout, truncation flag, and the
  directive events with their ALLOCATE request lists) — right for
  traces that fit in RAM;
* a **sharded directory** (``manifest.json`` + fixed-size ``.npy``
  shards) written incrementally by :class:`ShardedTraceWriter` and read
  back mmap-backed by :func:`open_sharded_trace` — right for traces
  that must never be materialized whole.  The reader plugs directly
  into the streaming engine (:mod:`repro.vm.stream`) via its
  ``as_chunks`` adapter, so simulation peak memory is bounded by the
  chunk size regardless of trace length.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.directives.model import AllocateRequest
from repro.formats import TRACE_FORMAT
from repro.tracegen.events import DirectiveEvent, DirectiveKind, ReferenceTrace

#: bumped (in :mod:`repro.formats`) on any incompatible change to the
#: on-disk layout (v2: companion sweep-array archives, version-stamped
#: like traces)
FORMAT_VERSION = TRACE_FORMAT


def _event_to_dict(event: DirectiveEvent) -> dict:
    return {
        "position": event.position,
        "kind": event.kind.value,
        "site": event.site,
        "requests": [
            [r.priority_index, r.pages] for r in event.requests
        ],
        "lock_pages": list(event.lock_pages),
        "priority_index": event.priority_index,
    }


def _event_from_dict(data: dict) -> DirectiveEvent:
    return DirectiveEvent(
        position=int(data["position"]),
        kind=DirectiveKind(data["kind"]),
        site=int(data["site"]),
        requests=tuple(
            AllocateRequest(priority_index=int(pi), pages=int(x))
            for pi, x in data["requests"]
        ),
        lock_pages=tuple(int(p) for p in data["lock_pages"]),
        priority_index=int(data["priority_index"]),
    )


def save_trace(
    trace: ReferenceTrace, path: Union[str, Path], compress: bool = True
) -> Path:
    """Write ``trace`` to ``path`` (``.npz`` appended when missing).

    ``compress=False`` trades disk for wall time — right for cache
    files that are rewritten often, wrong for archival traces.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    header = {
        "format_version": FORMAT_VERSION,
        "program_name": trace.program_name,
        "total_pages": trace.total_pages,
        "truncated": trace.truncated,
        "array_pages": {
            name: [first, count]
            for name, (first, count) in trace.array_pages.items()
        },
        "directives": [_event_to_dict(d) for d in trace.directives],
    }
    writer = np.savez_compressed if compress else np.savez
    writer(
        path,
        pages=trace.pages,
        header=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
    )
    return path


def load_trace(path: Union[str, Path]) -> ReferenceTrace:
    """Read a trace previously written by :func:`save_trace`."""
    path = Path(path)
    with np.load(path) as archive:
        try:
            pages = archive["pages"]
            header_bytes = archive["header"].tobytes()
        except KeyError as err:
            raise ValueError(f"{path} is not a saved trace: missing {err}") from None
    header = json.loads(header_bytes.decode("utf-8"))
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path} uses trace format {version}; this build reads "
            f"{FORMAT_VERSION}"
        )
    return ReferenceTrace(
        program_name=header["program_name"],
        pages=pages.astype(np.int32),
        total_pages=int(header["total_pages"]),
        directives=[_event_from_dict(d) for d in header["directives"]],
        array_pages={
            name: (int(first), int(count))
            for name, (first, count) in header["array_pages"].items()
        },
        truncated=bool(header["truncated"]),
    )


def save_sweeps(
    arrays: Dict[str, np.ndarray], path: Union[str, Path]
) -> Path:
    """Write precomputed sweep arrays (LRU distances, WS gaps, …) to a
    version-stamped ``.npz`` companion of a saved trace."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    stamped = dict(arrays)
    stamped["format_version"] = np.array(FORMAT_VERSION, dtype=np.int64)
    # Uncompressed: these are cache files, and deflate costs more wall
    # time per table run than the disk it saves.
    np.savez(path, **stamped)
    return path


def load_sweeps(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Read sweep arrays written by :func:`save_sweeps`."""
    path = Path(path)
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    version = int(arrays.pop("format_version", -1))
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path} uses sweep format {version}; this build reads "
            f"{FORMAT_VERSION}"
        )
    return arrays


# -- sharded on-disk traces ----------------------------------------------------

#: references per shard file (int32 → 16 MiB per shard)
DEFAULT_SHARD_SIZE = 1 << 22

_MANIFEST = "manifest.json"


def _shard_name(index: int) -> str:
    return f"shard-{index:05d}.npy"


class ShardedTraceWriter:
    """Incrementally write a trace as fixed-size ``.npy`` shards.

    ``append`` takes page batches of any length; every shard except the
    last holds exactly ``shard_size`` references, so readers locate any
    global position arithmetically.  ``close`` (or the context manager
    exit) writes ``manifest.json`` last — a directory without a
    manifest is an aborted write, never a readable trace.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        program_name: str,
        total_pages: int,
        shard_size: int = DEFAULT_SHARD_SIZE,
        directives: Sequence[DirectiveEvent] = (),
        array_pages: Optional[Dict[str, tuple]] = None,
        truncated: bool = False,
    ):
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.program_name = program_name
        self.total_pages = total_pages
        self.shard_size = shard_size
        self.directives = list(directives)
        self.array_pages = dict(array_pages or {})
        self.truncated = truncated
        self.length = 0
        self._pending: List[np.ndarray] = []
        self._pending_len = 0
        self._shards: List[dict] = []
        self._closed = False

    def __enter__(self) -> "ShardedTraceWriter":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            self.close()

    def append(self, pages: np.ndarray) -> None:
        if self._closed:
            raise ValueError("writer is closed")
        pages = np.asarray(pages, dtype=np.int32)
        if pages.ndim != 1:
            raise ValueError("page batches must be one-dimensional")
        if len(pages) == 0:
            return
        if pages.min() < 0 or int(pages.max()) >= self.total_pages:
            raise ValueError("page number outside [0, total_pages)")
        self._pending.append(pages)
        self._pending_len += len(pages)
        self.length += len(pages)
        while self._pending_len >= self.shard_size:
            self._flush_shard()

    def _flush_shard(self) -> None:
        take = min(self._pending_len, self.shard_size)
        if take == 0:
            return
        out = np.empty(take, dtype=np.int32)
        filled = 0
        while filled < take:
            head = self._pending[0]
            room = take - filled
            if len(head) <= room:
                out[filled : filled + len(head)] = head
                filled += len(head)
                self._pending.pop(0)
            else:
                out[filled:] = head[:room]
                self._pending[0] = head[room:]
                filled = take
        self._pending_len -= take
        name = _shard_name(len(self._shards))
        np.save(self.directory / name, out)
        self._shards.append({"file": name, "length": take})

    def close(self) -> Path:
        """Flush trailing pages and write the manifest. Idempotent."""
        if self._closed:
            return self.directory / _MANIFEST
        while self._pending_len:
            self._flush_shard()
        positions = [d.position for d in self.directives]
        if positions != sorted(positions):
            raise ValueError("directive events must be position-ordered")
        manifest = {
            "format_version": FORMAT_VERSION,
            "kind": "sharded-trace",
            "program_name": self.program_name,
            "total_pages": self.total_pages,
            "truncated": self.truncated,
            "length": self.length,
            "shard_size": self.shard_size,
            "shards": self._shards,
            "array_pages": {
                name: [first, count]
                for name, (first, count) in self.array_pages.items()
            },
            "directives": [_event_to_dict(d) for d in self.directives],
        }
        path = self.directory / _MANIFEST
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(manifest, indent=1) + "\n")
        os.replace(tmp, path)
        self._closed = True
        return path


def save_trace_sharded(
    trace: ReferenceTrace,
    directory: Union[str, Path],
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> Path:
    """Write an in-RAM trace in the sharded format; returns the manifest."""
    writer = ShardedTraceWriter(
        directory,
        program_name=trace.program_name,
        total_pages=trace.total_pages,
        shard_size=shard_size,
        directives=trace.directives,
        array_pages=trace.array_pages,
        truncated=trace.truncated,
    )
    writer.append(trace.pages)
    return writer.close()


class _ShardedChunks:
    """Chunk source over a :class:`ShardedTrace` (one mmap window live)."""

    def __init__(self, trace: "ShardedTrace", chunk_size: int):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.trace = trace
        self.chunk_size = chunk_size

    @property
    def program_name(self) -> str:
        return self.trace.program_name

    @property
    def total_pages(self) -> int:
        return self.trace.total_pages

    @property
    def length(self) -> int:
        return self.trace.length

    @property
    def directives(self):
        return self.trace.directives

    def chunks(self):
        from repro.vm.stream.chunks import TraceChunk

        n = self.trace.length
        for base in range(0, n, self.chunk_size):
            stop = min(base + self.chunk_size, n)
            yield TraceChunk(
                pages=self.trace.read(base, stop),
                base=base,
                is_last=stop == n,
            )


class ShardedTrace:
    """Read side of the sharded format: metadata + windowed page access.

    Shards are opened mmap-backed on first touch and at most one is
    held open at a time, so sequential streaming keeps O(chunk) bytes
    resident however long the trace is.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        path = self.directory / _MANIFEST
        if not path.exists():
            raise ValueError(
                f"{self.directory} is not a sharded trace: no {_MANIFEST} "
                "(aborted or foreign directory)"
            )
        manifest = json.loads(path.read_text())
        version = manifest.get("format_version")
        if version != FORMAT_VERSION or manifest.get("kind") != "sharded-trace":
            raise ValueError(
                f"{path} uses format {version!r}/{manifest.get('kind')!r}; "
                f"this build reads sharded-trace v{FORMAT_VERSION}"
            )
        self.program_name = manifest["program_name"]
        self.total_pages = int(manifest["total_pages"])
        self.truncated = bool(manifest["truncated"])
        self.length = int(manifest["length"])
        self.shard_size = int(manifest["shard_size"])
        self.directives = [
            _event_from_dict(d) for d in manifest["directives"]
        ]
        self.array_pages = {
            name: (int(first), int(count))
            for name, (first, count) in manifest["array_pages"].items()
        }
        self._shards = manifest["shards"]
        declared = sum(int(s["length"]) for s in self._shards)
        if declared != self.length:
            raise ValueError(
                f"{path}: shard lengths sum to {declared} but the "
                f"manifest declares {self.length} references"
            )
        self._open_index = -1
        self._open_pages: Optional[np.ndarray] = None

    def _shard_pages(self, index: int) -> np.ndarray:
        if index == self._open_index:
            return self._open_pages
        meta = self._shards[index]
        path = self.directory / meta["file"]
        want = int(meta["length"])
        try:
            pages = np.load(path, mmap_mode="r")
        except Exception as err:
            raise ValueError(
                f"shard {path} is unreadable ({type(err).__name__}: {err}); "
                "the trace was truncated or corrupted on disk"
            ) from None
        if pages.ndim != 1 or len(pages) != want:
            raise ValueError(
                f"shard {path} holds {pages.shape} int32 values but the "
                f"manifest declares {want}; the trace was truncated or "
                "corrupted on disk"
            )
        self._open_index = index
        self._open_pages = pages
        return pages

    def read(self, start: int, stop: int) -> np.ndarray:
        """Pages in ``[start, stop)`` — a zero-copy mmap slice when the
        window lies inside one shard, a small concatenation otherwise."""
        if not 0 <= start <= stop <= self.length:
            raise ValueError(f"window [{start}, {stop}) outside the trace")
        if start == stop:
            return np.empty(0, dtype=np.int32)
        first = start // self.shard_size
        last = (stop - 1) // self.shard_size
        if first == last:
            pages = self._shard_pages(first)
            lo = start - first * self.shard_size
            return pages[lo : lo + (stop - start)]
        parts = []
        at = start
        for index in range(first, last + 1):
            pages = self._shard_pages(index)
            lo = at - index * self.shard_size
            take = min(stop, (index + 1) * self.shard_size) - at
            parts.append(np.asarray(pages[lo : lo + take]))
            at += take
        return np.concatenate(parts)

    def as_chunks(self, chunk_size: int) -> _ShardedChunks:
        """Adapter consumed by :func:`repro.vm.stream.as_chunk_source`."""
        return _ShardedChunks(self, chunk_size)

    def to_reference_trace(self) -> ReferenceTrace:
        """Materialize the whole trace in RAM (small traces, tests)."""
        return ReferenceTrace(
            program_name=self.program_name,
            pages=self.read(0, self.length),
            total_pages=self.total_pages,
            directives=list(self.directives),
            array_pages=dict(self.array_pages),
            truncated=self.truncated,
        )

    def summary(self) -> str:
        return (
            f"{self.program_name}: R={self.length} references in "
            f"{len(self._shards)} shard(s) of {self.shard_size}, "
            f"V={self.total_pages} pages, "
            f"{len(self.directives)} directive events"
        )


def open_sharded_trace(directory: Union[str, Path]) -> ShardedTrace:
    """Open a directory written by :class:`ShardedTraceWriter`."""
    return ShardedTrace(directory)
