"""Static (closed-form) per-workload artifacts: the ``static`` tier.

:func:`static_artifacts_for` builds them through the artifact store
(:func:`repro.experiments.runner.build_artifacts`) with the hooks
below: generation partially evaluates the program into a
:class:`~repro.analysis.staticloc.string.StaticString` — the flat
reference string is never materialized, recipe-tier nests contribute
their run journal in closed form straight from the affine subscripts,
and the weighted analyzers and CD structure walk run on the surrogate
built with :meth:`Surrogate.from_parts`.  Every number matches the
trace-backed and symbolic artifacts exactly (Table 2 produced any of
the three ways is identical); only the cost differs.

Two exact fallbacks remain for CD configurations the structure walk
cannot serve (a memory ceiling, honored LOCKs, or a journal the walk
rejects): a LOCK-instrumented execution compiles nothing, so its
string is fully literal and materializes for free; anything else
regenerates the trace once and counts it in ``gen_stats`` — visible,
never silent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro import formats
from repro.analysis.locality import SizingStrategy
from repro.analysis.parameters import PageConfig
from repro.analysis.staticloc.interp import generate_static_string
from repro.analysis.staticloc.string import StaticString
from repro.analysis.symbolic.artifacts import (
    SurrogateArtifacts,
    runs_from_arrays,
    runs_to_arrays,
    surrogate_analyzers,
    sweep_arrays,
)
from repro.analysis.symbolic.runtrace import RunTrace
from repro.experiments.runner import build_artifacts
from repro.tracegen.events import ReferenceTrace
from repro.tracegen.interpreter import generate_trace
from repro.tracegen.io import _event_from_dict, _event_to_dict
from repro.workloads import get_workload

__all__ = ["StaticArtifacts", "static_artifacts_for"]


@dataclass
class StaticArtifacts(SurrogateArtifacts):
    """Everything the experiments need, derived without any trace."""

    _exact: Optional[ReferenceTrace] = field(default=None, repr=False)

    @property
    def string(self) -> StaticString:
        """The closed-form reference string (no flat pages)."""
        return self.runtrace.trace

    def _exact_trace(self) -> ReferenceTrace:
        """The flat trace, for the CD configurations the walk cannot
        serve.  Free for fully literal strings; otherwise a counted
        one-time regeneration."""
        if self._exact is None:
            if self.string.fully_literal:
                self._exact = self.string.to_reference_trace()
            else:
                self.gen_stats["exact_fallback_traces"] = (
                    self.gen_stats.get("exact_fallback_traces", 0) + 1
                )
                workload = get_workload(self.name)
                self._exact = generate_trace(
                    workload.program(),
                    plan=self.plan,
                    symbols=workload.symbols(),
                )
        return self._exact


# -- the static tier's hooks -----------------------------------------------------


def generate(program, plan, symbols, page_config, stats) -> StaticString:
    # FORAY-GEN affine recovery: rewrite recoverable CD301 sites so the
    # closed-form compiler sees affine subscripts.  The rewrite is
    # trace-equivalent by construction (and re-proven by the static
    # oracle battery), so the string is unchanged — only how much of it
    # the recipe/closed-form tiers can serve.
    from repro.staticcheck.recovery import recover_program

    recovery = recover_program(program, symbols=symbols)
    stats["recovered_sites"] = len(recovery.sites)
    return generate_static_string(
        recovery.program,
        plan=plan,
        symbols=symbols,
        page_config=page_config,
        stats=stats,
    )


def encode(artifacts: StaticArtifacts, ws_best: np.ndarray, paths) -> None:
    (path,) = paths
    string = artifacts.string
    header = {
        "static_format": formats.STATIC_FORMAT,
        "program_name": string.program_name,
        "n_references": string.n_references,
        "total_pages": string.total_pages,
        "truncated": string.truncated,
        "array_pages": {
            name: [first, count]
            for name, (first, count) in string.array_pages.items()
        },
        "directives": [_event_to_dict(d) for d in string.directives],
    }
    np.savez(
        path,
        header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        kept_pos=string.kept_pos,
        kept_pages=string.kept_pages,
        **runs_to_arrays(string.runs, "run_"),
        distances=artifacts.lru._distances,
        distinct=artifacts.lru._distinct,
        ws_best=ws_best,
    )


def decode(paths) -> Tuple[StaticString, Dict[str, np.ndarray]]:
    (path,) = paths
    with np.load(path) as arrays:
        header = json.loads(arrays["header"].tobytes().decode("utf-8"))
        if header.get("static_format") != formats.STATIC_FORMAT:
            raise ValueError(f"static cache format {header.get('static_format')}")
        string = StaticString(
            program_name=header["program_name"],
            n_references=int(header["n_references"]),
            total_pages=int(header["total_pages"]),
            directives=[_event_from_dict(d) for d in header["directives"]],
            array_pages={
                name: (int(first), int(count))
                for name, (first, count) in header["array_pages"].items()
            },
            truncated=bool(header["truncated"]),
            kept_pos=arrays["kept_pos"].astype(np.int64),
            kept_pages=arrays["kept_pages"].astype(np.int32),
            runs=runs_from_arrays(arrays, "run_"),
        )
        return string, sweep_arrays(arrays)


def assemble(name, analysis, plan, string: StaticString, sweeps, gen_stats=None):
    lru, ws = surrogate_analyzers(string.surrogate(), sweeps, name)
    return StaticArtifacts(
        name=name,
        analysis=analysis,
        plan=plan,
        runtrace=RunTrace(string, string.runs),
        lru=lru,
        ws=ws,
        gen_stats=gen_stats or {},
    )


def static_artifacts_for(
    name: str,
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    with_locks: bool = False,
) -> StaticArtifacts:
    """Build (or fetch) the static artifacts for one benchmark."""
    return build_artifacts("static", name, page_config, strategy, with_locks)
