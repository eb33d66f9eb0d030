"""Correctness gates, applied outside the timed regions.

Each gate returns a list of failure messages (empty = correct); the
workloads turn every message into one failed operation rather than
raising, so a wrong answer never crashes a run.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from perfbench.common import ROOT


def golden_tables() -> Dict[str, str]:
    """``results/table{1..4}.txt``: what every table render must print."""
    return {
        which: (ROOT / "results" / f"table{which}.txt").read_text()
        for which in ("1", "2", "3", "4")
    }


def table_failures(which: str, printed: str, goldens: Mapping[str, str]) -> List[str]:
    """A render's stdout must be byte-equal to the golden file (every
    mode of Table 2 prints the same rows)."""
    if printed == goldens[which]:
        return []
    for line_no, (got, want) in enumerate(
        zip(printed.splitlines(), goldens[which].splitlines()), 1
    ):
        if got != want:
            return [f"table {which} line {line_no}: {got!r} != {want!r}"]
    return [f"table {which}: {len(printed)} bytes != golden {len(goldens[which])}"]


def service_job_failures(
    job: str,
    state: str,
    payloads: Optional[Mapping[str, dict]],
    goldens: Mapping[str, str],
) -> List[str]:
    """A service job must settle ``done``; its table payloads must equal
    the golden files and its oracle payloads must carry no failures."""
    if state != "done":
        return [f"job {job} settled {state!r}"]
    out: List[str] = []
    for spec, payload in sorted((payloads or {}).items()):
        if spec.startswith("table:"):
            out += table_failures(payload["which"], payload["text"] + "\n", goldens)
        elif spec.startswith("oracle:"):
            if payload.get("failures"):
                out.append(f"{spec}: oracle failures {payload['failures'][:2]}")
            if not payload.get("seeds_run"):
                out.append(f"{spec}: ran no seeds")
    return out
