"""Engine self-checks for the oracle: chaos in, invariants out.

The differential battery proves the *paging* fast paths; these checks
prove the *supervision* layer the sweeps run under, by injecting faults
with :mod:`repro.engine.chaos` and asserting the engine's contract
(``engine-*`` check ids):

* ``engine-retry`` — with ``inject-exception`` chaos under the retry
  budget, every job still completes, every injection surfaces as a
  ``JobRetry`` event, and the results equal a chaos-free run;
* ``engine-resume`` — ``kill-worker`` chaos past the retry budget
  fails a job (and cascades to its dependents), and resuming from the
  run ledger completes the sweep with payloads identical to an
  uninterrupted run;
* ``engine-ledger`` — the JSONL ledger round-trips, tolerates a torn
  trailing line, and refuses a checkpoint whose params fingerprint
  changed;
* ``engine-heal`` — corrupting a persisted artifact-cache archive is
  repaired transparently: the bad entry is quarantined as
  ``*.npz.<pid>-<seq>.corrupt``, a warning is logged, and the rebuilt artifacts
  produce identical CD results;
* ``engine-answers`` — every answer the artifact cache's answer tier
  (:mod:`repro.experiments.answers`) serves for the Table 1–4 configs
  of one workload, LOCK replays included, and for its Table 2 rows in
  symbolic and static mode, equals the same answer recomputed from
  that mode's loaded arrays, and is served without rebuilding
  anything.

Everything runs on ``selftest`` jobs (pure arithmetic) except the
cache-healing and answer checks, which build real workloads inside a
throwaway cache directory.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import List

from repro.engine.chaos import ChaosPlan, corrupt_one_cache_entry
from repro.engine.jobs import JobSpec
from repro.engine.ledger import LedgerState, RunLedger
from repro.engine.supervisor import Engine, EngineConfig
from repro.oracle.harness import Divergence

__all__ = ["check_engine", "check_engine_answers"]

#: the smallest bundled workload — keeps the healing check cheap
_HEAL_WORKLOAD = "INIT"

#: the answer check's workload: four Table-1 directive sets, a LOCK row
_ANSWERS_WORKLOAD = "MAIN"


def _selftest_specs() -> List[JobSpec]:
    return [
        JobSpec("job:a", "selftest", {"value": 2}),
        JobSpec("job:b", "selftest", {"value": 3}),
        JobSpec("job:c", "selftest", {"value": 4}, deps=("job:a",)),
        JobSpec("job:d", "selftest", {"value": 5}, deps=("job:b", "job:c")),
    ]


def _run(config: EngineConfig, specs, resume=None):
    from repro.obs import RingBufferSink, Tracer

    ring = RingBufferSink()
    report = Engine(config, tracer=Tracer(ring)).run(specs, resume=resume)
    return report, ring.events


def check_engine_retry() -> List[Divergence]:
    from repro.obs.events import JobFail, JobRetry

    out: List[Divergence] = []
    clean_report, _ = _run(
        EngineConfig(max_workers=2, backoff_base=0.01), _selftest_specs()
    )
    chaos = ChaosPlan("inject-exception", hits=1)
    report, events = _run(
        EngineConfig(max_workers=2, max_retries=2, backoff_base=0.01, chaos=chaos),
        _selftest_specs(),
    )
    if not report.ok:
        out.append(
            Divergence(
                "engine-retry",
                f"jobs failed despite retry budget: {report.failed}",
            )
        )
    retries = [e for e in events if isinstance(e, JobRetry)]
    if len(retries) != chaos.total_injected:
        out.append(
            Divergence(
                "engine-retry",
                f"{chaos.total_injected} injected failures but "
                f"{len(retries)} JobRetry events",
            )
        )
    if any(isinstance(e, JobFail) for e in events):
        out.append(
            Divergence("engine-retry", "JobFail emitted under the retry budget")
        )
    if report.results != clean_report.results:
        out.append(
            Divergence(
                "engine-retry",
                "chaos run results differ from chaos-free run: "
                f"{report.results} vs {clean_report.results}",
            )
        )
    return out


def check_engine_resume() -> List[Divergence]:
    from repro.obs.events import JobFail

    out: List[Divergence] = []
    clean_report, _ = _run(
        EngineConfig(max_workers=2, backoff_base=0.01), _selftest_specs()
    )
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = Path(tmp) / "ledger.jsonl"
        chaos = ChaosPlan("kill-worker", hits=2, match="job:c")
        with RunLedger(ledger_path) as ledger:
            report, events = _run_with_ledger(
                EngineConfig(
                    max_workers=2, max_retries=1, backoff_base=0.01, chaos=chaos
                ),
                ledger,
            )
        fails = [e for e in events if isinstance(e, JobFail)]
        if "job:c" not in report.failed or "job:d" not in report.failed:
            out.append(
                Divergence(
                    "engine-resume",
                    "kill-worker past the retry budget must fail job:c and "
                    f"cascade to job:d; failed={sorted(report.failed)}",
                )
            )
        if len(fails) != len(report.failed):
            out.append(
                Divergence(
                    "engine-resume",
                    f"{len(report.failed)} failed jobs but {len(fails)} "
                    "JobFail events",
                )
            )
        state = LedgerState.load(ledger_path)
        with RunLedger(ledger_path) as ledger:
            resumed, _events = _run_with_ledger(
                EngineConfig(max_workers=2, backoff_base=0.01),
                ledger,
                resume=state,
            )
        if not resumed.ok:
            out.append(
                Divergence(
                    "engine-resume", f"resumed run failed: {resumed.failed}"
                )
            )
        if resumed.resumed != len(state.completed):
            out.append(
                Divergence(
                    "engine-resume",
                    f"{len(state.completed)} checkpointed jobs but "
                    f"{resumed.resumed} restored",
                )
            )
        if resumed.results != clean_report.results:
            out.append(
                Divergence(
                    "engine-resume",
                    "resumed results differ from an uninterrupted run",
                )
            )
    return out


def _run_with_ledger(config: EngineConfig, ledger: RunLedger, resume=None):
    from repro.obs import RingBufferSink, Tracer

    ring = RingBufferSink()
    engine = Engine(config, tracer=Tracer(ring), ledger=ledger)
    report = engine.run(_selftest_specs(), resume=resume)
    return report, ring.events


def check_engine_ledger() -> List[Divergence]:
    out: List[Divergence] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        with RunLedger(path) as ledger:
            ledger.append({"kind": "run-start", "run_id": "check"})
            ledger.job_done("a", "fp-a", 1, {"x": 1})
            ledger.job_fail("b", 3, "boom")
        with path.open("a") as fh:
            fh.write('{"kind":"job-done","job":"torn"')  # crash mid-append
        state = LedgerState.load(path)
        if state.skipped_lines != 1:
            out.append(
                Divergence(
                    "engine-ledger",
                    f"torn trailing line not tolerated: "
                    f"skipped={state.skipped_lines}",
                )
            )
        if state.payload_for("a", "fp-a") != {"x": 1}:
            out.append(
                Divergence("engine-ledger", "checkpointed payload lost")
            )
        if state.payload_for("a", "fp-changed") is not None:
            out.append(
                Divergence(
                    "engine-ledger",
                    "payload reused although the params fingerprint changed",
                )
            )
        if state.failed.get("b") != "boom":
            out.append(Divergence("engine-ledger", "job-fail record lost"))
        # Every surviving line must be valid standalone JSON.
        with path.open() as fh:
            lines = [line for line in fh if line.strip()]
        parsed = 0
        for line in lines:
            try:
                json.loads(line)
                parsed += 1
            except json.JSONDecodeError:
                pass
        if parsed != len(lines) - 1:  # exactly the torn line fails
            out.append(
                Divergence(
                    "engine-ledger",
                    f"{len(lines) - parsed} unreadable line(s), expected 1",
                )
            )
    return out


def check_engine_heal() -> List[Divergence]:
    from repro.experiments.runner import artifacts_for, clear_cache
    from repro.vm.policies import CDConfig

    out: List[Divergence] = []
    previous = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            clear_cache(disk=False)  # drop the memo; build into tmp
            baseline = artifacts_for(_HEAL_WORKLOAD).cd_result(CDConfig())
            clear_cache(disk=False)
            corrupted = corrupt_one_cache_entry(seed=0)
            if corrupted is None:
                out.append(
                    Divergence(
                        "engine-heal", "no cache archive found to corrupt"
                    )
                )
                return out
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                healed = artifacts_for(_HEAL_WORKLOAD).cd_result(CDConfig())
            if not any("quarantined" in str(w.message) for w in caught):
                out.append(
                    Divergence(
                        "engine-heal",
                        "corrupt cache entry rebuilt without a warning",
                    )
                )
            quarantined = list(Path(tmp).glob("*.corrupt"))
            if not quarantined:
                out.append(
                    Divergence(
                        "engine-heal",
                        "corrupt archive was not quarantined as *.corrupt",
                    )
                )
            if (
                healed.page_faults != baseline.page_faults
                or healed.space_time != baseline.space_time
                or healed.mem_average != baseline.mem_average
            ):
                out.append(
                    Divergence(
                        "engine-heal",
                        "rebuilt artifacts give different CD results: "
                        f"PF {healed.page_faults} vs {baseline.page_faults}",
                    )
                )
        finally:
            clear_cache(disk=False)  # memo points at tmp; drop it
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous
    return out


def check_engine_answers() -> List[Divergence]:
    from repro.experiments.answers import audit, table_artifacts
    from repro.experiments.config import table1_rows, table2_rows, table34_rows
    from repro.experiments.runner import build_artifacts, clear_cache
    from repro.experiments.table1 import generate_table1
    from repro.experiments.table2 import generate_table2
    from repro.experiments.table3 import generate_table3
    from repro.experiments.table4 import generate_table4

    def rows(table_rows):
        return [v for v in table_rows() if v.workload == _ANSWERS_WORKLOAD]

    out: List[Divergence] = []
    previous = {
        name: os.environ.pop(name, None)
        for name in ("REPRO_CACHE_DIR", "REPRO_TIMELINES_DIR")
    }
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        try:
            clear_cache(disk=False)
            # cold: every answer Tables 1-4 ask of the workload is
            # recorded, and Table 2's in the trace-free modes too
            generate_table1(rows(table1_rows))
            generate_table2(rows(table2_rows))
            generate_table3(rows(table34_rows))
            generate_table4(rows(table34_rows))
            for mode in ("symbolic", "static"):
                generate_table2(rows(table2_rows), mode=mode)
            clear_cache(disk=False)  # warm: served from the answer files
            trace_rows = rows(table1_rows) + rows(table34_rows)
            audited = {("trace", v.with_locks) for v in trace_rows}
            for mode in ("symbolic", "static"):
                audited |= {(mode, v.with_locks) for v in rows(table2_rows)}
            for mode, with_locks in sorted(audited):
                front = table_artifacts(
                    _ANSWERS_WORKLOAD, mode=mode, with_locks=with_locks
                )
                built = build_artifacts(mode, _ANSWERS_WORKLOAD, with_locks=with_locks)
                for problem in audit(front, built):
                    out.append(Divergence("engine-answers", f"{mode}: {problem}"))
        finally:
            clear_cache(disk=False)  # memo points at tmp; drop it
            for name, value in previous.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    return out


def check_engine(heal: bool = True) -> List[Divergence]:
    """Run every engine self-check; ``heal=False`` skips the two checks
    that build real workload artifacts (``engine-heal`` and
    ``engine-answers``)."""
    out: List[Divergence] = []
    out.extend(check_engine_retry())
    out.extend(check_engine_resume())
    out.extend(check_engine_ledger())
    if heal:
        out.extend(check_engine_heal())
        out.extend(check_engine_answers())
    return out
