"""Seeded workload inputs.

Every input a workload feeds the program comes from here and from the
seed alone: the same seed gives byte-identical inputs (:func:`digest`
hashes them; the self-tests compare digests).  The program under test
receives only these inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

#: the six table renders of the paper-tables workload, as CLI arguments
TABLE_RENDERS = (
    ("1",),
    ("2",),
    ("3",),
    ("4",),
    ("2", "--mode", "symbolic"),
    ("2", "--mode", "static"),
)

PAPER_PROGRAMS = (
    "APPROX",
    "CONDUCT",
    "FDJAC",
    "FIELD",
    "HWSCRT",
    "HYBRJ",
    "INIT",
    "MAIN",
    "TQL",
)

#: generated programs in the user-programs corpus, ``generate_source(i)``
#: for i below it.  The corpus is fixed and the seed draws the order and
#: the checked frame counts and windows: windows of 300 programs drawn
#: from far-apart seeds differed by 15% at the median and up to 2x at
#: the p95, which would measure the draw, not the code.
PROGRAM_COUNT = 300
#: copies of each paper trace in the long-replay mix (about 1M references
#: per copy); one copy keeps a pass short enough to repeat it in a run
MIX_COPIES = 1
#: independent arrival streams each admission policy runs
POOL_STREAMS = 2
ADMISSION_POLICIES = ("uncontrolled", "knee", "ws", "cd")
#: share of service submissions that are fresh verify batches
FRESH_SHARE = 0.10
SERVICE_CLIENTS = 2
#: closed-loop submissions per client per second of run budget
SUBMISSIONS_PER_SECOND = 5
VERIFY_BATCH = 1


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def paper_tables(seed: int) -> dict:
    """The seed only permutes the build order of the six renders."""
    order = list(range(len(TABLE_RENDERS)))
    random.Random(seed).shuffle(order)
    return {"renders": [list(TABLE_RENDERS[i]) for i in order]}


def user_programs(seed: int, count: int = PROGRAM_COUNT) -> dict:
    """The generated mini-FORTRAN corpus ``generate_source(i)``, i below
    ``count``, in a seeded order, each program with the frame count and
    WS window its check replays at."""
    from repro.oracle.generator import generate_source

    rng = random.Random(seed)
    order = list(range(count))
    rng.shuffle(order)
    programs = []
    for i in order:
        programs.append(
            {
                "name": f"gen{i}",
                "source": generate_source(i),
                "frames": rng.randint(1, 24),
                "tau": _log_uniform(rng, 1, 2000),
            }
        )
    return {"programs": programs}


def _strata(count: int, lo: int, hi: int) -> list:
    """The geometric midpoints of ``count`` equal log-width strata of
    [lo, hi]."""
    return [round(lo * (hi / lo) ** ((k + 0.5) / count)) for k in range(count)]


def long_replay(seed: int) -> dict:
    """The trace mix, the stream requests and the pool's arrival streams.

    The mix holds each paper trace ``MIX_COPIES`` times in a seeded
    order (about 1M references per copy).  Frame counts and windows are
    one per stratum, from well below the programs' localities to above
    their whole footprint (809 pages), and the seed shuffles them.  They
    are fixed, not drawn within each stratum, because the sweep's cost
    depends on them: with seeded draws it differed by up to 25% between
    seeds, while repeats of one seed agreed within 2%.
    """
    rng = random.Random(seed)
    sequence = [name for name in PAPER_PROGRAMS for _ in range(MIX_COPIES)]
    rng.shuffle(sequence)
    requests = [{"kind": "LRU", "frames": f} for f in _strata(8, 2, 900)]
    requests += [{"kind": "FIFO", "frames": f} for f in _strata(3, 2, 900)]
    requests += [{"kind": "WS", "tau": t} for t in _strata(8, 10, 60_000)]
    for pi_cap, min_allocation in ((None, 1), (None, 3), (1, 2), (2, 4), (2, 1), (3, 3)):
        requests.append({"kind": "CD", "pi_cap": pi_cap, "min_allocation": min_allocation})
    rng.shuffle(requests)
    pool = {
        # fixed, so every run's pool does the same work whatever the seed
        "arrival_seeds": list(range(POOL_STREAMS)),
        "load": 2.5,
        "horizon": 500_000,
        "run_horizon": 1_500_000,
        "total_frames": 96,
        "max_refs": 30_000,
        "policies": list(ADMISSION_POLICIES),
    }
    return {"sequence": sequence, "requests": requests, "pool": pool}


def service_mix(seed: int, seconds: float) -> dict:
    """Per-client closed-loop schedules.

    Nine in ten submissions are warm: one or two of the table targets
    the first submission settles.  The tenth, at a seeded position in
    each block of ten, is a fresh ``verify`` window one batch past the
    previous one.  Windows are numbered in (position, client) order —
    the order the clients reach them — so every client carries the same
    share of fresh work and the set of windows is fixed.
    """
    rng = random.Random(seed)
    block = round(1 / FRESH_SHARE)
    per_client = block * max(1, round(SUBMISSIONS_PER_SECOND * seconds / block))
    tables = ["1", "2", "3", "4"]
    clients = [[] for _ in range(SERVICE_CLIENTS)]
    fresh_at = [
        {start + rng.randrange(block) for start in range(0, per_client, block)}
        for _ in clients
    ]
    window = 0
    for position in range(per_client):
        for schedule, fresh_positions in zip(clients, fresh_at):
            if position in fresh_positions:
                window += VERIFY_BATCH
                targets = [f"verify:{window}:{VERIFY_BATCH}"]
                schedule.append({"kind": "fresh", "targets": targets})
            else:
                targets = sorted(rng.sample(tables, rng.randint(1, 2)))
                schedule.append({"kind": "warm", "targets": targets})
    return {"prime": tables, "clients": clients}


def for_workload(name: str, seed: int, seconds: float) -> dict:
    if name == "paper-tables":
        return paper_tables(seed)
    if name == "user-programs":
        return user_programs(seed)
    if name == "long-replay":
        return long_replay(seed)
    if name == "service-mix":
        return service_mix(seed, seconds)
    raise ValueError(f"unknown workload {name!r}")


def digest(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
