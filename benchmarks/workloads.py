"""Seeded workloads for the qchar benchmark.

A workload is a list of families. Each family has a finite domain of
`qchar` CLI invocations (one grid point per call) and a fixed count of
points to draw from it, so the work per run stays in a narrow band while
the seed still changes which points run and in what order. The program
under test only ever sees the generated argv lists.

Every argv any seed can draw is enumerated by `domain()`, which is what
`record_digests.py` records the expected stdout of.
"""

import random
from typing import NamedTuple

DEFAULT_SEED = 1
# A later claim of a speed-up must also hold on this seed, which was not
# used while the benchmark was tuned.
HELD_OUT_SEED = 7919

UNIVARIATE_ORDER = 300
ORACLE_QBOUND = 30
SERIES_ORDER = 300


class Family(NamedTuple):
    name: str
    domain: tuple  # of argv tuples
    count: int     # points drawn per run


class Workload(NamedTuple):
    families: tuple
    # Whether the drawn calls are shuffled across families. Calls that
    # share a lazily built cache entry make the first of them slower, so
    # a workload where that entry dominates one call keeps a fixed order.
    shuffle: bool


def _verify(family, order, *axes):
    return ("verify", "--family", family, *axes, "--order", str(order))


def _grid(family, order, **axes):
    """Single-point verify calls over the product of the given axes."""
    points = [()]
    for flag, values in axes.items():
        # "--k=-3" form so argparse does not read a negative value as a flag
        points = [p + (f"--{flag}={v}",) for p in points for v in values]
    return tuple(_verify(family, order, *p) for p in points)


_U = UNIVARIATE_ORDER

# Expressions that are identities, so each renders the zero series.
SERIES_EXPRS = (
    "phi(1) * distp(1)^2 - gauss()",
    "L0(2) - distp(1)^2 / phi(2)",
    "qp(2,1) - fs(2,1)",
    "cor22lhs(3) - qp(3,0)",
    "L0(3) * phi(3) - fs(3,0) * phi(3)^2",
    "hs(2,0) / phi(1) / phi(2)^2 - fs(2,0)",
    "fs(4,-2) - fs(4,5)",
    "L0(4) * phi(4) - distp(1)^2",
)

UNIVARIATE = Workload(
    families=(
        Family("lemma11a", _grid("lemma11a", _U, m=range(2, 7), s=range(0, 7)), 28),
        Family("lemma11b", _grid("lemma11b", _U, m=range(2, 7), s=range(0, 7)), 28),
        Family("prop12", _grid("prop12", _U, m=range(2, 5), k=range(0, 5)), 12),
        Family("recurrence", _grid("recurrence", _U, m=range(2, 5), k=range(0, 5)), 12),
        Family("thm13a", _grid("thm13a", _U, m=range(2, 7)), 4),
        Family("thm13b", _grid("thm13b", _U, m=range(2, 5), k=range(-3, 4)), 17),
        # every prop21 point runs: the costliest of them sets slowest_call_s
        Family("prop21", _grid("prop21", _U, m=range(2, 5), s=range(-3, 5)), 24),
        Family("cor22", _grid("cor22", _U, m=range(2, 7)), 4),
        Family("gauss", _grid("gauss", _U), 1),
        Family("oracle", tuple(
            ("oracle", "--m", str(m), "--s", str(s), "--qbound", str(ORACLE_QBOUND))
            for m in range(2, 5) for s in range(-3, 5)), 24),
        Family("series", tuple(
            ("series", "--expr", e, "--order", str(SERIES_ORDER), "--format", "json")
            for e in SERIES_EXPRS), 4),
    ),
    shuffle=True,
)

GRADED = Workload(
    families=(
        Family("fockprod", tuple(
            _verify("fockprod", order, "--m", str(m), "--zwin", "4")
            for m in (2, 3) for order in (60, 120)), 4),
        Family("jtp", tuple(
            _verify("jtp", order, "--zwin", "10") for order in (60, 120)), 2),
        Family("kp", tuple(
            _verify("kp", order, "--zwin", "8") for order in (60, 120)), 2),
    ),
    shuffle=True,
)

# nmax is drawn from a narrow band around 4001, so the held-out seed runs
# other inputs at the same size. Each m draws from its own half of the
# band, so the two calls never share a cached builder (basic_char builds
# dist_product(1, 2 * nmax)) and no seed gets cache reuse. The order is
# fixed, m = 2 then m = 3, so the heap state each call starts from does
# not depend on the seed.
GROWTH_NMAX = {2: range(3996, 4001), 3: range(4002, 4007)}

GROWTH = Workload(
    families=tuple(
        Family(f"asympt-m{m}", tuple(
            ("asympt", "--m", str(m), "--nmax", str(n)) for n in band), 1)
        for m, band in GROWTH_NMAX.items()),
    shuffle=False,
)

WORKLOADS = {"univariate": UNIVARIATE, "graded": GRADED, "growth": GROWTH}


def generate(name: str, seed: int) -> list:
    """The argv lists of one run of workload `name`; same seed, same list."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    calls = []
    for family in workload.families:
        calls.extend(rng.sample(family.domain, family.count))
    if workload.shuffle:
        rng.shuffle(calls)
    return [list(argv) for argv in calls]


def domain() -> list:
    """Every argv that any seed of any workload can draw."""
    return [list(argv) for workload in WORKLOADS.values()
            for family in workload.families for argv in family.domain]
