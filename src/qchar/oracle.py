"""Brute-force count of the charged free-field Fock basis.

Completely independent of the series algebra in characters.  Each mode
(two families of fermions carrying a color index, one boson pair) is an
exact u-exponent and a charge step, and a pruned recursion over the mode
list counts the states of every (charge, u-degree) below a bound; no
state is ever built.  Used as the ground-truth oracle for the sector
characters: every coefficient it produces counts actual states, so each
is a nonnegative integer.

Fermionic modes of the first kind can carry nonpositive exponents (only
at the lowest mode index and small color), so the total negative budget
is computed up front and pruning bounds account for it.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ORACLE_MAX_NODES, check_work, need
from .qseries import QSeries
from .characters import (
    IdentityReport,
    compare_series,
    fock_sector_char,
    mark_short,
    quasiparticle_char,
    quasiparticle_window,
)


def _negative_budget(m: int) -> int:
    # only the lowest psi mode of each color can go below zero
    return sum(max(0, m - 2 * i) for i in range(1, m + 1))


def _mode_list(m: int, max_u: int):
    """All modes that can appear in a state of degree < max_u, as pairs
    (u_exp, charge_step).  Mode j >= 1 of psi_i sits at 2i + 2mj - 3m, of
    psi*_i at -2i + 2mj + m, and of phi and phi* both at 2mj - m.  Each
    list is sorted, nonpositive exponents leading, so pruning bounds
    tighten monotonically; modes that tie are interchangeable steps."""
    budget = _negative_budget(m)
    top = max_u + budget  # no mode at or above this fits under the bound
    fermions = sorted(
        (w, dc)
        for i in range(1, m + 1)
        for first, dc in ((2 * i - m, 1), (3 * m - 2 * i, -1))
        for w in range(first, top, 2 * m))
    bosons = sorted((w, dc) for dc in (1, -1) for w in range(m, top, 2 * m))
    return fermions, bosons, budget


_NODES = "the oracle's state enumeration has a count of visited nodes of"


@lru_cache(maxsize=16)
def _full_charge_dp(m: int, max_u: int, max_nodes: int):
    """Counts of states per (charge, u-degree), all charges at once."""
    # the node budget is checked after each mode, so a refused enumeration
    # passes it by at most one mode's nodes
    fermions, bosons, budget = _mode_list(m, max_u)
    acc = {(0, 0): 1}
    nodes = 0
    rem = budget
    for w, dc in fermions:
        if w < 0:
            rem += w  # this mode's capacity is no longer ahead of us
        limit = max_u + rem
        for (c, d), v in list(acc.items()):
            nd = d + w
            if nd < limit:
                key = (c + dc, nd)
                acc[key] = acc.get(key, 0) + v
                nodes += 1
        check_work(nodes, max_nodes, _NODES)
    for w, dc in bosons:
        for (c, d), v in list(acc.items()):
            nd = d + w
            r = 1
            while nd < max_u:
                key = (c + r * dc, nd)
                acc[key] = acc.get(key, 0) + v
                nodes += 1
                r += 1
                nd += w
        check_work(nodes, max_nodes, _NODES)
    return acc


def enumerate_charge_series(m: int, s: int, max_u_exp: int,
                            max_nodes: int = ORACLE_MAX_NODES) -> QSeries:
    """State-counting series of the charge-s sector below max_u_exp."""
    need("m", m, 2)
    dp = _full_charge_dp(m, max_u_exp, max_nodes)
    terms = {d: v for (c, d), v in dp.items() if c == s and d < max_u_exp}
    return QSeries.from_terms(terms, max_u_exp)


def reachable_charges(m: int, max_u_exp: int,
                      max_nodes: int = ORACLE_MAX_NODES) -> tuple:
    """Sorted charges with at least one state below the bound."""
    need("m", m, 2)
    dp = _full_charge_dp(m, max_u_exp, max_nodes)
    return tuple(sorted({c for (c, d), v in dp.items() if d < max_u_exp and v}))


def oracle_vs_quasiparticle(m: int, s: int, max_u_exp: int,
                            max_nodes: int = ORACLE_MAX_NODES) -> IdentityReport:
    """Three-way check: compare_series of the state count against the
    quasiparticle sum, then against the lattice-sum character. The first
    report that fails is returned, else the last, which is "short" if the
    three sides' common window ends below max_u_exp; either way order_u
    is the least of the three orders. The quasiparticle sum's bound is
    checked before any state is counted."""
    quasiparticle_window(m, s, max_u_exp)
    counted = enumerate_charge_series(m, s, max_u_exp, max_nodes)
    qp = quasiparticle_char(m, s, max_u_exp)
    ch = fock_sector_char(m, s, max_u_exp)
    for other in (qp, ch):
        report = compare_series("oracle-threeway", {"m": m, "s": s}, counted, other)
        report.order_u = min(counted.order, qp.order, ch.order)
        if not report.passed():
            return report
    return mark_short(report, max_u_exp)
