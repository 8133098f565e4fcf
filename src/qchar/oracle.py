"""Brute-force count of the charged free-field Fock basis.

Completely independent of the series algebra in characters.  Each mode
(two families of fermions carrying a color index, one boson pair) is an
exact u-exponent and a charge step.  The count keeps one row of counts
per charge, cell i of a row holding the number of states of that charge
at u-degree lo + 2i, and applies the modes one at a time: a fermion mode
adds each row, shifted by the mode's exponent, into the row one charge
step away; a boson mode does the same in place along its charge step, so
a state can take it any number of times.  No state is ever built.  Used
as the ground-truth oracle for the sector characters: every coefficient
it produces counts actual states, so each is a nonnegative integer.

Fermionic modes of the first kind can carry nonpositive exponents (only
at the lowest mode index and small color), so the total negative budget
is computed up front: a count whose degree the negative modes still
ahead cannot bring below the bound is dropped, and each row keeps only
the span of degrees that can still be.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import merge
from itertools import compress, repeat
from operator import add, floordiv

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
    """The modes that can appear in a state of degree < max_u, as pairs
    (u_exp, charge_step), and the negative budget.  Mode j >= 1 of psi_i
    sits at 2i + 2mj - 3m, of psi*_i at -2i + 2mj + m, and of phi and phi*
    both at 2mj - m.  The fermions are one lazy merge of the 2m per-color
    ranges and the bosons one of the two boson ranges, so each holds one
    pending mode per range, not every mode below the bound.  Each yields
    its modes once, in ascending order, nonpositive exponents leading, so
    pruning bounds tighten monotonically; modes that tie are
    interchangeable steps."""
    budget = _negative_budget(m)
    top = max_u + budget  # no mode at or above this fits under the bound
    fermions = merge(*(
        zip(range(first, top, 2 * m), repeat(dc))
        for i in range(1, m + 1)
        for first, dc in ((2 * i - m, 1), (3 * m - 2 * i, -1))))
    bosons = merge(*(zip(range(m, top, 2 * m), repeat(dc)) for dc in (1, -1)))
    return fermions, bosons, budget


_NODES = "the oracle's state enumeration has a count of visited nodes of"


def _below(lo: int, bound: int) -> int:
    """Cells of a row starting at u-degree lo that lie below bound."""
    return max(0, (bound - lo + 1) >> 1)


def _add_into(rows: dict, c: int, lo: int, src: list) -> None:
    """Add the counts src, src[i] at u-degree lo + 2i, into the row of
    charge c, widening that row only where src lands outside it."""
    row = rows.get(c)
    if row is None or not row[1]:
        rows[c] = [lo, src]
        return
    rlo, cells = row
    if lo < rlo:
        cells[:0] = [0] * ((rlo - lo) >> 1)
        row[0] = rlo = lo
    a = (lo - rlo) >> 1
    b = a + len(src)
    if b > len(cells):
        cells += [0] * (b - len(cells))
    cells[a:b] = map(add, cells[a:b], src)


@lru_cache(maxsize=16)
def _full_charge_dp(m: int, max_u: int, max_nodes: int) -> dict:
    """Counts of states per charge, all charges at once: {c: [lo, cells]},
    cells[i] the number of states of charge c and u-degree lo + 2i. Every
    mode has a u-exponent of m's parity and moves the charge by one, so
    the states of charge c all have degrees of c * m's parity, and a row
    holds only those. A row keeps only its live span, from its lowest
    write up to the degree that the modes still ahead can no longer bring
    below max_u."""
    # a node is one nonzero count extended by one mode (by a boson mode,
    # once per repetition that stays below max_u); the budget is checked
    # after each mode, so a refused enumeration passes it by at most one
    # mode's nodes
    fermions, bosons, budget = _mode_list(m, max_u)
    rows = {0: [0, [1]]}
    nodes = 0
    rem = budget
    for w, dc in fermions:
        if w < 0:
            rem += w  # this mode's capacity is no longer ahead of us
        limit = max_u + rem
        # against the charge step, so each row is read before it is written
        c = max(rows) if dc > 0 else min(rows)
        while c in rows:
            lo, cells = rows[c]
            src = cells[:_below(lo, limit - w)]
            if w < 0:
                del cells[_below(lo, limit):]  # dead from this mode on
            if src:
                nodes += len(src) - src.count(0)
                _add_into(rows, c + dc, lo + w, src)
            c -= dc
        check_work(nodes, max_nodes, _NODES)
    # no boson write goes below the lowest row
    low = min(lo for lo, _ in rows.values())
    for w, dc in bosons:
        # a count at degree d is extended (max_u - 1 - d) // w times
        times = list(map(floordiv, range(max_u - 1 - low, -1, -1), repeat(w)))
        for lo, cells in rows.values():
            nodes += sum(compress(times[lo - low::2], cells))
        # along the charge step, in place: each row passes on its counts
        # after it has taken in its own, as an unbounded knapsack does
        c = min(rows) if dc > 0 else max(rows)
        while c in rows:
            lo, cells = rows[c]
            src = cells[:_below(lo, max_u - w)]
            if src:
                _add_into(rows, c + dc, lo + w, src)
            c += dc
        check_work(nodes, max_nodes, _NODES)
    return rows


def enumerate_charge_series(m: int, s: int, max_u_exp: int,
                            max_nodes: int = ORACLE_MAX_NODES) -> QSeries:
    """State-counting series of the charge-s sector below max_u_exp."""
    need("m", m, 2)
    row = _full_charge_dp(m, max_u_exp, max_nodes).get(s)
    if row is None or row[0] >= max_u_exp:
        return QSeries.zero(max_u_exp)
    lo, cells = row
    coeffs = [0] * (max_u_exp - lo)
    coeffs[::2] = cells[:_below(lo, max_u_exp)]
    return QSeries(lo, max_u_exp, coeffs)


def reachable_charges(m: int, max_u_exp: int,
                      max_nodes: int = ORACLE_MAX_NODES) -> tuple:
    """Sorted charges with at least one state below the bound."""
    need("m", m, 2)
    dp = _full_charge_dp(m, max_u_exp, max_nodes)
    return tuple(sorted(c for c, (lo, cells) in dp.items()
                        if any(cells[:_below(lo, max_u_exp)])))


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
    order = min(counted.order, qp.order, ch.order)
    for other in (qp, ch):
        report = compare_series("oracle-threeway", {"m": m, "s": s}, counted,
                                other)._replace(order_u=order)
        if not report.passed():
            return report
    return mark_short(report, max_u_exp)
