"""Differential test of the graded product against a direct reference.

The reference below builds one pull-back table per factor over relative
charge shifts plus a `full` table for the support and the floor, and
scans the whole requested window for every (factor, charge) pair. The
package seeds a single table on the window instead; both must agree on
every row, the soundness fields and the raised error.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from qchar import bivariate
from qchar.bivariate import (
    ChargeSeries,
    cs_unit,
    fock_char_product,
    inverse_product_sides,
    jacobi_triple_sides,
)
from qchar.errors import QcharError, WindowUnderflow
from qchar.qseries import QSeries

_INF = float("inf")


class _RefCostTable:
    def __init__(self, cap):
        self.cap = cap
        self.cost = [_INF] * (2 * cap + 1)
        self.cost[cap] = 0

    def copy(self):
        t = _RefCostTable(self.cap)
        t.cost = self.cost[:]
        return t

    def get(self, r):
        if -self.cap <= r <= self.cap:
            return self.cost[r + self.cap]
        return _INF

    def add_mover(self, step, cost, once):
        n = 2 * self.cap + 1
        old = self.cost
        if once:
            new = old[:]
            for i in range(n):
                j = i - step
                if 0 <= j < n and old[j] + cost < new[i]:
                    new[i] = old[j] + cost
            self.cost = new
        else:
            idx = range(step, n) if step > 0 else range(n + step - 1, -1, -1)
            for i in idx:
                j = i - step
                if old[j] + cost < old[i]:
                    old[i] = old[j] + cost


def _into_window(table, d, lo, hi):
    return min(table.get(w - d) for w in range(lo, hi + 1))


def reference_graded_product(atoms, req_lo, req_hi, order, pad):
    cap = order + pad + 8
    atoms = sorted(atoms, key=lambda at: at.cheapest)
    pullback = []
    t = _RefCostTable(cap)
    for at in atoms:
        pullback.append(t.copy())
        for step, cost, once in at.movers:
            t.add_mover(step, cost, once)
    full = t

    acc = cs_unit(order + pad)
    built = _RefCostTable(cap)
    for i in range(len(atoms) - 1, -1, -1):
        at = atoms[i]
        for step, cost, once in at.movers:
            built.add_mover(step, cost, once)
        ret = pullback[i]
        keep = [d for d in range(-cap, cap + 1)
                if built.get(d) + _into_window(ret, d, req_lo, req_hi) < order]
        if not keep:
            acc = ChargeSeries(0, [QSeries.zero(order + pad)])
            continue
        w_lo, w_hi = min(keep), max(keep)
        src = at.series
        rows = []
        for d in range(w_lo, w_hi + 1):
            od = min(order - _into_window(ret, d, req_lo, req_hi),
                     order + pad)
            terms = None
            for d2 in range(src.zmin, src.zmax + 1):
                d1 = d - d2
                if acc.has_degree(d1):
                    prod = acc.rows[d1 - acc.zmin] * src.rows[d2 - src.zmin]
                    terms = prod if terms is None else terms + prod
            if terms is None:
                rows.append(QSeries.zero(od))
            elif terms.order < od:
                raise WindowUnderflow(
                    f"assembly row z^{d} claims u^{terms.order} < u^{od}")
            else:
                rows.append(terms.restricted(od))
        acc = ChargeSeries(w_lo, rows)

    rows = []
    for d in range(req_lo, req_hi + 1):
        if acc.has_degree(d):
            rows.append(acc.row(d).restricted(order))
        else:
            rows.append(QSeries.zero(order))
    reachable = [r for r in range(-cap, cap + 1) if full.get(r) < order]
    flag = req_lo <= min(reachable) and max(reachable) <= req_hi
    floor = min(0, min(v for v in full.cost if v < _INF))
    out = ChargeSeries(req_lo, rows, support_exact=flag, min_floor=int(floor))
    if out.order < order:
        raise WindowUnderflow(
            f"assembled window only supports u^{out.order}, wanted u^{order}")
    return out


# (name, builder(m, order, window)) of the three graded products; only the
# left-hand sides of jtp and kp go through the graded product
GRADED = {
    "fockprod": fock_char_product,
    "jtp": lambda m, order, window: jacobi_triple_sides(order, window)[0],
    "kp": lambda m, order, window: inverse_product_sides(order, window)[0],
}


def _outcome(build, *args):
    try:
        cs = build(*args)
    except QcharError as err:
        return type(err)
    return cs.zmin, cs.rows, cs.support_exact, cs.min_floor


# windows reach past cap = order + pad + 8 on either side, and may miss it
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GRADED)), st.integers(2, 5), st.integers(1, 30),
       st.integers(-45, 45), st.integers(0, 60))
def test_graded_product_matches_reference(name, m, order, lo, width):
    window = (lo, lo + width)
    got = _outcome(GRADED[name], m, order, window)
    with mock.patch.object(bivariate, "_graded_product",
                           reference_graded_product):
        want = _outcome(GRADED[name], m, order, window)
    assert got == want
