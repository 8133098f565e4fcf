"""Differential test of the graded products against a direct reference.

The reference below multiplies each factor pair in as an "atom": a small
exact ChargeSeries of the pair's expansion, convolved row by row with the
accumulator as QSeries products. It builds one pull-back table per atom
over relative charge shifts, and scans the whole requested window for
every (atom, charge) pair. The package applies each factor as an in-place
sweep over packed rows, each kept only on its own u-window, and seeds a
single table on the window instead; both must agree on every row and the
raised error.
"""

from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchar import bivariate
from qchar.bivariate import (
    ChargeSeries,
    _CostTable,
    fock_char_product,
    inverse_product_sides,
    jacobi_triple_sides,
)
from qchar.characters import sector_window
from qchar.errors import QcharError, WindowUnderflow
from qchar.qseries import QSeries

_INF = float("inf")


class _Atom:
    """One factor pair: its exact expansion plus its charge movers
    (step, cost, once)."""

    def __init__(self, series, movers):
        self.series = series
        self.movers = tuple(movers)
        self.cheapest = min(c for _, c, _ in movers)


def _into_window(table, d, lo, hi):
    return min(table.get(w - d) for w in range(lo, hi + 1))


def reference_graded_product(atoms, req_lo, req_hi, order, pad):
    cap = order + pad + 8
    atoms = sorted(atoms, key=lambda at: at.cheapest)
    pullback = []
    t = _FullCostTable(cap)
    for at in atoms:
        pullback.append(t.copy())
        for step, cost, once in at.movers:
            t.add_mover(step, cost, once)

    acc = ChargeSeries(0, [QSeries.one(order + pad)])
    built = _FullCostTable(cap)
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
    out = ChargeSeries(req_lo, rows)
    if out.order < order:
        raise WindowUnderflow(
            f"assembled window only supports u^{out.order}, wanted u^{order}")
    return out


# -- the atoms of the three graded products ----------------------------------


def _fermion_pair(wp, wm, order):
    # (1 + z u^wp)(1 + 1/z u^wm)
    rows = [
        QSeries.from_terms({wm: 1}, order),
        QSeries.from_terms({0: 1, wp + wm: 1}, order),
        QSeries.from_terms({wp: 1}, order),
    ]
    return _Atom(ChargeSeries(-1, rows), [(1, wp, True), (-1, wm, True)])


def _boson_pair(w, sign, order):
    # 1/((1 - sign z u^w)(1 - sign/z u^w)): row d holds sign^d u^(w|d| + 2wj)
    dmax = (order - 1) // w
    rows = []
    for d in range(-dmax, dmax + 1):
        c = sign ** abs(d)
        rows.append(QSeries.from_terms(
            {e: c for e in range(w * abs(d), order, 2 * w)}, order))
    return _Atom(ChargeSeries(-dmax, rows), [(1, w, False), (-1, w, False)])


def reference_jtp(m, order, window):
    atoms = [_fermion_pair(w, w, order) for w in range(1, order, 2)]
    return reference_graded_product(atoms, *window, order, pad=0)


def reference_kp(m, order, window):
    atoms = [_boson_pair(w, -1, order) for w in range(1, order, 2)]
    return reference_graded_product(atoms, *window, order, pad=0)


def ref_neg_budget(m):
    # the total negative u-cost of the factors 1 + z u^(2k - m)
    return sum(max(0, m - 2 * k) for k in range(1, m + 1))


def test_neg_budget_matches_the_sum():
    assert [-sector_window(m, 0)[0] for m in range(2, 300)] == \
        [ref_neg_budget(m) for m in range(2, 300)]


def reference_fockprod(m, order, window):
    budget = ref_neg_budget(m)
    padded = order + budget
    atoms = []
    k = 1
    while 2 * k - m - budget < order:
        wp, wm = 2 * k - m, 2 * k - 2 + m
        atoms.append(_fermion_pair(wp, wm, padded))
        wb = m * (2 * k - 1)
        if wb - budget < order:
            atoms.append(_boson_pair(wb, 1, padded))
        k += 1
    return reference_graded_product(atoms, *window, order, pad=budget)


# -- one factor as an atom ----------------------------------------------------


def _factor_atom(step, cost, sign, inverse, order):
    # (1 + sign z^step u^cost)^(-1 if inverse else 1): row z^(j step) holds
    # (-sign)^j u^(j cost) for every j >= 0 if inverse, else j = 0 and sign
    # u^cost at j = 1
    if inverse:
        terms = [((-sign) ** j, j * cost)
                 for j in range((order - 1) // cost + 1)]
    else:
        terms = [(1, 0), (sign, cost)]
    rows = [QSeries.from_terms({e: c}, order) for c, e in terms]
    if step < 0:
        rows.reverse()
    return _Atom(ChargeSeries(min(0, step * (len(rows) - 1)), rows),
                 [(step, cost, not inverse)])


def reference_factor_product(factors, window, order):
    pad = -sum(min(0, cost) for _, cost, _, _ in factors)
    atoms = [_factor_atom(*f, order + pad) for f in factors]
    return reference_graded_product(atoms, *window, order, pad)


# name -> (package builder, reference builder), each (m, order, window); only
# the left-hand sides of jtp and kp are graded products
GRADED = {
    "fockprod": (fock_char_product, reference_fockprod),
    "jtp": (lambda m, order, window: jacobi_triple_sides(order, window)[0],
            reference_jtp),
    "kp": (lambda m, order, window: inverse_product_sides(order, window)[0],
           reference_kp),
}


def _outcome(build, *args):
    try:
        cs = build(*args)
    except QcharError as err:
        return type(err)
    return cs.zmin, cs.rows


def _assert_matches(name, m, order, window):
    build, reference = GRADED[name]
    assert _outcome(build, m, order, window) == \
        _outcome(reference, m, order, window)


# windows reach past cap = order + pad + 8 on either side, and may miss it
@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GRADED)), st.integers(2, 8), st.integers(1, 30),
       st.integers(-45, 45), st.integers(0, 60))
def test_graded_product_matches_reference(name, m, order, lo, width):
    _assert_matches(name, m, order, (lo, lo + width))


# larger orders need wider packed digits; fockprod m = 6 and 8 move rows
# down to 6 and 12 digits below u^0
@pytest.mark.parametrize("order", [100, 200])
@pytest.mark.parametrize("name,m", [("jtp", 2), ("kp", 2), ("fockprod", 2),
                                    ("fockprod", 3), ("fockprod", 4),
                                    ("fockprod", 5), ("fockprod", 6),
                                    ("fockprod", 8)])
def test_graded_product_matches_reference_wide_digits(name, m, order):
    _assert_matches(name, m, order, (-8, 8))


# large pads: fockprod at m = 9..20 moves rows down by up to 90 digits
# before the costly factors lift them, and cap = order + pad + 8 reaches
# past 100, so windows are drawn inside, across and past it
@settings(max_examples=60, deadline=None)
@given(st.integers(9, 20), st.integers(1, 12), st.integers(-125, 125),
       st.integers(0, 12))
@example(20, 2, 97, 5)
@example(20, 6, -106, 3)
def test_graded_product_matches_reference_large_pad(m, order, lo, width):
    _assert_matches("fockprod", m, order, (lo, lo + width))


# the digit width only has to hold the coefficients read back: one byte
# more changes no row
@pytest.mark.parametrize("name,m,order", [("jtp", 2, 60), ("kp", 2, 60),
                                          ("fockprod", 3, 40),
                                          ("fockprod", 12, 6)])
def test_rows_do_not_depend_on_a_wider_digit(monkeypatch, name, m, order):
    build = GRADED[name][0]
    want = _outcome(build, m, order, (-6, 6))
    bound = bivariate._plus_bound
    monkeypatch.setattr(bivariate, "_plus_bound", lambda *a: bound(*a) << 8)
    assert _outcome(build, m, order, (-6, 6)) == want


# Factor lists no builder makes: lone factors, odd counts, once and inverse
# factors of either step mixed, once costs below zero, all costs of one
# parity. The bound is the exact product at z = 1 with every sign +, its
# negative costs applied first, so nothing above the range moves into it.
@st.composite
def _factor_lists(draw):
    parity = draw(st.integers(0, 1))
    factors = []
    for _ in range(draw(st.integers(1, 7))):
        inverse = draw(st.booleans())
        half = draw(st.integers(0 if inverse else -2, 12))
        cost = 2 * half + parity
        if inverse and cost == 0:
            cost = 2
        factors.append((draw(st.sampled_from([1, -1])), cost,
                        draw(st.sampled_from([1, -1])), inverse))
    return factors


@settings(max_examples=300, deadline=None)
@given(_factor_lists(), st.integers(1, 30), st.integers(-12, 12),
       st.integers(0, 10))
@example([(1, 1, 1, True)], 9, 0, 3)
@example([(-1, 3, -1, False)], 9, -2, 2)
@example([(1, -3, 1, False), (1, 5, -1, True), (-1, -1, 1, False)], 12, -3, 6)
@example([(1, 0, 1, False), (-1, 2, 1, True), (-1, 4, -1, False)], 20, -4, 8)
def test_graded_product_of_any_factors_matches_reference(factors, order, lo,
                                                         width):
    pad = -sum(min(0, cost) for _, cost, _, _ in factors)
    ordered = sorted(factors, key=lambda f: f[1])
    bound = ref_coeff_bound(ordered, pad, order + 2 * pad)
    window = (lo, lo + width)
    got = bivariate._graded_product(factors, *window, order, bound)
    want = reference_factor_product(factors, window, order)
    assert (got.zmin, got.rows) == (want.zmin, want.rows)


# -- the band cost table against the full-width table it replaced -----------
#
# _FullCostTable is bivariate._CostTable as it was before the band
# tables, kept verbatim but for its copy and get, which the reference
# product above reads. ref_coeff_bound is the digit-width bound the graded
# products used before they read it from the closed-form product at z = 1.


class _FullCostTable:
    """Exact minimum u-cost to reach charge r in [-cap, cap] over a mover
    pool, starting at cost 0 anywhere in [lo, hi]."""

    __slots__ = ("cap", "cost")

    def __init__(self, cap: int, lo: int = 0, hi: int = 0):
        self.cap = cap
        self.cost = [_INF] * (2 * cap + 1)
        for r in range(max(lo, -cap), min(hi, cap) + 1):
            self.cost[r + cap] = 0

    def copy(self):
        t = _FullCostTable(self.cap)
        t.cost = self.cost[:]
        return t

    def get(self, r: int):
        if -self.cap <= r <= self.cap:
            return self.cost[r + self.cap]
        return _INF

    def add_mover(self, step: int, cost: int, once: bool) -> None:
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


def ref_coeff_bound(factors, pad: int, length: int) -> int:
    """Largest coefficient of u^-pad .. u^(length - pad - 1) in the product
    at z = 1 with every sign +, truncated the same way as the packed rows.
    Every coefficient the packed assembly holds is a signed sum over a
    subset of the same terms, so this bounds them all."""
    a = [0] * length
    a[pad] = 1
    for _, cost, _, inverse in factors:
        if inverse:
            for t in range(cost, length):
                a[t] += a[t - cost]
        elif cost >= 0:
            a[cost:] = map(add, a[cost:], a)
        else:
            a[:cost] = map(add, a[:cost], a[-cost:])
    return max(a)


# every mover of the graded products has step +-1; a once mover may cost
# less than nothing, a repeatable one costs > 0
_movers = st.lists(
    st.tuples(st.sampled_from([-1, 1]), st.booleans()).flatmap(
        lambda so: st.tuples(st.just(so[0]),
                             st.integers(-3 if so[1] else 1, 40),
                             st.just(so[1]))),
    max_size=14)


# seed windows inside, straddling and past [-cap, cap]. The examples land
# moves exactly one below and exactly at the limit at the band edges, skip
# a mover that is no dearer than a cheaper one, and undo a move at the top
# edge after a closure was recorded, which an unclipped table would not
# notice; an undo that gains exactly nothing keeps the closure, one that
# gains 1 drops it
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 25), st.integers(1, 60), st.integers(-35, 35),
       st.integers(-1, 12), _movers)
@example(5, 4, 0, 0, [(1, 3, True), (-1, 3, True)])
@example(5, 4, 0, 0, [(1, 4, True), (-1, 4, True)])
@example(5, 4, 0, 0, [(-1, 2, True), (-1, 1, True), (1, 3, True)])
@example(5, 4, 0, 0, [(1, 1, False), (-1, 1, False)])
@example(6, 7, -1, 2, [(1, -2, True), (-1, 4, False), (1, 2, False)])
@example(6, 40, 0, 0, [(1, 5, False), (1, 4, False), (-1, 9, False)])
@example(5, 10, 5, 0, [(1, 1, False), (-1, -1, True), (1, 1, False)])
@example(5, 10, 5, 0, [(1, 1, False), (-1, -3, True), (1, 1, False)])
@example(5, 10, 5, 0, [(1, 2, False), (-1, -3, True), (1, 2, False)])
def test_band_table_matches_full_table(cap, limit, lo, width, movers):
    ref = _FullCostTable(cap, lo, lo + width)
    band = _CostTable(cap, limit, lo, lo + width)
    spent = 0
    for step, cost, once in movers:
        ref.add_mover(step, cost, once)
        band.add_mover(step, cost, once)
        spent += max(0, -cost)
        # exact below the limit less the negative cost spent so far; every
        # other entry at least that (a stored cost is some path's cost)
        below = limit - spent
        for r, (want, got) in enumerate(zip(ref.cost, band.cost)):
            if want < below:
                assert got == want, (r, movers)
            else:
                assert got >= below, (r, movers)
        # inf outside the band, and the band edges below the limit
        outside = band.cost[:band.lo] + band.cost[band.hi + 1:]
        assert all(v == _INF for v in outside)
        if band.lo <= band.hi:
            assert band.cost[band.lo] < limit and band.cost[band.hi] < limit


class _Sized(Exception):
    pass


def _sized(name, m, order):
    """The factors a graded product multiplies and the digit-width bound
    it passes with them, caught before any row is built."""
    def catch(factors, req_lo, req_hi, order, bound):
        raise _Sized(factors, bound)

    real = bivariate._graded_product
    bivariate._graded_product = catch
    try:
        GRADED[name][0](m, order, (0, 0))
    except _Sized as sized:
        return sized.args
    finally:
        bivariate._graded_product = real
    raise AssertionError("no graded product was built")


def _assert_never_narrower(name, m, order):
    # the reference bounds every coefficient the packed rows can hold
    factors, bound = _sized(name, m, order)
    pad = ref_neg_budget(m) if name == "fockprod" else 0
    assert bound >= ref_coeff_bound(factors, pad, order + 2 * pad)


@pytest.mark.parametrize("name,m,order", [("jtp", 2, 240), ("kp", 2, 1600),
                                          ("fockprod", 3, 400),
                                          ("fockprod", 5, 97)])
def test_width_is_never_narrower_than_the_loop(name, m, order):
    _assert_never_narrower(name, m, order)


# every factor list the graded products multiply at small orders, fockprod
# up to pads of 110 digits
@pytest.mark.parametrize("order", [1, 7, 60])
@pytest.mark.parametrize("name,m", [("jtp", 2), ("kp", 2)]
                         + [("fockprod", m) for m in range(2, 22)])
def test_width_is_never_narrower_than_the_loop_at_small_orders(name, m, order):
    _assert_never_narrower(name, m, order)


# both parities of m, pads up to 380 digits
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(1, 300))
@example(40, 300)
@example(39, 1)
def test_fockprod_width_is_never_narrower_than_the_loop(m, order):
    _assert_never_narrower("fockprod", m, order)
