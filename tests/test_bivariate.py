import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from qchar import bivariate
from qchar.bivariate import (
    ZWIN_MAX_ROWS,
    ChargeSeries,
    coeff_z,
    compare_charge_series,
    cs_mul,
    cs_unit,
    fock_char_product,
    fock_char_window,
    inverse_product_sides,
    jacobi_triple_sides,
)
from qchar.characters import fock_sector_char
from qchar.errors import (InvalidParameter, OutOfWindow, ResourceLimit,
                          WindowUnderflow)
from qchar.oracle import enumerate_charge_series, reachable_charges
from qchar.qseries import QSeries, inv_euler_phi


def exact(zmin, row_dicts, order):
    rows = [QSeries.from_terms(t, order) for t in row_dicts]
    return ChargeSeries(zmin, rows, support_exact=True, min_floor=0)


def naive_rows(a, b):
    """Plain 2D convolution of the stored terms, as nested dicts."""
    out = {}
    for d1 in range(a.zmin, a.zmax + 1):
        for d2 in range(b.zmin, b.zmax + 1):
            tgt = out.setdefault(d1 + d2, {})
            for e1, c1 in a.row(d1).items():
                for e2, c2 in b.row(d2).items():
                    tgt[e1 + e2] = tgt.get(e1 + e2, 0) + c1 * c2
    return out


# ---------------------------------------------------------------------------
# ChargeSeries basics


def test_window_and_rows():
    cs = exact(-1, [{1: 1}, {0: 2}, {3: -1}], 10)
    assert cs.window() == (-1, 1)
    assert cs.order == 10
    assert cs.row(0).coeff(0) == 2
    assert coeff_z(cs, 1).coeff(3) == -1
    with pytest.raises(OutOfWindow):
        cs.row(2)


def test_shared_order_is_minimum():
    rows = [QSeries.one(10), QSeries.one(7)]
    assert ChargeSeries(0, rows).order == 7


def test_immutability_and_empty():
    cs = cs_unit(5)
    with pytest.raises(AttributeError):
        cs.zmin = 3
    with pytest.raises(InvalidParameter):
        ChargeSeries(0, [])


# ---------------------------------------------------------------------------
# cs_mul


def test_square_of_z_plus_inverse():
    a = exact(-1, [{0: 1}, {}, {0: 1}], 30)
    p = cs_mul(a, a)
    assert p.window() == (-2, 2)
    assert [p.row(d).coeff(0) for d in range(-2, 3)] == [1, 0, 2, 0, 1]
    assert p.order == 30
    assert p.support_exact


def test_mul_by_unit_preserves_rows():
    a = exact(0, [{1: 2}, {0: 5, 3: -1}], 25)
    p = cs_mul(a, cs_unit(25))
    assert p.window() == a.window()
    assert all(p.row(d) == a.row(d) for d in (0, 1))


def test_mul_matches_naive_convolution():
    a = exact(-1, [{0: 1, 2: -3}, {1: 4}, {0: 2}], 12)
    b = exact(0, [{0: 1}, {3: 5}], 12)
    p = cs_mul(a, b)
    ref = naive_rows(a, b)
    for d in range(p.zmin, p.zmax + 1):
        want = {e: c for e, c in ref.get(d, {}).items() if e < p.row(d).order}
        assert dict(p.row(d).items()) == {e: c for e, c in want.items() if c}


def test_mul_order_contract_mixed_orders():
    # a row known only to u^6 limits every product it contributes to,
    # while a generous floor keeps unstored rows out of the way
    rows = [QSeries.from_terms({0: 1}, 6), QSeries.from_terms({0: 1}, 20)]
    a = ChargeSeries(0, rows, support_exact=False, min_floor=30)
    p = cs_mul(a, a)
    assert p.row(0).order == 6
    assert p.row(1).order == 6
    assert p.row(2).order == 20


def test_mul_shared_order_caps_distant_rows():
    # with support tied to the shared order, even an individually
    # deeper row cannot claim past what the window promise supports
    rows = [QSeries.from_terms({0: 1}, 6), QSeries.from_terms({0: 1}, 20)]
    a = ChargeSeries(0, rows, support_exact=True, min_floor=0)
    p = cs_mul(a, a)
    assert p.row(2).order == 6


def test_mul_subwindow_only():
    a = exact(-1, [{0: 1}, {}, {0: 1}], 15)
    p = cs_mul(a, a, window=(0, 0))
    assert p.window() == (0, 0)
    assert p.row(0).coeff(0) == 2
    assert not p.support_exact


def test_mul_unbounded_inputs_underflow():
    # no support promise and no floor: nothing bounds the unstored rows
    a = ChargeSeries(0, [QSeries.from_terms({0: 1}, 10)])
    with pytest.raises(WindowUnderflow):
        cs_mul(a, a)


def test_mul_of_a_graded_product_underflows():
    # the graded products return their rows only, with the default fields
    # that bound nothing outside the window
    cs = fock_char_product(3, 20, (-2, 2))
    assert (cs.support_exact, cs.min_floor) == (False, None)
    with pytest.raises(WindowUnderflow):
        cs_mul(cs, cs)


def test_mul_require_order():
    a = exact(-1, [{0: 1}, {}, {0: 1}], 15)
    cs_mul(a, a, require_order=15)
    with pytest.raises(WindowUnderflow):
        cs_mul(a, a, require_order=16)


def test_mul_floor_bounds_unstored_rows():
    # no exact support, but a floor still yields honest (small) claims
    a = ChargeSeries(0, [QSeries.from_terms({0: 1}, 40)],
                     support_exact=False, min_floor=3)
    p = cs_mul(a, a)
    assert p.row(0).order == 6
    assert p.min_floor == 6


@st.composite
def small_charge_series(draw):
    zmin = draw(st.integers(-2, 1))
    width = draw(st.integers(1, 3))
    order = draw(st.integers(4, 9))
    rows = []
    for _ in range(width):
        terms = draw(st.dictionaries(st.integers(0, order - 1),
                                     st.integers(-4, 4), max_size=4))
        rows.append(QSeries.from_terms(terms, order))
    return ChargeSeries(zmin, rows, support_exact=True, min_floor=0)


@settings(max_examples=60, deadline=None)
@given(small_charge_series(), small_charge_series())
def test_mul_agrees_with_naive_below_claims(a, b):
    p = cs_mul(a, b)
    ref = naive_rows(a, b)
    for d in range(p.zmin, p.zmax + 1):
        row = p.row(d)
        got = dict(row.items())
        want = {e: c for e, c in ref.get(d, {}).items()
                if e < row.order and c != 0}
        assert got == want


# ---------------------------------------------------------------------------
# triple product


def test_triple_product_sides_agree():
    lhs, rhs = jacobi_triple_sides(120, (-6, 6))
    assert compare_charge_series("tp", {}, lhs, rhs).verdict == "pass"


def test_triple_product_charge_one_row():
    lhs, _ = jacobi_triple_sides(80, (-3, 3))
    assert lhs.row(1) == inv_euler_phi(1, 79).shifted(1)


def test_triple_product_symmetry():
    lhs, _ = jacobi_triple_sides(100, (-5, 5))
    assert all(lhs.row(d) == lhs.row(-d) for d in range(6))


def test_triple_product_stable_under_doubling():
    lo, _ = jacobi_triple_sides(40, (-4, 4))
    hi, _ = jacobi_triple_sides(80, (-4, 4))
    for d in range(-4, 5):
        assert hi.row(d).restricted(40) == lo.row(d)


# ---------------------------------------------------------------------------
# inverse-pair product


def naive_inverse_product(order, window):
    """Literal geometric expansion of every factor, multiplied as dicts."""
    acc = {0: {0: 1}}
    k = 1
    while 2 * k - 1 < order:
        w = 2 * k - 1
        fac = {}
        dmax = (order - 1) // w
        for d in range(-dmax, dmax + 1):
            row = {}
            e = w * abs(d)
            while e < order:
                row[e] = 1 if d % 2 == 0 else -1
                e += 2 * w
            if row:
                fac[d] = row
        new = {}
        for d1, r1 in acc.items():
            for d2, r2 in fac.items():
                tgt = new.setdefault(d1 + d2, {})
                for e1, c1 in r1.items():
                    for e2, c2 in r2.items():
                        if e1 + e2 < order:
                            tgt[e1 + e2] = tgt.get(e1 + e2, 0) + c1 * c2
        acc = new
        k += 1
    lo, hi = window
    return {d: {e: c for e, c in acc.get(d, {}).items() if c}
            for d in range(lo, hi + 1)}


def test_inverse_product_sides_agree():
    lhs, rhs = inverse_product_sides(90, (-5, 5))
    assert compare_charge_series("ip", {}, lhs, rhs).verdict == "pass"


def test_inverse_product_matches_naive_expansion():
    order, window = 36, (-4, 4)
    lhs, _ = inverse_product_sides(order, window)
    ref = naive_inverse_product(order, window)
    for d in range(window[0], window[1] + 1):
        assert dict(lhs.row(d).items()) == ref[d]


def test_inverse_product_stable_under_doubling():
    lo, _ = inverse_product_sides(30, (-3, 3))
    hi, _ = inverse_product_sides(60, (-3, 3))
    for d in range(-3, 4):
        assert hi.row(d).restricted(30) == lo.row(d)


# Before each factor the rows that it and the factors after it cannot carry
# into the window are dropped, so the last, 1/(1 + zu), which only raises
# charge, sweeps no row above the window. At q-order 1600 the rows and
# tables peak near 10 MB, and near 14 MB if the rows above the window live
# through that last factor
def test_inverse_product_rows_die_with_their_last_factor():
    tracemalloc.start()
    try:
        inverse_product_sides(1600, (-8, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20


def test_inverse_product_vacuum_row_leading_terms():
    # frozen from the theta-sum side: (1 - q + q^3 - ...) * invphi(q)^2
    lhs, _ = inverse_product_sides(12, (-1, 1))
    assert [lhs.row(0).coeff(2 * n) for n in range(6)] == [1, 1, 3, 6, 12, 21]


# ---------------------------------------------------------------------------
# theta sides as quotients, against the dense-inverse rows they replaced


def ref_triple_rows(order, lo, hi):
    rows = []
    for j in range(lo, hi + 1):
        e = j * j
        if e >= order:
            rows.append(QSeries.zero(order))
        else:
            rows.append(inv_euler_phi(1, order - e).shifted(e))
    return rows


def ref_inverse_rows(order, lo, hi):
    inv_sq = inv_euler_phi(1, order) * inv_euler_phi(1, order)
    rows = []
    for t in range(lo, hi + 1):
        ta = abs(t)
        terms = {}
        r = 0
        while r * (r + 1) + (2 * r + 1) * ta < order:
            terms[r * (r + 1) + (2 * r + 1) * ta] = (
                1 if (r + ta) % 2 == 0 else -1)
            r += 1
        rows.append((QSeries.from_terms(terms, order) * inv_sq)
                    .restricted(order))
    return rows


# symmetric, lopsided, missing 0 on either side, and rows with t^2 >= order
# (kp's rows with |t| >= order have no numerator at all)
THETA_CASES = [(1, (-2, 2)), (2, (5, 6)), (9, (-3, 12)), (20, (-9, 9)),
               (30, (-2, 7)), (40, (3, 9)), (40, (-9, -4)), (121, (-12, 1)),
               (400, (-10, 3))]


@pytest.mark.parametrize("order,window", THETA_CASES)
def test_theta_sides_match_dense_inverse_rows(order, window):
    lo, hi = window
    for sides, ref in ((jacobi_triple_sides, ref_triple_rows),
                       (inverse_product_sides, ref_inverse_rows)):
        _, rhs = sides(order, window)
        assert (rhs.zmin, rhs.zmax) == window
        assert ([(r.min_exp, r.order, r.coeffs) for r in rhs.rows]
                == [(r.min_exp, r.order, r.coeffs)
                    for r in ref(order, lo, hi)])


# ---------------------------------------------------------------------------
# two-variable Fock character


@pytest.mark.parametrize("m", [2, 3, 4])
def test_fock_product_rows_match_sector_characters(m):
    cs = fock_char_product(m, 100, (-4, 4))
    for s in range(-4, 5):
        assert coeff_z(cs, s).first_diff(fock_sector_char(m, s, 100)) is None


def test_fock_product_negative_exponent_rows():
    cs = fock_char_product(5, 60, (-2, 2))
    assert cs.row(1).min_exp < 0


def test_fock_product_charge_sum_matches_state_count():
    # summing all rows over a window that provably holds the whole support
    # must reproduce the oracle's state count with charge forgotten
    m, bound = 3, 30
    charges = reachable_charges(m, bound)
    cs = fock_char_product(m, bound, (min(charges) - 1, max(charges) + 1))
    total = {}
    for d in range(cs.zmin, cs.zmax + 1):
        for e, c in cs.row(d).items():
            total[e] = total.get(e, 0) + c
    want = {}
    for s in charges:
        for e, c in enumerate_charge_series(m, s, bound).items():
            want[e] = want.get(e, 0) + c
    assert total == want


def test_fock_product_rejects_bad_params():
    with pytest.raises(InvalidParameter):
        fock_char_product(1, 20, (-1, 1))
    with pytest.raises(InvalidParameter):
        fock_char_product(3, 0, (-1, 1))
    # order is checked before the span, which m = 1000 is past
    with pytest.raises(InvalidParameter):
        fock_char_product(1000, 0, (0, 0))


def test_fock_product_rows_are_bounded_by_qp_max_order():
    # m = 128 pads every row by 4032, so 2 + 2 * 4032 = 8066 digits fit the
    # bound 8192, and 128 + 2 * 4032 reach it; m = 129 pads by 4096, and
    # 1 more digit than that is past it
    assert fock_char_window(128, 2, (-1, 1)) == (-4032, 2)
    assert fock_char_window(128, 128, (-1, 1)) == (-4032, 128)
    for m, order in [(128, 129), (129, 1), (1000, 2), (10 ** 9, 2)]:
        with pytest.raises(ResourceLimit, match="past its bound 8192"):
            fock_char_product(m, order, (-1, 1))


# one window row per z-degree: 2^16 rows are built, one more is refused
# before anything is
GRADED_BUILDERS = [jacobi_triple_sides, inverse_product_sides,
                   lambda order, window: fock_char_product(2, order, window)]


@pytest.mark.parametrize("build", GRADED_BUILDERS)
def test_graded_rows_at_the_row_bound(build):
    assert ZWIN_MAX_ROWS == 1 << 16
    out = build(1, (-7, ZWIN_MAX_ROWS - 8))
    for cs in out if isinstance(out, tuple) else (out,):
        assert len(cs.rows) == ZWIN_MAX_ROWS


@pytest.mark.parametrize("build", GRADED_BUILDERS)
def test_graded_rows_past_the_row_bound(monkeypatch, build):
    def refuse(*args):
        raise AssertionError("a graded product was built")

    monkeypatch.setattr(bivariate, "_graded_product", refuse)
    for window in [(-7, ZWIN_MAX_ROWS - 7), (-10 ** 8, 10 ** 8)]:
        with pytest.raises(ResourceLimit, match="past its bound 65536"):
            build(1, window)


@pytest.mark.parametrize("build", GRADED_BUILDERS)
def test_graded_span_past_qp_max_order_is_refused_first(monkeypatch, build):
    # pad 0 for jtp, kp and fockprod at m = 2: the span is the u-order
    def refuse(*args):
        raise AssertionError("a graded product was built")

    monkeypatch.setattr(bivariate, "_graded_product", refuse)
    with pytest.raises(ResourceLimit, match="at u-order 8193 has a span in "
                       "packed digits of 8193, past its bound 8192"):
        build(8193, (0, 0))


# ---------------------------------------------------------------------------
# charge parity


def test_mixed_parity_costs_are_refused():
    factors = [(1, 1, 1, False), (-1, 1, 1, False),
               (1, 2, 1, False), (-1, 2, 1, False)]
    with pytest.raises(InvalidParameter, match="parity"):
        bivariate._graded_product(factors, -2, 2, 10, 100)


# every factor costs P = 1 (jtp, kp) or P = m (fockprod) mod 2, so row z^d
# holds only exponents of d P's parity; windows reach past the support
@pytest.mark.parametrize("name,build,parity", [
    ("jtp", lambda order, w: jacobi_triple_sides(order, w)[0], 1),
    ("kp", lambda order, w: inverse_product_sides(order, w)[0], 1)]
    + [(f"fockprod m={m}", lambda order, w, m=m: fock_char_product(m, order, w),
        m) for m in range(2, 6)])
@pytest.mark.parametrize("order", [1, 2, 7, 30, 61])
def test_rows_hold_one_parity_of_exponents(name, build, parity, order):
    cs = build(order, (-12, 12))
    for d in range(-12, 13):
        assert all((e - d * parity) % 2 == 0 for e, _ in cs.row(d).items())


# ---------------------------------------------------------------------------
# comparison reports


def test_compare_reports_failing_degree():
    a = exact(-1, [{0: 1}, {}, {0: 1}], 20)
    b = exact(-1, [{0: 1}, {}, {0: 1, 7: 2}], 20)
    rep = compare_charge_series("probe", {"m": 2}, a, b)
    assert rep.verdict == "fail"
    assert rep.params["z_degree"] == 1
    assert rep.first_diff_u_exp == 7
    assert (rep.lhs_coeff, rep.rhs_coeff) == (0, 2)
    assert rep.order_u == 20


def test_compare_pass_keeps_params_clean():
    a = exact(0, [{1: 1}], 10)
    rep = compare_charge_series("probe", {"m": 2}, a, a)
    assert rep.verdict == "pass"
    assert "z_degree" not in rep.params
