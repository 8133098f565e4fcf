import json
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from qchar import characters
from qchar.characters import (
    BASIC_MAX_ORDER,
    SECTOR_MAX_SPAN,
    IdentityReport,
    _theta_bracket,
    basic_char,
    compare_series,
    family_char,
    fock_sector_char,
    growth_report,
    log_coeff_estimate,
    quasiparticle_char,
    recurrence_step,
    sector_closed_form,
    sector_pair_product,
    sector_sum,
    sector_window,
    vacuum_identity_sides,
)
from qchar.errors import InsufficientOrder, InvalidParameter, ResourceLimit
from qchar.qseries import (
    MAX_WINDOW,
    QSeries,
    dist_product,
    euler_phi,
    gauss_sum,
    inv_euler_phi,
    pochhammer,
)


def q_coeffs(qs, count):
    return [qs.q_coeff(n) for n in range(count)]


# ---------------------------------------------------------------------------
# slow reference implementations


def lattice_exp(m, s, a, p):
    return (p + s) * (p + s + 1) - s * m + m * a * (a + 1) + 2 * m * a * p


def naive_sector_sum(m, s, order):
    # brute rectangle scan, bounds far beyond anything that can land
    # below the truncation order
    bound = order + abs(s) + 8
    acc = {}
    for a in range(-bound, bound + 1):
        for p in range(-bound, bound + 1):
            if a >= 0 and p >= 0:
                sign = 1 if a % 2 == 0 else -1
            elif a <= -1 and p <= -1:
                sign = -1 if a % 2 == 0 else 1
            else:
                continue
            e = lattice_exp(m, s, a, p)
            if e < order:
                acc[e] = acc.get(e, 0) + sign
    return QSeries.from_terms(acc, order)


# The row-by-row scan sector_sum used before the completed-square ranges,
# kept verbatim as a differential reference for them.


def _lattice_u_exp(m: int, s: int, a: int, p: int) -> int:
    # u-exponent of the (a, p) lattice term: doubled q-exponent
    return (p + s) * (p + s + 1) - s * m + m * a * (a + 1) + 2 * m * a * p


def _scan_quadrant(m: int, s: int, order: int, acc: dict, upper: bool) -> None:
    # upper: a, p >= 0 with sign (-1)^a; lower: a, p <= -1 with sign -(-1)^a.
    # The exponent is a parabola in p opening upward with vertex at
    # 2p = -(2s + 1 + 2am), so each scan may walk through a dip before
    # exponents clear the truncation order.
    a = 0 if upper else -1
    step = 1 if upper else -1
    while True:
        v2 = -(2 * s + 1 + 2 * a * m)  # twice the p-vertex
        lo = v2 // 2
        best = None
        for p in (lo, lo + 1):
            p = max(p, 0) if upper else min(p, -1)
            e = _lattice_u_exp(m, s, a, p)
            best = e if best is None else min(best, e)
        if best >= order:
            # once the vertex has left the quadrant the row minimum is
            # monotone in |a|, so nothing further can re-enter the window
            settled = (v2 <= 0) if upper else (v2 >= -2)
            if settled:
                return
        else:
            sign = 1 if a % 2 == 0 else -1
            if not upper:
                sign = -sign
            p = 0 if upper else -1
            while True:
                e = _lattice_u_exp(m, s, a, p)
                if e < order:
                    acc[e] = acc.get(e, 0) + sign
                elif (2 * p >= v2) if upper else (2 * p <= v2):
                    break
                p += step
        a += step


def scan_sector_sum(m, s, order):
    acc = {}
    _scan_quadrant(m, s, order, acc, upper=True)
    _scan_quadrant(m, s, order, acc, upper=False)
    return QSeries.from_terms(acc, order)


def naive_quasiparticle(m, s, order):
    # literal quadruple enumeration with the documented per-variable cutoffs
    nu = order + s * m
    if nu <= 0:
        return QSeries.zero(order)
    total = QSeries.zero(nu)
    a = 0
    while a * (a + 1) < nu:
        b = 0
        while b * (b - 1) < nu:
            c = 0
            while 2 * c * m < nu:
                d = a - b + c - s
                e = a * (a + 1) + b * (b - 1) + 2 * c * m
                if d >= 0 and e < nu:
                    den = (
                        pochhammer(1, a, nu)
                        * pochhammer(1, b, nu)
                        * pochhammer(m, c, nu)
                        * pochhammer(m, d, nu)
                    )
                    term = QSeries.monomial(e, nu) * den.invert()
                    total = total + term.restricted(nu)
                c += 1
            b += 1
        a += 1
    out = total.shifted(-s * m)
    return out.restricted(order) if out.order > order else out


# ---------------------------------------------------------------------------
# lattice sum


def test_sector_sum_vacuum_is_gauss():
    assert sector_sum(2, 0, 40) == gauss_sum(40)


def test_sector_sum_matches_brute_force():
    for m, s in [(2, 0), (2, 1), (3, -2), (5, 4), (2, -5), (4, 0)]:
        assert sector_sum(m, s, 60) == naive_sector_sum(m, s, 60)


def test_sector_sum_cutoff_doubling():
    for m, s in [(2, 3), (3, -1), (4, 2)]:
        wide = sector_sum(m, s, 160).restricted(80)
        assert wide == sector_sum(m, s, 80)


def test_sector_sum_reflection():
    # charge s and charge m-1-s give the same sum
    assert sector_sum(3, 0, 200) == sector_sum(3, 2, 200)
    assert sector_sum(5, 1, 200) == sector_sum(5, 3, 200)
    assert sector_sum(2, -4, 150) == sector_sum(2, 5, 150)


def test_sector_sum_mirror_pair():
    # u^{sm} h_s + u^{-sm} h_{-s} = 2 * gauss_sum
    for m, s in [(2, 1), (3, 2), (5, 4), (2, 0)]:
        lhs = sector_sum(m, s, 120).shifted(s * m) + sector_sum(m, -s, 120 + 2 * s * m).shifted(-s * m)
        assert lhs.first_diff(2 * gauss_sum(120)) is None


def _exact(qs):
    return qs.min_exp, qs.order, list(qs.coeffs)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(-600, 600), st.integers(-5, 3000))
def test_sector_sum_matches_scan_reference(m, s, order):
    assert _exact(sector_sum(m, s, order)) == _exact(scan_sector_sum(m, s, order))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(-600, 600), st.integers(-200, 200))
def test_sector_sum_matches_scan_reference_near_gap(m, s, delta):
    # around m s^2 / 2 the gap jump and the stop rule decide together
    # whether a far row still holds terms; past MAX_WINDOW the sum refuses
    # its window before building anything
    order = m * s * s // 2 + delta
    if order - sector_window(m, 0)[0] > MAX_WINDOW:
        with pytest.raises(ResourceLimit):
            sector_sum(m, s, order)
        return
    assert _exact(sector_sum(m, s, order)) == _exact(scan_sector_sum(m, s, order))


@pytest.mark.parametrize("s", [-4_000_000, 4_000_000])
def test_sector_sum_far_charge_is_bounded(s):
    # every term lies far above u^2; the empty rows are jumped, not walked
    t0 = time.perf_counter()
    h = sector_sum(2, s, 2)
    assert time.perf_counter() - t0 < 0.5
    assert h.is_zero() and h.order == 2


def test_sector_sum_rejects_small_m():
    with pytest.raises(InvalidParameter):
        sector_sum(1, 0, 10)


# ---------------------------------------------------------------------------
# sector characters


def test_fock_sector_char_vacuum_anchor():
    # frozen state counts: re-derived independently by the enumeration oracle
    assert q_coeffs(fock_sector_char(2, 0, 12), 5) == [1, 2, 5, 10, 20]


def test_fock_sector_char_reflection():
    assert fock_sector_char(3, 0, 200) == fock_sector_char(3, 2, 200)


def test_fock_sector_char_negative_min_exp():
    f = fock_sector_char(5, 3, 40)
    assert f.min_exp < 0


def test_fock_sector_char_top_is_product():
    for m in (2, 3, 4, 5):
        d = dist_product(1, 200)
        invm = inv_euler_phi(m, 200)
        rhs = (d * d) * (invm * invm)
        assert fock_sector_char(m, m - 1, 200).first_diff(rhs) is None


def test_fock_sector_char_span_past_the_bound(monkeypatch):
    # refused once its rows are found, before the denominator is built;
    # fs(1000, 499) reaches down to u^-pad(1000) = u^-249500
    monkeypatch.setattr(characters, "_inverse_denominator", None)
    monkeypatch.setattr(characters, "_BUILDS", {})
    monkeypatch.setattr(characters, "_SECTORS", {})
    for m, s, order in ((1000, 499, 2), (1000, 500, 2),
                        (2, 0, SECTOR_MAX_SPAN + 1)):
        with pytest.raises(ResourceLimit, match="past its bound 65536"):
            fock_sector_char(m, s, order)
    # a far charge holds no row below the window, so nothing is built
    assert fock_sector_char(1000, 1499, 2).is_zero()
    assert fock_sector_char(2, MAX_WINDOW, 5).is_zero()
    # fs(2, 0) starts at u^0: at the bound it goes on to the build
    with pytest.raises(TypeError):
        fock_sector_char(2, 0, SECTOR_MAX_SPAN)
    assert characters._BUILDS == {("inverse", 2): SECTOR_MAX_SPAN}
    assert characters._SECTORS == {}  # nothing refused or empty is kept


@pytest.mark.parametrize("sides", [
    lambda m, order: (sector_pair_product(m, order),),
    vacuum_identity_sides,
])
def test_pair_quotient_sides_below_order_one_and_below_m_two(sides):
    # zero series of the order asked, and m = 1 refused at every order
    for order in (-1, 0):
        assert all(side == QSeries.zero(order) for side in sides(2, order))
    for order in (-1, 0, 5):
        with pytest.raises(InvalidParameter, match="^need m >= 2, got 1$"):
            sides(1, order)


def test_vacuum_sides_check_the_sum_bound_before_the_quotient(monkeypatch):
    def refuse(*args):
        raise AssertionError("the pair quotient was built")

    monkeypatch.setattr(characters, "_built_pair_quotient", refuse)
    with pytest.raises(ResourceLimit, match="the quasiparticle sum of charge 0"):
        vacuum_identity_sides(2, characters.QP_MAX_ORDER + 1)


def test_pair_product_constant_term():
    assert sector_pair_product(3, 10).q_coeff(0) == 2


def test_pair_product_direct_expansion():
    # 2 (1 + q + q^2 + 2q^3 + ...)^2 (1 + q^m + ...)^2 recomputed at doubled order
    m = 2
    wide = sector_pair_product(m, 160).restricted(80)
    assert wide == sector_pair_product(m, 80)
    lhs = fock_sector_char(m, 1, 80).shifted(m) + fock_sector_char(m, -1, 80 + 2 * m).shifted(-m)
    assert lhs.first_diff(sector_pair_product(m, 80)) is None


def test_closed_form_k0():
    for m in (2, 3):
        d = dist_product(1, 100)
        invm = inv_euler_phi(m, 100)
        assert sector_closed_form(m, 0, 100) == (d * d) * (invm * invm)


def test_closed_form_matches_sectors():
    for m, k in [(2, 1), (2, 3), (3, 2), (4, 1)]:
        c = sector_closed_form(m, k, 150)
        assert c.first_diff(fock_sector_char(m, (k + 1) * (m - 1), 150)) is None
        assert c.first_diff(fock_sector_char(m, -k * (m - 1), 150)) is None


def test_closed_form_rejects_negative_k():
    with pytest.raises(InvalidParameter):
        sector_closed_form(2, -1, 50)


def test_recurrence_step():
    for m in (2, 3, 4):
        f = fock_sector_char(m, 0, 80)
        out = recurrence_step(m, 0, f, 80)
        assert out == fock_sector_char(m, m - 1, 80)


def test_recurrence_iterated():
    m, order = 3, 120
    f = fock_sector_char(m, 0, order + 100)
    s = 0
    for _ in range(3):
        f = recurrence_step(m, s, f, f.order - 2 * abs(s) * m if s else f.order)
        s += m - 1
        assert f.first_diff(fock_sector_char(m, s, order)) is None


def test_recurrence_shifts_lowest_exponent():
    out = recurrence_step(2, 1, fock_sector_char(2, 1, 80), 76)
    assert out.first_diff(fock_sector_char(2, 2, 76)) is None


def test_recurrence_insufficient_order():
    f = fock_sector_char(2, 1, 20)
    with pytest.raises(InsufficientOrder):
        recurrence_step(2, 1, f, 30)


# ---------------------------------------------------------------------------
# quasiparticle sum


def test_quasiparticle_matches_naive():
    for m, s in [(2, 0), (2, 1), (3, -2), (4, 3), (2, -4)]:
        assert quasiparticle_char(m, s, 40) == naive_quasiparticle(m, s, 40)


def test_quasiparticle_equals_sector_char():
    for m in (2, 3):
        for s in range(-3, 5):
            a = quasiparticle_char(m, s, 90)
            b = fock_sector_char(m, s, 90)
            assert a.first_diff(b) is None, (m, s)


def test_quasiparticle_lowest_term_charge_one():
    # single one-particle state at the bottom of the s=1 sector
    f = quasiparticle_char(2, 1, 8)
    assert f.min_exp == 0
    assert f.coeff(0) == 1


def test_quasiparticle_vacuum_constant():
    assert quasiparticle_char(3, 0, 1).coeff(0) == 1


def test_quasiparticle_cutoff_doubling():
    for m, s in [(2, 2), (3, -1)]:
        wide = quasiparticle_char(m, s, 120).restricted(60)
        assert wide == quasiparticle_char(m, s, 60)


def test_charge_bucket_collapse():
    # each fermionic charge bucket collapses to u^{g(g+1)} / phi(q); the
    # implementation never uses this, which makes it a sharp cross-check
    from qchar.characters import _charge_buckets, _digit_bytes

    nu = 80
    nb = _digit_bytes(nu)
    for g, packed in _charge_buckets(nu):
        bucket = QSeries.from_qdigits(0, nu, packed, nb, False)
        expect = QSeries.monomial(g * (g + 1), nu) * inv_euler_phi(1, nu)
        assert bucket.first_diff(expect) is None, g
        if g * (g + 1) < nu:
            assert bucket.min_exp == g * (g + 1)


def test_vacuum_identity():
    for m in (2, 3, 4):
        lhs, rhs = vacuum_identity_sides(m, 120)
        assert lhs.first_diff(rhs) is None
        assert lhs.q_coeff(0) == rhs.q_coeff(0) == 1


# ---------------------------------------------------------------------------
# irreducible characters


def test_basic_char_anchor():
    assert q_coeffs(basic_char(2, 12), 5) == [1, 2, 4, 8, 14]


def test_basic_char_past_its_bound(monkeypatch):
    # refused before its dist product is built
    monkeypatch.setattr(characters, "dist_product", None)
    with pytest.raises(ResourceLimit, match="at u-order 16385, past its bound 16384"):
        basic_char(2, BASIC_MAX_ORDER + 1)


def test_basic_char_low_coeffs_all_m():
    for m in (2, 3, 4, 5, 6):
        ch = basic_char(m, 8)
        assert ch.q_coeff(0) == 1
        assert ch.q_coeff(1) == 2


def test_basic_char_strictly_positive():
    ch = basic_char(3, 400)
    assert all(ch.q_coeff(n) > 0 for n in range(200))


def test_basic_char_from_sector():
    for m in (2, 3, 4):
        phi_m = euler_phi(m, 150)
        assert basic_char(m, 150).first_diff(fock_sector_char(m, 0, 150) * phi_m) is None
        assert basic_char(m, 150).first_diff(fock_sector_char(m, m - 1, 150) * phi_m) is None


def test_family_char_k0():
    assert family_char(3, 0, 100) == basic_char(3, 100)


def test_family_char_sign_symmetry():
    for m, k in [(2, 1), (2, 2), (3, 3), (4, 2)]:
        assert family_char(m, k, 250) == family_char(m, -k, 250)


def test_family_char_vs_closed_form():
    for m, k in [(2, 1), (3, 2), (4, 1)]:
        lhs = family_char(m, k, 150) * inv_euler_phi(m, 150)
        rhs = sector_closed_form(m, k, 150).shifted(-k * m * (m - 1))
        assert lhs.first_diff(rhs) is None


# The dense-inverse products basic_char and family_char evaluated before they
# became quotients, kept verbatim as references.


def ref_basic_char(m, o):
    d = dist_product(1, o)
    return (d * d) * inv_euler_phi(m, o)


def ref_family_char(m, k, o):
    br = _theta_bracket(m, k, o)
    d = dist_product(1, o)
    return br * ((d * d) * inv_euler_phi(m, o))


def window(qs):
    return qs.min_exp, qs.order, qs.coeffs


@pytest.mark.parametrize("order", [1, 2, 3, 5, 17, 61, 199, 800])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_quotients_match_dense_inverse_products(m, order):
    ref = ref_basic_char(m, order)
    assert window(basic_char(m, order)) == window(ref)
    for k in range(-4, 5):
        assert window(family_char(m, k, order)) == window(ref_family_char(m, k, order))


def test_quotients_below_order_one_are_zero():
    for order in (0, -3):
        assert window(basic_char(2, order)) == (order, order, ())
        assert window(family_char(3, 2, order)) == (order, order, ())


def test_theta_bracket_skips_terms_beyond_order():
    # only j = +-k lands below u^10; a loop over all 2k+1 terms would not finish
    k = 10**9
    assert family_char(2, k, 10) == 2 * basic_char(2, 10)
    assert family_char(2, -k, 10) == 2 * basic_char(2, 10)
    assert sector_closed_form(2, k, 10).is_zero()


# ---------------------------------------------------------------------------
# growth


def test_log_estimate_m2_n100():
    want = math.pi * 10 + 0.5 * math.log(3) - math.log(800 * math.sqrt(3))
    assert log_coeff_estimate(2, 100) == pytest.approx(want, rel=1e-12)


def test_log_estimate_monotone():
    for m in (2, 5):
        vals = [log_coeff_estimate(m, n) for n in range(1, 200)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_log_estimate_domain():
    with pytest.raises(InvalidParameter):
        log_coeff_estimate(2, 0)
    with pytest.raises(InvalidParameter):
        log_coeff_estimate(1, 5)


def test_growth_report_low_rows():
    rows = growth_report(3, 10)
    assert rows[0] == (0, 1, 0.0)
    assert rows[1][1] == 2
    assert len(rows) == 11


def test_growth_report_ratio_approaches_one():
    rows = growth_report(2, 200)
    assert abs(rows[200][2] - 1.0) < abs(rows[20][2] - 1.0)
    assert rows[200][2] == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# identity reports


def test_identity_report():
    a = QSeries.from_terms({0: 1, 2: 3}, 6)
    b = QSeries.from_terms({0: 1, 2: 4}, 8)
    rep = compare_series("demo", {"m": 2}, a, b)
    assert rep.verdict == "fail"
    assert rep.first_diff_u_exp == 2
    assert rep.order_u == 6
    blob = rep.to_json_dict()
    assert blob["lhs_coeff"] == "3" and blob["rhs_coeff"] == "4"
    assert json.dumps(blob)  # serializable

    ok = compare_series("demo", {"m": 2}, a, a)
    assert ok.passed()
    assert ok.to_json_dict()["first_diff_u_exp"] is None
    assert ok.to_json_dict()["ms"] == 0.0
