import json
import re
from bisect import bisect_left
from operator import add, sub

import pytest
from hypothesis import example, given, settings, strategies as st

from qchar import characters, expr, qseries
from qchar.characters import (
    _theta_bracket,
    basic_char,
    fock_sector_char,
    sector_closed_form,
    sector_pair_product,
    sector_sum,
    vacuum_identity_sides,
)

from qchar.errors import (
    InsufficientOrder,
    InvalidParameter,
    NonUnitLeadingCoefficient,
    OutOfWindow,
    ZeroSeries,
)
from qchar.qseries import (
    QSeries,
    _factor_product,
    digit_bytes,
    dist_product,
    euler_phi,
    format_series,
    gauss_sum,
    half_exp_str,
    inv_euler_phi,
    pack_digits,
    pochhammer,
    repack,
    round_up,
    unpack_digits,
)


# ---------------------------------------------------------------------------
# independent reference implementations (kept deliberately dumb)


def naive_mul(a: QSeries, b: QSeries) -> QSeries:
    order = min(a.min_exp + b.order, b.min_exp + a.order)
    acc = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb < order:
                acc[ea + eb] = acc.get(ea + eb, 0) + ca * cb
    out = QSeries.from_terms(acc, order)
    if out.is_zero() and not (a.is_zero() or b.is_zero()):
        return out
    return out


def partition_counts(n: int):
    # classic coin-change DP over parts 1..n
    dp = [1] + [0] * n
    for part in range(1, n + 1):
        for t in range(part, n + 1):
            dp[t] += dp[t - part]
    return dp


def strict_partition_counts(n: int):
    dp = [1] + [0] * n
    for part in range(1, n + 1):
        for t in range(n, part - 1, -1):
            dp[t] += dp[t - part]
    return dp


def q_coeffs(qs: QSeries, count: int):
    return [qs.q_coeff(n) for n in range(count)]


# ---------------------------------------------------------------------------
# construction and canonical form


def test_canonical_form_strips_leading_zeros():
    s = QSeries(0, 8, [0, 0, 3, 0, 1])
    assert s.min_exp == 2
    assert s.order == 8
    assert s.coeffs == (3, 0, 1, 0, 0, 0)
    assert len(s.coeffs) == s.order - s.min_exp


def test_zero_series_normal_form():
    s = QSeries(-4, 5, [0] * 9)
    assert s.is_zero()
    assert s.min_exp == s.order == 5
    assert s.coeffs == ()


def test_window_overflow_rejected():
    with pytest.raises(InvalidParameter):
        QSeries(0, 2, [1, 2, 3])


def test_coeff_access_and_window():
    s = QSeries.from_terms({-2: 1, 3: -7}, 5)
    assert s.coeff(-2) == 1
    assert s.coeff(-5) == 0
    assert s.coeff(3) == -7
    assert s.coeff(4) == 0
    with pytest.raises(OutOfWindow):
        s.coeff(5)


def test_from_terms_drops_out_of_claim_terms():
    s = QSeries.from_terms({0: 1, 99: 5}, 10)
    assert s == QSeries.one(10)


# ---------------------------------------------------------------------------
# add / mul basics


def test_add_cancels_constants():
    # (1 + q) + (-1 + q^2) below q^3
    a = QSeries.from_terms({0: 1, 2: 1}, 6)
    b = QSeries.from_terms({0: -1, 4: 1}, 6)
    assert (a + b) == QSeries.from_terms({2: 1, 4: 1}, 6)


def test_add_zero_mins_order():
    a = QSeries.from_terms({0: 2}, 10)
    z = QSeries.zero(4)
    s = a + z
    assert s.order == 4
    assert s.q_coeff(0) == 2


def test_phi_plus_minus_phi_is_zero():
    p = euler_phi(1, 12)
    assert (p + (-p)).is_zero()


def test_mul_geometric_inverse():
    one_minus_q = QSeries.from_terms({0: 1, 2: -1}, 40)
    geom = QSeries.from_terms({2 * k: 1 for k in range(20)}, 40)
    assert one_minus_q * geom == QSeries.one(40)


def test_mul_monomial_shift():
    # u^{-2} * (1 + u^2) = q^{-1} + 1
    a = QSeries.monomial(-2, 6)
    b = QSeries.from_terms({0: 1, 2: 1}, 6)
    prod = a * b
    assert prod.coeff(-2) == 1
    assert prod.coeff(0) == 1
    assert prod.min_exp == -2
    assert prod.order == 4  # -2 + 6


def test_pochhammer_two_factors():
    # (1-q)(1-q^2) = 1 - q - q^2 + q^3
    assert q_coeffs(pochhammer(1, 2, 8), 4) == [1, -1, -1, 1]


def test_pochhammer_examples():
    assert pochhammer(1, 0, 8) == QSeries.one(8)
    assert q_coeffs(pochhammer(2, 1, 8), 4) == [1, 0, -1, 0]
    with pytest.raises(InvalidParameter):
        pochhammer(0, 1, 8)


# ---------------------------------------------------------------------------
# invert


def test_invert_geometric():
    s = QSeries.from_terms({0: 1, 2: -1}, 8)
    assert q_coeffs(s.invert(), 4) == [1, 1, 1, 1]


def test_invert_partition_numbers():
    inv = inv_euler_phi(1, 22)
    assert q_coeffs(inv, 11) == partition_counts(10)


def test_invert_monomial():
    m = QSeries.monomial(-2, 0)
    assert m.invert() == QSeries.monomial(2, 4)


def test_invert_errors():
    with pytest.raises(ZeroSeries):
        QSeries.zero(5).invert()
    with pytest.raises(NonUnitLeadingCoefficient):
        QSeries.from_terms({0: 2}, 5).invert()


def test_invert_negative_unit_lead():
    s = QSeries.from_terms({0: -1, 2: 5}, 12)
    assert s * s.invert() == QSeries.one(12)


# ---------------------------------------------------------------------------
# the exact-division and product kernels against the code they replaced
#
# ref_mul and ref_invert are QSeries.__mul__ (for two series) and
# QSeries.invert as they were before `/` became the division kernel,
# kept verbatim; ref_mul is the schoolbook product over nonzero terms.


def ref_mul(self, other):
    lo = self.min_exp + other.min_exp
    order = min(self.min_exp + other.order, other.min_exp + self.order)
    n = order - lo
    if n <= 0:
        return QSeries.zero(order)
    a_items = [(t, c) for t, c in enumerate(self.coeffs) if c]
    b_items = [(t, c) for t, c in enumerate(other.coeffs) if c]
    if len(b_items) > len(a_items):
        a_items, b_items = b_items, a_items
    b_exps = [t for t, _ in b_items]
    b_cs = [c for _, c in b_items]
    buf = [0] * n
    for ta, ca in a_items:
        lim = n - ta
        if lim <= 0:
            break
        for i in range(bisect_left(b_exps, lim)):
            buf[ta + b_exps[i]] += ca * b_cs[i]
    return QSeries(lo, order, buf)


def ref_invert(self):
    if self.is_zero():
        raise ZeroSeries("cannot invert the zero series")
    c0 = self.coeffs[0]
    if c0 not in (1, -1):
        raise NonUnitLeadingCoefficient(f"lowest coefficient {c0} is not a unit")
    n = self.order - self.min_exp
    a_items = [(t, c) for t, c in enumerate(self.coeffs) if t and c]
    buf = [0] * n
    buf[0] = c0
    for t in range(1, n):
        s = 0
        for k, c in a_items:
            if k > t:
                break
            s += c * buf[t - k]
        if s:
            buf[t] = -c0 * s
    return QSeries(-self.min_exp, self.order - 2 * self.min_exp, buf)


def parts(qs):
    return qs.min_exp, qs.order, qs.coeffs


@st.composite
def unit_divisors(draw):
    """Lowest coefficient +-1, other coefficients any small int, nonzero
    only at multiples of a gap, so the gcd of the exponent gaps can be > 1."""
    lo = draw(st.integers(-8, 8))
    gap = draw(st.integers(1, 4))
    width = draw(st.integers(1, 40))
    coeffs = [draw(st.sampled_from((1, -1)))]
    for t in range(1, width):
        coeffs.append(draw(st.integers(-4, 4)) if t % gap == 0 else 0)
    return QSeries(lo, lo + width, coeffs)


@st.composite
def dividends(draw):
    """Zero, shorter or longer than the divisor; dense or on a sublattice,
    so some residue classes of the quotient can be zero."""
    lo = draw(st.integers(-8, 8))
    width = draw(st.integers(0, 60))
    step = draw(st.integers(1, 5))
    coeffs = [draw(st.integers(-9, 9)) if t % step == 0 else 0
              for t in range(width)]
    return QSeries(lo, lo + width, coeffs)


@given(dividends(), unit_divisors())
@settings(max_examples=400, deadline=None)
@example(QSeries.zero(-3), QSeries(-2, 5, [-1, 0, 3]))
@example(QSeries(-5, -4, [7]), QSeries(-6, 30, [1] + [0] * 35))
@example(QSeries(-4, 40, [2] * 44), QSeries(3, 6, [-1, 0, -1]))
def test_division_matches_reference(x, d):
    assert parts(x / d) == parts(ref_mul(x, ref_invert(d)))
    assert parts(d.invert()) == parts(ref_invert(d))


# coefficients small or past 2^64, so a product of two passes 2^128
COEFFS = st.one_of(st.integers(-9, 9), st.integers(-(1 << 70), 1 << 70))


@st.composite
def factors(draw):
    """Zero, sparse or dense, on every offset or on even offsets only (as
    every sector, Euler and dist series is), from a min_exp of either
    parity, with small or huge coefficients."""
    lo = draw(st.integers(-9, 9))
    width = draw(st.integers(0, 40))
    gap = draw(st.sampled_from((1, 2, 2, 5)))
    keep = draw(st.sampled_from((1, 1, 4)))
    coeffs = [draw(COEFFS) if t % gap == 0 and draw(st.integers(1, keep)) == 1
              else 0 for t in range(width)]
    return QSeries(lo, lo + width, coeffs)


# the denser side on even offsets but for one term, so the product walks
# every offset; sparse times dense in both orders and a tie in density
ALMOST_EVEN = QSeries(-3, 9, [5, 0, 1, 0, -2, 0, 1, 0, 3, 0, 1, 7])


@given(factors(), factors())
@settings(max_examples=400, deadline=None)
@example(ALMOST_EVEN, QSeries(1, 20, [1, 0, 0, 0, 2]))
@example(QSeries(1, 20, [1, 0, 0, 0, 2]), ALMOST_EVEN)
@example(QSeries(0, 12, [1, 4, 0, 0, 6, 0, 2]), QSeries(-1, 7, [3, 0, 1]))
@example(QSeries(2, 9, [1, 0, 1]), QSeries(-4, 6, [1, 1]))
@example(QSeries.zero(4), ALMOST_EVEN)
@example(QSeries(0, 6, [(1 << 64) + 1] * 6), QSeries(-1, 30, [-(1 << 65), 0, 3]))
# the sparser side all +-1 or, as a bracket, +-1 and +-2: an Euler factor
# times a dense side on even offsets (step 2) and on every offset (step
# 1), a bracket, a -1 lead, and a dense side past 2^64
@example(euler_phi(1, 40), QSeries(-2, 40, [t + 1 if t % 2 == 0 else 0
                                            for t in range(42)]))
@example(QSeries(1, 30, [3 - t for t in range(29)]), euler_phi(2, 34))
@example(QSeries.from_terms({0: 2, 6: -2, 8: 1}, 30), QSeries(-1, 25, [5] * 26))
@example(QSeries(-3, 20, [-1, 0, 1, 0, 0, 0, -1, 0, 0, 0, 0, 1]), ALMOST_EVEN)
@example(euler_phi(1, 30), QSeries(0, 30, [(1 << 64) + t for t in range(30)]))
def test_product_matches_reference(a, b):
    assert parts(a * b) == parts(ref_mul(a, b))
    assert parts(b * a) == parts(ref_mul(a, b))


def ref_add(a, b):
    order = min(a.order, b.order)
    acc = {}
    for e, c in a.items() + b.items():
        if e < order:
            acc[e] = acc.get(e, 0) + c
    return QSeries.from_terms(acc, order)


def ref_scale(a, k):
    return QSeries.from_terms({e: k * c for e, c in a.items()}, a.order)


@st.composite
def summands(draw):
    """Windows anywhere in u^-20..u^20, so one often starts at or past the
    other's order; zero series included."""
    lo = draw(st.integers(-20, 20))
    width = draw(st.integers(0, 16))
    return QSeries(lo, lo + width, draw(st.lists(COEFFS, min_size=width,
                                                 max_size=width)))


@given(summands(), summands(), st.integers(-3, 3))
@settings(max_examples=400, deadline=None)
@example(QSeries(5, 9, [1, 2, 3, 4]), QSeries(-3, 5, [1] * 8), 2)
@example(QSeries(-6, -2, [1, 0, 0, 1]), QSeries(-2, 10, [4, 5]), -1)
@example(QSeries.zero(3), QSeries(-4, 8, [2, 0, 1]), 0)
@example(QSeries(-4, 8, [2, 0, 1]), QSeries.zero(-1), 1)
@example(QSeries(-2, 3, [1, 2, 3, 4, 5]), QSeries(-2, 3, [-1, -2, -3, -4, 5]), 1)
def test_sum_matches_reference(a, b, k):
    assert parts(a + b) == parts(ref_add(a, b))
    assert parts(a - b) == parts(ref_add(a, ref_scale(b, -1)))
    assert parts(b * k) == parts(k * b) == parts(ref_scale(b, k))


@pytest.mark.parametrize("d, error", [
    (QSeries.zero(4), ZeroSeries),
    (QSeries.zero(-6), ZeroSeries),
    (QSeries(0, 5, [2, 1]), NonUnitLeadingCoefficient),
    (QSeries(-3, 5, [-3, 0, 1]), NonUnitLeadingCoefficient),
])
def test_division_errors_match_reference(d, error):
    for x in (QSeries.zero(3), QSeries.one(8)):
        with pytest.raises(error):
            ref_mul(x, ref_invert(d))
        with pytest.raises(error):
            x / d
    with pytest.raises(error):
        d.invert()


@pytest.mark.parametrize("j", range(1, 7))
def test_pentagonal_euler_phi_matches_factor_product(j):
    for order in [*range(-3, 81), 1000, 8001]:
        assert parts(euler_phi(j, order)) == parts(_factor_product(j, order, order, sub))


def ref_pair_product(m, order):
    """(dist product)^2 / phi(q^m)^2 as the old builders multiplied it."""
    d = _factor_product(1, order, order, add)
    invm = ref_invert(_factor_product(m, order, order, sub))
    return ref_mul(ref_mul(d, d), ref_mul(invm, invm))


def ref_fock_sector_char(m, s, order):
    h = sector_sum(m, s, order)
    if h.is_zero():
        return QSeries.zero(order)
    n = order + max(0, -h.min_exp)
    inv1 = ref_invert(_factor_product(1, n, n, sub))
    invm = ref_invert(_factor_product(m, n, n, sub))
    out = ref_mul(ref_mul(ref_mul(h, inv1), invm), invm)
    return out.restricted(order) if out.order > order else out


@given(st.integers(2, 6), st.integers(-8, 9), st.integers(-3, 120))
@settings(max_examples=150, deadline=None)
def test_fock_sector_char_matches_product_form(m, s, order):
    assert parts(fock_sector_char(m, s, order)) == parts(ref_fock_sector_char(m, s, order))


@pytest.mark.parametrize("m, s", [(2, 5), (3, 1), (5, 2), (6, 3), (4, -3)])
def test_fock_sector_char_matches_product_form_at_800(m, s):
    # (3, 1), (5, 2) and (6, 3) start at a negative u-exponent
    assert parts(fock_sector_char(m, s, 800)) == parts(ref_fock_sector_char(m, s, 800))


@pytest.mark.parametrize("m", range(2, 7))
def test_pair_quotient_builders_match_product_form(m):
    for order in (1, 2, 37, 800):
        pair = ref_pair_product(m, order)
        assert parts(sector_pair_product(m, order)) == parts(2 * pair)
        assert parts(vacuum_identity_sides(m, order)[0]) == parts(pair)
        assert parts(expr.BUILTINS["cor22lhs"][1](m, order)) == parts(pair)
        for k in (0, 1, 3):
            closed = ref_mul(QSeries.monomial(k * m * (m - 1), order),
                             ref_mul(_theta_bracket(m, k, order), pair))
            closed = closed.restricted(order) if closed.order > order else closed
            assert parts(sector_closed_form(m, k, order)) == parts(closed)


@pytest.mark.parametrize("k", [1, 2, 3, 9])
def test_digit_bytes_at_each_byte_edge(k):
    assert digit_bytes((1 << 8 * k - 1) - 1, True) == k
    assert digit_bytes(1 << 8 * k - 1, True) == k + 1
    assert digit_bytes((1 << 8 * k) - 1, False) == k
    assert digit_bytes(1 << 8 * k, False) == k + 1


def at_bound(signed, bound, lo, order, junk=0):
    """A packing case at the width digit_bytes gives for bound, its
    digits alternating between the extremes of [-bound, bound], or of
    [0, bound]."""
    count = max(0, order - lo + 1 >> 1)
    ends = (-bound, bound) if signed else (bound, 0)
    digits = [ends[t % 2] for t in range(count)]
    return signed, digit_bytes(bound, signed), lo, order, digits, junk


@st.composite
def packings(draw):
    """(signed, nbytes, lo, order, digits, junk): the ceil((order - lo)/2)
    q-digits of a window, none if order <= lo, each within a bound whose
    width digit_bytes gives, and any multiple of 256^(nbytes count) as
    junk above them; signed sums and negative junk give negative residues.
    Widths run past 8 bytes, so both of unpack_digits' readers are used."""
    signed = draw(st.booleans())
    bound = draw(st.one_of(
        st.integers(1, 1 << 80),
        st.sampled_from([(1 << 8 * k - signed) - e for k in (1, 2, 3, 8)
                         for e in (1, 0)])))
    lo = draw(st.integers(-9, 9))
    order = draw(st.integers(lo - 3, lo + 60))
    count = max(0, order - lo + 1 >> 1)
    least = -bound if signed else 0
    digits = draw(st.lists(st.one_of(st.sampled_from([least, bound]),
                                     st.integers(least, bound)),
                           min_size=count, max_size=count))
    return (signed, digit_bytes(bound, signed), lo, order, digits,
            draw(st.integers()))


@given(packings())
@settings(max_examples=400, deadline=None)
@example(at_bound(True, 127, 0, 7))
@example(at_bound(True, 128, 0, 8))
@example(at_bound(True, (1 << 15) - 1, -3, 4, junk=-1))
@example(at_bound(True, 1 << 15, 5, 2))
@example(at_bound(True, (1 << 23) - 1, 1, 40, junk=7))
@example(at_bound(True, 1 << 23, -2, 37))
@example(at_bound(False, 255, 0, 9))
@example(at_bound(False, 256, 3, 10, junk=-2))
@example(at_bound(False, (1 << 16) - 1, -1, -1))
@example(at_bound(False, 1 << 16, 2, 33))
@example(at_bound(False, (1 << 24) - 1, 0, 1, junk=1))
@example(at_bound(False, 1 << 24, -7, 70))
# the reader's own range, past what digit_bytes would give: the most
# negative signed digit, and junk above the window
@example((True, 1, 0, 1, [-128], 0))
@example((True, 1, -4, 2, [127, -128, 0], 0))
@example((True, 3, 0, 80, [-(1 << 23)] * 40, -5))
@example((True, 2, 1, 6, [(1 << 15) - 1] * 3, 1))
def test_packed_digits_read_back_through_from_qdigits(case):
    signed, nbytes, lo, order, digits, junk = case
    assert len(digits) == max(0, order - lo + 1 >> 1)
    w = 8 * nbytes
    x = sum(d << w * t for t, d in enumerate(digits)) + (junk << w * len(digits))
    if not signed:
        assert pack_digits(digits, nbytes) == x - (junk << w * len(digits))
    expect = QSeries.from_terms({lo + 2 * t: d for t, d in enumerate(digits)},
                                order)
    assert QSeries.from_qdigits(lo, order, x, nbytes, signed) == expect
    assert unpack_digits(x, nbytes, len(digits), signed) == digits


def ref_unpack(x, nbytes, count, signed):
    """The lowest count base-2^w digits of x, w = 8 nbytes, by shift and
    mask: each the low w bits of what is left, less 2^w where signed and
    its top bit is set, which carries one into what is left."""
    w = 8 * nbytes
    digits = []
    for _ in range(count):
        d = x & (1 << w) - 1
        if signed and d >> w - 1:
            d -= 1 << w
        digits.append(d)
        x = x - d >> w
    return digits


def packed_residue(nbytes, digits, junk):
    """sum of digit t times 256^(nbytes t), plus junk above the digits;
    negative junk makes a negative residue."""
    w = 8 * nbytes
    return (sum(d << w * t for t, d in enumerate(digits))
            + (junk << w * len(digits)))


def extremes(nbytes, count, signed, start=0):
    """A read of count digits cycling through 0, 1, 2^(w-1) - 1, 2^(w-1),
    2^w - 1 and 0x80, every top-bit pattern, from the start-th of them,
    with negative junk above."""
    w = 8 * nbytes
    ends = [0, 1, (1 << w - 1) - 1, 1 << w - 1, (1 << w) - 1, 0x80]
    digits = [ends[(start + t) % len(ends)] for t in range(count)]
    return nbytes, count, signed, packed_residue(nbytes, digits, -3)


@st.composite
def unpack_reads(draw):
    """(nbytes, count, signed, x): x holds count digits of nbytes bytes
    each, extremes among them, and any junk above them."""
    nbytes = draw(st.integers(1, 24))
    count = draw(st.integers(0, 80))
    top = (1 << 8 * nbytes) - 1
    digits = draw(st.lists(
        st.one_of(st.sampled_from([0, top >> 1, (top >> 1) + 1, top]),
                  st.integers(0, top)),
        min_size=count, max_size=count))
    return (nbytes, count, draw(st.booleans()),
            packed_residue(nbytes, digits, draw(st.integers())))


def short_reads(test):
    """@example reads of 1 to 3 digits, signed and not, at each width that
    is spread into cells or read as two limbs, from the digit 2^(w-1):
    negative in a signed read, so the sign fill shows from one digit."""
    for nbytes in (3, 5, 6, 7, 9, 12, 15, 16):
        for count in (1, 2, 3):
            for signed in (False, True):
                test = example(extremes(nbytes, count, signed, 3))(test)
    return test


@given(unpack_reads())
@settings(max_examples=500, deadline=None)
# the widest digit one cast reads, and the narrowest read as two limbs
@example(extremes(8, 80, True))
@example(extremes(9, 80, True))
@example(extremes(8, 1, False))
@example(extremes(9, 1, False))
# digits of 3, 5, 6 and 7 bytes, spread into 4- or 8-byte cells and cast
@example(extremes(3, 5, False))
@example(extremes(3, 6, True))
@example(extremes(3, 7, True))
@example(extremes(5, 10, False))
@example(extremes(5, 11, True))
@example(extremes(6, 12, True))
@example(extremes(6, 13, False))
@example(extremes(7, 13, True))
@example(extremes(7, 14, True))
@example(extremes(7, 15, False))
# digits of 9, 12 and 16 bytes, read as two 8-byte limbs, the 9- and
# 12-byte ones spread into 16-byte cells first; and 300-digit reads, of 17
# bytes one int.from_bytes per digit
@example(extremes(9, 33, False))
@example(extremes(9, 34, False))
@example(extremes(9, 57, True))
@example(extremes(9, 58, True))
@example(extremes(12, 42, False))
@example(extremes(12, 43, False))
@example(extremes(12, 57, True))
@example(extremes(12, 58, True))
@example(extremes(16, 6, False))
@example(extremes(16, 7, False))
@example(extremes(16, 6, True))
@example(extremes(16, 7, True))
@example(extremes(17, 300, False))
@example(extremes(17, 300, True))
@example(extremes(9, 300, False))
@example(extremes(9, 300, True))
@example(extremes(12, 300, False))
@example(extremes(12, 300, True))
@example(extremes(16, 300, False))
@example(extremes(16, 300, True))
@short_reads
def test_unpack_digits_matches_shift_and_mask(case):
    nbytes, count, signed, x = case
    assert unpack_digits(x, nbytes, count, signed) == ref_unpack(
        x, nbytes, count, signed)


@pytest.mark.parametrize("nbytes", range(1, 25))
def test_unpack_digits_per_digit_reader_is_the_big_endian_reader(nbytes, monkeypatch):
    # a big-endian host has no cast formats, so every read takes one
    # int.from_bytes per digit; here at counts that take each reader on a
    # little-endian host
    monkeypatch.setattr(qseries, "_CAST", {})
    for count in (1, 7, 2 * nbytes + 1, 3 * nbytes + 7, 58, 300):
        for signed in (False, True):
            x = extremes(nbytes, count, signed)[3]
            assert unpack_digits(x, nbytes, count, signed) == ref_unpack(
                x, nbytes, count, signed)


@pytest.mark.parametrize("digits,nbytes,message", [
    ([256], 1, "digit 0 is 256, outside [0, 256^1)"),
    ([0, 7, -1, 300], 1, "digit 2 is -1, outside [0, 256^1)"),
    ((255, 1 << 16, -(1 << 20)), 2, "digit 1 is 65536, outside [0, 256^2)"),
])
def test_pack_digits_names_the_first_digit_out_of_range(digits, nbytes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        pack_digits(digits, nbytes)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_repack_matches_unpack_then_pack(nbytes, width, step, data):
    # digits that fit both widths, junk above the count read, and every
    # step-th digit of the result
    top = 1 << 8 * min(nbytes, width)
    digits = data.draw(st.lists(st.one_of(st.sampled_from([0, top - 1]),
                                          st.integers(0, top - 1)),
                                min_size=1, max_size=30))
    count = len(digits)
    junk = data.draw(st.integers(0, 1 << 64)) << 8 * nbytes * count
    x = pack_digits(digits, nbytes) + junk
    spread = [0] * ((count - 1) * step + 1)
    spread[::step] = unpack_digits(x, nbytes, count)
    out = repack(x, nbytes, count, width, step)
    assert out == pack_digits(spread, width)
    assert unpack_digits(out, width, len(spread)) == spread


@given(st.integers(0, 1 << 24), st.integers(0, 1 << 24))
@settings(max_examples=300, deadline=None)
@example(0, 1)
@example(15, 16)
@example(16, 17)
@example(1 << 20, (1 << 20) + 1)
def test_round_up_keeps_four_significant_bits(n, k):
    r = round_up(n)
    assert n <= r < n + n / 8 + 1
    assert r <= 1 << (n - 1).bit_length()  # the next power of two
    g = max(0, r.bit_length() - 4)
    assert r >> g << g == r  # four significant bits
    assert round_up(r) == r
    if n <= k:
        assert r <= round_up(k)


def test_round_up_makes_eight_lengths_per_doubling():
    assert sorted({round_up(n) for n in range(1025, 2049)}) == \
        list(range(1152, 2049, 128))
    assert [round_up(n) for n in range(17)] == list(range(17))


# ---------------------------------------------------------------------------
# builders


def test_euler_phi_low_orders():
    assert q_coeffs(euler_phi(1, 12), 6) == [1, -1, -1, 0, 0, 1]
    assert euler_phi(3, 6) == QSeries.one(6)
    assert q_coeffs(euler_phi(2, 10), 5) == [1, 0, -1, 0, -1]


def test_euler_phi_pentagonal_sparsity():
    # generalized pentagonal exponents carry +-1, everything else 0
    p = euler_phi(1, 400)
    assert set(p.coeffs) <= {-1, 0, 1}
    # exponents k(3k-1)/2 and k(3k+1)/2 (in u-units: doubled) carry (-1)^k
    expected = {0: 1}
    k = 1
    while k * (3 * k - 1) < 400:
        sign = -1 if k % 2 else 1
        expected[k * (3 * k - 1)] = sign
        if k * (3 * k + 1) < 400:
            expected[k * (3 * k + 1)] = sign
        k += 1
    assert dict(p.items()) == expected


def test_euler_phi_against_naive_product():
    order = 60
    acc = QSeries.one(order)
    i = 1
    while 2 * i < order:
        acc = acc * QSeries.from_terms({0: 1, 2 * i: -1}, order)
        i += 1
    assert acc == euler_phi(1, order)


def test_dist_product_strict_partitions():
    assert q_coeffs(dist_product(1, 20), 10) == strict_partition_counts(9)
    assert dist_product(1, 2) == QSeries.one(2)


def test_dist_product_squared():
    sq = dist_product(1, 10) * dist_product(1, 10)
    assert q_coeffs(sq, 5) == [1, 2, 3, 6, 9]


def test_dist_product_via_phi_quotient():
    order = 120
    lhs = dist_product(1, order)
    rhs = euler_phi(2, order) * inv_euler_phi(1, order)
    assert lhs.first_diff(rhs) is None


def test_gauss_sum_triangular():
    assert q_coeffs(gauss_sum(14), 7) == [1, 1, 0, 1, 0, 0, 1]
    assert gauss_sum(2) == QSeries.one(2)


def test_gauss_sum_product_expansion():
    # sum q^{p(p+1)/2} = phi(q) * prod(1+q^i)^2
    order = 100
    prod = euler_phi(1, order) * dist_product(1, order) * dist_product(1, order)
    assert gauss_sum(order).first_diff(prod) is None


def test_builder_caches_stay_bounded():
    # a long grid of distinct orders keeps at most 64 of each lru-cached
    # builder, and one build per key of the shared store: the longest,
    # rounded up for the inverse denominator and the pair quotient
    calls = (
        (euler_phi, (2,)), (dist_product, (1,)), (gauss_sum, ()),
        (inv_euler_phi, (3,)), (basic_char, (2,)),
        (fock_sector_char, (2, 0)), (sector_pair_product, (2,)),
    )
    characters._BUILDS.clear()
    rounded = 0
    for order in range(1, 101):
        for builder, args in calls:
            builder(*args, order)
        rounded = rounded if rounded >= order else round_up(order)
    for builder, _ in calls[:4]:
        assert builder.cache_info().currsize <= 64, builder.__name__
    assert {key: built[0] for key, built in characters._BUILDS.items()} == {
        "square": 100, ("basic", 2): 100, ("sector", 2, 0): 100,
        ("inverse", 2): rounded, ("pair", 2): rounded}


# ---------------------------------------------------------------------------
# order contracts


def test_mul_order_contract():
    a = QSeries.from_terms({-2: 1, 0: 3}, 6)
    b = QSeries.from_terms({4: 2, 5: 1}, 9)
    prod = a * b
    assert prod.min_exp == 2
    assert prod.order == min(-2 + 9, 4 + 6)


def test_restricted():
    s = QSeries.from_terms({0: 1, 4: 2}, 10)
    r = s.restricted(3)
    assert r == QSeries.one(3)
    with pytest.raises(InsufficientOrder):
        s.restricted(11)


def test_shifted():
    s = QSeries.from_terms({0: 1, 2: 2}, 5)
    t = s.shifted(-6)
    assert t.min_exp == -6
    assert t.order == -1
    assert t.coeff(-4) == 2


def test_pow():
    s = QSeries.from_terms({0: 1, 2: 1}, 12)
    assert s**3 == s * s * s
    assert (s**0).coeff(0) == 1
    assert s**-2 == s.invert() * s.invert()


def ref_pow(self, n):
    """QSeries.__pow__ as it was before square-and-multiply: n - 1
    products in a row."""
    if n < 0:
        return ref_pow(self.invert(), -n)
    if n == 0:
        return QSeries.one(max(self.order - 2 * self.min_exp, 1))
    acc = self
    for _ in range(n - 1):
        acc = acc * self
    return acc


# ---------------------------------------------------------------------------
# property tests


def qseries_strategy(min_lo=-8, max_window=18):
    @st.composite
    def build(draw):
        lo = draw(st.integers(min_lo, 8))
        width = draw(st.integers(0, max_window))
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width))
        return QSeries(lo, lo + width, coeffs)

    return build()


def shared_window_triple():
    @st.composite
    def build(draw):
        lo = draw(st.integers(-6, 6))
        width = draw(st.integers(1, 14))
        mk = lambda: QSeries(
            lo, lo + width, draw(st.lists(st.integers(-9, 9), min_size=width, max_size=width))
        )
        return mk(), mk(), mk()

    return build()


@given(shared_window_triple())
# b + c cancels to the zero series, whose min_exp is its order, so
# a * (b + c) honestly claims u^2 while a * b + a * c claims u^1
@example((QSeries.zero(1), QSeries(0, 1, [1]), QSeries(0, 1, [-1])))
def test_ring_laws(triple):
    a, b, c = triple
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    # distributivity holds below the common claim; each side's own claim
    # is the one the schoolbook product gives
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs == naive_mul(a, b + c)
    assert rhs == naive_mul(a, b) + naive_mul(a, c)
    common = min(lhs.order, rhs.order)
    assert lhs.restricted(common) == rhs.restricted(common)


@given(qseries_strategy(), qseries_strategy())
def test_mul_matches_naive(a, b):
    assert a * b == naive_mul(a, b)


# zero series, negative min_exp and non-unit leads included; only a unit
# lead is raised to a negative power
@settings(max_examples=300)
@given(qseries_strategy(max_window=8), st.integers(-12, 40))
@example(QSeries.zero(3), 7)
@example(QSeries(-5, -2, [1, 0, 3]), 13)
@example(QSeries(-4, 1, [-1, 2]), -9)
def test_pow_matches_sequential_products(s, n):
    if n < 0 and (s.is_zero() or s.coeffs[0] not in (1, -1)):
        n = -n
    assert s ** n == ref_pow(s, n)


@given(qseries_strategy(), qseries_strategy(), st.integers(0, 10))
def test_mul_order_contract_vs_doubled(a, b, extra):
    # computing at a larger claimed order and restricting must agree
    wide_a = QSeries(a.min_exp, a.order + extra, list(a.coeffs) + [0] * extra) if not a.is_zero() else a
    prod_wide = wide_a * b
    prod = a * b
    assert prod.first_diff(prod_wide) is None


@given(qseries_strategy())
def test_canonical_invariants(s):
    assert len(s.coeffs) == s.order - s.min_exp or s.is_zero()
    if not s.is_zero():
        assert s.coeffs[0] != 0
    else:
        assert s.min_exp == s.order


@given(qseries_strategy())
def test_invert_two_sided(s):
    if s.is_zero() or s.coeffs[0] not in (1, -1):
        return
    inv = s.invert()
    one_a = s * inv
    one_b = inv * s
    for e in range(one_a.min_exp, one_a.order):
        assert one_a.coeff(e) == (1 if e == 0 else 0)
    assert one_a == one_b
    back = inv.invert()
    assert s.first_diff(back) is None


@given(qseries_strategy())
def test_json_round_trip(s):
    blob = json.dumps(s.to_json_dict())
    back = QSeries.from_json_dict(json.loads(blob))
    assert back == s
    assert len(json.loads(blob)["coeffs"]) == s.order - s.min_exp


def test_json_rejects_other_denominators():
    with pytest.raises(InvalidParameter):
        QSeries.from_json_dict({"denom": 3, "min_u_exp": 0, "order_u": 1, "coeffs": []})


def test_json_big_coefficients_survive():
    s = QSeries.from_terms({0: 10**40, 1: -(10**41)}, 3)
    back = QSeries.from_json_dict(json.loads(json.dumps(s.to_json_dict())))
    assert back == s


# ---------------------------------------------------------------------------
# rendering


def test_half_exp_str():
    assert half_exp_str(6) == "3"
    assert half_exp_str(-2) == "-1"
    assert half_exp_str(1) == "1/2"
    assert half_exp_str(-3) == "-3/2"


def test_format_series():
    s = QSeries.from_terms({-1: 2, 0: 1, 3: -1}, 5)
    assert format_series(s).splitlines() == [
        "2 · q^{-1/2}",
        "1 · q^{0}",
        "-1 · q^{3/2}",
    ]
    assert format_series(QSeries.zero(4)) == "0"


def test_immutable():
    s = QSeries.one(3)
    with pytest.raises(AttributeError):
        s.order = 10


# ---------------------------------------------------------------------------
# first_diff against the exponent walk it short-cuts
#
# ref_first_diff is QSeries.first_diff as it was before the equal-prefix
# fast path, each coefficient read straight from the window: zero outside
# it.


def ref_first_diff(self, other):
    def at(series, e):
        t = e - series.min_exp
        return series.coeffs[t] if 0 <= t < len(series.coeffs) else 0

    through = min(self.order, other.order)
    lo = min(self.min_exp, other.min_exp, through)
    for e in range(lo, through):
        if at(self, e) != at(other, e):
            return e
    return None


@st.composite
def near_pairs(draw):
    """Two series that mostly agree: the second copies the first's
    coefficients, then may shift its start, change its order, zero itself
    or change one coefficient (often the last one below both orders)."""
    lo = draw(st.integers(-6, 6))
    width = draw(st.integers(0, 12))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width))
    a = QSeries(lo, lo + width, coeffs)
    lo2 = lo + draw(st.sampled_from([0, 0, 0, -1, 1, 3]))
    order2 = lo2 + width + draw(st.integers(-4, 4))
    coeffs2 = list(coeffs[:max(0, order2 - lo2)])
    change = draw(st.sampled_from(["none", "last", "any", "zero"]))
    if change == "zero":
        return a, QSeries.zero(order2)
    if coeffs2 and change != "none":
        t = len(coeffs2) - 1 if change == "last" else \
            draw(st.integers(0, len(coeffs2) - 1))
        coeffs2[t] += draw(st.sampled_from([-1, 1]))
    b = QSeries(lo2, max(order2, lo2), coeffs2)
    return (a, b) if draw(st.booleans()) else (b, a)


@given(near_pairs())
@settings(max_examples=400, deadline=None)
@example((QSeries.zero(5), QSeries.zero(9)))
@example((QSeries.from_terms({2: 1, 7: 1}, 8), QSeries.from_terms({2: 1}, 8)))
@example((QSeries.from_terms({-2: 1}, 4), QSeries.from_terms({-2: 1, 3: 2}, 9)))
def test_first_diff_matches_the_walk(pair):
    a, b = pair
    assert a.first_diff(b) == ref_first_diff(a, b)
    assert b.first_diff(a) == ref_first_diff(b, a)
