"""Principally specialized characters of level-1 modules over affine sl(m|1).

Everything here is exact integer arithmetic on truncated series in
u = q^(1/2); see qseries. The three families of operations:

  * sector_sum / fock_sector_char: alternating lattice sums over a
    charge/energy grid, divided by the free-field denominator.  The
    completed square P(P+1) - m(m-1)a^2 - ms(2a+1), P = p + s + ma, makes
    each lattice row one range of P; at an empty row the scan stops if the
    row's quadrant edge lies beyond P = -1/2, and else jumps to the row
    where the edge crosses it.  The character multiplies the rows by one
    cached, packed inverse of the denominator per m.
  * quasiparticle_char: the same characters as a restricted sum over
    quadruples of mode counts, organized as a charge-bucket convolution.
  * basic_char / family_char / sector_closed_form: product closed forms
    for the irreducible characters, plus the recurrence tying sectors
    m-1 apart.

Growth estimates for the basic character live at the bottom; those are
the only floating-point computations in the package.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import InsufficientOrder, check_work, need
from .qseries import (
    QSeries,
    check_window,
    digit_bytes,
    dist_product,
    euler_phi,
    pack_digits,
    packed_geometric,
    repack,
    round_up,
)


# ---------------------------------------------------------------------------
# identity reports


class IdentityReport(NamedTuple):
    """Outcome of one truncated-series identity check.  A NamedTuple, not
    a dataclass: `dataclasses` costs every CLI start about 6 ms. A field
    is changed by _replace, which makes a new report."""

    identity: str
    params: dict
    order_u: int
    verdict: str
    first_diff_u_exp: Optional[int] = None
    lhs_coeff: Optional[int] = None
    rhs_coeff: Optional[int] = None
    ms: float = 0.0

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        # the coefficients as strings, as JSON numbers lose big ints
        lhs, rhs = (None if c is None else str(c)
                    for c in (self.lhs_coeff, self.rhs_coeff))
        return {**self._asdict(), "params": dict(self.params),
                "lhs_coeff": lhs, "rhs_coeff": rhs}


def compare_series(identity: str, params: dict, lhs: QSeries,
                   rhs: QSeries) -> IdentityReport:
    """Compare two series up to their common guaranteed order."""
    order = min(lhs.order, rhs.order)
    e = lhs.first_diff(rhs)
    if e is None:
        return IdentityReport(identity, params, order, "pass")
    return IdentityReport(identity, params, order, "fail",
                          first_diff_u_exp=e,
                          lhs_coeff=lhs.coeff(e), rhs_coeff=rhs.coeff(e))


def mark_short(report: IdentityReport, order: int) -> IdentityReport:
    """The report, or, if it passes but its sides agree only below
    u^order, a copy with the verdict "short", which does not pass:
    agreement below the requested order proves too little."""
    if report.passed() and report.order_u < order:
        return report._replace(verdict="short")
    return report


# ---------------------------------------------------------------------------
# alternating lattice sum over the (a, p) grid


def _lattice_rows(m: int, s: int, order: int):
    """Each nonempty row of sector s's lattice sum below u^order, as
    (sign, shift, lo, hi, tail): the row is sign times the u^(P(P+1) - shift)
    for lo <= P <= hi, which are exactly the u^(P(P+1) - shift), P >= tail,
    below u^order.

    The point (a, p) has u-exponent (p+s)(p+s+1) - sm + ma(a+1) + 2map;
    the quadrant a, p >= 0 enters with sign (-1)^a, the quadrant
    a, p <= -1 with -(-1)^a, and every point below order is included.

    With P = p + s + ma and g = m(m-1) the exponent is the indefinite
    theta form P(P+1) - g a^2 - ms(2a+1), so row a holds exactly the P
    with P(P+1) < b = order + g a^2 + ms(2a+1): -r-1 <= P <= r with
    r = (isqrt(4b-3) - 1) // 2, none if b < 1, cut at the quadrant edge
    P >= s + ma (upper) or P <= s + ma - 1 (lower). So an upper row is
    every P >= lo below the window's top, and a lower row, under
    P -> -1 - P, which keeps P(P+1), every P >= -1 - hi.

    Each quadrant walks a away from 0.  At an empty row whose edge lies
    beyond P = -1/2 the row minimum sits on the edge, where it grows with
    |a|, so the scan stops.  At any other empty row b < 1, and b keeps
    falling until the edge crosses P = -1/2 at a = -s/m, short of the
    vertex a = -s/(m-1) of b; the scan jumps to that row, a = -(s // m)
    (upper) or (-s) // m (lower). Checks m and the window first.
    """
    check_window(*sector_window(m, order))
    g = m * (m - 1)
    for upper in (True, False):
        a, step = (0, 1) if upper else (-1, -1)
        while True:
            shift = g * a * a + m * s * (2 * a + 1)
            edge = s + m * a
            b = order + shift
            r = (math.isqrt(4 * b - 3) - 1) // 2 if b >= 1 else -1
            lo, hi = (max(-r - 1, edge), r) if upper else (-r - 1, min(r, edge - 1))
            if lo > hi:
                if edge >= 0 if upper else edge <= 0:
                    break
                a = -(s // m) if upper else (-s) // m
                continue
            sign = 1 if (a + upper) % 2 else -1  # (-1)^a, or -(-1)^a below
            yield sign, shift, lo, hi, lo if upper else -1 - hi
            a += step


def sector_window(m: int, order: int):
    """(-pad, order): sector s of m, the z^s row of fock_char_product,
    starts no lower than u^-pad, -pad the sum of the product's negative
    u-costs, reached at s = (m - 1) // 2. Raises InvalidParameter if m < 2."""
    need("m", m, 2)
    # sum over k >= 1 of max(0, m - 2k), the k <= (m - 1) / 2 terms
    pad = (m - 1) // 2 * (m // 2)
    return -pad, order


def sector_sum(m: int, s: int, order: int) -> QSeries:
    """Alternating sum over the charge/energy lattice for sector s, below
    u^order; see _lattice_rows."""
    acc: dict = {}
    for sign, shift, lo, hi, _ in _lattice_rows(m, s, order):
        for P in range(lo, hi + 1):
            e = P * (P + 1) - shift
            acc[e] = acc.get(e, 0) + sign
    return QSeries.from_terms(acc, order)


# ---------------------------------------------------------------------------
# the series every character of an m shares
#
# The free-field inverse denominator, the pair quotient, the charge buckets
# and each m's boson-pair base are built by lru-cached builders at one
# u-order per key of _BUILDS: the longest order asked for under that key so
# far, rounded up by round_up. So a cold call builds at most an eighth more
# than it asks for, a grid run longest point first makes one build per key,
# and every call restricts or masks that build to its own window. One key,
# "quasiparticle", serves the buckets and every m's base, all built in the
# one digit width _digit_bytes gives its u-order. Each key is kept under
# a power of two, so no rounded build passes it: the inverse denominator
# and the pair quotient under SECTOR_MAX_SPAN, which sector_char_window and
# pair_quotient_window check before they are asked for, the quasiparticle
# key under QP_MAX_ORDER.
#
# The sector characters are not rounded: _SECTORS keeps one build per
# (m, s), made at exactly the longest u-order asked so far, since a rounded
# one would ask the inverse denominator past the window its family declares
# and could pass SECTOR_MAX_SPAN. Each is kept packed, as the denominator
# is, as (order, nb, int of signed nb-byte q-digits from u^lo), lo the
# lattice's least exponent, which sector_char_window gives without a walk;
# a QSeries of the same coefficients takes a few times that int's memory.
# Each is read back restricted; no lru_cache holds an outgrown one.
# Past 64 keys either store drops its least recently used key.
_BUILDS: dict = {}
_SECTORS: dict = {}


def _keep(store: dict, key, built):
    """Record built under key in store as its newest key, and return it."""
    store.pop(key, None)
    store[key] = built
    if len(store) > 64:
        del store[next(iter(store))]
    return built


def _shared_build(key, n: int) -> int:
    """The u-order N of the build under key, remade at N = round_up(n) if
    shorter than n; key is now the newest."""
    built = _BUILDS.pop(key, 0)
    return _keep(_BUILDS, key, built if built >= n else round_up(n))


@lru_cache(maxsize=64)
def _inverse_denominator(m: int, n: int):
    """1/(phi(q) phi(q^m)^2) below u^n, the free-field denominator every
    sector character of that m shares, as (packed, nb): its q-digits
    packed in nb bytes each, enough for the last and largest, as it is
    1/(1 - q) times a nonnegative series."""
    phi_m = euler_phi(m, n)
    inv = (QSeries.one(n) / euler_phi(1, n) / phi_m / phi_m).coeffs[::2]
    nb = digit_bytes(inv[-1], False)
    return pack_digits(inv, nb), nb


# The longest span order - lo, in u-powers, a sector character is built
# over, and the longest u-order of the pair quotient it is compared with;
# a power of two, so the shared inverse denominator's and pair quotient's
# rounded builds stay within it. Building that denominator dominates the
# time: on 2 vCPUs about 4 s at the bound for m = 2, while m = 1000's span
# of 249502 still ran after a minute. The pair quotient takes about 2 s
# at the bound.
SECTOR_MAX_SPAN = 1 << 16


def sector_char_window(m: int, s: int, order: int):
    """(lo, order) of the window fock_sector_char(m, s, order) builds: lo =
    min(m|s - c| - c(m - 1 - c), order), c the charge in [0, m - 1] nearest
    s, as each row's least exponent sits on its quadrant edge or at P in
    {0, -1} (see _lattice_rows) and the least of them all in row 0 or row -1.
    Raises as check_window on sector_window(m, order), then ResourceLimit
    if order - lo passes SECTOR_MAX_SPAN."""
    check_window(*sector_window(m, order))
    # The point (a, p), a and p of one sign, has u-exponent (p+s)(p+s+1) -
    # sm + m a(a+1) + 2map, which grows with |a| at each p. Row 0 holds
    # P >= s, least at P = max(s, 0); row -1, at P(P+1) - m(m-1) + ms, holds
    # P <= s - m - 1 and is the lower only for s >= m, least at P = -1.
    c = min(max(s, 0), m - 1)
    lo = min(m * abs(s - c) - c * (m - 1 - c), order)
    check_work(order - lo, SECTOR_MAX_SPAN,
               f"the sector character of m={m}, charge {s} at u-order {order} "
               "has a span in u-powers of")
    return lo, order


def fock_sector_char(m: int, s: int, order: int) -> QSeries:
    """Specialized character of the charge-s Fock sector.

    The lattice sum h divided by one neutral free-fermion-pair factor
    phi(q) and two boson-pair factors phi(q^m), on the window [lo, order)
    of sector_char_window, below u^0 for some s > 0. Every lattice
    exponent is congruent to sm mod 2, so the quotient lives on q-digits.

    Read restricted from the build of (m, s) in _SECTORS, made by
    _sector_build at this order if none is this long. A request refused
    or with no rows records nothing.
    """
    lo = sector_char_window(m, s, order)[0]
    built = _SECTORS.get((m, s))
    if built is None or built[0] < order:
        if lo == order:
            return QSeries.zero(order)
        built = (order, *_sector_build(m, _lattice_rows(m, s, order), lo, order))
    _, nb, packed = _keep(_SECTORS, (m, s), built)
    return QSeries.from_qdigits(lo, order, packed, nb, True)


def _sector_build(m: int, rows, lo: int, order: int):
    """(nb, x): the sector character whose lattice rows below u^order are
    rows, least exponent lo, as x >= 0 holding its L = (order - lo + 1) // 2
    q-digits from u^lo as signed nb-byte digits.

    It is h times the cached I = 1/(phi(q) phi(q^m)^2), packed and
    repacked to one q-digit per w-bit digit, row by row. By _lattice_rows
    each row is sign u^(-shift) T_t, T_t = sum over P >= t of u^(P(P+1)),
    and for t < 0 T_t = 2 T_0 - T_(-t). With K_t = u^(-t(t+1)) T_t I,

        K_(t-1) = I + q^t K_t,

    so every row costs one or two signed shifts of a running K_t, and the
    walk from the largest t down to 0 one shift-add per step:
    O(sqrt(order)) shifts of one int in all, against the O(order^1.5)
    Python steps of dividing h by the three Euler products.

    I is 1/(1 - q) times a nonnegative series, so its largest coefficient
    in the window is its last, and no coefficient of the quotient exceeds
    the count of lattice points times that in absolute value, the bound
    its signed digits are sized for. The packed sum is exact mod 2^(wL)
    whatever the intermediates hold, so its signed digits are the
    coefficients.
    """
    n = order - lo
    L = (n + 1) // 2  # q-digits in the window
    points = 0
    uses: dict = {}  # t -> [(q-digit of the first term of T_t, sign)]
    for sign, shift, first, last, t in rows:
        points += last - first + 1
        if t < 0:
            uses.setdefault(0, []).append(((-shift - lo) // 2, 2 * sign))
            t, sign = -t, -sign
        d = (t * (t + 1) - shift - lo) // 2
        if d < L:
            uses.setdefault(t, []).append((d, sign))
    I, ib = _inverse_denominator(m, _shared_build(("inverse", m), n))
    top = I >> 8 * ib * (L - 1) & (1 << 8 * ib) - 1  # I's digit at q^(L-1)
    nb = digit_bytes(points * top, True)
    w = 8 * nb
    mask = (1 << w * L) - 1
    I = repack(I, ib, L, nb)
    # K_top = I times the sum over P >= top of q^((P - top)(P + top + 1)/2)
    top = max(uses)
    K, P = 0, top
    while (e := (P - top) * (P + top + 1) // 2) < L:
        K += I << w * e
        P += 1
    total = 0
    for t in range(top, -1, -1):
        for d, c in uses.get(t, ()):
            total += c * (K << w * d)
        K = I + (K << w * t) & mask  # K_(t-1)
    return nb, total & mask


@lru_cache(maxsize=64)
def _built_pair_quotient(m: int, n: int) -> QSeries:
    phi_2 = euler_phi(2, n)
    phi_1 = euler_phi(1, n)
    phi_m = euler_phi(m, n)
    return phi_2 * phi_2 / phi_1 / phi_1 / phi_m / phi_m


def pair_quotient_window(m: int, order: int):
    """(0, order), the window _pair_quotient(m, order) builds. Raises
    InvalidParameter if m < 2, then ResourceLimit if order passes
    SECTOR_MAX_SPAN, the span of the sector characters it is compared
    with."""
    need("m", m, 2)
    check_work(order, SECTOR_MAX_SPAN,
               f"the pair quotient of m={m} is built at u-order")
    return 0, order


def _pair_quotient(m: int, order: int) -> QSeries:
    """(dist product)^2 / phi(q^m)^2 below u^order, as the quotient
    phi(q^2)^2 / phi(q)^2 / phi(q^m)^2 of sparse Euler products, since
    (-q;q)_inf = (q^2;q^2)_inf / (q;q)_inf, restricted from the shared
    build; zero if order <= 0. Raises as pair_quotient_window first, the
    one check of every caller."""
    pair_quotient_window(m, order)
    if order <= 0:
        return QSeries.zero(order)
    n = _shared_build(("pair", m), order)
    return _built_pair_quotient(m, n).restricted(order)


def sector_pair_product(m: int, order: int) -> QSeries:
    """Product side shared by the mirror pair of sector characters:
    2 * (dist product)^2 / phi(q^m)^2."""
    return 2 * _pair_quotient(m, order)


def _theta_bracket(m: int, k: int, order: int) -> QSeries:
    """The finite alternating bracket of the family and closed-form
    characters, sum over |j| <= |k| of (-1)^(k-j) u^((k^2 - j^2) m(m-1)),
    below order >= 1.  Only the j whose term falls below order are visited."""
    step = m * (m - 1)
    kk = abs(k)
    # (kk^2 - j^2) * step < order  <=>  j^2 >= kk^2 - (order - 1) // step
    floor_sq = kk * kk - (order - 1) // step
    j0 = math.isqrt(floor_sq - 1) + 1 if floor_sq > 0 else 0
    # +j and -j share an exponent and a sign
    bracket = {(kk * kk - j * j) * step: (1 if j == 0 else 2) * (-1) ** (kk - j)
               for j in range(j0, kk + 1)}
    return QSeries.from_terms(bracket, order)


def closed_form_window(m: int, k: int, order: int):
    """sector_window(m, order), the window sector_closed_form(m, k, order)
    builds in. Raises InvalidParameter if m < 2, then if k < 0."""
    window = sector_window(m, order)
    need("k", k, 0)
    return window


def sector_closed_form(m: int, k: int, order: int) -> QSeries:
    """Closed form of the sector characters at s = (k+1)(m-1) and s = -k(m-1):
    a finite alternating theta-like bracket times (dist product)^2 / phi(q^m)^2,
    shifted by u^(k m (m-1))."""
    closed_form_window(m, k, order)
    if order <= 0:
        return QSeries.zero(order)
    br = _theta_bracket(m, k, order)
    return QSeries.monomial(k * m * (m - 1), order) * (br * _pair_quotient(m, order))


def recurrence_step(m: int, s: int, fs: QSeries, order: int) -> QSeries:
    """Advance a sector character by m-1 charge units:
    u^(sm) * (sector_pair_product - u^(sm) * fs), claimed at order."""
    need("m", m, 2)
    if fs.order < order - 2 * s * m:
        raise InsufficientOrder(
            f"input order {fs.order} cannot support output order {order}")
    pair = sector_pair_product(m, order - s * m)
    diff = pair - fs.shifted(s * m)
    return diff.shifted(s * m)


# ---------------------------------------------------------------------------
# quasiparticle sum: charge buckets convolved with boson-pair sums
#
# The quadruple sum over mode counts (a, b, c, d >= 0) with net charge
# a - b + c - d = s factors through the fermionic charge g = a - b:
# collect u^(a(a+1) + b(b-1)) / ((q)_a (q)_b) into a bucket per g, then
# convolve each bucket with the boson-pair sum at complementary charge.
# Every boson-pair sum is a sparse partial theta over one shared
# 1/(q^m;q^m)_inf^2 (see _pair_numerator), so the buckets meet the thetas
# first and that shared factor once.
#
# Every term lives on even u-exponents, so each series is one Python int
# of fixed-width digits, digit i holding the coefficient of q^i (Kronecker
# substitution). Multiplying by q^j is a shift by j digits, truncating
# below q^n is a mask, and dividing by 1 - q^j below q^n is the product of
# the 1 + q^(j 2^i) with j 2^i < n, one shift-add per factor. Evaluation
# at q = 2^w is a ring homomorphism from Z[q]/(q^n) onto Z/2^(wn), so a
# packed intermediate may carry or go negative: masked, it is still its
# series mod q^n, and only the digits that are read back (see
# _digit_bytes) must hold true coefficients.


def _digit_bytes(nu: int) -> int:
    """Bytes per digit of every quasiparticle series built at u-order nu:
    quasiparticle_char(m, s, nu - s m) for any m and s, and its inputs.

    Below q^L, L = (nu + 1) // 2, the sum comes from ring operations on
    packed series, so it is right mod 2^(wL) whatever the intermediates
    hold, and its w-bit digits are its coefficients once each lies in
    [0, 2^w). P = 1/(q^m;q^m)_inf^2 is spread digit by digit, so its
    digits must hold its coefficients too, as must the buckets'; all are
    nonnegative. Each of these is at most G_m = B P, B = 2 (-q;q)_inf^2:
      * the buckets sum to B, by Euler's sum_a z^a q^(a(a-1)/2) / (q)_a =
        (-z;q)_inf at z = q and z = 1, and P <= G_m as B starts with 2;
      * the t-terms q^(mt) / ((q^m)_t (q^m)_(t+k)) of a boson-pair base
        are at most q^(mt) / ((q^m)_t (q^m)_inf), which sum to P; P is
        1/(1 - q^m) times a nonnegative series, so the pair sum of charge
        k > 0, q^(mk) times a base, is at most P too;
      * so the sum, each bucket times a pair sum, is at most B P = G_m.
    And G_m <= G_2 term by term for m >= 2: with p_2(t) the coefficients
    of 1/(q;q)_inf^2, G_m[n] = sum_t p_2(t) B[n - mt] <= sum_t p_2(t)
    B[n - 2t] = G_2[n], as B never decreases: the counts a of partitions
    into distinct parts do not, so neither does c = a * a, as c[n+1] -
    c[n] = a[n+1] a[0] + sum_(j <= n) a[j] (a[n+1-j] - a[n-j]) >= 0.
    G_2, twice the cached pair quotient of m = 2, is 2/(1 - q) times a
    nonnegative series, so its largest coefficient below q^L is at
    q^(L-1), and nu's width holds every shorter read. The quotient only
    sizes the digits.
    """
    # the shared build holds q^(L-1), so it is read without a restricted copy
    pair = _built_pair_quotient(2, _shared_build(("pair", 2), nu))
    return digit_bytes(2 * pair.q_coeff((nu - 1) // 2), False)  # at q^(L-1)


@lru_cache(maxsize=64)
def _charge_buckets(nu: int):
    """Fermionic-pair generating series split by net charge, below u-order nu.

    Returns a tuple of (charge, packed series) pairs, in _digit_bytes(nu)
    q-digits. Pairs (a, b) enter while a(a+1) + b(b-1) < nu; anything
    omitted starts at or above nu, so charge g starts at u^(g(g+1)), and
    a longer build masked below u^nu is this one.
    """
    L = (nu + 1) // 2
    w = 8 * _digit_bytes(nu)
    buckets: dict = {}
    X = 1  # 1/(q)_a below q^(L - a(a+1)/2)
    a = 0
    while a * (a + 1) < nu:
        ea = a * (a + 1) // 2
        if a > 0:
            X = packed_geometric(X, a, L - ea, w)
        R = X  # 1/((q)_a (q)_b) below q^(L - e)
        b = 0
        e = ea
        while e < L:
            if b > 0:
                R = packed_geometric(R, b, L - e, w)
            buckets[a - b] = buckets.get(a - b, 0) + (R << w * e)
            b += 1
            e = ea + b * (b - 1) // 2
        a += 1
    return tuple(sorted(buckets.items()))


@lru_cache(maxsize=64)
def _boson_pair_base(m: int, nu: int) -> int:
    """1/(q^m;q^m)_inf^2 below u^nu, packed in _digit_bytes(nu) q-digits:
    the factor every boson-pair sum shares."""
    nb = _digit_bytes(nu)
    w = 8 * nb
    n = (nu + 2 * m - 1) // (2 * m)  # compact digit t holds u^(2mt)
    R = 1
    for j in range(1, n):
        R = packed_geometric(packed_geometric(R, j, n, w), j, n, w)
    return repack(R, nb, n, nb, m)


def _pair_numerator(buckets: dict, m: int, s: int, L: int, w: int) -> int:
    """sum over k >= 0 of f_k N_k below q^L, packed in w-bit digits as a
    signed int that is right mod 2^(wL), where f_k is the bucket of charge
    s + k plus, for k > 0, q^(mk) times the bucket of charge s - k.

    With Q = q^m, the boson pairs of charge -k and of charge k share the
    base sum_t Q^t / ((Q)_t (Q)_(t+k)), the latter shifted by Q^k, and

        sum_t Q^t / ((Q)_t (Q)_(t+k)) = N_k / (Q;Q)_inf^2,
        N_k = sum_(j >= 0) (-1)^j Q^(j(j+1)/2 + jk):

    write 1/(Q)_(t+k) = (Q^(t+k+1);Q)_inf / (Q;Q)_inf, expand the product
    by Euler's sum_j (-1)^j Q^(j(j-1)/2) x^j / (Q)_j and sum over t by
    sum_t x^t / (Q)_t = 1/(x;Q)_inf (G. E. Andrews, The Theory of
    Partitions, Cor. 2.2). So the quasiparticle sum is this numerator
    times 1/(Q;Q)_inf^2, and each f_k enters once per term of N_k below
    q^L, O(sqrt(L / (mk))) signed shifts.

    The term Q^e of N_k adds f_k masked below q^(L - me), shifted by q^me.
    Bucket g starts at q^(g(g+1)/2) (see _charge_buckets) and holds no
    negative digit, so f_k is zero below q^low, low = min((s+k)(s+k+1)/2,
    mk + (s-k)(s-k+1)/2), the second only for k > 0: every term with
    me >= L - low adds zero, and each k stops before the first of them.
    """
    mask = (1 << w * L) - 1
    total = 0
    for k in range(max(max(buckets) - s, s - min(buckets)) + 1):
        f = buckets.get(s + k, 0)
        low = (s + k) * (s + k + 1) // 2
        if k and s - k in buckets:
            f += (buckets[s - k] << w * m * k) & mask
            low = min(low, m * k + (s - k) * (s - k + 1) // 2)
        if not f:
            continue
        end = L - low
        j = e = 0  # N_k's term (-1)^j Q^e
        while m * e < end:
            shift = w * m * e
            term = (f & mask >> shift) << shift
            total = total - term if j & 1 else total + term
            j += 1
            e += j + k
    return total


# The largest internal u-order order + s m a quasiparticle sum is asked
# at; a power of two, so its rounded build stays within it. The buckets
# dominate its time, which grows about 6x per doubling of that order:
# seconds at the bound, about an hour at 10^5. bivariate.graded_window
# bounds the packed span of every graded product by it too.
QP_MAX_ORDER = 1 << 13


def quasiparticle_window(m: int, s: int, order: int):
    """(lo, order) of the window u^(-sm)..u^order that
    quasiparticle_char(m, s, order) builds. Raises InvalidParameter if
    m < 2, and ResourceLimit if that window is longer than MAX_WINDOW or
    the internal u-order order + s m exceeds QP_MAX_ORDER: the check every
    caller makes before anything is built."""
    need("m", m, 2)
    check_window(-s * m, order)
    check_work(order + s * m, QP_MAX_ORDER,
               f"the quasiparticle sum of charge {s} claimed at u-order {order} "
               "is built at u-order")
    return -s * m, order


def quasiparticle_char(m: int, s: int, order: int) -> QSeries:
    """Sector character as a sum over quadruples of quasiparticle counts.

    Net charge a - b + c - d is pinned to s and the whole sum carries a
    u^(-sm) prefactor. Cutoffs keep every omitted quadruple at or above
    the internal order, which is the claimed order shifted by sm.
    """
    quasiparticle_window(m, s, order)
    nu = order + s * m
    if nu <= 0:
        return QSeries.zero(order)
    # the shared builds, read in their own width: the buckets that start
    # below u^nu, and the base masked to the call's L q-digits
    N = _shared_build("quasiparticle", nu)
    nb, L = _digit_bytes(N), (nu + 1) // 2
    buckets = {g: x for g, x in _charge_buckets(N) if g * (g + 1) < nu}
    numerator = _pair_numerator(buckets, m, s, L, 8 * nb)
    base = _boson_pair_base(m, N) & (1 << 8 * nb * L) - 1
    return QSeries.from_qdigits(-s * m, order, numerator * base, nb, False)


def vacuum_identity_sides(m: int, order: int):
    """Both sides of the vacuum-sector product identity:
    (dist product)^2 / phi(q^m)^2 versus the charge-0 quasiparticle sum.
    The sum's bound, the tighter, is checked before either is built."""
    quasiparticle_window(m, 0, order)
    return _pair_quotient(m, order), quasiparticle_char(m, 0, order)


# ---------------------------------------------------------------------------
# irreducible characters


# The longest u-order the dense (dist product)^2 of the basic character
# and gauss is built at; a power of two. It grows about 4x per doubling:
# on 2 vCPUs the basic character of m = 2 takes about 8 s at the bound
# (2.5 s of it the dist product), which asympt reaches at --nmax 8192.
BASIC_MAX_ORDER = 1 << 14


def _dist_square(order: int, what: str = "the dense (dist product)^2"):
    """(-q;q)_inf^2 below u^order; ResourceLimit past BASIC_MAX_ORDER."""
    check_work(order, BASIC_MAX_ORDER, f"{what} is built at u-order")
    return _built_dist_square(order)


@lru_cache(maxsize=64)
def _built_dist_square(order: int) -> QSeries:
    # shared by every basic character and gauss, each named as `what` in
    # _dist_square's refusal; the dense dist product on purpose, as an
    # independent route: thm13a checks it against the pentagonal quotient
    # (-q;q)_inf = (q^2;q^2)_inf / (q;q)_inf, and gauss against the
    # triangular sum
    return dist_product(1, order) ** 2


@lru_cache(maxsize=64)
def basic_char(m: int, order: int) -> QSeries:
    """Specialized character of the basic module (and of the module at the
    last fundamental weight): (dist product)^2 / phi(q^m). Raises
    ResourceLimit past BASIC_MAX_ORDER before anything is built."""
    need("m", m, 2)
    if order <= 0:
        return QSeries.zero(order)
    return (_dist_square(order, f"the basic character of m={m}")
            / euler_phi(m, order))


def family_char(m: int, k: int, order: int) -> QSeries:
    """Specialized character of the k-th member of the one-parameter family:
    finite alternating bracket times the basic character."""
    ch = basic_char(m, order)
    return _theta_bracket(m, k, order) * ch if order > 0 else ch


# ---------------------------------------------------------------------------
# coefficient growth


def log_coeff_estimate(m: int, n: int) -> float:
    """Natural log of the predicted n-th q-coefficient of basic_char(m):
    pi*sqrt((2/3)((m+1)/m) n) + log(sqrt(m+1)) - log(8 sqrt(3) n).

    Log-domain on purpose: the raw value overflows a double long before
    the interesting range of n.
    """
    need("m", m, 2)
    need("n", n, 1)
    return (math.pi * math.sqrt((2.0 / 3.0) * ((m + 1) / m) * n)
            + 0.5 * math.log(m + 1)
            - math.log(8.0 * math.sqrt(3.0) * n))


def growth_report(m: int, n_max: int):
    """Rows (n, a_n, ratio) for n = 0..n_max, where a_n is the n-th
    q-coefficient of basic_char(m) and ratio = log(a_n) / log_coeff_estimate.
    The n = 0 row carries ratio 0.0 since the estimate starts at n = 1."""
    need("m", m, 2)
    need("n_max", n_max, 0)
    ch = basic_char(m, 2 * n_max + 2)
    rows = []
    for n in range(n_max + 1):
        a_n = ch.q_coeff(n)
        if n == 0:
            rows.append((0, a_n, 0.0))
        else:
            rows.append((n, a_n, math.log(a_n) / log_coeff_estimate(m, n)))
    return rows
