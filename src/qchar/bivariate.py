"""Charge-graded series: Laurent polynomials in a charge variable z whose
coefficients are truncated q-series, plus the three graded product
identities (two-variable Fock character, triple product, inverse-pair
product).

A ChargeSeries claims coefficients only inside its z-window; the window
is a truncation contract, not a statement that anything vanishes
outside. The graded products return their rows and nothing more. Two
soundness fields let cs_mul reason about what a hand-built input did NOT
store: support_exact promises that every unstored row is zero below the
shared order, and min_floor lower-bounds the minimum u-exponent of every
row of the true object, stored or not. Only such inputs fill them; the
builders leave the defaults, which claim nothing.

The infinite products are assembled factor by factor, most expensive
factor first, as shift-and-add sweeps over z-rows. Every factor moves
charge by +-1 at a u-cost of one parity P, so row z^d has only exponents
of d P's parity. Each row is an offset of that parity and one packed int
of q-digits, digit i holding u^(offset + 2i), sized by qseries.digit_bytes
and read back once by QSeries.from_qdigits as a residue. It holds
only the u-window that can still reach the claim: from the cheapest way
the applied factors build its charge up to order less the cheapest way
the unapplied ones carry it back into the requested window.
That second cost comes from an exact min-cost displacement table over
the factors' charge movers (a fermionic factor moves charge by +-1 once
at a fixed cost, a bosonic one any number of times), seeded on the
window, read before each factor as it stands with that factor and the
cheaper ones added; soundness is the triangle inequality for those
shortest-path costs. With pad the total negative cost of the factors,
the table keeps only the band of charges whose cost is below
order + 2 pad, exact below order + pad, which covers every digit any row
holds; it sweeps that band alone, and skips any mover that a no dearer
bosonic one with the same step already covers. The digit width comes from the product at z = 1 with
every sign +, which each builder reads as theta series over Euler products.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import isqrt
from operator import add, sub
from typing import Optional

from .characters import QP_MAX_ORDER, IdentityReport, compare_series, sector_window
from .errors import (InvalidParameter, OutOfWindow, WindowUnderflow,
                     check_work, need)
from .qseries import QSeries, digit_bytes, euler_phi, round_up

_INF = float("inf")


class ChargeSeries:
    """Immutable window of z-rows. rows[i] is the coefficient of
    z^(zmin + i); the shared order is the minimum row order.
    support_exact and min_floor are read by cs_mul alone, and only
    hand-built inputs fill them: the graded products leave the defaults,
    False and None, the weakest claim, so cs_mul refuses their outputs
    with WindowUnderflow."""

    __slots__ = ("zmin", "zmax", "rows", "order", "support_exact", "min_floor")

    def __init__(self, zmin: int, rows, support_exact: bool = False,
                 min_floor: Optional[int] = None):
        rows = tuple(rows)
        if not rows:
            raise InvalidParameter("a charge series needs at least one row")
        if not all(isinstance(r, QSeries) for r in rows):
            raise InvalidParameter("rows must be QSeries")
        object.__setattr__(self, "zmin", zmin)
        object.__setattr__(self, "zmax", zmin + len(rows) - 1)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "order", min(r.order for r in rows))
        object.__setattr__(self, "support_exact", support_exact)
        object.__setattr__(self, "min_floor", min_floor)

    def __setattr__(self, name, value):
        raise AttributeError("ChargeSeries is immutable")

    def __repr__(self):
        return (f"ChargeSeries(z^{self.zmin}..z^{self.zmax}, "
                f"order u^{self.order})")

    def __eq__(self, other):
        if not isinstance(other, ChargeSeries):
            return NotImplemented
        return self.zmin == other.zmin and self.rows == other.rows

    def __hash__(self):
        return hash((self.zmin, self.rows))

    def window(self):
        return (self.zmin, self.zmax)

    def has_degree(self, d: int) -> bool:
        return self.zmin <= d <= self.zmax

    def row(self, d: int) -> QSeries:
        if not self.has_degree(d):
            raise OutOfWindow(f"z-degree {d} outside window "
                              f"[{self.zmin}, {self.zmax}]")
        return self.rows[d - self.zmin]


def coeff_z(cs: ChargeSeries, s: int) -> QSeries:
    """The z^s row with its q-order contract."""
    return cs.row(s)


def cs_unit(order: int) -> ChargeSeries:
    return ChargeSeries(0, [QSeries.one(order)], support_exact=True,
                        min_floor=0)


# ---------------------------------------------------------------------------
# general product


def _row_product(a: ChargeSeries, b: ChargeSeries, d: int):
    """Sum of the stored-row products a[d1] * b[d - d1], claimed to the
    smallest order among them; None when no such pair is stored."""
    terms = None
    for d1 in range(max(a.zmin, d - b.zmax), min(a.zmax, d - b.zmin) + 1):
        prod = a.rows[d1 - a.zmin] * b.rows[d - d1 - b.zmin]
        terms = prod if terms is None else terms + prod
    return terms


def cs_mul(a: ChargeSeries, b: ChargeSeries, window=None,
           require_order: Optional[int] = None) -> ChargeSeries:
    """Graded product on the given z-window (default: the full Minkowski
    sum of the input windows).

    Each requested row is the exact convolution of stored rows, claimed
    to the smallest order any contributing pair can guarantee. Pairs
    involving unstored rows contribute through the inputs' soundness
    fields; if neither field can bound such a pair the row has no honest
    claim at all and WindowUnderflow is raised, likewise when a
    require_order is given and some row falls short of it.
    """
    if window is None:
        window = (a.zmin + b.zmin, a.zmax + b.zmax)
    lo, hi = window
    if lo > hi:
        raise InvalidParameter("empty z-window")

    # bound on the min exponent of any unstored row
    alpha = a.order if a.support_exact else a.min_floor
    beta = b.order if b.support_exact else b.min_floor
    if alpha is None or beta is None:
        # splits with both degrees unstored always exist
        raise WindowUnderflow(
            "an input window has no bound on its unstored rows")

    rows = []
    for d in range(lo, hi + 1):
        terms = _row_product(a, b, d)
        claims = [alpha + beta]
        if terms is not None:
            claims.append(terms.order)
        # a stored row whose partner is unstored is bounded by the other
        # input's soundness field
        for x, y, bound in ((a, b, beta), (b, a, alpha)):
            out = [r.min_exp for dx, r in enumerate(x.rows, x.zmin)
                   if not y.has_degree(d - dx) and not r.is_zero()]
            if out:
                claims.append(min(out) + bound)
        od = min(claims)
        if require_order is not None and od < require_order:
            raise WindowUnderflow(
                f"row z^{d} only supports order u^{od}, "
                f"required u^{require_order}")
        rows.append(QSeries.zero(od) if terms is None else terms.restricted(od))

    out_order = min(r.order for r in rows)
    floor = None
    if a.min_floor is not None and b.min_floor is not None:
        floor = a.min_floor + b.min_floor
    flag = False
    if (a.support_exact and b.support_exact and floor is not None
            and lo <= a.zmin + b.zmin and hi >= a.zmax + b.zmax):
        # every split of an unstored result row has an unstored factor
        outside = min(a.order + b.min_floor, b.order + a.min_floor,
                      a.order + b.order)
        flag = outside >= out_order
    return ChargeSeries(lo, rows, support_exact=flag, min_floor=floor)


# ---------------------------------------------------------------------------
# factor assembly
#
# A factor (step, cost, sign, inverse) is the binomial
# (1 + sign z^step u^cost)^(-1 if inverse else 1). Its charge mover
# (step, cost, once) says it can shift charge by step at u-cost cost, a
# single time if once (a plain binomial, once = not inverse) else
# arbitrarily often (a geometric series). Inverse factors have cost > 0.


class _CostTable:
    """Minimum u-cost to reach charge r in [-cap, cap] over a pool of
    movers, each of step +-1, starting at cost 0 anywhere in [lo, hi],
    kept exact only below a limit.

    cost[r + cap] is the entry of charge r; every entry outside the band
    cost[self.lo .. self.hi] is inf, and the two band edges are below the
    limit. Each stored entry is the cost of some sequence of moves, so it
    is never below the exact minimum. An entry at or above the limit may
    be dropped to inf, which loses nothing below it: after movers of total
    negative cost N, every exact minimum below limit - N is stored
    exactly, because the last move of its cheapest path leaves a source
    at most max(0, -cost) dearer, hence exact by induction.

    `closed` maps a step to the cost of a repeatable mover the exact
    table is closed under (cost[i] <= cost[i - step] + that cost). A
    later mover with that step and no lower cost, once or repeatable,
    changes nothing and is skipped. A later mover keeps the closure unless
    it is a once mover of the opposite step whose cost plus the closure's
    is < 0: a move and its undo never gain otherwise.
    """

    __slots__ = ("limit", "cost", "lo", "hi", "closed")

    def __init__(self, cap: int, limit: int, lo: int, hi: int):
        self.limit = limit
        self.cost = [_INF] * (2 * cap + 1)
        self.lo = max(lo, -cap) + cap
        self.hi = min(hi, cap) + cap
        self.cost[self.lo:self.hi + 1] = [0] * (self.hi - self.lo + 1)
        self.closed = {}

    def add_mover(self, step: int, cost: int, once: bool) -> bool:
        """Add the mover; False when that leaves the table as it was."""
        closed = self.closed
        if closed.get(step, _INF) <= cost:
            return False
        if once and closed.get(-step, _INF) + cost < 0:
            del closed[-step]
        if not once:
            closed[step] = cost
        c, lo, hi, limit = self.cost, self.lo, self.hi, self.limit
        if lo > hi:
            return False
        n = len(c)
        if once:
            a, b = max(lo + step, 0), min(hi + step, n - 1)
            c[a:b + 1] = map(min, c[a:b + 1],
                             map(add, c[a - step:b - step + 1], repeat(cost)))
            # the moved edge may land at or above the limit; the one
            # behind it was an edge before, and no entry rose
            e = b if step > 0 else a
            if c[e] >= limit:
                c[e] = _INF
                e -= step
            self.lo, self.hi = min(lo, e), max(hi, e)
            return True
        # cost[i] = min over j of cost[i - j step] + j cost, a running
        # minimum of cost[i] - i cost along the step
        sl = (slice(lo, hi + 1) if step > 0
              else slice(hi, lo - 1 if lo else None, -1))
        seg = c[sl]
        ramp = range(0, len(seg) * cost, cost)
        c[sl] = seg = list(map(add, accumulate(map(sub, seg, ramp), min),
                               ramp))
        # walk out past the band while the cost stays below the limit; the
        # far edge v was below it and only fell
        v = seg[-1]
        if step > 0:
            k = min((limit - 1 - v) // cost, n - 1 - hi)
            c[hi + 1:hi + k + 1] = range(v + cost, v + cost * k + 1, cost)
            self.hi = hi + k
        else:
            k = min((limit - 1 - v) // cost, lo)
            c[lo - k:lo] = range(v + cost * k, v, -cost)
            self.lo = lo - k
        return True


# The graded builders pass as bound the untruncated product at z = 1 with
# every sign +. Each of its factors has nonnegative coefficients, so it is
# never below the finite, truncated product the rows are sums over.
def _plus_bound(n: int, thetas, phis) -> int:
    """Largest coefficient below u^n of the product of theta_a = sum_{j in Z}
    u^(a j^2) over a in thetas and of phi(a)^e = (q^a;q^a)^e over (a, e)
    in phis."""
    x = QSeries.one(n)
    for a in thetas:
        x = x * QSeries.from_terms(
            {0: 1, **{a * j * j: 2 for j in range(1, isqrt(n // a) + 1)}}, n)
    for a, e in phis:
        for _ in range(abs(e)):
            x = x * euler_phi(a, n) if e > 0 else x / euler_phi(a, n)
    return max(x.coeffs)


def _graded_product(factors, req_lo: int, req_hi: int, order: int,
                    bound: int) -> ChargeSeries:
    """Multiply the factors, claiming order on the requested window.
    bound is at least every coefficient below u^(order + pad) of their
    product at z = 1 with every sign +, pad their total negative cost:
    every digit a row holds is a signed sum over a subset of those terms,
    so at most bound in absolute value, the range digit_bytes sizes for.

    Each factor moves charge by +-1, and every factor's cost has one
    parity P, else InvalidParameter is raised. Row z^d then has only
    exponents of d P's parity. It is an offset o of that parity and a
    Python int whose fixed-width digit i is the row's coefficient of
    u^(o + 2i), so q-digits only (Kronecker substitution on the exponent
    class used), and every factor is one in-place shift-and-add sweep over
    the rows. A row keeps only its digits from the cheapest way to have
    built charge d up to order less the cheapest way the unapplied factors
    can pull it back into the requested window, and is dropped when none
    are left.
    """
    if len({f[1] % 2 for f in factors}) > 1:
        raise InvalidParameter("the factor costs of a graded product must "
                               "share one parity")
    pad = -sum(min(0, f[1]) for f in factors)
    cap = order + pad + 8
    factors = sorted(factors, key=lambda f: f[1])
    # The table drops costs at or above order + 2 pad. The movers spend
    # at most pad of negative cost, so every cost below order + pad is
    # exact, and one missing from the table is order + pad or more.
    limit = order + 2 * pad
    # tops[i] = (first, band): band[k - first] is the cheapest way the
    # movers of factors[:i + 1] carry charge k - cap into the window (reach
    # it from the window with every step reversed), over the charges they
    # reach below limit, a slice of the table's band; a factor that changes
    # nothing shares the entry before it
    tops = []
    back = _CostTable(cap, limit, req_lo, req_hi)
    for step, cost, _, inverse in factors:
        if back.add_mover(-step, cost, not inverse) or not tops:
            table = (back.lo, back.cost[back.lo:back.hi + 1])
        tops.append(table)

    # Row k, charge k + base - cap, is x(u^2) u^offs[k]: the int x packs
    # its coefficients as w-bit q-digits, each mod 2^w. Every offset a
    # mover writes to row k is offs[k - s] + c, of row k's parity, so an
    # alignment moves by half an offset difference, and a row whose top
    # is T keeps its ceil((T - offs[k]) / 2) digits below u^T. While
    # factor i is applied, a write to row k keeps at least its digits
    # below the top T(k) = order - band[k - a] of tops[i]; before that, a
    # row missing from tops[i] is dropped, and so is one whose offset
    # reaches T(k). That scan is skipped when tops[i] is the entry the
    # factor before used: it kept only rows inside that band and below
    # their tops, a row's offset only falls, and every write lands inside
    # the band below its top, so the scan could drop nothing. lo and hi may
    # then bound a zero row; each sweep steps over zero rows.
    #
    # Why the digits read back are right. No row has a digit below
    # u^-pad, as offsets are costs of moves. Let H(k) be order less the
    # exact cheapest way the unapplied movers carry charge k into the
    # window: no term of row k at or above u^H(k) reaches a window term
    # below order. Claim: every row's digits below H are right. A factor
    # with mover (s, c) adds to row k u^c times row k - s, the updated one
    # for a geometric series, so that row k gains u^(jc) times the old
    # row k - js for every j >= 1. A term of the new row k below its new
    # edge H' comes from the old row k below H' <= H, or from the old row
    # k - js below H' - jc <= H(k - js), as the mover can first carry
    # k - js to k. So the claim holds unless a mask cuts such a digit on
    # its way, at u^(e - hc) in row k - hs for 0 <= h < j. The movers
    # still unapplied during factor i are those of factors[:i + 1], a
    # geometric one among them as it repeats, so T(k - hs) >= H'(k) - hc
    # wherever that table entry is exact. Nothing here depends on the
    # order the factors are applied in. Every entry below order + pad is
    # exact; where one is not, the edge it bounds is at most -pad, below
    # every digit. The same bounds drop only rows with no digit below H.
    # Masked adds, subtractions and left shifts are ring operations, and
    # offsets take the place of right shifts, so at the end the window
    # rows are right below H = order.
    nbytes = digit_bytes(bound, True)
    w = 8 * nbytes
    # the last table is the widest
    base, band = tops[-1] if tops else (cap, [0])
    rows, offs = [0] * len(band), [0] * len(band)
    lo = hi = cap - base
    if 0 <= lo < len(band):
        rows[lo] = 1
    else:
        lo, hi = 0, -1
    masks = {}
    last = None
    for (step, cost, sign, inverse), top in zip(reversed(factors),
                                                reversed(tops)):
        first, band = top
        a, b = first - base, first - base + len(band) - 1  # band[k - a]
        if top is not last:
            last = top
            for k in range(lo, hi + 1):
                if rows[k] and not (a <= k <= b
                                    and offs[k] + band[k - a] < order):
                    rows[k] = 0
            while lo <= hi and not rows[lo]:
                lo += 1
            while hi >= lo and not rows[hi]:
                hi -= 1
        # a product reads each neighbour before updating it; a geometric
        # series reads it after and runs on until a row past the old ones
        # gets nothing
        if step > 0:
            ks = range(lo + 1, (b if inverse else min(hi + 1, b)) + 1)
            end = hi
        else:
            ks = range(a if inverse else max(lo - 1, a), hi)
            end = lo
        if inverse == (step < 0):
            ks = reversed(ks)
        minus = (sign < 0) != inverse
        for k in ks:
            x = rows[k - step]
            if not x:
                if inverse and (k - step - end) * step > 0:
                    break
                continue
            o = offs[k - step] + cost
            t = order - band[k - a]
            if o >= t:
                continue
            y = rows[k]
            if y:
                # one alignment shift onto the lower offset
                if o > offs[k]:
                    x <<= w * (o - offs[k] >> 1)
                    o = offs[k]
                else:
                    y <<= w * (offs[k] - o >> 1)
            n = t - o + 1 >> 1  # the q-digits below u^t
            m = masks.get(n)
            if m is None:
                # n digits or more, eight masks per doubling
                r = round_up(n)
                m = masks[n] = masks.get(-r) or masks.setdefault(
                    -r, (1 << w * r) - 1)
            rows[k] = (y - x if minus else y + x) & m
            offs[k] = o
        # the rows written past the old ones have no gap
        while hi < b and rows[hi + 1]:
            hi += 1
        while lo > a and rows[lo - 1]:
            lo -= 1

    # unpack the requested window; the other charges are zero below order
    return ChargeSeries(req_lo, [
        QSeries.from_qdigits(offs[k], order, rows[k], nbytes, True)
        if lo <= k <= hi and rows[k] else QSeries.zero(order)
        for k in range(req_lo + cap - base, req_hi + cap - base + 1)])


# ---------------------------------------------------------------------------
# the three graded products

# The most z-rows hi - lo + 1 a graded builder makes, a power of two. A row
# past the charges the order reaches costs about 10 us and 0.35 KB, so
# nothing else bounds a wide window. On 2 vCPUs with --zwin 32767, each of
# jtp, kp and fockprod verifies in 0.4-2.0 s and 25-31 MB at q-order 5, and
# in 8-16 s and 0.19-0.58 GB at q-order 1600.
ZWIN_MAX_ROWS = 1 << 16


# What the refusals of jacobi_triple_sides and inverse_product_sides name
TRIPLE = "the triple product"
INVERSE_PAIR = "the inverse pair product"


def graded_window(name: str, order: int, window, pad: int = 0):
    """(-pad, order): the u-window of the rows the graded product `name`
    builds at u-order order on the z-window (lo, hi) from factors of total
    negative cost pad. Raises InvalidParameter if order < 1, then
    ResourceLimit if the span its digit width is read over, order + 2 pad
    digits, passes QP_MAX_ORDER, or if its hi - lo + 1 z-rows pass
    ZWIN_MAX_ROWS: the one check every graded builder, and the window of
    its family, makes before anything is built. kp takes about 14 s and
    0.57 GB at the span bound on 2 vCPUs, jtp 3.5 s."""
    need("order", order, 1)
    check_work(order + 2 * pad, QP_MAX_ORDER,
               f"{name} at u-order {order} has a span in packed digits of")
    lo, hi = window
    check_work(hi - lo + 1, ZWIN_MAX_ROWS,
               f"the z-window of {name} has a row count of")
    return -pad, order


def jacobi_triple_sides(order: int, window) -> tuple:
    """Fermion-pair product against the theta sum over phi(q):
    prod_n (1 + z u^(2n-1))(1 + 1/z u^(2n-1)) and
    (sum_j z^j u^(j*j)) / phi(q)."""
    graded_window(TRIPLE, order, window)
    lo, hi = window
    factors = [(s, w, 1, False) for w in range(1, order, 2) for s in (1, -1)]
    # at z = 1: (-u;u^2)^2 = theta_1 / phi(1)
    lhs = _graded_product(factors, lo, hi, order,
                          _plus_bound(order, [1], [(1, -1)]))

    inv = QSeries.one(order) / euler_phi(1, order)
    # row j depends on |j| only
    theta = {j: inv.shifted(j * j).restricted(order)
             for j in range(max(0, lo, -hi), max(-lo, hi) + 1)}
    rhs = ChargeSeries(lo, [theta[abs(j)] for j in range(lo, hi + 1)])
    return lhs, rhs


def inverse_product_sides(order: int, window) -> tuple:
    """Inverse fermion-pair product against its alternating double sum
    over phi(q)^2: prod_k 1/((1 + z u^(2k-1))(1 + 1/z u^(2k-1))) and
    (sum_{r,t>=0} - sum_{r,t<0}) (-1)^(r+t) z^t u^(r(r+1)+(2r+1)t)
    / phi(q)^2."""
    graded_window(INVERSE_PAIR, order, window)
    lo, hi = window
    factors = [(s, w, 1, True) for w in range(1, order, 2) for s in (1, -1)]
    # at z = 1: 1/(u;u^2)^2 = theta_1 phi(2)^2 / phi(1)^3
    lhs = _graded_product(factors, lo, hi, order,
                          _plus_bound(order, [1], [(2, 2), (1, -3)]))

    phi = euler_phi(1, order)
    inv = QSeries.one(order) / phi / phi
    # row t depends on |t| only
    theta = {}
    for ta in range(max(0, lo, -hi), max(-lo, hi) + 1):
        terms = {}
        r = 0
        while r * (r + 1) + (2 * r + 1) * ta < order:
            terms[r * (r + 1) + (2 * r + 1) * ta] = (-1) ** (r + ta)
            r += 1
        theta[ta] = QSeries.from_terms(terms, order) * inv
    rhs = ChargeSeries(lo, [theta[abs(t)] for t in range(lo, hi + 1)])
    return lhs, rhs


def fock_char_window(m: int, order: int, window):
    """graded_window of fock_char_product(m, order, window), whose pad is
    that of sector_window(m, order), about m^2 / 4. Raises as that does,
    then as graded_window."""
    pad = -sector_window(m, order)[0]
    return graded_window(f"the two-variable Fock character of m={m}",
                         order, window, pad)


def fock_char_product(m: int, order: int, window) -> ChargeSeries:
    """Specialized two-variable character of the whole charged Fock space:
    product over k >= 1 of
    (1 + z u^(2k-m)) (1 + 1/z u^(2k-2+m))
    / ((1 - z u^(m(2k-1))) (1 - 1/z u^(m(2k-1)))),
    on the requested z-window. Rows can start at negative u-exponents."""
    budget = -fock_char_window(m, order, window)[0]
    factors = []
    k = 1
    while 2 * k - m - budget < order:
        factors += [(1, 2 * k - m, 1, False), (-1, 2 * k - 2 + m, 1, False)]
        wb = m * (2 * k - 1)
        if wb - budget < order:
            factors += [(1, wb, -1, True), (-1, wb, -1, True)]
        k += 1
    # at z = 1, u^budget times the product is 2^[m even] times
    # 1/(u^m;u^2m)^2 = theta_m phi(2m)^2 / phi(m)^3 times
    # 1/(u^2;u^4)^2 = phi(2)^2 / phi(1)^2 for even m and
    # (-u;u^2)^2 = theta_1 / phi(1) for odd m
    phis = [(2 * m, 2), (m, -3)]
    if m % 2:
        bound = _plus_bound(order + 2 * budget, [m, 1], phis + [(1, -1)])
    else:
        bound = 2 * _plus_bound(order + 2 * budget, [m], phis + [(2, 2), (1, -2)])
    return _graded_product(factors, *window, order, bound)


# ---------------------------------------------------------------------------
# comparison


def compare_charge_series(identity: str, params: dict, lhs: ChargeSeries,
                          rhs: ChargeSeries) -> IdentityReport:
    """compare_series on each row of the common window, lowest z-degree
    first. The first report that fails is returned, its parameters naming
    the row's z_degree and its order_u that row's; else a pass claimed to
    the shared order of both series."""
    lo = max(lhs.zmin, rhs.zmin)
    hi = min(lhs.zmax, rhs.zmax)
    if lo > hi:
        raise InvalidParameter("windows do not overlap")
    for d in range(lo, hi + 1):
        report = compare_series(identity, {**params, "z_degree": d},
                                lhs.row(d), rhs.row(d))
        if not report.passed():
            return report
    return IdentityReport(identity, dict(params), min(lhs.order, rhs.order),
                          "pass")
