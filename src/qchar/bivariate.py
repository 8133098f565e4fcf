"""Charge-graded series: Laurent polynomials in a charge variable z whose
coefficients are truncated q-series, plus the three graded product
identities (two-variable Fock character, triple product, inverse-pair
product).

A ChargeSeries claims coefficients only inside its z-window; the window
is a truncation contract, not a statement that anything vanishes
outside. Two soundness fields let products reason about what was NOT
stored: support_exact promises that every unstored row is zero below
the shared order, and min_floor lower-bounds the minimum u-exponent of
every row of the true object, stored or not.

The infinite products are assembled factor by factor, most expensive
factor first, as shift-and-add sweeps over z-rows packed into one int
each. Which charges can still matter below the truncation order comes
from exact min-cost displacement tables over the factors' charge movers
(a fermionic factor moves charge once at a fixed cost, a bosonic one any
number of times); soundness is the triangle inequality for those
shortest-path costs.
"""

from __future__ import annotations

from operator import add
from typing import Optional

from .characters import IdentityReport
from .errors import InvalidParameter, OutOfWindow, WindowUnderflow
from .qseries import QSeries, euler_phi, unpack_digits

_INF = float("inf")


class ChargeSeries:
    """Immutable window of z-rows. rows[i] is the coefficient of
    z^(zmin + i); the shared order is the minimum row order."""

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
    """Exact minimum u-cost to reach charge r in [-cap, cap] over a mover
    pool, starting at cost 0 anywhere in [lo, hi]."""

    __slots__ = ("cap", "cost")

    def __init__(self, cap: int, lo: int = 0, hi: int = 0):
        self.cap = cap
        self.cost = [_INF] * (2 * cap + 1)
        for r in range(max(lo, -cap), min(hi, cap) + 1):
            self.cost[r + cap] = 0

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


def _coeff_bound(factors, pad: int, length: int) -> int:
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


def _graded_product(pairs, req_lo: int, req_hi: int, order: int,
                    pad: int) -> ChargeSeries:
    """Multiply the factor pairs, claiming order on the requested window.

    Each pair is two factors, applied together; pad must cover the total
    negative u-cost available across all movers. The rows z^-cap .. z^cap
    are Python ints, each packing the row's coefficients of u^-pad ..
    u^(order + pad - 1) as fixed-width signed digits (Kronecker
    substitution), and every factor is one in-place shift-and-add sweep
    over them. After each pair, row z^d is zeroed unless the cheapest way
    to have built charge d plus the cheapest way the unapplied pairs can
    pull it back into the requested window stays below order.
    """
    cap = order + pad + 8
    n = 2 * cap + 1
    pairs = sorted(pairs, key=lambda pair: min(f[1] for f in pair))
    # pullback[i][d + cap]: cheapest way for the movers of pairs[:i] to
    # carry charge d into the window, i.e. to reach d from the window
    # with every step reversed
    pullback = []
    back = _CostTable(cap, req_lo, req_hi)
    for pair in pairs:
        pullback.append(back.cost[:])
        for step, cost, _, inverse in pair:
            back.add_mover(-step, cost, not inverse)

    # digit t of a row is its coefficient of u^(t - pad); a row is kept
    # canonical by ((x + half) & mask) - half, which drops the digits at
    # and above length and leaves each lower digit in [-2^(width-1),
    # 2^(width-1))
    length = order + 2 * pad
    factors = [f for pair in pairs for f in pair]
    nbytes = (_coeff_bound(factors, pad, length).bit_length() + 9) // 8
    width = 8 * nbytes
    mask = (1 << width * length) - 1
    half = mask // ((1 << width) - 1) << (width - 1)
    rows = [0] * n
    rows[cap] = 1 << width * pad
    lo = hi = cap  # rows outside lo..hi are zero
    built = _CostTable(cap)
    for i in range(len(pairs) - 1, -1, -1):
        for step, cost, sign, inverse in pairs[i]:
            built.add_mover(step, cost, not inverse)
            if lo > hi:
                continue
            # a product reads each neighbour before updating it; a
            # geometric series reads it after, and ceil(length / cost)
            # moves carry any row past the top digit
            reach = step * -(-length // cost) if inverse else step
            if step > 0:
                hi = min(hi + reach, n - 1)
                ks = range(lo + step, hi + 1)
            else:
                lo = max(lo + reach, 0)
                ks = range(lo, hi + step + 1)
            if inverse == (step < 0):
                ks = reversed(ks)
            minus = (sign < 0) != inverse
            shift = cost * width
            for k in ks:
                x = rows[k - step]
                if x:
                    x = x << shift if shift >= 0 else x >> -shift
                    x = rows[k] - x if minus else rows[k] + x
                    rows[k] = ((x + half) & mask) - half
        ret = pullback[i]
        live = []
        for k in range(lo, hi + 1):
            if built.cost[k] + ret[k] < order:
                live.append(k)
            else:
                rows[k] = 0
        lo, hi = (live[0], live[-1]) if live else (0, -1)

    # unpack the requested window; charges outside [-cap, cap] are zero
    # below order
    off = 1 << (width - 1)
    out = []
    for d in range(req_lo, req_hi + 1):
        x = rows[d + cap] if -cap <= d <= cap else 0
        if not x:
            out.append(QSeries.zero(order))
            continue
        out.append(QSeries(-pad, order,
                           unpack_digits(x + half, nbytes, order + pad, off)))
    # built now covers every mover: the exact support and the floor
    reachable = [k - cap for k, v in enumerate(built.cost) if v < order]
    flag = req_lo <= reachable[0] and reachable[-1] <= req_hi
    floor = min(0, min(v for v in built.cost if v < _INF))
    return ChargeSeries(req_lo, out, support_exact=flag, min_floor=int(floor))


# ---------------------------------------------------------------------------
# the three graded products


def _neg_budget(m: int) -> int:
    return sum(max(0, m - 2 * k) for k in range(1, m + 1))


def jacobi_triple_sides(order: int, window) -> tuple:
    """Fermion-pair product against the theta sum over phi(q):
    prod_n (1 + z u^(2n-1))(1 + 1/z u^(2n-1)) and
    (sum_j z^j u^(j*j)) / phi(q)."""
    if order < 1:
        raise InvalidParameter(f"need order >= 1, got {order}")
    lo, hi = window
    pairs = [((1, w, 1, False), (-1, w, 1, False)) for w in range(1, order, 2)]
    lhs = _graded_product(pairs, lo, hi, order, pad=0)

    phi = euler_phi(1, order)
    # row j depends on |j| only
    theta = {j: QSeries.monomial(j * j, order) / phi
             for j in range(max(0, lo, -hi), max(-lo, hi) + 1)}
    rows = [theta[abs(j)] for j in range(lo, hi + 1)]
    below = 0 if lo - 1 >= 0 else (lo - 1) ** 2
    above = 0 if hi + 1 <= 0 else (hi + 1) ** 2
    rhs = ChargeSeries(lo, rows, min_floor=0,
                       support_exact=below >= order and above >= order)
    return lhs, rhs


def inverse_product_sides(order: int, window) -> tuple:
    """Inverse fermion-pair product against its alternating double sum
    over phi(q)^2: prod_k 1/((1 + z u^(2k-1))(1 + 1/z u^(2k-1))) and
    (sum_{r,t>=0} - sum_{r,t<0}) (-1)^(r+t) z^t u^(r(r+1)+(2r+1)t)
    / phi(q)^2."""
    if order < 1:
        raise InvalidParameter(f"need order >= 1, got {order}")
    lo, hi = window
    pairs = [((1, w, 1, True), (-1, w, 1, True)) for w in range(1, order, 2)]
    lhs = _graded_product(pairs, lo, hi, order, pad=0)

    phi = euler_phi(1, order)
    # row t depends on |t| only
    theta = {}
    for ta in range(max(0, lo, -hi), max(-lo, hi) + 1):
        terms = {}
        r = 0
        while r * (r + 1) + (2 * r + 1) * ta < order:
            terms[r * (r + 1) + (2 * r + 1) * ta] = (-1) ** (r + ta)
            r += 1
        theta[ta] = QSeries.from_terms(terms, order) / phi / phi
    rows = [theta[abs(t)] for t in range(lo, hi + 1)]
    rhs = ChargeSeries(lo, rows, support_exact=False, min_floor=0)
    return lhs, rhs


def fock_char_product(m: int, order: int, window) -> ChargeSeries:
    """Specialized two-variable character of the whole charged Fock space:
    product over k >= 1 of
    (1 + z u^(2k-m)) (1 + 1/z u^(2k-2+m))
    / ((1 - z u^(m(2k-1))) (1 - 1/z u^(m(2k-1)))),
    on the requested z-window. Rows can start at negative u-exponents."""
    if m < 2:
        raise InvalidParameter(f"need m >= 2, got {m}")
    if order < 1:
        raise InvalidParameter(f"need order >= 1, got {order}")
    lo, hi = window
    budget = _neg_budget(m)
    pairs = []
    k = 1
    while 2 * k - m - budget < order:
        pairs.append(((1, 2 * k - m, 1, False), (-1, 2 * k - 2 + m, 1, False)))
        wb = m * (2 * k - 1)
        if wb - budget < order:
            pairs.append(((1, wb, -1, True), (-1, wb, -1, True)))
        k += 1
    return _graded_product(pairs, lo, hi, order, pad=budget)


# ---------------------------------------------------------------------------
# comparison


def compare_charge_series(identity: str, params: dict, lhs: ChargeSeries,
                          rhs: ChargeSeries) -> IdentityReport:
    """Row-by-row comparison over the common window, reported like a plain
    series check; a failing row records its z-degree in the parameters."""
    lo = max(lhs.zmin, rhs.zmin)
    hi = min(lhs.zmax, rhs.zmax)
    if lo > hi:
        raise InvalidParameter("windows do not overlap")
    order = min(lhs.order, rhs.order)
    for d in range(lo, hi + 1):
        e = lhs.row(d).first_diff(rhs.row(d))
        if e is not None:
            p = dict(params)
            p["z_degree"] = d
            return IdentityReport(identity, p, order, "fail",
                                  first_diff_u_exp=e,
                                  lhs_coeff=lhs.row(d).coeff(e),
                                  rhs_coeff=rhs.row(d).coeff(e))
    return IdentityReport(identity, dict(params), order, "pass")
