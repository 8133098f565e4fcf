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
each, every row a residue read back once, as qseries packs series. Which
charges can still matter below the truncation order comes from exact
min-cost displacement tables over the factors' charge movers (a
fermionic factor moves charge by +-1 once at a fixed cost, a bosonic one
any number of times); soundness is the triangle inequality for those
shortest-path costs. A cost at or above T = order + pad, pad the total
negative cost of the factors, changes no pruning decision, support flag
or floor, so each table keeps only the band of charges whose cost is
below T and sweeps that band alone, and skips any mover that a no
dearer bosonic one with the same step already covers.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, sub
from typing import Optional

from .characters import QP_MAX_ORDER, IdentityReport
from .errors import (InvalidParameter, OutOfWindow, ResourceLimit,
                     WindowUnderflow)
from .qseries import QSeries, euler_phi, unpack_signed

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

    def __init__(self, cap: int, limit: int, lo: int = 0, hi: int = 0):
        self.limit = limit
        self.cost = [_INF] * (2 * cap + 1)
        self.lo = max(lo, -cap) + cap
        self.hi = min(hi, cap) + cap
        self.cost[self.lo:self.hi + 1] = [0] * (self.hi - self.lo + 1)
        self.closed = {}

    def add_mover(self, step: int, cost: int, once: bool) -> None:
        closed = self.closed
        if closed.get(step, _INF) <= cost:
            return
        if once and closed.get(-step, _INF) + cost < 0:
            del closed[-step]
        if not once:
            closed[step] = cost
        c, lo, hi, limit = self.cost, self.lo, self.hi, self.limit
        if lo > hi:
            return
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
            return
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


def _coeff_bound(factors, pad: int, length: int) -> int:
    """Largest coefficient of u^-pad .. u^(length - pad - 1) in the product
    at z = 1 with every sign +, truncated the same way as the packed rows.
    Each coefficient read back from the packed rows is a signed sum over a
    subset of the same terms, so this bounds them all, not intermediates."""
    a = [0] * length
    a[pad] = 1
    for _, cost, _, inverse in factors:
        if inverse:
            # 1/(1 - u^cost) below u^length as the product of the
            # 1 + u^(cost 2^i) with cost 2^i < length
            g = cost
            while g < length:
                a[g:] = map(add, a[g:], a)
                g <<= 1
        elif cost >= 0:
            a[cost:] = map(add, a[cost:], a)
        else:
            a[:cost] = map(add, a[:cost], a[-cost:])
    return max(a)


def _graded_product(pairs, req_lo: int, req_hi: int,
                    order: int) -> ChargeSeries:
    """Multiply the factor pairs, claiming order on the requested window.

    Each pair is two factors of charge step +-1, applied together. The
    rows z^-cap .. z^cap are Python ints, each packing the row's
    coefficients of u^-pad .. u^(order + pad - 1), pad the total negative
    cost of the factors, as fixed-width digits (Kronecker substitution),
    and every factor is one in-place shift-and-add sweep over them. After
    each pair, row z^d is zeroed unless the cheapest way to have built
    charge d plus the cheapest way the unapplied pairs can pull it back
    into the requested window stays below order.
    """
    pad = -sum(min(0, f[1]) for pair in pairs for f in pair)
    cap = order + pad + 8
    n = 2 * cap + 1
    # Both tables drop costs at or above limit. Write N(S) for the total
    # negative cost of the movers of pairs S, so N(all) = pad. Then built
    # after pairs[i:] is exact below limit - N(pairs[i:]) >= order +
    # N(pairs[:i]), and pullback[i] exact below order + N(pairs[i:]).
    # A row is kept when built + pullback < order; as pullback >=
    # -N(pairs[:i]) and built >= -N(pairs[i:]), both terms are then exact,
    # and a stored cost is never below the exact one, so the test prunes
    # exactly what the full tables prune. At the end built is exact below
    # order, which is all the support flag reads, and the floor is a
    # minimum <= 0.
    limit = order + pad
    pairs = sorted(pairs, key=lambda pair: min(f[1] for f in pair))
    # pullback[i] = (first, band): band[d + cap - first] is the cheapest
    # way for the movers of pairs[:i] to carry charge d into the window,
    # i.e. to reach d from the window with every step reversed
    pullback = []
    back = _CostTable(cap, limit, req_lo, req_hi)
    for pair in pairs:
        pullback.append((back.lo, back.cost[back.lo:back.hi + 1]))
        for step, cost, _, inverse in pair:
            back.add_mover(-step, cost, not inverse)

    # Digit t of a row is its coefficient of u^(t - pad), below length,
    # and a row is kept only as its residue mod 2^(width length). Masked
    # adds, subtractions and left shifts are ring operations, so they
    # keep every digit that was right. A right shift comes only from a
    # once factor of negative cost c: no coefficient of any partial
    # product lies below u^-pad, so it drops only zero digits, and it
    # moves the unknown digits at and above length down by -c. Those
    # moves total pad, so every digit below order + pad, all that is
    # read back, is right at the end.
    length = order + 2 * pad
    factors = [f for pair in pairs for f in pair]
    nbytes = (_coeff_bound(factors, pad, length).bit_length() + 9) // 8
    width = 8 * nbytes
    mask = (1 << width * length) - 1
    rows = [0] * n
    rows[cap] = 1 << width * pad
    lo = hi = cap  # rows outside lo..hi are zero
    built = _CostTable(cap, limit)
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
                    rows[k] = (rows[k] - x if minus else rows[k] + x) & mask
        first, ret = pullback[i]
        live = []
        for k in range(lo, hi + 1):
            if (0 <= k - first < len(ret)
                    and built.cost[k] + ret[k - first] < order):
                live.append(k)
            else:
                rows[k] = 0
        lo, hi = (live[0], live[-1]) if live else (0, -1)

    # unpack the requested window; charges outside [-cap, cap] are zero
    # below order
    out = []
    for d in range(req_lo, req_hi + 1):
        x = rows[d + cap] if -cap <= d <= cap else 0
        out.append(QSeries(-pad, order, unpack_signed(x, nbytes, order + pad)))
    # built now covers every mover: the exact support and the floor
    band = built.cost[built.lo:built.hi + 1]
    reachable = [k for k, v in enumerate(band, built.lo - cap) if v < order]
    flag = req_lo <= reachable[0] and reachable[-1] <= req_hi
    floor = min(0, *band)
    return ChargeSeries(req_lo, out, support_exact=flag, min_floor=int(floor))


# ---------------------------------------------------------------------------
# the three graded products


def _neg_budget(m: int) -> int:
    # sum over k >= 1 of max(0, m - 2k), the k <= (m - 1) / 2 terms
    return (m - 1) // 2 * (m // 2)


def jacobi_triple_sides(order: int, window) -> tuple:
    """Fermion-pair product against the theta sum over phi(q):
    prod_n (1 + z u^(2n-1))(1 + 1/z u^(2n-1)) and
    (sum_j z^j u^(j*j)) / phi(q)."""
    if order < 1:
        raise InvalidParameter(f"need order >= 1, got {order}")
    lo, hi = window
    pairs = [((1, w, 1, False), (-1, w, 1, False)) for w in range(1, order, 2)]
    lhs = _graded_product(pairs, lo, hi, order)

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
    lhs = _graded_product(pairs, lo, hi, order)

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


def fock_char_window(m: int, order: int):
    """(-pad, order), pad = _neg_budget(m) ~ m^2 / 4: the u-window of the
    rows fock_char_product(m, order, ...) builds. Raises InvalidParameter
    if m < 2, and ResourceLimit, before anything is built, if the packed
    rows, order + 2 pad digits long, would exceed QP_MAX_ORDER."""
    if m < 2:
        raise InvalidParameter(f"need m >= 2, got {m}")
    pad = _neg_budget(m)
    if order + 2 * pad > QP_MAX_ORDER:
        raise ResourceLimit(
            f"the two-variable Fock character of m={m} at u-order {order} "
            f"packs {order + 2 * pad} digits a row, past its bound {QP_MAX_ORDER}")
    return -pad, order


def fock_char_product(m: int, order: int, window) -> ChargeSeries:
    """Specialized two-variable character of the whole charged Fock space:
    product over k >= 1 of
    (1 + z u^(2k-m)) (1 + 1/z u^(2k-2+m))
    / ((1 - z u^(m(2k-1))) (1 - 1/z u^(m(2k-1)))),
    on the requested z-window. Rows can start at negative u-exponents."""
    budget = -fock_char_window(m, order)[0]
    if order < 1:
        raise InvalidParameter(f"need order >= 1, got {order}")
    lo, hi = window
    pairs = []
    k = 1
    while 2 * k - m - budget < order:
        pairs.append(((1, 2 * k - m, 1, False), (-1, 2 * k - 2 + m, 1, False)))
        wb = m * (2 * k - 1)
        if wb - budget < order:
            pairs.append(((1, wb, -1, True), (-1, wb, -1, True)))
        k += 1
    return _graded_product(pairs, lo, hi, order)


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
