"""Exact truncated Laurent series on the half-integer exponent lattice.

Everything in this package lives on the lattice (1/2)Z: exponents are stored
as integers in "u-units" where u^2 = q, so the q-exponent of a stored
exponent e is e/2. Coefficients are arbitrary-precision Python ints.

A QSeries claims its coefficients exactly on the window [min_exp, order):
`order` is an honest truncation contract, never a guess. Operations compute
the largest order they can guarantee from their inputs' contracts.

`*` is the one product kernel: each nonzero term c u^t of the sparser
operand adds c times the denser one, shifted by t, in one C-level slice
map, over every second slot when the denser one has no odd-offset term
(as no sector, Euler or dist series has), so an Euler or theta factor
costs O(sqrt(order)) slice maps. A term of +-1, as every term of an
Euler or theta factor is, adds or subtracts the slice with no multiply.
`+` is one slice map per operand.

`/` is the one exact-division kernel: x / d solves y * d = x term by term,
y[t] = c0 (x[t] - sum_k d[k] y[t-k]), over the nonzero terms of d only,
for a divisor whose lowest coefficient c0 is +-1. `invert` is 1 / d. The
Euler products (q^j;q^j)_inf come from the pentagonal theorem with
O(sqrt(order)) nonzero terms, so dividing by them costs O(order^1.5)
instead of the O(order^2) of multiplying by a dense inverse. Every Euler
quotient but characters._boson_pair_base, for m >= 4 the only check of
euler_phi(m), is built with `/`.

A series whose exponents all lie in one class mod 2 is packed as one int
of fixed-width q-digits (Kronecker substitution): digit i holds the
coefficient of u^(lo + 2i), and a series below q^L is kept as its residue
mod 2^(wL). digit_bytes is the one width rule, QSeries.from_qdigits the
one read-back, repack moves nonnegative digits to another width, exactly
when each fits it, and packed_geometric divides by 1 - q^j. The read-back
(unpack_digits) has three readers, the first two through the buffer
protocol in the host's byte order: digits of up to 8 bytes by one
memoryview.cast, from 1 digit of a power-of-two width and past 2 nbytes
digits of 3, 5, 6 or 7 bytes; digits of 9 to 16 bytes as two 8-byte
limbs, past 6 digits of 16 bytes, 3 nbytes + 6 unsigned and 57 signed
ones of 9 to 15; and one int.from_bytes per digit for wider digits,
shorter reads and big-endian hosts.
"""

import sys
from functools import lru_cache
from itertools import compress, repeat
from math import gcd
from operator import add, lshift, mul, neg, sub

from .errors import (
    InsufficientOrder,
    InvalidParameter,
    NonUnitLeadingCoefficient,
    OutOfWindow,
    ZeroSeries,
    check_work,
    need,
)

# The longest window [min_exp, order) a caller may ask a builder for, in
# coefficients; longer ones are refused before anything is allocated.
MAX_WINDOW = 1 << 20


def check_window(lo: int, order: int) -> None:
    """Raise ResourceLimit if the window u^lo..u^order is longer than
    MAX_WINDOW coefficients."""
    check_work(order - lo, MAX_WINDOW,
               f"the window u^{lo}..u^{order} has a length in coefficients of")


def round_up(n: int) -> int:
    """n >= 0 rounded up to four significant bits: less than n + n/8 + 1,
    never past the next power of two, eight values per doubling."""
    g = max(0, n.bit_length() - 4)
    return -(-n >> g) << g


def half_exp_str(u_exp: int) -> str:
    """Render a u-exponent as a q-exponent: even -> integer, odd -> n/2."""
    if u_exp % 2 == 0:
        return str(u_exp // 2)
    return f"{u_exp}/2"


class QSeries:
    """Immutable truncated Laurent series in u (u^2 = q).

    coeffs[t] is the coefficient of u^(min_exp + t); len(coeffs) is exactly
    order - min_exp. Canonical form: a nonzero series has coeffs[0] != 0,
    the zero series has min_exp == order and empty coeffs.
    """

    __slots__ = ("min_exp", "order", "coeffs")

    def __init__(self, min_exp: int, order: int, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > order - min_exp:
            raise InvalidParameter("coefficients exceed the claimed window")
        coeffs.extend([0] * (order - min_exp - len(coeffs)))
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead == len(coeffs):
            min_exp = order
            coeffs = []
        elif lead:
            min_exp += lead
            coeffs = coeffs[lead:]
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(order, order, ())

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls.monomial(0, order)

    @classmethod
    def monomial(cls, u_exp: int, order: int, coeff: int = 1) -> "QSeries":
        if u_exp >= order:
            return cls.zero(order)
        return cls(u_exp, order, (coeff,))

    @classmethod
    def from_terms(cls, terms, order: int) -> "QSeries":
        """Build from {u_exp: coeff} or (u_exp, coeff) pairs; exponents at or
        beyond `order` are dropped (they are outside the claim)."""
        if isinstance(terms, dict):
            terms = terms.items()
        terms = [(e, c) for e, c in terms if c and e < order]
        if not terms:
            return cls.zero(order)
        lo = min(e for e, _ in terms)
        buf = [0] * (order - lo)
        for e, c in terms:
            buf[e - lo] += c
        return cls(lo, order, buf)

    @classmethod
    def from_qdigits(cls, lo: int, order: int, x: int, nb: int,
                     signed: bool) -> "QSeries":
        """The series below u^order whose coefficient of u^(lo + 2i) is
        digit i of x in base 256^nb, signed or not (see unpack_digits), for
        the ceil((order - lo) / 2) digits of the window; zero if order <= lo."""
        if order <= lo:
            return cls.zero(order)
        coeffs = [0] * (order - lo)
        coeffs[::2] = unpack_digits(x, nb, order - lo + 1 >> 1, signed)
        return cls(lo, order, coeffs)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, u_exp: int) -> int:
        if u_exp >= self.order:
            raise OutOfWindow(
                f"exponent u^{u_exp} is beyond the guaranteed order u^{self.order}"
            )
        if u_exp < self.min_exp:
            return 0
        return self.coeffs[u_exp - self.min_exp]

    def q_coeff(self, n: int) -> int:
        return self.coeff(2 * n)

    def items(self):
        """Nonzero (u_exp, coeff) pairs in increasing exponent order."""
        base = self.min_exp
        return [(base + t, c) for t, c in enumerate(self.coeffs) if c]

    def first_diff(self, other: "QSeries"):
        """Smallest exponent below both orders where the two differ, or None."""
        through = min(self.order, other.order)
        if self.min_exp == other.min_exp:
            # both windows hold every exponent below through
            k = through - self.min_exp
            if self.coeffs[:k] == other.coeffs[:k]:
                return None
        lo = min(self.min_exp, other.min_exp, through)
        for e in range(lo, through):
            if self.coeff(e) != other.coeff(e):
                return e
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = QSeries.monomial(0, self.order, other) if other else QSeries.zero(self.order)
        order = min(self.order, other.order)
        lo = min(self.min_exp, other.min_exp, order)
        buf = [0] * (order - lo)
        for x in (self, other):
            if x.min_exp < order:
                t = x.min_exp - lo
                buf[t:] = map(add, buf[t:], x.coeffs[:order - x.min_exp])
        return QSeries(lo, order, buf)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.min_exp, self.order, map(neg, self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return QSeries.zero(self.order)
            return QSeries(self.min_exp, self.order, map(mul, repeat(other), self.coeffs))
        lo = self.min_exp + other.min_exp
        order = min(self.min_exp + other.order, other.min_exp + self.order)
        n = order - lo
        if n <= 0:
            return QSeries.zero(order)
        # n = min(len(a), len(b)), so both sides of each slice map below
        # hold ceil((n - t) / step) terms; a term of +-1 adds or subtracts
        # the slice as it is
        a, b = self.coeffs, other.coeffs
        if len(a) - a.count(0) < len(b) - b.count(0):
            a, b = b, a
        step = 1 if any(a[1::2]) else 2
        buf = [0] * n
        for t in compress(range(n), b):
            c = b[t]
            if c == 1:
                buf[t:n:step] = map(add, buf[t:n:step], a[:n - t:step])
            elif c == -1:
                buf[t:n:step] = map(sub, buf[t:n:step], a[:n - t:step])
            else:
                buf[t:n:step] = map(add, buf[t:n:step], map(mul, repeat(c), a[:n - t:step]))
        return QSeries(lo, order, buf)

    __rmul__ = __mul__

    def invert(self) -> "QSeries":
        """Multiplicative inverse; needs lowest coefficient +-1.

        The result claims the same window length: min_exp flips sign and
        order becomes order - 2*min_exp.
        """
        return QSeries.one(self.order - self.min_exp) / self

    def __pow__(self, n: int) -> "QSeries":
        """By square-and-multiply: x^a * x^b claims (a + b - 1) min_exp +
        order, as the n - 1 products of a loop do, so the two agree."""
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            # exact 1; claim at least something renderable
            return QSeries.one(max(self.order - 2 * self.min_exp, 1))
        acc, sq = None, self
        while True:
            if n & 1:
                acc = sq if acc is None else acc * sq
            n >>= 1
            if not n:
                return acc
            sq = sq * sq

    def __truediv__(self, other: "QSeries") -> "QSeries":
        """Exact quotient; needs the divisor's lowest coefficient +-1.

        Claims the window of self * other.invert(): it starts at
        self.min_exp - other.min_exp and is as long as the shorter of the
        two windows. The quotient's coefficients at exponents of one
        residue class mod g, the gcd of the divisor's exponent gaps,
        depend only on the dividend's in that class, so each class is
        solved on its own and a class where the dividend is zero is skipped.
        """
        if other.is_zero():
            raise ZeroSeries("cannot invert the zero series")
        c0 = other.coeffs[0]
        if c0 not in (1, -1):
            raise NonUnitLeadingCoefficient(f"lowest coefficient {c0} is not a unit")
        lo = self.min_exp - other.min_exp
        n = min(len(self.coeffs), len(other.coeffs))
        if n == 0:
            return QSeries.zero(self.order - other.min_exp)
        # x / d = (c0 x) / (c0 d), whose divisor leads with 1
        terms = [(k, c0 * c) for k, c in enumerate(other.coeffs[1:n], 1) if c]
        g = gcd(*(k for k, _ in terms)) or 1
        terms = [(k // g, c) for k, c in terms]
        buf = [0] * n
        for r in range(g):
            x = self.coeffs[r:n:g]
            if any(x):
                buf[r::g] = _divide_monic(x if c0 == 1 else [-c for c in x], terms)
        return QSeries(lo, lo + n, buf)

    def shifted(self, du: int) -> "QSeries":
        """Multiply by u^du (exact monomial shift)."""
        out = QSeries.__new__(QSeries)
        object.__setattr__(out, "min_exp", self.min_exp + du)
        object.__setattr__(out, "order", self.order + du)
        object.__setattr__(out, "coeffs", self.coeffs)
        return out

    def restricted(self, order: int) -> "QSeries":
        """Lower the claimed order (never raises it)."""
        if order > self.order:
            raise InsufficientOrder(
                f"cannot extend claim from u^{self.order} to u^{order}"
            )
        if order == self.order:
            return self
        if order <= self.min_exp:
            return QSeries.zero(order)
        return QSeries(self.min_exp, order, self.coeffs[: order - self.min_exp])

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.min_exp == other.min_exp
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.min_exp, self.order, self.coeffs))

    def __repr__(self):
        terms = self.items()
        shown = " + ".join(f"{c}*u^{e}" for e, c in terms[:6])
        if len(terms) > 6:
            shown += " + ..."
        return f"QSeries({shown or '0'}; order u^{self.order})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "denom": 2,
            "min_u_exp": self.min_exp,
            "order_u": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QSeries":
        if d.get("denom") != 2:
            raise InvalidParameter("unsupported exponent denominator")
        return cls(int(d["min_u_exp"]), int(d["order_u"]), [int(c) for c in d["coeffs"]])


def format_series(qs: QSeries) -> str:
    """One term per line, 'c · q^{e}', sorted by exponent."""
    lines = [f"{c} · q^{{{half_exp_str(e)}}}" for e, c in qs.items()]
    if not lines:
        lines = ["0"]
    return "\n".join(lines)


def _divide_monic(x, terms) -> list:
    """y with y * d = x below len(x), for d = 1 + sum c u^k over terms
    ((k, c) pairs, k >= 1 ascending, c != 0): y[t] = x[t] - sum c y[t-k].

    Each term joins once t reaches its k; y grows by one per step, so y[-k]
    is y[t-k]. The +-1 terms are plain sums, the others one dot product."""
    y = []
    get = y.__getitem__
    plus, minus, offs, cs = [], [], [], []
    pending = iter(terms)
    k, c = next(pending, (len(x), 0))
    for t, s in enumerate(x):
        while k <= t:
            if c == 1:
                plus.append(-k)
            elif c == -1:
                minus.append(-k)
            else:
                offs.append(-k)
                cs.append(c)
            k, c = next(pending, (len(x), 0))
        if plus:
            s -= sum(map(get, plus))
        if minus:
            s += sum(map(get, minus))
        if offs:
            s -= sum(map(mul, cs, map(get, offs)))
        y.append(s)
    return y


def digit_bytes(bound: int, signed: bool) -> int:
    """The fewest bytes per digit that hold every value in [0, bound], or
    in [-bound, bound] when signed, for bound >= 1: a signed digit spends
    one bit on its sign."""
    return (bound.bit_length() + 7 + signed) // 8


def pack_digits(digits, nbytes: int) -> int:
    """The int whose base-256^nbytes digits are the given ones, lowest
    first; ValueError names the first one outside [0, 256^nbytes)."""
    if digits and (min(digits) < 0 or max(digits) >> 8 * nbytes):
        t, d = next((t, d) for t, d in enumerate(digits)
                    if d < 0 or d >> 8 * nbytes)
        raise ValueError(f"digit {t} is {d}, outside [0, 256^{nbytes})")
    return int.from_bytes(b"".join(d.to_bytes(nbytes, "little") for d in digits),
                          "little")


# The native buffer format of each cell size, 1, 2, 4 and 8 bytes, for
# memoryview.cast; it reads cells in the host's byte order, so only a
# little-endian host uses it.
_CAST = ({memoryview(bytes(8)).cast(c).itemsize: c for c in "BHILQ"}
         if sys.byteorder == "little" else {})
# byte -> the byte that sign-extends a two's complement digit whose top
# byte it is
_SIGN_FILL = bytes(128) + b"\xff" * 128


def unpack_digits(x: int, nbytes: int, count: int, signed: bool = False) -> list:
    """The lowest count digits of x in base 256^nbytes, lowest first, for
    any x congruent to the packed series mod 2^(w count), w = 8 nbytes:
    each in [0, 2^w), or in [-2^(w-1), 2^(w-1)) when signed. A signed read
    adds a bias of 2^(w-1) per digit, which makes every digit nonnegative
    with no carries, and takes it back off each digit's top bit with XOR,
    leaving the digit in two's complement.

    The little-endian bytes of that residue are read one of three ways.
    The first two run at C speed through the buffer protocol, in the
    host's byte order; a digit narrower than its power-of-two cell is first
    spread into it by one byte-slice copy per byte, its top byte filling
    the cell's top bytes through _SIGN_FILL when signed.
      * Digits of up to 8 bytes: one memoryview.cast of the cells.
      * Digits of 9 to 16 bytes, as two 8-byte limbs: the 16-byte cells
        cast once unsigned and read [::2] for the low limbs, cast again,
        signed when the read is, and read [1::2] for the high limbs; each
        digit is high << 64 plus low.
      * One int.from_bytes per digit: digits over 16 bytes, reads too short
        to pay for the spread or the limbs' combine, and every read on a
        big-endian host.
    Measured on 2 vCPUs (min of 15 x 500 calls, signed and not), one cast
    wins from 1 digit of 1, 2, 4 or 8 bytes and past 2 nbytes digits of 3,
    5, 6 or 7; the limbs win past 3 digits per byte-slice copy plus 6 for
    the combine: past 6 digits of 16 bytes, 3 nbytes + 6 unsigned digits
    of 9 to 15 bytes and 57 signed ones, whose 16 - nbytes sign-fill
    copies and translate count too."""
    n = count * nbytes
    mask = (1 << 8 * n) - 1
    if signed:
        bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")
        x = (x + bias & mask) ^ bias
    raw = (x & mask).to_bytes(n, "little")
    cell = 1 << (nbytes - 1).bit_length()
    code = _CAST.get(min(cell, 8))
    if cell <= 8:
        short = cell != nbytes and count <= 2 * nbytes
    else:
        # the spread's byte-slice copies: nbytes, or 16 with the sign fill
        # and its translate as one more
        copies = 0 if cell == nbytes else 17 if signed else nbytes
        short = cell > 16 or count <= 3 * copies + 6
    if code is None or short:
        return [int.from_bytes(raw[t:t + nbytes], "little", signed=signed)
                for t in range(0, n, nbytes)]
    if cell != nbytes:
        spread = bytearray(count * cell)
        for i in range(nbytes):
            spread[i::cell] = raw[i::nbytes]
        if signed:
            fill = raw[nbytes - 1::nbytes].translate(_SIGN_FILL)
            for i in range(nbytes, cell):
                spread[i::cell] = fill
        raw = spread
    cells = memoryview(raw).cast(code.lower() if signed else code)
    if cell <= 8:
        return cells.tolist()
    # in a little-endian 16-byte cell the low limb comes first and carries
    # no sign
    low = memoryview(raw).cast(code)[::2]
    return list(map(add, map(lshift, cells[1::2], repeat(64)), low))


def repack(x: int, nbytes: int, count: int, width: int, step: int = 1) -> int:
    """The lowest count digits of x >= 0 in base 256^nbytes, as digits 0,
    step, 2 step, ... in base 256^width, by byte slicing. Each digit must
    fit in width bytes: the bytes past them are dropped."""
    x &= (1 << 8 * nbytes * count) - 1
    if nbytes == width and step == 1:
        return x
    raw = x.to_bytes(count * nbytes, "little")
    out = bytearray(((count - 1) * step + 1) * width)
    for i in range(min(nbytes, width)):
        out[i::step * width] = raw[i::nbytes]
    return int.from_bytes(out, "little")


def packed_geometric(x: int, j: int, n: int, w: int) -> int:
    """x / (1 - q^j) below q^n, for x packed in w-bit digits: the product
    of the 1 + q^(j 2^i) with j 2^i < n, one shift-add per factor."""
    mask = (1 << w * n) - 1
    x &= mask
    while j < n:
        x = (x + (x << w * j)) & mask
        j <<= 1
    return x


# -- classical building blocks ----------------------------------------------


def _factor_product(j: int, n_factors: int, order: int, op) -> QSeries:
    """prod_{i=1..n_factors} (1 op q^{ji}) truncated below u^order, for op
    operator.add or operator.sub."""
    if order <= 0:
        return QSeries.zero(order)
    c = [0] * order
    c[0] = 1
    for i in range(1, n_factors + 1):
        g = 2 * j * i
        if g >= order:
            break
        # every shift is even, so the odd cells stay zero; the slice
        # assignment reads every old cell before writing any
        c[g::2] = map(op, c[g::2], c[::2])
    return QSeries(0, order, c)


@lru_cache(maxsize=64)
def euler_phi(j: int, order: int) -> QSeries:
    """prod_{i>=1} (1 - q^{ji}) truncated below u^order, by Euler's
    pentagonal theorem: the sum over k in Z of (-1)^k q^(j k(3k-1)/2)."""
    need("j", j, 1)
    if order <= 0:
        return QSeries.zero(order)
    c = [0] * order
    c[0] = 1
    k = 1
    while j * k * (3 * k - 1) < order:
        sign = -1 if k % 2 else 1
        c[j * k * (3 * k - 1)] = sign
        if j * k * (3 * k + 1) < order:
            c[j * k * (3 * k + 1)] = sign
        k += 1
    return QSeries(0, order, c)


@lru_cache(maxsize=64)
def dist_product(j: int, order: int) -> QSeries:
    """prod_{i>=1} (1 + q^{ji}) truncated below u^order."""
    need("j", j, 1)
    return _factor_product(j, order, order, add)


def pochhammer(j: int, n_factors: int, order: int) -> QSeries:
    """Finite product prod_{i=1..n} (1 - q^{ji}) truncated below u^order."""
    need("j", j, 1)
    need("n_factors", n_factors, 0)
    return _factor_product(j, n_factors, order, sub)


@lru_cache(maxsize=64)
def gauss_sum(order: int) -> QSeries:
    """sum_{p>=0} q^{p(p+1)/2}: coefficient 1 at the triangular exponents."""
    terms = {}
    p = 0
    while p * (p + 1) < order:
        terms[p * (p + 1)] = 1
        p += 1
    return QSeries.from_terms(terms, order)


@lru_cache(maxsize=64)
def inv_euler_phi(j: int, order: int) -> QSeries:
    return euler_phi(j, order).invert()
