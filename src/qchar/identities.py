"""The identity families that `qchar verify` checks.

Each family is one FAMILIES entry, registered by the @family decorator on
its sides function:

  * axes: the grid axes it takes, each with a default inclusive range;
  * zwin: its default z-window half-width, None unless the family compares
    charge-graded series;
  * window(nu, half, **point): (lo, order) of the widest window its sides
    build, u^0..u^nu unless given, as sector_window's for sector
    characters; check_domain() refuses a point whose window exceeds
    MAX_WINDOW, or for which window() raises itself, before any series is
    built: every family with an m axis declares a window that raises m < 2
    as its builders do, prop12 and recurrence one that raises k < 0, and
    the quasiparticle sum's bound, the graded products' graded_window
    (their z-rows included), for lemma11a, lemma11b, prop12 and
    recurrence each sector side's sector_char_window, and prop12's
    pair_quotient_window raise there too;
    `verify` runs the longest point first;
  * sides(nu, half, **point): a generator of (extra_params, lhs, rhs), one
    triple per report at the grid point, all claimed at u-order nu.

check() turns one grid point into reports.  Adding a family means adding
one decorated sides function here; the CLI's --family choices, its grid
expansion and `--family all` read FAMILIES.
"""

import time
from typing import Callable, NamedTuple, Optional

from .bivariate import (
    INVERSE_PAIR,
    TRIPLE,
    ChargeSeries,
    compare_charge_series,
    fock_char_product,
    fock_char_window,
    graded_window,
    inverse_product_sides,
    jacobi_triple_sides,
)
from .characters import (
    _dist_square,
    _pair_quotient,
    basic_char,
    closed_form_window,
    compare_series,
    family_char,
    fock_sector_char,
    mark_short,
    pair_quotient_window,
    quasiparticle_char,
    quasiparticle_window,
    recurrence_step,
    sector_closed_form,
    sector_char_window,
    sector_pair_product,
    sector_window,
    vacuum_identity_sides,
)
from .errors import QcharError
from .qseries import check_window, euler_phi, gauss_sum


class Family(NamedTuple):
    axes: dict             # axis name -> default inclusive (lo, hi)
    sides: Callable
    zwin: Optional[int]    # default z half-width; None unless graded
    window: Callable       # (nu, half, **point) -> (lo, order) built


FAMILIES = {}


def family(name: str, zwin: Optional[int] = None,
           window: Callable = lambda nu, half, **point: (0, nu), **axes):
    """Register the decorated sides function as family `name`.  Axes are
    given in grid-nesting order, outermost first; `window` gives the
    (lo, order) its sides build at (nu, half, **point) if that can be wider
    than u^0..u^nu, and raises what the builders raise for a point below
    their floors."""

    def register(sides):
        FAMILIES[name] = Family(axes, sides, zwin, window)
        return sides
    return register


def _where(name: str, point: dict) -> str:
    return " ".join([name] + [f"{axis}={v}" for axis, v in point.items()])


def check_domain(name: str, nu: int, half: Optional[int], point: dict) -> int:
    """The length of the widest window the point's sides build at u-order
    nu and z half-width half: order - lo of its family's window().

    Raise, naming the point as check() does, what window() raises, as
    InvalidParameter for an axis below family `name`'s floor, and
    ResourceLimit if its window is longer than MAX_WINDOW."""
    fam = FAMILIES[name]
    try:
        lo, order = fam.window(nu, half, **point)
        check_window(lo, order)
    except QcharError as err:
        raise type(err)(f"{_where(name, point)}: {err}") from err
    return order - lo


def check(name: str, nu: int, half: Optional[int], point: dict,
          timings: bool = False) -> list:
    """Reports of family `name` at one grid point.  A report whose sides
    agree only below u^nu gets the verdict "short", which does not pass.
    With timings, each report's ms covers its own sides and comparison."""
    fam = FAMILIES[name]
    compare = compare_series if fam.zwin is None else compare_charge_series
    reports = []
    t0 = time.perf_counter()
    try:
        for extra, lhs, rhs in fam.sides(nu, half, **point):
            report = mark_short(compare(name, {**point, **extra}, lhs, rhs), nu)
            if timings:
                t1 = time.perf_counter()
                report = report._replace(ms=(t1 - t0) * 1000.0)
                t0 = t1
            reports.append(report)
    except QcharError as err:
        # the same class, so the exit code stays; the message names the point
        raise type(err)(f"{_where(name, point)}: {err}") from err
    return reports


# -- the families, in `--family all` order -----------------------------------


def _sector_sides(window, m, *sides):
    # each (charge, u-order) a side builds a sector character at is
    # checked as that side makes it; none asks the store for more than
    # window, sector_window(m, nu), which the point declares
    for s, order in sides:
        sector_char_window(m, s, order)
    return window


@family("lemma11a",
        window=lambda nu, half, m, s: _sector_sides(
            sector_window(m, nu), m, (s, nu - s * m), (-s, nu + s * m)),
        m=(2, 6), s=(0, 6))
def _mirror_pair(nu, half, m, s):
    # u^{sm} fs(m,s) + u^{-sm} fs(m,-s), both terms claiming order nu
    a = fock_sector_char(m, s, nu - s * m).shifted(s * m)
    b = fock_sector_char(m, -s, nu + s * m).shifted(-s * m)
    yield {}, a + b, sector_pair_product(m, nu)


@family("lemma11b",
        window=lambda nu, half, m, s: _sector_sides(
            sector_window(m, nu), m, (s, nu), (m - 1 - s, nu)),
        m=(2, 6), s=(0, 6))
def _reflection(nu, half, m, s):
    yield {}, fock_sector_char(m, s, nu), fock_sector_char(m, m - 1 - s, nu)


def _prop12_window(nu, half, m, k):
    # the sector sides are refused first, then the closed form's pair
    # quotient, built at nu even where both sector sides are zero (large k)
    window = _sector_sides(closed_form_window(m, k, nu), m,
                           ((k + 1) * (m - 1), nu), (-k * (m - 1), nu))
    pair_quotient_window(m, nu)
    return window


@family("prop12", window=_prop12_window, m=(2, 4), k=(0, 4))
def _closed_form(nu, half, m, k):
    closed = sector_closed_form(m, k, nu)
    for side, charge in (("plus", (k + 1) * (m - 1)), ("minus", -k * (m - 1))):
        yield {"side": side}, closed, fock_sector_char(m, charge, nu)


def _recurrence_budget(m, k):
    # each step from charge s spends 2sm of guaranteed order; the k steps
    # from s = (m-1), ..., k(m-1) spend this much together
    return m * (m - 1) * k * (k + 1)


def _recurrence_window(nu, half, m, k):
    # the charge-0 sector side is built with the summed budget, the
    # longest of the point's builds
    order = nu + _recurrence_budget(m, k)
    return _sector_sides(closed_form_window(m, k, order), m, (0, order))


@family("recurrence", window=_recurrence_window, m=(2, 4), k=(0, 4))
def _iterated_recurrence(nu, half, m, k):
    # k steps from the charge-0 sector land on the charge -k(m-1) closed
    # form; the mirror symmetry makes step j's input the charge-j(m-1)
    # series, so start with the summed budget.
    budget = _recurrence_budget(m, k)
    f = fock_sector_char(m, 0, nu + budget)
    for j in range(1, k + 1):
        s = j * (m - 1)
        f = recurrence_step(m, s, f, f.order - 2 * s * m)
    yield {}, f, sector_closed_form(m, k, nu)


@family("thm13a", window=lambda nu, half, m: sector_window(m, nu), m=(2, 6))
def _basic_forms(nu, half, m):
    # the shared character is built, and timed, with the first form
    ch = basic_char(m, nu)
    phi_m = euler_phi(m, nu)
    # (dist product)^2 by the pentagonal route, apart from basic_char's own
    yield {"form": "product"}, ch, _pair_quotient(m, nu) * phi_m
    yield {"form": "vacuum-sector"}, ch, fock_sector_char(m, 0, nu) * phi_m
    yield {"form": "mirror-sector"}, ch, fock_sector_char(m, m - 1, nu) * phi_m


@family("thm13b",
        window=lambda nu, half, m, k: sector_window(m, nu + abs(k) * m * (m - 1)),
        m=(2, 4), k=(-3, 3))
def _family_vs_sector(nu, half, m, k):
    # the family character depends on |k| only, and so does this side;
    # it goes first, as its bound refuses before any sector build
    family = family_char(m, k, nu)
    sh = abs(k) * m * (m - 1)
    side = fock_sector_char(m, -abs(k) * (m - 1), nu + sh) * euler_phi(m, nu + sh)
    yield {}, family, side.shifted(-sh)


@family("prop21", window=lambda nu, half, m, s: min(quasiparticle_window(m, s, nu),
                                                    sector_window(m, nu)),
        m=(2, 4), s=(-3, 4))
def _quasiparticle(nu, half, m, s):
    yield {}, quasiparticle_char(m, s, nu), fock_sector_char(m, s, nu)


@family("fockprod", zwin=4, m=(2, 3),
        window=lambda nu, half, m: fock_char_window(m, nu, (-half, half)))
def _graded_rows(nu, half, m):
    prod = fock_char_product(m, nu, (-half, half))
    # the rows nearest charge (m - 1) / 2 start lowest: built first, the
    # first one's shared denominator serves the rest
    near = sorted(range(-half, half + 1), key=lambda s: abs(2 * s - m + 1))
    rows = {s: fock_sector_char(m, s, nu) for s in near}
    yield {}, prod, ChargeSeries(-half, [rows[s] for s in sorted(rows)])


@family("cor22", window=lambda nu, half, m: quasiparticle_window(m, 0, nu),
        m=(2, 6))
def _vacuum(nu, half, m):
    yield ({}, *vacuum_identity_sides(m, nu))


@family("jtp", zwin=10,
        window=lambda nu, half: graded_window(TRIPLE, nu, (-half, half)))
def _triple_product(nu, half):
    yield ({}, *jacobi_triple_sides(nu, (-half, half)))


@family("kp", zwin=8,
        window=lambda nu, half: graded_window(INVERSE_PAIR, nu, (-half, half)))
def _inverse_product(nu, half):
    yield ({}, *inverse_product_sides(nu, (-half, half)))


@family("gauss")
def _triangular(nu, half):
    square = _dist_square(nu)  # first, as its bound refuses before any build
    yield {}, gauss_sum(nu), euler_phi(1, nu) * square
