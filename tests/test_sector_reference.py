"""Differential tests of the sector characters and the pair quotient against
the plain quotient chain.

The reference divides the lattice sum by phi(q) and twice by phi(q^m) with
`/` at exactly the order asked for. The package builds the sector characters
row by row from one cached 1/(phi(q) phi(q^m)^2), and the pair quotient, each
once per m at the longest order asked for so far rounded up to four
significant bits, restricted to the caller's window; both must agree with
the reference on the window and every coefficient, at every order, whatever
the caches already hold.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchar import characters
from qchar.characters import (
    _pair_quotient,
    fock_sector_char,
    sector_pair_product,
    sector_sum,
    sector_window,
)
from qchar.qseries import QSeries, euler_phi

# u-orders just below, at and just above powers of two, where a build
# rounded up to four significant bits is longest relative to the request
EDGES = (511, 512, 513, 1025, 2049)


def ref_fock_sector_char(m, s, order):
    h = sector_sum(m, s, order)
    if h.is_zero():
        return QSeries.zero(order)
    n = order + max(0, -h.min_exp)
    return h / euler_phi(1, n) / euler_phi(m, n) / euler_phi(m, n)


def ref_pair_quotient(m, order):
    phi_2 = euler_phi(2, order)
    phi_1 = euler_phi(1, order)
    phi_m = euler_phi(m, order)
    return phi_2 * phi_2 / phi_1 / phi_1 / phi_m / phi_m


def parts(qs):
    return qs.min_exp, qs.order, qs.coeffs


def clear_caches():
    characters._inverse_denominator.cache_clear()
    characters._built_pair_quotient.cache_clear()
    characters._BUILDS.clear()
    characters._SECTORS.clear()


@given(st.integers(2, 6), st.integers(-8, 9), st.integers(-3, 60))
@settings(max_examples=300, deadline=None)
def test_fock_sector_char_matches_quotient_chain(m, s, order):
    assert parts(fock_sector_char(m, s, order)) == parts(ref_fock_sector_char(m, s, order))


@pytest.mark.parametrize("order", EDGES)
@pytest.mark.parametrize("m, s", [(2, 0), (2, 3), (3, -2), (4, 1), (5, 4), (6, -7)])
def test_fock_sector_char_matches_quotient_chain_at_power_of_two_edges(m, s, order):
    # (2, 3), (4, 1) and (5, 4) start at a negative u-exponent, so their
    # window is longer than order and may cross a rounding step
    assert parts(fock_sector_char(m, s, order)) == parts(ref_fock_sector_char(m, s, order))


@pytest.mark.parametrize("orders", [(2049, 40), (40, 2049), (513, 512), (512, 513)])
def test_fock_sector_char_whatever_the_cache_holds(orders):
    # a long build then a short one, and the reverse, from cold caches
    clear_caches()
    for order in orders:
        for m, s in ((2, 1), (3, 0), (3, -4), (4, 3)):
            assert parts(fock_sector_char(m, s, order)) == \
                parts(ref_fock_sector_char(m, s, order)), (m, s, order)


@pytest.mark.parametrize("m", [2, 3, 6])
def test_pair_quotient_matches_direct_quotient(m):
    clear_caches()
    for order in (1, *EDGES, 2, 40):
        ref = ref_pair_quotient(m, order)
        assert parts(_pair_quotient(m, order)) == parts(ref), order
        assert parts(sector_pair_product(m, order)) == parts(2 * ref), order


@given(st.integers(2, 30), st.data(), st.integers(1, 400))
@settings(max_examples=200, deadline=None)
def test_every_sector_lies_above_minus_pad(m, data, order):
    # pad(m) = ((m - 1) // 2) (m // 2), reached at s = (m - 1) // 2
    pad = ((m - 1) // 2) * (m // 2)
    assert sector_window(m, order) == (-pad, order)
    s = data.draw(st.integers(-3 * m - 5, 4 * m + 5))
    h = sector_sum(m, s, order)
    assert h.is_zero() or h.min_exp >= -pad
    assert fock_sector_char(m, s, order).min_exp >= -pad
    assert sector_sum(m, (m - 1) // 2, order).min_exp == -pad
