"""Differential test of the quasiparticle sum against a direct reference.

The reference below builds every charge bucket and every boson-pair base
as a list of coefficients, divides by 1 - x^j with one in-place pass over
the list, and convolves each bucket with its boson-pair sum as a QSeries
product. The package packs each series into one int of fixed-width digits,
writes every boson-pair base as a partial theta over one shared
1/(q^m;q^m)_inf^2 and multiplies packed ints; both must agree on every
coefficient and on the claimed window. ref_digit_bytes sizes each m's
digits the slow way, from F = (-q;q)_inf / (q^m;q^m)_inf on plain lists;
the package sizes every m's from m = 2's.
"""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchar import characters
from qchar.errors import InvalidParameter
from qchar.qseries import (QSeries, dist_product, euler_phi, packed_geometric,
                           round_up, unpack_digits)


def _geometric_inplace(arr: list, stride: int) -> None:
    # multiply by 1/(1 - x^stride) on a compact array
    for i in range(stride, len(arr)):
        arr[i] += arr[i - stride]


def _shift_inplace(arr: list, k: int) -> None:
    if k <= 0:
        return
    n = len(arr)
    arr[k:] = arr[: n - k]
    arr[:k] = [0] * min(k, n)


@lru_cache(maxsize=64)
def _charge_buckets(nu: int):
    """Fermionic-pair generating series split by net charge, below u-order nu.

    Returns a tuple of (charge, QSeries) pairs. Pairs (a, b) enter while
    a(a+1) + b(b-1) < nu; anything omitted starts at or above nu.
    """
    L = (nu + 1) // 2  # compact slot i holds the u^(2i) coefficient
    buckets: dict = {}
    X = [0] * L
    if L > 0:
        X[0] = 1
    a = 0
    while a * (a + 1) < nu:
        if a > 0:
            # u^(a(a+1)) / (q)_a from its predecessor: shift 2a, divide by 1 - q^a
            _shift_inplace(X, a)
            _geometric_inplace(X, a)
        R = X[:]
        b = 0
        while a * (a + 1) + b * (b - 1) < nu:
            if b > 0:
                _shift_inplace(R, b - 1)
                _geometric_inplace(R, b)
            tgt = buckets.setdefault(a - b, [0] * L)
            for i in range(L):
                tgt[i] += R[i]
            b += 1
        a += 1
    out = []
    for g in sorted(buckets):
        out.append((g, QSeries.from_terms({2 * i: v for i, v in enumerate(buckets[g]) if v}, nu)))
    return tuple(out)


@lru_cache(maxsize=256)
def _boson_pair_base(m: int, k: int, nu: int) -> QSeries:
    # sum over t >= 0 of u^(2mt) / ((q^m)_t (q^m)_{t+k}), k >= 0
    span = 2 * m
    L = (nu + span - 1) // span if nu > 0 else 0
    if L <= 0:
        return QSeries.zero(nu)
    R = [0] * L
    R[0] = 1
    for j in range(1, k + 1):
        _geometric_inplace(R, j)
    total = R[:]
    for t in range(1, L):
        _shift_inplace(R, 1)
        _geometric_inplace(R, t)
        _geometric_inplace(R, t + k)
        for i in range(t, L):
            total[i] += R[i]
    return QSeries.from_terms({span * i: v for i, v in enumerate(total) if v}, nu)


def _boson_pair_sum(m: int, e: int, nu: int) -> QSeries:
    # sum over c, d >= 0 with c - d = e of u^(2mc) / ((q^m)_c (q^m)_d)
    if e <= 0:
        return _boson_pair_base(m, -e, nu)
    return _boson_pair_base(m, e, nu - 2 * m * e).shifted(2 * m * e)


def quasiparticle_char(m: int, s: int, order: int) -> QSeries:
    """Sector character as a sum over quadruples of quasiparticle counts.

    Net charge a - b + c - d is pinned to s and the whole sum carries a
    u^(-sm) prefactor. Cutoffs keep every omitted quadruple at or above
    the internal order, which is the claimed order shifted by sm.
    """
    if m < 2:
        raise InvalidParameter(f"need m >= 2, got {m}")
    nu = order + s * m
    if nu <= 0:
        return QSeries.zero(order)
    total = QSeries.zero(nu)
    for g, bucket in _charge_buckets(nu):
        pair = _boson_pair_sum(m, s - g, nu)
        if pair.is_zero():
            continue
        prod = bucket * pair
        total = total + (prod.restricted(nu) if prod.order > nu else prod)
    out = total.shifted(-s * m)
    return out.restricted(order) if out.order > order else out


def ref_digit_bytes(m: int, nu: int) -> int:
    """Bytes of 2 sum_j F_j F_(L-1-j), the q^(L-1) coefficient of
    2 F^2 with F = (-q;q)_inf / (q^m;q^m)_inf, L = (nu + 1) // 2: the
    largest coefficient below q^L of the series that bounds every digit
    of quasiparticle_char(m, s, nu - s m)."""
    L = (nu + 1) // 2
    f = [1] + [0] * (L - 1)
    for j in range(1, L):
        # times 1 + q^j, from the top down so each part enters once
        for i in range(L - 1, j - 1, -1):
            f[i] += f[i - j]
    for j in range(m, L, m):
        _geometric_inplace(f, j)
    top = 2 * sum(f[j] * f[L - 1 - j] for j in range(L))
    return (top.bit_length() + 7) // 8


# -- tests ---------------------------------------------------------------------


def _fields(series):
    return series.min_exp, series.order, series.coeffs


@settings(max_examples=200, deadline=None)
@given(m=st.integers(2, 6), s=st.integers(-8, 9), order=st.integers(-3, 60))
# large |s| at small order: only the buckets of charge s - k exist, or only
# those of charge s + k
@example(m=8, s=14, order=98)
@example(m=2, s=9, order=71)
@example(m=5, s=6, order=11)
@example(m=8, s=-8, order=70)
@example(m=6, s=-8, order=60)
@example(m=7, s=-6, order=50)
def test_quasiparticle_matches_reference(m, s, order):
    assert (_fields(characters.quasiparticle_char(m, s, order))
            == _fields(quasiparticle_char(m, s, order)))


@pytest.fixture
def fresh_builds():
    """Empty the quasiparticle builds before and after a test that patches
    their digit width, so no build in another width is read."""
    def clear():
        characters._charge_buckets.cache_clear()
        characters._boson_pair_base.cache_clear()
        characters._BUILDS.clear()

    clear()
    yield
    clear()


@pytest.mark.usefixtures("fresh_builds")
@pytest.mark.parametrize("m,s,order", [(2, 0, 1200), (2, -5, 1200), (2, 1, 1918)])
def test_quasiparticle_matches_reference_wide_digits(m, s, order, monkeypatch):
    # coefficients of 114 to 150 bits: the digit width is tight to the byte
    # at the u-order each sum is built at
    expect = _fields(quasiparticle_char(m, s, order))
    assert _fields(characters.quasiparticle_char(m, s, order)) == expect
    real = characters._digit_bytes
    characters._charge_buckets.cache_clear()
    characters._boson_pair_base.cache_clear()
    monkeypatch.setattr(characters, "_digit_bytes", lambda nu: real(nu) - 1)
    assert _fields(characters.quasiparticle_char(m, s, order)) != expect


@pytest.mark.usefixtures("fresh_builds")
@pytest.mark.parametrize("m,s,order", [(2, 0, 1200), (2, -5, 1200), (2, 1, 1918)])
def test_quasiparticle_is_the_same_one_byte_wider(m, s, order, monkeypatch):
    # the width only has to hold the digits: a wider one changes no value
    expect = _fields(characters.quasiparticle_char(m, s, order))
    real = characters._digit_bytes
    characters._charge_buckets.cache_clear()
    characters._boson_pair_base.cache_clear()
    monkeypatch.setattr(characters, "_digit_bytes", lambda nu: real(nu) + 1)
    assert _fields(characters.quasiparticle_char(m, s, order)) == expect


@settings(max_examples=100, deadline=None)
@given(m=st.integers(2, 8), nu=st.integers(1, 600))
def test_digit_bytes_matches_reference(m, nu):
    # m = 2's width is every m's: each m's own is at most it
    assert ref_digit_bytes(m, nu) <= characters._digit_bytes(nu)
    if m == 2:
        assert characters._digit_bytes(nu) == ref_digit_bytes(m, nu)


@pytest.mark.parametrize("nu", [511, 512, 513, 1023, 1024, 1025, 2047, 2048, 2049])
@pytest.mark.parametrize("m", [2, 3, 7])
def test_digit_bytes_matches_reference_at_build_order_edges(m, nu):
    # just past a power of two the width is read from a quotient built an
    # eighth longer
    assert ref_digit_bytes(m, nu) <= characters._digit_bytes(nu)
    if m == 2:
        assert characters._digit_bytes(nu) == ref_digit_bytes(m, nu)


@pytest.mark.parametrize("m", range(3, 9))
def test_pair_series_of_m_is_at_most_that_of_2(m):
    # the lemma the shared width rests on: G_m = B / (q^m;q^m)_inf^2, B =
    # 2 (-q;q)_inf^2, is at most G_2 coefficient by coefficient, since B
    # never decreases; here below q^600
    order = 1200
    B = (2 * dist_product(1, order) ** 2).coeffs[::2]
    assert all(x <= y for x, y in zip(B, B[1:]))
    G_2 = characters.sector_pair_product(2, order).coeffs[::2]
    G_m = characters.sector_pair_product(m, order).coeffs[::2]
    assert len(G_m) == len(G_2) == 600
    assert all(x <= y for x, y in zip(G_m, G_2))
    assert G_m != G_2


@pytest.mark.parametrize("s", range(-5, 7))
@pytest.mark.parametrize("m", range(2, 7))
def test_quasiparticle_matches_reference_at_order_401(m, s):
    assert (_fields(characters.quasiparticle_char(m, s, 401))
            == _fields(quasiparticle_char(m, s, 401)))


@settings(max_examples=100, deadline=None)
@given(m=st.integers(2, 6), k=st.integers(0, 12), nu=st.integers(1, 200))
def test_boson_pair_base_is_partial_theta_over_phi_squared(m, k, nu):
    # sum_t Q^t / ((Q)_t (Q)_(t+k)) * (Q;Q)_inf^2 is the sparse
    # sum_j (-1)^j Q^(j(j+1)/2 + jk), Q = q^m = u^(2m)
    phi = euler_phi(m, nu)
    theta = {}
    j = 0
    while (e := 2 * m * (j * (j + 1) // 2 + j * k)) < nu:
        theta[e] = (-1) ** j
        j += 1
    assert _boson_pair_base(m, k, nu) * phi * phi == QSeries.from_terms(theta, nu)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(2, 6), nu=st.integers(1, 400))
def test_packed_boson_pair_base_is_inverse_phi_squared(m, nu):
    L = (nu + 1) // 2  # compact slot i holds the q^i coefficient
    expect = [1] + [0] * (L - 1)
    for j in range(m, L, m):
        _geometric_inplace(expect, j)
        _geometric_inplace(expect, j)
    nb = characters._digit_bytes(nu)
    assert unpack_digits(characters._boson_pair_base(m, nu), nb, L) == expect


# -- the shared builds -----------------------------------------------------------


def ref_charge_buckets(nu: int, nb: int):
    """The buckets as each call built them before they were shared: (charge,
    packed series) pairs below u-order nu, in nb-byte q-digits."""
    L = (nu + 1) // 2
    w = 8 * nb
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


def ref_boson_pair_base(m: int, nu: int, nb: int) -> int:
    """1/(q^m;q^m)_inf^2 below u^nu as each call built it before it was
    shared, packed in nb-byte q-digits, spread one digit at a time."""
    w = 8 * nb
    n = (nu + 2 * m - 1) // (2 * m)  # compact digit t holds u^(2mt)
    R = 1
    for j in range(1, n):
        R = packed_geometric(packed_geometric(R, j, n, w), j, n, w)
    raw = R.to_bytes(n * nb, "little")
    out = bytearray((nu + 1) // 2 * nb)
    for i in range(nb):
        out[i::m * nb] = raw[i::nb]
    return int.from_bytes(out, "little")


def check_requests(requests):
    """From an empty store, run quasiparticle_char for each (m, s, order)
    request and check it against the reference, and the buckets and the
    base it reads, the shared builds masked to its q-digits, against the
    per-call builds in the shared width; the one key keeps the longest
    internal u-order rounded up to four significant bits."""
    characters._BUILDS.clear()
    longest = 0
    for m, s, order in requests:
        assert (_fields(characters.quasiparticle_char(m, s, order))
                == _fields(quasiparticle_char(m, s, order)))
        nu = order + s * m
        if nu <= 0:
            continue
        if longest < nu:
            longest = round_up(nu)
        assert characters._BUILDS["quasiparticle"] == longest
        nb = characters._digit_bytes(longest)
        mask = (1 << 8 * nb * ((nu + 1) // 2)) - 1
        assert {g: x & mask for g, x in characters._charge_buckets(longest)
                if g * (g + 1) < nu} == dict(ref_charge_buckets(nu, nb))
        assert (characters._boson_pair_base(m, longest) & mask
                == ref_boson_pair_base(m, nu, nb))
    assert len(characters._BUILDS) <= 64


requests = st.lists(st.tuples(st.integers(2, 6), st.integers(-4, 5),
                              st.integers(-3, 150)),
                    min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(requests)
def test_shared_builds_match_per_call_builds(reqs):
    check_requests(reqs)


@pytest.mark.parametrize("reqs", [
    [(2, 0, 300), (2, 1, 40)],  # long then short
    [(2, 1, 40), (2, 0, 300)],  # short then long
    [(2, 0, 100), (5, 3, 80), (3, -2, 150), (2, 4, 20),
     (5, -1, 120)],  # interleaved m
    [(6, 0, 300), (2, 0, 299)],  # a new m on a build made for another
    [(2, 0, 300), (6, 0, 299)],
    [(3, 1, 200), (3, 0, 100), (4, 2, 300), (3, 2, 60)],  # rebuilt for m = 4
])
def test_shared_builds_in_any_request_order(reqs):
    check_requests(reqs)


@pytest.mark.parametrize("reqs", [
    [(2, 0, 300), (2, 1, 40)],
    [(6, 0, 300), (2, 0, 299)],
    [(2, 0, 300), (6, 0, 299)],
])
def test_quasiparticle_from_shared_builds_matches_reference(reqs):
    characters._BUILDS.clear()
    for m, s, order in reqs:
        assert (_fields(characters.quasiparticle_char(m, s, order))
                == _fields(quasiparticle_char(m, s, order)))


@pytest.mark.parametrize("m,s,order", [(2, 1, 175), (3, -1, 180), (4, 0, 177)])
def test_quasiparticle_read_from_a_longer_wider_build(m, s, order):
    # the call's u-order nu rounds up to a build whose digits need one byte
    # more than nu's own; the call and shorter ones read it exactly
    characters._BUILDS.clear()
    nu = order + s * m
    assert characters._digit_bytes(round_up(nu)) > characters._digit_bytes(nu)
    for k, o in ((s, order), (s, order - 40), (s + 1, order - 2 * m)):
        assert (_fields(characters.quasiparticle_char(m, k, o))
                == _fields(quasiparticle_char(m, k, o)))
    assert characters._BUILDS["quasiparticle"] == round_up(nu)


def test_shared_builds_keep_at_most_64_keys():
    # a pair quotient per m, and the one quasiparticle key; past 64 keys
    # the least recently used goes, and a later read of it builds it anew
    characters._BUILDS.clear()
    for m in [*range(2, 80), 2]:
        lhs, rhs = characters.vacuum_identity_sides(m, 3)
        assert lhs == rhs
        assert len(characters._BUILDS) <= 64
    assert list(characters._BUILDS)[-3:] == [("pair", 79), "quasiparticle",
                                             ("pair", 2)]
    assert ("pair", 3) not in characters._BUILDS


def test_shared_builds_keep_the_quasiparticle_key_while_it_is_used():
    # the quasiparticle key is the oldest, but a read between new m's
    # makes it the most recently used, so it outlives the 64-key bound
    characters._BUILDS.clear()
    characters.quasiparticle_char(3, 0, 3)
    for m in range(2, 80):
        characters.sector_pair_product(m + 1, 3)
        assert characters.quasiparticle_char(3, 0, 3) == \
            quasiparticle_char(3, 0, 3)
        assert "quasiparticle" in characters._BUILDS
        assert len(characters._BUILDS) <= 64
    assert list(characters._BUILDS)[-3:] == [("pair", 80), "quasiparticle",
                                             ("pair", 2)]
    assert ("pair", 3) not in characters._BUILDS
