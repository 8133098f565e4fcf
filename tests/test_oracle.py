from collections import Counter

import pytest

from qchar import oracle
from qchar.characters import fock_sector_char, quasiparticle_char
from qchar.errors import InvalidParameter, ResourceLimit, check_work
from qchar.oracle import (
    enumerate_charge_series,
    oracle_vs_quasiparticle,
    reachable_charges,
)


def test_vacuum_sector_counts():
    e = enumerate_charge_series(2, 0, 10)
    assert [e.q_coeff(n) for n in range(5)] == [1, 2, 5, 10, 20]
    assert e.q_coeff(0) == 1


def test_charge_one_ground_state():
    e = enumerate_charge_series(2, 1, 8)
    assert e.min_exp == 0
    assert e.coeff(0) == 1


def test_counts_nonnegative():
    for m, s in [(2, 0), (3, -2), (4, 1)]:
        e = enumerate_charge_series(m, s, 20)
        assert all(v >= 0 for _, v in e.items())


def test_threeway_agreement():
    for m, s, bound in [(2, 0, 40), (3, 1, 30), (2, -2, 30)]:
        rep = oracle_vs_quasiparticle(m, s, bound)
        assert rep.passed(), (m, s, rep.first_diff_u_exp)


def test_counts_match_both_character_paths():
    for m, s in [(2, 2), (3, 0), (4, -1)]:
        counted = enumerate_charge_series(m, s, 24)
        assert counted.first_diff(fock_sector_char(m, s, 24)) is None
        assert counted.first_diff(quasiparticle_char(m, s, 24)) is None


def test_negative_exponents_present():
    # the lowest psi mode of color 1 sits below zero once m > 2
    e = enumerate_charge_series(3, 1, 12)
    assert e.min_exp < 0


def ref_state_counts(m, bound):
    """Counter of (charge, u-degree) over every Fock state of u-degree
    below `bound`, listed one by one: each fermion mode used at most once,
    each boson mode any number of times."""
    top = bound + m * m  # no state of degree < bound reaches a mode above
    modes = []  # (u_exp, charge step, boson?)
    for j in range(1, top):
        for i in range(1, m + 1):
            modes.append((2 * i + 2 * m * j - 3 * m, 1, False))  # psi_i
            modes.append((-2 * i + 2 * m * j + m, -1, False))    # psi*_i
        modes.append((2 * m * j - m, 1, True))                   # phi
        modes.append((2 * m * j - m, -1, True))                  # phi*
    modes = sorted(mode for mode in modes if mode[0] < top)
    counts = Counter()

    def walk(k, charge, deg):
        if k == len(modes):
            counts[charge, deg] += 1
            return
        w, dc, boson = modes[k]
        walk(k + 1, charge, deg)
        # negative exponents come first; past them the degree only grows
        r = 1
        while (r == 1 or boson) and (w < 0 or deg + r * w < bound):
            walk(k + 1, charge + r * dc, deg + r * w)
            r += 1

    walk(0, 0, 0)
    return counts


def test_dp_matches_state_by_state_count():
    # m >= 3 puts psi modes at or below u^0
    for m, bound in [(2, 8), (2, 12), (3, 6), (4, 8)]:
        counts = ref_state_counts(m, bound)
        charges = reachable_charges(m, bound)
        assert charges == tuple(sorted({c for c, _ in counts})), (m, bound)
        for s in charges:
            series = enumerate_charge_series(m, s, bound)
            assert dict(series.items()) == {
                d: v for (c, d), v in counts.items() if c == s}, (m, bound, s)


def test_reachable_charges():
    charges = reachable_charges(2, 8)
    assert 0 in charges
    assert charges == tuple(sorted(charges))
    assert min(charges) < 0 < max(charges)


def test_resource_limit_dp():
    with pytest.raises(ResourceLimit):
        enumerate_charge_series(3, 0, 40, max_nodes=10)


def test_rejects_small_m():
    with pytest.raises(InvalidParameter):
        enumerate_charge_series(1, 0, 10)


def ref_mode_list(m, max_u):
    """Every fermion and boson mode below max_u plus the negative budget,
    as two sorted lists of (u_exp, charge_step), and that budget."""
    budget = oracle._negative_budget(m)
    top = max_u + budget
    fermions = sorted(
        (w, dc)
        for i in range(1, m + 1)
        for first, dc in ((2 * i - m, 1), (3 * m - 2 * i, -1))
        for w in range(first, top, 2 * m))
    bosons = sorted((w, dc) for dc in (1, -1) for w in range(m, top, 2 * m))
    return fermions, bosons, budget


@pytest.mark.parametrize("m", range(2, 9))
def test_merged_modes_match_the_sorted_lists(m):
    for max_u in (-5, 0, 1, 2, 7, 30, 97, 200):
        fermions, bosons, budget = oracle._mode_list(m, max_u)
        assert (list(fermions), list(bosons), budget) == ref_mode_list(
            m, max_u), (m, max_u)


def ref_charge_dp(m, max_u, max_nodes):
    """The oracle's count as one dict operation per visited node: returns
    ({(charge, u-degree): count}, nodes), or raises ResourceLimit after
    the mode that passes max_nodes, with the same message as the oracle."""
    fermions, bosons, budget = ref_mode_list(m, max_u)
    acc = {(0, 0): 1}
    nodes = 0
    rem = budget
    for w, dc in fermions:
        if w < 0:
            rem += w
        limit = max_u + rem
        for (c, d), v in list(acc.items()):
            nd = d + w
            if nd < limit:
                key = (c + dc, nd)
                acc[key] = acc.get(key, 0) + v
                nodes += 1
        check_work(nodes, max_nodes, oracle._NODES)
    for w, dc in bosons:
        for (c, d), v in list(acc.items()):
            nd = d + w
            r = 1
            while nd < max_u:
                key = (c + r * dc, nd)
                acc[key] = acc.get(key, 0) + v
                nodes += 1
                r += 1
                nd += w
        check_work(nodes, max_nodes, oracle._NODES)
    return acc, nodes


def _refusal(fn, *args):
    try:
        fn(*args)
    except ResourceLimit as err:
        return str(err)
    return None


_BOUNDS = [*range(41), 60, 97, 120]


@pytest.mark.parametrize("m", range(2, 8))
def test_rows_match_the_dict_count(m):
    for bound in _BOUNDS:
        acc, _ = ref_charge_dp(m, bound, float("inf"))
        want = {(c, d): v for (c, d), v in acc.items() if d < bound}
        charges = reachable_charges(m, bound, max_nodes=1 << 62)
        assert charges == tuple(sorted({c for c, _ in want})), (m, bound)
        got = {(s, d): v for s in charges for d, v in enumerate_charge_series(
            m, s, bound, max_nodes=1 << 62).items()}
        assert got == want, (m, bound)


@pytest.mark.parametrize("m", range(2, 8))
def test_refusal_points_match_the_dict_count(m):
    # the rows visit the same nodes, mode by mode, as the dict count did
    for bound in _BOUNDS:
        _, total = ref_charge_dp(m, bound, float("inf"))
        for max_nodes in sorted({*range(51), total - 1, total}):
            want = _refusal(ref_charge_dp, m, bound, max_nodes)
            got = _refusal(reachable_charges, m, bound, max_nodes)
            assert got == want, (m, bound, max_nodes)
