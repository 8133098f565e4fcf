from collections import Counter

import pytest

from qchar.characters import fock_sector_char, quasiparticle_char
from qchar.errors import InvalidParameter, ResourceLimit
from qchar.oracle import (
    FockState,
    dump_states,
    enumerate_charge_series,
    iter_states,
    oracle_vs_quasiparticle,
    reachable_charges,
    weight_exponent,
)


def test_weight_exponent_anchors():
    assert weight_exponent("psi", 1, 1, 2) == 0
    assert weight_exponent("phi", 1, 1, 3) == 3
    assert weight_exponent("psistar", 2, 1, 2) == 2


def test_weight_exponent_formulas():
    for m in (2, 3, 5):
        for j in (1, 2, 4):
            for i in range(1, m + 1):
                assert weight_exponent("psi", i, j, m) == 2 * i + 2 * m * j - 3 * m
                assert weight_exponent("psistar", i, j, m) == -2 * i + 2 * m * j + m
            assert weight_exponent("phi", 1, j, m) == 2 * m * j - m
            assert weight_exponent("phistar", 1, j, m) == 2 * m * j - m


def test_weight_exponent_validation():
    with pytest.raises(InvalidParameter):
        weight_exponent("psi", 0, 1, 2)
    with pytest.raises(InvalidParameter):
        weight_exponent("psi", 3, 1, 2)
    with pytest.raises(InvalidParameter):
        weight_exponent("phi", 2, 1, 3)
    with pytest.raises(InvalidParameter):
        weight_exponent("psi", 1, 0, 2)
    with pytest.raises(InvalidParameter):
        weight_exponent("chi", 1, 1, 2)


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


def test_materialized_states_match_dp():
    m, bound = 2, 8
    cnt = Counter()
    seen = set()
    for st in iter_states(m, bound):
        st.validate()
        assert st not in seen  # canonical generation, no duplicates
        seen.add(st)
        cnt[(st.charge(), st.u_degree(m))] += 1
    for s in reachable_charges(m, bound):
        series = enumerate_charge_series(m, s, bound)
        for d, v in series.items():
            assert cnt[(s, d)] == v, (s, d)


def test_iter_states_charge_filter():
    states = list(iter_states(3, 6, charge=0))
    assert all(st.charge() == 0 for st in states)
    assert any(st == FockState(((), (), ()), ((), (), ()), (), ()) for st in states)


def test_reachable_charges():
    charges = reachable_charges(2, 8)
    assert 0 in charges
    assert charges == tuple(sorted(charges))
    assert min(charges) < 0 < max(charges)


def test_dump_format():
    text = dump_states(2, 3, charge=0)
    lines = text.splitlines()
    assert lines[0] == "0 0 - | - | - | -"
    for line in lines:
        head, rest = line.split(" ", 2)[0:2], line.split(" ", 2)[2]
        assert rest.count("|") == 3
        int(head[0]), int(head[1])


def test_resource_limit_dp():
    with pytest.raises(ResourceLimit):
        enumerate_charge_series(3, 0, 40, max_nodes=10)


def test_resource_limit_materialization():
    with pytest.raises(ResourceLimit):
        list(iter_states(2, 20, max_states=5))


def test_state_validation():
    with pytest.raises(InvalidParameter):
        FockState(((1, 1), ()), ((), ()), (), ()).validate()
    with pytest.raises(InvalidParameter):
        FockState(((), ()), ((), ()), (2, 1), ()).validate()
    with pytest.raises(InvalidParameter):
        FockState(((0,), ()), ((), ()), (), ()).validate()
    FockState(((1, 3), ()), ((2,), ()), (1, 1), (4,)).validate()


def test_rejects_small_m():
    with pytest.raises(InvalidParameter):
        enumerate_charge_series(1, 0, 10)
