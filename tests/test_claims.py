"""Claim honesty: a builder claims no more than it computes.

For every expression builtin and every graded product, the result at
order N + delta cut back to order N must equal the result at order N;
a claim that outruns the computation shows up as a changed coefficient.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchar.bivariate import (
    fock_char_product,
    inverse_product_sides,
    jacobi_triple_sides,
)
from qchar.expr import BUILTINS

_m = st.integers(2, 5)
_j = st.integers(1, 4)
_charge = st.integers(-4, 4)

# builtin name -> strategy for its argument tuple, within its domain; a
# builtin missing here fails its case below with a KeyError
BUILTIN_ARGS = {
    "phi": st.tuples(_j),
    "poch": st.tuples(_j, st.integers(0, 10)),
    "distp": st.tuples(_j),
    "gauss": st.just(()),
    "fs": st.tuples(_m, _charge),
    "qp": st.tuples(_m, _charge),
    "hs": st.tuples(_m, _charge),
    "L0": st.tuples(_m),
    "Lk": st.tuples(_m, _charge),
    "cor22lhs": st.tuples(_m),
}


@pytest.mark.parametrize("name", sorted(BUILTINS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), order=st.integers(1, 80), delta=st.integers(1, 40))
def test_builtin_claims_are_honest(name, data, order, delta):
    args = data.draw(BUILTIN_ARGS[name])
    _, fn = BUILTINS[name]
    assert fn(*args, order + delta).restricted(order) == fn(*args, order)


# the shared series are built at the request rounded up to four
# significant bits, and the packed routes size their digits there, so a
# claim just past a power of two is made from a build an eighth longer
# than the claim, the claims just below it from one at the power of two
@pytest.mark.parametrize("edge", [512, 2048])
@pytest.mark.parametrize("name,args", [("qp", (2, 0)), ("qp", (3, 0)),
                                       ("fs", (2, 0)), ("fs", (3, 2))])
def test_builtin_claims_are_honest_at_build_order_edges(name, args, edge):
    _, fn = BUILTINS[name]
    big = fn(*args, edge + 1)
    for order in (edge - 1, edge):
        assert big.restricted(order) == fn(*args, order)


# each graded product as a list of ChargeSeries built from (m, order, window)
GRADED_SIDES = {
    "fockprod": lambda m, order, window: [fock_char_product(m, order, window)],
    "jtp": lambda m, order, window: list(jacobi_triple_sides(order, window)),
    "kp": lambda m, order, window: list(inverse_product_sides(order, window)),
}


@pytest.mark.parametrize("name", sorted(GRADED_SIDES))
@settings(max_examples=25, deadline=None)
@given(m=_m, order=st.integers(1, 40), delta=st.integers(1, 40),
       lo=st.integers(-6, 6), width=st.integers(0, 8))
def test_graded_claims_are_honest(name, m, order, delta, lo, width):
    window = (lo, lo + width)
    small = GRADED_SIDES[name](m, order, window)
    big = GRADED_SIDES[name](m, order + delta, window)
    for cs_small, cs_big in zip(small, big):
        assert [r.restricted(order) for r in cs_big.rows] == list(cs_small.rows)


# past the random orders above, where the packed rows are wider
@pytest.mark.parametrize("name", sorted(GRADED_SIDES))
def test_graded_claims_are_honest_around_u_order_512(name):
    window = (-2, 2)
    big = GRADED_SIDES[name](3, 513, window)
    for order in (511, 512):
        small = GRADED_SIDES[name](3, order, window)
        for cs_small, cs_big in zip(small, big):
            assert [r.restricted(order) for r in cs_big.rows] == list(cs_small.rows)
