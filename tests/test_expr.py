import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchar import characters, expr
from qchar.errors import (
    ArityError,
    DivisionByNonUnit,
    InvalidParameter,
    ParseError,
    ResourceLimit,
    UnknownBuiltin,
)
from qchar.expr import (
    MAX_WINDOW,
    BinOp,
    Call,
    IntLit,
    Monomial,
    Neg,
    Power,
    eval_expr,
    evaluate,
    format_expr,
    parse,
)
from qchar.qseries import QSeries, dist_product, euler_phi, gauss_sum, inv_euler_phi
from qchar.characters import quasiparticle_char


# -- parsing -----------------------------------------------------------------


def test_parse_half_power_times_call():
    node = parse("q^(1/2) * qp(2,1)")
    assert node == BinOp("*", Monomial(1), Call("qp", (2, 1)))


def test_parse_power_and_division():
    node = parse("distp(1)^2 / phi(2)")
    assert node == BinOp("/", Power(Call("distp", (1,)), 2), Call("phi", (2,)))


def test_parse_precedence_add_mul_pow():
    node = parse("1 + 2 * phi(1)^2")
    assert node == BinOp(
        "+", IntLit(1), BinOp("*", IntLit(2), Power(Call("phi", (1,)), 2))
    )


def test_parse_left_associativity():
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", IntLit(1), IntLit(2)), IntLit(3))
    assert parse("8 / 4 / 2") == BinOp("/", BinOp("/", IntLit(8), IntLit(4)), IntLit(2))


def test_parse_unary_minus_binds_below_power():
    node = parse("-phi(1)^2")
    assert node == Neg(Power(Call("phi", (1,)), 2))


@pytest.mark.parametrize(
    "text,u_exp",
    [
        ("q", 2),
        ("q^3", 6),
        ("q^-2", -4),
        ("q^0", 0),
        ("q^(1/2)", 1),
        ("q^(-3/2)", -3),
        ("q^(4/2)", 4),
    ],
)
def test_parse_q_monomials(text, u_exp):
    assert parse(text) == Monomial(u_exp)


def test_parse_parenthesized_power():
    # q's own exponent slot is consumed inside the atom, so raising a
    # q-power again requires parentheses
    assert parse("(q^3)^2") == Power(Monomial(6), 2)


def test_parse_negative_call_arguments():
    assert parse("fs(2,-3)") == Call("fs", (2, -3))
    assert parse("Lk(3, -1)") == Call("Lk", (3, -1))


def test_parse_spans_cover_source():
    node = parse("phi(1) + q")
    assert node.span == (0, 10)
    assert node.left.span == (0, 6)
    assert node.right.span == (9, 10)


def test_nodes_ignore_span_in_equality_and_hash():
    a, b = parse("phi(1) + q"), parse(" phi( 1 )+q ")
    assert a.span != b.span
    assert a == b and hash(a) == hash(b)
    assert IntLit(3, span=(0, 1)) == IntLit(3, span=(5, 6))
    assert len({Call("phi", (1,), span=(0, 6)), Call("phi", (1,))}) == 1


def test_nodes_of_different_types_differ():
    assert IntLit(1) != Monomial(1)
    assert Neg(IntLit(1)) != Neg(IntLit(2))
    assert BinOp("+", IntLit(1), IntLit(2)) != BinOp("-", IntLit(1), IntLit(2))


def test_nodes_are_immutable():
    node = parse("1 + 2")
    for name in ("op", "left", "span", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    assert node == BinOp("+", IntLit(1), IntLit(2))


def test_nodes_take_exactly_their_fields():
    for args in ((), (1, 2)):
        with pytest.raises(TypeError):
            IntLit(*args)
    assert Call("gauss", (), span=(2, 9)).span == (2, 9)


def test_node_repr_shows_type_and_fields():
    assert repr(Power(Call("phi", (1,)), 2, span=(0, 8))) == (
        "Power(base=Call(name='phi', args=(1,), span=(0, 0)), exponent=2, "
        "span=(0, 8))")


def test_respan_keeps_fields_and_replaces_span():
    node = parse("distp(1)^2")
    moved = expr._respan(node, (3, 9))
    assert type(moved) is Power and moved.span == (3, 9)
    assert (moved.base, moved.exponent) == (node.base, node.exponent)
    assert moved.base.span == node.base.span


def test_parse_all_builtins():
    for text in (
        "phi(1)", "poch(1,3)", "distp(2)", "gauss()",
        "fs(2,0)", "qp(2,1)", "hs(3,-2)", "L0(2)", "Lk(2,3)", "cor22lhs(4)",
    ):
        node = parse(text)
        assert isinstance(node, Call)


# -- parse errors ------------------------------------------------------------


def test_unclosed_call_reports_expected_paren():
    with pytest.raises(ParseError) as exc:
        parse("phi(1")
    assert "')'" in exc.value.expected or "','" in str(exc.value)


def test_dangling_operator_lists_expected_atoms():
    with pytest.raises(ParseError) as exc:
        parse("1 + ")
    assert "integer" in exc.value.expected
    assert exc.value.render("1 + ").startswith("1:5:")


def test_error_render_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse("1 +\n q @")
    assert exc.value.render("1 +\n q @") == "2:4: unexpected character '@'"


def test_unknown_builtin():
    with pytest.raises(UnknownBuiltin) as exc:
        parse("foo(1)")
    assert exc.value.span == (0, 3)
    assert "foo" in str(exc.value)


def test_bare_q_is_not_a_call():
    with pytest.raises(ParseError):
        parse("q(2)")  # q takes no arguments; the '(' is a stray token


def test_arity_mismatch():
    with pytest.raises(ArityError):
        parse("phi()")
    with pytest.raises(ArityError):
        parse("phi(1,2)")
    with pytest.raises(ArityError):
        parse("gauss(1)")


def test_half_power_denominator_must_be_two():
    with pytest.raises(ParseError) as exc:
        parse("q^(1/3)")
    assert "denominator" in str(exc.value)


def test_symbolic_builtin_arguments_rejected():
    with pytest.raises(ParseError):
        parse("phi(q)")
    with pytest.raises(ParseError):
        parse("qp(2, phi(1))")


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError) as exc:
        parse("q q")
    assert "end of input" in str(exc.value)


# -- evaluation --------------------------------------------------------------


def test_eval_gauss_pinned_prefix():
    got = evaluate("gauss()", 14)
    assert got == gauss_sum(14)
    assert got.items() == [(0, 1), (2, 1), (6, 1), (12, 1)]


def test_eval_euler_identity_vanishes():
    assert evaluate("phi(1) * distp(1)^2 - gauss()", 100).is_zero()


def test_eval_vacuum_sides_cancel():
    assert evaluate("qp(2,0) - cor22lhs(2)", 200).is_zero()


def test_eval_leaf_order_contracts():
    five = evaluate("5", 7)
    assert (five.min_exp, five.order) == (0, 7)
    mono = evaluate("q^-2", 9)
    assert (mono.min_exp, mono.order) == (-4, 9 + 4)
    half = evaluate("q^(1/2)", 5)
    assert (half.min_exp, half.order) == (1, 6)


def test_eval_requires_positive_order():
    with pytest.raises(InvalidParameter):
        evaluate("q", 0)


def test_eval_division_by_unit_series():
    assert evaluate("1 / phi(1)", 30) == inv_euler_phi(1, 30)


def test_eval_negative_power_inverts():
    assert evaluate("phi(1)^-1", 24) == euler_phi(1, 24).invert()


def test_eval_division_by_non_unit_reports_denominator_span():
    text = "1 / (2 * phi(1))"
    with pytest.raises(DivisionByNonUnit) as exc:
        evaluate(text, 10)
    assert exc.value.span == (4, 16)


def test_eval_division_by_zero_series():
    with pytest.raises(DivisionByNonUnit):
        evaluate("1 / (q - q)", 10)


def test_eval_negative_power_of_non_unit():
    with pytest.raises(DivisionByNonUnit):
        evaluate("(2 * phi(1))^-1", 10)


@pytest.mark.parametrize("text, order", [
    ("q^-100000000", 5),
    # each factor passes, but x^0 claims the window of x * x.invert()
    ("(q^-200000 * q^-200000 * q^-200000)^0", 5),
    ("1", MAX_WINDOW + 1),
])
def test_eval_window_past_the_bound_is_resource_limit(text, order):
    with pytest.raises(ResourceLimit):
        evaluate(text, order)


def test_eval_window_at_the_bound():
    # q^-n claims [-2n, nu + 2n): exactly MAX_WINDOW coefficients here
    n = (MAX_WINDOW - 2) // 4
    assert evaluate(f"q^-{n}", 2) == QSeries.monomial(-2 * n, 2 + 2 * n)


@pytest.mark.parametrize("text", [
    "fs(1,0)", "qp(1,0)", "hs(1,0)", "L0(1)", "Lk(1,0)", "cor22lhs(1)",
])
def test_eval_builtins_refuse_m_below_2(text):
    # level-1 structure needs m >= 2, and every builtin that takes m says so
    with pytest.raises(InvalidParameter, match="need m >= 2, got 1"):
        evaluate(text, 10)


def test_eval_builtin_domain_errors_propagate():
    # a huge charge does not turn a domain error into a resource limit
    for text in ("qp(1,4000000)", "fs(-3,-4000000)", "hs(0,4000000)"):
        with pytest.raises(InvalidParameter):
            evaluate(text, 10)


# fs(m, s) and hs(m, s) lie in u^-pad(m)..u^nu whatever s, and
# pad(2048) = 1023 * 1024 = MAX_WINDOW - 1024
@pytest.mark.parametrize("name", ["fs", "hs"])
def test_eval_charged_builtin_window_at_the_bound(name):
    assert evaluate(f"{name}(2048,0)", 1024).order == 1024
    # a far charge opens no window below u^-pad(m): zero at this order
    assert evaluate(f"{name}(2,{MAX_WINDOW})", 5).is_zero()
    assert evaluate(f"{name}(1000,1499)", 2).is_zero()


@pytest.mark.parametrize("name", ["qp", "fs", "hs"])
def test_eval_charged_builtin_window_past_the_bound(name, monkeypatch):
    # refused before the denominator or a quasiparticle bucket is built
    monkeypatch.setattr(characters, "_inverse_denominator", None)
    monkeypatch.setattr(characters, "_charge_buckets", None)
    # one coefficient past MAX_WINDOW: qp(m, s) reaches down to u^(-s m)
    text = "qp(2,524286)" if name == "qp" else f"{name}(2048,0)"
    with pytest.raises(ResourceLimit):
        evaluate(text, 5 if name == "qp" else 1025)
    with pytest.raises(ResourceLimit):
        evaluate(f"1 + {name}(3000,1500)", 4)


def test_eval_negative_charge_opens_no_window():
    assert evaluate("qp(2,-4000000)", 4).is_zero()


def test_eval_matches_library_calls():
    assert evaluate("qp(2,1)", 40) == quasiparticle_char(2, 1, 40)
    assert evaluate("distp(2)", 40) == dist_product(2, 40)


# -- canonical formatting ----------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "q^(1/2) * qp(2,1)",
        "distp(1)^2 / phi(2)",
        "1 + 2 * phi(1)^2",
        "-phi(1)^2",
        "(phi(1) + 1) * 2",
        "q^(-3/2)",
        "fs(2,-3)",
        "(q^3)^2",
        "1 - (2 - 3)",
        "8 / 4 / 2",
    ],
)
def test_format_round_trips(text):
    node = parse(text)
    assert parse(format_expr(node)) == node


def test_format_is_canonical_fixed_point():
    node = parse("(1)+( q^(2/2) )*distp( 1 )^2")
    once = format_expr(node)
    assert once == "1 + q * distp(1)^2"
    assert format_expr(parse(once)) == once


def test_format_parenthesizes_equal_precedence_right_child():
    node = BinOp("-", IntLit(1), BinOp("-", IntLit(2), IntLit(3)))
    assert format_expr(node) == "1 - (2 - 3)"
    assert parse(format_expr(node)) == node


def test_format_negative_exponents():
    assert format_expr(Monomial(-4)) == "q^-2"
    assert format_expr(Monomial(-3)) == "q^(-3/2)"
    assert format_expr(Power(Call("phi", (1,)), -2)) == "phi(1)^-2"


# -- property tests ----------------------------------------------------------

_leaf = st.one_of(
    st.integers(min_value=0, max_value=9).map(IntLit),
    st.integers(min_value=-6, max_value=6).map(Monomial),
    st.sampled_from(
        [Call("phi", (1,)), Call("distp", (2,)), Call("gauss", ()), Call("poch", (1, 2))]
    ),
)


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.builds(
            BinOp, st.sampled_from(["+", "-", "*"]), children, children
        ),
        st.builds(Power, children, st.integers(min_value=0, max_value=3)),
    )


_ast = st.recursive(_leaf, _extend, max_leaves=10)


@given(_ast)
@settings(max_examples=120, deadline=None)
def test_round_trip_property(node):
    assert parse(format_expr(node)) == node


@given(_ast, st.integers(min_value=1, max_value=12))
@settings(max_examples=60, deadline=None)
def test_format_preserves_value(node, order):
    assert eval_expr(parse(format_expr(node)), order) == eval_expr(node, order)
