"""Small expression language over truncated q-series.

Grammar (binary operators left-associative, `^` binds tightest, then unary
minus, then `*` `/`, then `+` `-`):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | atom ("^" int)?
    atom   := int
            | "q" ("^" "(" int "/" "2" ")" | "^" int)?
            | ident "(" (int ("," int)*)? ")"
            | "(" expr ")"

Builtin arguments are integer literals only.  Exponents and arguments may be
negative.  `q^(n/2)` is how half-integer powers are written; internally
everything lives on the u = q^(1/2) lattice.

Every AST node carries a source span (start, end) used for error reporting;
spans are excluded from equality so `parse(format_expr(e)) == e` holds
structurally.  Evaluation is bottom-up at a fixed guaranteed u-order: integer
leaves claim order nu, a monomial u^e claims nu + |e|, and the arithmetic on
QSeries propagates honest truncation claims from there.  A window longer
than MAX_WINDOW coefficients is refused with ResourceLimit before it is
allocated, and so is a builtin whose arguments would open one.
"""

from typing import NamedTuple, Tuple, Union

from .errors import (
    ArityError,
    DivisionByNonUnit,
    ExprError,
    InvalidParameter,
    NonUnitLeadingCoefficient,
    ParseError,
    UnknownBuiltin,
    ZeroSeries,
    need,
)
from .qseries import (
    MAX_WINDOW,  # the bound evaluation keeps, exported here too
    QSeries,
    check_window,
    dist_product,
    euler_phi,
    gauss_sum,
    pochhammer,
)
from .characters import (
    _pair_quotient,
    basic_char,
    family_char,
    fock_sector_char,
    quasiparticle_char,
    sector_sum,
)

Span = Tuple[int, int]


# -- AST ---------------------------------------------------------------------


class _Node:
    """Base of the AST nodes. A node's fields are its class's __slots__;
    nodes are immutable and compare and hash on their type and fields, so
    the source span they carry is ignored."""

    __slots__ = ("span",)

    def __init__(self, *fields, span: Span = (0, 0)):
        names = type(self).__slots__
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes fields {names}")
        for name, value in zip(names, fields):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "span", span)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        shown = [f"{name}={value!r}"
                 for name, value in zip(type(self).__slots__, self._values())]
        return f"{type(self).__name__}({', '.join(shown)}, span={self.span!r})"


class IntLit(_Node):
    __slots__ = ("value",)


class Monomial(_Node):
    """A power of q, stored as the u-exponent (q^n -> 2n, q^(n/2) -> n)."""

    __slots__ = ("u_exp",)


class Neg(_Node):
    __slots__ = ("operand",)


class BinOp(_Node):
    __slots__ = ("op", "left", "right")  # op is one of "+", "-", "*", "/"


class Power(_Node):
    __slots__ = ("base", "exponent")


class Call(_Node):
    __slots__ = ("name", "args")  # args is a tuple of ints


Node = Union[IntLit, Monomial, Neg, BinOp, Power, Call]


# -- builtins ----------------------------------------------------------------


# name -> (arity, fn(*args, order)).  Domain checks (m >= 2 and friends) stay
# in the library builders; here only names and arities are validated.
BUILTINS = {
    "phi": (1, euler_phi),
    "poch": (2, pochhammer),
    "distp": (1, dist_product),
    "gauss": (0, gauss_sum),
    "fs": (2, fock_sector_char),
    "qp": (2, quasiparticle_char),
    "hs": (2, sector_sum),
    "L0": (1, basic_char),
    "Lk": (2, family_char),
    "cor22lhs": (1, _pair_quotient),
}


# -- tokenizer ---------------------------------------------------------------

_SYMBOLS = "+-*/^(),"


class Token(NamedTuple):
    kind: str  # "int", "ident", one of _SYMBOLS, or "eof"
    text: str
    pos: int

    @property
    def span(self) -> Span:
        return (self.pos, self.pos + max(len(self.text), 1))


def tokenize(text: str):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", span=(i, i + 1))
    toks.append(Token("eof", "", n))
    return toks


# -- parser ------------------------------------------------------------------

_ATOM_EXPECTED = ("integer", "'q'", "builtin name", "'('", "'-'")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {self._describe(tok)}",
                span=tok.span,
                expected=(what,),
            )
        return self.advance()

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(
                f"expected end of input, found {self._describe(tok)}",
                span=tok.span,
                expected=("end of input",),
            )
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = BinOp(op.kind, node, rhs, span=(node.span[0], rhs.span[1]))
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            node = BinOp(op.kind, node, rhs, span=(node.span[0], rhs.span[1]))
        return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            operand = self.factor()
            return Neg(operand, span=(tok.pos, operand.span[1]))
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            exp, end = self.signed_int("integer exponent")
            node = Power(node, exp, span=(node.span[0], end))
        return node

    def signed_int(self, what: str) -> Tuple[int, int]:
        """Parse an optionally negated integer literal; returns (value, end)."""
        neg = False
        start = self.peek().pos
        if self.peek().kind == "-":
            self.advance()
            neg = True
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError(
                f"expected {what}, found {self._describe(tok)}",
                span=tok.span,
                expected=(what,),
            )
        self.advance()
        value = int(tok.text)
        return (-value if neg else value, tok.pos + len(tok.text))

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLit(int(tok.text), span=tok.span)
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            close = self.expect(")", "')'")
            # keep the parenthesized extent so error spans stay intuitive
            return _respan(inner, (tok.pos, close.pos + 1))
        if tok.kind == "ident":
            if tok.text == "q":
                return self.q_monomial()
            return self.call()
        raise ParseError(
            f"expected an expression, found {self._describe(tok)}",
            span=tok.span,
            expected=_ATOM_EXPECTED,
        )

    def q_monomial(self) -> Node:
        q_tok = self.advance()
        if self.peek().kind != "^":
            return Monomial(2, span=q_tok.span)
        self.advance()
        if self.peek().kind == "(":
            # q^(n/2): the only place a fraction is allowed
            self.advance()
            num, _ = self.signed_int("integer numerator")
            self.expect("/", "'/'")
            den = self.expect("int", "denominator 2")
            if den.text != "2":
                raise ParseError(
                    "half-integer exponents must have denominator 2",
                    span=den.span,
                    expected=("'2'",),
                )
            close = self.expect(")", "')'")
            return Monomial(num, span=(q_tok.pos, close.pos + 1))
        exp, end = self.signed_int("integer exponent")
        return Monomial(2 * exp, span=(q_tok.pos, end))

    def call(self) -> Node:
        name_tok = self.advance()
        name = name_tok.text
        if name not in BUILTINS:
            raise UnknownBuiltin(f"unknown builtin {name!r}", span=name_tok.span)
        self.expect("(", "'('")
        args = []
        if self.peek().kind != ")":
            value, _ = self.signed_int("integer argument")
            args.append(value)
            while self.peek().kind == ",":
                self.advance()
                value, _ = self.signed_int("integer argument")
                args.append(value)
        close = self.expect(")", "')'")
        span = (name_tok.pos, close.pos + 1)
        arity = BUILTINS[name][0]
        if len(args) != arity:
            raise ArityError(
                f"{name}() takes {arity} argument(s), got {len(args)}",
                span=span,
            )
        return Call(name, tuple(args), span=span)


def _respan(node: Node, span: Span) -> Node:
    return type(node)(*node._values(), span=span)


_TOO_DEEP = "expression nested too deeply"


def parse(text: str) -> Node:
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExprError(_TOO_DEEP) from None


# -- evaluation --------------------------------------------------------------

# Evaluation allocates no window longer than MAX_WINDOW coefficients.
# Products and quotients claim no more than their shorter operand and sums
# no more than their longer one, so only the evaluation order, a monomial
# and x^0 can open a longer window; q^-n alone needs nu + 4n. The builtins
# whose window opens below u^0, fs, hs and qp, check their own first.


def eval_expr(node: Node, order: int) -> QSeries:
    """Evaluate at guaranteed u-order `order` (>= 1)."""
    need("order", order, 1)
    check_window(0, order)
    try:
        return _eval(node, order)
    except RecursionError:
        raise ExprError(_TOO_DEEP, span=node.span) from None


def _eval(node: Node, nu: int) -> QSeries:
    if isinstance(node, IntLit):
        return QSeries.from_terms({0: node.value}, nu)
    if isinstance(node, Monomial):
        check_window(node.u_exp, nu + abs(node.u_exp))
        return QSeries.monomial(node.u_exp, nu + abs(node.u_exp))
    if isinstance(node, Neg):
        return -_eval(node.operand, nu)
    if isinstance(node, BinOp):
        lhs = _eval(node.left, nu)
        rhs = _eval(node.right, nu)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        try:
            return lhs / rhs
        except (ZeroSeries, NonUnitLeadingCoefficient) as err:
            raise DivisionByNonUnit(
                f"cannot divide: {err}", span=node.right.span
            ) from err
    if isinstance(node, Power):
        base = _eval(node.base, nu)
        if node.exponent == 0:
            # the exact 1 that x^0 gives claims the window of x * x.invert()
            check_window(0, max(base.order - 2 * base.min_exp, 1))
        try:
            return base ** node.exponent
        except (ZeroSeries, NonUnitLeadingCoefficient) as err:
            raise DivisionByNonUnit(
                f"cannot raise to a negative power: {err}", span=node.span
            ) from err
    if isinstance(node, Call):
        return BUILTINS[node.name][1](*node.args, nu)
    raise InvalidParameter(f"not an expression node: {node!r}")


def evaluate(text: str, order: int) -> QSeries:
    """parse + eval in one step; the usual entry point for CLI callers."""
    return eval_expr(parse(text), order)


# -- canonical formatting ----------------------------------------------------

# precedence levels used for minimal parenthesization
_ADD, _MUL, _UNARY, _POWER, _ATOM = 1, 2, 3, 4, 5


def _level(node: Node) -> int:
    if isinstance(node, BinOp):
        return _ADD if node.op in "+-" else _MUL
    if isinstance(node, Neg):
        return _UNARY
    if isinstance(node, Power):
        return _POWER
    return _ATOM


def format_expr(node: Node) -> str:
    """Canonical text form; `parse(format_expr(e)) == e` up to spans."""
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Monomial):
        e = node.u_exp
        if e == 2:
            return "q"
        if e % 2 == 0:
            return f"q^{e // 2}"
        return f"q^({e}/2)"
    if isinstance(node, Neg):
        inner = format_expr(node.operand)
        if _level(node.operand) < _UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        me = _level(node)
        left = format_expr(node.left)
        if _level(node.left) < me:
            left = f"({left})"
        right = format_expr(node.right)
        # left-associative: an equal-precedence right child needs parens
        if _level(node.right) <= me:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    if isinstance(node, Power):
        base = format_expr(node.base)
        # the grammar only allows ^ directly on an int, a call, or a
        # parenthesized expression; q's own exponent slot is already taken
        if not isinstance(node.base, (IntLit, Call)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.name}({','.join(str(a) for a in node.args)})"
    raise InvalidParameter(f"not an expression node: {node!r}")
