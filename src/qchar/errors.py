"""Error taxonomy shared by the whole package.

Everything derives from QcharError so callers (notably the CLI) can catch
library failures in one place and keep exit codes stable.
"""


class QcharError(Exception):
    pass


class InvalidParameter(QcharError):
    """A domain argument is out of range (m < 2, negative index, ...)."""


def need(name: str, value: int, lo: int) -> None:
    """Raise InvalidParameter unless the argument `name` is at least lo."""
    if value < lo:
        raise InvalidParameter(f"need {name} >= {lo}, got {value}")


class ZeroSeries(QcharError):
    """Inversion of the zero series was requested."""


class NonUnitLeadingCoefficient(QcharError):
    """Inversion needs the lowest coefficient to be +1 or -1."""


class OutOfWindow(QcharError):
    """A coefficient outside the guaranteed truncation window was requested."""


class InsufficientOrder(QcharError):
    """An input series does not carry enough guaranteed order for the step."""


class WindowUnderflow(QcharError):
    """A charge-graded product cannot claim a required z-degree at the
    requested order because contributions from outside the stored windows
    cannot be proven zero."""


class ResourceLimit(QcharError):
    """A request past a size or work bound: one that check_work refuses,
    or an enumeration past its node budget."""


# The nodes the oracle's state enumeration visits before it gives up, the
# default of `qchar oracle --max-nodes`; a power of two, about 1-2 s on 2
# vCPUs. It lives here, not in oracle, so the CLI's parser reads it without
# loading the oracle.
ORACLE_MAX_NODES = 1 << 24


def check_work(n: int, bound: int, what: str) -> None:
    """Raise ResourceLimit if n, the size `what` names, passes bound."""
    if n > bound:
        raise ResourceLimit(f"{what} {n}, past its bound {bound}")


class ExprError(QcharError):
    """Base for expression-language errors; carries a source span."""

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.message = message
        self.span = span

    def render(self, text: str) -> str:
        # "line:col: message" with 1-based line/col of the span start
        pos = self.span[0] if self.span else 0
        pos = min(pos, len(text))
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        return f"{line}:{col}: {self.message}"


class ParseError(ExprError):
    def __init__(self, message: str, span=None, expected=()):
        super().__init__(message, span)
        self.expected = frozenset(expected)


class UnknownBuiltin(ExprError):
    pass


class ArityError(ExprError):
    pass


class DivisionByNonUnit(ExprError):
    pass
