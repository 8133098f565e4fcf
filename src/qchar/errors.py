"""Error taxonomy shared by the whole package.

Everything derives from QcharError so callers (notably the CLI) can catch
library failures in one place and keep exit codes stable.
"""


class QcharError(Exception):
    pass


class InvalidParameter(QcharError):
    """A domain argument is out of range (m < 2, negative index, ...)."""


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
    """A request past a size or work bound: a window longer than
    MAX_WINDOW, a quasiparticle sum or packed two-variable Fock character
    rows past QP_MAX_ORDER, a sector character spanning more than
    SECTOR_MAX_SPAN u-powers, or an enumeration past its node budget."""


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
