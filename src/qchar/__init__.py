"""Exact q-series arithmetic and specialized characters of level-1 sl(m|1)
modules, with identity-verification tooling (library + CLI)."""

from .qseries import (
    QSeries,
    dist_product,
    euler_phi,
    format_series,
    gauss_sum,
    inv_euler_phi,
    pochhammer,
)
from .characters import (
    IdentityReport,
    basic_char,
    compare_series,
    family_char,
    fock_sector_char,
    growth_report,
    quasiparticle_char,
    sector_sum,
    vacuum_identity_sides,
)
from .bivariate import (
    ChargeSeries,
    coeff_z,
    cs_mul,
    fock_char_product,
    inverse_product_sides,
    jacobi_triple_sides,
)

__version__ = "0.1.0"

__all__ = [
    "QSeries",
    "ChargeSeries",
    "IdentityReport",
    "basic_char",
    "coeff_z",
    "compare_series",
    "cs_mul",
    "dist_product",
    "euler_phi",
    "eval_expr",
    "evaluate",
    "family_char",
    "fock_char_product",
    "fock_sector_char",
    "format_expr",
    "format_series",
    "gauss_sum",
    "growth_report",
    "inv_euler_phi",
    "inverse_product_sides",
    "jacobi_triple_sides",
    "parse",
    "pochhammer",
    "quasiparticle_char",
    "sector_sum",
    "vacuum_identity_sides",
    "__version__",
]

# The expression language loads on first use: most callers, the `verify`
# and `asympt` subcommands among them, never parse an expression.
_EXPR_NAMES = ("eval_expr", "evaluate", "format_expr", "parse")


def __getattr__(name):
    if name in _EXPR_NAMES:
        from . import expr

        return getattr(expr, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
