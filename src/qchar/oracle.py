"""Brute-force enumeration of the charged free-field Fock basis.

Completely independent of the series algebra in characters: states are
built mode by mode (two families of fermions carrying a color index,
one boson pair), each mode contributing an exact u-exponent, and the
per-charge generating series is accumulated by a pruned recursion over
the mode list. Used as the ground-truth oracle for the sector
characters; everything it produces counts actual states, so every
coefficient is a nonnegative integer.

Fermionic modes of the first kind can carry nonpositive exponents (only
at the lowest mode index and small color), so the total negative budget
is computed up front and pruning bounds account for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .errors import InvalidParameter, ResourceLimit
from .qseries import QSeries
from .characters import (
    IdentityReport,
    fock_sector_char,
    mark_short,
    quasiparticle_char,
)

_KINDS = ("psi", "psistar", "phi", "phistar")
_DEFAULT_NODE_CAP = 10**8


def _mode_u_exp(kind: str, color: int, j: int, m: int) -> int:
    if kind == "psi":
        return 2 * color + 2 * m * j - 3 * m
    if kind == "psistar":
        return -2 * color + 2 * m * j + m
    # both bosons sit on the same exponent ladder
    return 2 * m * j - m


def weight_exponent(kind: str, color: int, j: int, m: int) -> int:
    """Exact u-exponent of a single mode under the principal specialization."""
    if m < 2:
        raise InvalidParameter(f"need m >= 2, got {m}")
    if kind not in _KINDS:
        raise InvalidParameter(f"unknown mode kind {kind!r}")
    if j < 1:
        raise InvalidParameter(f"mode index must be positive, got {j}")
    if kind in ("psi", "psistar"):
        if not 1 <= color <= m:
            raise InvalidParameter(f"fermion color {color} outside 1..{m}")
    elif color != 1:
        raise InvalidParameter("bosons carry a single color")
    return _mode_u_exp(kind, color, j, m)


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class FockState:
    """One basis state: mode index lists per field, colors separated for
    the fermions. Fermionic lists are strictly increasing, bosonic lists
    weakly increasing."""

    psi_parts: tuple      # m tuples of strictly increasing positive ints
    psistar_parts: tuple  # same shape
    phi_parts: tuple      # weakly increasing positive ints
    phistar_parts: tuple

    def charge(self) -> int:
        a = sum(len(p) for p in self.psi_parts)
        b = sum(len(p) for p in self.psistar_parts)
        return a - b + len(self.phi_parts) - len(self.phistar_parts)

    def u_degree(self, m: int) -> int:
        total = 0
        for i, parts in enumerate(self.psi_parts, start=1):
            total += sum(_mode_u_exp("psi", i, j, m) for j in parts)
        for i, parts in enumerate(self.psistar_parts, start=1):
            total += sum(_mode_u_exp("psistar", i, j, m) for j in parts)
        total += sum(_mode_u_exp("phi", 1, j, m) for j in self.phi_parts)
        total += sum(_mode_u_exp("phistar", 1, j, m) for j in self.phistar_parts)
        return total

    def validate(self) -> None:
        if len(self.psi_parts) != len(self.psistar_parts):
            raise InvalidParameter("fermion color count mismatch")
        for parts in (*self.psi_parts, *self.psistar_parts):
            if any(j < 1 for j in parts):
                raise InvalidParameter("mode indices must be positive")
            if any(x >= y for x, y in zip(parts, parts[1:])):
                raise InvalidParameter("fermionic modes must strictly increase")
        for parts in (self.phi_parts, self.phistar_parts):
            if any(j < 1 for j in parts):
                raise InvalidParameter("mode indices must be positive")
            if any(x > y for x, y in zip(parts, parts[1:])):
                raise InvalidParameter("bosonic modes must weakly increase")

    def render(self, m: int) -> str:
        def fermi(parts):
            chunks = [f"{i}:{','.join(map(str, p))}" for i, p in enumerate(parts, 1) if p]
            return ";".join(chunks) if chunks else "-"

        def bose(parts):
            return ",".join(map(str, parts)) if parts else "-"

        return (f"{self.charge()} {self.u_degree(m)} "
                f"{fermi(self.psi_parts)} | {fermi(self.psistar_parts)} | "
                f"{bose(self.phi_parts)} | {bose(self.phistar_parts)}")


# ---------------------------------------------------------------------------
# mode lists and the charge/degree recursion


def _negative_budget(m: int) -> int:
    # only the lowest psi mode of each color can go below zero
    return sum(max(0, m - 2 * i) for i in range(1, m + 1))


def _mode_list(m: int, max_u: int):
    """All modes that can appear in a state of degree < max_u, as tuples
    (u_exp, charge_step, kind, color, j). Fermions first, nonpositive
    exponents leading, so pruning bounds tighten monotonically."""
    budget = _negative_budget(m)
    fermions = []
    for kind, dc in (("psi", 1), ("psistar", -1)):
        for color in range(1, m + 1):
            j = 1
            while True:
                w = _mode_u_exp(kind, color, j, m)
                if w - budget >= max_u:
                    break
                fermions.append((w, dc, kind, color, j))
                j += 1
    fermions.sort(key=lambda t: (t[0], t[1], t[3], t[4]))
    bosons = []
    for kind, dc in (("phi", 1), ("phistar", -1)):
        j = 1
        while True:
            w = _mode_u_exp(kind, 1, j, m)
            if w - budget >= max_u:
                break
            bosons.append((w, dc, kind, 1, j))
            j += 1
    bosons.sort(key=lambda t: (t[0], t[1]))
    return fermions, bosons, budget


@lru_cache(maxsize=16)
def _full_charge_dp(m: int, max_u: int, max_nodes: int):
    """Counts of states per (charge, u-degree), all charges at once."""
    fermions, bosons, budget = _mode_list(m, max_u)
    acc = {(0, 0): 1}
    nodes = 0
    rem = budget
    for w, dc, _kind, _color, _j in fermions:
        if w < 0:
            rem += w  # this mode's capacity is no longer ahead of us
        limit = max_u + rem
        for (c, d), v in list(acc.items()):
            nd = d + w
            if nd < limit:
                key = (c + dc, nd)
                acc[key] = acc.get(key, 0) + v
                nodes += 1
                if nodes > max_nodes:
                    raise ResourceLimit(f"state enumeration exceeded {max_nodes} nodes")
    for w, dc, _kind, _color, _j in bosons:
        for (c, d), v in list(acc.items()):
            nd = d + w
            r = 1
            while nd < max_u:
                key = (c + r * dc, nd)
                acc[key] = acc.get(key, 0) + v
                nodes += 1
                if nodes > max_nodes:
                    raise ResourceLimit(f"state enumeration exceeded {max_nodes} nodes")
                r += 1
                nd += w
    return acc


def enumerate_charge_series(m: int, s: int, max_u_exp: int,
                            max_nodes: int = _DEFAULT_NODE_CAP) -> QSeries:
    """State-counting series of the charge-s sector below max_u_exp."""
    if m < 2:
        raise InvalidParameter(f"need m >= 2, got {m}")
    dp = _full_charge_dp(m, max_u_exp, max_nodes)
    terms = {d: v for (c, d), v in dp.items() if c == s and d < max_u_exp}
    return QSeries.from_terms(terms, max_u_exp)


def reachable_charges(m: int, max_u_exp: int,
                      max_nodes: int = _DEFAULT_NODE_CAP) -> tuple:
    """Sorted charges with at least one state below the bound."""
    if m < 2:
        raise InvalidParameter(f"need m >= 2, got {m}")
    dp = _full_charge_dp(m, max_u_exp, max_nodes)
    return tuple(sorted({c for (c, d), v in dp.items() if d < max_u_exp and v}))


def oracle_vs_quasiparticle(m: int, s: int, max_u_exp: int,
                            max_nodes: int = _DEFAULT_NODE_CAP) -> IdentityReport:
    """Three-way check: state enumeration vs the quasiparticle sum vs the
    lattice-sum character, on their common window; "short" if that window
    ends below max_u_exp."""
    counted = enumerate_charge_series(m, s, max_u_exp, max_nodes)
    qp = quasiparticle_char(m, s, max_u_exp)
    ch = fock_sector_char(m, s, max_u_exp)
    params = {"m": m, "s": s}
    order = min(counted.order, qp.order, ch.order)
    for other in (qp, ch):
        e = counted.first_diff(other)
        if e is not None:
            return IdentityReport("oracle-threeway", params, order, "fail",
                                  first_diff_u_exp=e,
                                  lhs_coeff=counted.coeff(e),
                                  rhs_coeff=other.coeff(e))
    return mark_short(
        IdentityReport("oracle-threeway", params, order, "pass"), max_u_exp)


# ---------------------------------------------------------------------------
# state materialization, purely for debugging at small bounds


def iter_states(m: int, max_u_exp: int, charge: Optional[int] = None,
                max_states: int = 10**6) -> Iterator[FockState]:
    """Yield every state below the bound (optionally one charge sector).
    Exponentially many; keep the bound small."""
    if m < 2:
        raise InvalidParameter(f"need m >= 2, got {m}")
    fermions, bosons, budget = _mode_list(m, max_u_exp)
    modes = fermions + bosons
    suffix_neg = [0] * (len(modes) + 1)
    for idx in range(len(modes) - 1, -1, -1):
        w = modes[idx][0]
        suffix_neg[idx] = suffix_neg[idx + 1] + (-w if w < 0 else 0)
    counter = {"n": 0}

    def bump():
        counter["n"] += 1
        if counter["n"] > max_states:
            raise ResourceLimit(f"state materialization exceeded {max_states} nodes")

    def rec(idx: int, deg: int, taken: tuple) -> Iterator[FockState]:
        bump()
        if idx == len(modes):
            if deg < max_u_exp:
                state = _build_state(m, taken)
                if charge is None or state.charge() == charge:
                    yield state
            return
        w, _dc, kind, color, j = modes[idx]
        limit = max_u_exp + suffix_neg[idx + 1]
        yield from rec(idx + 1, deg, taken)
        if kind in ("psi", "psistar"):
            if deg + w < limit:
                yield from rec(idx + 1, deg + w, taken + (((kind, color), j),))
        else:
            nd = deg + w
            added = taken
            while nd < limit:
                added = added + (((kind, color), j),)
                yield from rec(idx + 1, nd, added)
                nd += w

    return rec(0, 0, ())


def _build_state(m: int, taken: tuple) -> FockState:
    groups: dict = {}
    for key, j in taken:
        groups.setdefault(key, []).append(j)
    psi = tuple(tuple(sorted(groups.get(("psi", i), ()))) for i in range(1, m + 1))
    psistar = tuple(tuple(sorted(groups.get(("psistar", i), ()))) for i in range(1, m + 1))
    phi = tuple(sorted(groups.get(("phi", 1), ())))
    phistar = tuple(sorted(groups.get(("phistar", 1), ())))
    return FockState(psi, psistar, phi, phistar)


def dump_states(m: int, max_u_exp: int, charge: Optional[int] = None,
                max_states: int = 10**6) -> str:
    """One rendered state per line, sorted by (u-degree, charge, text)."""
    lines = [(st.u_degree(m), st.charge(), st.render(m))
             for st in iter_states(m, max_u_exp, charge, max_states)]
    lines.sort()
    return "\n".join(line for _, _, line in lines)
