"""Parameter vectors on arrangements and the transition maps between them.

A parameter vector lives on an admissible arrangement sigma: entry at
position h comes from component sigma(h).  Swapping two adjacent positions
(only possible for a containment pair) transforms the two affected entries
affine-linearly; composites along any transposition path agree (tested as
a property, not recomputed here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arrangements import Permutation, transposition_path
from .errors import InputError
from .segments import GoodParityParameter, Relation, relation


@dataclass(frozen=True)
class ParamVector:
    """Integer entries attached to the positions of an arrangement."""

    entries: tuple[int, ...]
    sigma: Permutation

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "sigma", tuple(self.sigma))
        if len(self.entries) != len(self.sigma):
            raise InputError("entry count does not match arrangement size")

    @classmethod
    def reference(cls, entries: Sequence[int]) -> "ParamVector":
        """A vector on the identity (reference) arrangement."""
        return cls(tuple(entries), tuple(range(1, len(entries) + 1)))

    def entry_of(self, i: int) -> int:
        """The entry coming from component i (position sigma^{-1}(i))."""
        return self.entries[self.sigma.index(i)]


def phi_adjacent(
    psi: GoodParityParameter, pv: ParamVector, h: int
) -> ParamVector:
    """Transport across the swap of positions (h, h+1), 1-based.

    Only containment pairs may swap.  With q = m - p at each position:
    container-first gives (q_{h+1}, p_h + p_{h+1} - q_{h+1}), contained-first
    gives (p_h + p_{h+1} - q_h, q_h).  The sum of entries is preserved.
    """
    if not 1 <= h < len(pv.sigma):
        raise InputError(f"swap position {h} out of range 1..{len(pv.sigma) - 1}")
    i, j = pv.sigma[h - 1], pv.sigma[h]
    rel = relation(psi, i, j)
    if not rel.is_containment:
        raise InputError(
            f"cannot swap positions ({h},{h + 1}): components {i},{j} are "
            f"in precedence, not containment"
        )
    p_h, p_h1 = pv.entries[h - 1], pv.entries[h]
    q_h = psi.m(i) - p_h
    q_h1 = psi.m(j) - p_h1
    if rel is Relation.CONTAINS:
        new = (q_h1, p_h + p_h1 - q_h1)
    else:
        new = (p_h + p_h1 - q_h, q_h)
    entries = pv.entries[: h - 1] + new + pv.entries[h + 1 :]
    sigma = pv.sigma[: h - 1] + (j, i) + pv.sigma[h + 1 :]
    return ParamVector(entries, sigma)


def phi(
    psi: GoodParityParameter, pv: ParamVector, tau: Sequence[int]
) -> ParamVector:
    """Transport pv from its own arrangement to tau (both admissible)."""
    out = pv
    for h in transposition_path(psi, pv.sigma, tau):
        out = phi_adjacent(psi, out, h)
    return out
