"""Parameter vectors on arrangements and the transition maps between them.

A parameter vector lives on an admissible arrangement sigma: entry at
position h comes from component sigma(h).  Swapping two adjacent positions
(only possible for a containment pair) transforms the two affected entries
affine-linearly; composites along any transposition path agree (tested as
a property, not recomputed here).  Because the swaps are affine,
``transported_forms`` can run them once on symbolic entries, taking each
swap's formula from the parameter's containment masks (``psi.masks``):
every entry after the transport is an integer affine form in the reference
entries, which both engines compile once per parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arrangements import Permutation, bubble_path, transposition_path
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
        try:
            return self.entries[self.sigma.index(i)]
        except ValueError:
            raise InputError(f"component {i} is not in arrangement {self.sigma}") from None


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


# An integer affine form in the reference entries: (constant, terms), where
# each term (k, c) adds c * p[k] (k 0-based); only non-zero terms are kept.
AffineForm = tuple[int, tuple[tuple[int, int], ...]]


def affine_value(form: AffineForm, p: Sequence[int]) -> int:
    value, terms = form
    for k, c in terms:
        value += c * p[k]
    return value


def _combine(const: int, *terms: tuple[int, dict[int, int]]) -> dict[int, int]:
    """const + sum of c * form over the (c, form) terms; key 0 holds the
    constant and key k >= 1 the coefficient of p_k."""
    out = {0: const}
    for c, form in terms:
        for k, v in form.items():
            out[k] = out.get(k, 0) + c * v
    return out


def transported_forms(
    contains: Sequence[int], m: Sequence[int], sigma: Permutation, comps: Sequence[int]
) -> tuple[AffineForm, ...]:
    """The entries of components ``comps`` after ``phi`` takes the reference
    vector to sigma, as affine forms in the reference entries.

    ``contains`` is the parameter's ``RelationMasks.contains`` (bit y of
    ``contains[x]`` set when component x contains y) and ``m[i]`` the
    length of component i (both 1-based); ``comps = sigma`` gives every
    position in order.  Runs the swaps of ``phi`` (same path, same formulas as
    ``phi_adjacent``) on symbolic entries; a position no swap has touched
    still holds its reference entry.
    """
    images = list(range(1, len(sigma) + 1))
    forms: dict[int, dict[int, int]] = {}  # 1-based position -> form
    for h in bubble_path(tuple(images), sigma):
        x, y = images[h - 1], images[h]
        f = forms.get(h) or {0: 0, h: 1}
        g = forms.get(h + 1) or {0: 0, h + 1: 1}
        if contains[x] >> y & 1:  # (q_{h+1}, p_h + p_{h+1} - q_{h+1})
            new = _combine(m[y], (-1, g)), _combine(-m[y], (1, f), (2, g))
        else:  # contained first: (p_h + p_{h+1} - q_h, q_h)
            new = _combine(-m[x], (2, f), (1, g)), _combine(m[x], (-1, f))
        forms[h], forms[h + 1] = new
        images[h - 1], images[h] = y, x
    out = []
    for comp in comps:
        pos = images.index(comp) + 1
        form = forms.get(pos) or {0: 0, pos: 1}
        out.append((form[0], tuple((k - 1, c) for k, c in sorted(form.items()) if k and c)))
    return tuple(out)
