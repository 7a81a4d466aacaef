"""Parameter vectors on arrangements and the transition maps between them.

A parameter vector lives on an admissible arrangement sigma: entry at
position h comes from component sigma(h).  Only a containment pair may swap
adjacent positions, by one rule whichever comes first: the contained
component d flips to q_d = m_d - p_d and its container c adds p_d - q_d.
The p-adic swap (``padic.padic_transition``) is the same rule on
l = min(p, q): d keeps l_d and c adds +-(m_d - 2 l_d), folded.  The swaps
are affine, so ``transported_forms`` runs them once on symbolic entries,
giving affine forms in the starting entries: ``phi`` evaluates them, both
engines compile them once per parameter, and composites along any
transposition path agree (tested as a property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arrangements import Permutation, bubble_path, transposition_path
from .errors import InputError
from .segments import GoodParityParameter, relation


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
    """Transport across the swap of positions (h, h+1), 1-based: ``phi`` to
    the swapped order.  Only a containment pair may swap; real: p_d -> q_d,
    p_c += p_d - q_d; p-adic: l_d kept, l_c +- (m_d - 2 l_d) folded (d the
    contained component, c its container, in either order).
    """
    if not 1 <= h < len(pv.sigma):
        raise InputError(f"swap position {h} out of range 1..{len(pv.sigma) - 1}")
    i, j = pv.sigma[h - 1], pv.sigma[h]
    if not relation(psi, i, j).is_containment:
        raise InputError(
            f"cannot swap positions ({h},{h + 1}): components {i},{j} are "
            f"in precedence, not containment"
        )
    return phi(psi, pv, pv.sigma[: h - 1] + (j, i) + pv.sigma[h + 1 :])


def phi(
    psi: GoodParityParameter, pv: ParamVector, tau: Sequence[int]
) -> ParamVector:
    """Transport pv from its own arrangement to tau (both admissible): the
    ``transported_forms`` of tau's components, evaluated at pv's entries."""
    tau = tuple(tau)
    transposition_path(psi, pv.sigma, tau)  # checks both arrangements
    m = (0, *(s.m for s in psi.segments))
    forms = transported_forms(psi.masks.contains, m, pv.sigma, tau, tau)
    return ParamVector(tuple(affine_value(form, pv.entries) for form in forms), tau)


# An integer affine form in a vector's entries: (constant, terms), where
# each term (k, c) adds c * p[k] (k 0-based); only non-zero terms are kept.
AffineForm = tuple[int, tuple[tuple[int, int], ...]]


def affine_value(form: AffineForm, p: Sequence[int]) -> int:
    value, terms = form
    for k, c in terms:
        value += c * p[k]
    return value


def transported_forms(
    contains: Sequence[int], m: Sequence[int], start: Permutation, sigma: Permutation,
    comps: Sequence[int],
) -> tuple[AffineForm, ...]:
    """The entries of components ``comps`` after ``phi`` takes a vector on
    arrangement ``start`` to sigma, as affine forms in its entries.

    ``contains`` is the parameter's ``RelationMasks.contains`` (bit y of
    ``contains[x]`` set when component x contains y) and ``m[i]`` the
    length of component i (both 1-based); ``comps = sigma`` gives every
    position in order.  Each swap of the bubble path applies the rule of
    ``phi_adjacent``.  A component's form is built on its first swap; one
    that no swap touches keeps its entry on ``start``.
    """
    images = list(start)
    forms: dict[int, dict[int, int]] = {}  # component -> {0: constant, k: coefficient of p_k}

    def form(comp: int) -> dict[int, int]:
        return forms.get(comp) or {0: 0, start.index(comp) + 1: 1}

    for h in bubble_path(start, sigma):
        x, y = images[h - 1], images[h]
        c, d = (x, y) if contains[x] >> y & 1 else (y, x)
        f_c, f_d = form(c), form(d)  # d flips to m_d - p_d, c adds p_d - q_d = 2 p_d - m_d
        for k, v in f_d.items():
            f_c[k] = f_c.get(k, 0) + 2 * v
        forms[c], forms[d] = f_c, {k: -v for k, v in f_d.items()}
        f_c[0] -= m[d]
        forms[d][0] += m[d]
        images[h - 1], images[h] = y, x
    return tuple(
        (f[0], tuple((k - 1, v) for k, v in sorted(f.items()) if k and v))
        for f in map(form, comps)
    )
