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
from typing import Iterable, Sequence

from .arrangements import Permutation, transposition_path
from .errors import InputError, check_ints
from .segments import GoodParityParameter, Relation, relation


@dataclass(frozen=True)
class ParamVector:
    """Integer entries attached to the positions of an arrangement."""

    entries: tuple[int, ...]
    sigma: Permutation

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "sigma", tuple(self.sigma))
        check_ints("entry", self.entries)
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
    sigma = pv.sigma
    _swap_pair(psi, sigma, h)
    return phi(psi, pv, sigma[: h - 1] + (sigma[h], sigma[h - 1]) + sigma[h + 1 :])


def _swap_pair(psi: GoodParityParameter, sigma: Permutation, h: int) -> tuple[int, int]:
    """The container and the contained component at positions (h, h+1) of
    sigma, or an ``InputError`` when h is out of range or the two are in
    precedence: the one check of a swap, for ``phi_adjacent`` and
    ``padic.padic_transition``."""
    check_ints("swap position", (h,))
    if not 1 <= h < len(sigma):
        raise InputError(f"swap position {h} out of range 1..{len(sigma) - 1}")
    i, j = sigma[h - 1], sigma[h]
    rel = relation(psi, i, j)
    if not rel.is_containment:
        raise InputError(
            f"cannot swap positions ({h},{h + 1}): components {i},{j} are "
            f"in precedence, not containment"
        )
    return (i, j) if rel is Relation.CONTAINS else (j, i)


def phi(
    psi: GoodParityParameter, pv: ParamVector, tau: Sequence[int]
) -> ParamVector:
    """Transport pv from its own arrangement to tau (both admissible): the
    ``transported_forms`` of tau's components along the transposition
    path, evaluated at pv's entries; pv itself when the path is empty."""
    tau = tuple(tau)
    path = transposition_path(psi, pv.sigma, tau)  # checks both arrangements
    if not path:
        return pv
    forms = transported_forms(psi, pv.sigma, path, tau)
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
    psi: GoodParityParameter, start: Permutation, path: Iterable[int], comps: Sequence[int],
) -> tuple[AffineForm, ...]:
    """The entries of components ``comps`` after a vector on arrangement
    ``start`` of psi is swapped at the positions of ``path`` in turn (the
    ``bubble_path`` to some arrangement sigma), as affine forms in its
    entries; ``comps = sigma`` gives every position in order.

    Each swap applies the rule of ``phi_adjacent``, reading which component
    contains the other from ``psi.masks.contains`` and the contained one's
    length from ``psi.segments``.  A component's form is built on its first
    swap; one that no swap touches keeps its entry on ``start``.
    """
    contains, segments = psi.masks.contains, psi.segments
    images = list(start)
    forms: dict[int, dict[int, int]] = {}  # component -> {0: constant, k: coefficient of p_k}

    def form(comp: int) -> dict[int, int]:
        return forms.get(comp) or {0: 0, start.index(comp) + 1: 1}

    for h in path:
        x, y = images[h - 1], images[h]
        c, d = (x, y) if contains[x] >> y & 1 else (y, x)
        f_c, f_d = form(c), form(d)  # d flips to m_d - p_d, c adds p_d - q_d = 2 p_d - m_d
        for k, v in f_d.items():
            f_c[k] = f_c.get(k, 0) + 2 * v
        forms[c], forms[d] = f_c, {k: -v for k, v in f_d.items()}
        m_d = segments[d - 1].m
        f_c[0] -= m_d
        forms[d][0] += m_d
        images[h - 1], images[h] = y, x
    return tuple(
        (f[0], tuple((k - 1, v) for k, v in sorted(f.items()) if k and v))
        for f in map(form, comps)
    )
