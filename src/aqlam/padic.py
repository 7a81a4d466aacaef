"""Extended multi-segments and the real-to-p-adic comparison.

A parameter vector p on an arrangement sigma maps to an extended
multi-segment: per component i, l_i = min(p, q) and a sign eta_i carrying
the parity of the partial length sums along the arrangement.  The pair
(l_i, eta_i) with 2 l_i = m_i is identified with (l_i, -eta_i); the
canonical form stores eta_i = + there.  Negative l_i encodes the zero
representation.

The transition maps, the adjacency conditions and the non-vanishing
verdict on this side mirror the real side exactly; the commuting squares
are tested properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import prod
from typing import Optional, Sequence

from .arrangements import (
    DEFAULT_MAX_R,
    Permutation,
    enumerate_admissible,
    transposition_path,
)
from .criterion import Verdict, Witness
from .errors import InputError, InvariantViolationError
from .segments import GoodParityParameter, Relation, relation
from .transition import ParamVector


def _sgnpow(exponent: int) -> int:
    return -1 if exponent % 2 else 1


@dataclass(frozen=True)
class ExtendedMultiSegment:
    """(l_i, eta_i) data over the components, on an admissible order.

    ``l`` and ``eta`` are indexed by component (position i-1 holds
    component i's data); ``sigma`` records which admissible order the
    data lives on.  Instances are kept canonical: eta_i = +1 whenever
    2 l_i = m_i.
    """

    l: tuple[int, ...]
    eta: tuple[int, ...]
    sigma: Permutation

    def __post_init__(self) -> None:
        if not all(e in (1, -1) for e in self.eta):
            raise InputError("eta entries must be +1 or -1")
        if len(self.l) != len(self.eta) or len(self.l) != len(self.sigma):
            raise InputError("component counts disagree")


def _canonical(
    psi: GoodParityParameter,
    l: Sequence[int],
    eta: Sequence[int],
    sigma: Sequence[int],
) -> ExtendedMultiSegment:
    l = tuple(l)
    eta = tuple(
        1 if 2 * l[i] == psi.m(i + 1) else eta[i] for i in range(len(l))
    )
    for i, li in enumerate(l, start=1):
        if 2 * li > psi.m(i):
            raise InvariantViolationError(f"2 l_{i} = {2 * li} exceeds m_{i}")
    return ExtendedMultiSegment(l, eta, tuple(sigma))


def to_extended(
    psi: GoodParityParameter, p: Sequence[int] | ParamVector
) -> ExtendedMultiSegment:
    """Reparametrize a vector: l = min(p, q), eta from partial length sums."""
    if not isinstance(p, ParamVector):
        p = ParamVector.reference(tuple(p))
    r = psi.r
    l = [0] * r
    eta = [1] * r
    acc = 0
    for pos, comp in enumerate(p.sigma):
        m = psi.m(comp)
        acc += m
        pk = p.entries[pos]
        qk = m - pk
        l[comp - 1] = min(pk, qk)
        sign = -1 if pk < qk else 1  # sgn(0) := +
        eta[comp - 1] = _sgnpow(acc + 1) * sign
    return _canonical(psi, l, eta, p.sigma)


def sign_of(psi: GoodParityParameter, ems: ExtendedMultiSegment) -> int:
    """The sign product prod (-1)^(floor(m_i/2) + l_i) eta_i^(m_i)."""
    if any(li < 0 for li in ems.l):
        raise InputError("sign is undefined on the zero extension (l_i < 0)")
    out = 1
    for i in range(1, psi.r + 1):
        m = psi.m(i)
        out *= _sgnpow(m // 2 + ems.l[i - 1])
        if m % 2:
            out *= ems.eta[i - 1]
    return out


def project_EF(
    psi: GoodParityParameter, ems: ExtendedMultiSegment
) -> ExtendedMultiSegment:
    """Quotient to the p-adic parameter space: identity for n even,
    a global eta-normalization (2-1) for n odd."""
    if psi.n % 2 == 0:
        return ems
    s = sign_of(psi, ems)
    if s == 1:
        return ems
    return _canonical(psi, ems.l, tuple(-e for e in ems.eta), ems.sigma)


class CompiledImage:
    """``project_EF(psi, to_extended(psi, p))`` for reference vectors p in
    the box, compiled once per parameter.

    On the reference order the sign eta_i carries (-1)^(M_i + 1), with M_i
    the partial length sum m_1 + ... + m_i, and the sign product of
    ``sign_of`` is a product of one factor per component, read from m_i // 2,
    m_i mod 2, l_i and eta_i; for n odd a negative product flips every sign
    not fixed by 2 l_i = m_i.  So each entry value p_i has its l_i, its
    eta_i, its flipped eta_i and its factor in a row of ``table`` (signs
    checked once), and ``pick(p)`` reads p's rows; ``to_extended`` and
    ``project_EF`` stay the reference definitions, and tests hold them equal.
    """

    def __init__(self, psi: GoodParityParameter) -> None:
        self.n_odd = psi.n % 2 == 1
        self.sigma = tuple(range(1, psi.r + 1))
        lengths, self.table = [s.m for s in psi.segments], []
        for m, acc in zip(lengths, accumulate(lengths)):
            sign = _sgnpow(acc + 1)
            column = []
            for p_i in range(m + 1):
                l_i = min(p_i, m - p_i)
                e_i = 1 if 2 * l_i == m else (-sign if 2 * p_i < m else sign)
                factor = _sgnpow(m // 2 + l_i) * (e_i if m % 2 else 1)
                column.append((l_i, e_i, 1 if 2 * l_i == m else -e_i, factor))
            self.table.append(column)
        if any(e not in (1, -1) for column in self.table for row in column for e in row[1:3]):
            raise InvariantViolationError("eta entries must be +1 or -1")

    def pick(self, p: Sequence[int], table: Optional[list[list[tuple]]] = None) -> tuple:
        """p's l and eta, read from the rows of ``table``: by default
        ``self.table``, or a copy of it with l and the signs written in some
        other form and the factors kept."""
        l, eta, flipped, factors = zip(*map(list.__getitem__, table or self.table, p))
        return l, flipped if self.n_odd and prod(factors) == -1 else eta

    def image(self, p: Sequence[int]) -> ExtendedMultiSegment:
        return ExtendedMultiSegment(*self.pick(p), self.sigma)


def _forward_swap(
    psi: GoodParityParameter,
    ems: ExtendedMultiSegment,
    i: int,
    j: int,
) -> tuple[int, int]:
    """Transition for the container i moving past the contained j.

    Returns the new (l_i, eta_i); j keeps l_j and flips eta by (-1)^(1+m_i).
    """
    m_i, m_j = psi.m(i), psi.m(j)
    l_i, e_i = ems.l[i - 1], ems.eta[i - 1]
    l_j, e_j = ems.l[j - 1], ems.eta[j - 1]
    if e_i == _sgnpow(1 + m_j) * e_j and m_i - 2 * l_i < 2 * (m_j - 2 * l_j):
        return m_i - l_i - m_j + 2 * l_j, _sgnpow(1 + m_j) * e_i
    return l_i + _sgnpow(1 + m_j) * e_i * e_j * (m_j - 2 * l_j), _sgnpow(m_j) * e_i


def padic_transition(
    psi: GoodParityParameter, ems: ExtendedMultiSegment, h: int
) -> ExtendedMultiSegment:
    """Transport across the swap of positions (h, h+1) of ems's order.

    Only containment pairs may swap.  When the container comes first the
    four-case formula applies directly; when the contained one comes first
    the map is the inverse of that formula, found by solving both branches
    and keeping the one that round-trips.
    """
    sigma = ems.sigma
    if not 1 <= h < len(sigma):
        raise InputError(f"swap position {h} out of range 1..{len(sigma) - 1}")
    i, j = sigma[h - 1], sigma[h]
    rel = relation(psi, i, j)
    if not rel.is_containment:
        raise InputError(
            f"cannot swap positions ({h},{h + 1}): components {i},{j} are "
            f"in precedence, not containment"
        )
    tau = sigma[: h - 1] + (j, i) + sigma[h + 1 :]
    l = list(ems.l)
    eta = list(ems.eta)
    if rel is Relation.CONTAINS:
        m_i = psi.m(i)
        l[i - 1], eta[i - 1] = _forward_swap(psi, ems, i, j)
        eta[j - 1] = _sgnpow(1 + m_i) * eta[j - 1]
        return _canonical(psi, l, eta, tau)
    # contained-first: invert the container-first formula j -> i
    m_i, m_j = psi.m(i), psi.m(j)
    l_i, e_i = ems.l[i - 1], ems.eta[i - 1]
    l_j, e_j = ems.l[j - 1], ems.eta[j - 1]
    candidates = []
    # branch A preimage
    eta_j_pre = _sgnpow(1 + m_i) * e_j
    candidates.append((m_j - l_j - m_i + 2 * l_i, _sgnpow(1 + m_i) * e_j))
    # branch B preimage
    eta_j_b = _sgnpow(m_i) * e_j
    eta_i_pre = _sgnpow(1 + m_j) * e_i
    candidates.append(
        (l_j - _sgnpow(1 + m_i) * eta_j_b * eta_i_pre * (m_i - 2 * l_i), eta_j_b)
    )
    eta_i_pre = _sgnpow(1 + m_j) * e_i
    for l_j_pre, e_j_pre in candidates:
        if 2 * l_j_pre > m_j:
            continue
        pre = _canonical(
            psi,
            _replace(ems.l, i - 1, l_i, j - 1, l_j_pre),
            _replace(ems.eta, i - 1, eta_i_pre, j - 1, e_j_pre),
            tau,
        )
        if padic_transition(psi, pre, h) == ems:
            return pre
    raise InvariantViolationError(
        f"no preimage for swap at position {h} of {ems}"
    )


def _replace(base: tuple, idx1: int, val1, idx2: int, val2) -> tuple:
    out = list(base)
    out[idx1] = val1
    out[idx2] = val2
    return tuple(out)


def _transport(
    psi: GoodParityParameter, ems: ExtendedMultiSegment, tau: Permutation
) -> ExtendedMultiSegment:
    out = ems
    for h in transposition_path(psi, ems.sigma, tau):
        out = padic_transition(psi, out, h)
    return out


def padic_cond_C(
    psi: GoodParityParameter, ems: ExtendedMultiSegment, i: int, j: int
) -> bool:
    """The adjacency condition on (l, eta), by relation and sign case."""
    sigma = ems.sigma
    pos_i, pos_j = sigma.index(i), sigma.index(j)
    if abs(pos_i - pos_j) != 1:
        raise InputError(f"components {i},{j} not adjacent in order {sigma}")
    if pos_i > pos_j:
        i, j = j, i
    l_i, l_j = ems.l[i - 1], ems.l[j - 1]
    m_i, m_j = psi.m(i), psi.m(j)
    a_i, a_j = psi.a(i), psi.a(j)
    rel = relation(psi, i, j)

    def holds(linked: bool) -> bool:
        if rel is Relation.PRECEDES:
            if linked:
                lo = (a_j - a_i - m_j + m_i) // 2
                hi = (a_i - a_j + m_i - m_j) // 2
                return lo <= l_i - l_j <= hi
            return l_i + l_j >= (a_j - a_i + m_j + m_i) // 2
        if rel is Relation.CONTAINS:
            if linked:
                return 0 <= l_i - l_j <= m_i - m_j
            return l_i + l_j >= m_j
        if rel is Relation.CONTAINED:
            # Interval on container minus contained, mirroring the other
            # containment orientation.
            if linked:
                return 0 <= l_j - l_i <= m_j - m_i
            return l_i + l_j >= m_i
        raise InputError(f"component {i} is preceded by its successor {j}")

    # The stored sign of a component with 2l = m is a convention, not data:
    # both choices name the same point.  The condition holds if it holds for
    # some choice of the undetermined signs.
    choices_i = (1, -1) if 2 * l_i == m_i else (ems.eta[i - 1],)
    choices_j = (1, -1) if 2 * l_j == m_j else (ems.eta[j - 1],)
    return any(
        holds(e_i == _sgnpow(1 + m_j) * e_j)
        for e_i in choices_i
        for e_j in choices_j
    )


def in_padic_domain(psi: GoodParityParameter) -> bool:
    """True iff every segment end is >= 0, the domain of the comparison."""
    return all(s.e.twice >= 0 for s in psi.segments)


def padic_nonvanishing(
    psi: GoodParityParameter,
    ems: ExtendedMultiSegment,
    max_r: int = DEFAULT_MAX_R,
) -> Verdict:
    """Non-vanishing on the p-adic side: l >= 0 and the adjacency
    conditions at every admissible order."""
    if not in_padic_domain(psi):
        raise InputError(
            f"{psi} has a segment end < 0; "
            "the p-adic comparison needs all segment ends >= 0"
        )
    for sigma in enumerate_admissible(psi, max_r=max_r):
        moved = _transport(psi, ems, sigma)
        for i in range(1, psi.r + 1):
            if moved.l[i - 1] < 0:
                return Verdict(
                    False, Witness("B", (i,), sigma, (moved.l[i - 1],))
                )
        for h in range(psi.r - 1):
            i, j = sigma[h], sigma[h + 1]
            if not padic_cond_C(psi, moved, i, j):
                values = (
                    moved.l[i - 1],
                    moved.eta[i - 1],
                    moved.l[j - 1],
                    moved.eta[j - 1],
                )
                return Verdict(False, Witness("C", (i, j), sigma, values))
    return Verdict(True)
