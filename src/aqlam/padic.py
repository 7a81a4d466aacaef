"""Extended multi-segments and the real-to-p-adic comparison.

A parameter vector p on an arrangement sigma maps to an extended
multi-segment: per component i, l_i = min(p, q) and a sign eta_i carrying
the parity of the partial length sums along the arrangement.  The pair
(l_i, eta_i) with 2 l_i = m_i is identified with (l_i, -eta_i); the
canonical form stores eta_i = + there.  Negative l_i encodes the zero
representation.

The transition maps, the adjacency conditions and the non-vanishing
verdict on this side mirror the real side exactly; the commuting squares
are tested properties.  Like real condition C, min(p_i, q_j) +
min(q_i, p_j) >= #(nu_i cap nu_j), each rule is one formula over the
segment ends [b, e], with no case split by relation.  For i just before j,
condition C is lo <= l_i - l_j <= hi on a linked pair, lo and hi summing
min(0, -) and max(0, -) over e_j - e_i and b_i - b_j, and
l_i + l_j >= min(b_i, b_j) - max(e_i, e_j) + 1 on an unlinked one.  A swap
adds +-(m_d - 2 l_d) to the container's l_c and folds the sum x to m_c - x
when 2x > m_c: Atobe's change of order of extended multi-segments when the
container comes first, its inverse when the contained one does.
``ExtendedMultiSegment`` does not know psi, so every public function here
that takes one first checks that it lives on psi: its order is a
permutation of 1..r and 2 l_i <= m_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .arrangements import (
    Permutation,
    enumerate_admissible,
    transposition_path,
)
from .criterion import Verdict, Witness, _reference_entries
from .errors import InputError, InvariantViolationError, check_ints
from .segments import GoodParityParameter, Relation, check_arrangement, relation
from .transition import ParamVector, _swap_pair


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
        check_ints("l entry", self.l)
        check_ints("eta entry", self.eta)
        if not all(e in (1, -1) for e in self.eta):
            raise InputError("eta entries must be +1 or -1")
        if len(self.l) != len(self.eta) or len(self.l) != len(self.sigma):
            raise InputError("component counts disagree")


def _check(psi: GoodParityParameter, ems: ExtendedMultiSegment) -> None:
    """Reject data that does not live on psi: an order that is not a
    permutation of 1..r (so also a wrong component count) or 2 l_i > m_i."""
    r = psi.r
    check_ints("order image", ems.sigma)
    if sorted(ems.sigma) != list(range(1, r + 1)):
        raise InputError(f"order {ems.sigma} is not a permutation of 1..{r}")
    for i, (l_i, s) in enumerate(zip(ems.l, psi.segments), start=1):
        if 2 * l_i > s.m:
            raise InputError(f"2 l_{i} = {2 * l_i} exceeds m_{i} = {s.m}")


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
    if isinstance(p, ParamVector):
        check_arrangement(psi, p.sigma)
    else:
        p = ParamVector.reference(_reference_entries(psi, p))
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
    _check(psi, ems)
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
    _check(psi, ems)
    if psi.n % 2 == 0:
        return ems
    s = sign_of(psi, ems)
    if s == 1:
        return ems
    return _canonical(psi, ems.l, tuple(-e for e in ems.eta), ems.sigma)


def image_table(psi: GoodParityParameter) -> list[list[tuple[int, int, int, int]]]:
    """``project_EF(psi, to_extended(psi, p))`` for reference vectors p in
    the box, as a column of rows per component, one row per entry value.

    On the reference order the sign eta_i carries (-1)^(M_i + 1), with M_i
    the partial length sum m_1 + ... + m_i, and the sign product of
    ``sign_of`` is a product of one factor per component, read from m_i // 2,
    m_i mod 2, l_i and eta_i; for n odd a negative product flips every sign
    not fixed by 2 l_i = m_i.  So each entry value p_i has its l_i, its
    eta_i, its flipped eta_i and its factor in a row of component i's column
    (signs checked once), from which ``packets.packet_entries`` writes the
    image; ``to_extended`` and ``project_EF`` stay the reference
    definitions, and tests hold them equal.
    """
    lengths, table = [s.m for s in psi.segments], []
    for m, acc in zip(lengths, accumulate(lengths)):
        sign = _sgnpow(acc + 1)
        column = []
        for p_i in range(m + 1):
            l_i = min(p_i, m - p_i)
            e_i = 1 if 2 * l_i == m else (-sign if 2 * p_i < m else sign)
            factor = _sgnpow(m // 2 + l_i) * (e_i if m % 2 else 1)
            column.append((l_i, e_i, 1 if 2 * l_i == m else -e_i, factor))
        table.append(column)
    if any(e not in (1, -1) for column in table for row in column for e in row[1:3]):
        raise InvariantViolationError("eta entries must be +1 or -1")
    return table


def padic_transition(
    psi: GoodParityParameter, ems: ExtendedMultiSegment, h: int
) -> ExtendedMultiSegment:
    """Transport across the swap of positions (h, h+1) of ems's order.

    Only containment pairs may swap.  Write c for the container, d for the
    contained component, s(k) = (-1)^k, and t = s(1+m_d) when c comes first,
    s(1+m_c) when d does.  d keeps l_d and takes s(1+m_c) eta_d; c takes
    x = l_c + eta_c eta_d t (m_d - 2 l_d) and s(m_d) eta_c, folded to
    (m_c - x, -s(m_d) eta_c) when 2x > m_c.  With c first this is the change
    of order of the extended multi-segment, whose two branches are the sum
    and the fold; with d first it is the inverse, t undoing the factor that
    the forward map puts on eta_d.  An erased sign does not move the image:
    flipping eta_c at 2 l_c = m_c trades the sum for its fold, and eta_d at
    2 l_d = m_d multiplies 0.
    """
    _check(psi, ems)
    sigma = ems.sigma
    check_arrangement(psi, sigma)
    c, d = _swap_pair(psi, sigma, h)
    m_c, m_d = psi.m(c), psi.m(d)
    l, eta = list(ems.l), list(ems.eta)
    t = _sgnpow(1 + (m_d if c == sigma[h - 1] else m_c))
    x = l[c - 1] + eta[c - 1] * eta[d - 1] * t * (m_d - 2 * l[d - 1])
    e_c = _sgnpow(m_d) * eta[c - 1]
    eta[d - 1] *= _sgnpow(1 + m_c)
    l[c - 1], eta[c - 1] = (m_c - x, -e_c) if 2 * x > m_c else (x, e_c)
    return _canonical(psi, l, eta, sigma[: h - 1] + (sigma[h], sigma[h - 1]) + sigma[h + 1 :])


def padic_cond_C(
    psi: GoodParityParameter, ems: ExtendedMultiSegment, i: int, j: int
) -> bool:
    """Condition C on (l, eta) for the adjacent pair i, j, named in either
    order.  With i placed first, the pair is linked when
    eta_i = (-1)^(1+m_j) eta_j: a linked pair needs lo <= l_i - l_j <= hi,
    an unlinked one l_i + l_j >= common, the intersection size not clamped
    at 0.  A sign erased by 2 l = m is a convention, not data: both of its
    choices name the same point, so it lets either case hold.  Data on an
    order that is not admissible is an ``InputError``, named by the pair
    when the pair itself is out of order.
    """
    _check(psi, ems)
    rel = relation(psi, i, j)  # validates the indices
    pos_i, pos_j = ems.sigma.index(i), ems.sigma.index(j)
    if abs(pos_i - pos_j) != 1:
        raise InputError(f"components {i},{j} not adjacent in order {ems.sigma}")
    if pos_i > pos_j:
        i, j, rel = j, i, relation(psi, j, i)
    if rel is Relation.PRECEDED_BY:
        raise InputError(f"component {i} is preceded by its successor {j}")
    check_arrangement(psi, ems.sigma)
    return _cond_C(psi, ems, i, j)


def _cond_C(psi: GoodParityParameter, ems: ExtendedMultiSegment, i: int, j: int) -> bool:
    """The rule of ``padic_cond_C`` for i placed just before j, on data that
    lives on psi and an admissible order."""
    s, t = psi.segments[i - 1], psi.segments[j - 1]
    b_i, e_i, b_j, e_j = s.b.twice, s.e.twice, t.b.twice, t.e.twice
    l_i, l_j = ems.l[i - 1], ems.l[j - 1]
    # the ends lie on one grid, so every difference of doubled ends is even
    lo = (min(0, e_j - e_i) + min(0, b_i - b_j)) // 2
    hi = (max(0, e_j - e_i) + max(0, b_i - b_j)) // 2
    common = (min(b_i, b_j) - max(e_i, e_j)) // 2 + 1
    linked = ems.eta[i - 1] == _sgnpow(1 + t.m) * ems.eta[j - 1]
    erased = 2 * l_i == s.m or 2 * l_j == t.m
    return ((linked or erased) and lo <= l_i - l_j <= hi
            or (not linked or erased) and l_i + l_j >= common)


def in_padic_domain(psi: GoodParityParameter) -> bool:
    """True iff every segment end is >= 0, the domain of the comparison."""
    return all(s.e.twice >= 0 for s in psi.segments)


def padic_nonvanishing(
    psi: GoodParityParameter,
    ems: ExtendedMultiSegment,
) -> Verdict:
    """Non-vanishing on the p-adic side: l >= 0 and the adjacency
    conditions at every admissible order.  ems is checked once; each
    adjacent pair is then decided by the rule of ``padic_cond_C``, as
    ``criterion.nonvanishing`` decides the real condition C."""
    _check(psi, ems)
    if not in_padic_domain(psi):
        raise InputError(
            f"{psi} has a segment end < 0; "
            "the p-adic comparison needs all segment ends >= 0"
        )
    for sigma in enumerate_admissible(psi):
        moved = ems
        for h in transposition_path(psi, ems.sigma, sigma):
            moved = padic_transition(psi, moved, h)
        for i in range(1, psi.r + 1):
            if moved.l[i - 1] < 0:
                return Verdict(
                    False, Witness("B", (i,), sigma, (moved.l[i - 1],))
                )
        for h in range(psi.r - 1):
            i, j = sigma[h], sigma[h + 1]
            if not _cond_C(psi, moved, i, j):
                values = (
                    moved.l[i - 1],
                    moved.eta[i - 1],
                    moved.l[j - 1],
                    moved.eta[j - 1],
                )
                return Verdict(False, Witness("C", (i, j), sigma, values))
    return Verdict(True)
