"""Packet enumeration: all parameter vectors, survivors, and invariants.

A packet at a given rank collects every vector p with 0 <= p_i <= m_i and
fixed sum that passes the non-vanishing criterion; each survivor carries
its reduced antitableau and canonical signed rows (a complete invariant
pair), plus the p-adic image when the comparison is in domain.  Both
engines are compiled once per parameter (``CompiledPackets``), so
``arthur_vogan`` pays for that once for all ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .criterion import CompiledCriterion
from .errors import InputError, InvariantViolationError
from .halfint import HalfInt
from .padic import ExtendedMultiSegment, in_padic_domain, project_EF, to_extended
from .segments import GoodParityParameter, lambda_values
from .tableau import CompiledReduction, Rows

Antitableau = tuple[tuple[HalfInt, ...], ...]


@dataclass(frozen=True)
class PacketEntry:
    p: tuple[int, ...]
    levi: tuple[tuple[int, int], ...]
    lam: tuple[HalfInt, ...]
    antitableau: Antitableau
    rows: Rows
    padic_image: Optional[ExtendedMultiSegment]


def enumerate_params(
    psi: GoodParityParameter, p_rank: int
) -> list[tuple[int, ...]]:
    """All integer vectors in the box summing to p_rank, lexicographic.

    Built one entry at a time, giving entry k only the values that the
    remaining entries can still complete to p_rank, so no vector of another
    rank is ever formed.
    """
    n = psi.n
    if not 0 <= p_rank <= n:
        raise InputError(f"rank {p_rank} out of range 0..{n}")
    m = [s.m for s in psi.segments]
    room = [sum(m[k:]) for k in range(len(m) + 1)]  # most entries k.. can hold
    level = [((), p_rank)]  # (prefix, what the rest must add up to)
    for k in range(len(m)):
        level = [
            (prefix + (v,), remaining - v)
            for prefix, remaining in level
            for v in range(max(0, remaining - room[k + 1]), min(m[k], remaining) + 1)
        ]
    return [prefix for prefix, _ in level]


class CompiledPackets:
    """Packet enumeration for one parameter, ready for every rank.

    Compiles once what deciding and describing a vector needs apart from the
    vector: the criterion, the tableau reduction, the shifts lambda and
    whether the p-adic comparison applies.
    """

    def __init__(self, psi: GoodParityParameter) -> None:
        self.psi = psi
        self.criterion = CompiledCriterion(psi)
        self.reduction = CompiledReduction(psi)
        self.lam = lambda_values(psi)
        self.in_domain = in_padic_domain(psi)

    def entries(
        self, vectors: Iterable[Sequence[int]], verify: bool = False
    ) -> list[PacketEntry]:
        """Entries for exactly the non-vanishing vectors among ``vectors``.

        The criterion decides; survivors are reduced to their antitableau.
        With ``verify`` the tableau engine re-decides every vector and any
        disagreement raises an invariant violation.
        """
        psi = self.psi
        out = []
        for p in vectors:
            verdict = self.criterion.verdict(p)
            if verify or verdict.nonzero:
                reduction = self.reduction.reduce(p)
                if verify and reduction.nonzero != verdict.nonzero:
                    raise InvariantViolationError(
                        f"engines disagree on p={p}: criterion says "
                        f"{verdict.nonzero}, tableau says {reduction.nonzero}"
                    )
            if not verdict.nonzero:
                continue
            image = None
            if self.in_domain:
                image = project_EF(psi, to_extended(psi, p))
            out.append(
                PacketEntry(
                    p=tuple(p),
                    levi=tuple((pi, psi.m(i + 1) - pi) for i, pi in enumerate(p)),
                    lam=self.lam,
                    antitableau=reduction.antitableau,
                    rows=reduction.rows,
                    padic_image=image,
                )
            )
        return out


def compute_packet(
    psi: GoodParityParameter, p_rank: int, verify: bool = False
) -> list[PacketEntry]:
    """Entries for exactly the non-vanishing vectors at the given rank.

    Compiles psi (see ``CompiledPackets``) and scans the rank's vectors; to
    scan several ranks of one parameter, compile once.
    """
    return CompiledPackets(psi).entries(enumerate_params(psi, p_rank), verify)


def multiplicity_report(
    entries: list[PacketEntry],
) -> tuple[bool, list[tuple[PacketEntry, PacketEntry]]]:
    """Check that the (antitableau, rows) invariant pairs are distinct."""
    seen: dict[tuple, PacketEntry] = {}
    collisions = []
    for entry in entries:
        key = (entry.antitableau, entry.rows)
        if key in seen:
            collisions.append((seen[key], entry))
        else:
            seen[key] = entry
    return not collisions, collisions


@dataclass(frozen=True)
class AVReport:
    """Packets across all ranks, with the p-adic fiber audit when possible."""

    packets: dict[int, list[PacketEntry]]
    fiber_sizes: Optional[dict[ExtendedMultiSegment, int]]
    fibers_ok: Optional[bool]

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.packets.values())


def arthur_vogan(psi: GoodParityParameter, verify: bool = False) -> AVReport:
    """Packets for every rank 0..n plus the fiber audit of the p-adic map.

    For n odd each p-adic image must have exactly two preimages (p and its
    complement m - p); for n even the map must be injective.
    """
    compiled = CompiledPackets(psi)
    packets = {
        rank: compiled.entries(enumerate_params(psi, rank), verify)
        for rank in range(psi.n + 1)
    }
    if not compiled.in_domain:
        return AVReport(packets, None, None)
    sizes: dict[ExtendedMultiSegment, int] = {}
    for entries in packets.values():
        for entry in entries:
            sizes[entry.padic_image] = sizes.get(entry.padic_image, 0) + 1
    want = 2 if psi.n % 2 else 1
    ok = all(count == want for count in sizes.values())
    return AVReport(packets, sizes, ok)
