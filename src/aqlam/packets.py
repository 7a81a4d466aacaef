"""Packet enumeration: all parameter vectors, survivors, and invariants.

A packet at a given rank collects every vector p with 0 <= p_i <= m_i and
fixed sum that passes the non-vanishing criterion; each survivor carries
its reduced antitableau and canonical signed rows (a complete invariant
pair), plus the p-adic image when the comparison is in domain.
``CompiledPackets`` compiles the criterion, the tableau reduction and the
p-adic image once per parameter.  The survivors come from the criterion's
lattice-point search, which never forms most vanishing vectors, and each
survivor is then described in one pass; with ``verify`` both engines
decide every vector of the box instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import sub
from typing import Hashable, Iterable, Iterator, Optional

from .criterion import CompiledCriterion, Witness, check_box_scan, lattice_points
from .errors import InputError, InvariantViolationError
from .halfint import HalfInt
from .padic import CompiledImage, ExtendedMultiSegment, in_padic_domain
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

    The lattice-point search with no checks: entry k takes only the values
    that the remaining entries can still complete to p_rank, so no vector
    of another rank is ever formed.
    """
    return list(lattice_points(tuple(s.m for s in psi.segments), p_rank))


def count_params(psi: GoodParityParameter, p_rank: int) -> int:
    """``len(enumerate_params(psi, p_rank))``, counted without listing."""
    n = psi.n
    if not 0 <= p_rank <= n:
        raise InputError(f"rank {p_rank} out of range 0..{n}")
    ways = [1] + [0] * n  # ways[t]: vectors of the entries so far summing to t
    for s in psi.segments:
        ways = [sum(ways[max(0, t - s.m) : t + 1]) for t in range(n + 1)]
    return ways[p_rank]


class CompiledPackets:
    """Packet enumeration for one parameter, ready for every rank.

    Compiles once what deciding and describing a vector needs apart from the
    vector: the criterion, the tableau reduction, the shifts lambda, the
    lengths m and, in the comparison domain, the p-adic image.
    ``described(rank)`` describes each survivor of the criterion's
    lattice-point search from integers, and ``entry``, ``packet`` and
    ``packets`` make ``PacketEntry`` objects of that.  With ``verify`` the
    box is scanned instead: the tableau engine re-decides every vector, and
    any disagreement with the criterion, or with the search, raises an
    invariant violation.
    """

    def __init__(self, psi: GoodParityParameter) -> None:
        self.psi = psi
        self.criterion = CompiledCriterion(psi)
        self.reduction = CompiledReduction(psi)
        self.lam = lambda_values(psi)
        self.m = self.criterion.m
        self.in_domain = in_padic_domain(psi)
        self.image = CompiledImage(psi) if self.in_domain else None

    def described(self, rank: Optional[int] = None, verify: bool = False) -> Iterator[tuple]:
        """``(p, types, rows)`` for each non-vanishing p of sum ``rank`` (of
        the box for None), lexicographic: the reduction's final types and
        signed rows.  A p the tableau engine zeroes raises an invariant
        violation."""
        return self._describe(self._survivors(rank, verify))

    def _describe(self, vectors: Iterable[tuple[int, ...]]) -> Iterator[tuple]:
        run = self.reduction.run
        for p in vectors:
            result = run(p)
            if isinstance(result, Witness):
                raise InvariantViolationError(
                    f"the criterion passes p={p} but the tableau engine zeroes it: {result}"
                )
            yield p, *result

    def _entry(self, p: tuple[int, ...], types: tuple, rows: Rows) -> PacketEntry:
        levi = tuple(zip(p, map(sub, self.m, p)))
        image = self.image.image(p) if self.image else None
        return PacketEntry(p, levi, self.lam, self.reduction.antitableau(types), rows, image)

    def entry(self, p: tuple[int, ...]) -> PacketEntry:
        """The entry of a non-vanishing vector (see ``described``)."""
        return self._entry(*next(self._describe([p])))

    def _survivors(self, rank: Optional[int], verify: bool) -> list[tuple[int, ...]]:
        """The non-vanishing vectors of sum ``rank`` (of the box for None),
        lexicographic.  The search runs to the end before any survivor is
        described, so its node budget refuses a job before the costly part."""
        found = list(self.criterion.survivors(rank))
        if not verify:
            return found
        check_box_scan(self.m)
        scanned = []
        for p in lattice_points(self.m, rank):
            verdict = self.criterion.verdict(p)
            tableau = not isinstance(self.reduction.run(p), Witness)
            if tableau != verdict.nonzero:
                raise InvariantViolationError(
                    f"engines disagree on p={p}: criterion says "
                    f"{verdict.nonzero}, tableau says {tableau}"
                )
            if verdict.nonzero:
                scanned.append(p)
        if scanned != found:
            raise InvariantViolationError(
                "the lattice-point search and the scan of the box disagree"
                f" on the survivors of {self.psi}"
            )
        return scanned

    def packet(self, rank: int, verify: bool = False) -> list[PacketEntry]:
        """Entries for exactly the non-vanishing vectors of sum ``rank``,
        lexicographic."""
        return [self._entry(*d) for d in self.described(rank, verify)]

    def packets(self, verify: bool = False) -> dict[int, list[PacketEntry]]:
        """``packet(rank)`` for every rank 0..n, from one search of the
        whole box bucketed by the sum."""
        out: dict[int, list[PacketEntry]] = {rank: [] for rank in range(self.psi.n + 1)}
        for d in self.described(None, verify):
            out[sum(d[0])].append(self._entry(*d))
        return out


def compute_packet(
    psi: GoodParityParameter, p_rank: int, verify: bool = False
) -> list[PacketEntry]:
    """Entries for exactly the non-vanishing vectors at the given rank.

    Compiles psi (see ``CompiledPackets``) and searches the rank's
    survivors; to do several ranks of one parameter, compile once.  Raises
    ``ResourceLimitError`` past the search's ``MAX_DFS_NODES`` budget.
    """
    return CompiledPackets(psi).packet(p_rank, verify)


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

    One lattice-point search finds the survivors of every rank (see
    ``CompiledPackets.packets``; ``verify`` scans the box with both engines
    instead).  A survivor that the tableau engine zeroes raises
    ``InvariantViolationError``, and a search past ``MAX_DFS_NODES`` nodes
    raises ``ResourceLimitError``.  For n odd each p-adic image must have
    exactly two preimages (p and its complement m - p); for n even the map
    must be injective.
    """
    compiled = CompiledPackets(psi)
    packets = compiled.packets(verify)
    if not compiled.in_domain:
        return AVReport(packets, None, None)
    images = (entry.padic_image for entries in packets.values() for entry in entries)
    return AVReport(packets, *fiber_audit(images, psi.n))


def fiber_audit(images: Iterable[Hashable], n: int) -> tuple[dict, bool]:
    """How many survivors share each p-adic image, and whether every image
    has the preimages it should: two (p and m - p) for n odd, one for n
    even."""
    sizes, want = Counter(images), 2 if n % 2 else 1
    return sizes, all(count == want for count in sizes.values())
