"""Packet enumeration: all parameter vectors, survivors, and invariants.

A packet at a given rank collects every vector p with 0 <= p_i <= m_i and
fixed sum that passes the non-vanishing criterion; each survivor carries
its reduced antitableau and canonical signed rows (a complete invariant
pair), plus the p-adic image when the comparison is in domain.  An entry
is described once, as the compact, key-sorted JSON text that the command
line prints.  ``CompiledPackets`` compiles the criterion, the tableau
reduction and the p-adic image once per parameter.  The survivors come
from the criterion's lattice-point search, which never forms most
vanishing vectors, and each survivor is then written in one pass from the
reduction's numbered final types and row counts; with
``verify`` both engines decide every vector of the rank (or box) too.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Hashable, Iterable, Iterator, Optional

from .criterion import CompiledCriterion, Witness, lattice_points
from .errors import InputError, InvariantViolationError
from .halfint import HalfInt
from .padic import CompiledImage, in_padic_domain
from .segments import GoodParityParameter, lambda_values
from .tableau import CompiledReduction


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
    """``len(enumerate_params(psi, p_rank))``, counted without listing: the
    vectors of the entries so far summing to each t <= p_rank, each step a
    difference of prefix sums."""
    n = psi.n
    if not 0 <= p_rank <= n:
        raise InputError(f"rank {p_rank} out of range 0..{n}")
    ways = [1] + [0] * p_rank  # ways[t]: vectors of the entries so far summing to t
    for s in psi.segments:
        sums = [0, *accumulate(ways)]  # sums[t]: ways[0] + ... + ways[t - 1]
        ways = [sums[t + 1] - sums[max(0, t - s.m)] for t in range(p_rank + 1)]
    return ways[p_rank]


class CompiledPackets:
    """Packet enumeration for one parameter, ready for every rank.

    Compiles once what deciding and describing a vector needs apart from the
    vector: the criterion, the tableau reduction and, in the comparison
    domain, the p-adic image.  ``entries(rank)`` writes each survivor of
    the criterion's lattice-point search as the JSON text of its entry and
    of its image, the only description of a packet entry.  It reads the
    reduction's numbered state (``CompiledReduction.final_state``: the
    final types, their number and the row counts), not a rows tuple.  The
    texts are spliced from pieces written once per parameter: the rows
    from each length's piece repeated by its count, and, since survivors
    often share their final types, each antitableau's text once per
    number of final types (``grids``).  The pieces and the image's table
    are built on the first survivor, after the search has returned, so its
    node budget refuses a job before anything is built per entry value;
    the reduction refuses a parameter of more than ``tableau.MAX_BOXES``
    boxes at construction.
    With ``verify`` the rank (or the box) is scanned too: the tableau
    engine re-decides every vector, and any disagreement with the
    criterion, or with the search, raises an invariant violation.
    """

    def __init__(self, psi: GoodParityParameter) -> None:
        self.psi = psi
        self.criterion = CompiledCriterion(psi)
        self.reduction = CompiledReduction(psi)
        self.m = self.criterion.m
        self.in_domain = in_padic_domain(psi)
        self.grids: dict[int, str] = {}  # number of the final types -> antitableau text

    @cached_property
    def image(self) -> Optional[CompiledImage]:
        return CompiledImage(self.psi) if self.in_domain else None

    @cached_property
    def _pieces(self) -> tuple:
        """The text of the lambda, of each Levi pair and entry value, of the
        signed rows of each length (with the length and a comma after each
        row), of each antitableau cell, and the image's sigma and each row
        of its table with l and the signs written as text."""
        r, quoted = self.psi.r, {1: '"+"', -1: '"-"'}
        table = self.image.table if self.image else []
        return (
            ",".join(f'"{x}"' for x in lambda_values(self.psi)),
            [[f"[{v},{m - v}]" for v in range(m + 1)] for m in self.m],
            [str(v) for v in range(max(self.m) + 1)],
            [(t, f'[{t},"+"],', f'[{t},"-"],') for t in range(r, 0, -1)],
            self.reduction.cells(lambda twice: f'"{HalfInt(twice)}"'),
            [[(str(l), quoted[e], quoted[f], x) for l, e, f, x in c] for c in table],
            f'],"sigma":[{",".join(map(str, range(1, r + 1)))}]}}',
        )

    def entries(self, rank: Optional[int] = None,
                verify: bool = False) -> Iterator[tuple[tuple[int, ...], str, str]]:
        """``(p, entry, image)`` for each non-vanishing p of sum ``rank``
        (of the box for None), lexicographic: the compact, key-sorted JSON
        text of p's entry (keys antitableau, lambda, levi, p, padic_image
        and rows) and of its p-adic image ("null" outside the comparison
        domain).  The antitableau is written once per number of final
        types, and the rows from the reduction's row counts: longest first,
        '+' rows before '-' rows of one length.  A p the tableau engine
        zeroes raises an invariant violation."""
        grids, final_state = self.grids, self.reduction.final_state
        for p in self._survivors(rank, verify):
            result = final_state(p)
            if isinstance(result, Witness):
                raise InvariantViolationError(
                    f"the criterion passes p={p} but the tableau engine zeroes it: {result}"
                )
            types, number, plus, minus = result
            lam, levi, digits, signed, cells, padic, sigma = self._pieces
            image = "null"
            if self.image:
                l, eta = self.image.pick(p, padic)
                image = f'{{"eta":[{",".join(eta)}],"l":[{",".join(l)}{sigma}'
            grid = grids.get(number)
            if grid is None:
                grid = grids[number] = "],[".join(
                    map(",".join, self.reduction.antitableau(types, cells))
                )
            rows = "".join([on * plus[t] + off * minus[t] for t, on, off in signed])
            yield p, (
                f'{{"antitableau":[[{grid}]],"lambda":[{lam}],'
                f'"levi":[{",".join(map(list.__getitem__, levi, p))}],'
                f'"p":[{",".join(map(digits.__getitem__, p))}],"padic_image":{image},'
                f'"rows":[{rows[:-1]}]}}'
            ), image

    def _survivors(self, rank: Optional[int], verify: bool) -> list[tuple[int, ...]]:
        """The non-vanishing vectors of sum ``rank`` (of the box for None),
        lexicographic.  The search runs to the end before any survivor is
        described, so its node budget refuses a job before the costly part;
        with ``verify``, the search without checks then lists the vectors to
        scan before any is decided, under the same budget."""
        found = list(self.criterion.survivors(rank))
        if not verify:
            return found
        scanned = []
        for p in list(lattice_points(self.m, rank)):
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


def compute_packet(psi: GoodParityParameter, p_rank: int, verify: bool = False) -> list[str]:
    """The entry texts (see ``CompiledPackets.entries``) of exactly the
    non-vanishing vectors at the given rank, lexicographic: what ``aqlam
    packet`` prints as its entries.

    Compiles psi and searches the rank's survivors; to do several ranks of
    one parameter, compile once.  Raises ``ResourceLimitError`` past the
    search's ``MAX_DFS_NODES`` budget or the reduction's ``MAX_BOXES``.
    """
    return [entry for _, entry, _ in CompiledPackets(psi).entries(p_rank, verify)]


def multiplicity_report(entries: list[str]) -> tuple[bool, list[tuple[str, str]]]:
    """Check that the (antitableau, rows) invariant pairs that the entry
    texts hold are distinct."""
    seen: dict[str, str] = {}
    collisions = []
    for entry in entries:
        decoded = json.loads(entry)
        key = json.dumps([decoded["antitableau"], decoded["rows"]])
        if key in seen:
            collisions.append((seen[key], entry))
        else:
            seen[key] = entry
    return not collisions, collisions


@dataclass(frozen=True)
class AVReport:
    """Packets across all ranks as entry texts, with the p-adic fiber audit
    when possible: how many survivors share each image text."""

    packets: dict[int, list[str]]
    fiber_sizes: Optional[dict[str, int]]
    fibers_ok: Optional[bool]

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.packets.values())


def arthur_vogan(psi: GoodParityParameter, verify: bool = False) -> AVReport:
    """Packets for every rank 0..n plus the fiber audit of the p-adic map.

    One lattice-point search finds the survivors of every rank, and each is
    written as in ``CompiledPackets.entries`` (``verify`` scans the box
    with both engines instead); the ranks are filled after the search.  A
    survivor that the tableau engine zeroes raises
    ``InvariantViolationError``, and a search past ``MAX_DFS_NODES`` nodes,
    or a parameter past ``MAX_BOXES`` boxes, raises ``ResourceLimitError``.
    For n odd each p-adic image must have exactly two preimages (p and its
    complement m - p); for n even the map must be injective.
    """
    compiled = CompiledPackets(psi)
    by_rank: defaultdict[int, list[str]] = defaultdict(list)
    images = []
    for p, entry, image in compiled.entries(None, verify):
        by_rank[sum(p)].append(entry)
        images.append(image)
    audit = fiber_audit(images, psi.n) if compiled.in_domain else (None, None)
    return AVReport({rank: by_rank[rank] for rank in range(psi.n + 1)}, *audit)


def fiber_audit(images: Iterable[Hashable], n: int) -> tuple[dict, bool]:
    """How many survivors share each p-adic image, and whether every image
    has the preimages it should: two (p and m - p) for n odd, one for n
    even."""
    sizes, want = Counter(images), 2 if n % 2 else 1
    return sizes, all(count == want for count in sizes.values())
