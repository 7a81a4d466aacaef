"""Packet enumeration: all parameter vectors, survivors, and invariants.

A packet at a given rank collects every vector p with 0 <= p_i <= m_i and
fixed sum that passes the non-vanishing criterion; each survivor carries
its reduced antitableau and canonical signed rows (a complete invariant
pair), plus the p-adic image when the comparison is in domain.  An entry
is described once, as the compact, key-sorted JSON text that the command
line prints, by one generator, ``packet_entries``.  It compiles the
criterion and the tableau reduction for the parameter, and takes the
survivors from the criterion's lattice-point search, which never forms
most vanishing vectors, in lexicographic order; each survivor is then
written from the prefix of entry texts it shares with the survivor before
it, from the reduction's numbered final types and row counts and from the
p-adic image's table; with ``verify`` both engines decide every vector of
the rank (or box) too.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate
from typing import Hashable, Iterable, Iterator, Optional

from .criterion import CompiledCriterion, Witness, lattice_points
from .errors import InputError, InvariantViolationError
from .halfint import HalfInt
from .padic import image_table, in_padic_domain
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


def packet_entries(
    psi: GoodParityParameter, rank: Optional[int] = None, verify: bool = False
) -> Iterator[tuple[tuple[int, ...], str, str]]:
    """``(p, entry, image)`` for each non-vanishing p of sum ``rank`` (of
    the box for None), lexicographic: the compact, key-sorted JSON text of
    p's entry (keys antitableau, lambda, levi, p, padic_image and rows) and
    of its p-adic image ("null" outside the comparison domain), the only
    description of a packet entry.

    Compiles the criterion and the tableau reduction (which refuses a
    parameter of more than ``tableau.MAX_BOXES`` boxes), and runs the
    search, and with ``verify`` the scan, to the end before anything is
    built per entry value, so the search's node budget refuses a job first
    and a rank with no survivor builds nothing more.  Each entry is written
    from the prefix it shares with the survivor before it: ``stack[k]``
    holds the texts of levi, p, l, eta and the flipped eta for entries
    1..k of the last survivor, each with a trailing comma, and the product
    of their image factors, and the reduction's numbered state
    (``CompiledReduction.final_states``: the final types, their number and
    the row counts) resumes at the first canonical entry that differs.
    The texts are spliced from pieces written once: the rows from each
    length's piece repeated by its count, longest first and '+' rows before
    '-' rows of one length, and each antitableau's text once per number of
    final types, since survivors often share them.  The quoted cells are
    written before the image's table exists, since writing them briefly
    takes more memory than they keep.  A p the tableau engine zeroes raises
    an invariant violation.
    """
    criterion, reduction = CompiledCriterion(psi), CompiledReduction(psi)
    found = _survivors(criterion, reduction, rank, verify)
    if not found:
        return
    r, m, quoted = psi.r, criterion.m, {1: '"+",', -1: '"-",'}
    lam = ",".join(f'"{x}"' for x in lambda_values(psi))
    signed = [(t, f'[{t},"+"],', f'[{t},"-"],') for t in range(r, 0, -1)]
    cells = reduction.cells(lambda twice: f'"{HalfInt(twice)}"')
    numerals = [f"{v}," for v in range(max(m) + 1)]
    # per component and entry value: the Levi pair, the value and its image
    # row's l, eta and flipped eta, each with a comma after it, and the
    # row's sign factor
    values = [
        [(f"[{v},{m_i - v}],", numerals[v], numerals[l], quoted[e], quoted[f], x)
         for v, (l, e, f, x) in enumerate(column)]
        for m_i, column in zip(m, image_table(psi))
    ]
    sigma = f'],"sigma":[{",".join(map(str, range(1, r + 1)))}]}}'
    in_domain, n_odd = in_padic_domain(psi), psi.n % 2 == 1
    grids: dict[int, str] = {}  # number of the final types -> antitableau text
    stack, last = [("", "", "", "", "", 1)], ()
    for p, result in zip(found, reduction.final_states(found)):
        if isinstance(result, Witness):
            raise InvariantViolationError(
                f"the criterion passes p={p} but the tableau engine zeroes it: {result}"
            )
        types, number, plus, minus = result
        k = 0
        while k < len(last) and p[k] == last[k]:
            k += 1
        del stack[k + 1 :]
        levi, digits, l, eta, flipped, product = stack[k]
        for i in range(k, len(p)):
            levi_i, digit, l_i, eta_i, flipped_i, factor = values[i][p[i]]
            levi, digits, l = levi + levi_i, digits + digit, l + l_i
            eta, flipped, product = eta + eta_i, flipped + flipped_i, product * factor
            stack.append((levi, digits, l, eta, flipped, product))
        last, image = p, "null"
        if in_domain:
            signs = flipped if n_odd and product < 0 else eta
            image = f'{{"eta":[{signs[:-1]}],"l":[{l[:-1]}{sigma}'
        grid = grids.get(number)
        if grid is None:
            grid = grids[number] = "],[".join(map(",".join, reduction.antitableau(types, cells)))
        rows = "".join([on * plus[t] + off * minus[t] for t, on, off in signed])
        yield p, (
            f'{{"antitableau":[[{grid}]],"lambda":[{lam}],"levi":[{levi[:-1]}],'
            f'"p":[{digits[:-1]}],"padic_image":{image},"rows":[{rows[:-1]}]}}'
        ), image


def _survivors(criterion: CompiledCriterion, reduction: CompiledReduction,
               rank: Optional[int], verify: bool) -> list[tuple[int, ...]]:
    """The non-vanishing vectors of sum ``rank`` (of the box for None),
    lexicographic, from the criterion's lattice-point search.  With
    ``verify``, the search without checks then lists the vectors to scan
    before any is decided, under the same budget, and the tableau engine
    re-decides every one: any disagreement with the criterion, or with the
    search, raises an invariant violation."""
    found = list(criterion.survivors(rank))
    if not verify:
        return found
    scanned = []
    for p in list(lattice_points(criterion.m, rank)):
        verdict = criterion.verdict(p)
        tableau = not isinstance(reduction.run(p), Witness)
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
            f" on the survivors of {criterion.psi}"
        )
    return scanned


def compute_packet(psi: GoodParityParameter, p_rank: int, verify: bool = False) -> list[str]:
    """The entry texts (see ``packet_entries``) of exactly the
    non-vanishing vectors at the given rank, lexicographic: what ``aqlam
    packet`` prints as its entries.

    Compiles psi and searches the rank's survivors; ``packet_entries(psi)``
    writes every rank from one search.  Raises ``ResourceLimitError`` past the
    search's ``MAX_DFS_NODES`` budget or the reduction's ``MAX_BOXES``.
    """
    return [entry for _, entry, _ in packet_entries(psi, p_rank, verify)]


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
    written by ``packet_entries`` (``verify`` scans the box
    with both engines instead); the ranks are filled after the search.  A
    survivor that the tableau engine zeroes raises
    ``InvariantViolationError``, and a search past ``MAX_DFS_NODES`` nodes,
    or a parameter past ``MAX_BOXES`` boxes, raises ``ResourceLimitError``.
    For n odd each p-adic image must have exactly two preimages (p and its
    complement m - p); for n even the map must be injective.
    """
    by_rank: defaultdict[int, list[str]] = defaultdict(list)
    images = []
    for p, entry, image in packet_entries(psi, None, verify):
        by_rank[sum(p)].append(entry)
        images.append(image)
    audit = fiber_audit(images, psi.n) if in_padic_domain(psi) else (None, None)
    return AVReport({rank: by_rank[rank] for rank in range(psi.n + 1)}, *audit)


def fiber_audit(images: Iterable[Hashable], n: int) -> tuple[dict, bool]:
    """How many survivors share each p-adic image, and whether every image
    has the preimages it should: two (p and m - p) for n odd, one for n
    even."""
    sizes, want = Counter(images), 2 if n % 2 else 1
    return sizes, all(count == want for count in sizes.values())
