"""The linear-constraint non-vanishing criterion.

Two engines decide whether a parameter vector p gives a non-zero module:

* ``nonvanishing`` quantifies the box condition B and the adjacency
  condition C over every admissible arrangement (transporting p along the
  transition maps);
* ``nonvanishing_simplified`` checks the box once and condition C at a
  single arrangement per neighbor pair, the lexicographically first
  admissible arrangement placing the pair adjacently, which
  ``arrangements.lex_first_adjacent`` gives in closed form (any adjacent
  placement gives the same answer, which is tested as a property).

Apart from p, everything the simplified criterion needs depends only on the
parameter, and the transition maps are affine.  The parameter builds its
relation masks once, at construction (one pass over the segment ends,
``GoodParityParameter.masks``), and ``CompiledCriterion`` works out the
rest once per parameter from them: the neighbor pairs, one placement per
pair, and the two transported entries at that placement as integer affine
forms in the reference p (the symbolic transport
``transition.transported_forms``, which the tableau engine's
``CompiledReduction`` shares).  The pairs are built in order, each the
first time a walk over them reaches it, so a vanishing vector builds them
only up to its first failing pair.  Deciding a vector is then the box check
plus one inequality per pair, at any r.

Each inequality is exactly sing <= S <= m_i + m_j - sing on the sum S of
its two forms, which reads the reference entries only up to some p_k.
``CompiledCriterion.survivors`` therefore assigns p_1, p_2, ... in turn in a
depth-first search over the box, each within the interval its pairs allow,
visiting at most ``MAX_DFS_NODES`` nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

from .arrangements import (
    Permutation,
    adjacent_placement,
    bubble_path,
    enumerate_admissible,
)
from .errors import InputError, ResourceLimitError
from .segments import (
    GoodParityParameter,
    check_arrangement,
    intersection_size,
    neighbor_pairs,
    relation,
)
from .transition import AffineForm, ParamVector, affine_value, phi, transported_forms

# The most nodes one lattice-point search (``lattice_points``) may visit;
# past it the job is refused with a ``ResourceLimitError``.  A vector the
# search yields is a leaf, so this bounds the survivors too: ``aqlam av``
# on 100,000 survivors (r = 5, every m = 9) takes about 3 s and 224 MB
# peak RSS on a 2-core x86-64 VM under Python 3.11.
MAX_DFS_NODES = 100_000


@dataclass(frozen=True)
class Witness:
    """A violated condition, with enough data to re-check it by hand.

    kind "B": indices = (i,); values = (p_i, m_i) from the real criterion
    and from the tableau reduction (there for the first component in
    canonical order whose entry leaves its box, sigma the canonical
    arrangement), (l_i,) with l_i < 0 from the p-adic side.
    kind "C": indices = (i, j); values = (p_i, q_i, p_j, q_j, lhs, sing)
    from the real criterion, (l_i, eta_i, l_j, eta_j) from the p-adic side.
    kind "overlap": indices = (k, k+1) positions, values = (overlap, sing);
    sigma is the canonical arrangement, or None from ``trapa_op``, whose
    positions are (1, 2).
    """

    kind: str
    indices: tuple[int, ...]
    sigma: Optional[Permutation]
    values: tuple[int, ...]

    def __str__(self) -> str:
        where = f" at sigma={self.sigma}" if self.sigma else ""
        return f"{self.kind}{self.indices} violated{where}: values={self.values}"


@dataclass(frozen=True)
class Verdict:
    nonzero: bool
    witness: Optional[Witness] = field(default=None)

    def __bool__(self) -> bool:
        return self.nonzero


def cond_B(psi: GoodParityParameter, pv: ParamVector, i: int) -> bool:
    """0 <= (entry coming from component i) <= m_i, for pv on an
    admissible arrangement of psi."""
    m_i = psi.m(i)  # validates i
    entry = pv.entry_of(i)  # and pv against it
    check_arrangement(psi, pv.sigma)
    return 0 <= entry <= m_i


def _c_values(
    p_i: int, m_i: int, p_j: int, m_j: int, sing: int
) -> tuple[int, int, int, int, int, int]:
    """(p_i, q_i, p_j, q_j, lhs, sing): condition C holds iff lhs >= sing."""
    q_i = m_i - p_i
    q_j = m_j - p_j
    lhs = min(p_i, q_j) + min(q_i, p_j)
    return p_i, q_i, p_j, q_j, lhs, sing


def _c_values_at(
    psi: GoodParityParameter, pv: ParamVector, i: int, j: int
) -> tuple[int, int, int, int, int, int]:
    sing = intersection_size(psi.seg(i), psi.seg(j))
    return _c_values(pv.entry_of(i), psi.m(i), pv.entry_of(j), psi.m(j), sing)


def cond_C(psi: GoodParityParameter, pv: ParamVector, i: int, j: int) -> bool:
    """min{p_i, q_j} + min{q_i, p_j} >= #(nu_i intersect nu_j).

    Defined for components placed adjacently by pv's arrangement, an
    admissible one of psi.
    """
    relation(psi, i, j)  # validates the indices
    *_, lhs, sing = _c_values_at(psi, pv, i, j)  # and pv against them
    check_arrangement(psi, pv.sigma)
    if abs(pv.sigma.index(i) - pv.sigma.index(j)) != 1:
        raise InputError(
            f"components {i},{j} are not adjacent in arrangement {pv.sigma}"
        )
    return lhs >= sing


def _reference_entries(
    psi: GoodParityParameter, p: Sequence[int] | ParamVector
) -> tuple[int, ...]:
    """p's entries on the reference arrangement, for every engine: a
    ``ParamVector`` on any admissible arrangement is moved there by ``phi``."""
    if isinstance(p, ParamVector):
        return phi(psi, p, range(1, psi.r + 1)).entries
    entries = tuple(p)
    if len(entries) != psi.r:
        raise InputError(f"expected {psi.r} entries, got {len(entries)}")
    return entries


def nonvanishing(
    psi: GoodParityParameter,
    p: Sequence[int] | ParamVector,
) -> Verdict:
    """Full engine: B at every arrangement, C at every adjacent placement,
    within the order budget of ``arrangements.enumerate_admissible``."""
    pv = ParamVector.reference(_reference_entries(psi, p))
    for sigma in enumerate_admissible(psi):
        moved = phi(psi, pv, sigma)
        for i in range(1, psi.r + 1):
            entry, m_i = moved.entry_of(i), psi.m(i)
            if not 0 <= entry <= m_i:
                return Verdict(False, Witness("B", (i,), sigma, (entry, m_i)))
        for h in range(psi.r - 1):
            i, j = sigma[h], sigma[h + 1]
            values = _c_values_at(psi, moved, i, j)
            if values[-2] < values[-1]:
                return Verdict(False, Witness("C", (i, j), sigma, values))
    return Verdict(True)


class PairConstraint(NamedTuple):
    """Condition C for one neighbor pair, compiled at its placement sigma."""

    i: int
    j: int
    sigma: Permutation
    form_i: AffineForm  # entry of component i at sigma
    form_j: AffineForm
    m_i: int
    m_j: int
    sing: int


# Condition C of one pair at the entry p_k it is bucketed at (see
# ``CompiledCriterion._checks``): low <= rest + a * p_k <= high, a >= 0.
PairCheck = tuple[AffineForm, int, int, int]  # rest, a, low, high


def _interval(bucket: Sequence[PairCheck], p: Sequence[int], lo: int, hi: int) -> range:
    """The values lo..hi of p_k that pass every check of ``bucket``, with
    the entries before p_k set in p: ceiling and floor division for a > 0,
    one test for the whole range for a = 0."""
    for rest, a, low, high in bucket:
        base = affine_value(rest, p)
        if a:
            lo, hi = max(lo, -((base - low) // a)), min(hi, (high - base) // a)
        elif not low <= base <= high:
            return range(0)
    return range(lo, hi + 1)


def lattice_points(
    m: Sequence[int],
    rank: Optional[int] = None,
    checks: Optional[Sequence[Sequence[PairCheck]]] = None,
) -> Iterator[tuple[int, ...]]:
    """The vectors 0 <= p_k <= m_k, of sum ``rank`` unless it is None, that
    pass every check, in lexicographic order.

    A depth-first search assigning p_1, p_2, ... in turn, in one loop that
    keeps the values of each entry not yet tried.  Entry k takes only the
    values the later entries can still complete to ``rank``, so no vector
    of another rank is formed, narrowed to the interval that the checks of
    ``checks[k]`` (0-based) allow once p_1..p_{k-1} are set (see
    ``_interval``).  A node counts its whole box or rank range before the
    checks narrow it; raises ``ResourceLimitError`` past ``MAX_DFS_NODES``
    nodes, and ``InputError`` for a negative length or a rank outside
    0..sum(m).  The empty box has one point, ().
    """
    if min(m, default=0) < 0:
        raise InputError(f"length {min(m)} in {tuple(m)} is negative")
    room = [sum(m[k:]) for k in range(len(m) + 1)]  # most entries k.. can hold
    if rank is not None and not 0 <= rank <= room[0]:
        raise InputError(f"rank {rank} out of range 0..{room[0]}")
    if not m:
        return iter([()])
    return _depth_first(m, rank, checks or ((),) * len(m), room)


def _depth_first(
    m: Sequence[int], rank: Optional[int], checks: Sequence[Sequence[PairCheck]],
    room: Sequence[int],
) -> Iterator[tuple[int, ...]]:
    """The search of ``lattice_points``, once its arguments are checked."""
    last = len(m) - 1
    p = [0] * len(m)
    remaining = [0 if rank is None else rank] * len(m)  # rank left for entries k..
    untried: list[Iterator[int]] = []  # untried[k]: the values of entry k not yet tried
    nodes = k = 0
    while True:
        if rank is None:
            lo, hi = 0, m[k]
        else:
            lo, hi = max(0, remaining[k] - room[k + 1]), min(m[k], remaining[k])
        nodes += hi - lo + 1
        if nodes > MAX_DFS_NODES:
            raise ResourceLimitError(
                f"the lattice-point search visited more than {MAX_DFS_NODES}"
                f" nodes of the box {tuple(m)}"
            )
        if k < last:
            untried.append(iter(_interval(checks[k], p, lo, hi)))
        else:
            for p[k] in _interval(checks[k], p, lo, hi):
                yield tuple(p)
        # on to the next value of the deepest entry that has one
        while untried:
            k = len(untried) - 1
            value = next(untried[k], None)
            if value is not None:
                p[k] = value
                remaining[k + 1] = remaining[k] - value
                k += 1
                break
            untried.pop()
        else:
            return


class CompiledCriterion:
    """The simplified criterion for one parameter, ready for many vectors.

    Reads the parameter's relation masks (``GoodParityParameter.masks``)
    and holds, for every neighbor pair, its placement (the
    lexicographically first admissible arrangement placing the pair
    adjacently, in closed form, from the ``preceded_by`` masks) and the
    transported entries as affine forms (from the ``contains`` masks).  The pairs are built in
    ``neighbor_pairs`` order, each the first time a walk over them reaches
    it: ``verdict`` stops at the first failing pair, and ``pairs`` (which
    ``survivors`` reads) walks them all.  The lazy build mutates the
    instance, so share one between threads only behind a lock.

    ``verdict(p)`` decides one vector and names a violated condition;
    ``survivors(rank)`` finds every non-vanishing vector of a rank (or of
    the whole box) by the lattice-point search, which gives each entry
    only the interval of values that its pairs allow, instead of deciding
    every box vector.
    """

    def __init__(self, psi: GoodParityParameter) -> None:
        self.psi = psi
        self.m = tuple(s.m for s in psi.segments)
        self.reference = tuple(range(1, psi.r + 1))
        self._built: list[PairConstraint] = []  # the pairs walked so far

    @cached_property
    def _neighbors(self) -> list[tuple[int, int]]:
        return neighbor_pairs(self.psi.masks)

    def _pair(self, i: int, j: int) -> PairConstraint:
        """Compile condition C of the neighbor pair (i, j) at its placement."""
        sigma = adjacent_placement(self.psi.masks.preceded_by, i, j)
        if sigma is None:  # pragma: no cover - impossible for neighbors
            raise InputError(f"neighbor pair ({i},{j}) has no placement")
        path = bubble_path(self.reference, sigma)
        forms = transported_forms(self.psi, self.reference, path, (i, j))
        sing = intersection_size(self.psi.seg(i), self.psi.seg(j))
        return PairConstraint(i, j, sigma, *forms, self.m[i - 1], self.m[j - 1], sing)

    def _walk(self) -> Iterator[PairConstraint]:
        """The pairs in ``neighbor_pairs`` order, each built the first time
        any walk reaches it and kept."""
        built = self._built
        for n, (i, j) in enumerate(self._neighbors):
            if n == len(built):
                built.append(self._pair(i, j))
            yield built[n]

    @cached_property
    def pairs(self) -> tuple[PairConstraint, ...]:
        return tuple(self._walk())

    @cached_property
    def _checks(self) -> tuple[tuple[PairCheck, ...], ...]:
        """The pairs' conditions C as bounds sing <= S <= m_i + m_j - sing
        on S = form_i + form_j (exact, since sing <= min(m_i, m_j)),
        bucketed by the last entry either form reads (a pair reading none
        goes with the first) and split into that entry's coefficient a,
        made >= 0, and the rest of S."""
        buckets: list[list[PairCheck]] = [[] for _ in self.m]
        for pair in self.pairs:
            coefs: dict[int, int] = {}
            for k, c in pair.form_i[1] + pair.form_j[1]:
                coefs[k] = coefs.get(k, 0) + c
            last = max(coefs, default=0)
            a = coefs.pop(last, 0)
            s = -1 if a < 0 else 1
            const = s * (pair.form_i[0] + pair.form_j[0])
            rest = const, tuple((k, s * c) for k, c in coefs.items())
            lo, hi = s * pair.sing, s * (pair.m_i + pair.m_j - pair.sing)
            buckets[last].append((rest, s * a, min(lo, hi), max(lo, hi)))
        return tuple(map(tuple, buckets))

    def survivors(self, rank: Optional[int] = None) -> Iterator[tuple[int, ...]]:
        """The box vectors of sum ``rank`` (all of them for None) that
        ``verdict`` passes, in lexicographic order, found by
        ``lattice_points``, within its ``MAX_DFS_NODES`` budget."""
        return lattice_points(self.m, rank, self._checks)

    def verdict(self, p: Sequence[int] | ParamVector) -> Verdict:
        """Box condition at the reference order, then condition C per pair."""
        p = _reference_entries(self.psi, p)
        for i, (p_i, m_i) in enumerate(zip(p, self.m), start=1):
            if not 0 <= p_i <= m_i:
                return Verdict(False, Witness("B", (i,), self.reference, (p_i, m_i)))
        for pair in self._walk():  # condition C, as the bounds of ``_checks``
            p_i, p_j = affine_value(pair.form_i, p), affine_value(pair.form_j, p)
            if not pair.sing <= p_i + p_j <= pair.m_i + pair.m_j - pair.sing:
                values = _c_values(p_i, pair.m_i, p_j, pair.m_j, pair.sing)
                return Verdict(False, Witness("C", (pair.i, pair.j), pair.sigma, values))
        return Verdict(True)


def nonvanishing_simplified(
    psi: GoodParityParameter, p: Sequence[int] | ParamVector
) -> Verdict:
    """Default engine: box condition plus condition C once per neighbor pair.

    Compiles the criterion for psi (see ``CompiledCriterion``) and decides
    p; to decide many vectors of one parameter, compile once and call its
    ``verdict``.  Polynomial in r, with no bound on r.
    """
    return CompiledCriterion(psi).verdict(p)
