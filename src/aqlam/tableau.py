"""Signed-tableau construction and the reduce-to-antitableau-or-zero engine.

This is the second, independent decision procedure.  A parameter vector is
turned into a signed tableau column by column; each column carries a
cumulative box-count type L_{k,i}, and its filling type
nu_{k;i} = b(nu_k) + 1 - L_{k,i} follows from it.  The local rewrite on two
adjacent columns (``trapa_op``) either certifies zero (overlap <
singularity) or performs an elementary operation on the filling segments,
implemented through closed-form type equations.  Iterating the rewrite
yields an antitableau exactly when the parameter is non-vanishing.  The
engine computes on the integer types; half-integers appear only in
``Column.fills`` and in the entries of the antitableau it returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Sequence, Union

from .arrangements import (
    Permutation,
    appropriate_arrangement,
    enumerate_admissible,
)
from .criterion import Witness
from .errors import InputError, InvariantViolationError
from .halfint import HalfInt
from .segments import (
    GoodParityParameter,
    Relation,
    Segment,
    intersection_size,
)
from .transition import ParamVector, phi

Rows = tuple[tuple[int, str], ...]


def _canonical_rows(rows: Sequence[tuple[int, str]]) -> Rows:
    """Length descending, then '+' rows before '-' rows."""
    return tuple(sorted(rows, key=lambda r: (-r[0], r[1] != "+")))


@dataclass(frozen=True)
class Column:
    """One skew column: its segment and cumulative type L_{k,i}.

    ``L[i]`` counts the boxes of the column lying in its first i
    components; L[0] = 0 and L[height] = m.  The types are the data that
    every rewrite works on; ``fills`` reads the filling types out.
    """

    segment: Segment
    L: tuple[int, ...]

    @property
    def height(self) -> int:
        return len(self.L) - 1

    def L_at(self, i: int) -> int:
        if i <= 0:
            return 0
        if i >= self.height:
            return self.L[-1]
        return self.L[i]

    def fills(self) -> tuple[HalfInt, ...]:
        """The filling types nu_{k;i} = b + 1 - L_{k,i}, i = 0..height."""
        top = self.segment.b.twice + 2
        return tuple(HalfInt(top - 2 * self.L_at(i)) for i in range(self.height + 1))


def _gap(left: Column, right: Column) -> int:
    """b(left) - b(right), floored: nu_{left;i} >= nu_{right;j} exactly when
    the gap is at least L_{left,i} - L_{right,j}."""
    return (left.segment.b.twice - right.segment.b.twice) // 2


@dataclass(frozen=True)
class TableauState:
    columns: tuple[Column, ...]
    rows: Rows
    sigma: Permutation


@dataclass(frozen=True)
class TrapaZero:
    """Zero certificate: the overlap fell below the singularity."""

    overlap: int
    sing: int


def build_tableau(psi: GoodParityParameter, pv: ParamVector) -> TableauState:
    """Construct the signed tableau for pv, column by column.

    For each new column, pluses extend minus-ending rows longest first,
    minuses extend plus-ending rows longest first, and remainders open new
    rows; the type L records, for each component range, how many boxes
    landed there (new rows have unlimited capacity).  An entry outside its
    box [0, m] is an ``InputError``.
    """
    rows: list[tuple[int, str]] = []
    columns: list[Column] = []
    for k, comp in enumerate(pv.sigma, start=1):
        seg = psi.seg(comp)
        p, m = pv.entries[k - 1], seg.m
        q = m - p
        if not 0 <= p <= m:
            raise InputError(f"entry {p} for component {comp} outside box [0, {m}]")
        L = [0]
        for i in range(1, k):
            plus_ends = sum(1 for ln, s in rows if ln >= k - i and s == "+")
            minus_ends = sum(1 for ln, s in rows if ln >= k - i and s == "-")
            L.append(min(minus_ends, p) + min(plus_ends, q))
        L.append(m)
        columns.append(Column(seg, tuple(L)))

        minus_rows = sorted((r for r in rows if r[1] == "-"), reverse=True)
        plus_rows = sorted((r for r in rows if r[1] == "+"), reverse=True)
        new_rows = []
        new_rows += [(ln + 1, "+") for ln, _ in minus_rows[:p]]
        new_rows += [(ln, "-") for ln, _ in minus_rows[p:]]
        new_rows += [(ln + 1, "-") for ln, _ in plus_rows[:q]]
        new_rows += [(ln, "+") for ln, _ in plus_rows[q:]]
        new_rows += [(1, "+")] * max(0, p - len(minus_rows))
        new_rows += [(1, "-")] * max(0, q - len(plus_rows))
        rows = new_rows
    return TableauState(tuple(columns), _canonical_rows(rows), pv.sigma)


def overlap(state: TableauState, k: int) -> int:
    """Overlap of columns at positions k and k+1 (1-based), clamped at 0."""
    if not 1 <= k < len(state.columns):
        raise InputError(f"column position {k} out of range")
    return _overlap(state.columns[k - 1], state.columns[k])


def _overlap(left: Column, right: Column) -> int:
    m = left.segment.m
    val = min(right.L_at(i) - left.L_at(i) + m for i in range(left.height + 1))
    return max(0, val)


def trapa_op(
    left: Column, right: Column
) -> Union[TrapaZero, tuple[Column, Column]]:
    """The local rewrite on two adjacent columns.

    Zero when overlap < singularity; a no-op when the left segment precedes
    the right; otherwise the elementary operation on the filling segments,
    realized by the closed-form type equations.  The merged shape
    L'_{right,i} + L'_{left,i-1} is conserved.
    """
    rel = left.segment.relate(right.segment, Relation.CONTAINS)
    if rel is Relation.PRECEDED_BY:
        raise InputError(
            f"right segment {right.segment} precedes left {left.segment}"
        )
    ov = _overlap(left, right)
    sing = intersection_size(left.segment, right.segment)
    if ov < sing:
        return TrapaZero(ov, sing)
    if rel is Relation.PRECEDES:
        return left, right

    # d_j = nu_{left;j} - nu_{right;j}; the right column's fills move by
    # s_i = min(0, d_j over j < i) for a container on the left, over j >= i
    # for a contained one, and the left column's by -s_{i+1}.
    gap, top = _gap(left, right), max(left.height, right.height)
    d = [gap - left.L_at(j) + right.L_at(j) for j in range(top + 1)]
    if rel is Relation.CONTAINS:
        shift = list(accumulate([0, *d], min))
    else:
        shift = list(accumulate([0, *reversed(d)], min))[::-1]
    new_left = _shifted(left, [-x for x in shift[1 : left.height + 2]])
    new_right = _shifted(right, shift[: right.height + 1])

    # Self-checks: the rewrite must produce the elementary-operation pair
    # of segments and conserve the merged shape.
    ends = [(c.segment.b.twice, c.segment.e.twice) for c in (left, right)]
    want = tuple(map(max, *ends)), tuple(map(min, *ends))
    got = tuple((c.segment.b.twice, c.segment.e.twice) for c in (new_left, new_right))
    if got != want:
        raise InvariantViolationError(
            f"rewrite produced segments {new_left.segment}, {new_right.segment}"
            f" from {left.segment}, {right.segment}: not their max and min"
        )
    for i in range(right.height + 2):
        before = right.L_at(i) + left.L_at(i - 1)
        after = new_right.L_at(i) + new_left.L_at(i - 1)
        if before != after:
            raise InvariantViolationError(
                f"merged shape not conserved at i={i}: {before} != {after}"
            )
    return new_left, new_right


def _shifted(column: Column, shifts: Sequence[int]) -> Column:
    """The column with filling types nu_i + s_i: types L_i + s_0 - s_i, which
    must stay weakly increasing, and segment ends moved by s_0 and s_last."""
    s0 = shifts[0]
    L = tuple(column.L_at(i) + s0 - s for i, s in enumerate(shifts))
    if any(L[i] > L[i + 1] for i in range(len(L) - 1)):
        raise InvariantViolationError(f"types not weakly increasing: {L}")
    b, e = column.segment.b.twice + 2 * s0, column.segment.e.twice + 2 * shifts[-1]
    return Column(Segment(HalfInt(b), HalfInt(e)), L)


def validate_antitableau(state: TableauState) -> bool:
    """True iff nu_{k;i} >= nu_{k+1;i} for all adjacent columns and all i."""
    for left, right in zip(state.columns, state.columns[1:]):
        gap = _gap(left, right)
        if any(gap < left.L_at(i) - right.L_at(i) for i in range(right.height + 1)):
            return False
    return True


def _antitableau_grid(state: TableauState) -> tuple[tuple[HalfInt, ...], ...]:
    """Reconstruct the filled rows from column types.

    Grid column c stacks, for k = c..r, the entries of component k+1-c of
    state column k: b(nu_k) - u for u = L_{k,i-1} .. L_{k,i} - 1, with
    i = k+1-c.
    """
    r = len(state.columns)
    grid_cols: list[list[HalfInt]] = []
    for c in range(1, r + 1):
        col: list[HalfInt] = []
        for k in range(c, r + 1):
            i = k + 1 - c
            column = state.columns[k - 1]
            b, lo, hi = column.segment.b.twice, column.L_at(i - 1), column.L_at(i)
            col += [HalfInt(b - 2 * u) for u in range(lo, hi)]
        grid_cols.append(col)
    height = max(len(c) for c in grid_cols)
    rows = []
    for t in range(height):
        rows.append(tuple(c[t] for c in grid_cols if len(c) > t))
    return tuple(rows)


@dataclass(frozen=True)
class Reduction:
    """Outcome of the full reduce: a zero certificate or an antitableau."""

    zero: Optional[Witness]
    antitableau: Optional[tuple[tuple[HalfInt, ...], ...]] = None
    rows: Optional[Rows] = None
    state: Optional[TableauState] = None

    @property
    def nonzero(self) -> bool:
        return self.zero is None


def _reduce(
    psi: GoodParityParameter,
    p: Sequence[int] | ParamVector,
    schedule: Callable[[list[Column], Permutation], Optional[Witness]],
) -> Reduction:
    """The start and finish shared by both reductions.

    Transports p to the canonical arrangement and checks the box there (a
    "B" witness, first in arrangement order), builds the signed tableau,
    and lets ``schedule`` rewrite its columns in place; the schedule returns
    an overlap witness, or None once it ends on what must be an antitableau.
    """
    if not isinstance(p, ParamVector):
        p = ParamVector.reference(tuple(p))
    sigma = appropriate_arrangement(psi)
    pv = phi(psi, p, sigma)
    for comp, entry in zip(sigma, pv.entries):
        if not 0 <= entry <= psi.m(comp):
            return Reduction(Witness("B", (comp,), sigma, (entry, psi.m(comp))))
    state = build_tableau(psi, pv)
    columns = list(state.columns)
    witness = schedule(columns, sigma)
    if witness is not None:
        return Reduction(witness)
    final = TableauState(tuple(columns), state.rows, sigma)
    if not validate_antitableau(final):
        raise InvariantViolationError(
            f"reduction finished on a non-antitableau state for p={p.entries}"
        )
    return Reduction(None, _antitableau_grid(final), final.rows, final)


def _insert_leftward(
    columns: list[Column], start: int, sigma: Permutation
) -> Optional[Witness]:
    """Bubble the column at position start (1-based) leftward.

    Applies the rewrite at (pos, pos+1) for pos = start-1 down to 1,
    stopping at a precedence (no-op) pair or the left wall.  Returns a
    zero witness or None.
    """
    for pos in range(start - 1, 0, -1):
        left, right = columns[pos - 1], columns[pos]
        rel = left.segment.relate(right.segment, Relation.CONTAINS)
        result = trapa_op(left, right)
        if isinstance(result, TrapaZero):
            return Witness(
                "overlap", (pos, pos + 1), sigma, (result.overlap, result.sing)
            )
        columns[pos - 1], columns[pos] = result
        if rel is Relation.PRECEDES:
            break
    return None


def trapa_reduce(
    psi: GoodParityParameter, p: Sequence[int] | ParamVector
) -> Reduction:
    """Reduce a reference-order parameter to an antitableau, or certify zero.

    The vector is transported to the canonical arrangement, the signed
    tableau is built, and each column is bubbled leftward through the local
    rewrite as it arrives.
    """

    def schedule(columns: list[Column], sigma: Permutation) -> Optional[Witness]:
        for k in range(2, len(columns) + 1):
            witness = _insert_leftward(columns, k, sigma)
            if witness is not None:
                return witness
        return None

    return _reduce(psi, p, schedule)


def reduce_with_schedule(
    psi: GoodParityParameter,
    p: Sequence[int] | ParamVector,
    rng: random.Random,
) -> Reduction:
    """Like trapa_reduce, but applies the rewrite in a random valid order.

    Used to exercise confluence: the final antitableau must not depend on
    the schedule.
    """

    def schedule(columns: list[Column], sigma: Permutation) -> Optional[Witness]:
        while True:
            pending: list[tuple[int, Union[TrapaZero, tuple[Column, Column]]]] = []
            for pos in range(1, len(columns)):
                left, right = columns[pos - 1], columns[pos]
                rel = left.segment.relate(right.segment, Relation.CONTAINS)
                if rel is Relation.PRECEDED_BY:
                    continue
                result = trapa_op(left, right)
                if isinstance(result, TrapaZero) or (
                    (result[0].segment, result[0].L, result[1].segment, result[1].L)
                    != (left.segment, left.L, right.segment, right.L)
                ):
                    pending.append((pos, result))
            if not pending:
                return None
            pos, result = pending[rng.randrange(len(pending))]
            if isinstance(result, TrapaZero):
                return Witness(
                    "overlap", (pos, pos + 1), sigma, (result.overlap, result.sing)
                )
            columns[pos - 1], columns[pos] = result

    return _reduce(psi, p, schedule)


def last_column_type(
    psi: GoodParityParameter, p: Sequence[int] | ParamVector
) -> tuple[HalfInt, ...]:
    """Pointwise minimum of the built last-column types over all arrangements.

    Defined only for non-vanishing parameters; equals the last column of
    the reduced antitableau (a tested identity).
    """
    if not isinstance(p, ParamVector):
        p = ParamVector.reference(tuple(p))
    reduction = trapa_reduce(psi, p)
    if not reduction.nonzero:
        raise InputError("last-column type is undefined for a zero parameter")
    fills = [
        build_tableau(psi, phi(psi, p, sigma)).columns[-1].fills()
        for sigma in enumerate_admissible(psi)
    ]
    return tuple(min(types) for types in zip(*fills))


def upper_bound_check(
    prefix: Sequence[Column], last: Column, h: Optional[int] = None
) -> bool:
    """Decide non-zero insertion of a final column into an antitableau prefix.

    The prefix columns mu_1..mu_{r-1} must satisfy mu_{k;i} >= mu_{k+1;i},
    with mu_1..mu_h preceding the new segment and the rest contained in it.
    Evaluates the two quantified-minimum inequalities: chains
    i = j_0 > j_1 > ... walk down the prefix columns from the newest to
    column h, accumulating type differences.
    """
    prefix = list(prefix)
    r = len(prefix) + 1
    for a, b in zip(prefix, prefix[1:]):
        hi = max(a.height, b.height) + 1
        gap = _gap(a, b)
        if any(gap < a.L_at(i) - b.L_at(i) for i in range(hi + 1)):
            raise InputError("prefix columns are not an antitableau")
    rels = [
        c.segment.relate(last.segment, Relation.CONTAINS) for c in prefix
    ]
    if h is None:
        h = sum(1 for rel in rels if rel is Relation.PRECEDES)
    if rels[:h] != [Relation.PRECEDES] * h or any(
        rel is not Relation.CONTAINED for rel in rels[h:]
    ):
        raise InputError(
            "prefix must split into preceding segments followed by contained ones"
        )
    steps = r - h - 1  # chain length for inequality (a)

    # A chain step j0 -> j1 in column k adds mu_{k;j0} - mu_{k;j1}, which is
    # the type difference L_{k,j1} - L_{k,j0}: the chain minima are integers.
    floor = -steps - 1
    for i in range(last.height + 1):
        # (a) full chains of length `steps`, then anchor at column h;
        # with no preceding column there is no anchor and (a) is vacuous
        if h:
            level = {i: 0}
            for s in range(1, steps + 1):
                L = prefix[r - s - 1].L_at
                nxt: dict[int, int] = {}
                for j0, acc in level.items():
                    for j1 in range(floor, j0):
                        cand = acc + L(j1) - L(j0)
                        if j1 not in nxt or cand < nxt[j1]:
                            nxt[j1] = cand
                level = nxt
            # mu_last(i) > min(acc + mu_{h;j}), with both tops taken out
            anchor = prefix[h - 1]
            low = min(acc - anchor.L_at(j) for j, acc in level.items())
            if _gap(anchor, last) < -last.L_at(i) - low:
                return False
        # (b) chains of any length 1..steps ending exactly at 0
        bound_b: Optional[int] = None
        level = {i: 0}
        for s in range(1, steps + 1):
            L = prefix[r - s - 1].L_at
            nxt = {}
            for j0, acc in level.items():
                if j0 > 0:
                    cand = acc - L(j0)
                    if bound_b is None or cand < bound_b:
                        bound_b = cand
                for j1 in range(1, j0):
                    cand = acc + L(j1) - L(j0)
                    if j1 not in nxt or cand < nxt[j1]:
                        nxt[j1] = cand
            level = nxt
        if bound_b is not None and -last.L_at(i) > bound_b:
            return False
    return True
