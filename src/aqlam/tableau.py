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

A rewrite always turns its two segments into their max/min pair, whatever
the types, so the whole rewrite schedule depends only on the parameter.
``CompiledReduction`` works it out once, together with the transport to the
canonical arrangement; reducing a vector then builds its types and runs the
compiled steps on them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, zip_longest
from operator import add, gt, sub
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

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
    relation_table,
)
from .transition import (
    AffineForm,
    ParamVector,
    affine_value,
    phi,
    transported_forms,
)

Rows = tuple[tuple[int, str], ...]


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
    segments = [psi.seg(comp) for comp in pv.sigma]
    for comp, p, seg in zip(pv.sigma, pv.entries, segments):
        if not 0 <= p <= seg.m:
            raise InputError(f"entry {p} for component {comp} outside box [0, {seg.m}]")
    plus = minus = [0] * (len(segments) + 2)
    columns = []
    for k, (p, seg) in enumerate(zip(pv.entries, segments), start=1):
        L, plus, minus = _column(plus, minus, p, seg.m, k)
        columns.append(Column(seg, tuple(L[: k + 1])))
    return TableauState(tuple(columns), _rows(plus, minus), pv.sigma)


def _column(plus: list[int], minus: list[int], p: int, m: int, k: int) -> tuple:
    """Add column k, of length m with p pluses, to a tableau whose rows are
    kept as counts by length and end sign (``plus[t]`` rows of length t end
    in '+'): the column's types, padded with m to the size r + 2 of the
    counts, and the new counts.  The p longest minus-ending rows take a '+',
    the q = m - p longest plus-ending rows a '-', and what is left of p and
    q opens new rows; after rows of length t, m - p - q boxes have landed on
    rows of length at least t: that is L_{k,k-t}."""
    size = len(plus)
    q = m - p
    L = [0]
    new_plus, new_minus = [0] * size, [0] * size
    for t in range(k - 1, 0, -1):
        to_plus, to_minus = min(minus[t], p), min(plus[t], q)
        p, q = p - to_plus, q - to_minus
        L.append(m - p - q)
        new_plus[t + 1] += to_plus
        new_minus[t] += minus[t] - to_plus
        new_minus[t + 1] += to_minus
        new_plus[t] += plus[t] - to_minus
    new_plus[1] += p
    new_minus[1] += q
    return L + [m] * (size - k), new_plus, new_minus


def _rows(plus: Sequence[int], minus: Sequence[int]) -> Rows:
    """The signed rows the counts of ``_column`` describe: longest first,
    '+' rows before '-' rows of one length."""
    rows: list[tuple[int, str]] = []
    for t in range(len(plus) - 2, 0, -1):
        rows += [(t, "+")] * plus[t] + [(t, "-")] * minus[t]
    return tuple(rows)


def _padded(L: Sequence[int], size: int) -> list[int]:
    """The types L continued by their last value, the column length."""
    return [*L, *[L[-1]] * (size - len(L))]


def overlap(state: TableauState, k: int) -> int:
    """Overlap of columns at positions k and k+1 (1-based), clamped at 0."""
    if not 1 <= k < len(state.columns):
        raise InputError(f"column position {k} out of range")
    left, right = state.columns[k - 1], state.columns[k]
    return _overlap(left.L, _padded(right.L, left.height + 1), left.height, left.segment.m)


def _overlap(left: Sequence[int], right: Sequence[int], height: int, m: int) -> int:
    """min over i <= height of L_right(i) - L_left(i) + m, clamped at 0, for
    a left column of this height and length m."""
    return max(0, min(map(sub, right[: height + 1], left[: height + 1])) + m)


def trapa_op(
    left: Column, right: Column
) -> Union[TrapaZero, tuple[Column, Column]]:
    """The local rewrite on two adjacent columns.

    Zero when overlap < singularity; a no-op when the left segment precedes
    the right; otherwise the elementary operation on the filling segments,
    realized by the closed-form type equations.  The merged shape
    L'_{right,i} + L'_{left,i-1} is conserved.
    """
    ls, rs = left.segment, right.segment
    rel = ls.relate(rs, Relation.CONTAINS)
    if rel is Relation.PRECEDED_BY:
        raise InputError(f"right segment {rs} precedes left {ls}")
    size = max(left.height, right.height) + 2
    lt, rt = _padded(left.L, size), _padded(right.L, size)
    ov = _overlap(lt, rt, left.height, ls.m)
    sing = intersection_size(ls, rs)
    if ov < sing:
        return TrapaZero(ov, sing)
    if rel is Relation.PRECEDES:
        return left, right
    (lb, le), (rb, re), moves = _elementary(
        (ls.b.twice, ls.e.twice), (rs.b.twice, rs.e.twice)
    )
    new_left, new_right = _rewrite(
        lt, rt, left.height, right.height, _gap(left, right),
        rel is Relation.CONTAINS, moves,
    )
    return (
        Column(Segment(HalfInt(lb), HalfInt(le)), tuple(new_left[: left.height + 1])),
        Column(Segment(HalfInt(rb), HalfInt(re)), tuple(new_right[: right.height + 1])),
    )


def _elementary(
    left: tuple[int, int], right: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int, int, int]]:
    """The elementary operation on two segments given by their doubled ends
    (b, e): the left one becomes their coordinatewise max, the right one
    their min.  Also returns how far it moves the left b and e and the right
    b and e, in whole steps."""
    (lb, le), (rb, re) = left, right
    new_left, new_right = (max(lb, rb), max(le, re)), (min(lb, rb), min(le, re))
    moves = (
        (new_left[0] - lb) // 2, (new_left[1] - le) // 2,
        (new_right[0] - rb) // 2, (new_right[1] - re) // 2,
    )
    return new_left, new_right, moves


def _rewrite(
    left: list[int], right: list[int], hl: int, hr: int, gap: int,
    contains: bool, moves: tuple[int, int, int, int],
) -> tuple[list[int], list[int]]:
    """The types of two adjacent columns after the elementary operation.

    ``left`` and ``right`` are the types of columns of heights hl and hr,
    padded to at least max(hl, hr) + 2 entries, ``gap`` is ``_gap`` of their
    tops and ``contains`` says the left segment contains the right one.
    Self-checks: the merged shape L_right(i) + L_left(i-1) is conserved,
    and the shifts move the segment ends by ``moves`` (those of
    ``_elementary``).
    """
    # d_j = nu_{left;j} - nu_{right;j}; the right column's fills move by
    # s_i = min(0, d_j over j < i) for a container on the left, over j >= i
    # for a contained one, and the left column's by -s_{i+1}.
    top = max(hl, hr)
    d = [gap - a + b for a, b in zip(left[: top + 1], right)]
    if contains:
        shift = list(accumulate([0, *d], min))
    else:
        shift = list(accumulate([0, *reversed(d)], min))[::-1]
    new_left = _shifted(left, [-x for x in shift[1 : hl + 2]])
    new_right = _shifted(right, shift[: hr + 1])
    before = list(map(add, right[1 : hr + 2], left))
    after = list(map(add, new_right[1 : hr + 2], new_left))
    if before != after:
        i = next(i for i, pair in enumerate(zip(before, after), start=1) if pair[0] != pair[1])
        raise InvariantViolationError(
            f"merged shape not conserved at i={i}: {before[i - 1]} != {after[i - 1]}"
        )
    got = (-shift[1], -shift[hl + 1], shift[0], shift[hr])
    if got != moves:
        raise InvariantViolationError(
            f"rewrite moved the segment ends by {got}, not by {moves}:"
            " not to their max and min"
        )
    return new_left, new_right


def _shifted(types: list[int], shifts: Sequence[int]) -> list[int]:
    """The types of a column whose filling types move by the shifts s_i:
    L_i + s_0 - s_i, which must stay weakly increasing, padded like types."""
    s0 = shifts[0]
    L = [t + s0 - s for t, s in zip(types, shifts)]
    if any(map(gt, L, L[1:])):
        raise InvariantViolationError(f"types not weakly increasing: {tuple(L)}")
    return L + [L[-1]] * (len(types) - len(L))


def validate_antitableau(state: TableauState) -> bool:
    """True iff nu_{k;i} >= nu_{k+1;i} for all adjacent columns and all i."""
    return all(
        _descends(_gap(left, right), _padded(left.L, right.height + 1), right.L)
        for left, right in zip(state.columns, state.columns[1:])
    )


def _descends(gap: int, left: Sequence[int], right: Sequence[int]) -> bool:
    """nu_{left;i} >= nu_{right;i}, that is gap >= L_left(i) - L_right(i),
    for every i both type lists reach."""
    return max(map(sub, left, right)) <= gap


def _cells(ends: Sequence[tuple[int, int]], write: Callable = HalfInt) -> list[list]:
    """For each column with doubled segment ends (b, e), its entries b,
    b - 1, ..., e, each written by ``write`` from its double; the columns
    share one written value per value."""
    top = max(b for b, _ in ends)
    table = [write(top - 2 * u) for u in range((top - min(e for _, e in ends)) // 2 + 1)]
    return [table[(top - b) // 2 : (top - e) // 2 + 1] for b, e in ends]


def _antitableau_grid(cells: Sequence[Sequence], types: Sequence[Sequence[int]]) -> tuple:
    """Reconstruct the filled rows from column types.

    Grid column c stacks, for k = c..r, the entries of component k+1-c of
    state column k: b(nu_k) - u for u = L_{k,i-1} .. L_{k,i} - 1, with
    i = k+1-c; ``cells[k-1][u]`` holds b(nu_k) - u.  The code counts c and
    k from 0.
    """
    r = len(types)
    grid_cols = [
        list(chain.from_iterable(
            cells[k][types[k][k - c] : types[k][k - c + 1]] for k in range(c, r)
        ))
        for c in range(r)
    ]
    # row t holds entry t of every column that long (a cell is truthy)
    return tuple(tuple(filter(None, row)) for row in zip_longest(*grid_cols))


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


class _Step(NamedTuple):
    """One step of the compiled insertion schedule, on positions pos, pos+1."""

    pos: int
    rewrite: bool  # False: the left segment precedes, and the insertion ends
    contains: bool  # the left segment contains the right one
    m: int  # length of the left segment
    sing: int  # intersection size of the two segments
    gap: int  # ``_gap`` of their tops
    moves: tuple[int, int, int, int]  # of the ends, see ``_elementary``


class CompiledReduction:
    """Trapa's reduction for one parameter, ready for many vectors.

    Apart from the types, everything the reduction works on depends only on
    the parameter: the canonical arrangement, the transport of the reference
    vector there (affine forms, see ``transition.transported_forms``), and
    the segments of every rewrite, since a rewrite always turns its two
    segments into their max/min pair whatever the types.  ``reduce(p)``
    transports p, checks the box, builds the integer types column by column
    and runs each column's compiled rewrites as it arrives.  The schedule
    and the output cells are compiled on the first vector that passes the
    box check.

    The state after k columns depends only on the first k canonical
    entries, so an instance keeps the states of the last vector it ran and
    resumes the next at its first canonical entry that differs (which makes
    it unfit for sharing between threads).  ``run(p)`` returns the final
    types and rows, or the zero witness; ``antitableau(types)`` reads the
    filled rows out of the types, and ``reduce`` wraps both in a
    ``Reduction`` with its ``TableauState``.
    """

    def __init__(self, psi: GoodParityParameter) -> None:
        self.psi = psi
        self.sigma = appropriate_arrangement(psi)
        self.lengths = tuple(psi.seg(comp).m for comp in self.sigma)
        self.reference = tuple(range(1, psi.r + 1))
        # _states[k]: the types and row counts after the first k entries of _last
        self._last: Sequence[int] = ()
        self._states: list[tuple] = [([], [0] * (psi.r + 2), [0] * (psi.r + 2))]

    @cached_property
    def _forms(self) -> tuple[AffineForm, ...]:
        m = (0, *(s.m for s in self.psi.segments))
        return transported_forms(relation_table(self.psi), m, self.sigma, self.sigma)

    @cached_property
    def _schedule(self) -> tuple[tuple[tuple[_Step, ...], ...], tuple[tuple[int, int], ...]]:
        """Trapa's insertion order run on the doubled segment ends: column
        k = 2..r bubbles leftward through the rewrite, up to a left segment
        that precedes it.  Returns the steps of each column k = 1..r and
        the final ends."""
        ends = [(s.b.twice, s.e.twice) for s in map(self.psi.seg, self.sigma)]
        columns: list[tuple[_Step, ...]] = [()]
        for k in range(2, len(ends) + 1):
            steps = []
            for pos in range(k - 1, 0, -1):
                left, right = ends[pos - 1], ends[pos]
                rel = Segment.relate_twice(*left, *right, Relation.CONTAINS)
                if rel is Relation.PRECEDED_BY:
                    # the canonical arrangement and the rewrites rule it out
                    raise InvariantViolationError(
                        f"insertion at position {pos} met a left segment"
                        f" preceded by the right one in {self.psi}"
                    )
                m = (left[0] - left[1]) // 2 + 1
                sing = Segment.intersection_twice(*left, *right)
                gap = (left[0] - right[0]) // 2
                if rel is Relation.PRECEDES:
                    steps.append(_Step(pos, False, False, m, sing, gap, (0, 0, 0, 0)))
                    break
                ends[pos - 1], ends[pos], moves = _elementary(left, right)
                steps.append(
                    _Step(pos, True, rel is Relation.CONTAINS, m, sing, gap, moves)
                )
            columns.append(tuple(steps))
        return tuple(columns), tuple(ends)

    @cached_property
    def _output(self) -> tuple[tuple[Segment, ...], tuple[int, ...], list[list[HalfInt]]]:
        """The final columns' segments, the gaps between their tops, and
        their antitableau cells."""
        ends = self._schedule[1]
        segments = tuple(Segment(HalfInt(b), HalfInt(e)) for b, e in ends)
        gaps = tuple((left[0] - right[0]) // 2 for left, right in zip(ends, ends[1:]))
        return segments, gaps, _cells(ends)

    def cells(self, write: Callable[[int], Any]) -> list[list]:
        """The antitableau cells with each value written by ``write`` from
        its double, for ``antitableau(types, cells)``."""
        return _cells(self._schedule[1], write)

    def _start(self, p: Sequence[int] | ParamVector) -> Union[Witness, Sequence[int]]:
        """p's entries on the canonical arrangement, or the first of them in
        arrangement order that leaves its box, as a "B" witness."""
        if isinstance(p, ParamVector) and p.sigma != self.reference:
            entries: Sequence[int] = phi(self.psi, p, self.sigma).entries
        else:
            p = p.entries if isinstance(p, ParamVector) else tuple(p)
            if len(p) != self.psi.r:
                raise InputError(f"expected {self.psi.r} entries, got {len(p)}")
            if self.sigma == self.reference:  # the transport is the identity
                entries = p
            else:
                entries = [affine_value(form, p) for form in self._forms]
        for comp, entry, m in zip(self.sigma, entries, self.lengths):
            if not 0 <= entry <= m:
                return Witness("B", (comp,), self.sigma, (entry, m))
        return entries

    def run(
        self, p: Sequence[int] | ParamVector
    ) -> Union[Witness, tuple[list[list[int]], Rows]]:
        """The core of ``reduce``: p's final types (padded, see ``_column``;
        kept for the next vector, so read them only) and signed rows, or the
        witness that p is zero.  Resumes after the longest prefix of
        canonical entries shared with the last vector run; every column built
        runs the overlap test and the self-checks of its rewrites, and every
        result the final antitableau check."""
        entries = self._start(p)
        if isinstance(entries, Witness):
            return entries
        states, last = self._states, self._last
        start = 0
        while start < len(states) - 1 and entries[start] == last[start]:
            start += 1
        del states[start + 1 :]
        self._last = entries
        types, plus, minus = states[start]
        schedule = self._schedule[0]
        for k in range(start + 1, len(entries) + 1):
            L, plus, minus = _column(plus, minus, entries[k - 1], self.lengths[k - 1], k)
            types = [*types, L]
            for pos, rewrite, contains, m, sing, gap, moves in schedule[k - 1]:
                left, right = types[pos - 1], types[pos]
                ov = _overlap(left, right, pos, m)
                if ov < sing:
                    return Witness("overlap", (pos, pos + 1), self.sigma, (ov, sing))
                if rewrite:
                    types[pos - 1], types[pos] = _rewrite(
                        left, right, pos, pos + 1, gap, contains, moves
                    )
            states.append((types, plus, minus))
        if not all(map(_descends, self._output[1], types, types[1:])):
            raise InvariantViolationError(
                f"reduction finished on a non-antitableau state for p={p}"
            )
        return types, _rows(plus, minus)

    def antitableau(
        self, types: Sequence[Sequence[int]], cells: Optional[list] = None
    ) -> tuple[tuple, ...]:
        """The antitableau that final types from ``run`` describe, with the
        entries of ``cells`` (by default the ``HalfInt`` ones)."""
        return _antitableau_grid(cells or self._output[2], types)

    def reduce(self, p: Sequence[int] | ParamVector) -> Reduction:
        """Reduce p (reference entries, or a vector on any admissible
        arrangement) to an antitableau, or certify zero."""
        result = self.run(p)
        if isinstance(result, Witness):
            return Reduction(result)
        types, rows = result
        columns = tuple(
            Column(seg, tuple(L[: k + 1]))
            for k, (seg, L) in enumerate(zip(self._output[0], types), start=1)
        )
        state = TableauState(columns, rows, self.sigma)
        return Reduction(None, self.antitableau(types), rows, state)


def trapa_reduce(
    psi: GoodParityParameter, p: Sequence[int] | ParamVector
) -> Reduction:
    """Reduce a parameter vector to an antitableau, or certify zero.

    The vector is transported to the canonical arrangement, the signed
    tableau is built, and each column is bubbled leftward through the local
    rewrite as it arrives.  Compiles the reduction for psi (see
    ``CompiledReduction``); to reduce many vectors of one parameter, compile
    once and call its ``reduce``.
    """
    return CompiledReduction(psi).reduce(p)


def reduce_with_schedule(
    psi: GoodParityParameter,
    p: Sequence[int] | ParamVector,
    rng: random.Random,
) -> Reduction:
    """Like trapa_reduce, but applies ``trapa_op`` to the columns in a random
    valid order.

    Used to exercise confluence: the final antitableau must not depend on
    the schedule.  Only the transport and the box check are shared with
    ``CompiledReduction``.
    """
    compiled = CompiledReduction(psi)
    entries = compiled._start(p)
    if isinstance(entries, Witness):
        return Reduction(entries)
    sigma = compiled.sigma
    state = build_tableau(psi, ParamVector(tuple(entries), sigma))
    columns = list(state.columns)
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
            break
        pos, result = pending[rng.randrange(len(pending))]
        if isinstance(result, TrapaZero):
            return Reduction(
                Witness("overlap", (pos, pos + 1), sigma, (result.overlap, result.sing))
            )
        columns[pos - 1], columns[pos] = result
    final = TableauState(tuple(columns), state.rows, sigma)
    if not validate_antitableau(final):
        raise InvariantViolationError(
            f"reduction finished on a non-antitableau state for p={p}"
        )
    cells = _cells([(c.segment.b.twice, c.segment.e.twice) for c in columns])
    return Reduction(None, _antitableau_grid(cells, [c.L for c in columns]), final.rows, final)


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
