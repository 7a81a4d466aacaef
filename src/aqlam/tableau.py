"""Signed-tableau construction and the reduce-to-antitableau-or-zero engine.

This is the second, independent decision procedure (Trapa's algorithm).  A
parameter vector is turned into a signed tableau column by column; each
column carries a cumulative box-count type L_{k,i}, and its filling type
nu_{k;i} = b(nu_k) + 1 - L_{k,i} follows from it.  The local rewrite on two
adjacent columns (``trapa_op``) either certifies zero (overlap <
singularity) or performs an elementary operation on the filling segments,
implemented through closed-form type equations.  Iterating the rewrite
yields an antitableau exactly when the parameter is non-vanishing.

Every operation computes on one state: the columns' segments as doubled
ends (b, e), and their types as tuples of ints padded with the column length
(see ``_column``).  ``_pair_step`` derives the step of two adjacent columns
from their ends alone, ``_run_step`` runs it on their types, and
``_columns`` reads ``Column`` objects, with their ``Segment`` and
``HalfInt`` values, out of a state; ``_state`` reads the state of the
columns that public functions take.  Half-integers appear only in these
read-outs and in the entries of the antitableau.

A rewrite always turns its two segments into their max/min pair, whatever
the types, so the whole rewrite schedule depends only on the parameter.
``CompiledReduction`` works out the transport to the canonical arrangement
once, and each column's steps once, the first time a vector reaches that
column: a vector that certifies zero at column k never builds the steps
after it.  Reducing a vector then builds its types and runs the compiled
steps on them, each column's outcome once per parameter for each types
before it and its own, and the final check once per final types.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, count, zip_longest
from operator import add, gt, sub
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .arrangements import Permutation, appropriate_arrangement, bubble_path, enumerate_admissible
from .criterion import Witness, _reference_entries
from .errors import InputError, InvariantViolationError, ResourceLimitError, check_ints
from .halfint import HalfInt
from .segments import GoodParityParameter, Relation, Segment, check_arrangement
from .transition import AffineForm, ParamVector, affine_value, phi, transported_forms

# The most boxes n = m_1 + ... + m_r of a parameter that ``CompiledReduction``
# takes; past it the job is refused with a ``ResourceLimitError``, before
# the n signed rows, the antitableau cells or any table of entry values is
# built.  On one segment of 100,000 boxes, ``aqlam packet`` at rank 1 takes
# about 0.4 s and 61 MB peak RSS, and ``aqlam tableau`` 0.4 s and 58 MB,
# each writing a 1.8 MB line, on a 2-core x86-64 VM under Python 3.11.
MAX_BOXES = 100_000

Rows = tuple[tuple[int, str], ...]
End = tuple[int, int]  # a segment's doubled ends (2b, 2e)
Types = tuple[int, ...]  # a column's types, padded (see ``_column``)


@dataclass(frozen=True)
class Column:
    """One skew column, as read out of a state: its segment and cumulative
    type L_{k,i}.

    ``L[i]`` counts the boxes of the column lying in its first i
    components; L[0] = 0 and L[height] = m.  ``fills`` reads the filling
    types out.
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


def _state(columns: Sequence[Column], size: int) -> tuple[list[End], list[Types]]:
    """The state of columns: their segments' ends, and their types
    padded with the column length to at least ``size`` entries."""
    ends = [(c.segment.b.twice, c.segment.e.twice) for c in columns]
    return ends, [(*c.L, *(c.L[-1],) * (size - len(c.L))) for c in columns]


def _columns(
    segments: Sequence[Segment], types: Sequence[Types], heights: Optional[Iterable[int]] = None
) -> tuple[Column, ...]:
    """The read-out of a state: a ``Column`` of each height (by default
    1, 2, ...), with its segment and its types cut to the height."""
    return tuple(
        Column(segment, L[: h + 1])
        for segment, L, h in zip(segments, types, heights or count(1))
    )


@dataclass(frozen=True)
class TableauState:
    columns: tuple[Column, ...]
    rows: Rows
    sigma: Permutation


def build_tableau(psi: GoodParityParameter, pv: ParamVector) -> TableauState:
    """Construct the signed tableau for pv, column by column.

    For each new column, pluses extend minus-ending rows longest first,
    minuses extend plus-ending rows longest first, and remainders open new
    rows; the type L records, for each component range, how many boxes
    landed there (new rows have unlimited capacity).  An entry off its box
    [0, m], or an arrangement that is not an admissible one of psi, is an
    ``InputError``.
    """
    check_arrangement(psi, pv.sigma)
    segments = [psi.seg(comp) for comp in pv.sigma]
    for comp, p, seg in zip(pv.sigma, pv.entries, segments):
        if not 0 <= p <= seg.m:
            raise InputError(f"entry {p} for component {comp} outside box [0, {seg.m}]")
    types, rows = _build(pv.entries, [seg.m for seg in segments])
    return TableauState(_columns(segments, types), rows, pv.sigma)


def _build(entries: Sequence[int], lengths: Sequence[int]) -> tuple[list[Types], Rows]:
    """The padded types of the columns (see ``_column``) and the signed rows
    of the tableau with these entries and column lengths."""
    plus = minus = [0] * (len(entries) + 2)
    types = []
    for k, (p, m) in enumerate(zip(entries, lengths), start=1):
        L, plus, minus = _column(plus, minus, p, m, k)
        types.append(L)
    return types, _rows(plus, minus)


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
        pt, mt = plus[t], minus[t]
        to_plus, to_minus = mt if mt < p else p, pt if pt < q else q
        p, q = p - to_plus, q - to_minus
        L.append(m - p - q)
        new_plus[t + 1] += to_plus
        new_minus[t] += mt - to_plus
        new_minus[t + 1] += to_minus
        new_plus[t] += pt - to_minus
    new_plus[1] += p
    new_minus[1] += q
    return (*L, *(m,) * (size - k)), new_plus, new_minus


def _rows(plus: Sequence[int], minus: Sequence[int]) -> Rows:
    """The signed rows the counts of ``_column`` describe: longest first,
    '+' rows before '-' rows of one length."""
    rows: list[tuple[int, str]] = []
    for t in range(len(plus) - 2, 0, -1):
        rows += [(t, "+")] * plus[t] + [(t, "-")] * minus[t]
    return tuple(rows)


def overlap(state: TableauState, k: int) -> int:
    """Overlap of columns at positions k and k+1 (1-based), clamped at 0."""
    check_ints("column position", (k,))
    if not 1 <= k < len(state.columns):
        raise InputError(f"column position {k} out of range")
    left, right = state.columns[k - 1], state.columns[k]
    _, (lt, rt) = _state((left, right), left.height + 1)
    return _overlap(lt, rt, left.height, left.segment.m)


def _overlap(left: Sequence[int], right: Sequence[int], height: int, m: int) -> int:
    """min over i <= height of L_right(i) - L_left(i) + m, clamped at 0, for
    a left column of this height and length m."""
    return max(0, min(map(sub, right[: height + 1], left[: height + 1])) + m)


def trapa_op(left: Column, right: Column) -> Union[Witness, tuple[Column, Column]]:
    """The local rewrite on two adjacent columns.

    Zero when overlap < singularity, certified by an "overlap" witness on
    positions (1, 2) with values (overlap, sing); a no-op when the left
    segment precedes the right; otherwise the elementary operation on the
    filling segments, realized by the closed-form type equations.  The
    merged shape L'_{right,i} + L'_{left,i-1} is conserved.
    """
    heights = left.height, right.height
    ends, types = _state((left, right), max(heights) + 2)
    step = _pair_step(*ends)
    if step is None:
        raise InputError(f"right segment {right.segment} precedes left {left.segment}")
    ov, result = _run_step(step, *types, *heights)
    if result is None:
        return Witness("overlap", (1, 2), None, (ov, step.sing))
    segments = [Segment(HalfInt(b), HalfInt(e)) for b, e in step.ends]
    return _columns(segments, result, heights)


class _Step(NamedTuple):
    """The step on two adjacent columns, which depends only on their
    segments (see ``_pair_step``)."""

    rewrite: bool  # False: the left segment precedes, and the step is the overlap test
    contains: bool  # the left segment contains the right one, or equals it
    m: int  # length of the left segment
    sing: int  # intersection size of the two segments
    # b(left) - b(right), floored: nu_{left;i} >= nu_{right;j} exactly when
    # the gap is at least L_{left,i} - L_{right,j}
    gap: int
    ends: tuple[End, End]  # of the segments after it
    moves: tuple[int, int, int, int]  # of the left b and e, the right b and e


def _pair_step(left: End, right: End) -> Optional[_Step]:
    """The step on two adjacent columns whose segments have the doubled
    ends ``left`` and ``right``, or None when the right segment
    precedes the left one.  When the left segment precedes, the step is the
    overlap test alone; otherwise the elementary operation makes the left
    segment their coordinatewise max and the right one their min, moving
    the ends by ``moves`` whole steps."""
    (lb, le), (rb, re) = left, right
    rel = Segment.relate_twice(lb, le, rb, re)
    if rel is Relation.PRECEDED_BY:
        return None
    rewrite = rel is not Relation.PRECEDES
    if rewrite:
        ends = (max(lb, rb), max(le, re)), (min(lb, rb), min(le, re))
    else:
        ends = left, right
    (nlb, nle), (nrb, nre) = ends
    moves = ((nlb - lb) // 2, (nle - le) // 2, (nrb - rb) // 2, (nre - re) // 2)
    sing = Segment.intersection_twice(lb, le, rb, re)
    m, gap = (lb - le) // 2 + 1, (lb - rb) // 2
    return _Step(rewrite, rel is Relation.CONTAINS, m, sing, gap, ends, moves)


def _run_step(
    step: _Step, left: Types, right: Types, hl: int, hr: int
) -> tuple[int, Optional[tuple[Types, Types]]]:
    """Run a step on the types of columns of heights hl and hr, padded to at
    least max(hl, hr) + 2 entries: their overlap, and their types after the
    step (the same tuples when the left segment precedes), or None when the
    overlap falls below the singularity and certifies zero."""
    rewrite, contains, m, sing, gap, _, moves = step
    ov = _overlap(left, right, hl, m)
    if ov < sing:
        return ov, None
    if not rewrite:
        return ov, (left, right)
    return ov, _rewrite(left, right, hl, hr, gap, contains, moves)


def _rewrite(
    left: Types, right: Types, hl: int, hr: int, gap: int,
    contains: bool, moves: tuple[int, int, int, int],
) -> tuple[Types, Types]:
    """The types of two adjacent columns after the elementary operation of
    a step (see ``_run_step``): ``gap`` and ``moves`` are the step's, and
    ``contains`` says the left segment contains the right one.

    Self-checks: the merged shape L_right(i) + L_left(i-1) is conserved,
    and the shifts move the segment ends by ``moves``.
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


def _shifted(types: Types, shifts: Sequence[int]) -> Types:
    """The types of a column whose filling types move by the shifts s_i:
    L_i + s_0 - s_i, which must stay weakly increasing, padded like types."""
    s0 = shifts[0]
    L = [t + s0 - s for t, s in zip(types, shifts)]
    if any(map(gt, L, L[1:])):
        raise InvariantViolationError(f"types not weakly increasing: {tuple(L)}")
    return (*L, *(L[-1],) * (len(types) - len(L)))


def validate_antitableau(state: TableauState) -> bool:
    """True iff nu_{k;i} >= nu_{k+1;i} for all adjacent columns and all i."""
    for pair in zip(state.columns, state.columns[1:]):
        ends, types = _state(pair, pair[1].height + 1)
        if not _descends(_gaps(ends), types):
            return False
    return True


def _gaps(ends: Sequence[End]) -> tuple[int, ...]:
    """The gap of each two adjacent columns with these doubled ends: b(left)
    - b(right), floored, as in ``_Step``."""
    return tuple((lb - rb) // 2 for (lb, _), (rb, _) in zip(ends, ends[1:]))


def _descends(gaps: Sequence[int], types: Sequence[Types]) -> bool:
    """nu_{k;i} >= nu_{k+1;i} for all adjacent columns of a state and every
    i both type tuples reach, that is gap >= L_{k,i} - L_{k+1,i} with the
    gaps of ``_gaps``."""
    for gap, left, right in zip(gaps, types, types[1:]):
        if max(map(sub, left, right)) > gap:
            return False
    return True


def _cells(ends: Sequence[End], write: Callable = HalfInt) -> list[list]:
    """For each column with doubled segment ends (b, e), its entries b,
    b - 1, ..., e, each written by ``write`` from its double; the columns
    share one written value per value.  Only the values some column holds
    are written, so segments far apart cost no more than near ones; the
    ends lie on one grid, so each column's values are a contiguous run of
    them in descending order."""
    values = sorted(set().union(*(range(e, b + 1, 2) for b, e in ends)), reverse=True)
    at = {v: u for u, v in enumerate(values)}
    table = list(map(write, values))
    return [table[at[b] : at[e] + 1] for b, e in ends]


def _antitableau_grid(cells: Sequence[Sequence], types: Sequence[Types]) -> tuple:
    """Reconstruct the filled rows from column types.

    Grid column c stacks, for k = c..r, the entries of component k+1-c of
    state column k: b(nu_k) - u for u = L_{k,i-1} .. L_{k,i} - 1, with
    i = k+1-c; ``cells[k-1][u]`` holds b(nu_k) - u.  The code counts c and
    k from 0.
    """
    r = len(types)
    grid_cols = []
    for c in range(r):
        col: list = []
        for k in range(c, r):
            col += cells[k][types[k][k - c] : types[k][k - c + 1]]
        grid_cols.append(col)
    # row t holds entry t of every column that long (a cell is truthy)
    return tuple(tuple(filter(None, row)) for row in zip_longest(*grid_cols))


@dataclass(frozen=True)
class Reduction:
    """Outcome of the full reduce: a zero certificate or an antitableau."""

    zero: Optional[Witness]
    antitableau: Optional[tuple[tuple[HalfInt, ...], ...]] = None
    rows: Optional[Rows] = None

    @property
    def nonzero(self) -> bool:
        return self.zero is None


class CompiledReduction:
    """Trapa's reduction for one parameter, ready for many vectors.

    Apart from the types, everything the reduction works on depends only on
    the parameter: the canonical arrangement, the transport of the reference
    vector there (affine forms, see ``transition.transported_forms``), and
    the segments of every rewrite, since a rewrite always turns its two
    segments into their max/min pair whatever the types.  ``reduce(p)``
    transports p, checks the box, builds the integer types column by column
    and runs each column's compiled rewrites as it arrives.  Column k's
    rewrites are compiled, with those of every column before it, the first
    time a vector reaches column k, so a vector that certifies zero there
    compiles nothing after it; the final segments' ends once a vector
    reaches the last column, or on ``cells``.  A parameter of more than
    ``MAX_BOXES`` boxes is refused at construction, before anything is
    built per box.

    The state after k columns depends only on the first k canonical
    entries, so an instance keeps the states of the last vector it ran and
    resumes the next at its first canonical entry that differs.  A
    column's outcome depends only on its types and those before it, so an
    instance numbers the types it reaches, checking final ones once, and
    keeps each column's outcome keyed on (number of the types before, its
    types).  These, and the steps built on first need, make an instance
    unfit for sharing between threads.  ``final_states(vectors)`` yields,
    for each vector in turn, the final types, their number and the row
    counts by length and end sign (from which, and from the prefix it shares
    with the survivor before, ``packets.packet_entries`` writes an entry),
    or the zero witness.  ``run(p)``, its one-vector case, returns the
    final types and the signed rows read out of the counts;
    ``antitableau(types)`` reads the filled rows out of the types, and
    ``reduce`` wraps both in a ``Reduction``.
    """

    def __init__(self, psi: GoodParityParameter) -> None:
        if psi.n > MAX_BOXES:
            raise ResourceLimitError(
                f"the parameter has {psi.n} boxes, more than {MAX_BOXES}:"
                " its tableau is too large to write out"
            )
        self.psi = psi
        self.sigma = appropriate_arrangement(psi)
        self.lengths = tuple(psi.seg(comp).m for comp in self.sigma)
        self._identity = self.sigma == tuple(range(1, psi.r + 1))  # transport is the identity
        # _states[k]: the types, their number and row counts after k entries of _last
        self._last: Sequence[int] = ()
        self._states: list[tuple] = [((), 0, [0] * (psi.r + 2), [0] * (psi.r + 2))]
        # types -> (the same types, kept once, and their number)
        self._numbered: dict[tuple[Types, ...], tuple] = {(): ((), 0)}
        # (number of the types before column k, its types) -> _insert's outcome
        self._outcomes: dict[tuple[int, Types], Union[Witness, tuple]] = {}
        # _steps[k - 1]: column k's (position, step) pairs, for the columns
        # built so far; _ends: the doubled segment ends after them
        self._steps: list[tuple[tuple[int, _Step], ...]] = [()]
        self._ends = [(s.b.twice, s.e.twice) for s in map(psi.seg, self.sigma)]

    @cached_property
    def _forms(self) -> tuple[AffineForm, ...]:
        reference = tuple(range(1, self.psi.r + 1))
        path = bubble_path(reference, self.sigma)
        return transported_forms(self.psi, reference, path, self.sigma)

    def _column_steps(self, k: int) -> tuple[tuple[int, _Step], ...]:
        """Column k's (position, step) pairs in Trapa's insertion order, run
        on the doubled segment ends: column k bubbles leftward through the
        rewrite, up to a left segment that precedes it.  Builds every
        column up to k not built yet; a column that fails leaves the ends
        as they were before it."""
        steps = self._steps
        while len(steps) < k:
            ends, column = list(self._ends), []
            for pos in range(len(steps), 0, -1):
                step = _pair_step(ends[pos - 1], ends[pos])
                if step is None:
                    # the canonical arrangement and the rewrites rule it out
                    raise InvariantViolationError(
                        f"insertion at position {pos} met a left segment"
                        f" preceded by the right one in {self.psi}"
                    )
                column.append((pos, step))
                if not step.rewrite:
                    break
                ends[pos - 1], ends[pos] = step.ends
            steps.append(tuple(column))
            self._ends = ends
        return steps[k - 1]

    @cached_property
    def _final_ends(self) -> tuple[End, ...]:
        """The final columns' doubled segment ends, once every column is built."""
        self._column_steps(len(self.lengths))
        return tuple(self._ends)

    @cached_property
    def _final_gaps(self) -> tuple[int, ...]:
        return _gaps(self._final_ends)

    def cells(self, write: Callable[[int], Any]) -> list[list]:
        """The antitableau cells with each value written by ``write`` from
        its double, for ``antitableau(types, cells)``."""
        return _cells(self._final_ends, write)

    def _start(self, p: Sequence[int] | ParamVector) -> Union[Witness, Sequence[int]]:
        """p's entries on the canonical arrangement, or the first of them in
        arrangement order that leaves its box, as a "B" witness."""
        p = _reference_entries(self.psi, p)
        entries = p if self._identity else [affine_value(form, p) for form in self._forms]
        for comp, entry, m in zip(self.sigma, entries, self.lengths):
            if not 0 <= entry <= m:
                return Witness("B", (comp,), self.sigma, (entry, m))
        return entries

    def run(
        self, p: Sequence[int] | ParamVector
    ) -> Union[Witness, tuple[tuple[Types, ...], Rows]]:
        """The core of ``reduce``: p's final types (padded, see ``_column``)
        and signed rows, or the witness that p is zero."""
        result = next(self.final_states((p,)))
        if isinstance(result, Witness):
            return result
        types, _, plus, minus = result
        return types, _rows(plus, minus)

    def final_states(
        self, vectors: Iterable[Sequence[int] | ParamVector]
    ) -> Iterator[Union[Witness, tuple]]:
        """For each vector in turn, its final types, their number (equal
        types, equal numbers) and the row counts ``plus`` and ``minus`` of
        ``_column``, or the witness that it is zero.  Each vector resumes
        after the longest prefix of canonical entries it shares with the
        last vector run, and takes each column's outcome from the
        instance's memo or ``_insert``."""
        start_of, states, outcomes = self._start, self._states, self._outcomes
        lengths, insert = self.lengths, self._insert
        for p in vectors:
            entries = start_of(p)
            if isinstance(entries, Witness):
                yield entries
                continue
            last, start = self._last, 0
            while start < len(states) - 1 and entries[start] == last[start]:
                start += 1
            del states[start + 1 :]
            self._last = entries
            types, number, plus, minus = states[start]
            for k in range(start + 1, len(entries) + 1):
                L, plus, minus = _column(plus, minus, entries[k - 1], lengths[k - 1], k)
                key = (number, L)
                outcome = outcomes.get(key)
                if outcome is None:
                    outcome = outcomes[key] = insert(types, L, k)
                if isinstance(outcome, Witness):
                    break
                types, number = outcome
                states.append((types, number, plus, minus))
            else:
                outcome = types, number, plus, minus
            yield outcome

    def _insert(self, types: tuple[Types, ...], L: Types, k: int) -> Union[Witness, tuple]:
        """Column k, of types L, after columns of these types: the types after
        its compiled steps and their number, or the overlap witness.  Final
        types are numbered only once they pass the antitableau check."""
        new = [*types, L]
        for pos, step in self._column_steps(k):
            ov, result = _run_step(step, new[pos - 1], new[pos], pos, pos + 1)
            if result is None:
                return Witness("overlap", (pos, pos + 1), self.sigma, (ov, step.sing))
            new[pos - 1], new[pos] = result
        after = tuple(new)
        fresh = after, len(self._numbered)
        known = self._numbered.setdefault(after, fresh)
        if known is fresh and k == len(self.lengths):
            if not _descends(self._final_gaps, after):
                del self._numbered[after]
                raise InvariantViolationError(f"a non-antitableau state at the end: {after}")
        return known

    def antitableau(
        self, types: Sequence[Types], cells: Optional[list] = None
    ) -> tuple[tuple, ...]:
        """The antitableau that final types from ``run`` describe, with the
        entries of ``cells`` (by default the ``HalfInt`` ones)."""
        return _antitableau_grid(cells or _cells(self._final_ends), types)

    def reduce(self, p: Sequence[int] | ParamVector) -> Reduction:
        """Reduce p (reference entries, or a vector on any admissible
        arrangement) to an antitableau, or certify zero."""
        result = self.run(p)
        if isinstance(result, Witness):
            return Reduction(result)
        types, rows = result
        return Reduction(None, self.antitableau(types), rows)


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
    """Like trapa_reduce, but applies the local rewrite to the columns in a
    random valid order.

    Used to exercise confluence: the final antitableau must not depend on
    the schedule.  Only the transport and the box check are shared with
    ``CompiledReduction``.
    """
    compiled = CompiledReduction(psi)
    entries = compiled._start(p)
    if isinstance(entries, Witness):
        return Reduction(entries)
    sigma = compiled.sigma
    ends = [(s.b.twice, s.e.twice) for s in map(psi.seg, sigma)]
    types, rows = _build(entries, compiled.lengths)
    while True:
        pending = []  # (position, step, overlap, new types) of every step that acts
        for pos in range(1, len(ends)):
            step = _pair_step(ends[pos - 1], ends[pos])
            if step is None:
                continue
            ov, result = _run_step(step, types[pos - 1], types[pos], pos, pos + 1)
            if result is None or (step.ends, result) != (
                (ends[pos - 1], ends[pos]), (types[pos - 1], types[pos])
            ):
                pending.append((pos, step, ov, result))
        if not pending:
            break
        pos, step, ov, result = pending[rng.randrange(len(pending))]
        if result is None:
            return Reduction(Witness("overlap", (pos, pos + 1), sigma, (ov, step.sing)))
        (ends[pos - 1], ends[pos]), (types[pos - 1], types[pos]) = step.ends, result
    if not _descends(_gaps(ends), types):
        raise InvariantViolationError(
            f"reduction finished on a non-antitableau state for p={p}"
        )
    return Reduction(None, _antitableau_grid(_cells(ends), types), rows)


def last_column_type(
    psi: GoodParityParameter, p: Sequence[int] | ParamVector
) -> tuple[HalfInt, ...]:
    """Pointwise minimum of the built last-column types over all arrangements.

    Defined only for non-vanishing parameters; equals the last column of
    the reduced antitableau (a tested identity).
    """
    pv = ParamVector.reference(_reference_entries(psi, p))
    reduction = trapa_reduce(psi, pv)
    if not reduction.nonzero:
        raise InputError("last-column type is undefined for a zero parameter")
    fills = [
        [x.twice for x in build_tableau(psi, phi(psi, pv, sigma)).columns[-1].fills()]
        for sigma in enumerate_admissible(psi)
    ]
    return tuple(HalfInt(min(types)) for types in zip(*fills))


def upper_bound_check(prefix: Sequence[Column], last: Column) -> bool:
    """Decide non-zero insertion of a final column into an antitableau prefix.

    The prefix columns mu_1..mu_{r-1} must satisfy mu_{k;i} >= mu_{k+1;i},
    with the first h preceding the new segment and the rest contained in it.
    Evaluates the two quantified-minimum inequalities: chains
    i = j_0 > j_1 > ... walk down the prefix columns from the newest to
    column h, accumulating type differences.
    """
    columns = [*prefix, last]
    ends, types = _state(columns, max(c.height for c in columns) + 2)
    if not _descends(_gaps(ends[:-1]), types[:-1]):
        raise InputError("prefix columns are not an antitableau")
    rels = [Segment.relate_twice(*end, *ends[-1]) for end in ends[:-1]]
    h = sum(1 for rel in rels if rel is Relation.PRECEDES)
    if any(rel is not Relation.PRECEDES for rel in rels[:h]) or any(
        rel is not Relation.CONTAINED for rel in rels[h:]
    ):
        raise InputError(
            "prefix must split into preceding segments followed by contained ones"
        )
    # A chain step j0 -> j1 in column k adds mu_{k;j0} - mu_{k;j1}, which is
    # the type difference L_{k,j1} - L_{k,j0}: the chain minima are integers.
    # Every type at index 0 or below is 0, so chain ends at or below 0 are
    # one state, 0, where a chain stays and carries its value.
    contained = types[h : len(prefix)][::-1]  # newest first
    anchor, top = types[h - 1], types[-1]
    gap = (ends[h - 1][0] - ends[-1][0]) // 2
    for i in range(last.height + 1):
        level = {i: 0}  # chain end -> least sum over chains of the steps so far
        for L in contained:
            nxt: dict[int, int] = {}
            for j0, acc in level.items():
                for j1 in range(j0) if j0 else (0,):
                    cand = acc + L[j1] - L[j0]
                    if j1 not in nxt or cand < nxt[j1]:
                        nxt[j1] = cand
            level = nxt
        # (a) full chains, then anchor at column h: mu_last(i) >
        # min(acc + mu_{h;j}), with both tops taken out; with no preceding
        # column there is no anchor and (a) is vacuous
        if h and gap < -top[i] - min(acc - anchor[j] for j, acc in level.items()):
            return False
        # (b) chains of any length that step down to 0 (from i = 0 the
        # empty chain, which passes since L_last(0) = 0)
        if 0 in level and -top[i] > level[0]:
            return False
    return True
