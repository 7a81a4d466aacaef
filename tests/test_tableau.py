"""The tableau engine: building, the local rewrite, and full reduction.

The frozen values in TestBuildFixture come from reducing the U(6,8)
example by hand; every other test is a property checked against either the
constraint engine or a brute-force enumeration.
"""

import hashlib
import random
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlam import GoodParityParameter, HalfInt, intersection_size, tableau
from aqlam.arrangements import appropriate_arrangement, enumerate_admissible
from aqlam.criterion import CompiledCriterion, Witness, nonvanishing, nonvanishing_simplified
from aqlam.errors import InputError, InvariantViolationError
from aqlam.segments import Relation, Segment, relation
from aqlam.tableau import (
    Column,
    CompiledReduction,
    TableauState,
    build_tableau,
    last_column_type,
    overlap,
    reduce_with_schedule,
    trapa_op,
    trapa_reduce,
    upper_bound_check,
    validate_antitableau,
)
from aqlam.transition import ParamVector, phi

from conftest import box, parameter_family, random_entry_vector, random_parameter, seg
from test_criterion import reordered_family


def h(x) -> HalfInt:
    return HalfInt.of(x)


def grid_ints(reduction):
    return tuple(tuple(int(x) for x in row) for row in reduction.antitableau)


class TestBuildFixture:
    """m = (3,5,6), p = (2,2,2)."""

    def test_types(self, psi_A):
        state = build_tableau(psi_A, ParamVector.reference((2, 2, 2)))
        assert [c.L for c in state.columns] == [
            (0, 3),
            (0, 3, 5),
            (0, 3, 4, 6),
        ]

    def test_rows(self, psi_A):
        state = build_tableau(psi_A, ParamVector.reference((2, 2, 2)))
        assert state.rows == (
            (3, "+"), (3, "+"), (3, "-"), (2, "-"),
            (1, "-"), (1, "-"), (1, "-"),
        )

    def test_overlaps(self, psi_A):
        state = build_tableau(psi_A, ParamVector.reference((2, 2, 2)))
        assert overlap(state, 1) == 3
        assert overlap(state, 2) == 4

    def test_column_fills(self, psi_A):
        state = build_tableau(psi_A, ParamVector.reference((2, 2, 2)))
        assert state.columns[2].fills() == (h(7), h(4), h(3), h(1))


def test_overlap_closed_form():
    # overlap of adjacent built columns is min{p_k, q_{k+1}} + min{q_k, p_{k+1}}
    rng = random.Random(41)
    for _ in range(120):
        psi = random_parameter(rng, rng.randint(2, 4), b_max=7, m_max=4)
        p = random_entry_vector(rng, psi)
        state = build_tableau(psi, ParamVector.reference(p))
        for k in range(1, psi.r):
            p_k, p_k1 = p[k - 1], p[k]
            q_k, q_k1 = psi.m(k) - p_k, psi.m(k + 1) - p_k1
            assert overlap(state, k) == min(p_k, q_k1) + min(q_k, p_k1)


class TestTrapaOp:
    def test_containment_example(self):
        # [3,2] containing [3,3]: the rewrite swaps them and moves a box
        psi = GoodParityParameter((seg(3, 2), seg(3, 1)))
        state = build_tableau(psi, ParamVector.reference((1, 0)))
        assert [c.L for c in state.columns] == [(0, 2), (0, 1, 1)]
        new_left, new_right = trapa_op(*state.columns)
        assert new_left.segment == seg(3, 1)
        assert new_right.segment == seg(3, 2)
        assert new_left.L == (0, 1)
        assert new_right.L == (0, 1, 2)

    def test_zero_detection(self):
        # p = (2,2,2) on the vanishing fixture: columns 2,3 overlap by 4
        psi = GoodParityParameter.from_components([(12, 3), (8, 5), (7, 6)])
        state = build_tableau(psi, ParamVector.reference((2, 2, 2)))
        result = trapa_op(state.columns[1], state.columns[2])
        assert result == Witness("overlap", (1, 2), None, (4, 5))

    def test_precedence_is_noop(self):
        psi = GoodParityParameter((seg(7, 3), seg(4, 2)))
        state = build_tableau(psi, ParamVector.reference((2, 1)))
        assert trapa_op(*state.columns) == state.columns

    def test_elementary_pair_shape(self):
        # the rewritten segments are the coordinatewise max/min pair
        rng = random.Random(42)
        done = 0
        while done < 150:
            psi = random_parameter(rng, 2, b_max=7, m_max=5)
            if not relation(psi, 1, 2).is_containment:
                continue
            p = random_entry_vector(rng, psi)
            state = build_tableau(psi, ParamVector.reference(p))
            result = trapa_op(*state.columns)
            if isinstance(result, Witness):
                sing = intersection_size(psi.seg(1), psi.seg(2))
                assert overlap(state, 1) < sing
                done += 1
                continue
            s, t = psi.seg(1), psi.seg(2)
            out = [(c.segment.b.twice, c.segment.e.twice) for c in result]
            assert out[0] == (max(s.b.twice, t.b.twice), max(s.e.twice, t.e.twice))
            assert out[1] == (min(s.b.twice, t.b.twice), min(s.e.twice, t.e.twice))
            # total box count is conserved
            assert result[0].L[-1] + result[1].L[-1] == state.columns[0].L[-1] + state.columns[1].L[-1]
            done += 1


class TestReduceFixtures:
    def test_nonzero_antitableau(self, psi_A):
        red = trapa_reduce(psi_A, (2, 2, 2))
        assert red.nonzero
        assert grid_ints(red) == (
            (7, 7, 6),
            (6, 6, 5),
            (5, 5, 4),
            (4, 3),
            (3,),
            (2,),
            (1,),
        )

    def test_nonzero_rows(self, psi_A):
        red = trapa_reduce(psi_A, (2, 2, 2))
        assert red.rows == (
            (3, "+"), (3, "+"), (3, "-"), (2, "-"),
            (1, "-"), (1, "-"), (1, "-"),
        )

    def test_zero_witness(self, psi_B):
        red = trapa_reduce(psi_B, (2, 2, 2))
        assert not red.nonzero
        assert red.zero.kind == "overlap"
        assert red.zero.values == (4, 5)
        assert red.antitableau is None

    def test_row_grid_consistency(self, psi_A):
        red = trapa_reduce(psi_A, (2, 2, 2))
        # the signed rows partition the same boxes as the antitableau
        assert sorted(len(r) for r in red.antitableau) == sorted(
            length for length, _ in red.rows
        )


def test_antitableau_is_valid_everywhere():
    rng = random.Random(43)
    for _ in range(150):
        psi = random_parameter(rng, rng.randint(1, 5), b_max=7, m_max=4)
        p = random_entry_vector(rng, psi)
        red = trapa_reduce(psi, p)
        if not red.nonzero:
            continue
        columns = reduced_columns(psi, p)
        assert columns is not None  # the stepwise reduction finds it nonzero too
        state = TableauState(tuple(columns), red.rows, appropriate_arrangement(psi))
        assert validate_antitableau(state)
        # rows weakly decrease, columns strictly decrease
        g = [[x.twice for x in row] for row in red.antitableau]
        for row in g:
            assert all(row[c] >= row[c + 1] for c in range(len(row) - 1))
        for t in range(len(g) - 1):
            for c in range(len(g[t + 1])):
                assert g[t][c] > g[t + 1][c]


def test_reduce_agrees_with_criterion_random():
    rng = random.Random(44)
    for _ in range(250):
        psi = random_parameter(rng, rng.randint(1, 4), b_max=7, m_max=4)
        p = random_entry_vector(rng, psi)
        assert trapa_reduce(psi, p).nonzero == nonvanishing(psi, p).nonzero


@pytest.mark.parametrize("call, message", [
    (lambda state: overlap(state, 0), "column position 0 out of range"),
    (lambda state: overlap(state, 3), "column position 3 out of range"),
    (
        lambda state: trapa_op(state.columns[2], state.columns[0]),
        "right segment [7,5] precedes left [6,1]",
    ),
])
def test_bad_positions_and_orders_are_input_errors(psi_A, call, message):
    state = build_tableau(psi_A, ParamVector.reference((2, 2, 2)))
    with pytest.raises(InputError) as info:
        call(state)
    assert str(info.value) == message


def test_a_tableau_before_its_rewrites_need_not_be_an_antitableau(psi_A):
    # p = 0: the first column's filling types (8, 5) fall below the
    # second's (8, 8, 3) at i = 1
    assert not validate_antitableau(build_tableau(psi_A, ParamVector.reference((0, 0, 0))))


def test_out_of_box_entry(psi_A):
    witness = trapa_reduce(psi_A, (2, 6, 2)).zero
    assert (witness.kind, witness.indices, witness.values) == ("B", (2,), (6, 5))
    assert reduce_with_schedule(psi_A, (2, 6, 2), random.Random(1)).zero == witness
    with pytest.raises(InputError, match="outside box"):
        build_tableau(psi_A, ParamVector.reference((2, 6, 2)))


@pytest.mark.parametrize("sigma", [(1, 1, 1), (1, 2), (1, 2, 4)])
def test_an_arrangement_off_psi_is_an_input_error(psi_A, sigma):
    # three copies of component 1 once built a tableau of three equal columns
    with pytest.raises(InputError) as info:
        build_tableau(psi_A, ParamVector((0,) * len(sigma), sigma))
    assert str(info.value) == f"not a permutation of 1..3: {sigma}"


def test_an_inadmissible_arrangement_is_an_input_error(psi_A):
    # [7,3] precedes [6,1]: on (1, 3, 2) this once built a three-column tableau
    with pytest.raises(InputError) as info:
        build_tableau(psi_A, ParamVector((2, 2, 2), (1, 3, 2)))
    assert str(info.value) == "arrangement (1, 3, 2) is not admissible"


def test_last_column_type_fixture(psi_A):
    assert last_column_type(psi_A, (2, 2, 2)) == (h(7), h(4), h(3), h(1))


def test_last_column_type_matches_reduced_column():
    rng = random.Random(45)
    done = 0
    while done < 120:
        psi = random_parameter(rng, rng.randint(2, 4), b_max=6, m_max=4)
        p = random_entry_vector(rng, psi)
        red = trapa_reduce(psi, p)
        if not red.nonzero:
            continue
        assert last_column_type(psi, p) == reduced_columns(psi, p)[-1].fills()
        done += 1


def test_last_column_type_zero_rejected(psi_B):
    with pytest.raises(InputError):
        last_column_type(psi_B, (2, 2, 2))


def seeded_sweep():
    """(psi, p, nonzero) triples: fixture A at (2, 2, 2), then random box
    vectors of seeded random parameters at r = 2-6, on the integral and on
    the half-integral grid, until each (r, grid) has twelve nonzero ones."""
    yield GoodParityParameter.from_components([(12, 3), (10, 5), (7, 6)]), (2, 2, 2), True
    rng = random.Random(61)
    for r in range(2, 7):
        for half_grid in (False, True):
            done = 0
            while done < 12:
                psi = random_parameter(rng, r, m_max=4, half_grid=half_grid)
                p = random_entry_vector(rng, psi)
                nonzero = trapa_reduce(psi, p).nonzero
                yield psi, p, nonzero
                done += nonzero


# sha256 of the newline-joined ``repr`` of ``last_column_type(psi, p)`` over
# the nonzero vectors of ``seeded_sweep()``, recorded before the minimum was
# taken on doubled ints (121 vectors)
LAST_COLUMN_RECORD = "11e8df129695aa6efba588b3258a3d3c7f72930254855195a03726e1e4669b51"


def test_last_column_types_match_their_record():
    lines = [repr(last_column_type(psi, p)) for psi, p, nonzero in seeded_sweep() if nonzero]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (121, LAST_COLUMN_RECORD)


def trapa_outcome(left, right):
    """``trapa_op(left, right)``, with a zero outcome as its (overlap, sing)."""
    result = trapa_op(left, right)
    if isinstance(result, Witness):
        return result.values
    return result


# sha256 of the newline-joined ``repr`` of ``trapa_outcome`` on every two
# adjacent columns of the tableau of every vector of ``seeded_sweep()`` at
# every admissible order that keeps its entries in their boxes, recorded
# while ``trapa_op`` had its own zero certificate (10,833 outcomes, 2,513
# of them zero)
TRAPA_OP_RECORD = "b7521ca3338d5c95d10e96bf6300a634021d47f1c884ff9ffbda4e6577d96c68"


def test_trapa_op_outcomes_match_their_record():
    lines = []
    for psi, p, _ in seeded_sweep():
        for sigma in enumerate_admissible(psi):
            try:
                columns = build_tableau(psi, phi(psi, ParamVector.reference(p), sigma)).columns
            except InputError:  # an entry leaves its box at sigma
                continue
            lines += [repr(trapa_outcome(*pair)) for pair in zip(columns, columns[1:])]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (10833, TRAPA_OP_RECORD)


def test_confluence_small():
    rng = random.Random(46)
    done = 0
    while done < 60:
        psi = random_parameter(rng, rng.randint(2, 5), b_max=7, m_max=4)
        p = random_entry_vector(rng, psi)
        baseline = trapa_reduce(psi, p)
        sched = reduce_with_schedule(psi, p, rng)
        assert sched.nonzero == baseline.nonzero
        if baseline.nonzero:
            assert sched.antitableau == baseline.antitableau
            assert sched.rows == baseline.rows
        done += 1


def insert_leftward(columns, start, sigma):
    """Bubble the column at position start (1-based) leftward through
    ``trapa_op``, as the reduction inserts it, up to a left segment that
    precedes it; a zero witness or None."""
    for pos in range(start - 1, 0, -1):
        left, right = columns[pos - 1], columns[pos]
        result = trapa_op(left, right)
        if isinstance(result, Witness):
            return Witness("overlap", (pos, pos + 1), sigma, result.values)
        columns[pos - 1], columns[pos] = result
        (lb, le), (rb, re) = ((c.segment.b.twice, c.segment.e.twice) for c in (left, right))
        if Segment.relate_twice(lb, le, rb, re) is Relation.PRECEDES:
            return None
    return None


def reduced_columns(psi, p, through=None):
    """The stepwise reduction: the columns of p's tableau on the canonical
    arrangement after ``insert_leftward`` of columns 2..through (by default
    all r), or None once one certifies zero."""
    sigma = appropriate_arrangement(psi)
    columns = list(build_tableau(psi, phi(psi, ParamVector.reference(p), sigma)).columns)
    for k in range(2, (psi.r if through is None else through) + 1):
        if insert_leftward(columns, k, sigma) is not None:
            return None
    return columns


class TestUpperBound:
    def test_equivalence_with_insertion(self):
        rng = random.Random(47)
        done = 0
        while done < 200:
            psi = random_parameter(rng, rng.randint(2, 4), b_max=6, m_max=4)
            p = random_entry_vector(rng, psi)
            columns = reduced_columns(psi, p, psi.r - 1)  # all but the last reduced
            if columns is None:
                continue
            prefix, last = columns[:-1], columns[-1]
            try:
                predicted = upper_bound_check(prefix, last)
            except InputError:
                continue  # precondition (precedes-then-contained) fails
            sigma = appropriate_arrangement(psi)
            inserted = (
                insert_leftward(list(columns), len(columns), sigma) is None
            )
            assert predicted == inserted
            done += 1

    def test_rejects_non_antitableau_prefix(self):
        lo = Column(seg(3, 2), (0, 2))
        hi = Column(seg(5, 2), (0, 2))
        with pytest.raises(InputError):
            upper_bound_check([lo, hi], Column(seg(3, 1), (0, 1)))

    # sha256 of the newline-joined ``repr`` of ``outcome`` over
    # ``upper_bound_inputs()``, recorded before the check was rewritten on
    # padded types, and re-pinned when the check stopped taking h: the
    # lines of the earlier record that let it derive h (4,700 of 24,915;
    # the rest gave every h from 0 to r)
    RECORD = "8cb723a4de2e1a34a27e4e3503eb40d083ded5369536d092628d6b9890fbd0c7"

    @staticmethod
    def outcome(prefix, last):
        """``upper_bound_check(prefix, last)``, or the message of the
        ``InputError`` it raised."""
        try:
            return upper_bound_check(prefix, last)
        except InputError as exc:
            return str(exc)

    @classmethod
    def upper_bound_inputs(cls):
        """(prefix, last) pairs from ``compiled_inputs()``: for each vector
        whose canonical tableau exists, its built columns, and the columns
        after inserting all but the last unless that certifies zero."""
        for psi, vectors in compiled_inputs():
            sigma = appropriate_arrangement(psi)
            for p in vectors:
                try:
                    built = build_tableau(psi, phi(psi, ParamVector.reference(p), sigma))
                except InputError:
                    continue
                yield built.columns[:-1], built.columns[-1]
                reduced = reduced_columns(psi, p, psi.r - 1)
                if reduced is not None:
                    yield reduced[:-1], reduced[-1]

    def test_matches_the_record(self):
        lines = [repr(self.outcome(prefix, last)) for prefix, last in self.upper_bound_inputs()]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == (4700, self.RECORD)


def test_exhaustive_r2_against_criterion():
    for b1 in range(1, 6):
        for m1 in range(1, 4):
            for b2 in range(1, 6):
                for m2 in range(1, 4):
                    try:
                        psi = GoodParityParameter((seg(b1, m1), seg(b2, m2)))
                    except InputError:
                        continue
                    for p in box(psi):
                        assert (
                            trapa_reduce(psi, p).nonzero
                            == nonvanishing(psi, p).nonzero
                        )


def compiled_inputs():
    """(psi, vectors) pairs: every 25th parameter of the acceptance sweep
    family on its whole box, and 300 seeded random r <= 8 parameters, every
    second one in a random admissible order other than the canonical one,
    each with three box vectors and two vectors leaving the box."""
    family = parameter_family([HalfInt(t) for t in range(1, 13)], 4, (1, 2, 3))
    for psi in family[::25]:
        yield psi, list(box(psi))
    rng = random.Random(5)
    for t in range(300):
        r = rng.randint(2, 8)
        psi = random_parameter(rng, r, m_max=4)
        others = [s for s in enumerate_admissible(psi) if s != tuple(range(1, r + 1))]
        if t % 2 and others:
            psi = GoodParityParameter(tuple(psi.seg(i) for i in rng.choice(others)))
        vectors = [random_entry_vector(rng, psi) for _ in range(3)]
        for _ in range(2):
            p = list(random_entry_vector(rng, psi))
            k = rng.randrange(r)
            p[k] = psi.m(k + 1) + 1 if rng.random() < 0.5 else -1
            vectors.append(tuple(p))
        yield psi, vectors


class TestCompiledReduction:
    # sha256 of the newline-joined ``repr`` of ``trapa_reduce(psi, p)`` over
    # ``compiled_inputs()``, recorded before the reduction was compiled
    # (3,533 vectors: 1,429 antitableaux, 1,365 overlap and 739 "B" witnesses),
    # and re-pinned with each line's trailing ``, state=...`` cut when
    # ``Reduction`` lost that field
    RECORD = "ae460f7f605e8857e55ee79b8b682e8cfe4e3dc00294a01e01dd3f6af2a95e6c"

    def test_matches_the_record_of_the_uncompiled_reduction(self):
        lines = []
        for psi, vectors in compiled_inputs():
            compiled = CompiledReduction(psi)
            lines += [repr(compiled.reduce(p)) for p in vectors]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == (3533, self.RECORD)

    # sha256 of the newline-joined ``repr`` of ``reduce_with_schedule(psi, p,
    # random.Random(n))`` for the n-th vector of ``compiled_inputs()``,
    # recorded before the oracle ran on integer ends and types, and
    # re-pinned with each line's trailing ``, state=...`` cut
    SCHEDULE_RECORD = "8fc77d63902c71d8432ff2a9d8f91bfd928d617f3e1dfb660aef384ed00ee010"

    def test_schedule_oracle_matches_its_record(self):
        vectors = ((psi, p) for psi, vectors in compiled_inputs() for p in vectors)
        lines = [
            repr(reduce_with_schedule(psi, p, random.Random(n)))
            for n, (psi, p) in enumerate(vectors)
        ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == (3533, self.SCHEDULE_RECORD)

    @staticmethod
    def sweep_inputs():
        """(psi, vectors) pairs: four seeded parameters per r = 2..16 on each
        grid, lengths up to 2 or 5, those with r <= 6 every second one in a
        random admissible order; each with three random box vectors (mostly
        zero), up to three survivors of a random rank, each followed by a
        vector that differs from it in one entry, and one vector one step
        outside the box."""
        rng = random.Random(113)
        for r in range(2, 17):
            for half_grid in (False, True):
                for t in range(4):
                    psi = random_parameter(rng, r, m_max=rng.choice((2, 5)), half_grid=half_grid)
                    if r <= 6 and t % 2:
                        order = rng.choice(enumerate_admissible(psi))
                        psi = GoodParityParameter(tuple(psi.seg(i) for i in order))
                    vectors = [random_entry_vector(rng, psi) for _ in range(3)]
                    rank = rng.randint(0, psi.n)
                    for p in islice(CompiledCriterion(psi).survivors(rank), 3):
                        k = rng.randrange(r)
                        vectors += [p, (*p[:k], rng.randint(0, psi.m(k + 1)), *p[k + 1 :])]
                    p = list(random_entry_vector(rng, psi))
                    k = rng.randrange(r)
                    p[k] = psi.m(k + 1) + 1 if rng.random() < 0.5 else -1
                    yield psi, [*vectors, tuple(p)]

    # sha256 of the newline-joined ``repr`` of ``trapa_reduce(psi, p)`` over
    # ``sweep_inputs()``, and of ``run(p)`` of one warm ``CompiledReduction``
    # per parameter over its vectors in turn, recorded before the insertion
    # steps were built on first need (742 vectors: 277 antitableaux, 331
    # overlap and 134 "B" witnesses); the first re-pinned with each line's
    # trailing ``, state=...`` cut
    SWEEP_RECORD = "da8b550f7f854e1658022f3873c6c9690fe8ef09b1404bf1e65e6b0fc4744e77"
    WARM_RECORD = "10483300d2e9e7f78a9b5edb296764077abd3ca0fe2775f74c1cbf69a0256eb8"

    def test_a_sweep_to_r16_matches_its_records(self):
        inputs = list(self.sweep_inputs())
        cold = [repr(trapa_reduce(psi, p)) for psi, vectors in inputs for p in vectors]
        warm = []
        for psi, vectors in inputs:
            compiled = CompiledReduction(psi)
            warm += [repr(compiled.run(p)) for p in vectors]
        digests = [hashlib.sha256("\n".join(lines).encode()).hexdigest() for lines in (cold, warm)]
        assert (len(cold), len(warm), *digests) == (742, 742, self.SWEEP_RECORD, self.WARM_RECORD)

    def test_final_states_match_fresh_instances_on_the_record_sweep(self):
        # one batch per parameter against a fresh instance per vector, so
        # nothing is resumed: the record's sweep puts zero vectors among
        # nonzero ones, so a batch resumes after a witness, and on
        # reordered_family() every vector is transported.  The numbers are
        # the batch's own: equal final types, equal numbers
        rng = random.Random(29)
        inputs = list(self.sweep_inputs())
        for psi in reordered_family():
            vectors = []
            for p in islice(CompiledCriterion(psi).survivors(), 0, None, 7):
                vectors += [p, random_entry_vector(rng, psi)]
            inputs.append((psi, vectors))
        states = witnesses = 0
        for psi, vectors in inputs:
            batch = list(CompiledReduction(psi).final_states(vectors))
            for p, state in zip(vectors, batch, strict=True):
                fresh = next(CompiledReduction(psi).final_states((p,)))
                if isinstance(fresh, Witness):
                    assert state == fresh, (psi, p)
                    witnesses += 1
                    continue
                assert (state[0], *state[2:]) == (fresh[0], *fresh[2:]), (psi, p)
                states += 1
            numbers = {s[0]: s[1] for s in batch if not isinstance(s, Witness)}
            assert len(set(numbers.values())) == len(numbers), psi
            assert all(numbers[s[0]] == s[1] for s in batch if not isinstance(s, Witness))
        assert states > 1000 and witnesses > 1000

    def test_agrees_with_the_schedule_oracle(self):
        rng = random.Random(6)
        for n, (psi, vectors) in enumerate(compiled_inputs()):
            compiled = CompiledReduction(psi)
            for p in vectors[n % 2 :: 2]:
                fast, oracle = compiled.reduce(p), reduce_with_schedule(psi, p, rng)
                assert fast.nonzero == oracle.nonzero, (psi, p)
                if fast.nonzero:
                    assert (fast.antitableau, fast.rows) == (oracle.antitableau, oracle.rows)
                elif fast.zero.kind == "B":
                    assert oracle.zero == fast.zero

    # Types that no tableau has, built by the per-column builder in place of
    # the true ones and fed to the compiled rewrites: each trips one
    # self-check.
    @pytest.mark.parametrize("segments, types, message", [
        ((seg(4, 4), seg(3, 2)), [[0, -2, -2, -2], [0, -2, -2, -2]],
         "types not weakly increasing"),
        ((seg(4, 4), seg(3, 2)), [[0, 0, -2, -2], [0, 0, 1, 1]],
         "merged shape not conserved"),
        ((seg(4, 4), seg(3, 2)), [[0, 0, 0, 0], [0, 0, 0, 0]],
         "rewrite moved the segment ends"),
        ((seg(7, 3), seg(4, 3)), [[0, -2, 2, 2], [0, -2, -2, -2]],
         "non-antitableau state"),
    ])
    def test_corrupted_types_raise(self, monkeypatch, segments, types, message):
        psi = GoodParityParameter(segments)
        compiled = CompiledReduction(psi)
        p = next(p for p in box(psi) if compiled.reduce(p).nonzero)
        monkeypatch.setattr(
            tableau, "_column", lambda plus, minus, p, m, k: (tuple(types[k - 1]), plus, minus)
        )
        with pytest.raises(InvariantViolationError, match=message):
            CompiledReduction(psi).reduce(p)


def _outcome(compiled, p):
    """``compiled.reduce(p)``, or the type and message of what it raised."""
    try:
        return compiled.reduce(p)
    except Exception as exc:
        return type(exc), str(exc)


def _resume_sequence(rng, psi):
    """Vectors for one ``CompiledReduction`` in turn: the box in
    lexicographic order (a sample of it for a large box), repeats, vectors
    leaving the box, a vector of the wrong length, each zero vector followed
    by one that keeps its prefix and changes its last entry, and the same
    vectors on other admissible arrangements."""
    vectors = list(box(psi))
    if len(vectors) > 200:
        start = rng.randrange(len(vectors) - 100)
        vectors = vectors[start : start + 100] + rng.sample(vectors, 60)
    sequence = []
    for p in vectors:
        sequence.append(p)
        if rng.random() < 0.1:
            sequence.append(p)
        if rng.random() < 0.1:
            bad = list(p)
            k = rng.randrange(psi.r)
            bad[k] = psi.m(k + 1) + 1 if rng.random() < 0.5 else -1
            sequence.append(tuple(bad))
        if not CompiledReduction(psi).reduce(p).nonzero:
            sequence.append((*p[:-1], rng.randint(0, psi.m(psi.r))))
    sequence.append(vectors[0] + (0,))
    others = [s for s in enumerate_admissible(psi) if s != tuple(range(1, psi.r + 1))]
    for sigma in rng.sample(others, min(3, len(others))):
        for p in rng.sample(vectors, min(10, len(vectors))):
            sequence.append(phi(psi, ParamVector.reference(p), sigma))
    return sequence


class TestResume:
    """A ``CompiledReduction`` resumes each vector from the states of the
    last one; the outcome must be that of a fresh instance."""

    def check(self, psi, sequence):
        shared = CompiledReduction(psi)
        for p in sequence:
            assert _outcome(shared, p) == _outcome(CompiledReduction(psi), p), (psi, p)

    def test_seeded_sequences(self, psi_A, psi_B, psi_C, psi_D):
        rng = random.Random(81)
        r5 = GoodParityParameter.from_components(
            [(14, 3), (12, 5), (11, 4), (9, 6), (6, 3)]
        )
        assert CompiledReduction(r5).sigma != tuple(range(1, 6))  # not the reference
        psis = [psi_A, psi_B, psi_C, psi_D, r5]
        psis += [random_parameter(rng, rng.randint(2, 6), m_max=3) for _ in range(12)]
        for psi in psis:
            self.check(psi, _resume_sequence(rng, psi))

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 5))
    def test_random_sequences(self, rng, r):
        psi = random_parameter(rng, r, m_max=3)
        lengths = [psi.m(i) for i in range(1, r + 1)]
        sequence = [
            tuple(rng.randint(-1, m + 1) if rng.random() < 0.05 else rng.randint(0, m)
                  for m in lengths)
            for _ in range(30)
        ]
        self.check(psi, sequence)

    def test_a_shared_prefix_is_not_rebuilt(self, psi_A, monkeypatch):
        want = trapa_reduce(psi_A, (2, 2, 3))
        compiled = CompiledReduction(psi_A)
        compiled.reduce((2, 2, 2))
        built, column = [], tableau._column
        monkeypatch.setattr(tableau, "_column", lambda *args: built.append(args[-1]) or column(*args))
        assert compiled.reduce((2, 2, 3)) == want and want.nonzero
        assert compiled.reduce((2, 2, 3)) == want
        assert built == [3]  # column 3 once; the repeat builds none


class TestStepMemo:
    """A ``CompiledReduction`` keeps the outcome of each column's steps keyed
    on (number of the types before the column, the column's types), and
    numbers final types once they pass the antitableau check; a kept
    outcome must be the one the steps would compute, and no types may skip
    the check."""

    def test_a_revisited_zero_vector_keeps_its_witness(self, psi_B, monkeypatch):
        warm = CompiledReduction(psi_B)
        zero = next(
            p for p in box(psi_B)
            if getattr(CompiledReduction(psi_B).run(p), "kind", None) == "overlap"
        )
        other = next(p for p in box(psi_B) if p[0] != zero[0])
        want = CompiledReduction(psi_B).run(zero)
        assert warm.run(zero) == want
        warm.run(other)  # no prefix left to resume from
        ran, run_step = [], tableau._run_step
        monkeypatch.setattr(tableau, "_run_step", lambda *args: ran.append(args) or run_step(*args))
        assert warm.run(zero) == want
        assert ran == []  # every column of the revisit came from the memo

    def test_a_repeated_column_runs_its_steps_once(self, monkeypatch):
        psi = GoodParityParameter.from_components(
            [(14, 3), (12, 5), (11, 4), (9, 6), (6, 3)]
        )
        vectors = list(box(psi))
        want = [_outcome(CompiledReduction(psi), p) for p in vectors]
        fresh = [next(CompiledReduction(psi).final_states((p,))) for p in vectors]
        final = {state[0] for state in fresh if not isinstance(state, Witness)}
        compiled = CompiledReduction(psi)
        keys, inside, insert = [], [], compiled._insert

        def insert_once(types, L, k):
            keys.append((types, L))
            inside.append(True)
            try:
                return insert(types, L, k)
            finally:
                inside.pop()

        ran, run_step = [], tableau._run_step
        checked, descends = [], tableau._descends
        built, column = [], tableau._column
        monkeypatch.setattr(compiled, "_insert", insert_once)
        monkeypatch.setattr(tableau, "_run_step", lambda *a: ran.append(bool(inside)) or run_step(*a))
        monkeypatch.setattr(tableau, "_descends", lambda *a: checked.append(a[1]) or descends(*a))
        monkeypatch.setattr(tableau, "_column", lambda *a: built.append(a[-1]) or column(*a))
        # the box twice: the second pass rebuilds a column whenever an entry
        # before it changes, and meets only column keys it has met
        assert [_outcome(compiled, p) for p in vectors] == want
        first = len(keys), len(ran), len(built)
        assert [_outcome(compiled, p) for p in vectors] == want
        assert (len(keys), len(ran)) == first[:2] and len(built) > first[2]
        # steps run only inside the first run of a column key
        assert ran and all(ran)
        assert len(set(keys)) == len(keys) == len(compiled._outcomes) < first[2]
        # the final check once for each final types
        assert len(set(checked)) == len(checked) == len(final) > 0

    def test_corrupted_types_raise_after_true_ones(self, monkeypatch):
        # a warm instance has no outcome for types it never met: the
        # corrupted ones of test_corrupted_types_raise still trip a check
        psi = GoodParityParameter((seg(4, 4), seg(3, 2)))
        compiled = CompiledReduction(psi)
        p = next(p for p in box(psi) if compiled.reduce(p).nonzero)
        for q in box(psi):
            compiled.run(q)
        compiled.run(next(q for q in box(psi) if q[0] != p[0]))  # nothing to resume
        types = [(0, 0, -2, -2), (0, 0, 1, 1)]
        monkeypatch.setattr(tableau, "_column", lambda plus, minus, p, m, k: (types[k - 1], plus, minus))
        with pytest.raises(InvariantViolationError, match="merged shape not conserved"):
            compiled.reduce(p)

    def test_corrupted_final_types_raise_after_true_ones(self, monkeypatch):
        # final types are numbered only once they pass the antitableau
        # check, so a warm instance checks final types it never met
        psi = GoodParityParameter((seg(7, 3), seg(4, 3)))
        compiled = CompiledReduction(psi)
        p = next(p for p in box(psi) if compiled.reduce(p).nonzero)
        for q in box(psi):
            compiled.run(q)
        compiled.run(next(q for q in box(psi) if q[0] != p[0]))  # nothing to resume
        types = [(0, -2, 2, 2), (0, -2, -2, -2)]
        monkeypatch.setattr(tableau, "_column", lambda plus, minus, p, m, k: (types[k - 1], plus, minus))
        with pytest.raises(InvariantViolationError, match="non-antitableau state"):
            compiled.reduce(p)


class TestLazySteps:
    """A ``CompiledReduction`` builds column k's steps, with every column
    before it, the first time a vector reaches column k: ``_pair_step`` runs
    once per step of a built column, and never for a column that no vector
    has reached."""

    @staticmethod
    def count_pair_steps(monkeypatch, fail=None):
        """Record the arguments of every ``_pair_step`` call, and return
        None (a right segment preceding the left one) for ``fail``."""
        calls, pair_step = [], tableau._pair_step

        def counted(left, right):
            calls.append((left, right))
            return None if (left, right) == fail else pair_step(left, right)

        monkeypatch.setattr(tableau, "_pair_step", counted)
        return calls

    @staticmethod
    def reach(psi, p):
        """The last column a fresh instance inserts for p (0 for a "B"
        witness), and whether p is nonzero."""
        compiled, reached = CompiledReduction(psi), [0]
        insert = compiled._insert
        compiled._insert = lambda types, L, k: reached.append(k) or insert(types, L, k)
        nonzero = not isinstance(compiled.run(p), Witness)
        return reached[-1], nonzero

    @classmethod
    def parameters(cls):
        """Seeded r = 5..8 parameters, each with the ``_pair_step``
        arguments of each column of a fully built instance, in the order
        they are built, and random box vectors with what ``reach`` says of
        each."""
        rng, out = random.Random(127), []
        with pytest.MonkeyPatch.context() as patch:
            calls = cls.count_pair_steps(patch)
            for _ in range(40):
                psi = random_parameter(rng, rng.randint(5, 8))
                del calls[:]
                full = CompiledReduction(psi)
                full.cells(str)
                starts = [0, *accumulate(map(len, full._steps))]
                columns = [calls[a:b] for a, b in zip(starts, starts[1:])]
                vectors = {random_entry_vector(rng, psi) for _ in range(60)}
                out.append((psi, columns, {p: cls.reach(psi, p) for p in sorted(vectors)}))
        return out

    def test_a_zero_vector_builds_only_the_columns_it_reaches(self, monkeypatch):
        inputs = self.parameters()
        calls, interior, completed = self.count_pair_steps(monkeypatch), 0, 0
        for psi, columns, reach in inputs:
            nonzero = [p for p, (_, ok) in reach.items() if ok]
            for p in [p for p, (k, ok) in reach.items() if not ok][:4]:
                k = reach[p][0]
                del calls[:]
                compiled = CompiledReduction(psi)
                assert isinstance(compiled.run(p), Witness)
                assert calls == [args for column in columns[:k] for args in column], (psi, p)
                interior += 1 < k < psi.r
                if nonzero:  # a vector reaching column r builds the rest, once
                    compiled.run(nonzero[0])
                    compiled.cells(str)
                    compiled.run(nonzero[-1])
                    assert calls == [args for column in columns for args in column]
                    completed += k < psi.r
        assert interior > 20 and completed > 20

    def test_cells_on_a_fresh_instance_builds_every_column(self, monkeypatch):
        inputs = self.parameters()
        calls = self.count_pair_steps(monkeypatch)
        for psi, columns, reach in inputs:
            del calls[:]
            compiled = CompiledReduction(psi)
            cells = compiled.cells(lambda twice: str(HalfInt(twice)))
            assert calls == [args for column in columns for args in column]
            for p in [p for p, (_, ok) in reach.items() if ok][:3]:
                assert compiled.antitableau(compiled.run(p)[0], cells) == tuple(
                    tuple(map(str, row)) for row in compiled.reduce(p).antitableau
                )
            assert len(calls) == sum(map(len, columns))

    def test_a_preceding_right_segment_raises_where_it_is_met(self, monkeypatch):
        # the step that fails is the second of its column, so a retry that
        # started from the ends its first step left would not meet it
        inputs, met = self.parameters(), 0
        for psi, columns, reach in inputs:
            furthest = max(j for j, _ in reach.values())
            k = next((k for k in range(furthest, 1, -1) if len(columns[k - 1]) > 1), None)
            if k is None:
                continue
            fail = columns[k - 1][1]
            if fail in [args for column in columns[: k - 1] for args in column]:
                continue
            before = next((p for p, (j, _) in reach.items() if 1 < j < k), None)
            after = next(p for p, (j, _) in reach.items() if j >= k)
            with monkeypatch.context() as patch:
                calls = self.count_pair_steps(patch, fail)
                compiled = CompiledReduction(psi)
                if before is not None:  # a vector zeroed before column k
                    assert isinstance(compiled.run(before), Witness)
                for _ in range(2):
                    with pytest.raises(InvariantViolationError, match="preceded by the right one"):
                        compiled.run(after)
                    assert calls[-1] == fail
                for instance in (compiled, CompiledReduction(psi)):
                    with pytest.raises(InvariantViolationError, match="preceded by the right one"):
                        instance.cells(str)
            met += 1
        assert met > 5


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(2, 16))
def test_simplified_criterion_agrees_with_a_warm_reduction(rng, r):
    """The simplified criterion against the compiled reduction at r up to 16,
    on some survivors of a random rank, a neighbour of each that differs in
    one entry, and random box vectors, all run in turn through one instance,
    so that later vectors resume the states and reuse the column outcomes
    of earlier ones."""
    psi = random_parameter(rng, r)
    compiled = CompiledReduction(psi)
    lengths = [psi.m(i) for i in range(1, r + 1)]
    vectors = [tuple(rng.randint(0, m) for m in lengths) for _ in range(4)]
    for p in islice(CompiledCriterion(psi).survivors(rng.randint(0, psi.n)), 8):
        k = rng.randrange(r)
        vectors += [p, (*p[:k], rng.randint(0, lengths[k]), *p[k + 1 :])]
        vectors.append(tuple(rng.randint(0, m) for m in lengths))
    for p in vectors:
        tableau_nonzero = not isinstance(compiled.run(p), Witness)
        assert nonvanishing_simplified(psi, p).nonzero == tableau_nonzero, (psi, p)
