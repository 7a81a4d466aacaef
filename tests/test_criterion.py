import hashlib
import random
from itertools import islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqlam import GoodParityParameter, intersection_size
from aqlam.arrangements import (
    appropriate_arrangement,
    bubble_path,
    enumerate_admissible,
    sigma_pairs,
)
from aqlam import criterion
from aqlam.criterion import (
    CompiledCriterion,
    PairConstraint,
    _c_values,
    _interval,
    affine_value,
    cond_B,
    cond_C,
    lattice_points,
    nonvanishing,
    nonvanishing_simplified,
)
from aqlam.errors import InputError, ResourceLimitError
from aqlam.packets import enumerate_params
from aqlam.segments import arrangement_is_admissible, neighbors
from aqlam.tableau import trapa_reduce
from aqlam.transition import ParamVector, phi, transported_forms

from conftest import box, random_entry_vector, random_parameter, seg, swap_by_cases
from test_acceptance import sweep_family


def test_fixture_nonzero(psi_A):
    verdict = nonvanishing(psi_A, (2, 2, 2))
    assert verdict.nonzero
    assert verdict.witness is None
    assert bool(verdict)


def test_fixture_zero_with_witness(psi_B):
    verdict = nonvanishing(psi_B, (2, 2, 2))
    assert not verdict.nonzero
    w = verdict.witness
    assert w.kind == "C"
    assert w.indices == (2, 3)
    # lhs 4 against an intersection of size 5
    assert w.values[-2:] == (4, 5)


def test_out_of_box_is_zero(psi_A):
    # the parameter space extends beyond the box; condition B catches it
    verdict = nonvanishing(psi_A, (4, 2, 0))
    assert not verdict.nonzero
    assert verdict.witness.kind == "B"


def test_wrong_length_rejected(psi_A):
    with pytest.raises(InputError):
        nonvanishing(psi_A, (2, 2))


def test_cond_B(psi_A):
    pv = ParamVector.reference((2, 2, 2))
    assert all(cond_B(psi_A, pv, i) for i in (1, 2, 3))
    # after a containment swap the transported entry can leave the box
    bad = ParamVector(entries=(9, -1, 2), sigma=(1, 2, 3))
    assert not cond_B(psi_A, bad, 2)


def test_cond_C_requires_adjacency(psi_A):
    pv = ParamVector.reference((2, 2, 2))
    with pytest.raises(InputError):
        cond_C(psi_A, pv, 1, 3)


@pytest.mark.parametrize("call, message", [
    (lambda psi, pv: cond_B(psi, pv, 4), "component index 4 out of range 1..3"),
    (lambda psi, pv: cond_C(psi, pv, 4, 1), "component index 4 out of range 1..3"),
    (lambda psi, pv: sigma_pairs(psi, 4, 1), "component index 4 out of range 1..3"),
    (lambda psi, pv: sigma_pairs(psi, 0, 2), "component index 0 out of range 1..3"),
])
def test_by_hand_conditions_validate_their_indices(psi_A, call, message):
    with pytest.raises(InputError) as info:
        call(psi_A, ParamVector.reference((2, 2, 2)))
    assert str(info.value) == message


@pytest.mark.parametrize("call", [
    lambda psi, pv: cond_B(psi, pv, 3),
    lambda psi, pv: cond_C(psi, pv, 2, 3),
])
def test_by_hand_conditions_check_the_vector_against_psi(psi_A, call):
    # component 3 is one of psi_A's, but a vector of two entries lacks it
    with pytest.raises(InputError) as info:
        call(psi_A, ParamVector.reference((1, 1)))
    assert str(info.value) == "component 3 is not in arrangement (1, 2)"


@pytest.mark.parametrize("call", [
    lambda psi, pv: cond_B(psi, pv, 2),
    lambda psi, pv: cond_C(psi, pv, 1, 3),
    lambda psi, pv: cond_C(psi, pv, 3, 2),
])
def test_by_hand_conditions_refuse_an_inadmissible_arrangement(psi_A, call):
    # [7,3] precedes [6,1], so component 3 may not come before component 2
    with pytest.raises(InputError) as info:
        call(psi_A, ParamVector((2, 2, 2), (1, 3, 2)))
    assert str(info.value) == "arrangement (1, 3, 2) is not admissible"


def test_r1_never_vanishes():
    psi = GoodParityParameter((seg(5, 4),))
    for p in range(5):
        assert nonvanishing(psi, (p,)).nonzero


def test_r2_closed_form_spot():
    psi = GoodParityParameter((seg(7, 5), seg(7, 3)))
    sing = intersection_size(psi.seg(1), psi.seg(2))
    for p in box(psi):
        expected = (
            min(p[0], psi.m(2) - p[1]) + min(psi.m(1) - p[0], p[1]) >= sing
        )
        assert nonvanishing(psi, p).nonzero == expected
        assert nonvanishing_simplified(psi, p).nonzero == expected


def test_engines_agree_on_random_instances():
    rng = random.Random(31)
    for _ in range(150):
        psi = random_parameter(rng, rng.randint(1, 4), b_max=7, m_max=4)
        p = random_entry_vector(rng, psi)
        assert (
            nonvanishing(psi, p).nonzero
            == nonvanishing_simplified(psi, p).nonzero
        )


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_simplified_criterion_agrees_with_the_full_oracle(rng, r):
    """The simplified criterion against the full oracle, which checks every
    admissible arrangement, at r up to 6: on random box vectors, mostly
    zero, and on some survivors of a random rank."""
    psi = random_parameter(rng, r)
    vectors = [random_entry_vector(rng, psi) for _ in range(6)]
    vectors += islice(CompiledCriterion(psi).survivors(rng.randint(0, psi.n)), 4)
    for p in vectors:
        full = nonvanishing(psi, p)
        assert nonvanishing_simplified(psi, p).nonzero == full.nonzero, (psi, p, full)


def test_verdict_witness_reports_transported_values(psi_B):
    w = nonvanishing(psi_B, (2, 2, 2)).witness
    # the witness carries (p_i, q_i, p_j, q_j, lhs, sing) at the failing order
    p_i, q_i, p_j, q_j, lhs, sing = w.values
    assert min(p_i, q_j) + min(q_i, p_j) == lhs
    assert lhs < sing


def test_compiled_criterion_matches_one_shot_calls():
    rng = random.Random(41)
    for _ in range(60):
        psi = random_parameter(rng, rng.randint(1, 6))
        compiled = CompiledCriterion(psi)
        for _ in range(5):
            # entries one outside the box too, so witness B comes up
            p = tuple(rng.randint(-1, psi.m(i) + 1) for i in range(1, psi.r + 1))
            assert compiled.verdict(p) == nonvanishing_simplified(psi, p)


def test_compiled_forms_equal_phi():
    # phi here is the case-by-case swap of conftest, walked along the bubble
    # path from the reference order to the pair's placement
    rng = random.Random(43)
    for _ in range(120):
        psi = random_parameter(rng, rng.randint(2, 9))
        reference = tuple(range(1, psi.r + 1))
        for pair in CompiledCriterion(psi).pairs:
            for _ in range(3):
                p = random_entry_vector(rng, psi)
                entries, order = p, reference
                for h in bubble_path(reference, pair.sigma):
                    entries, order = swap_by_cases(psi, entries, order, h)
                assert order == pair.sigma
                assert affine_value(pair.form_i, p) == entries[order.index(pair.i)]
                assert affine_value(pair.form_j, p) == entries[order.index(pair.j)]


def test_compiled_pairs_are_the_neighbor_pairs_placed_adjacently():
    rng = random.Random(47)
    for _ in range(60):
        psi = random_parameter(rng, rng.randint(2, 8))
        pairs = CompiledCriterion(psi).pairs
        assert [(c.i, c.j) for c in pairs] == [
            (i, j)
            for i in range(1, psi.r + 1)
            for j in range(i + 1, psi.r + 1)
            if neighbors(psi, i, j)
        ]
        for c in pairs:
            assert arrangement_is_admissible(psi, c.sigma)
            assert abs(c.sigma.index(c.i) - c.sigma.index(c.j)) == 1


def test_every_placement_is_the_first_sigma_pair():
    rng = random.Random(53)
    for _ in range(400):
        psi = random_parameter(rng, rng.randint(3, 6))
        for c in CompiledCriterion(psi).pairs:
            assert c.sigma == sigma_pairs(psi, c.i, c.j)[0]


@pytest.mark.parametrize("r", [*range(9, 17), 24])
def test_simplified_has_no_r_bound_and_agrees_with_tableau(r):
    rng = random.Random(1000 + r)
    for _ in range(8 if r < 24 else 4):
        psi = random_parameter(rng, r)
        compiled = CompiledCriterion(psi)
        for _ in range(3):
            p = random_entry_vector(rng, psi)
            assert compiled.verdict(p).nonzero == trapa_reduce(psi, p).nonzero, (psi, p)
            assert nonvanishing_simplified(psi, p) == compiled.verdict(p)


def search_family():
    """The acceptance sweep family and seeded random parameters up to r = 8,
    with lengths kept small enough to filter every box vector."""
    rng = random.Random(71)
    m_max = {1: 6, 2: 6, 3: 5, 4: 4, 5: 3, 6: 3, 7: 2, 8: 2}
    randoms = []
    for _ in range(160):
        r = rng.randint(1, 8)
        randoms.append(random_parameter(rng, r, m_max=m_max[r]))
    return [*sweep_family(), *randoms]


def reordered_family():
    """Parameters whose reference order is admissible but not the canonical
    one, so the transport to the canonical arrangement is not the identity:
    [6,3] before [5,3], alone and with [4,2] and [2,1], then seeded random
    r = 2..7 parameters, each in a random admissible order that the
    canonical one is not."""
    out = [
        GoodParityParameter((seg(6, 4), seg(5, 3))),
        GoodParityParameter((seg(6, 4), seg(5, 3), seg(4, 3), seg(2, 2))),
    ]
    rng = random.Random(83)
    m_max = {2: 5, 3: 4, 4: 3, 5: 3, 6: 2, 7: 2}
    while len(out) < 80:
        r = rng.randint(2, 7)
        psi = random_parameter(rng, r, m_max=m_max[r])
        order = rng.choice(enumerate_admissible(psi))
        psi = GoodParityParameter(tuple(psi.seg(i) for i in order))
        if appropriate_arrangement(psi) != tuple(range(1, r + 1)):
            out.append(psi)
    return out


def test_survivors_are_the_box_filtered_by_the_verdict():
    for psi in [*search_family(), *reordered_family()]:
        compiled = CompiledCriterion(psi)
        passing = [p for p in box(psi) if compiled.verdict(p).nonzero]
        assert list(compiled.survivors()) == passing, psi
        for rank in range(psi.n + 1):
            assert list(compiled.survivors(rank)) == [
                p for p in enumerate_params(psi, rank) if compiled.verdict(p).nonzero
            ], (psi, rank)


def test_survivors_reject_a_rank_out_of_range(psi_A):
    for rank in (-1, psi_A.n + 1):
        with pytest.raises(InputError):
            CompiledCriterion(psi_A).survivors(rank)


def test_the_empty_box_has_one_point():
    assert list(lattice_points(())) == list(lattice_points((), 0)) == [()]
    with pytest.raises(InputError, match="rank 1 out of range 0..0"):
        lattice_points((), 1)


def test_node_budget_is_checked_as_nodes_are_visited(monkeypatch):
    # the box (2, 3) without checks: 3 nodes for p_1, then 4 under each
    monkeypatch.setattr(criterion, "MAX_DFS_NODES", 15)
    assert len(list(lattice_points((2, 3)))) == 12
    monkeypatch.setattr(criterion, "MAX_DFS_NODES", 14)
    with pytest.raises(ResourceLimitError):
        list(lattice_points((2, 3)))
    # a rank prunes nodes: rank 0 visits one node per entry
    monkeypatch.setattr(criterion, "MAX_DFS_NODES", 2)
    assert list(lattice_points((2, 3), 0)) == [(0, 0)]


@settings(max_examples=400, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(1, 12))
def test_condition_c_is_two_bounds_on_the_sum(data, m_i, m_j):
    """min(p_i, q_j) + min(q_i, p_j) >= sing exactly when sing <= p_i + p_j
    <= m_i + m_j - sing, for entries inside the box or outside it."""
    sing = data.draw(st.integers(0, min(m_i, m_j)))
    p_i = data.draw(st.integers(-4, m_i + 4))
    p_j = data.draw(st.integers(-4, m_j + 4))
    holds = _c_values(p_i, m_i, p_j, m_j, sing)[4] >= sing
    assert holds == (sing <= p_i + p_j <= m_i + m_j - sing)



@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4))
def test_the_search_takes_any_coefficient_of_the_last_entry(rng, r):
    """On the parameters the suite draws, S gives the last entry its forms
    read the coefficient 1; made-up forms give it any sign and size, or
    cancel it, and the search still yields the box vectors that pass."""
    psi = random_parameter(rng, r, m_max=3)
    compiled = CompiledCriterion(psi)

    def form():
        terms = sorted(rng.sample(range(r), rng.randint(0, r)))
        return rng.randint(-3, 3), tuple((k, rng.randint(-2, 2)) for k in terms)

    pairs = []
    for _ in range(rng.randint(1, 3)):
        m_i, m_j = rng.randint(1, 4), rng.randint(1, 4)
        sing = rng.randint(0, min(m_i, m_j))
        pairs.append(PairConstraint(1, 1, (), form(), form(), m_i, m_j, sing))
    compiled.pairs = tuple(pairs)
    assert list(compiled.survivors()) == [
        p for p in box(psi)
        if all(_c_values(affine_value(c.form_i, p), c.m_i,
                         affine_value(c.form_j, p), c.m_j, c.sing)[4] >= c.sing
               for c in pairs)
    ]

def per_value_nodes(compiled, rank=None):
    """The nodes of the lattice-point search as it ran before it stepped
    through intervals: for each node, (k, the entries set before p_k, the
    box or rank range lo..hi of p_k, and the values of that range for
    which every pair bucketed at p_k passes ``_c_values``)."""
    m, r = compiled.m, len(compiled.m)
    buckets = [[] for _ in m]
    for c in compiled.pairs:
        buckets[max((k for k, _ in c.form_i[1] + c.form_j[1]), default=0)].append(c)
    p = [0] * r

    def visit(k, remaining):
        if rank is None:
            lo, hi = 0, m[k]
        else:
            lo, hi = max(0, remaining - sum(m[k + 1 :])), min(m[k], remaining)
        before, passing = p[:k] + [0] * (r - k), []
        for v in range(lo, hi + 1):
            p[k] = v
            if all(
                _c_values(affine_value(c.form_i, p), c.m_i,
                          affine_value(c.form_j, p), c.m_j, c.sing)[4] >= c.sing
                for c in buckets[k]
            ):
                passing.append(v)
        yield k, before, lo, hi, passing
        for v in passing if k + 1 < r else ():
            p[k] = v
            yield from visit(k + 1, remaining - v)

    return visit(0, 0 if rank is None else rank)


def test_each_node_interval_is_the_values_the_per_value_test_passes():
    for psi in [*search_family(), *reordered_family()]:
        compiled = CompiledCriterion(psi)
        checks = compiled._checks
        for rank in (None, *range(psi.n + 1)):
            for k, before, lo, hi, passing in per_value_nodes(compiled, rank):
                assert list(_interval(checks[k], before, lo, hi)) == passing, (psi, rank, before)


# sha256 of the ``repr`` of the list of the least ``MAX_DFS_NODES`` at which
# ``survivors()`` completes, for each parameter of ``search_family()`` then
# ``reordered_family()``, found by bisecting the budget before the search
# stepped through intervals (1,394 parameters, 91,779 nodes in all)
NODE_RECORD = "b3e101caccad636334e630ab0418806a8c215d47ab48dce916063619eeb82400"


def test_each_search_completes_at_its_recorded_budget_and_not_one_node_below(monkeypatch):
    family = [*search_family(), *reordered_family()]
    budgets = [
        sum(hi - lo + 1 for _, _, lo, hi, _ in per_value_nodes(CompiledCriterion(psi)))
        for psi in family
    ]
    digest = hashlib.sha256(repr(budgets).encode()).hexdigest()
    assert (len(budgets), sum(budgets), digest) == (1394, 91779, NODE_RECORD)
    for psi, budget in zip(family, budgets):
        monkeypatch.setattr(criterion, "MAX_DFS_NODES", budget)
        list(CompiledCriterion(psi).survivors())
        monkeypatch.setattr(criterion, "MAX_DFS_NODES", budget - 1)
        with pytest.raises(ResourceLimitError):
            list(CompiledCriterion(psi).survivors())


def one_shot_inputs():
    """Seeded one-shot verdicts: ten parameters per r = 2..16 on each grid,
    lengths up to 2 or 5, each with two random box vectors and one vector
    one step outside the box."""
    rng = random.Random(97)
    for r in range(2, 17):
        for half_grid in (False, True):
            for _ in range(10):
                psi = random_parameter(rng, r, m_max=rng.choice((2, 5)), half_grid=half_grid)
                vectors = [random_entry_vector(rng, psi) for _ in range(2)]
                p = list(random_entry_vector(rng, psi))
                k = rng.randrange(r)
                p[k] = psi.m(k + 1) + 1 if rng.random() < 0.5 else -1
                yield psi, [*vectors, tuple(p)]


# sha256 of the newline-joined ``repr`` of ``nonvanishing_simplified(psi, p)``
# over ``one_shot_inputs()``, recorded before the pairs were built lazily
# (900 verdicts: 504 "C" and 300 "B" witnesses, 96 nonzero)
ONE_SHOT_RECORD = "c41e6f172ea5a950c84b91a5f5c3c5c9fa09674d28a7d3e48d9b34ea38aaa1f4"


def test_one_shot_verdicts_match_their_record():
    lines = [
        repr(nonvanishing_simplified(psi, p))
        for psi, vectors in one_shot_inputs()
        for p in vectors
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (900, ONE_SHOT_RECORD)


def pairs_inputs():
    """Seeded parameters for the pairs record: ten per r = 2..16 on each
    grid, lengths up to 2 or 5 (exact duplicates are common), then
    ``reordered_family()``."""
    rng = random.Random(101)
    for r in range(2, 17):
        for half_grid in (False, True):
            for _ in range(10):
                yield random_parameter(rng, r, m_max=rng.choice((2, 5)), half_grid=half_grid)
    yield from reordered_family()


# sha256 of the newline-joined ``repr`` of the compiled pairs, each as the
# tuple (i, j, sigma, form_i, form_j, m_i, m_j, sing), over ``pairs_inputs()``,
# recorded before the relation was kept as bitmasks (380 parameters, 7,129
# pairs)
PAIRS_RECORD = "36fd2dfaad15726825fb4906f7c862aae7acc00d92dbd24f40f734c47ce67327"


def test_compiled_pairs_match_their_record():
    compiled = [CompiledCriterion(psi).pairs for psi in pairs_inputs()]
    lines = [repr([tuple(c) for c in pairs]) for pairs in compiled]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), sum(map(len, compiled)), digest) == (380, 7129, PAIRS_RECORD)


# sha256 of the newline-joined ``repr`` of the list of ``neighbors(psi, i,
# j)`` over every ordered pair i != j, one line per parameter of
# ``pairs_inputs()``, recorded while ``neighbors`` still read its own rule
# off the masks of the pair's relation (29,170 ordered pairs, 14,258 of them
# neighbours: each of the 7,129 compiled pairs both ways)
NEIGHBORS_RECORD = "76648c255624662c1388edf33e6c372f8bbd871488e47112068067f6d9f9d810"


def test_neighbors_match_their_record():
    lines = [
        repr([neighbors(psi, i, j) for i, j in permutations(range(1, psi.r + 1), 2)])
        for psi in pairs_inputs()
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    pairs = sum(line.count(",") + 1 for line in lines)
    assert (len(lines), pairs, digest) == (380, 29170, NEIGHBORS_RECORD)


def test_verdicts_first_leave_the_pairs_and_survivors_of_a_fresh_instance():
    rng = random.Random(89)
    for psi in [*search_family(), *reordered_family()]:
        warm = CompiledCriterion(psi)
        for _ in range(2):
            warm.verdict(random_entry_vector(rng, psi))
        assert warm.pairs == CompiledCriterion(psi).pairs, psi
        rank = rng.randint(0, psi.n)
        assert list(warm.survivors(rank)) == list(CompiledCriterion(psi).survivors(rank))


def test_a_verdict_builds_the_pairs_only_up_to_its_first_failing_one(monkeypatch):
    built = []

    def counted(psi, start, path, targets):
        built.append(targets)
        return transported_forms(psi, start, path, targets)

    monkeypatch.setattr(criterion, "transported_forms", counted)
    seen = set()
    for psi, vectors in one_shot_inputs():
        order = [(c.i, c.j) for c in CompiledCriterion(psi).pairs]
        for p in vectors:
            compiled = CompiledCriterion(psi)
            built.clear()
            verdict = compiled.verdict(p)
            if verdict.nonzero:
                walked = len(order)
            elif verdict.witness.kind == "B":
                walked = 0
            else:
                walked = order.index(verdict.witness.indices) + 1
            seen.add(walked == len(order))
            assert built == order[:walked], (psi, p)
            built.clear()
            assert compiled.verdict(p) == verdict and built == []
            compiled.pairs  # the rest of the walk, each pair once
            assert built == order[walked:]
    assert seen == {False, True}  # walks that stopped early, and whole walks


def test_every_engine_reads_a_vector_on_any_arrangement_by_its_reference_entries():
    # one rule turns a caller's vector into reference entries: a vector
    # transported to any admissible arrangement is the same vector, also for
    # the parameters of ``reordered_family()``, whose reduction transports it
    # on to the canonical arrangement
    rng = random.Random(43)
    draws = [random_parameter(rng, rng.randint(2, 6), m_max=3) for _ in range(100)]
    checked = nonzero = 0
    for psi in [*draws, *(psi for psi in reordered_family() if psi.r <= 6)]:
        compiled = CompiledCriterion(psi)
        p = random_entry_vector(rng, psi)

        def outcomes(v):
            return (nonvanishing(psi, v), nonvanishing_simplified(psi, v),
                    compiled.verdict(v), trapa_reduce(psi, v))

        want = outcomes(p)
        for sigma in enumerate_admissible(psi):
            assert outcomes(phi(psi, ParamVector.reference(p), sigma)) == want
            checked += 1
        nonzero += want[0].nonzero
    assert (checked, nonzero) == (775, 61)
