"""Transition maps between parameter spaces at different arrangements.

The path-independence tests double as the correctness argument for composing
adjacent swaps along an arbitrary geodesic.
"""

import hashlib
import itertools
import random

import pytest

from aqlam import GoodParityParameter, Relation
from aqlam.arrangements import bubble_path, enumerate_admissible
from aqlam.errors import InputError
from aqlam.segments import relation
from aqlam.transition import (
    ParamVector,
    affine_value,
    phi,
    phi_adjacent,
    transported_forms,
)

from conftest import random_entry_vector, random_parameter, swap_by_cases


def all_geodesic_results(psi, pv, tau):
    """Apply phi_adjacent along every geodesic from pv.sigma to tau."""
    rank = {v: i for i, v in enumerate(tau)}
    results = []

    def walk(current):
        sigma = current.sigma
        moves = [
            h
            for h in range(1, psi.r)
            if rank[sigma[h - 1]] > rank[sigma[h]]
        ]
        if not moves:
            results.append(current)
            return
        for h in moves:
            walk(phi_adjacent(psi, current, h))

    walk(pv)
    return results


def test_adjacent_swap_fixture(psi_A):
    pv = ParamVector.reference((2, 2, 2))
    moved = phi_adjacent(psi_A, pv, 1)
    assert moved.sigma == (2, 1, 3)
    assert moved.entries == (3, 1, 2)


def test_adjacent_swap_closed_form():
    rng = random.Random(21)
    for _ in range(200):
        psi = random_parameter(rng, 2, b_max=6, m_max=5)
        if not relation(psi, 1, 2).is_containment:
            continue
        p = random_entry_vector(rng, psi)
        pv = ParamVector.reference(p)
        moved = phi_adjacent(psi, pv, 1)
        p1, p2 = p
        q1, q2 = psi.m(1) - p1, psi.m(2) - p2
        if relation(psi, 1, 2) is Relation.CONTAINS:
            assert moved.entries == (q2, p1 + p2 - q2)
        else:
            assert moved.entries == (p1 + p2 - q1, q1)


def test_swap_preserves_sum_and_is_involutive():
    rng = random.Random(22)
    checked = 0
    while checked < 200:
        psi = random_parameter(rng, rng.randint(2, 5), b_max=7, m_max=4)
        pv = ParamVector.reference(random_entry_vector(rng, psi))
        swappable = [
            h
            for h in range(1, psi.r)
            if relation(psi, pv.sigma[h - 1], pv.sigma[h]).is_containment
        ]
        if not swappable:
            continue
        h = rng.choice(swappable)
        once = phi_adjacent(psi, pv, h)
        assert sum(once.entries) == sum(pv.entries)
        assert phi_adjacent(psi, once, h) == pv
        checked += 1


def test_precedence_swap_rejected(psi_A):
    pv = ParamVector.reference((2, 2, 2))
    with pytest.raises(InputError):
        phi_adjacent(psi_A, pv, 2)  # [7,3] precedes [6,1]


def test_phi_adjacent_refuses_a_vector_on_an_inadmissible_arrangement():
    # [3,3] sits before [6,6], which precedes it: the swap of [7,6] and [3,3]
    # once returned entries (0, 0, -1, 1) on (1, 4, 3, 2)
    psi = GoodParityParameter.from_components([(16, 1), (12, 1), (13, 2), (6, 1)])
    with pytest.raises(InputError) as info:
        phi_adjacent(psi, ParamVector((0, 0, 0, 0), (1, 4, 2, 3)), 3)
    assert str(info.value) == "sigma=(1, 4, 2, 3) is not admissible"


@pytest.mark.parametrize("call, message", [
    (lambda psi: ParamVector((1, 2), (1, 2, 3)), "entry count does not match arrangement size"),
    (
        lambda psi: phi_adjacent(psi, ParamVector.reference((2, 2, 2)), 3),
        "swap position 3 out of range 1..2",
    ),
    (
        lambda psi: phi_adjacent(psi, ParamVector.reference((2, 2, 2)), 2),
        "cannot swap positions (2,3): components 2,3 are in precedence, not containment",
    ),
])
def test_bad_vectors_and_swaps_are_input_errors(psi_A, call, message):
    with pytest.raises(InputError) as info:
        call(psi_A)
    assert str(info.value) == message


def test_phi_identity(psi_A):
    pv = ParamVector.reference((1, 0, 4))
    assert phi(psi_A, pv, (1, 2, 3)) == pv


def test_path_independence_exhaustive_small():
    rng = random.Random(23)
    for _ in range(60):
        psi = random_parameter(rng, rng.randint(2, 4), b_max=6, m_max=4)
        sigmas = enumerate_admissible(psi)
        pv = ParamVector.reference(random_entry_vector(rng, psi))
        for tau in sigmas:
            results = all_geodesic_results(psi, pv, tau)
            assert len({r.entries for r in results}) == 1
            assert results[0] == phi(psi, pv, tau)


def test_phi_composes(psi_A):
    # transporting via an intermediate arrangement changes nothing
    for p in itertools.product(range(4), range(6), range(7)):
        pv = ParamVector.reference(p)
        via = phi(psi_A, pv, (2, 1, 3))
        assert phi(psi_A, via, (1, 2, 3)) == pv


def test_affine_linearity():
    # phi is affine on entry vectors: differences transform linearly
    rng = random.Random(24)
    for _ in range(50):
        psi = random_parameter(rng, rng.randint(2, 4), b_max=6, m_max=4)
        sigmas = enumerate_admissible(psi)
        tau = rng.choice(sigmas)
        p = random_entry_vector(rng, psi)
        q = random_entry_vector(rng, psi)
        mid = tuple(x + y for x, y in zip(p, q))
        f = lambda v: phi(psi, ParamVector.reference(v), tau).entries
        lhs = tuple(a + b for a, b in zip(f(p), f(q)))
        rhs = tuple(a + b for a, b in zip(f(mid), f((0,) * psi.r)))
        assert lhs == rhs


def test_phi_rejects_an_inadmissible_target(psi_A):
    pv = ParamVector.reference((2, 2, 2))
    with pytest.raises(InputError):
        phi(psi_A, pv, (3, 2, 1))


def test_transported_forms_equal_phi_at_every_position():
    # phi here is the case-by-case swap of conftest, walked along the bubble path
    # from the reference order and from a random admissible start
    rng = random.Random(137)
    for _ in range(150):
        psi = random_parameter(rng, rng.randint(1, 6), m_max=4)
        orders = enumerate_admissible(psi)
        for sigma in orders:
            for start in (orders[0], rng.choice(orders)):
                path = bubble_path(start, sigma)
                forms = transported_forms(psi, start, path, sigma)
                p = random_entry_vector(rng, psi)
                entries, order = p, start
                for h in path:
                    entries, order = swap_by_cases(psi, entries, order, h)
                assert order == sigma
                assert [affine_value(form, p) for form in forms] == list(entries)


def phi_sweep():
    """(function, arguments) for ``phi`` and ``phi_adjacent``: 400 seeded
    random parameters, r = 1-8 in turn, alternating the two grids, and then
    ``reordered_family()``.  On each, three vectors (entries from -1 to
    m + 1) on random admissible starts: each moved by ``phi`` to a random
    admissible target, and swapped by ``phi_adjacent`` at every h from 0 to
    r, precedence swaps included."""
    from test_criterion import reordered_family

    rng = random.Random(61)
    m_max = {1: 6, 2: 6, 3: 5, 4: 4, 5: 3, 6: 3, 7: 2, 8: 2}
    draws = []
    for k in range(400):
        r = 1 + k % 8
        draws.append(random_parameter(rng, r, m_max=m_max[r], half_grid=k // 8 % 2 == 1))
    for psi in [*draws, *reordered_family()]:
        orders = enumerate_admissible(psi)
        for _ in range(3):
            entries = tuple(rng.randint(-1, psi.m(i) + 1) for i in range(1, psi.r + 1))
            pv = ParamVector(entries, rng.choice(orders))
            yield phi, (psi, pv, rng.choice(orders))
            for h in range(psi.r + 1):
                yield phi_adjacent, (psi, pv, h)


# sha256 of the newline-joined outcomes over ``phi_sweep()``: the result's
# ``repr``, or the ``InputError`` message.  Recorded while ``phi`` still ran
# ``phi_adjacent`` along the path and each swap split on which of the two
# components came first (9,546 outcomes, 5,598 of them errors).
PHI_RECORD = "98c9b5402447b4fe83dab760b179cc9546f188bb3cae8fa2787b1e4e89140c8c"


def test_phi_outcomes_match_their_record():
    lines = []
    for function, args in phi_sweep():
        try:
            lines.append(repr(function(*args)))
        except InputError as error:
            lines.append(f"InputError: {error}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (9546, PHI_RECORD)
