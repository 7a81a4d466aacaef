"""Every public function that takes an index, a position, a rank or a
length, called with integers at and past the ends of its domain: only the
library's own errors (``AqlamError`` and its subclasses) may escape.

The integers come from a fixed set rather than from ``st.integers()``, so
that no call is asked for an allocation the size of one of them.
"""

import itertools

import pytest

from aqlam import (
    AqlamError,
    GoodParityParameter,
    InputError,
    ParamVector,
    Segment,
    build_tableau,
    compute_packet,
    cond_B,
    cond_C,
    count_params,
    lattice_points,
    lex_first_adjacent,
    neighbors,
    overlap,
    padic_cond_C,
    padic_transition,
    phi_adjacent,
    relation,
    segment_from_component,
    sigma_pairs,
    to_extended,
)


def boundary(r):
    """The integers tried where a parameter of r components takes one."""
    return (-10**30, -1, 0, 1, r, r + 1, 10**30)


def points(*args):
    return list(lattice_points(*args))


def calls(psi, p):
    """(function, arguments, the boundary integers among them) for each
    function of one boundary integer or of two, on psi and its vector p."""
    pv = ParamVector.reference(p)
    ems = to_extended(psi, pv)
    state = build_tableau(psi, pv)
    m = tuple(s.m for s in psi.segments)
    components = [(s.a, s.m) for s in psi.segments]
    ints = boundary(psi.r)
    for x in ints:
        yield cond_B, (psi, pv, x), x
        yield phi_adjacent, (psi, pv, x), x
        yield padic_transition, (psi, ems, x), x
        yield overlap, (state, x), x
        yield compute_packet, (psi, x), x
        yield count_params, (psi, x), x
        yield points, (m, x), x
        yield points, ((), x), x
        yield points, ((x,),), x
    for x, y in itertools.product(ints, repeat=2):
        yield relation, (psi, x, y), (x, y)
        yield neighbors, (psi, x, y), (x, y)
        yield lex_first_adjacent, (psi, x, y), (x, y)
        yield sigma_pairs, (psi, x, y), (x, y)
        yield cond_C, (psi, pv, x, y), (x, y)
        yield padic_cond_C, (psi, ems, x, y), (x, y)
        yield points, ((x,), y), (x, y)
        yield segment_from_component, (x, y), (x, y)
        yield Segment.of, (x, y), (x, y)
        yield GoodParityParameter.from_components, ([*components[:-1], (x, y)],), (x, y)
    yield points, ((),), ()


@pytest.mark.parametrize("fixture, p", [("psi_A", (2, 2, 2)), ("psi_one", (1,))])
def test_integers_past_the_domain_raise_only_library_errors(request, fixture, p):
    escaped = []
    for function, args, ints in calls(request.getfixturevalue(fixture), p):
        try:
            function(*args)
        except AqlamError:
            pass
        except Exception as error:
            escaped.append(f"{function.__qualname__} at {ints}: {error!r}")
    assert escaped == []


@pytest.fixture
def psi_one():
    # one segment [3,2]: every pair of indices is off the parameter
    return GoodParityParameter.from_components([(5, 2)])


@pytest.mark.parametrize("length", [-1, -10**30])
def test_a_negative_length_is_named_in_the_error(length):
    # these once yielded nothing, or blamed the rank
    for args in [((length,),), ((length,), 0), ((3, length),)]:
        with pytest.raises(InputError) as info:
            points(*args)
        assert str(info.value) == f"length {length} in {args[0]} is negative"


def test_a_segment_of_floats_is_refused():
    # Segment.of(3.5, 2.5) once had m == 2.0
    with pytest.raises(InputError) as info:
        Segment.of(3.5, 2.5)
    assert str(info.value) == "not an int or a HalfInt: 3.5"
