"""Every public function that takes an index, a position, a rank or a
length, called with integers at and past the ends of its domain: only the
library's own errors (``AqlamError`` and its subclasses) may escape.  Called
with a float, a bool or a str there, or with one in an entry vector, in
extended multi-segment data or in an arrangement, each raises an
``InputError``.

The integers come from a fixed set rather than from ``st.integers()``, so
that no call is asked for an allocation the size of one of them.
"""

import itertools

import pytest

from aqlam import (
    AqlamError,
    CompiledCriterion,
    CompiledReduction,
    ExtendedMultiSegment,
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
    nonvanishing,
    nonvanishing_simplified,
    overlap,
    padic_cond_C,
    padic_nonvanishing,
    padic_transition,
    phi,
    phi_adjacent,
    project_EF,
    range_classify,
    relation,
    segment_from_component,
    sigma_pairs,
    sign_of,
    to_extended,
    transposition_path,
    trapa_reduce,
)


def boundary(r):
    """The integers tried where a parameter of r components takes one."""
    return (-10**30, -1, 0, 1, r, r + 1, 10**30)


def points(*args):
    return list(lattice_points(*args))


def calls(psi, p, ints=None, pairs=None):
    """(function, arguments, the values tried among them) for each function
    of one integer or of two, on psi and its vector p: the boundary integers
    unless ``ints`` is given, and every pair of ``ints`` unless ``pairs``
    is."""
    pv = ParamVector.reference(p)
    ems = to_extended(psi, pv)
    state = build_tableau(psi, pv)
    m = tuple(s.m for s in psi.segments)
    components = [(s.a, s.m) for s in psi.segments]
    ints = boundary(psi.r) if ints is None else ints
    pairs = itertools.product(ints, repeat=2) if pairs is None else pairs
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
    for x, y in pairs:
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


# where the library takes an integer, it takes no float, bool or str
NON_INTEGERS = (2.5, 1.0, True, "1")


def replaced(items, k, x):
    return (*items[:k], x, *items[k + 1 :])


def item_calls(psi, p):
    """(function, arguments, the item) for each function of an entry
    vector, extended multi-segment data or an arrangement, given one that
    holds a non-integer item, on psi and its vector p."""
    pv = ParamVector.reference(p)
    ems = to_extended(psi, pv)
    verdict, reduce = CompiledCriterion(psi).verdict, CompiledReduction(psi).reduce
    for x, k in itertools.product(NON_INTEGERS, range(psi.r)):
        q, sigma = replaced(p, k, x), replaced(pv.sigma, k, x)
        for engine in (nonvanishing, nonvanishing_simplified, trapa_reduce, to_extended):
            yield engine, (psi, q), x
        yield verdict, (q,), x
        yield reduce, (q,), x
        yield ParamVector.reference, (q,), x
        yield ExtendedMultiSegment, (replaced(ems.l, k, x), ems.eta, ems.sigma), x
        yield ExtendedMultiSegment, (ems.l, replaced(ems.eta, k, x), ems.sigma), x
        yield phi, (psi, pv, sigma), x
        yield transposition_path, (psi, pv.sigma, sigma), x
        yield range_classify, (psi, sigma), x
        yield build_tableau, (psi, ParamVector(p, sigma)), x
        yield to_extended, (psi, ParamVector(p, sigma)), x
        on_sigma = ExtendedMultiSegment(ems.l, ems.eta, sigma)
        for function in (padic_nonvanishing, sign_of, project_EF):
            yield function, (psi, on_sigma), x
        yield padic_transition, (psi, on_sigma, 1), x
        yield padic_cond_C, (psi, on_sigma, 1, 2), x


def test_non_integers_raise_input_errors(psi_A):
    # each non-integer beside a valid index on either side, so that the
    # check that two indices are distinct does not hide it
    pairs = [pair for x in NON_INTEGERS for v in (2, 3) for pair in ((x, v), (v, x))]
    p = (2, 2, 2)
    answered = []
    for function, args, items in [
        *calls(psi_A, p, NON_INTEGERS, pairs), *item_calls(psi_A, p)
    ]:
        if items == ():
            continue  # the empty box, with no integer argument
        try:
            function(*args)
        except InputError:
            continue
        except Exception as error:
            answered.append(f"{function.__qualname__} at {items!r}: {error!r}")
        else:
            answered.append(f"{function.__qualname__} at {items!r} answered")
    assert answered == []
