import pytest
from hypothesis import given
from hypothesis import strategies as st

from aqlam.errors import InputError
from aqlam.halfint import HalfInt

halfints = st.integers(min_value=-200, max_value=200).map(HalfInt)


def test_construction_and_str():
    assert str(HalfInt.of(3)) == "3"
    assert str(HalfInt(7)) == "7/2"
    assert str(HalfInt(-7)) == "-7/2"
    assert str(HalfInt(0)) == "0"


def test_parse():
    assert HalfInt.parse("7") == HalfInt.of(7)
    assert HalfInt.parse("7/2") == HalfInt(7)
    assert HalfInt.parse("-3/2") == HalfInt(-3)
    assert HalfInt.parse(" 4 ") == HalfInt.of(4)
    # int() takes the last three: an underscore, an Arabic-Indic three and
    # a space before the /2
    for text in ("3.5", "x/2", "1_000", "\u0663", "7 /2"):
        with pytest.raises(InputError, match="not a half-integer"):
            HalfInt.parse(text)


@given(halfints)
def test_parse_str_roundtrip(x):
    assert HalfInt.parse(str(x)) == x


@given(halfints, halfints)
def test_arithmetic(x, y):
    assert (x + y).twice == x.twice + y.twice
    assert (x - y).twice == x.twice - y.twice


@given(halfints, st.integers(min_value=-50, max_value=50))
def test_int_coercion(x, k):
    assert (x + k).twice == x.twice + 2 * k
    assert (x - k).twice == x.twice - 2 * k


def test_integrality():
    assert HalfInt.of(5).is_integer
    assert not HalfInt(5).is_integer
    assert int(HalfInt.of(-2)) == -2
    with pytest.raises(InputError):
        int(HalfInt(3))


def test_equality_with_ints():
    # a HalfInt equals only a HalfInt of the same value, and hashes with it
    assert HalfInt(8) != 4
    assert HalfInt(8) in {HalfInt.of(4)}
    assert 4 not in {HalfInt(8)}
