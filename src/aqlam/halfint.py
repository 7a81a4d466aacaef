"""The exact half-integer type, for input and output.

Every numeric quantity in this library is an integer or a half-integer.
The engines compute on plain ints: box counts, and segment ends doubled
(``.twice``).  ``HalfInt`` stores that doubled value, so it is exact; it is
the type in which segment ends are parsed and half-integers are printed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import InputError

HalfIntLike = Union["HalfInt", int]

# what ``HalfInt.parse`` reads, once stripped: int() alone would also take
# "1_000", non-ASCII digits and "7 /2"
_GRAMMAR = re.compile(r"([+-]?[0-9]+)(/2)?")


@dataclass(frozen=True, slots=True)
class HalfInt:
    """An integer or half-integer, stored as its doubled value.

    It equals only a ``HalfInt`` of the same value and has no order: code
    that compares half-integers compares their doubles.

    >>> HalfInt(7)
    HalfInt(7/2)
    >>> HalfInt.of(3) + HalfInt(1)
    HalfInt(7/2)
    >>> HalfInt.of(3) - 1
    HalfInt(2)
    """

    twice: int

    @classmethod
    def of(cls, value: HalfIntLike) -> "HalfInt":
        """Coerce an int (or HalfInt) to a HalfInt."""
        if isinstance(value, HalfInt):
            return value
        return cls(2 * value)

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse "7" or "7/2", optionally signed, in ASCII digits only."""
        text = text.strip()
        match = _GRAMMAR.fullmatch(text)
        try:
            if match is None:
                raise ValueError
            value = int(match[1])  # also past sys.get_int_max_str_digits()
        except ValueError:
            raise InputError(f"not a half-integer: {text!r}") from None
        return cls(value if match[2] else 2 * value)

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __int__(self) -> int:
        if not self.is_integer:
            raise InputError(f"{self} is not an integer")
        return self.twice // 2

    def __add__(self, other: HalfIntLike) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    def __sub__(self, other: HalfIntLike) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"
