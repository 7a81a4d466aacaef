"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: bad input -> 2, resource limits -> 3,
internal invariant violations -> 4.  A zero verdict is *not* an error.
"""

from typing import Iterable


class AqlamError(Exception):
    """Base class for all library errors."""


class InputError(AqlamError, ValueError):
    """Malformed or out-of-domain input (exit code 2)."""


class ResourceLimitError(AqlamError):
    """A configured size bound was exceeded (exit code 3)."""


class InvariantViolationError(AqlamError):
    """An internal self-check failed; indicates a bug (exit code 4)."""


def check_ints(what: str, values: Iterable[object]) -> None:
    """Refuse, with an ``InputError``, a value whose type is not ``int``:
    the library takes no float, bool or str where it takes an integer."""
    for value in values:
        if type(value) is not int:
            raise InputError(f"{what} {value!r} is not an int")
