"""The frozen record base and the Bracket type shared by the bound modules.

Record is the base of the point path's record types (FuncValue, Bracket,
BoundSpec, ANuConstant): assignment raises AttributeError, and ==, hash
and repr go by the _fields tuple, == only within one class.  Each subclass
writes its own __init__ with its fields as parameters, which sets each
field with _set.  So the point path imports no record generator from the
standard library (and not the inspect and ast modules such a generator
pulls in).  Instances keep a __dict__, so object.__setattr__ still
replaces an attribute where a caller must (a tracer wrapping
BoundSpec.evaluate).
"""

from __future__ import annotations

import math

from .errors import InvalidBracket

# sets a field past Record.__setattr__.  Writing self.__dict__ instead would
# build an instance dict, and on CPython 3.11 every later attribute read
# then takes a dict lookup: about three times slower, and the registry
# reads its specs' fields on every query.
_set = object.__setattr__


class Record:
    """A frozen record compared, hashed and printed by its _fields."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def in_order(lower: float, upper: float) -> bool:
    """lower <= upper up to a few ulps of slop: sides can legitimately
    collide once the true gap drops below double resolution.  A NaN side
    passes."""
    slop = 1e-14 * max(abs(lower), abs(upper), 1e-300)
    return lower <= upper + slop or math.isnan(lower) or math.isnan(upper)


class Bracket(Record):
    """A lower/upper pair with per-side validity flags and bound identifiers.

    A side whose validity flag is False carries no guarantee (its value may
    still be populated for diagnostic purposes, or be nan).
    """

    _fields = ("lower", "upper", "lower_valid", "upper_valid", "lower_id", "upper_id")

    def __init__(self, lower: float, upper: float, lower_valid: bool, upper_valid: bool,
                 lower_id: str = "", upper_id: str = ""):
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "lower_valid", lower_valid)
        _set(self, "upper_valid", upper_valid)
        _set(self, "lower_id", lower_id)
        _set(self, "upper_id", upper_id)
        if lower_valid and upper_valid and not in_order(lower, upper):
            raise InvalidBracket(f"bracket sides out of order: [{lower}, {upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        ok = True
        if self.lower_valid:
            ok = ok and self.lower <= value
        if self.upper_valid:
            ok = ok and value <= self.upper
        return ok
