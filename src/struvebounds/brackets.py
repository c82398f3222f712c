"""The Bracket type shared by the bound modules."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Bracket:
    """A lower/upper pair with per-side validity flags and bound identifiers.

    A side whose validity flag is False carries no guarantee (its value may
    still be populated for diagnostic purposes, or be nan).
    """

    lower: float
    upper: float
    lower_valid: bool
    upper_valid: bool
    lower_id: str = ""
    upper_id: str = ""

    def __post_init__(self):
        if self.lower_valid and self.upper_valid:
            # a few ulps of slop: sides can legitimately collide once the
            # true gap drops below double resolution
            slop = 1e-14 * max(abs(self.lower), abs(self.upper), 1e-300)
            if not (self.lower <= self.upper + slop or math.isnan(self.lower)
                    or math.isnan(self.upper)):
                raise ValueError(
                    f"bracket sides out of order: [{self.lower}, {self.upper}]"
                )

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
