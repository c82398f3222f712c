"""Bracket and registry-entry types shared by the bound modules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .special_core import Point

# An order within ORDER_TOL of a validity range's end or of an equality
# order counts as on it, in every bound module.
ORDER_TOL = 1e-12


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


# targets a registered inequality can bound
TARGETS = (
    "succ_ratio_L",   # L_nu(x) / L_{nu-1}(x)
    "cond_L",         # x L'_nu(x) / L_nu(x)
    "arg_ratio_L",    # L_nu(x) / L_nu(y), x < y
    "pointwise_L",    # L_nu(x) itself
    "b_kernel",       # the (0, 1/2)-valued kernel
    "product_diff_L", # I_nu L_{nu-1} - I_{nu-1} L_nu
)


@dataclass(frozen=True)
class BoundSpec:
    """Registry entry binding a named inequality to its target quantity.

    formula(nu, x, P), or formula(nu, x, y, P) for the argument ratio, is
    the bound's one formula: P is a special_core.Point at a single point or
    a rows.Row over numpy lanes, and the formula reads its
    primitives and elementary functions from P.  It checks its own order
    range where the formula needs one; P checks the arguments.

    nu_min / nu_min_strict encode the published validity range (all ranges
    are half-lines in the order).  equality_at marks the single order at
    which the inequality degenerates to an equality; certification treats
    those points as zero slack rather than violations.
    """

    bound_id: str
    target: str
    side: str  # "lower" | "upper"
    nu_min: float
    nu_min_strict: bool
    formula: Callable[..., float]
    equality_at: Optional[float] = None

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.side not in ("lower", "upper"):
            raise ValueError(f"side must be 'lower' or 'upper', got {self.side!r}")

    def evaluate(self, nu: float, x: float, y: Optional[float] = None) -> float:
        """The bound at one point, as a Python float."""
        args = (nu, x) if y is None else (nu, x, y)
        return float(self.formula(*args, Point(nu, x, y)))

    def valid_at(self, nu: float) -> bool:
        if self.nu_min_strict:
            return nu > self.nu_min
        return nu >= self.nu_min - ORDER_TOL

    def is_equality_at(self, nu: float) -> bool:
        return self.equality_at is not None and abs(nu - self.equality_at) <= ORDER_TOL
