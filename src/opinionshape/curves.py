"""Control-response curves.

A curve maps a nonnegative control level into [0, 1] and carries its own
derivative; every gradient-based scheme in the package consumes the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol


class Curve(Protocol):
    def value(self, x: float) -> float: ...

    def deriv(self, x: float) -> float: ...


@dataclass(frozen=True)
class SaturatingCurve:
    """x / (x + scale): concave, strictly increasing, saturating toward 1."""

    scale: float = 0.1

    def value(self, x: float) -> float:
        return x / (x + self.scale)

    def deriv(self, x: float) -> float:
        try:
            return self.scale / (x + self.scale) ** 2
        except OverflowError:
            # the square left the float range; the derivative's limit is 0
            return 0.0


@dataclass(frozen=True)
class LinearCurve:
    """slope * x; only sensible on inputs where the result stays within [0, 1]."""

    slope: float = 1.0

    def value(self, x: float) -> float:
        return self.slope * x

    def deriv(self, x: float) -> float:
        return self.slope


@dataclass(frozen=True)
class ConstantCurve:
    """A flat curve; its derivative is identically zero."""

    level: float

    def value(self, x: float) -> float:
        return self.level

    def deriv(self, x: float) -> float:
        return 0.0
