"""Control-response curves.

A curve maps a nonnegative control level into [0, 1] and carries its own
derivative; every gradient-based scheme in the package consumes the pair.
The built-in curves also evaluate a float array in one call
(``values``/``derivs``), with the same bits as their scalar methods; both
take an array of any shape, a stack of control rows included, and keep it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np


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

    def values(self, xs: np.ndarray) -> np.ndarray:
        # IEEE add and divide round in numpy exactly as on Python floats
        return xs / (xs + self.scale)

    def derivs(self, xs: np.ndarray) -> np.ndarray:
        # Python's ** is libm pow, which numpy's square and power do not
        # match in the last bit, so the square stays a Python float op
        s = self.scale
        points = xs.ravel().tolist()
        try:
            out = [s / (x + s) ** 2 for x in points]
        except OverflowError:
            out = [self.deriv(x) for x in points]
        return np.array(out).reshape(xs.shape)


@dataclass(frozen=True)
class LinearCurve:
    """slope * x; only sensible on inputs where the result stays within [0, 1]."""

    slope: float = 1.0

    def value(self, x: float) -> float:
        return self.slope * x

    def deriv(self, x: float) -> float:
        return self.slope

    def values(self, xs: np.ndarray) -> np.ndarray:
        # a Python float product overflows to inf silently; so does this one
        with np.errstate(over="ignore"):
            return self.slope * xs

    def derivs(self, xs: np.ndarray) -> np.ndarray:
        return np.full(np.shape(xs), self.slope, dtype=float)


@dataclass(frozen=True)
class ConstantCurve:
    """A flat curve; its derivative is identically zero."""

    level: float

    def value(self, x: float) -> float:
        return self.level

    def deriv(self, x: float) -> float:
        return 0.0

    def values(self, xs: np.ndarray) -> np.ndarray:
        return np.full(np.shape(xs), self.level, dtype=float)

    def derivs(self, xs: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(xs))
