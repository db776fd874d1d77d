"""Control-response curves.

A curve maps a nonnegative control level into [0, 1] and carries its own
derivative; every gradient-based scheme in the package consumes the pair.
The built-in curves also evaluate a float array in one call
(``values``/``derivs``), with the same bits as their scalar methods; both
take an array of any shape, a stack of control rows included, and keep it.

A curve may also offer ``bisection_brackets(gains, budget)``, certified
bounds on the inner bisection of ``optim.exact_optimum``; a curve without
it is bisected exactly, as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

# values inside this range are normal doubles with room to spare, so each
# IEEE operation on them rounds with a relative error under one ulp
_SAFE_LO = 2.0**-1000
_SAFE_HI = 2.0**1000
# below this many gains, bisection brackets are computed on Python floats:
# numpy's per-call cost outweighs the loop (3 gains: 4.6 against 11.8 us a
# call; the two break even near 10 gains)
_POINTWISE_WIDTH = 8
# from this many controls up, SaturatingCurve.derivs is one numpy ufunc
# chain; below it numpy's per-call cost outweighs the Python loop (best of
# 7 x 20,000 calls, list against ufunc: 3 controls 1.0 against 3.3 us, 20
# controls 3.1 against 3.4, 24 controls 3.5 against 3.5, 80 controls 12
# against 5.0; the two break even between 20 and 24 controls)
_UFUNC_WIDTH = 21


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
        # Python's ** on floats is libm pow, and so is np.float_power's
        # float64 loop; np.power on arrays dispatches to SIMD code and
        # np.square rounds differently, both on some inputs
        s = self.scale
        if xs.size >= _UFUNC_WIDTH:
            try:
                # an overflowing square is inf and s / inf the limit 0,
                # which the scalar deriv returns too
                with np.errstate(over="ignore", divide="raise", invalid="raise"):
                    return s / np.float_power(xs + s, 2.0)
            except FloatingPointError:
                # a zero square, or a scale of 0 or inf: the Python floats
                # below raise or round as deriv does
                pass
        if xs.ndim != 1:
            return self.derivs(xs.ravel()).reshape(xs.shape)
        points = xs.tolist()
        try:
            out = [s / (x + s) ** 2 for x in points]
        except OverflowError:
            out = [self.deriv(x) for x in points]
        return np.array(out)

    def bisection_brackets(self, gains: np.ndarray, budget: float):
        """Certified bounds on ``exact_optimum``'s inner bisection, or None.

        Returns a function of a level lam giving arrays (lo, hi) with
        lo <= r <= hi per gain g, where r is the result of bisecting
        g * deriv(x) >= lam over [0, budget], at most 100 steps; or None at
        a lam it cannot bound.  The exact marginal g * s / (x + s)^2 crosses
        lam at sqrt(g * s / lam) - s.  While every value involved lies in
        [2^-1000, 2^1000], each operation of ``deriv`` and of that estimate
        rounds within an ulp, so the computed test switches a few ulps of
        sqrt(g * s / lam) from the estimate.  The bracket widens it by 1024
        of those ulps, by budget * 2^-99 for the step cap and by an ulp of
        budget, then clips it to [0, budget].  The whole function is None
        when ``deriv`` can overflow on [0, budget] or underflow at 0.
        """
        s = self.scale
        try:
            if not (s > 0.0 and s * s >= _SAFE_LO and math.isfinite((budget + s) ** 2)):
                return None
        except OverflowError:
            return None
        gs = gains * s
        g_min, g_max = float(gains.min()), float(gains.max())
        gs_min, gs_max = float(gs.min()), float(gs.max())
        # written so that NaN fails too
        if not (_SAFE_LO <= min(g_min, gs_min) and max(g_max, gs_max) <= _SAFE_HI):
            return None
        pad = budget * 2.0**-99 + math.ulp(budget)
        points = gs.tolist() if len(gs) < _POINTWISE_WIDTH else None

        def brackets(lam: float) -> tuple[np.ndarray, np.ndarray] | None:
            # the extremes bound every g * s / lam and lam / g
            if not (
                _SAFE_LO <= lam <= _SAFE_HI
                and _SAFE_LO <= gs_min / lam
                and gs_max / lam <= _SAFE_HI
                and _SAFE_LO <= lam / g_max
                and lam / g_min <= _SAFE_HI
            ):
                return None
            if points is not None:
                # the array operations below on Python floats, without
                # numpy's per-call cost: IEEE sqrt and division round alike,
                # and math.ulp is np.spacing on positive floats
                lo, hi = [], []
                for x in points:
                    root = math.sqrt(x / lam)
                    width = math.ulp(root) * 1024.0 + pad
                    est = root - s
                    low, high = est - width, est + width
                    lo.append(min(low, budget) if low > 0.0 else 0.0)
                    hi.append(min(high, budget) if high > 0.0 else 0.0)
                return np.array(lo), np.array(hi)
            root = np.sqrt(gs / lam)
            width = np.spacing(root)
            width *= 1024.0
            width += pad
            est = root - s
            lo = est - width
            np.maximum(lo, 0.0, out=lo)
            np.minimum(lo, budget, out=lo)
            hi = est + width
            np.maximum(hi, 0.0, out=hi)
            np.minimum(hi, budget, out=hi)
            return lo, hi

        return brackets


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


def group_curves(curves: Sequence[Curve]) -> tuple[tuple[Curve, np.ndarray], ...]:
    """One ``(curve, positions)`` pair per distinct curve object in
    ``curves``, in order of first appearance, with read-only positions."""
    members: dict[int, tuple[Curve, list[int]]] = {}
    for pos, curve in enumerate(curves):
        members.setdefault(id(curve), (curve, []))[1].append(pos)
    groups = tuple((curve, np.array(positions)) for curve, positions in members.values())
    for _, positions in groups:
        positions.setflags(write=False)
    return groups


def eval_groups(
    groups: Sequence[tuple[Curve, np.ndarray]], u: np.ndarray, batch: str, point: str
) -> np.ndarray:
    """Bit for bit ``[curve.<point>(x) for x in u]`` per control, through one
    array call ``<batch>`` per group; a curve without that method goes point
    by point.  u is one control vector or a stack of rows."""
    u = np.asarray(u, dtype=float)
    if len(groups) == 1 and hasattr(groups[0][0], batch):
        # one curve covers every control: no gather, no scatter
        return getattr(groups[0][0], batch)(u)
    out = np.empty(u.shape)
    for curve, positions in groups:
        # u[..., positions] would cost a one-vector call five times u[positions]
        at = positions if u.ndim == 1 else (Ellipsis, positions)
        xs = u[at]
        if hasattr(curve, batch):
            out[at] = getattr(curve, batch)(xs)
        else:
            f = getattr(curve, point)
            out[at] = np.reshape([f(x) for x in xs.ravel().tolist()], xs.shape)
    return out
