"""Control-response curves.

A curve maps a nonnegative control level into [0, 1] and carries its own
derivative; every gradient-based scheme in the package consumes the pair.
The built-in curves also evaluate a float array in one call
(``values``/``derivs``), with the same bits as their scalar methods; both
take an array of any shape, a stack of control rows included, and keep it.

For ``SaturatingCurve`` rewards the exact optimum of the convex case has
a closed form, ``saturating_optimum``; ``optim.exact_optimum`` bisects
every other curve set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

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
        try:
            with np.errstate(divide="raise", invalid="raise"):
                return xs / (xs + self.scale)
        except FloatingPointError:
            # a zero denominator, or inf / inf: the Python floats below
            # raise or give a quiet nan as value does
            s = self.scale
            return np.reshape([x / (x + s) for x in np.ravel(xs).tolist()], np.shape(xs))

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


def saturating_optimum(gains: np.ndarray, scales: np.ndarray, budget: float) -> np.ndarray | None:
    """The maximizer of sum_i g_i * u_i / (u_i + s_i) over {u >= 0,
    sum(u) <= budget}: the KKT water-filling point in closed form (Boyd and
    Vandenberghe, Convex Optimization, 2004, Example 5.2).  None unless
    every scale s_i is positive and finite, some gain is positive and every
    intermediate value stays in the float range.

    With k_i = sqrt(g_i / s_i), an active control gets u_i =
    s_i * (k_i / sqrt(lam) - 1), and the budget fixes sqrt(lam) =
    T / (budget + S), with T = sum sqrt(g_i) * sqrt(s_i) and S = sum s_i
    over the active set.  Controls join by k, largest first, while their k
    beats the sqrt(lam) of those before them.  Each active entry is
    budget * r_i + s_i * sum_j s_j * (k_i - k_j) / T, r_i = sqrt(g_i) *
    sqrt(s_i) / T, the sum taken against the smallest active k so that
    close or tied k do not cancel against the scales.
    """
    if not np.all((scales > 0.0) & (scales < np.inf)):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        root_g, root_s = np.sqrt(np.maximum(gains, 0.0)), np.sqrt(scales)
        keys = root_g / root_s
        order = np.argsort(-keys, kind="stable")
        keys, spans, weights = keys[order], scales[order], (root_g * root_s)[order]
        totals = weights.cumsum()
        levels = totals / (budget + spans.cumsum())
        stops = np.flatnonzero(keys[1:] <= levels[:-1])
        k = int(stops[0]) + 1 if len(stops) else len(keys)
        keys, spans, total = keys[:k], spans[:k], totals[k - 1]
        above = keys - keys[-1]
        spread = spans.sum() * above - spans @ above
        active = budget * (weights[:k] / total) + spans * (spread / total)
    # every gain zero (0 / 0), a NaN gain or an overflow
    if not np.all(np.isfinite(active)):
        return None
    u = np.zeros(len(gains))
    u[order[:k]] = np.maximum(active, 0.0)
    return u


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
