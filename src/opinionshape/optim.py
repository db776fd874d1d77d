"""Budget projection, step schedules, and the exact gradient baseline.

The feasible control set is the budget simplex {u >= 0, sum(u) <= M}.  The
exact gradient of the total payoff is available in closed form because the
stationary system matrix does not depend on u; projected ascent on it is
the off-line baseline every learning scheme is measured against.  Since the
objective is separable and concave in u, the true maximizer is also
computed directly by water-filling on the marginal payoffs, which serves as
the gap reference for experiment runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dynamics import payoff_coefficients, payoff_fn
from .errors import DivergenceError
from .network import AgentPartition, InteractionGraph


@dataclass(frozen=True)
class StepSchedule:
    """The two step-size sequences used by the learning schemes.

    a(k) = A / ceil((1 + k*log(1+k)) / denom)   (natural log)
    b(k) = B / ceil(k / denom) for k >= 1, with b(0) = B.
    """

    A: float = 0.6
    B: float = 0.6
    denom: int = 100

    def a(self, k):
        k = np.asarray(k, dtype=float)
        out = self.A / np.ceil((1.0 + k * np.log1p(k)) / self.denom)
        return float(out) if out.ndim == 0 else out

    def b(self, k):
        if type(k) is int:
            return slow_step(self.B, self.denom, k)
        k = np.asarray(k, dtype=float)
        out = self.B / np.maximum(np.ceil(k / self.denom), 1.0)
        return float(out) if out.ndim == 0 else out


def slow_step(B: float, denom: int, k: int) -> float:
    """``StepSchedule.b`` at one int k: B / ceil(k / denom), with b(0) = B.

    The same IEEE operations as the array path, without 0-d arrays, which
    cost about ten times as much.
    """
    return float(B / max(math.ceil(k / denom), 1.0))


@dataclass
class LocalClocks:
    """Per-agent update counters; the step index for local step sizes."""

    counts: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "LocalClocks":
        return cls(counts=np.zeros(n, dtype=np.int64))

    def value(self, node: int) -> int:
        return int(self.counts[node])

    def bump(self, nodes) -> None:
        self.counts[nodes] += 1


@dataclass
class Trajectory:
    """Per-iteration record of a run: controls, payoff, gap, and tick times."""

    scheme: str
    ks: np.ndarray
    u: np.ndarray
    payoff: np.ndarray
    rel_gap: np.ndarray | None = None
    iter_seconds: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    def final_u(self) -> np.ndarray:
        return self.u[-1]

    def final_gap(self) -> float:
        if self.rel_gap is None:
            raise ValueError("trajectory carries no gap column")
        return float(self.rel_gap[-1])


# support sizes 1, 2, ... of the water-filling candidates
_SIZES = np.arange(1.0, 1025.0)
_SIZES.setflags(write=False)


# a result that sums above the budget by more than this share of it (2^21
# ulps of the budget) rounded on the ulp grid of entries far above the
# budget, and is scaled onto it; ordinary results overshoot by a few ulps
# (under 3e-14 of the budget on the bench instances)
_OVERSHOOT = 2.0**-32
# theta carries a cumsum's rounding into each of up to n results, so the
# overshoot stays under about n^2 roundings at the largest entry top:
# 2^-53 * n^2 * top, plus n^2 * 2^-1074 among subnormals (a fuzz of 300,000
# projections stayed below it).  The result is summed only where four times
# that passes _OVERSHOOT: n^2 * (top + _SUBNORMAL_ULPS) > budget * _OVERSHOOT_REACH
_OVERSHOOT_REACH = _OVERSHOOT / (4 * 2.0**-53)
_SUBNORMAL_ULPS = 2.0**-1074 / 2.0**-53


# numpy's add-reduce sums fewer than 8 entries in one left-to-right loop and
# splits its pairwise sum over 8 accumulators from 8 entries up; below this
# width a sequential sum on Python floats has numpy's bits
_SEQUENTIAL_SUM_WIDTH = 8


def project_budget_simplex(v: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) <= budget}.

    Clip at zero first; if the clipped point fits the budget it is the
    projection, otherwise the budget binds and sorting-based water-filling
    on the face {x >= 0, sum(x) = budget} finishes the job.  A NaN or +inf
    entry raises DivergenceError (-inf clips to 0 and is projected).

    A budget below half an ulp of the largest entry rounds away against it,
    and the result is then all zeros.  Above the budget, v - theta rounds on
    the ulp grid of v; when that overshoots the budget by more than
    ``_OVERSHOOT`` of it, the result is scaled onto it.  A vector of fewer
    than 8 entries runs the same operations on Python floats, which skips
    numpy's per-call cost and gives the same bits.
    """
    # written so that NaN fails too
    if not budget > 0.0:
        raise ValueError("budget must be positive")
    v = np.asarray(v, dtype=float)
    if v.ndim == 1 and len(v) < _SEQUENTIAL_SUM_WIDTH:
        return _project_floats(v, budget)
    return _project_array(v, budget)


def _project_array(v: np.ndarray, budget: float) -> np.ndarray:
    clipped = np.maximum(v, 0.0)
    total = float(clipped.sum())
    if not math.isfinite(total):
        raise DivergenceError(f"cannot project a non-finite control vector: {v}")
    if total <= budget:
        return clipped
    n = len(v)
    dropping = np.sort(v)[::-1]
    csum = dropping.cumsum()
    csum -= budget
    # only entries far above the budget can round it away or overshoot it
    far = n * n * (float(dropping[0]) + _SUBNORMAL_ULPS) > budget * _OVERSHOOT_REACH
    if far and csum[0] == dropping[0]:
        # ties would hold at a level an ulp below them; only zero fits
        return np.zeros_like(v)
    sizes = _SIZES[:n] if n <= len(_SIZES) else np.arange(1.0, n + 1.0)
    holds = dropping > csum / sizes
    rho = n - int(holds[::-1].argmax())
    theta = float(csum[rho - 1]) / rho
    out = np.maximum(v - theta, 0.0)
    if far:
        total = float(out.sum())
        if total - budget > budget * _OVERSHOOT:
            out *= budget / total
    return out


def _project_floats(v: np.ndarray, budget: float) -> np.ndarray:
    # ``_project_array`` on Python floats: each step is one IEEE operation
    # in the same order, and ``x if x > 0.0 else 0.0`` is np.maximum(x, 0.0)
    # on non-NaN x, signed zeros included
    vals = v.tolist()
    total = 0.0
    for x in vals:
        # NaN passes into the total
        if not x < 0.0:
            total += x
    if not math.isfinite(total):
        raise DivergenceError(f"cannot project a non-finite control vector: {v}")
    if total <= budget:
        return np.array([x if x > 0.0 else 0.0 for x in vals])
    dropping = sorted(vals, reverse=True)
    n = len(vals)
    far = n * n * (dropping[0] + _SUBNORMAL_ULPS) > budget * _OVERSHOOT_REACH
    if far and dropping[0] - budget == dropping[0]:
        return np.zeros_like(v)
    csum = 0.0
    for size, x in enumerate(dropping, 1):
        csum += x
        level = (csum - budget) / size
        # the largest entry holds, so theta is always set
        if x > level:
            theta = level
    out = [x - theta if x - theta > 0.0 else 0.0 for x in vals]
    if far:
        total = 0.0
        for x in out:
            total += x
        if total - budget > budget * _OVERSHOOT:
            scale = budget / total
            out = [x * scale for x in out]
    return np.array(out)


def exact_gradient(graph: InteractionGraph, partition: AgentPartition, u: np.ndarray) -> np.ndarray:
    """Closed-form payoff gradient: coefficient * alpha_i * w_i'(u_i) per control."""
    coef = payoff_coefficients(graph, partition)
    idx = list(partition.controlled)
    if not idx:
        return np.zeros(0)
    return coef[idx] * partition.alpha[idx] * partition.w_derivs(u)


def run_loop(
    scheme: str, u: np.ndarray, n_iters: int, tick, payoff, payoff_star: float | None
) -> Trajectory:
    """The outer loop every runner shares: n_iters calls u = tick(k, u).

    Records the initial point, then each tick's u, and the wall time of
    each tick as ``iter_seconds``.  The payoff column comes from one
    ``payoff(us)`` call on the stacked controls after the loop, so
    ``payoff`` takes a stack with one control vector per row and returns
    one payoff per row.  With payoff_star the trajectory also carries the
    relative gap, which is nan in every row when payoff_star is 0.
    """
    us = [u.copy()]
    times = []
    for k in range(n_iters):
        t0 = time.perf_counter()
        u = tick(k, u)
        times.append(time.perf_counter() - t0)
        us.append(u.copy())
    us = np.array(us)
    pays = np.asarray(payoff(us), dtype=float)
    gaps = None
    if payoff_star is not None:
        gaps = (payoff_star - pays) / payoff_star if payoff_star else np.full(len(pays), np.nan)
    return Trajectory(
        scheme=scheme,
        ks=np.arange(n_iters + 1),
        u=us,
        payoff=pays,
        rel_gap=gaps,
        iter_seconds=np.array(times),
    )


def run_exact_gd(
    graph: InteractionGraph,
    partition: AgentPartition,
    budget: float,
    u0: np.ndarray | None = None,
    n_iters: int = 10_000,
    step_scale: float = 1.0,
    payoff_star: float | None = None,
) -> Trajectory:
    """Projected gradient ascent with diminishing step step_scale / (k + 1).

    Deterministic; the trajectory records the initial point and every iterate.
    """
    n_ctrl = len(partition.controlled)
    u = np.zeros(n_ctrl) if u0 is None else np.asarray(u0, dtype=float).copy()
    idx = list(partition.controlled)
    gains = payoff_coefficients(graph, partition)[idx] * partition.alpha[idx]

    def tick(k, u):
        if not n_ctrl:
            return u
        grad = gains * partition.w_derivs(u)
        return project_budget_simplex(u + (step_scale / (k + 1)) * grad, budget)

    return run_loop("gd", u, n_iters, tick, payoff_fn(graph, partition), payoff_star)


def exact_optimum(
    graph: InteractionGraph,
    partition: AgentPartition,
    budget: float,
) -> tuple[np.ndarray, float]:
    """Exact maximizer of the total payoff over the budget simplex.

    The objective separates across controls, so the optimum equalizes the
    marginal payoffs c_i * alpha_i * w_i'(u_i) at some level lam >= 0; a
    double bisection (outer on lam, inner on each u_i) pins it down.  With
    strictly increasing reward curves the budget binds; if every marginal
    is zero the zero control is returned.

    The inner search bisects [0, budget] for the largest u_i with
    g_i * w_i'(u_i) >= lam, up to 100 steps.  One shortcut comes first:
    when one curve object covers every control (as in every
    ``random_partition``), offers certified bounds on that result
    (``bisection_brackets``) and every gain is positive, a probe of lam
    sums the bounds.  numpy's pairwise sum is a fixed tree of rounded
    additions, monotone in every term, so a lower sum above the budget or
    an upper sum within it decides the probe without bisecting.  Otherwise
    the probe bisects every control.  Each bisection with bounds, the final
    one at lam_hi included, calls ``deriv`` only at midpoints inside them.
    """
    idx = list(partition.controlled)
    payoff = payoff_fn(graph, partition)
    if not idx:
        return np.zeros(0), payoff(np.zeros(0))
    coef = payoff_coefficients(graph, partition)
    gains = (coef[idx] * partition.alpha[idx]).tolist()
    derivs = [partition.w[i].deriv for i in idx]
    n_ctrl = len(idx)

    top = [g * deriv(0.0) for g, deriv in zip(gains, derivs)]
    lam_hi = max(top)
    if lam_hi <= 0.0:
        u_star = np.zeros(n_ctrl)
        return u_star, payoff(u_star)
    floor = [g * deriv(budget) for g, deriv in zip(gains, derivs)]

    brackets = _bisection_brackets(partition, np.array(gains), budget)

    def control_at(lam: float, bounds=None) -> np.ndarray:
        """Each control's inner bisection result at lam.

        The test holds at lo and fails at hi, so once mid rounds onto lo or
        hi every further step rewrites the same value and stopping leaves
        (lo, hi) exactly as 100 steps would.  With certified ``bounds``
        (lows, highs) on the results at lam, a mid below a control's low
        holds and one above its high fails without calling ``deriv``: the
        other answer would leave the result on the wrong side of the bound.
        """
        lows, highs = ([0.0] * n_ctrl, [budget] * n_ctrl) if bounds is None else (b.tolist() for b in bounds)
        u = np.zeros(n_ctrl)
        for pos in range(n_ctrl):
            if top[pos] <= lam:
                continue
            if floor[pos] >= lam:
                u[pos] = budget
                continue
            g, deriv, low, high = gains[pos], derivs[pos], lows[pos], highs[pos]
            lo, hi = 0.0, budget
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                if mid < low or (mid <= high and g * deriv(mid) >= lam):
                    lo = mid
                else:
                    hi = mid
            u[pos] = 0.5 * (lo + hi)
        return u

    def exceeds(lam: float) -> bool:
        """Whether the bisection results at lam sum above the budget."""
        bounds = None if brackets is None else brackets(lam)
        if bounds is not None:
            # no overflow: brackets exist only for budgets below 2^512
            if bounds[0].sum() > budget:
                return True
            if bounds[1].sum() <= budget:
                return False
        with np.errstate(over="ignore"):
            return control_at(lam, bounds).sum() > budget

    u_star = control_at(0.0)
    # at a huge budget the controls can sum past the float range: inf > budget
    with np.errstate(over="ignore"):
        if u_star.sum() <= budget:
            return u_star, payoff(u_star)
    lam_lo = 0.0
    for _ in range(200):
        lam = 0.5 * (lam_lo + lam_hi)
        if exceeds(lam):
            lam_lo = lam
        else:
            lam_hi = lam
        if lam_hi - lam_lo < 1e-12 * max(1.0, lam_hi):
            break
    u_star = control_at(lam_hi, None if brackets is None else brackets(lam_hi))
    # land exactly on the face when the budget binds
    with np.errstate(over="ignore"):
        s = u_star.sum()
    if s > 0:
        u_star = u_star * (budget / s) if abs(s - budget) < 1e-6 else u_star
    return u_star, payoff(u_star)


def _bisection_brackets(partition: AgentPartition, gains: np.ndarray, budget: float):
    """A function lam -> (lo, hi) bounding every control's bisection result
    at lam (or None at a lam the curve cannot bound), from the curve's
    ``bisection_brackets``; None unless one curve covers every control,
    every gain is positive and the curve offers bounds on [0, budget]."""
    groups = partition.curve_groups()
    if len(groups) != 1 or not np.all(gains > 0.0):
        return None
    make = getattr(groups[0][0], "bisection_brackets", None)
    return None if make is None else make(gains, budget)


def stationarity_residual(
    graph: InteractionGraph,
    partition: AgentPartition,
    budget: float,
    u: np.ndarray,
) -> float:
    """Norm of the projected-gradient fixed-point defect at u, step 1e-3."""
    grad = exact_gradient(graph, partition, u)
    moved = project_budget_simplex(u + 1e-3 * grad, budget)
    return float(np.linalg.norm(moved - u))
