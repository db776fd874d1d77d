"""Control-dependent influence probabilities with an annealed slow scale.

Here the probability that a controlled agent accepts the planner's target
is itself a curve of the control level, which makes the payoff non-convex
in the controls.  The learner therefore runs three coupled pieces: a value
table tracking the stationary opinion of every node, a sensitivity table
whose driver picks up the extra curve-derivative terms, and a slow control
ascent perturbed by decaying Gaussian noise so it can leave bad local
maxima.  A deterministic known-matrix variant replaces the sampled probe
values by full expectations and serves as the comparison baseline; given
the same seed both variants share the same noise realization so their
trajectories can be compared pathwise.

With constant influence curves the sensitivity updates reduce exactly to
the two-time-scale scheme, bit for bit on a shared event stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import ConstantCurve, Curve, eval_groups, group_curves
from .dynamics import initial_state, sample_poll_targets
from .network import STUBBORN, AgentPartition, InteractionGraph, fixed_point, solve, system_matrix
from .optim import LocalClocks, StepSchedule, Trajectory, project_budget_simplex, run_loop
from .sas import _tick_fast_updates, owned_cells, poll_blocks

NOISE_SEED_TAG = 0x5EED


@dataclass(frozen=True, eq=False)
class GeneralModel:
    """Per-controlled-agent influence and reward curves."""

    alpha_curves: dict[int, Curve]
    w_curves: dict[int, Curve]
    # (control nodes, alpha groups, w groups), built by the first tables call
    _groups: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def alpha_values(self, partition: AgentPartition, u: np.ndarray) -> np.ndarray:
        out = np.zeros(partition.node_count)
        out[list(partition.controlled)] = self.tables(partition, u)[0]
        return out

    def tables(self, partition: AgentPartition, u: np.ndarray):
        """alpha, alpha', w, w' per control position, on one control vector
        or a stack of rows: one array call per curve group."""
        nodes = partition.controlled
        if self._groups is None or self._groups[0] != nodes:
            alpha = _merged_groups([self.alpha_curves[i] for i in nodes])
            w = _merged_groups([self.w_curves[i] for i in nodes])
            object.__setattr__(self, "_groups", (nodes, alpha, w))
        _, alpha, w = self._groups
        return (
            eval_groups(alpha, u, "values", "value"),
            eval_groups(alpha, u, "derivs", "deriv"),
            eval_groups(w, u, "values", "value"),
            eval_groups(w, u, "derivs", "deriv"),
        )


class _Levels(ConstantCurve):
    """ConstantCurves merged into one group: ``level`` holds one level per
    position, which ``values`` broadcasts along the last axis."""


def _merged_groups(curves: list[Curve]):
    """``curves.group_curves`` with every ConstantCurve in one group of levels."""
    levels = _Levels(np.array([c.level for c in curves if type(c) is ConstantCurve], dtype=float))
    return group_curves([levels if type(c) is ConstantCurve else c for c in curves])


def model_from_partition(partition: AgentPartition) -> GeneralModel:
    """Constant influence curves: the degenerate case matching the base model."""
    return GeneralModel(
        alpha_curves={i: ConstantCurve(float(partition.alpha[i])) for i in partition.controlled},
        w_curves=dict(partition.w),
    )


def study_model(partition: AgentPartition, seed, alpha_curve: Curve) -> GeneralModel:
    """Constant rewards drawn uniform per controlled agent, shared influence curve."""
    rng = np.random.default_rng(seed)
    levels = rng.uniform(0.0, 1.0, size=len(partition.controlled))
    return GeneralModel(
        alpha_curves={i: alpha_curve for i in partition.controlled},
        w_curves={i: ConstantCurve(float(l)) for i, l in zip(partition.controlled, levels)},
    )


def _fixed_point(partition: AgentPartition, model: GeneralModel, u: np.ndarray):
    """Rows (damp, rhs) of ``network.fixed_point`` at a = alpha(u), w = w(u),
    and the curve tables alpha, alpha', w, w' they come from."""
    tables = model.tables(partition, u)
    return (*fixed_point(partition, tables[0], tables[2]), tables)


def _driver(tables, sel, next_values: np.ndarray) -> np.ndarray:
    """Sensitivity driver a w' + a' w - a' x_next of the controls sel."""
    a, ad, w, wd = tables
    return a[sel] * wd[sel] + ad[sel] * w[sel] - ad[sel] * next_values


def value_oracle(
    graph: InteractionGraph,
    partition: AgentPartition,
    model: GeneralModel,
    u: np.ndarray,
) -> np.ndarray:
    """Stationary values under control-dependent influence (linear solve)."""
    damp, rhs, _ = _fixed_point(partition, model, u)
    return solve(system_matrix(graph.P, damp), rhs)


def general_payoff(
    graph: InteractionGraph,
    partition: AgentPartition,
    model: GeneralModel,
    u: np.ndarray,
) -> float:
    return float(value_oracle(graph, partition, model, u).sum())


def general_payoff_and_grad(
    graph: InteractionGraph,
    partition: AgentPartition,
    model: GeneralModel,
    u: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Payoff plus its exact control gradient (adjoint solve)."""
    damp, rhs, (a, ad, w, wd) = _fixed_point(partition, model, u)
    system = system_matrix(graph.P, damp)
    x = solve(system, rhs)
    adj = solve(system.T, np.ones(graph.node_count))
    idx = list(partition.controlled)
    mean_next = graph.P @ x
    grad = adj[idx] * (ad * (w - mean_next[idx]) + a * wd)
    return float(x.sum()), grad


def general_reference_optimum(
    graph: InteractionGraph,
    partition: AgentPartition,
    model: GeneralModel,
    budget: float,
) -> tuple[np.ndarray, float]:
    """Best control found by deterministic multistart projected ascent,
    4000 steps of size 25 / (k + 1) from each start.

    The payoff is non-convex here, so this is a reference, not a
    certificate of global optimality.
    """
    n_ctrl = len(partition.controlled)
    starts = [np.zeros(n_ctrl), np.full(n_ctrl, budget / max(1, n_ctrl))]
    for p in range(n_ctrl):
        e = np.zeros(n_ctrl)
        e[p] = budget
        starts.append(e)
        starts.append(0.5 * e)
    best_u, best_val = np.zeros(n_ctrl), -np.inf
    for u0 in starts:
        u = u0.copy()
        for k in range(4000):
            _, grad = general_payoff_and_grad(graph, partition, model, u)
            u = project_budget_simplex(u + (25.0 / (k + 1)) * grad, budget)
        val = general_payoff(graph, partition, model, u)
        if val > best_val:
            best_u, best_val = u, val
    return best_u, best_val


def sigma_noise(b_k: float, c_k: int, C: float) -> float:
    """Annealing amplitude C / sqrt((1/b) * log log c); zero until c >= 3."""
    if C == 0.0 or c_k < 3:
        return 0.0
    return C / math.sqrt((1.0 / b_k) * math.log(math.log(c_k)))


def value_update(
    values: np.ndarray,
    node: int,
    probed: int,
    partition: AgentPartition,
    model: GeneralModel,
    u: np.ndarray,
    clocks: LocalClocks,
    schedule: StepSchedule,
) -> np.ndarray:
    """Relax one node's value toward its sampled one-step target.

    The one-row case of ``sas._tick_fast_updates`` on the value vector,
    with the fixed point's damp and rhs; returns a new array.
    """
    if node in partition.stubborn:
        return values
    new = values.copy()
    damp, rhs, _ = _fixed_point(partition, model, u)
    rows = np.array([node])
    _tick_fast_updates(
        new, rows, np.array([probed]), damp[rows], slice(None), rhs[rows], schedule.a(clocks.value(node))
    )
    clocks.bump([node])
    return new


def general_grad_update(
    grad_table: np.ndarray,
    values: np.ndarray,
    node: int,
    probed: int,
    partition: AgentPartition,
    model: GeneralModel,
    u: np.ndarray,
    clocks: LocalClocks,
    schedule: StepSchedule,
) -> np.ndarray:
    """Sensitivity update carrying the influence-curve derivative terms.

    The one-row case of ``sas._tick_fast_updates`` with the general model's
    damping and diagonal driver a w' + a' w - a' values[probed]; so with a
    flat influence curve (zero derivative) it is exactly the two-time-scale
    fast update.
    """
    if node in partition.stubborn:
        return grad_table
    new = grad_table.copy()
    pollers, polled = np.array([node]), np.array([probed])
    own_rows, sel, own_cells = owned_cells(partition.node_codes(), pollers, new.shape[1])
    damp, _, tables = _fixed_point(partition, model, u)
    _tick_fast_updates(
        new, pollers, polled, damp[pollers][:, None], own_cells,
        _driver(tables, sel, values[polled[own_rows]]), schedule.a(clocks.value(node)),
    )
    clocks.bump([node])
    return new


def annealed_slow_update(
    u: np.ndarray,
    grad_est: np.ndarray,
    k: int,
    schedule: StepSchedule,
    C: float,
    denom: int,
    budget: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Projected ascent plus decaying Gaussian exploration noise."""
    c_k = int(np.ceil(k / denom))
    sigma = sigma_noise(schedule.b(k), c_k, C)
    base = u + schedule.b(k) * grad_est
    if sigma > 0.0:
        base = base + sigma * rng.standard_normal(len(u))
    return project_budget_simplex(base, budget)


def known_p_updates(
    values: np.ndarray,
    grad_table: np.ndarray,
    partition: AgentPartition,
    model: GeneralModel,
    u: np.ndarray,
    k: int,
    schedule: StepSchedule,
    graph: InteractionGraph,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-expectation versions of the value and sensitivity updates.

    Two ``sas._tick_fast_updates`` calls on copies, with every
    non-stubborn row as a poller and the next-state rows read from the full
    products P @ values and P @ grad_table (a product over a subset of rows
    may sum in another order).
    """
    damp, rhs, tables = _fixed_point(partition, model, u)
    codes = partition.node_codes()
    free = np.flatnonzero(codes != STUBBORN)
    step = schedule.a(k)

    mean_v = graph.P @ values
    new_values = values.copy()
    _tick_fast_updates(new_values, free, free, damp[free], slice(None), rhs[free], step, source=mean_v)

    own_rows, sel, own_cells = owned_cells(codes, free, grad_table.shape[1])
    driver = _driver(tables, sel, mean_v[free[own_rows]])
    new_table = grad_table.copy()
    _tick_fast_updates(
        new_table, free, free, damp[free][:, None], own_cells, driver, step, source=graph.P @ grad_table
    )
    return new_values, new_table


def _general_loop(
    scheme: str, fast_step, graph: InteractionGraph, partition: AgentPartition, model: GeneralModel,
    budget: float, schedule: StepSchedule, n_iters: int, seed, C: float, anneal_denom: int | None,
    u0: np.ndarray | None, payoff_star: float | None,
) -> Trajectory:
    """The loop both general learners share: each tick's
    ``fast_step(k, u, values, grad_table)`` returns the two tables after its
    fast updates, then the annealed ascent follows the table's column sums
    with noise from a stream derived from the seed alone.
    """
    noise_rng = np.random.default_rng(np.random.SeedSequence([NOISE_SEED_TAG, int(seed)]))
    anneal_denom = schedule.denom if anneal_denom is None else anneal_denom
    n_ctrl = len(partition.controlled)
    u = np.zeros(n_ctrl) if u0 is None else np.asarray(u0, dtype=float).copy()
    values = initial_state(graph, partition, 0.0).x
    grad_table = np.zeros((graph.node_count, n_ctrl))

    def tick(k, u):
        nonlocal values, grad_table
        values, grad_table = fast_step(k, u, values, grad_table)
        if n_ctrl:
            u = annealed_slow_update(
                u, grad_table.sum(axis=0), k, schedule, C, anneal_denom, budget, noise_rng
            )
        return u

    traj = run_loop(
        scheme, u, n_iters, tick,
        lambda us: [general_payoff(graph, partition, model, u) for u in us], payoff_star,
    )
    traj.extras = {"values": values.copy(), "grad_table": grad_table.copy()}
    return traj


def run_general_rl(
    graph: InteractionGraph,
    partition: AgentPartition,
    model: GeneralModel,
    budget: float,
    schedule: StepSchedule,
    n_iters: int,
    seed,
    C: float = 10.0,
    anneal_denom: int | None = None,
    u0: np.ndarray | None = None,
    payoff_star: float | None = None,
) -> Trajectory:
    """Sampled-event learner: value and sensitivity tables plus annealed ascent.

    The poll-event stream consumes the run RNG exactly as the two-time-scale
    runner does; the annealing noise is the known-matrix twin's.
    """
    rng = np.random.default_rng(seed)
    cdf = graph.poll_cdf()
    # synchronous: every non-stubborn agent polls on every tick, so every
    # local clock reads k
    codes = partition.node_codes()
    pollers = np.flatnonzero(codes != STUBBORN)
    own_rows, sel, own_cells = owned_cells(codes, pollers, len(partition.controlled))
    steps = schedule.a(np.arange(n_iters))
    draws = poll_blocks(lambda rows: sample_poll_targets(cdf, rows, rng), pollers, n_iters)

    def fast_step(k, u, values, grad_table):
        polled = next(draws)
        damp, rhs, tables = _fixed_point(partition, model, u)
        damp = damp[pollers]
        driver = _driver(tables, sel, values[polled[own_rows]])
        _tick_fast_updates(grad_table, pollers, polled, damp[:, None], own_cells, driver, steps[k])
        # value relaxation on the same events; the driver above read the
        # pre-tick values
        _tick_fast_updates(values, pollers, polled, damp, slice(None), rhs[pollers], steps[k])
        return values, grad_table

    return _general_loop(
        "general-rl", fast_step, graph, partition, model, budget, schedule, n_iters, seed,
        C, anneal_denom, u0, payoff_star,
    )


def run_general_knownp(
    graph: InteractionGraph,
    partition: AgentPartition,
    model: GeneralModel,
    budget: float,
    schedule: StepSchedule,
    n_iters: int,
    seed,
    C: float = 10.0,
    anneal_denom: int | None = None,
    u0: np.ndarray | None = None,
    payoff_star: float | None = None,
) -> Trajectory:
    """Deterministic-expectation twin of the sampled learner (same noise)."""

    def fast_step(k, u, values, grad_table):
        return known_p_updates(values, grad_table, partition, model, u, k, schedule, graph)

    return _general_loop(
        "general-knownp", fast_step, graph, partition, model, budget, schedule, n_iters, seed,
        C, anneal_denom, u0, payoff_star,
    )
