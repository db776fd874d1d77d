"""Two-time-scale stochastic approximation driven by observed poll events.

The fast iterate is a table grad_table[i, j] estimating the sensitivity of
node i's stationary opinion to control j; each observed poll (i, polled)
relaxes row i toward its one-step fixed-point target using the poller's
local-clock step a(nu_i).  The slow iterate ascends the controls along the
column sums of the table with step b(k), projected back onto the budget
simplex.  Stubborn rows stay pinned at zero.
"""

from __future__ import annotations

import numpy as np

from .dynamics import payoff_fn, sample_poll_targets
from .errors import DivergenceError
from .network import STUBBORN, ActivationModel, AgentPartition, InteractionGraph, stationary_system
from .optim import LocalClocks, StepSchedule, Trajectory, project_budget_simplex, run_loop

# sanity ceiling on table entries: alpha_max * max w' / alpha_min, slack 10x
BOUND_SLACK = 10.0


def exact_grad_table(graph: InteractionGraph, partition: AgentPartition, u: np.ndarray) -> np.ndarray:
    """Fixed point of the sensitivity recursion, solved exactly (test oracle).

    Table column j solves (Id - A) col = alpha_j w_j'(u_j) e_j, so the full
    table is (Id - A)^-1 D with D the diagonal driver on controlled rows.
    Stubborn rows come out exactly zero because their A-rows are zero.
    """
    n = graph.node_count
    idx = list(partition.controlled)
    driver = np.zeros((n, len(idx)))
    if idx:
        driver[idx, np.arange(len(idx))] = partition.alpha[idx] * partition.w_derivs(u)
    return np.linalg.solve(stationary_system(graph, partition), driver)


def sas_fast_update(
    grad_table: np.ndarray,
    event: tuple[int, int],
    graph: InteractionGraph,
    partition: AgentPartition,
    u: np.ndarray,
    clocks: LocalClocks,
    schedule: StepSchedule,
) -> np.ndarray:
    """Apply one observed poll event to the sensitivity table.

    Returns a new table; events naming a stubborn poller are ignored
    (stubborn agents do not poll).  The poller's clock advances.
    """
    poller, polled = event
    if poller in partition.stubborn:
        return grad_table
    new = grad_table.copy()
    pos = int(partition.node_codes()[poller])
    diag = partition.alpha[poller] * partition.w[poller].deriv(float(u[pos])) if pos >= 0 else 0.0
    step = schedule.a(clocks.value(poller))
    _tick_fast_updates(
        new, np.array([poller]), np.array([polled]), partition.alpha,
        np.array([diag]), np.array([pos]), np.array([step]),
    )
    clocks.bump([poller])
    return new


def sas_slow_update(
    u: np.ndarray,
    grad_table: np.ndarray,
    k: int,
    schedule: StepSchedule,
    budget: float,
) -> np.ndarray:
    """Projected ascent along the table's column sums with step b(k)."""
    return project_budget_simplex(u + schedule.b(k) * grad_table.sum(axis=0), budget)


def _tick_fast_updates(
    grad_table: np.ndarray,
    pollers: np.ndarray,
    polled: np.ndarray,
    alpha: np.ndarray,
    diag_driver: np.ndarray,
    ctrl_pos: np.ndarray,
    steps: np.ndarray,
) -> np.ndarray:
    """Vectorized fast updates for one tick, reading pre-tick table values.

    diag_driver[p] = alpha_i * w_i'(u_i) for the poller owning control p;
    ctrl_pos maps poller order to the control column (or -1).  Row i moves
    to G_i + a_i * ((1 - alpha_i) G_polled + driver - G_i), computed in
    place on one gathered block, which is written back and returned.
    """
    rows = grad_table[pollers]
    block = grad_table[polled]
    block *= (1.0 - alpha[pollers])[:, None]
    owns = ctrl_pos >= 0
    block[owns, ctrl_pos[owns]] += diag_driver[owns]
    block -= rows
    block *= steps[:, None]
    block += rows
    grad_table[pollers] = block
    return block


def run_sas(
    graph: InteractionGraph,
    partition: AgentPartition,
    budget: float,
    schedule: StepSchedule,
    activation: ActivationModel,
    n_iters: int,
    seed,
    u0: np.ndarray | None = None,
    payoff_star: float | None = None,
    freeze_u: bool = False,
) -> Trajectory:
    """Run the coupled fast/slow recursion for n_iters ticks.

    Each tick draws the active set, samples one poll per active non-stubborn
    agent, applies all fast updates against the pre-tick table, then takes
    one slow control step.  With freeze_u the controls stay at u0, which
    isolates the fast recursion.
    """
    rng = np.random.default_rng(seed)
    n = graph.node_count
    n_ctrl = len(partition.controlled)
    u = np.zeros(n_ctrl) if u0 is None else np.asarray(u0, dtype=float).copy()
    grad_table = np.zeros((n, n_ctrl))
    clocks = LocalClocks.zeros(n)
    cdf = graph.poll_cdf()

    codes = partition.node_codes()
    free = codes != STUBBORN
    non_stubborn = np.flatnonzero(free)
    alpha = partition.alpha

    bound = _table_bound(partition)

    def tick(k, u):
        if activation.mode == "synchronous":
            pollers = non_stubborn
        else:
            active = rng.random(n) < activation.q
            pollers = np.flatnonzero(active & free)
        polled = sample_poll_targets(cdf, pollers, rng)
        diag = np.zeros(len(pollers))
        cp = codes[pollers]
        owns = cp >= 0
        if owns.any():
            w_der = partition.w_derivs(u)
            diag[owns] = alpha[pollers[owns]] * w_der[cp[owns]]
        steps = schedule.a(clocks.counts[pollers])
        updated = _tick_fast_updates(grad_table, pollers, polled, alpha, diag, cp, steps)
        clocks.bump(pollers)
        if not freeze_u and n_ctrl:
            u = sas_slow_update(u, grad_table, k, schedule, budget)
        # rows left alone this tick passed on an earlier one
        if not np.max(np.abs(updated), initial=0.0) <= bound:
            raise DivergenceError(f"sensitivity table left its sanity bound {bound:.3g} at tick {k + 1}")
        return u

    traj = run_loop("sas", u, n_iters, tick, payoff_fn(graph, partition), payoff_star)
    traj.extras = {"grad_table": grad_table, "clocks": clocks.counts.copy()}
    return traj


def _table_bound(partition: AgentPartition) -> float:
    """Sanity ceiling for table entries; generous, violation means a bug."""
    if not partition.controlled:
        return 1.0
    idx = list(partition.controlled)
    alphas = partition.alpha[idx]
    max_wp = max(partition.w[i].deriv(0.0) for i in idx)
    a_min = float(np.min(alphas[alphas > 0.0], initial=1.0))
    return BOUND_SLACK * float(np.max(alphas)) * max_wp / a_min
