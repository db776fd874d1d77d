"""Gossip opinion process and its stationary fixed point.

One tick activates a set of agents.  Stubborn agents reset to their pinned
opinion, uncontrolled agents copy a polled neighbor, and controlled agents
copy either the planner's target w_i(u_i) (with probability alpha_i) or a
polled neighbor.  Updates within a tick read the pre-tick opinions.  Every
active non-stubborn agent polls, and the (poller, polled) pairs are the
planner's observable even when the poll's value is discarded in favor of
the planner target; the realized opinion law is unchanged by this
convention.

The stationary mean opinion solves a linear system and doubles as the
constant-policy value of the absorbing-chain view of the same process,
where stubborn states absorb, controlled states discount by (1 - alpha_i),
and the planner target plays the running reward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfeasibleError
from .network import (
    STUBBORN,
    ActivationModel,
    AgentPartition,
    InteractionGraph,
    PollTable,
    influence_rhs,
    solve,
    stationary_system,
)

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class OpinionState:
    x: np.ndarray
    k: int = 0


@dataclass(frozen=True)
class PollEvent:
    poller: int
    polled: int


def initial_state(graph: InteractionGraph, partition: AgentPartition, fill: float = 0.5) -> OpinionState:
    """Default start: pinned values on stubborn agents, ``fill`` elsewhere."""
    x = np.full(graph.node_count, fill)
    for i in partition.stubborn:
        x[i] = partition.h[i]
    return OpinionState(x=x, k=0)


def sample_poll_targets(cdf: PollTable, pollers: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one polled neighbor per poller from the graph's poll table."""
    return cdf.draw(pollers, rng.random(len(pollers)))


def gossip_step(
    state: OpinionState,
    u: np.ndarray,
    graph: InteractionGraph,
    partition: AgentPartition,
    activation: ActivationModel,
    rng: np.random.Generator,
) -> tuple[OpinionState, list[PollEvent]]:
    """Advance the opinion vector one tick; return the observed poll events."""
    x_old = state.x
    x_new = x_old.copy()
    n = graph.node_count
    if activation.mode == "synchronous":
        active = np.ones(n, dtype=bool)
    else:
        active = rng.random(n) < activation.q

    codes = partition.node_codes()
    pollers = np.flatnonzero(active & (codes != STUBBORN))
    polled = sample_poll_targets(graph.poll_cdf(), pollers, rng)

    reset = np.flatnonzero(active & (codes == STUBBORN))
    x_new[reset] = [partition.h[i] for i in reset.tolist()]

    # alpha is 0 off S, so only controlled pollers can take the target
    target = np.zeros(n)
    target[list(partition.controlled)] = partition.w_values(u)
    coins = rng.random(len(pollers))
    x_new[pollers] = np.where(coins < partition.alpha[pollers], target[pollers], x_old[polled])

    events = [PollEvent(int(i), int(j)) for i, j in zip(pollers, polled)]
    return OpinionState(x=x_new, k=state.k + 1), events


def stationary_opinion(graph: InteractionGraph, partition: AgentPartition, u: np.ndarray) -> np.ndarray:
    """Solve (Id - A) x = rhs(u) for the long-run mean opinion."""
    system = stationary_system(graph, partition)
    rhs = influence_rhs(partition, u)
    x = solve(system, rhs)
    residual = np.max(np.abs(system @ x - rhs))
    if residual > RESIDUAL_TOL:
        # one step of iterative refinement before giving up
        x = x + solve(system, rhs - system @ x)
        residual = np.max(np.abs(system @ x - rhs))
        if residual > RESIDUAL_TOL:
            raise InfeasibleError(f"stationary solve residual {residual:.3e} above tolerance")
    return x


def total_payoff(graph: InteractionGraph, partition: AgentPartition, u: np.ndarray) -> float:
    """Sum of stationary opinions over all agents."""
    return float(stationary_opinion(graph, partition, u).sum())


def payoff_coefficients(graph: InteractionGraph, partition: AgentPartition) -> np.ndarray:
    """Row vector c with total payoff = c . rhs(u); see ``payoff_adjoint``."""
    return graph.payoff_adjoint(partition)


def payoff_fn(graph: InteractionGraph, partition: AgentPartition) -> Callable[[np.ndarray], float | np.ndarray]:
    """Fast closure for the total payoff, for the trajectory record of runners.

    The system matrix does not depend on u, so the payoff reduces to a dot
    product with precomputed coefficients.  The closure takes one control
    vector (a float back) or a stack of them, one per row (an array back).
    Both take one path: one ``w_values`` call on the stack, a single vector
    being its one row, then one stacked product that takes the dot product
    of each row with the coefficients on its own (a plain ``W @ c_ctrl``
    sums in another order and differs in the last bit).
    """
    coef = payoff_coefficients(graph, partition)
    base = sum(coef[i] * partition.h[i] for i in partition.stubborn)
    idx = list(partition.controlled)
    c_ctrl = coef[idx] * partition.alpha[idx]

    def payoff(u: np.ndarray) -> float | np.ndarray:
        # without controls each row's product is 0.0
        W = partition.w_values(np.atleast_2d(u))
        # an unbounded curve's value overflows the product to inf, as a
        # Python float product does
        with np.errstate(over="ignore"):
            rows = base + (W[:, None, :] @ c_ctrl)[:, 0]
        return rows if np.ndim(u) == 2 else float(rows[0])

    return payoff


def empirical_mean_opinion(
    graph: InteractionGraph,
    partition: AgentPartition,
    u: np.ndarray,
    activation: ActivationModel,
    n_steps: int,
    n_runs: int,
    seed,
) -> np.ndarray:
    """Monte-Carlo mean of x(n_steps) across independent trajectories.

    Trajectories are advanced in one vectorized batch; the per-tick
    semantics match gossip_step (pre-tick reads, planner coin on controlled
    agents).
    """
    mean, _ = empirical_opinion_stats(graph, partition, u, activation, n_steps, n_runs, seed)
    return mean


def empirical_opinion_stats(
    graph: InteractionGraph,
    partition: AgentPartition,
    u: np.ndarray,
    activation: ActivationModel,
    n_steps: int,
    n_runs: int,
    seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of x(n_steps) across runs."""
    rng = np.random.default_rng(seed)
    n = graph.node_count
    x0 = initial_state(graph, partition, fill=0.5).x
    X = np.tile(x0, (n_runs, 1))

    stubborn_idx = np.array(partition.stubborn, dtype=int)
    ctrl_idx = np.array(partition.controlled, dtype=int)
    free_idx = np.flatnonzero(partition.node_codes() != STUBBORN)
    table = graph.poll_cdf()
    h_vec = np.array([partition.h[i] for i in partition.stubborn])
    w_vals = partition.w_values(u) if len(ctrl_idx) else np.zeros(0)
    alpha_ctrl = partition.alpha[ctrl_idx] if len(ctrl_idx) else np.zeros(0)

    rows = np.arange(n_runs)
    for _ in range(n_steps):
        X_old = X
        X = X_old.copy()
        if activation.mode == "synchronous":
            active = np.ones((n_runs, n), dtype=bool)
        else:
            active = rng.random((n_runs, n)) < activation.q

        # one poll per run for every non-stubborn agent
        polled = table.draw(free_idx, rng.random((n_runs, len(free_idx))))
        copies = X_old[rows[:, None], polled]
        X[:, free_idx] = np.where(active[:, free_idx], copies, X_old[:, free_idx])

        if len(ctrl_idx):
            coins = rng.random((n_runs, len(ctrl_idx)))
            adopt = active[:, ctrl_idx] & (coins < alpha_ctrl)
            X[:, ctrl_idx] = np.where(adopt, w_vals, X[:, ctrl_idx])

        if len(stubborn_idx):
            X[:, stubborn_idx] = np.where(active[:, stubborn_idx], h_vec, X[:, stubborn_idx])

    mean = X.mean(axis=0)
    if n_runs > 1:
        se = X.std(axis=0, ddof=1) / np.sqrt(n_runs)
    else:
        se = np.zeros(n)
    return mean, se
