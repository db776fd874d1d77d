"""Learning from a restricted observed set via token relays.

Only an observed subset of agents (always including the controlled and
stubborn ones) is visible to the planner.  A poll that lands on a hidden
agent hands over a tagged token; hidden agents forward it along their own
polls until it reaches an observed agent, so the planner effectively
samples the first-hit law q* of the chain watched only on the observed
set.  Stubborn agents never poll, hence they terminate tokens whether or
not they are nominally hidden.

The learner keeps one scalar per observed agent, in a vector over all
nodes that stays 0 elsewhere, relaxed toward its one-step target on probe
events and pinned at zero on stubborn agents.  Hidden agents are
uncontrolled relays, so eliminating them keeps each observed agent's row
sum of the full sensitivity table: at an observed learner i the scalar's
fixed point equals sum_j ``exact_grad_table(u)[i, j]``, whatever the
observed set.  The scheme's limit therefore does not depend on which
agents are hidden.  The exact probe law and that fixed point, solved
directly, are test oracles: ``reference_hit_law_oracle`` and
``reference_restricted_grad_oracle`` in ``tests/helpers.py``.
Controls ascend their own agent's scalar on the slow scale: a row sum,
where the payoff gradient is a column sum, so the logged gap need not
reach zero.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from .dynamics import payoff_fn
from .errors import NonAbsorbingError
from .network import AgentPartition, InteractionGraph
from .optim import StepSchedule, Trajectory, project_budget_simplex, run_loop
from .sas import _tick_fast_updates, owned_cells

HOP_CAP = 10_000_000
# uniforms per block of a run's relay source.  A run draws up to a block
# of uniforms it never reads, which short runs pay for (a 4096 block cost
# 0.1-0.2 ms per run); a 256 block costs about 38 ns per uniform against
# about 0.5 us for a scalar ``Generator.random()`` call.
BLOCK = 256


class Token(NamedTuple):
    """Relay record: origin agent, terminal observed agent, hop count, stamp."""

    origin: int
    terminal: int
    hops: int
    stamp: int = 0


# builds a Token without the NamedTuple's Python-level ``__new__``
_make_token = partial(tuple.__new__, Token)


class BlockUniforms:
    """Scalar uniform source that draws from ``rng`` in blocks of ``BLOCK``.

    ``random()`` returns the next double of ``rng.random(BLOCK)`` blocks.
    A PCG64 generator (``np.random.default_rng``'s) yields the same doubles
    from ``random(m)`` as from m scalar ``random()`` calls, so the stream
    is the generator's own; only the unused tail of the last block is drawn
    and never read.  Use it only on a generator that nothing else draws
    from.
    """

    def __init__(self, rng: np.random.Generator):
        blocks = iter(lambda: rng.random(BLOCK).tolist(), None)
        self.random = partial(next, chain.from_iterable(blocks))


def observed_set(partition: AgentPartition, hidden: set[int]) -> tuple[int, ...]:
    """Observed agents: everything outside ``hidden``, plus S and S0 always."""
    nodes = set(range(partition.node_count))
    keep = (nodes - set(hidden)) | set(partition.controlled) | set(partition.stubborn)
    return tuple(sorted(keep))


def sample_hidden(partition: AgentPartition, fraction: float, seed) -> set[int]:
    """Hide a fraction of the non-controlled agents, uniformly at random.

    Hidden stubborn agents still terminate tokens (they never poll), so
    hiding them only affects bookkeeping, not the probe law.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("hidden fraction must lie in [0, 1]")
    pool = sorted(set(partition.uncontrolled) | set(partition.stubborn))
    rng = np.random.default_rng(seed)
    n_hidden = int(round(fraction * len(pool)))
    chosen = rng.choice(len(pool), size=n_hidden, replace=False) if n_hidden else []
    return {pool[i] for i in chosen}


def relay_token(
    graph: InteractionGraph,
    partition: AgentPartition,
    observed: tuple[int, ...] | frozenset[int],
    node: int,
    rng: np.random.Generator,
    stamp: int = 0,
) -> Token:
    """Poll once from ``node`` and relay through hidden agents until observed.

    Terminal states are the observed set united with the stubborn set.
    Pass ``observed`` as a set when relaying many tokens: membership is
    tested on every hop.  Each hop is the poll table's scalar draw, with
    one uniform, on lists bound once per token.

    ``rng`` is anything whose ``random()`` returns one uniform double: a
    ``np.random.Generator``, a ``BlockUniforms`` over one, or a test stub.
    Only ``random()`` without arguments is called, once per hop.
    """
    ptr, cum, cols = graph.poll_cdf().row_lists()
    stubborn = partition.stubborn_set()
    draw = rng.random
    start = cur = int(node)
    hops = 0
    while True:
        cur = cols[bisect_right(cum, draw(), ptr[cur], ptr[cur + 1])]
        hops += 1
        if cur in observed or cur in stubborn:
            return _make_token((start, cur, hops, stamp))
        if hops > HOP_CAP:
            raise NonAbsorbingError(f"token from node {node} exceeded {HOP_CAP} hops")


def probe(
    graph: InteractionGraph,
    partition: AgentPartition,
    observed: tuple[int, ...] | set[int],
    node: int,
    rng: np.random.Generator,
) -> int:
    """Sample the next observed agent seen from ``node`` (the law q*)."""
    return relay_token(graph, partition, observed, node, rng).terminal


def partial_fast_update(
    grad_vec: np.ndarray,
    node: int,
    probed: int,
    partition: AgentPartition,
    u: np.ndarray,
    clocks: np.ndarray,
    schedule: StepSchedule,
) -> np.ndarray:
    """Relax one scalar toward its probe-event target; stubborn entries stay 0.

    ``grad_vec`` holds one scalar per node.  The one-row case of
    ``sas._tick_fast_updates`` on that vector, with damp 1 - alpha_i and the
    driver alpha_i w_i'(u_i) on a controlled node; returns a new array.
    """
    if node in partition.stubborn:
        return grad_vec
    new = grad_vec.copy()
    rows = np.array([node])
    own_rows, own_cols, _ = owned_cells(partition.node_codes(), rows, len(partition.controlled))
    driver = partition.alpha[rows[own_rows]] * partition.w_derivs(u)[own_cols]
    _tick_fast_updates(
        new, rows, np.array([probed]), 1.0 - partition.alpha[rows], own_rows, driver,
        schedule.a(clocks[node]),
    )
    clocks[node] += 1
    return new


def partial_slow_update(
    u: np.ndarray,
    grad_vec: np.ndarray,
    partition: AgentPartition,
    k: int,
    schedule: StepSchedule,
    budget: float,
) -> np.ndarray:
    """Projected ascent of each control along its own scalar estimate."""
    return project_budget_simplex(u + schedule.b(k) * grad_vec.take(partition.controlled), budget)


def run_partial(
    graph: InteractionGraph,
    partition: AgentPartition,
    budget: float,
    schedule: StepSchedule,
    n_iters: int,
    seed,
    observed_fraction: float = 0.5,
    hidden: set[int] | None = None,
    u0: np.ndarray | None = None,
    payoff_star: float | None = None,
) -> Trajectory:
    """Full restricted-observation loop: probe, fast updates, slow step.

    ``hidden`` overrides the random hidden draw; otherwise a fraction
    (1 - observed_fraction) of the non-controlled agents is hidden using the
    run seed.  The logged payoff and gap are for the full objective.
    """
    # the run's generator feeds only the relays, so they may draw in blocks
    uniforms = BlockUniforms(np.random.default_rng(seed))
    if hidden is None:
        hidden = sample_hidden(partition, 1.0 - observed_fraction, seed)
    observed = observed_set(partition, hidden)
    observed_lookup = frozenset(observed)
    stubborn = partition.stubborn_set()
    learners = [node for node in observed if node not in stubborn]
    rows = np.array(learners, dtype=np.intp)
    survive = 1.0 - partition.alpha[rows]
    n_ctrl = len(partition.controlled)
    own_rows, own_cols, _ = owned_cells(partition.node_codes(), rows, n_ctrl)
    own_alpha = partition.alpha[rows[own_rows]]
    u = np.zeros(n_ctrl) if u0 is None else np.asarray(u0, dtype=float).copy()
    grad_vec = np.zeros(partition.node_count)
    # every learner updates once per tick, so every local clock reads k
    tick_steps = schedule.a(np.arange(n_iters))

    hop_totals = 0

    def tick(k, u):
        nonlocal hop_totals
        probed = []
        for node in learners:
            token = relay_token(graph, partition, observed_lookup, node, uniforms, k)
            probed.append(token.terminal)
            hop_totals += token.hops
        driver = own_alpha * partition.w_derivs(u)[own_cols]
        polled = np.array(probed, dtype=np.intp)
        _tick_fast_updates(grad_vec, rows, polled, survive, own_rows, driver, tick_steps[k])
        return partial_slow_update(u, grad_vec, partition, k, schedule, budget)

    traj = run_loop("partial", u, n_iters, tick, payoff_fn(graph, partition), payoff_star)
    traj.extras = {
        "grad_vec": grad_vec.copy(),
        "observed": observed,
        "hidden": set(hidden),
        "mean_hops": hop_totals / max(1, n_iters * max(1, len(learners))),
    }
    return traj
