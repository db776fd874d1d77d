"""Unbiased payoff-gradient estimates from absorbed random-walk samples.

Two samplers produce, per walk from a start node, a row of nonnegative
contributions over the controlled columns whose expectation equals the
start node's row of the sensitivity fixed point divided by w'.  Scheme 1
kills the walk at a controlled node with probability alpha and scores an
indicator; scheme 2 moves by the raw poll matrix, carries the running
survival weight explicitly, and scores weight * alpha at every visited
node, which averages out the kill coin (same mean, lower variance).
Column-summing over one walk per start node gives the gradient estimate
(up to the known w' factor) consumed by a projected stochastic ascent.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .dynamics import payoff_fn
from .errors import NonAbsorbingError
from .network import STUBBORN, AgentPartition, InteractionGraph
from .optim import Trajectory, project_budget_simplex, run_loop, slow_step

WALK_STEP_CAP = 10_000_000
# walks left live when the lockstep moves from numpy arrays to Python lists:
# below about this many a numpy step costs more than the hops it batches
NARROW_FRONT = 32


def _walk_batch(
    graph: InteractionGraph,
    partition: AgentPartition,
    starts: np.ndarray,
    scheme: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simulate one walk per start; returns contributions (len(starts), |S|).

    The walks move in lockstep.  A step draws the kill coins of the live
    walks (scheme 1), then the poll uniforms of the movers, each in walk-id
    order.  The loop carries only the live walks' ids, positions and
    weights, and drops a walk as soon as it is absorbed, killed or left
    with zero weight, none of which uses a uniform.  While more than
    ``NARROW_FRONT`` walks are live a step is a few numpy calls over the
    live arrays; the narrow rest runs the same steps in Python over the
    poll table's row lists, with ``rng.random`` calls of the same sizes.
    """
    if scheme not in (1, 2):
        raise ValueError(f"unknown sampling scheme {scheme}")
    n_walks = len(starts)
    n_ctrl = len(partition.controlled)
    contrib = np.zeros((n_walks, n_ctrl))
    if n_walks == 0:
        return contrib

    table = graph.poll_cdf()
    alpha = partition.alpha
    survive = 1.0 - alpha
    codes = partition.node_codes()
    cur = np.asarray(starts, dtype=int)
    if np.any(codes[cur] == STUBBORN):
        raise ValueError("walks must start outside the stubborn set")
    ids = np.arange(n_walks)

    if scheme == 2:
        weight = np.ones(n_walks)
        # arrival contribution at the start node itself, with weight 1
        owns = codes[cur] >= 0
        contrib[owns, codes[cur[owns]]] = alpha[cur[owns]]

    steps = 0
    while len(ids) > NARROW_FRONT:
        steps += 1
        if steps > WALK_STEP_CAP:
            raise NonAbsorbingError(
                f"walk from node {int(starts[ids[0]])} exceeded {WALK_STEP_CAP} steps"
            )
        if scheme == 1:
            killed = rng.random(len(ids)) < alpha[cur]
            if np.count_nonzero(killed):
                # a killed walk scores once and stops
                contrib[ids[killed], codes[cur[killed]]] = 1.0
                movers = ~killed
                ids, cur = ids[movers], cur[movers]
                if not len(ids):
                    break
        nxt = table.draw(cur, rng.random(len(ids)))
        code = codes[nxt]
        if scheme == 1:
            keep = code != STUBBORN
            ids, cur = ids[keep], nxt[keep]
        else:
            weight = weight * survive[cur]
            # zero-weight walks can contribute nothing further
            keep = (code != STUBBORN) & (weight != 0.0)
            ids, cur, weight, code = ids[keep], nxt[keep], weight[keep], code[keep]
            owns = code >= 0
            if np.count_nonzero(owns):
                contrib[ids[owns], code[owns]] += weight[owns] * alpha[cur[owns]]
    if not len(ids):
        return contrib

    # the narrow front: (id, node) per live walk, plus its weight in scheme
    # 2; the same products and comparisons on Python floats
    ptr, cum, cols = table.row_lists()
    alpha, survive, codes = alpha.tolist(), survive.tolist(), codes.tolist()
    if scheme == 1:
        walks = list(zip(ids.tolist(), cur.tolist()))
    else:
        walks = list(zip(ids.tolist(), cur.tolist(), weight.tolist()))
    while walks:
        steps += 1
        if steps > WALK_STEP_CAP:
            raise NonAbsorbingError(
                f"walk from node {int(starts[walks[0][0]])} exceeded {WALK_STEP_CAP} steps"
            )
        if scheme == 1:
            movers = []
            for walk, coin in zip(walks, rng.random(len(walks)).tolist()):
                i, node = walk
                if coin < alpha[node]:
                    contrib[i, codes[node]] = 1.0
                else:
                    movers.append(walk)
            if not movers:
                break
            moved = []
            for (i, node), r in zip(movers, rng.random(len(movers)).tolist()):
                nxt = cols[bisect_right(cum, r, ptr[node], ptr[node + 1])]
                if codes[nxt] != STUBBORN:
                    moved.append((i, nxt))
        else:
            moved = []
            for (i, node, w), r in zip(walks, rng.random(len(walks)).tolist()):
                nxt = cols[bisect_right(cum, r, ptr[node], ptr[node + 1])]
                code = codes[nxt]
                w *= survive[node]
                if code == STUBBORN or w == 0.0:
                    continue
                if code >= 0:
                    contrib[i, code] += w * alpha[nxt]
                moved.append((i, nxt, w))
        walks = moved

    return contrib


def sample_killed_walk(
    graph: InteractionGraph,
    partition: AgentPartition,
    start: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Scheme 1: absorb at stubborn nodes, stop at node y w.p. alpha_y scoring 1."""
    return _walk_batch(graph, partition, np.array([start]), 1, rng)[0]


def sample_weighted_walk(
    graph: InteractionGraph,
    partition: AgentPartition,
    start: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Scheme 2: move by the poll matrix, score weight * alpha at each visit."""
    return _walk_batch(graph, partition, np.array([start]), 2, rng)[0]


def sgd_step(
    u: np.ndarray,
    xi_colsums: np.ndarray,
    k: int,
    partition: AgentPartition,
    budget: float,
    step_A: float = 0.6,
    block: int = 100,
) -> np.ndarray:
    """One projected ascent step u <- proj(u + a(k) * w'(u) * colsums).

    The step sequence is a(k) = step_A / ceil(k / block), with a(0) = step_A:
    the slow schedule ``StepSchedule.b`` with B = step_A, denom = block.
    """
    step = slow_step(step_A, block, k)
    return project_budget_simplex(u + step * partition.w_derivs(u) * xi_colsums, budget)


def run_sgd(
    graph: InteractionGraph,
    partition: AgentPartition,
    budget: float,
    scheme: int,
    n_iters: int,
    seed,
    step_A: float = 0.6,
    block: int = 100,
    u0: np.ndarray | None = None,
    payoff_star: float | None = None,
    uniform_single_start: bool = False,
) -> Trajectory:
    """Stochastic gradient ascent fed by one walk per start node per iteration.

    With uniform_single_start a single random start is used instead, which
    scales the estimator by a constant and therefore only rescales the step.
    """
    rng = np.random.default_rng(seed)
    n_ctrl = len(partition.controlled)
    u = np.zeros(n_ctrl) if u0 is None else np.asarray(u0, dtype=float).copy()
    starts_all = np.flatnonzero(partition.node_codes() != STUBBORN)

    def tick(k, u):
        if not (len(starts_all) and n_ctrl):
            return u
        if uniform_single_start:
            starts = starts_all[rng.integers(len(starts_all), size=1)]
        else:
            starts = starts_all
        contrib = _walk_batch(graph, partition, starts, scheme, rng)
        return sgd_step(u, contrib.sum(axis=0), k, partition, budget, step_A, block)

    return run_loop(f"sgd{scheme}", u, n_iters, tick, payoff_fn(graph, partition), payoff_star)
