"""Shared test utilities: small instances and independent oracles."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from opinionshape.curves import SaturatingCurve
from opinionshape.network import AgentPartition, InteractionGraph, random_partition


def graph_from_P(P: np.ndarray, undirected: bool = False) -> InteractionGraph:
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    edges = tuple(
        (i, j, float(P[i, j])) for i in range(n) for j in range(n) if P[i, j] > 0
    )
    return InteractionGraph(
        node_count=n, edges=edges, P=P, names={i: i for i in range(n)}, undirected=undirected
    )


def chain_instance():
    """3-node chain: controlled 0 -> uncontrolled 1 -> stubborn 2 (self-loop)."""
    P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    graph = graph_from_P(P)
    alpha = np.array([0.5, 0.0, 0.0])
    partition = AgentPartition(
        controlled=(0,),
        uncontrolled=(1,),
        stubborn=(2,),
        alpha=alpha,
        h={2: 1.0},
        w={0: SaturatingCurve(0.1)},
    )
    return graph, partition


def all_stubborn_instance(n: int = 4, h_value: float = 0.5):
    """Ring graph with every agent stubborn at the same pinned value."""
    P = np.zeros((n, n))
    for i in range(n):
        P[i, (i + 1) % n] = 1.0
    graph = graph_from_P(P)
    partition = AgentPartition(
        controlled=(),
        uncontrolled=(),
        stubborn=tuple(range(n)),
        alpha=np.zeros(n),
        h={i: h_value for i in range(n)},
        w={},
    )
    return graph, partition


def single_agent_instance(alpha: float, curve):
    """One controlled agent with a self-loop."""
    graph = graph_from_P(np.array([[1.0]]))
    partition = AgentPartition(
        controlled=(0,),
        uncontrolled=(),
        stubborn=(),
        alpha=np.array([alpha]),
        h={},
        w={0: curve},
    )
    return graph, partition


def random_instance(seed: int, max_nodes: int = 40):
    """Random strongly connected weighted digraph with a random partition.

    A directed ring guarantees strong connectivity; extra random arcs mix
    fast, keeping the 500-step Monte-Carlo horizon unbiased in practice.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, max_nodes + 1))
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = rng.uniform(0.2, 1.0)
        for j in rng.integers(0, n, size=3):
            if j != i:
                adj[i, j] += rng.uniform(0.1, 1.0)
    P = adj / adj.sum(axis=1, keepdims=True)
    graph = graph_from_P(P)
    n_s0 = max(2, n // 8)
    n_s = max(1, n // 8)
    n_s1 = n - n_s - n_s0
    alpha = float(rng.uniform(0.4, 0.8))
    partition = random_partition(graph, (n_s, n_s1, n_s0), alpha, seed=seed)
    return graph, partition


def brute_force_projection(vs: np.ndarray, budget: float) -> np.ndarray:
    """Projection oracle by exhaustive active-set enumeration.

    For every support set the candidate is either the plain restriction of
    v (budget slack) or the restriction shifted onto the budget face.  The
    true projection appears among the feasible candidates, so the feasible
    candidate with the smallest distance is exact.  Vectorized across the
    input rows; exponential in dimension, fine for n <= 6.
    """
    vs = np.atleast_2d(np.asarray(vs, dtype=float))
    m, n = vs.shape
    best = np.zeros_like(vs)
    best_d = np.full(m, np.inf)

    def consider(x: np.ndarray, feasible: np.ndarray) -> None:
        nonlocal best, best_d
        d = ((x - vs) ** 2).sum(axis=1)
        d = np.where(feasible, d, np.inf)
        better = d < best_d
        best[better] = x[better]
        best_d[better] = d[better]

    supports = [c for r in range(n + 1) for c in combinations(range(n), r)]
    for support in supports:
        sel = np.zeros(n, dtype=bool)
        sel[list(support)] = True
        # budget slack: keep v on the support
        x = np.where(sel, vs, 0.0)
        feasible = np.all(x >= 0.0, axis=1) & (x.sum(axis=1) <= budget + 1e-15)
        consider(x, feasible)
        if support:
            # budget tight: shift the support onto the face
            theta = (vs[:, sel].sum(axis=1) - budget) / len(support)
            x = np.where(sel, vs - theta[:, None], 0.0)
            feasible = np.all(x >= -1e-15, axis=1)
            consider(np.maximum(x, 0.0), feasible)
    return best


class SolveCounter:
    """Wraps ``np.linalg.solve`` and counts the calls on an n x n system."""

    def __init__(self, monkeypatch, n: int):
        self.n = n
        self.calls = 0
        self._solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", self)

    def __call__(self, a, b):
        if np.shape(a) == (self.n, self.n):
            self.calls += 1
        return self._solve(a, b)
