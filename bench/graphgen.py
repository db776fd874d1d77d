"""Seeded synthetic interaction graphs for the benchmark workloads.

Each node gets ``arcs_per_node`` out-arcs: the first goes to its ring
successor, so the graph is strongly connected and every node has out-weight
(the stationary system is solvable for any nonempty stubborn set); the rest
go to distinct random nodes other than itself and its successor.  The file
is a plain ``src dst`` edge list with 0-based labels, which
``opinionshape.load_edge_list`` reads as undirected (symmetrized).  The same
arguments always produce the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def ring_plus_random_arcs(n: int, arcs_per_node: int, seed: int) -> list[tuple[int, int]]:
    if n < 3:
        raise ValueError("need at least 3 nodes")
    if not 1 <= arcs_per_node <= n - 1:
        raise ValueError("arcs_per_node must lie in [1, n - 1]")
    rng = np.random.default_rng([0x6A17, int(seed)])
    arcs = []
    for i in range(n):
        succ = (i + 1) % n
        arcs.append((i, succ))
        others = np.delete(np.arange(n), sorted({i, succ}))
        picks = rng.choice(len(others), size=arcs_per_node - 1, replace=False)
        arcs.extend((i, int(others[p])) for p in sorted(picks))
    return arcs


def write_edge_list(path: Path, n: int, arcs_per_node: int, seed: int) -> Path:
    lines = [f"# ring plus random arcs: n={n} arcs_per_node={arcs_per_node} seed={seed}"]
    lines += [f"{s} {d}" for s, d in ring_plus_random_arcs(n, arcs_per_node, seed)]
    path.write_text("\n".join(lines) + "\n")
    return path
