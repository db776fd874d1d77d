"""Shared test utilities: small instances and independent oracles."""

from __future__ import annotations

import csv
import decimal
import math
from decimal import Decimal
from itertools import combinations, count
from pathlib import Path

import numpy as np

from opinionshape.curves import ConstantCurve, LinearCurve, SaturatingCurve
from opinionshape.dynamics import OpinionState, PollEvent, payoff_coefficients, payoff_fn, sample_poll_targets
from opinionshape.errors import DivergenceError, EdgeListParseError, NonAbsorbingError
from opinionshape.general import GeneralModel, _driver, _fixed_point
from opinionshape.network import STUBBORN, AgentPartition, InteractionGraph, PollTable, random_partition, row_normalize
from opinionshape.optim import StepSchedule, Trajectory, project_budget_simplex
from opinionshape.partial_obs import HOP_CAP, Token
from opinionshape.sas import _table_bound
from opinionshape.sgd import WALK_STEP_CAP


def graph_from_P(P: np.ndarray, undirected: bool = False) -> InteractionGraph:
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    edges = tuple(
        (i, j, float(P[i, j])) for i in range(n) for j in range(n) if P[i, j] > 0
    )
    return dense_graph(P, edges, {i: i for i in range(n)}, undirected)


def dense_graph(P: np.ndarray, edges, names, undirected: bool) -> InteractionGraph:
    """The graph whose poll matrix is the dense square ``P``: its nonzero
    entries, in row-major order, become the sparse rows.  ``edges`` are
    ``(i, j, w)`` tuples: they become the arcs, and the graph's ``edges``
    reads them as given, not rebuilt from the arrays."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    rows, cols = np.nonzero(P)
    ptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    arcs = tuple(np.array([e[k] for e in edges], dtype=t) for k, t in enumerate((np.intp, np.intp, float)))
    graph = InteractionGraph(
        node_count=n, arcs=arcs, ptr=ptr, cols=cols, vals=P[rows, cols], names=names, undirected=undirected
    )
    object.__setattr__(graph, "_edges", tuple(edges))
    return graph


def reference_poll_table(P: np.ndarray) -> PollTable:
    """``PollTable`` of the dense ``P``, the oracle for
    ``PollTable.from_rows``: the nonzeros of P in row-major order and their
    cumsum along the padded dense rows."""
    rows, cols = np.divmod(np.flatnonzero(P != 0.0), P.shape[1])
    counts = np.bincount(rows, minlength=P.shape[0])
    ends = np.cumsum(counts)
    slot = np.arange(len(rows)) - (ends - counts)[rows]
    padded = np.zeros((P.shape[0], int(counts.max(initial=0))))
    padded[rows, slot] = P[rows, cols]
    cum = np.cumsum(padded, axis=1)[rows, slot]
    del padded
    cum[ends - 1] = 1.0
    return PollTable(indices=cols, keys=rows + 1j * cum, shape=P.shape, ptr=np.concatenate([[0], ends]))


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


def reference_stranded_nodes(P: np.ndarray, deficient: np.ndarray) -> np.ndarray:
    """``network.stranded_nodes`` by the transitive closure of P's support,
    squared until it stops growing: the nodes that reach no deficient row."""
    reach = (np.asarray(P) > 0) | np.eye(len(P), dtype=bool)
    while True:
        wider = (reach.astype(int) @ reach.astype(int)) > 0
        if (wider == reach).all():
            return np.flatnonzero(~(reach & deficient).any(axis=1))
        reach = wider


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


def ring_chords_instance(n: int, n_controlled: int, n_stubborn: int, seed: int):
    """Weighted undirected ring plus one random chord per node, built in memory."""
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        adj[i, j] = adj[j, i] = rng.uniform(0.5, 1.5)
        k = int(rng.integers(0, n))
        if k != i:
            w = rng.uniform(0.1, 1.0)
            adj[i, k] += w
            adj[k, i] += w
    graph = graph_from_P(adj / adj.sum(axis=1, keepdims=True), undirected=True)
    sizes = (n_controlled, n - n_controlled - n_stubborn, n_stubborn)
    return graph, random_partition(graph, sizes, 0.6, seed=seed)


def reference_bisection(g: float, curve, lam: float, budget: float) -> float:
    """Largest u in [0, budget] with g * w'(u) >= lam, by bisection from
    [0, budget] with at most 100 steps: ``exact_optimum``'s inner search."""
    if g * curve.deriv(0.0) <= lam:
        return 0.0
    if g * curve.deriv(budget) >= lam:
        return budget
    # invariant: the test below holds at lo and fails at hi, so once mid
    # rounds onto lo or hi every further step rewrites the same value and
    # stopping leaves (lo, hi) exactly as 100 steps would
    lo, hi = 0.0, budget
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if g * curve.deriv(mid) >= lam:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_exact_optimum(
    graph: InteractionGraph,
    partition: AgentPartition,
    budget: float,
    tol: float = 1e-12,
    halvings: int | None = None,
) -> tuple[np.ndarray, float]:
    """Water-filling optimum by plain double bisection, the oracle for
    ``optim.exact_optimum``: every probe of lam re-bisects every control
    from [0, budget].  The outer bisection stops at a relative width of
    ``tol`` or once its midpoint rounds onto an end; ``halvings`` caps it
    too, as ``exact_optimum`` once capped it at 200."""
    idx = list(partition.controlled)
    payoff = payoff_fn(graph, partition)
    if not idx:
        return np.zeros(0), payoff(np.zeros(0))
    coef = payoff_coefficients(graph, partition)
    gains = coef[idx] * partition.alpha[idx]
    curves = [partition.w[i] for i in idx]

    def control_at(lam: float) -> np.ndarray:
        return np.array([reference_bisection(g, curve, lam, budget) for g, curve in zip(gains, curves)])

    lam_hi = max(g * c.deriv(0.0) for g, c in zip(gains, curves))
    if lam_hi <= 0.0:
        u_star = np.zeros(len(idx))
        return u_star, payoff(u_star)
    u_star = control_at(0.0)
    with np.errstate(over="ignore"):
        if u_star.sum() <= budget:
            return u_star, payoff(u_star)
    lam_lo = 0.0
    for _ in count() if halvings is None else range(halvings):
        if lam_hi - lam_lo < tol * lam_hi:
            break
        lam = 0.5 * (lam_lo + lam_hi)
        if lam == lam_lo or lam == lam_hi:
            break
        with np.errstate(over="ignore"):
            total = control_at(lam).sum()
        if total > budget:
            lam_lo = lam
        else:
            lam_hi = lam
    u_star = control_at(lam_hi)
    # land exactly on the face when the budget binds
    with np.errstate(over="ignore"):
        s = u_star.sum()
    if s > 0:
        u_star = u_star * (budget / s) if abs(s - budget) < 1e-6 else u_star
    return u_star, payoff(u_star)


def reference_saturating_optimum(
    graph: InteractionGraph, partition: AgentPartition, budget: float
) -> tuple[np.ndarray, float]:
    """The KKT point of the payoff over the budget simplex when every
    control's curve is a ``SaturatingCurve``, in 800-digit decimal
    arithmetic and rounded once to floats, the oracle for
    ``curves.saturating_optimum``.

    Unlike the closed form's prefix scan, the active set comes from
    elimination (Michelot's projection algorithm): start from every control
    with a positive gain, fix lam from the budget, drop each control whose
    marginal at zero g / s is at most lam, and repeat until none drops.
    """
    idx = list(partition.controlled)
    payoff = payoff_fn(graph, partition)
    coef = payoff_coefficients(graph, partition)
    u = np.zeros(len(idx))
    with decimal.localcontext() as ctx:
        ctx.prec = 800
        gains = [Decimal(float(g)) for g in coef[idx] * partition.alpha[idx]]
        scales = [Decimal(partition.w[i].scale) for i in idx]
        roots = [(g * s).sqrt() if g > 0 else Decimal(0) for g, s in zip(gains, scales)]
        M = Decimal(budget)
        active = [pos for pos, g in enumerate(gains) if g > 0]
        while active:
            # sqrt(lam) = T / (M + S) over the active set
            root_lam = sum(roots[pos] for pos in active) / (M + sum(scales[pos] for pos in active))
            kept = [pos for pos in active if gains[pos] / scales[pos] > root_lam * root_lam]
            if kept == active:
                break
            active = kept
        for pos in active:
            u[pos] = float(roots[pos] / root_lam - scales[pos])
    return u, payoff(u)


def assert_near_saturating_optimum(graph, partition, budget: float, u_star: np.ndarray, payoff_star: float) -> None:
    """u* and payoff* from ``exact_optimum`` on an instance whose curves are
    all ``SaturatingCurve``: each entry within 1e-15 * (budget + sum of the
    scales) of ``reference_saturating_optimum``, the budget spent to 1e-15
    of it, and payoff* no more than 1e-15 below the bisection oracle's.
    Below the normal range the sum may also miss by the subnormal spacing,
    2^-1074, per entry."""
    u_ref, _ = reference_saturating_optimum(graph, partition, budget)
    reach = 1e-15 * (budget + math.fsum(partition.w[i].scale for i in partition.controlled))
    assert np.all(np.abs(u_star - u_ref) <= reach), (u_star, u_ref)
    if u_ref.any():
        assert abs(math.fsum(u_star) - budget) <= 1e-15 * budget + len(u_star) * 2.0**-1074
    _, payoff_bisected = reference_exact_optimum(graph, partition, budget)
    assert payoff_star >= payoff_bisected * (1.0 - 1e-15)


def reference_payoff(graph: InteractionGraph, partition: AgentPartition, u: np.ndarray):
    """``dynamics.payoff_fn`` as it was before the stacked product: one
    ``c_ctrl @ row`` per row."""
    coef = payoff_coefficients(graph, partition)
    base = sum(coef[i] * partition.h[i] for i in partition.stubborn)
    idx = list(partition.controlled)
    c_ctrl = coef[idx] * partition.alpha[idx]
    rows = base + np.array([c_ctrl @ row for row in partition.w_values(np.atleast_2d(u))])
    return rows if np.ndim(u) == 2 else float(rows[0])


def reference_load_edge_list(path, weighted: bool | None = None, directed: bool = False) -> InteractionGraph:
    """``network.load_edge_list`` as it was before the one ``np.add.at``
    scatter: one Python ``+=`` per arc and per reverse arc, in file order."""
    raw: list[tuple[int, int, float]] = []
    with Path(path).open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if weighted is None:
                weighted = len(parts) == 3
            expected = 3 if weighted else 2
            if len(parts) != expected:
                raise EdgeListParseError(line_no, f"expected {expected} columns, got {len(parts)}")
            try:
                src, dst = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListParseError(line_no, f"node ids must be integers: {text!r}") from None
            if weighted:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise EdgeListParseError(line_no, f"bad weight: {parts[2]!r}") from None
                if w < 0.0 or not np.isfinite(w):
                    raise EdgeListParseError(line_no, f"weight must be finite and nonnegative: {w}")
            else:
                w = 1.0
            raw.append((src, dst, w))
    if not raw:
        raise EdgeListParseError(0, "edge list is empty")
    labels = sorted({n for s, d, _ in raw for n in (s, d)})
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    adjacency = np.zeros((n, n))
    edges = []
    for s, d, w in raw:
        i, j = index[s], index[d]
        adjacency[i, j] += w
        if not directed and i != j:
            adjacency[j, i] += w
        edges.append((i, j, w))
    return dense_graph(row_normalize(adjacency), tuple(edges), {i: label for label, i in index.items()}, not directed)


def reference_poll_draw(table: PollTable, rows, r: np.ndarray) -> np.ndarray:
    """``PollTable.draw`` for an array ``r`` as it was before the guide
    table: one complex-key binary search over every table entry."""
    # filling the parts skips the temporaries of rows + 1j * r
    query = np.empty(np.shape(r), dtype=complex)
    query.real = rows
    query.imag = r
    return table.indices[np.searchsorted(table.keys, query, side="right")]


def reference_walk_batch(
    graph: InteractionGraph,
    partition: AgentPartition,
    starts: np.ndarray,
    scheme: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """``sgd._walk_batch`` on full-length ``alive`` masks, the oracle for the
    live-walk kernel: one walk per start, contributions (len(starts), |S|)."""
    if scheme not in (1, 2):
        raise ValueError(f"unknown sampling scheme {scheme}")
    n_walks = len(starts)
    n_ctrl = len(partition.controlled)
    contrib = np.zeros((n_walks, n_ctrl))
    if n_walks == 0:
        return contrib

    table = graph.poll_cdf()
    alpha = partition.alpha
    stubborn = np.zeros(graph.node_count, dtype=bool)
    stubborn[list(partition.stubborn)] = True
    pos_of = np.full(graph.node_count, -1, dtype=int)
    for node, pos in partition.control_index().items():
        pos_of[node] = pos
    if np.any(stubborn[starts]):
        raise ValueError("walks must start outside the stubborn set")

    pos = starts.astype(int).copy()
    rows = np.arange(n_walks)
    alive = np.ones(n_walks, dtype=bool)
    weight = np.ones(n_walks)

    if scheme == 2:
        # arrival contribution at the start node itself
        owns = pos_of[pos] >= 0
        contrib[rows[owns], pos_of[pos[owns]]] += weight[owns] * alpha[pos[owns]]

    steps = 0
    while alive.any():
        steps += 1
        if steps > WALK_STEP_CAP:
            stuck = int(starts[np.flatnonzero(alive)[0]])
            raise NonAbsorbingError(
                f"walk from node {stuck} exceeded {WALK_STEP_CAP} steps"
            )
        idx = np.flatnonzero(alive)
        cur = pos[idx]

        if scheme == 1:
            coin = rng.random(len(idx))
            killed = coin < alpha[cur]
            hit = idx[killed]
            cp = pos_of[pos[hit]]
            contrib[hit, cp] += 1.0
            alive[hit] = False
            movers = idx[~killed]
        else:
            movers = idx

        if len(movers) == 0:
            continue
        nxt = table.draw(pos[movers], rng.random(len(movers)))

        if scheme == 2:
            prev = pos[movers]
            arrived_s0 = stubborn[nxt]
            alive[movers[arrived_s0]] = False
            go = ~arrived_s0
            mv = movers[go]
            weight[mv] *= 1.0 - alpha[prev[go]]
            dead_weight = weight[mv] == 0.0
            tgt = nxt[go]
            owns = pos_of[tgt] >= 0
            contrib[mv[owns], pos_of[tgt[owns]]] += weight[mv[owns]] * alpha[tgt[owns]]
            pos[mv] = tgt
            # zero-weight walks can contribute nothing further
            alive[mv[dead_weight]] = False
        else:
            pos[movers] = nxt
            # absorbed on arrival, as in the kernel: the step count is the same
            alive[movers[stubborn[nxt]]] = False

    return contrib


def reference_relay_token(
    graph: InteractionGraph,
    partition: AgentPartition,
    observed: tuple[int, ...] | frozenset[int],
    node: int,
    rng: np.random.Generator,
    stamp: int = 0,
) -> Token:
    """``partial_obs.relay_token`` with one complex-key ``searchsorted`` per
    hop, the oracle for the list-backed relay: poll once from ``node`` and
    relay through hidden agents until observed.

    Terminal states are the observed set united with the stubborn set.
    """
    table = graph.poll_cdf()
    cur = int(node)
    hops = 0
    while True:
        query = complex(cur, rng.random())
        cur = int(table.indices[np.searchsorted(table.keys, query, side="right")])
        hops += 1
        if cur in observed or cur in partition.stubborn:
            return Token(origin=int(node), terminal=cur, hops=hops, stamp=stamp)
        if hops > HOP_CAP:
            raise NonAbsorbingError(f"token from node {node} exceeded {HOP_CAP} hops")


def reference_gossip_step(state, u, graph, partition, activation, rng):
    """``dynamics.gossip_step`` with one Python step per stubborn agent and
    per poller, the oracle for its array updates; same draws, same order."""
    x_old = state.x
    x_new = x_old.copy()
    n = graph.node_count
    if activation.mode == "synchronous":
        active = np.ones(n, dtype=bool)
    else:
        active = rng.random(n) < activation.q
    free = np.flatnonzero(partition.node_codes() != STUBBORN)
    polled = sample_poll_targets(graph.poll_cdf(), free, rng)
    coins = rng.random(len(partition.controlled))
    for i in partition.stubborn:
        if active[i]:
            x_new[i] = partition.h[i]
    ctrl_index = partition.control_index()
    w_vals = partition.w_values(u)
    events = []
    for poller, target in zip(free, polled):
        if not active[poller]:
            continue
        pos = ctrl_index.get(int(poller))
        if pos is not None and coins[pos] < partition.alpha[poller]:
            x_new[poller] = w_vals[pos]
        else:
            x_new[poller] = x_old[target]
        events.append(PollEvent(int(poller), int(target)))
    return OpinionState(x=x_new, k=state.k + 1), events


def reference_hit_law_oracle(graph: InteractionGraph, partition: AgentPartition, observed):
    """Exact probe law per observed non-stubborn agent, the oracle for
    ``partial_obs.relay_token``'s terminals.

    Row i gives q*(. | i) over the terminal states (the observed set united
    with the stubborn set), computed by eliminating the hidden relays with
    an absorption solve on the hidden subgraph, then one row product per
    terminal state.
    """
    terminal = sorted(set(observed) | set(partition.stubborn))
    hidden = sorted(set(range(graph.node_count)) - set(terminal))
    P = graph.P
    if hidden:
        reach = np.linalg.solve(np.eye(len(hidden)) - P[np.ix_(hidden, hidden)], P[np.ix_(hidden, terminal)])
    law = np.zeros((graph.node_count, len(terminal)))
    for node in terminal:
        row = P[node, terminal].copy()
        if hidden:
            row = row + P[node, hidden] @ reach
        law[node] = row
    return law, terminal


def reference_restricted_grad_oracle(graph: InteractionGraph, partition: AgentPartition, observed, u: np.ndarray):
    """Fixed point of ``partial``'s restricted scalar recursion: the
    stationary fixed point on the observed non-stubborn agents, with q* for
    P and the driver alpha w'(u) for the reward, its system filled entry by
    entry.  Stubborn entries are 0."""
    law, terminal = reference_hit_law_oracle(graph, partition, observed)
    stubborn = set(partition.stubborn)
    free = [node for node in terminal if node not in stubborn]
    t_index = {node: i for i, node in enumerate(terminal)}
    ctrl_pos = partition.control_index()
    m = len(free)
    mat = np.eye(m)
    rhs = np.zeros(m)
    for r, node in enumerate(free):
        a = partition.alpha[node]
        pos = ctrl_pos.get(node)
        if pos is not None:
            rhs[r] = a * partition.w[node].deriv(float(u[pos]))
        for c, other in enumerate(free):
            mat[r, c] -= (1.0 - a) * law[node, t_index[other]]
    sol = np.linalg.solve(mat, rhs)
    out = {node: float(v) for node, v in zip(free, sol)}
    for node in terminal:
        if node in stubborn:
            out[node] = 0.0
    return out


def reference_w_values(partition: AgentPartition, u: np.ndarray) -> np.ndarray:
    """The scalar ``AgentPartition.w_values``: one ``value`` call per control."""
    return np.array([partition.w[n].value(float(u[p])) for p, n in enumerate(partition.controlled)])


def reference_w_derivs(partition: AgentPartition, u: np.ndarray) -> np.ndarray:
    """The scalar ``AgentPartition.w_derivs``: one ``deriv`` call per control."""
    return np.array([partition.w[n].deriv(float(u[p])) for p, n in enumerate(partition.controlled)])


def reference_tables(model: GeneralModel, partition: AgentPartition, u: np.ndarray):
    """The scalar ``GeneralModel.tables``: four curve calls per control."""
    a, ad, w, wd = (np.zeros(len(partition.controlled)) for _ in range(4))
    for pos, node in enumerate(partition.controlled):
        x = float(u[pos])
        a[pos] = model.alpha_curves[node].value(x)
        ad[pos] = model.alpha_curves[node].deriv(x)
        w[pos] = model.w_curves[node].value(x)
        wd[pos] = model.w_curves[node].deriv(x)
    return a, ad, w, wd


def reference_tick_fast_updates(
    grad_table: np.ndarray,
    pollers: np.ndarray,
    polled: np.ndarray,
    alpha: np.ndarray,
    diag_driver: np.ndarray,
    ctrl_pos: np.ndarray,
    steps: np.ndarray,
) -> None:
    """``sas._tick_fast_updates`` with its temporaries, the oracle for the
    in-place kernel: vectorized fast updates for one tick, reading pre-tick
    table values.

    diag_driver[p] = alpha_i * w_i'(u_i) for the poller owning control p;
    ctrl_pos maps poller order to the control column (or -1).
    """
    target = (1.0 - alpha[pollers])[:, None] * grad_table[polled]
    owns = ctrl_pos >= 0
    target[owns, ctrl_pos[owns]] += diag_driver[owns]
    grad_table[pollers] += steps[:, None] * (target - grad_table[pollers])


def reference_run_sas(
    graph: InteractionGraph,
    partition: AgentPartition,
    budget: float,
    schedule: StepSchedule,
    n_iters: int,
    seed,
    u0: np.ndarray | None = None,
    freeze_u: bool = False,
    q: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``sas.run_sas`` on ``reference_tick_fast_updates``, the oracle for its
    whole-table tick: each tick gathers the rows of the agents that poll,
    draws their polls with one ``sample_poll_targets`` call, relaxes those
    rows alone, takes the slow step and checks the largest absolute entry
    of the relaxed rows against the bound.  Every non-stubborn agent polls
    on every tick, or with q given (asynchronous activation) agent i wakes
    with probability q[i] and steps a(nu_i) on its own clock.  Returns the
    controls per tick, their payoffs, the table and the local clocks."""
    rng = np.random.default_rng(seed)
    n, n_ctrl = graph.node_count, len(partition.controlled)
    u = np.zeros(n_ctrl) if u0 is None else np.asarray(u0, dtype=float).copy()
    table = np.zeros((n, n_ctrl))
    codes = partition.node_codes()
    free = codes != STUBBORN
    clocks = np.zeros(n, dtype=np.int64)
    bound = _table_bound(partition)
    us = [u.copy()]
    for k in range(n_iters):
        pollers = np.flatnonzero(free if q is None else (rng.random(n) < q) & free)
        polled = sample_poll_targets(graph.poll_cdf(), pollers, rng)
        ctrl_pos = codes[pollers]
        owns = ctrl_pos >= 0
        diag = np.zeros(len(pollers))
        diag[owns] = partition.alpha[pollers[owns]] * partition.w_derivs(u)[ctrl_pos[owns]]
        reference_tick_fast_updates(
            table, pollers, polled, partition.alpha, diag, ctrl_pos, schedule.a(clocks[pollers])
        )
        clocks[pollers] += 1
        if not freeze_u and n_ctrl:
            u = project_budget_simplex(u + schedule.b(k) * table.sum(axis=0), budget)
        if not np.max(np.abs(table[pollers]), initial=0.0) <= bound:
            raise DivergenceError(f"sensitivity table left its sanity bound {bound:.3g} at tick {k + 1}")
        us.append(u.copy())
    us = np.array(us)
    return us, payoff_fn(graph, partition)(us), table, clocks


def reference_value_update(
    values: np.ndarray,
    node: int,
    probed: int,
    partition: AgentPartition,
    model: GeneralModel,
    u: np.ndarray,
    clocks: np.ndarray,
    schedule: StepSchedule,
) -> np.ndarray:
    """``general.value_update`` as a per-event function, the oracle for its
    one-row call of the tick's value relaxation: relax one node's value
    toward its sampled one-step target."""
    if node in partition.stubborn:
        return values
    new = values.copy()
    pos = partition.control_index().get(node)
    if pos is not None:
        a = model.alpha_curves[node].value(float(u[pos]))
        w = model.w_curves[node].value(float(u[pos]))
    else:
        a, w = 0.0, 0.0
    step = schedule.a(clocks[node])
    new[node] = values[node] + step * (a * w + (1.0 - a) * values[probed] - values[node])
    clocks[node] += 1
    return new


def reference_general_grad_update(
    grad_table: np.ndarray,
    values: np.ndarray,
    node: int,
    probed: int,
    partition: AgentPartition,
    model: GeneralModel,
    u: np.ndarray,
    clocks: np.ndarray,
    schedule: StepSchedule,
) -> np.ndarray:
    """``general.general_grad_update`` as a per-event function, the oracle for
    its one-row call of ``sas._tick_fast_updates``: the sensitivity update
    carrying the influence-curve derivative terms.

    With a flat influence curve (zero derivative) this is exactly the
    two-time-scale fast update.
    """
    if node in partition.stubborn:
        return grad_table
    new = grad_table.copy()
    pos = partition.control_index().get(node)
    if pos is not None:
        x = float(u[pos])
        a = model.alpha_curves[node].value(x)
        ad = model.alpha_curves[node].deriv(x)
        w = model.w_curves[node].value(x)
        wd = model.w_curves[node].deriv(x)
    else:
        a, ad, w, wd = 0.0, 0.0, 0.0, 0.0
    step = schedule.a(clocks[node])
    target = (1.0 - a) * grad_table[probed]
    if pos is not None:
        target = target.copy()
        target[pos] += a * wd + ad * w - ad * values[probed]
    new[node] = grad_table[node] + step * (target - grad_table[node])
    clocks[node] += 1
    return new


def reference_known_p_updates(
    values: np.ndarray,
    grad_table: np.ndarray,
    partition: AgentPartition,
    model: GeneralModel,
    u: np.ndarray,
    k: int,
    schedule: StepSchedule,
    graph: InteractionGraph,
) -> tuple[np.ndarray, np.ndarray]:
    """``general.known_p_updates`` written out on whole arrays, the oracle for
    its two ``sas._tick_fast_updates`` calls: full-expectation versions of
    the value and sensitivity updates."""
    damp, rhs, tables = _fixed_point(partition, model, u)
    free = partition.node_codes() != STUBBORN
    step = schedule.a(k)

    mean_v = graph.P @ values
    new_values = values.copy()
    new_values[free] = values[free] + step * (rhs[free] + damp[free] * mean_v[free] - values[free])

    idx = list(partition.controlled)
    target = damp[:, None] * (graph.P @ grad_table)
    target[idx, np.arange(len(idx))] += _driver(tables, slice(None), mean_v[idx])
    new_table = grad_table.copy()
    new_table[free] = grad_table[free] + step * (target[free] - grad_table[free])
    return new_values, new_table


def reference_relax_scalars(
    grad_vec: dict[int, float],
    snapshot: dict[int, float],
    nodes,
    probed,
    survive,
    own_terms,
    steps,
) -> None:
    """``partial_obs.run_partial``'s relaxation as a loop over Python floats,
    the oracle for its ``sas._tick_fast_updates`` call: fast updates against
    ``snapshot``, written into ``grad_vec``.

    Node i moves to G_i + a_i * (c_i + (1 - alpha_i) G_probed - G_i), with
    every G read from ``snapshot``; ``survive`` holds 1 - alpha_i and
    ``own_terms`` holds c_i = alpha_i * w_i'(u_i) on controlled nodes, 0.0
    elsewhere.
    """
    for node, hit, keep, own, step in zip(nodes, probed, survive, own_terms, steps):
        old = snapshot[node]
        grad_vec[node] = old + step * (own + keep * snapshot[hit] - old)


def reference_project_budget_simplex(v: np.ndarray, budget: float) -> np.ndarray:
    """``optim.project_budget_simplex`` before the tiny-budget fix, the
    oracle for its bits: it raises where no sorted entry holds."""
    if budget <= 0.0:
        raise ValueError("budget must be positive")
    v = np.asarray(v, dtype=float)
    clipped = np.maximum(v, 0.0)
    total = float(clipped.sum())
    if not math.isfinite(total):
        raise DivergenceError(f"cannot project a non-finite control vector: {v}")
    if total <= budget:
        return clipped
    dropping = np.sort(v)[::-1]
    csum = np.cumsum(dropping) - budget
    j = np.arange(1, len(v) + 1)
    holds = dropping - csum / j > 0.0
    rho = int(np.max(np.flatnonzero(holds))) + 1
    theta = csum[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


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


class DerivCounter:
    """Counts ``deriv`` calls on the package's curve classes."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for cls in (SaturatingCurve, LinearCurve, ConstantCurve):
            monkeypatch.setattr(cls, "deriv", self._counting(cls.deriv))

    def _counting(self, deriv):
        def counted(curve, x):
            self.calls += 1
            return deriv(curve, x)

        return counted


def _format(x: float) -> str:
    return f"{float(x):.17g}"


def reference_write_run_csv(path: Path, traj: Trajectory) -> None:
    """``harness.write_run_csv`` on ``csv.writer``, the oracle for the
    one-string writer."""
    n_ctrl = traj.u.shape[1] if traj.u.ndim == 2 else 0
    header = ["k"] + [f"u_{j + 1}" for j in range(n_ctrl)] + ["payoff", "rel_gap"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row, k in enumerate(traj.ks):
            gap = traj.rel_gap[row] if traj.rel_gap is not None else float("nan")
            writer.writerow(
                [str(int(k))]
                + [_format(v) for v in np.atleast_1d(traj.u[row])]
                + [_format(traj.payoff[row]), _format(gap)]
            )


def reference_write_summary_csv(path: Path, ks: np.ndarray, gaps: np.ndarray) -> None:
    """``harness.write_summary_csv`` on ``csv.writer``, the oracle for the
    one-string writer."""
    q1, med, q3 = np.percentile(gaps, [25, 50, 75], axis=0)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "gap_median", "gap_q1", "gap_q3"])
        for i, k in enumerate(ks):
            writer.writerow([str(int(k)), _format(med[i]), _format(q1[i]), _format(q3[i])])
