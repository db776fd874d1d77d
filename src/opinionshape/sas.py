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
from .network import STUBBORN, ActivationModel, AgentPartition, InteractionGraph, solve, stationary_system
from .optim import StepSchedule, Trajectory, project_budget_simplex, run_loop

# sanity ceiling on table entries: alpha_max * max w' / alpha_min, slack 10x
BOUND_SLACK = 10.0
# poll draws per block of synchronous ticks; a block holds at least one tick
POLL_BLOCK = 4096


def exact_grad_table(graph: InteractionGraph, partition: AgentPartition, u: np.ndarray) -> np.ndarray:
    """Fixed point of the sensitivity recursion, solved exactly (test oracle).

    Table column j solves (Id - A) col = alpha_j w_j'(u_j) e_j, so the full
    table is (Id - A)^-1 D with D the diagonal driver on controlled rows.
    Stubborn rows come out exactly zero because their A-rows are zero.
    """
    n = graph.node_count
    idx = list(partition.controlled)
    driver = np.zeros((n, len(idx)))
    driver[idx, np.arange(len(idx))] = partition.alpha[idx] * partition.w_derivs(u)
    return solve(stationary_system(graph, partition), driver)


def sas_fast_update(
    grad_table: np.ndarray,
    event: tuple[int, int],
    graph: InteractionGraph,
    partition: AgentPartition,
    u: np.ndarray,
    clocks: np.ndarray,
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
    pollers = np.array([poller])
    own_rows, own_cols, own_cells = owned_cells(partition.node_codes(), pollers, new.shape[1])
    driver = partition.alpha[pollers[own_rows]] * partition.w_derivs(u)[own_cols]
    _tick_fast_updates(
        new, pollers, np.array([polled]), (1.0 - partition.alpha[pollers])[:, None],
        own_cells, driver, schedule.a(clocks[poller]),
    )
    clocks[poller] += 1
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
    pollers: np.ndarray | slice,
    polled: np.ndarray,
    damp: np.ndarray,
    own_cells: np.ndarray,
    driver: np.ndarray,
    steps,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized fast updates for one tick, reading pre-tick table values.

    The one fast-scale relaxation of every learner: row i moves to
    G_i + a_i * (damp_i G_next + driver - G_i), computed in place on one
    block gathered from the polled rows, which is written back and
    returned.  G_next is row ``polled`` of the table, or of ``source`` when
    given (the known-matrix sweep passes its expectation P @ G there).  The
    table is a pollers x controls sensitivity table or a 1-D vector of
    values or scalars.

    pollers is an index array, or ``slice(None)`` for every row (``polled``
    then holds one target per row): the rows are then read as a view of
    the table and the write-back is one contiguous copy.  damp is the fixed
    point's damp per poller (1 - alpha_i in ``sas``), a column for a 2-D
    table or the full block.  own_cells are the flat indices, in the
    block, of the cells that get a driver (see ``owned_cells``;
    ``slice(None)`` for all of a vector), and driver holds their terms,
    alpha_i * w_i'(u_i) in ``sas``.  steps is a(nu_i) as a column per
    poller (0 on a row that keeps its value), or one scalar when every
    clock agrees.  The runners build the owned cells once per run, and
    ``run_sas`` and ``run_partial`` their damp too.
    """
    # take copies rows without the fancy-indexing machinery; a slice reads
    # them in place
    rows = grad_table[pollers] if isinstance(pollers, slice) else grad_table.take(pollers, axis=0)
    # a fresh C-ordered block, so ravel() is a view
    block = (grad_table if source is None else source).take(polled, axis=0)
    block *= damp
    block.ravel()[own_cells] += driver
    block -= rows
    block *= steps
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
    agent, relaxes the whole table in place against the pre-tick table,
    then takes one slow control step.  A synchronous run draws its polls a
    block of ticks at a time (``poll_blocks``); in an asynchronous run an
    agent that sleeps reads its own row with step 0, which keeps the row's
    bits.  With freeze_u the controls stay at u0, which isolates the fast
    recursion.
    """
    rng = np.random.default_rng(seed)
    n = graph.node_count
    n_ctrl = len(partition.controlled)
    u = np.zeros(n_ctrl) if u0 is None else np.asarray(u0, dtype=float).copy()
    grad_table = np.zeros((n, n_ctrl))
    cdf = graph.poll_cdf()
    bound = _table_bound(partition)

    # built once per run: a stubborn row polls itself with damp 0 and no
    # driver, so it stays +0.0; a row that sleeps reads itself with step 0,
    # and G + 0 * (finite) is G, since the table never holds -0.0
    codes = partition.node_codes()
    free = codes != STUBBORN
    nodes = np.arange(n)
    damp = np.repeat(np.where(free, 1.0 - partition.alpha, 0.0)[:, None], n_ctrl, axis=1)
    own_rows, own_cols, own_cells = owned_cells(codes, nodes, n_ctrl)
    own_alpha = partition.alpha[own_rows]
    frozen = own_alpha * partition.w_derivs(u)[own_cols] if freeze_u else None
    polled = nodes.copy()
    clocks = np.zeros(n, dtype=np.int64)
    synchronous = activation.mode == "synchronous"
    if synchronous:
        # every non-stubborn agent polls on every tick, so every local clock
        # reads k and the poll events do not depend on the learner
        pollers = np.flatnonzero(free)
        steps = schedule.a(np.arange(n_iters))
        draws = poll_blocks(lambda rows: sample_poll_targets(cdf, rows, rng), pollers, n_iters)

    def tick(k, u):
        if synchronous:
            polled[pollers] = next(draws)
            a_k = steps[k]
        else:
            awake = np.flatnonzero((rng.random(n) < activation.q) & free)
            polled[:] = nodes
            polled[awake] = sample_poll_targets(cdf, awake, rng)
            a_k = np.zeros((n, 1))
            a_k[awake, 0] = schedule.a(clocks[awake])
            clocks[awake] += 1
        driver = own_alpha * partition.w_derivs(u)[own_cols] if frozen is None else frozen
        _tick_fast_updates(grad_table, slice(None), polled, damp, own_cells, driver, a_k)
        if not freeze_u:
            u = sas_slow_update(u, grad_table, k, schedule, budget)
        # written so that a NaN fails too
        if not (grad_table.max(initial=0.0) <= bound and grad_table.min(initial=0.0) >= -bound):
            raise DivergenceError(f"sensitivity table left its sanity bound {bound:.3g} at tick {k + 1}")
        return u

    traj = run_loop("sas", u, n_iters, tick, payoff_fn(graph, partition), payoff_star)
    if synchronous:
        clocks[pollers] = n_iters
    traj.extras = {"grad_table": grad_table, "clocks": clocks}
    return traj


def owned_cells(codes: np.ndarray, pollers: np.ndarray, n_ctrl: int) -> tuple[np.ndarray, ...]:
    """For the pollers that own a control: their positions in poller
    order, the control columns they own, and the flat index of each such
    (position, column) cell in a pollers x controls block."""
    cp = codes[pollers]
    rows = np.flatnonzero(cp >= 0)
    cols = cp[rows]
    return rows, cols, rows * n_ctrl + cols


def poll_blocks(draw, pollers: np.ndarray, n_iters: int):
    """Yield each tick's poll targets in a synchronous run of n_iters
    ticks, drawn ``POLL_BLOCK`` draws (at least one tick) at a time.

    ``draw(rows)`` is the runner's ``sample_poll_targets`` call, made once
    per block on the pollers tiled over the block's ticks.  PCG64's
    ``random(t * m)`` yields the doubles of t ``random(m)`` calls, so as
    long as the run's generator feeds only the polls, the targets are those
    of one draw per tick.  The last block stops at the run's last tick.
    """
    m = len(pollers)
    per_block = max(1, POLL_BLOCK // max(m, 1))
    for k in range(0, n_iters, per_block):
        t = min(per_block, n_iters - k)
        yield from draw(np.tile(pollers, t)).reshape(t, m)


def _table_bound(partition: AgentPartition) -> float:
    """Sanity ceiling for table entries; generous, violation means a bug."""
    if not partition.controlled:
        return 1.0
    idx = list(partition.controlled)
    alphas = partition.alpha[idx]
    max_wp = max(partition.w[i].deriv(0.0) for i in idx)
    a_min = float(np.min(alphas[alphas > 0.0], initial=1.0))
    return BOUND_SLACK * float(np.max(alphas)) * max_wp / a_min
