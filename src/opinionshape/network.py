"""Graph ingestion, poll-matrix construction, and agent-class assignment.

The interaction graph carries a row-stochastic poll matrix P built from an
edge list.  Agents are split into three classes: controlled agents accept
planner influence with per-agent probability alpha, uncontrolled agents only
gossip, and stubborn agents hold a pinned opinion h.  The influence matrix A
damps controlled rows by (1 - alpha) and zeroes stubborn rows; stationary
opinions exist exactly when (Id - A) is invertible, which is validated
eagerly so downstream runs fail fast.  A does not depend on the controls,
so the adjoint solve behind the total payoff happens once per instance and
its result is cached on the graph.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .curves import Curve, SaturatingCurve
from .errors import DanglingNodeError, EdgeListParseError, InfeasibleError, NonFiniteRowError

# node codes off the controlled set, whose codes are control positions
UNCONTROLLED = -1
STUBBORN = -2


@dataclass(frozen=True)
class InteractionGraph:
    """A gossip network with its row-stochastic poll matrix.

    ``edges`` holds the input arcs as read from the source (one entry per
    file line); for undirected sources each arc also contributes its
    reverse to P.  ``names`` maps the contiguous 0-based node index back to
    the original label.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    P: np.ndarray
    names: dict[int, int] = field(default_factory=dict)
    undirected: bool = True
    _poll_table: PollTable | None = field(default=None, init=False, repr=False, compare=False)
    _adjoint: tuple[AgentPartition, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.P.shape != (self.node_count, self.node_count):
            raise ValueError("poll matrix shape does not match node count")
        rows = self.P.sum(axis=1)
        # written so that a NaN row fails too
        if not np.all(np.abs(rows - 1.0) <= 1e-9):
            raise ValueError("poll matrix rows must sum to 1")

    def poll_cdf(self) -> PollTable:
        """The cached poll table, built from P on the first call."""
        table = self._poll_table
        if table is None:
            table = PollTable.from_matrix(self.P)
            object.__setattr__(self, "_poll_table", table)
        return table

    def payoff_adjoint(self, partition: AgentPartition) -> np.ndarray:
        """Read-only c solving (Id - A)^T c = 1 for ``partition`` on this graph.

        The total payoff is c . rhs(u).  One slot, keyed by the partition
        object: another partition replaces it.  The slot holds the partition
        itself, so a recycled ``id()`` can never hit.  Partitions are treated
        as immutable.  Raises InfeasibleError if the solver fails or leaves
        a residual above 1e-6.
        """
        cached = self._adjoint
        if cached is None or cached[0] is not partition:
            system = stationary_system(self, partition)
            coef = solve(system.T, np.ones(self.node_count))
            residual = np.max(np.abs(system.T @ coef - 1.0))
            if not np.isfinite(residual) or residual > 1e-6:
                raise InfeasibleError(f"stationary system residual too large: {residual:.3e}")
            coef.setflags(write=False)
            cached = (partition, coef)
            object.__setattr__(self, "_adjoint", cached)
        return cached[1]

    def __setstate__(self, state):
        # unpickled arrays come back writeable; the cached vector must not
        self.__dict__.update(state)
        if self._adjoint is not None:
            self._adjoint[1].setflags(write=False)


# array draws of at least this many queries start from the guide table;
# smaller ones cost less as one binary search over the whole table
GUIDED_BATCH = 64
# forward passes a guided draw makes before the unresolved queries fall
# back to the binary search
GUIDE_PASSES = 4
# guide buckets per table entry: with two, a start lies at most half an
# average entry behind its uniform, and most wide batches need one step
GUIDE_BUCKETS = 2


@dataclass(frozen=True)
class PollTable:
    """Row-wise cumulative poll law stored over each row's neighbours only.

    Entries follow the row-major order of ``np.nonzero(P)``.  ``keys`` holds
    ``row + 1j * cum``: numpy orders complex numbers lexicographically, so
    one ``searchsorted`` finds the row's block and the first cumulative
    weight above the uniform, O(log nnz) per draw.  The cumulative values
    are a sequential cumsum over the neighbours, which equals the dense row
    cumsum at the neighbour columns bit for bit (adding 0.0 is exact), so a
    draw picks what ``(r < cumsum(P)[row]).argmax()`` picks.  Each row's
    last neighbour is pinned at exactly 1, so rounding in the row sum can
    never send a draw past it.

    Array draws of ``GUIDED_BATCH`` or more queries use a guide table
    (Chen and Asau, 1974), O(1) expected per draw.  A row of degree d has
    m = ``GUIDE_BUCKETS`` * d buckets of width 1 / m.  Bucket b holds the
    first entry of the row whose cumulative weight exceeds (b - 1) / m.  A
    query (i, r) starts at bucket ``int(r * m)`` of row i and steps forward
    while the cumulative weight is at most r.  The rounding of ``r * m`` is
    under one bucket, so every entry before the start has a cumulative
    weight at most (b - 1) / m < r, and the scan stops on the entry the
    binary search picks; the pin at 1 keeps it inside the row.  For r < 1
    the rounded ``r * m`` stays below the integer m, so the bucket exists.  Queries still moving
    after ``GUIDE_PASSES`` steps (clustered weights) finish with the binary
    search.  The guide is built on the first guided draw, so samplers that
    never make one (token relays, narrow walk fronts) never pay for it.

    Scalar draws bisect Python lists of the same table instead (see
    ``row_lists``): per draw that is cheaper than a numpy call.
    """

    indices: np.ndarray
    keys: np.ndarray
    shape: tuple[int, int]
    _lists: tuple[list[int], list[float], list[int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _guide: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_matrix(cls, P: np.ndarray) -> "PollTable":
        rows, cols = np.divmod(np.flatnonzero(P != 0.0), P.shape[1])
        counts = np.bincount(rows, minlength=P.shape[0])
        ends = np.cumsum(counts)
        slot = np.arange(len(rows)) - (ends - counts)[rows]
        padded = np.zeros((P.shape[0], int(counts.max(initial=0))))
        padded[rows, slot] = P[rows, cols]
        cum = np.cumsum(padded, axis=1)[rows, slot]
        del padded
        cum[ends - 1] = 1.0
        return cls(indices=cols, keys=rows + 1j * cum, shape=P.shape)

    def row_lists(self) -> tuple[list[int], list[float], list[int]]:
        """Row start offsets (n + 1 of them), cumulative weights and
        neighbours as Python lists, built on the first call.

        Row ``i``'s neighbour for the uniform ``r`` is
        ``cols[bisect_right(cum, r, ptr[i], ptr[i + 1])]``: the first
        cumulative weight above ``r`` inside the row's block, which is what
        the complex-key search finds, so both pick the same neighbour.
        """
        lists = self._lists
        if lists is None:
            ptr = np.searchsorted(self.keys.real, np.arange(self.shape[0] + 1))
            lists = (ptr.tolist(), self.keys.imag.tolist(), self.indices.tolist())
            object.__setattr__(self, "_lists", lists)
        return lists

    def guide_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's m (as floats), each row's offset into the guide, and
        the guide itself, built on the first guided draw.

        Row ``i``'s m buckets are ``guide[bucket0[i]]`` to
        ``guide[bucket0[i] + m - 1]``.  Bucket ``b`` is the complex-key
        search for ``(i, (b - 1) / m)``.
        """
        table = self._guide
        if table is None:
            n = self.shape[0]
            m = GUIDE_BUCKETS * np.diff(np.searchsorted(self.keys.real, np.arange(n + 1)))
            bucket0 = np.cumsum(m) - m
            owner = np.repeat(np.arange(n), m)
            b = np.arange(len(owner)) - bucket0[owner]
            guide = self._search(owner, (b - 1) / m[owner])
            table = (m.astype(float), bucket0, guide)
            object.__setattr__(self, "_guide", table)
        return table

    def draw(self, rows, r):
        """Polled neighbour per (row, uniform) pair: scalars, or ``rows``
        broadcast against the array ``r``."""
        if isinstance(r, float):
            ptr, cum, cols = self.row_lists()
            return cols[bisect_right(cum, r, ptr[rows], ptr[rows + 1])]
        if np.size(r) < GUIDED_BATCH:
            return self.indices[self._search(rows, r)]
        cum = self.keys.imag
        buckets, bucket0, guide = self.guide_table()
        j = guide[bucket0[rows] + (r * buckets[rows]).astype(np.intp)]
        # count_nonzero is the cheapest "any" on short boolean arrays
        for _ in range(GUIDE_PASSES):
            ahead = cum[j] <= r
            if not np.count_nonzero(ahead):
                return self.indices[j]
            j += ahead
        ahead = cum[j] <= r
        if np.count_nonzero(ahead):
            j[ahead] = self._search(np.broadcast_to(rows, np.shape(r))[ahead], r[ahead])
        return self.indices[j]

    def _search(self, rows, r):
        # filling the parts skips the temporaries of rows + 1j * r
        query = np.empty(np.shape(r), dtype=complex)
        query.real = rows
        query.imag = r
        return np.searchsorted(self.keys, query, side="right")


@dataclass(frozen=True)
class AgentPartition:
    """Disjoint exhaustive split of the nodes into S, S1 and S0.

    ``alpha`` is a full-length vector, zero off the controlled set.  ``h``
    pins stubborn opinions, and ``w`` gives each controlled agent its reward
    curve (value in [0, 1] plus derivative).
    """

    controlled: tuple[int, ...]
    uncontrolled: tuple[int, ...]
    stubborn: tuple[int, ...]
    alpha: np.ndarray
    h: dict[int, float]
    w: dict[int, Curve]
    _codes: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _stubborn_set: frozenset[int] | None = field(default=None, init=False, repr=False, compare=False)
    _groups: tuple[tuple[Curve, np.ndarray], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        classes = [set(self.controlled), set(self.uncontrolled), set(self.stubborn)]
        total = len(self.controlled) + len(self.uncontrolled) + len(self.stubborn)
        union = classes[0] | classes[1] | classes[2]
        if len(union) != total:
            raise ValueError("agent classes must be pairwise disjoint")
        if union != set(range(len(self.alpha))):
            raise ValueError("agent classes must cover exactly the node range")
        if np.any(self.alpha < 0.0) or np.any(self.alpha > 1.0):
            raise ValueError("alpha values must lie in [0, 1]")
        off = sorted(union - classes[0])
        if np.any(self.alpha[off] != 0.0):
            raise ValueError("alpha must be zero off the controlled set")
        for i in self.stubborn:
            if not 0.0 <= self.h[i] <= 1.0:
                raise ValueError(f"pinned opinion h({i}) outside [0, 1]")
        for i in self.controlled:
            if i not in self.w:
                raise ValueError(f"controlled agent {i} has no reward curve")

    @property
    def node_count(self) -> int:
        return len(self.alpha)

    def control_index(self) -> dict[int, int]:
        """Map a controlled node id to its position in the control vector."""
        return {node: pos for pos, node in enumerate(self.controlled)}

    def node_codes(self) -> np.ndarray:
        """Read-only per-node class code, built on the first call.

        A controlled node's code is its position in the control vector;
        uncontrolled nodes read ``UNCONTROLLED`` and stubborn ones
        ``STUBBORN``, both negative.
        """
        codes = self._codes
        if codes is None:
            codes = np.full(self.node_count, UNCONTROLLED, dtype=int)
            codes[list(self.stubborn)] = STUBBORN
            codes[list(self.controlled)] = np.arange(len(self.controlled))
            codes.setflags(write=False)
            object.__setattr__(self, "_codes", codes)
        return codes

    def stubborn_set(self) -> frozenset[int]:
        """The stubborn nodes as a frozenset, built on the first call, for
        membership tests on hot paths (``stubborn`` is a tuple)."""
        members = self._stubborn_set
        if members is None:
            members = frozenset(self.stubborn)
            object.__setattr__(self, "_stubborn_set", members)
        return members

    def curve_groups(self) -> tuple[tuple[Curve, np.ndarray], ...]:
        """Controls grouped by reward-curve object, built on the first call.

        One ``(curve, positions)`` pair per distinct curve object, in order
        of first appearance, with read-only control positions.
        """
        groups = self._groups
        if groups is None:
            members: dict[int, tuple[Curve, list[int]]] = {}
            for pos, node in enumerate(self.controlled):
                curve = self.w[node]
                members.setdefault(id(curve), (curve, []))[1].append(pos)
            groups = tuple((curve, np.array(positions)) for curve, positions in members.values())
            for _, positions in groups:
                positions.setflags(write=False)
            object.__setattr__(self, "_groups", groups)
        return groups

    def __setstate__(self, state):
        # unpickled arrays come back writeable; the cached ones must not
        self.__dict__.update(state)
        if self._codes is not None:
            self._codes.setflags(write=False)
        for _, positions in self._groups or ():
            positions.setflags(write=False)

    def w_values(self, u: np.ndarray) -> np.ndarray:
        """w_i(u_i) per control, one array call per batched curve."""
        return self._eval_curves(u, "values", "value")

    def w_derivs(self, u: np.ndarray) -> np.ndarray:
        """w_i'(u_i) per control, one array call per batched curve."""
        return self._eval_curves(u, "derivs", "deriv")

    def _eval_curves(self, u: np.ndarray, batch: str, point: str) -> np.ndarray:
        # bit for bit np.array([w[node].<point>(float(u[pos])) for ...]);
        # a curve without the array method <batch> goes point by point
        u = np.asarray(u, dtype=float)
        groups = self.curve_groups()
        if len(groups) == 1 and hasattr(groups[0][0], batch):
            # one curve covers every control: no gather, no scatter
            return getattr(groups[0][0], batch)(u)
        # one control vector or a stack of rows: gather and scatter the
        # columns through the transposes; u[..., positions] would cost the
        # one-vector path every tick takes five times u[positions]
        out = np.empty(u.shape[:-1] + (len(self.controlled),))
        cols, out_cols = u.T, out.T
        for curve, positions in groups:
            xs = cols[positions]
            if hasattr(curve, batch):
                out_cols[positions] = getattr(curve, batch)(xs)
            else:
                f = getattr(curve, point)
                out_cols[positions] = np.reshape([f(x) for x in xs.ravel().tolist()], xs.shape)
        return out


@dataclass(frozen=True)
class ActivationModel:
    """Which agents wake up each tick.

    Synchronous mode activates everyone; asynchronous mode activates agent i
    independently with probability q[i] (q must be positive for every
    non-stubborn agent so that each of them updates infinitely often).
    """

    mode: str = "synchronous"
    q: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in ("synchronous", "asynchronous"):
            raise ValueError(f"unknown activation mode {self.mode!r}")
        if self.mode == "asynchronous":
            if self.q is None:
                raise ValueError("asynchronous activation needs per-agent probabilities")
            if np.any(self.q <= 0.0) or np.any(self.q > 1.0):
                raise ValueError("activation probabilities must lie in (0, 1]")


def row_normalize(adjacency: np.ndarray) -> np.ndarray:
    """Divide each row by its sum; zero entries stay zero.

    Raises DanglingNodeError on a zero-sum row instead of inventing a
    self-loop: the model needs a genuinely row-stochastic poll matrix.
    Raises NonFiniteRowError on a row whose sum overflows (or is NaN).
    """
    adjacency = np.asarray(adjacency, dtype=float)
    if np.any(adjacency < 0.0):
        raise ValueError("adjacency weights must be nonnegative")
    with np.errstate(over="ignore"):
        sums = adjacency.sum(axis=1)
    dangling = np.flatnonzero(sums <= 0.0)
    if dangling.size:
        raise DanglingNodeError(int(dangling[0]))
    unbounded = np.flatnonzero(~np.isfinite(sums))
    if unbounded.size:
        raise NonFiniteRowError(int(unbounded[0]))
    return adjacency / sums[:, None]


def load_edge_list(
    path: str | Path,
    weighted: bool | None = None,
    directed: bool = False,
) -> InteractionGraph:
    """Read a whitespace-separated ``src dst [weight]`` edge list.

    Node labels are integers (0- or 1-based, gaps allowed) and are
    normalized to contiguous 0-based indices; the original labels are kept
    in ``names``.  Lines starting with ``#`` and blank lines are skipped.
    When ``weighted`` is None the column count of the first data line
    decides.  Undirected sources (the default) contribute both arc
    directions to the poll matrix.
    """
    path = Path(path)
    raw: list[tuple[int, int, float]] = []
    with path.open(encoding="utf-8") as fh:
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
    edges = tuple((index[s], index[d], w) for s, d, w in raw)
    src, dst, weights = (np.array(column) for column in zip(*edges))
    if not directed:
        # each arc, then its reverse unless it is a loop
        back = np.flatnonzero(src != dst)
        src, dst, weights = (
            np.insert(src, back + 1, dst[back]),
            np.insert(dst, back + 1, src[back]),
            np.insert(weights, back + 1, weights[back]),
        )
    adjacency = np.zeros((n, n))
    # unbuffered and in order, so repeated arcs add up in the file's order;
    # a sum past the float range is inf, which row_normalize reports
    with np.errstate(over="ignore"):
        np.add.at(adjacency, (src, dst), weights)
    P = row_normalize(adjacency)
    names = {i: label for label, i in index.items()}
    return InteractionGraph(
        node_count=n,
        edges=edges,
        P=P,
        names=names,
        undirected=not directed,
    )


def bundled_network_path(name: str) -> Path:
    """Path of an edge list shipped with the package (currently ``karate``)."""
    candidate = resources.files("opinionshape.data").joinpath(f"{name}.edges")
    with resources.as_file(candidate) as p:
        if not p.exists():
            raise FileNotFoundError(f"no bundled network named {name!r}")
        return Path(p)


def random_partition(
    graph: InteractionGraph,
    sizes: tuple[int, int, int],
    alpha_value: float,
    seed,
    curve: Curve | None = None,
) -> AgentPartition:
    """Uniformly assign agents to (S, S1, S0) and draw stubborn opinions.

    ``sizes`` is (|S|, |S1|, |S0|) and must sum to the node count.  Stubborn
    opinions are i.i.d. uniform on [0, 1].  Every controlled agent gets
    ``alpha_value`` and the same reward curve (saturating by default).  The
    resulting instance is validated for a solvable stationary system.
    """
    n_controlled, n_uncontrolled, n_stubborn = sizes
    if n_controlled + n_uncontrolled + n_stubborn != graph.node_count:
        raise ValueError(
            f"sizes {sizes} do not sum to node count {graph.node_count}"
        )
    if not 0.0 <= alpha_value <= 1.0:
        raise ValueError("alpha_value must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(graph.node_count)
    controlled = tuple(sorted(int(i) for i in order[:n_controlled]))
    uncontrolled = tuple(sorted(int(i) for i in order[n_controlled:n_controlled + n_uncontrolled]))
    stubborn = tuple(sorted(int(i) for i in order[n_controlled + n_uncontrolled:]))
    alpha = np.zeros(graph.node_count)
    alpha[list(controlled)] = alpha_value
    h = {i: float(v) for i, v in zip(stubborn, rng.uniform(0.0, 1.0, size=n_stubborn))}
    curve = curve if curve is not None else SaturatingCurve()
    w = {i: curve for i in controlled}
    partition = AgentPartition(
        controlled=controlled,
        uncontrolled=uncontrolled,
        stubborn=stubborn,
        alpha=alpha,
        h=h,
        w=w,
    )
    check_feasible(graph, partition)
    return partition


def fixed_point(partition: AgentPartition, a: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (damp, rhs) of the stationary fixed point x = rhs + damp * (P x)
    for the influence a and the reward w per control: damp is 1 - a on S, 1
    on S1 and 0 on S0; rhs is a w on S, 0 on S1 and h on S0."""
    idx = list(partition.controlled)
    damp = (partition.node_codes() != STUBBORN).astype(float)
    damp[idx] = 1.0 - a
    rhs = np.zeros(partition.node_count)
    rhs[idx] = a * w
    for node in partition.stubborn:
        rhs[node] = partition.h[node]
    return damp, rhs


def system_matrix(P: np.ndarray, damp: np.ndarray) -> np.ndarray:
    """Id - damp * P, the dense matrix of a fixed point x = rhs + damp * (P x)."""
    return np.eye(len(damp)) - damp[:, None] * P


def solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` that raises InfeasibleError on a singular system."""
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise InfeasibleError(f"stationary system is singular: {exc}") from exc


def _base_damp(partition: AgentPartition) -> np.ndarray:
    return fixed_point(partition, partition.alpha[list(partition.controlled)], 0.0)[0]


def substochastic_matrix(graph: InteractionGraph, partition: AgentPartition) -> np.ndarray:
    """Influence matrix A = damp * P: stubborn rows zero, controlled rows damped by 1 - alpha."""
    return _base_damp(partition)[:, None] * graph.P


def influence_rhs(partition: AgentPartition, u: np.ndarray) -> np.ndarray:
    """Constant term of the stationary system: alpha_i w_i(u_i) on S, h on S0."""
    idx = list(partition.controlled)
    return fixed_point(partition, partition.alpha[idx], partition.w_values(u))[1]


def stationary_system(graph: InteractionGraph, partition: AgentPartition) -> np.ndarray:
    """Id - A, the matrix of the stationary system (dense, n x n)."""
    return system_matrix(graph.P, _base_damp(partition))


def check_feasible(graph: InteractionGraph, partition: AgentPartition) -> None:
    """Verify that (Id - A) supports an accurate solve; raise InfeasibleError if not.

    The probe is the adjoint solve the payoff needs anyway: singular or
    nearly singular systems either raise inside the solver or leave a
    residual far above the tolerance.  A passing solve stays cached on the
    graph, so the instance's payoff coefficients cost no further solve.
    """
    graph.payoff_adjoint(partition)
