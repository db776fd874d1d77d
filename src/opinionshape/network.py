"""Graph ingestion, poll-matrix construction, and agent-class assignment.

The interaction graph carries a row-stochastic poll matrix P built from an
edge list and stored as compressed sparse rows, in O(edges + n) memory.
The edge list is parsed in one pass of numpy's C reader; a Python line
loop reads only what it refuses, and names the line of a malformed one.
Row sums of integer weights come from one bincount, exact in any order;
other weights are summed over dense row blocks, for numpy's pairwise bits.
The dense P is built only when read (the general model and the test
oracles); the base schemes never read it.  Their one n x n array is the
stationary system Id - A, scattered from the sparse rows, and their one
O(n^3) step is its LU solve.

Agents are split into three classes: controlled agents accept planner
influence with per-agent probability alpha, uncontrolled agents only
gossip, and stubborn agents hold a pinned opinion h.  The influence matrix A
damps controlled rows by (1 - alpha) and zeroes stubborn rows; stationary
opinions exist exactly when (Id - A) is invertible, which is validated
eagerly so downstream runs fail fast.  A does not depend on the controls,
so the adjoint solve behind the total payoff happens once per instance and
its result is cached on the graph.
"""

from __future__ import annotations

import io
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .curves import Curve, SaturatingCurve, eval_groups, group_curves
from .errors import DanglingNodeError, EdgeListParseError, InfeasibleError, NonFiniteRowError

# node codes off the controlled set, whose codes are control positions
UNCONTROLLED = -1
STUBBORN = -2


@dataclass(frozen=True, eq=False)
class InteractionGraph:
    """A gossip network with its row-stochastic poll matrix P.

    ``arcs`` holds the input arcs as read from the source (one entry per
    file line) as three read-only arrays: source index, target index and
    weight; for undirected sources each arc also contributes its reverse to
    P.  ``edges`` gives them as ``(i, j, w)`` tuples of Python numbers,
    built on first read.  ``names`` maps the contiguous 0-based node index
    back to the original label.

    P is stored in compressed sparse rows, its one stored form: row ``i``'s
    nonzero entries are ``vals[ptr[i]:ptr[i + 1]]`` in the columns
    ``cols[ptr[i]:ptr[i + 1]]``, which increase (the order of the dense
    row, which seeded draws follow).  The arrays are read-only.  The dense
    ``P`` is built from them on first access.
    """

    node_count: int
    arcs: tuple[np.ndarray, np.ndarray, np.ndarray]
    ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    names: dict[int, int] = field(default_factory=dict)
    undirected: bool = True
    _edges: tuple[tuple[int, int, float], ...] | None = field(default=None, init=False, repr=False, compare=False)
    _dense: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _poll_table: PollTable | None = field(default=None, init=False, repr=False, compare=False)
    _adjoint: tuple[AgentPartition, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        # array methods and slices: np.any, np.all and np.diff would double
        # the cost of checking a karate-sized graph
        n = self.node_count
        ptr = np.asarray(self.ptr, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        vals = np.asarray(self.vals, dtype=float)
        counts = ptr[1:] - ptr[:-1]
        if ptr.shape != (n + 1,) or ptr[0] != 0 or (counts < 0).any() or not cols.shape == vals.shape == (ptr[-1],):
            raise ValueError("poll matrix rows do not match the node count and the entries")
        if len(cols) and (cols.min() < 0 or cols.max() >= n):
            raise ValueError("poll matrix columns must lie in the node range")
        rows = np.repeat(np.arange(n), counts)
        # written so that a NaN row fails too
        if not (abs(np.bincount(rows, weights=vals, minlength=n) - 1.0) <= 1e-9).all():
            raise ValueError("poll matrix rows must sum to 1")
        if not (vals > 0.0).all():
            raise ValueError("stored poll entries must be positive")
        for name, array in (("ptr", ptr), ("cols", cols), ("vals", vals)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        for array in self.arcs:
            array.setflags(write=False)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The input arcs as ``(i, j, w)`` tuples, built from ``arcs`` on
        first read and cached."""
        edges = self._edges
        if edges is None:
            edges = tuple(zip(*(array.tolist() for array in self.arcs)))
            object.__setattr__(self, "_edges", edges)
        return edges

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry, in storage order."""
        return np.repeat(np.arange(self.node_count), self.ptr[1:] - self.ptr[:-1])

    @property
    def P(self) -> np.ndarray:
        """The dense poll matrix, read-only, built from the sparse rows on
        first access and cached."""
        dense = self._dense
        if dense is None:
            dense = np.zeros((self.node_count, self.node_count))
            dense[self.entry_rows(), self.cols] = self.vals
            dense.setflags(write=False)
            object.__setattr__(self, "_dense", dense)
        return dense

    def poll_cdf(self) -> PollTable:
        """The cached poll table, built from the sparse rows on the first call."""
        table = self._poll_table
        if table is None:
            table = PollTable.from_rows(self.ptr, self.cols, self.vals)
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
        # unpickled arrays come back writeable; the stored and cached ones
        # must not
        self.__dict__.update(state)
        for array in (*self.arcs, self.ptr, self.cols, self.vals, self._dense):
            if array is not None:
                array.setflags(write=False)
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


@dataclass(frozen=True, eq=False)
class PollTable:
    """Row-wise cumulative poll law stored over each row's neighbours only.

    Entries follow the row-major order of ``np.nonzero(P)``, and ``ptr``
    holds each row's offset into them.  ``keys`` holds ``row + 1j * cum``:
    numpy orders complex numbers lexicographically, so one ``searchsorted``
    finds the row's block and the first cumulative weight above the
    uniform, O(log nnz) per draw.  The cumulative values are a sequential
    cumsum over the neighbours, which equals the dense row cumsum at the
    neighbour columns bit for bit (adding 0.0 is exact), so a draw picks
    what ``(r < cumsum(P)[row]).argmax()`` picks.  Each row's
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
    ptr: np.ndarray
    _lists: tuple[list[int], list[float], list[int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _guide: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_rows(cls, ptr: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "PollTable":
        """The table of the sparse rows (``ptr``, ``cols``, ``vals``) of a
        poll matrix, in O(nnz) plus one pass per slot of the widest row."""
        n = len(ptr) - 1
        counts = ptr[1:] - ptr[:-1]
        # each row's cumsum, one slot of every row at a time: the same
        # left-to-right additions as a cumsum along the padded dense rows.
        # Row starts go longest row first, so the rows that reach slot s
        # are the first longer[s] of them
        starts = ptr[:-1][np.argsort(counts)[::-1]]
        longer = n - np.cumsum(np.bincount(counts))
        cum = vals.copy()
        for s, reach in enumerate(longer[1:-1].tolist(), 1):
            at = starts[:reach] + s
            cum[at] += cum[at - 1]
        cum[ptr[1:] - 1] = 1.0
        # filling the parts skips the temporaries of rows + 1j * cum
        keys = np.empty(len(cum), dtype=complex)
        keys.real = np.repeat(np.arange(n), counts)
        keys.imag = cum
        return cls(indices=cols, keys=keys, shape=(n, n), ptr=ptr)

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
            lists = (self.ptr.tolist(), self.keys.imag.tolist(), self.indices.tolist())
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
            m = GUIDE_BUCKETS * (self.ptr[1:] - self.ptr[:-1])
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


@dataclass(frozen=True, eq=False)
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
        """Controls grouped by reward-curve object (``curves.group_curves``),
        built on the first call."""
        groups = self._groups
        if groups is None:
            groups = group_curves([self.w[node] for node in self.controlled])
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
        return eval_groups(self.curve_groups(), u, "values", "value")

    def w_derivs(self, u: np.ndarray) -> np.ndarray:
        """w_i'(u_i) per control, one array call per batched curve."""
        return eval_groups(self.curve_groups(), u, "derivs", "deriv")


@dataclass(frozen=True, eq=False)
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
            # written so that NaN fails too
            if not (np.all(self.q > 0.0) and np.all(self.q <= 1.0)):
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
    _check_row_sums(sums)
    return adjacency / sums[:, None]


def _check_row_sums(sums: np.ndarray) -> None:
    dangling = np.flatnonzero(sums <= 0.0)
    if dangling.size:
        raise DanglingNodeError(int(dangling[0]))
    unbounded = np.flatnonzero(~np.isfinite(sums))
    if unbounded.size:
        raise NonFiniteRowError(int(unbounded[0]))


# cells of the dense row block that _dense_row_sums sums at a time
_ROW_SUM_CELLS = 1 << 16


def _dense_row_sums(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    # numpy sums a dense row pairwise, in a tree fixed by the row length,
    # so a sequential sum of the nonzeros can differ in the last bit;
    # summing a block of dense rows at a time gives the dense bits in
    # O(block) memory
    step = max(1, _ROW_SUM_CELLS // n)
    starts = np.searchsorted(rows, np.arange(0, n + step, step))
    sums = np.empty(n)
    for r0, lo, hi in zip(range(0, n, step), starts[:-1].tolist(), starts[1:].tolist()):
        block = np.zeros((min(step, n - r0), n))
        block[rows[lo:hi] - r0, cols[lo:hi]] = vals[lo:hi]
        sums[r0:r0 + step] = block.sum(axis=1)
    return sums


def _row_sums(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    # integers add exactly in any order while every partial sum stays below
    # 2^53, so then the sequential bincount has the dense pairwise bits.
    # The values are nonnegative: a true total at or past 2^53 also
    # computes to at least 2^53, and such rows take the dense blocks
    sums = np.bincount(rows, weights=vals, minlength=n)
    if (sums < 2.0**53).all() and (np.floor(vals) == vals).all():
        return sums
    return _dense_row_sums(n, rows, cols, vals)


# the columns of an edge list as numpy's C reader parses them
_COLUMNS = [("src", np.int64), ("dst", np.int64), ("weight", np.float64)]


def _read_columns(source: str, weighted: bool | None) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The arcs' source labels, target labels and weights, parsed in one C
    pass by ``np.loadtxt``; None when it refuses the text (or warns), or a
    weight is negative or not finite.

    The C reader splits on the whitespace ``str.split`` splits on and reads
    labels as ASCII ``[+-]digits`` in int64 and weights with Python's
    float parser, so what it accepts it reads as ``_parse_lines`` would.
    """
    if weighted is None:
        for line in io.StringIO(source):
            parts = line.split("#", 1)[0].split()
            if parts:
                weighted = len(parts) == 3
                break
        else:
            return None
    with warnings.catch_warnings():
        # "input contained no data", or an older numpy reading "1.0" as an
        # integer with a DeprecationWarning: both go to the line loop
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(io.StringIO(source), dtype=_COLUMNS[:3 if weighted else 2], comments="#", ndmin=1)
        except (ValueError, Warning):
            return None
    weights = table["weight"] if weighted else np.ones(len(table))
    # written so that NaN goes to the line loop too
    if not ((weights >= 0.0) & (weights < np.inf)).all():
        return None
    return table["src"], table["dst"], weights


def _parse_lines(source: str, weighted: bool | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_read_columns`` one line at a time with Python's ``int`` and
    ``float``: for the labels the C reader refuses (past int64, ``1_000``,
    non-ASCII digits) and for the errors, which name their line.  The
    labels come back as Python ints in object arrays."""
    raw: list[tuple[int, int, float]] = []
    for line_no, line in enumerate(io.StringIO(source), start=1):
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
    src, dst, weights = zip(*raw)
    return np.array(src, dtype=object), np.array(dst, dtype=object), np.array(weights)


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

    numpy's C reader parses the columns in one pass.  A text it refuses,
    or with a negative or non-finite weight, is parsed again line by line
    with Python's ``int`` and ``float``: that loop reads labels past int64
    and spellings such as ``1_000``, and its errors name the line.

    P's sparse rows are built in O(edges + n) memory, with the bits of
    ``row_normalize`` on the dense adjacency.
    """
    source = Path(path).read_text(encoding="utf-8")
    columns = _read_columns(source, weighted)
    src, dst, weights = columns if columns is not None else _parse_lines(source, weighted)
    labels, index = np.unique(np.concatenate((src, dst)), return_inverse=True)
    n = len(labels)
    src, dst = index[:len(weights)], index[len(weights):]
    arcs = (src, dst, weights)
    cells = src * n + dst
    if not directed:
        # each arc, then its reverse unless it is a loop
        pairs = np.empty((len(cells), 2), dtype=cells.dtype)
        pairs[:, 0] = cells
        pairs[:, 1] = dst * n + src
        kept = (src != dst).repeat(2)
        kept[::2] = True
        cells = pairs.ravel()[kept]
        weights = weights.repeat(2)[kept]
    # one cell per distinct arc, in row-major order; np.add.at is unbuffered
    # and runs in arc order, so repeated arcs add up in the file's order
    cells, cell_of = np.unique(cells, return_inverse=True)
    rows, cols = np.divmod(cells, n)
    acc = np.zeros(len(cells))
    # a sum past the float range is inf, which _check_row_sums reports
    with np.errstate(over="ignore"):
        np.add.at(acc, cell_of, weights)
        sums = _row_sums(n, rows, cols, acc)
    _check_row_sums(sums)
    vals = acc / sums[rows]
    # zero-weight arcs and quotients that underflow to 0 leave no entry
    kept = vals != 0.0
    rows, cols, vals = rows[kept], cols[kept], vals[kept]
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return InteractionGraph(
        node_count=n,
        arcs=arcs,
        ptr=ptr,
        cols=cols,
        vals=vals,
        names=dict(enumerate(labels.tolist())),
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
    """Id - A, the matrix of the stationary system (dense, n x n).

    Scattered from the sparse rows into one array: 0.0 - damp * p at each
    entry, then 1.0 added on the diagonal.  These are the bits of
    ``system_matrix(graph.P, damp)``, signed zeros included, without the
    dense P.
    """
    damp = _base_damp(partition)
    n = graph.node_count
    rows = graph.entry_rows()
    system = np.zeros((n, n))
    system[rows, graph.cols] = 0.0 - damp[rows] * graph.vals
    system.flat[:: n + 1] += 1.0
    return system


def check_feasible(graph: InteractionGraph, partition: AgentPartition) -> None:
    """Verify that (Id - A) supports an accurate solve; raise InfeasibleError if not.

    The probe is the adjoint solve the payoff needs anyway: singular or
    nearly singular systems either raise inside the solver or leave a
    residual far above the tolerance.  A passing solve stays cached on the
    graph, so the instance's payoff coefficients cost no further solve.
    """
    graph.payoff_adjoint(partition)
