"""The cached poll table: exact draws against the dense reference, guided draws against
the binary search, the last-neighbour pin, and the walk and relay kernels against their
previous implementations."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionshape.curves import SaturatingCurve
from opinionshape.dynamics import sample_poll_targets
from opinionshape.network import (
    GUIDE_BUCKETS,
    GUIDED_BATCH,
    STUBBORN,
    UNCONTROLLED,
    AgentPartition,
    PollTable,
    bundled_network_path,
    load_edge_list,
    row_normalize,
)
from opinionshape.optim import run_exact_gd
from opinionshape.partial_obs import relay_token
import opinionshape.sgd as sgd_mod
from opinionshape.errors import NonAbsorbingError
from opinionshape.sgd import NARROW_FRONT, _walk_batch

import helpers

from helpers import (
    graph_from_P,
    random_instance,
    reference_poll_draw,
    reference_relay_token,
    reference_walk_batch,
    ring_chords_instance,
)

# the largest double below 1; karate rows 2 and 3 cumulate to exactly this
TOP = 1.0 - 2.0**-53


class ConstantUniforms:
    """Generator stub whose every uniform is ``value``."""

    def __init__(self, value: float):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


def dense_draw(P: np.ndarray, row: int, r: float) -> int:
    """Inverse-CDF draw on the dense row cumsum; past the row total, the last neighbour."""
    hit = r < np.cumsum(P, axis=1)[row]
    return int(hit.argmax()) if hit.any() else int(np.flatnonzero(P[row])[-1])


def table_uniforms(table: PollTable, rng: np.random.Generator, shape) -> np.ndarray:
    """Arbitrary uniforms mixed with values on, just below and just above
    stored cumulative weights, 0, and the largest double below 1."""
    stored = table.keys.imag[table.keys.imag < 1.0]
    near = np.concatenate([[0.0], stored, np.nextafter(stored, 0.0), np.nextafter(stored, 1.0)])
    near = near[near < 1.0]
    pick = rng.random(shape)
    r = np.where(pick < 0.4, rng.choice(near, shape), rng.random(shape))
    return np.where(pick > 0.9, TOP, r)


@st.composite
def poll_matrices(draw):
    """Row-normalised matrices of 1 to 9 rows, filled from one seed: zero
    arcs at a drawn share, weights log-uniform from 1e-9 to 1e9 or fractions
    whose sums round, and one neighbour for each row left empty."""
    n = draw(st.integers(1, 9))
    zeros = draw(st.sampled_from([0.0, 0.4, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adjacency = np.where(
        rng.random((n, n)) < 0.5,
        10.0 ** rng.uniform(-9.0, 9.0, (n, n)),
        rng.choice([0.1, 1 / 3, 1 / 7, 0.3], (n, n)),
    )
    adjacency[rng.random((n, n)) < zeros] = 0.0
    for i in np.flatnonzero(adjacency.sum(axis=1) == 0.0):
        adjacency[i, rng.integers(n)] = 1.0
    return row_normalize(adjacency)


@settings(max_examples=300, deadline=None)
@given(
    P=poll_matrices(),
    # narrow arrays search, wide ones start from the guide table
    size=st.one_of(st.integers(1, 20), st.integers(GUIDED_BATCH, 2 * GUIDED_BATCH)),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_matches_dense_reference(P, size, seed):
    table = graph_from_P(P).poll_cdf()
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, P.shape[0], size)
    r = table_uniforms(table, rng, size)
    expected = [dense_draw(P, row, u) for row, u in zip(rows, r)]
    assert table.draw(rows, r).tolist() == expected
    assert [int(table.draw(int(row), float(u))) for row, u in zip(rows, r)] == expected
    assert all(P[row, j] > 0.0 for row, j in zip(rows, expected))


@settings(max_examples=100, deadline=None)
@given(P=poll_matrices())
def test_cumulative_weights_equal_dense_cumsum_except_pin(P):
    table = graph_from_P(P).poll_cdf()
    rows, cols = np.nonzero(P)
    cum = table.keys.imag
    last = np.r_[rows[1:] != rows[:-1], True]
    assert np.array_equal(table.indices, cols)
    assert np.array_equal(table.keys.real, rows)
    assert np.array_equal(cum[~last], np.cumsum(P, axis=1)[rows, cols][~last])
    assert np.all(cum[last] == 1.0)


@st.composite
def clustered_poll_matrices(draw):
    """Rows of log-uniform weights from 1e-12 to 1, so cumulative weights
    bunch up and guided scans run long; zero-weight arcs and rows with a
    single neighbour.  Hypothesis picks the size, the zero and
    single-neighbour shares and a seed that fills the matrix."""
    n = draw(st.integers(1, 40))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9]))
    single = draw(st.sampled_from([0.0, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adjacency = 10.0 ** rng.uniform(-12.0, 0.0, (n, n))
    adjacency[rng.random((n, n)) < zeros] = 0.0
    for i in range(n):
        if not adjacency[i].any() or rng.random() < single:
            keep = rng.integers(n)
            adjacency[i, np.arange(n) != keep] = 0.0
            adjacency[i, keep] = 10.0 ** rng.uniform(-12.0, 0.0)
    return row_normalize(adjacency)


@settings(max_examples=300, deadline=None)
@given(P=clustered_poll_matrices(), data=st.data())
def test_guided_draw_matches_binary_search(P, data):
    # hypothesis picks the graph, the batch shape and a seed; the seed
    # fills the batch, which is too wide to draw element by element
    table = graph_from_P(P).poll_cdf()
    width = data.draw(st.one_of(
        st.sampled_from([GUIDED_BATCH - 1, GUIDED_BATCH, GUIDED_BATCH + 1]),
        st.integers(1, 3 * GUIDED_BATCH),
    ))
    runs = data.draw(st.sampled_from([None, 1, 2, 3]))
    shape = (width,) if runs is None else (runs, width)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, P.shape[0], width)
    r = table_uniforms(table, rng, shape)
    got = table.draw(rows, r)
    want = reference_poll_draw(table, rows, r)
    assert got.shape == want.shape == shape
    assert np.array_equal(got, want)


class TestGuidedPath:
    """Which search an array draw takes, and the binary-search fallback."""

    @staticmethod
    def searched(monkeypatch, table):
        sizes = []
        search = PollTable._search

        def spy(self, rows, r):
            sizes.append(np.size(r))
            return search(self, rows, r)

        monkeypatch.setattr(PollTable, "_search", spy)
        return sizes

    def test_narrow_batches_keep_the_binary_search(self, monkeypatch):
        table = load_edge_list(bundled_network_path("karate")).poll_cdf()
        rng = np.random.default_rng(1)

        def check(widths):
            for width in widths:
                rows = rng.integers(0, table.shape[0], width)
                r = rng.random(width)
                assert np.array_equal(table.draw(rows, r), reference_poll_draw(table, rows, r))

        check([1, GUIDED_BATCH - 1])
        assert table._guide is None  # built on the first guided draw only
        table.guide_table()
        sizes = self.searched(monkeypatch, table)
        check([1, GUIDED_BATCH - 1, GUIDED_BATCH])
        assert sizes == [1, GUIDED_BATCH - 1]

    def test_clustered_row_falls_back(self, monkeypatch):
        # row 0 holds 0.5, twenty weights of 1e-12, then 0.5: the uniform
        # 0.5 starts on the first entry and lands on the eleventh tiny one,
        # more forward steps than a guided draw makes
        P = np.zeros((2, 22))
        P[0, 0] = P[0, 21] = 0.5
        P[0, 1:21] = 1e-12
        P[1, 0] = 1.0
        P = np.vstack([row_normalize(P[:2]), np.eye(22)[2:]])
        table = graph_from_P(P).poll_cdf()
        table.guide_table()
        sizes = self.searched(monkeypatch, table)
        rows = np.zeros(GUIDED_BATCH, dtype=int)
        rows[::2] = 1
        r = np.full(GUIDED_BATCH, 0.5)
        got = table.draw(rows, r)
        assert np.array_equal(got, reference_poll_draw(table, rows, r))
        assert sizes == [GUIDED_BATCH // 2]
        assert set(got[1::2].tolist()) == {11}

    def test_guide_buckets_start_inside_their_row(self):
        graph, _ = ring_chords_instance(40, 6, 5, 3)
        table = graph.poll_cdf()
        assert table._guide is None
        buckets, bucket0, guide = table.guide_table()
        assert table.guide_table()[2] is guide
        ptr = np.searchsorted(table.keys.real, np.arange(graph.node_count + 1))
        for i in range(graph.node_count):
            m = GUIDE_BUCKETS * (ptr[i + 1] - ptr[i])
            assert buckets[i] == m
            starts = guide[bucket0[i]:bucket0[i] + m]
            assert starts[0] == ptr[i]
            assert np.all((ptr[i] <= starts) & (starts < ptr[i + 1]))
            for b, j in enumerate(starts.tolist()):
                assert np.all(table.keys.imag[ptr[i]:j] <= (b - 1) / m)
                assert table.keys.imag[j] > (b - 1) / m
        assert bucket0[-1] + buckets[-1] == len(guide)

    def test_largest_uniform_stays_in_the_last_bucket(self):
        # r * m rounds below the integer m for every r < 1
        m = np.arange(1.0, 2.0**16)
        assert np.array_equal((TOP * m).astype(np.intp), np.arange(2**16 - 1))


def test_table_is_built_once_and_lazily(karate_partition):
    graph = load_edge_list(bundled_network_path("karate"))
    run_exact_gd(graph, karate_partition, 5.0, n_iters=5)
    assert graph._poll_table is None
    table = graph.poll_cdf()
    assert graph.poll_cdf() is table
    assert table.shape == (graph.node_count, graph.node_count)


class TestLastNeighbourPin:
    """A uniform just below 1 must still poll a neighbour on rows that cumulate short of 1."""

    def test_karate_rows_fall_short_of_one(self, karate_graph):
        cum = np.cumsum(karate_graph.P, axis=1)
        assert cum[2, -1] == TOP and cum[3, -1] == TOP
        assert karate_graph.P[2, -1] == 0.0 and karate_graph.P[3, -1] == 0.0

    def test_sample_poll_targets(self, karate_graph):
        pollers = np.array([2, 3])
        polled = sample_poll_targets(karate_graph.poll_cdf(), pollers, ConstantUniforms(TOP))
        assert np.all(karate_graph.P[pollers, polled] > 0.0)

    def test_relay_token(self, karate_graph, karate_partition):
        everyone = frozenset(range(karate_graph.node_count))
        for node in (2, 3):
            token = relay_token(karate_graph, karate_partition, everyone, node, ConstantUniforms(TOP))
            assert token.hops == 1
            assert karate_graph.P[node, token.terminal] > 0.0

    def test_walk_batch(self, karate_graph):
        # node 33 is the only controlled node and not a neighbour of node 2;
        # every neighbour of 2 absorbs, so a walk from 2 that stays on the
        # graph scores nothing
        n = karate_graph.node_count
        alpha = np.zeros(n)
        alpha[33] = 0.5
        partition = AgentPartition(
            controlled=(33,),
            uncontrolled=(2,),
            stubborn=tuple(i for i in range(n) if i not in (2, 33)),
            alpha=alpha,
            h={i: 0.5 for i in range(n) if i not in (2, 33)},
            w={33: SaturatingCurve()},
        )
        assert karate_graph.P[2, 33] == 0.0
        contrib = _walk_batch(karate_graph, partition, np.array([2]), 2, ConstantUniforms(TOP))
        assert np.array_equal(contrib, np.zeros((1, 1)))


@st.composite
def sampler_instances(draw):
    """A random_instance or ring_chords_instance, its controls' alpha
    optionally raised to 1 (scheme-2 weights then reach exactly 0)."""
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        graph, partition = random_instance(seed)
    else:
        n = draw(st.integers(8, 60))
        n_stubborn = draw(st.integers(1, n // 4))
        n_controlled = draw(st.integers(1, n - n_stubborn - 1))
        graph, partition = ring_chords_instance(n, n_controlled, n_stubborn, seed)
    ctrl = list(partition.controlled)
    alpha = partition.alpha.copy()
    mode = draw(st.sampled_from(["as drawn", "all one", "mixed"]))
    if mode == "all one":
        alpha[ctrl] = 1.0
    elif mode == "mixed":
        raise_to_one = draw(st.lists(st.booleans(), min_size=len(ctrl), max_size=len(ctrl)))
        alpha[[c for c, up in zip(ctrl, raise_to_one) if up]] = 1.0
    return graph, replace(partition, alpha=alpha)


class TestWalkKernelMatchesReference:
    """The live-walk kernel gives the previous kernel's contributions bit for
    bit and leaves the generator in the same state."""

    @settings(max_examples=150, deadline=None)
    @given(instance=sampler_instances(), scheme=st.sampled_from([1, 2]), data=st.data())
    def test_random_starts(self, instance, scheme, data):
        graph, partition = instance
        free = [i for i in range(graph.node_count) if i not in partition.stubborn]
        # a multiset: repeated starts and starts on controlled nodes, some
        # batches just below, at or above the width where the lockstep
        # moves from arrays to lists
        width = data.draw(st.one_of(
            st.integers(0, 3 * len(free)),
            st.sampled_from([1, NARROW_FRONT - 1, NARROW_FRONT, NARROW_FRONT + 1, 3 * NARROW_FRONT]),
        ))
        starts = np.array(data.draw(st.lists(st.sampled_from(free), min_size=width, max_size=width)), dtype=int)
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _walk_batch(graph, partition, starts, scheme, rng)
        want = reference_walk_batch(graph, partition, starts, scheme, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("scheme", [1, 2])
    @pytest.mark.parametrize("alpha", [0.6, 1.0])
    def test_karate_every_start_repeated(self, karate_graph, karate_partition, scheme, alpha):
        partition = replace(karate_partition, alpha=np.where(karate_partition.alpha > 0, alpha, 0.0))
        free = [i for i in range(karate_graph.node_count) if i not in partition.stubborn]
        starts = np.repeat(free, 3)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(5):
            got = _walk_batch(karate_graph, partition, starts, scheme, rng)
            want = reference_walk_batch(karate_graph, partition, starts, scheme, ref_rng)
            assert got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("front", [NARROW_FRONT, 0])
@pytest.mark.parametrize("scheme", [1, 2])
def test_step_cap_counts_steps_of_both_phases(monkeypatch, scheme, front):
    # a chain 0 -> 1 -> ... -> 6 -> stubborn sink 7: the walk from 0
    # takes 7 steps, the first of them on arrays next to NARROW_FRONT
    # walks from 6, which all end there; front 0 keeps every step on
    # arrays, as the kernel did before the narrow front
    length = 7
    P = np.zeros((length + 1, length + 1))
    P[np.arange(length), np.arange(1, length + 1)] = 1.0
    P[length, length] = 1.0
    partition = AgentPartition(
        controlled=(), uncontrolled=tuple(range(length)), stubborn=(length,),
        alpha=np.zeros(length + 1), h={length: 0.5}, w={},
    )
    graph = graph_from_P(P)
    starts = np.array([length - 1] * NARROW_FRONT + [0])
    monkeypatch.setattr(sgd_mod, "NARROW_FRONT", front)
    for module in (sgd_mod, helpers):
        monkeypatch.setattr(module, "WALK_STEP_CAP", length)
    got = _walk_batch(graph, partition, starts, scheme, np.random.default_rng(0))
    assert got.shape == (len(starts), 0)
    assert np.array_equal(got, reference_walk_batch(graph, partition, starts, scheme, np.random.default_rng(0)))
    for module in (sgd_mod, helpers):
        monkeypatch.setattr(module, "WALK_STEP_CAP", length - 1)
    for walk_batch in (_walk_batch, reference_walk_batch):
        with pytest.raises(NonAbsorbingError, match=f"walk from node 0 exceeded {length - 1} steps"):
            walk_batch(graph, partition, starts, scheme, np.random.default_rng(0))


class TestRelayMatchesReference:
    """The list-backed relay gives the previous relay's tokens and leaves the
    generator in the same state, also when stubborn agents are hidden."""

    @settings(max_examples=150, deadline=None)
    @given(instance=sampler_instances(), data=st.data())
    def test_random_observed_sets(self, instance, data):
        graph, partition = instance
        n = graph.node_count
        # any subset: hidden stubborn agents must still end a relay
        observed = data.draw(st.frozensets(st.integers(0, n - 1)))
        if data.draw(st.booleans()):
            observed = tuple(sorted(observed))
        nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [relay_token(graph, partition, observed, v, rng, stamp=k) for k, v in enumerate(nodes)]
        want = [reference_relay_token(graph, partition, observed, v, ref_rng, stamp=k) for k, v in enumerate(nodes)]
        assert got == want
        assert rng.random() == ref_rng.random()


class TestSharedLookups:
    def test_scalar_lists_are_built_lazily_and_once(self):
        graph = load_edge_list(bundled_network_path("karate"))
        table = graph.poll_cdf()
        sample_poll_targets(table, np.arange(graph.node_count), np.random.default_rng(0))
        assert table._lists is None
        lists = table.row_lists()
        assert table.row_lists() is lists
        ptr, cum, cols = lists
        assert ptr[0] == 0 and ptr[-1] == len(cum) == len(cols)
        assert np.array_equal(np.diff(ptr), (graph.P > 0).sum(axis=1))

    def test_node_codes(self, karate_partition):
        codes = karate_partition.node_codes()
        assert karate_partition.node_codes() is codes
        assert [codes[i] for i in karate_partition.controlled] == list(range(len(karate_partition.controlled)))
        assert all(codes[i] == UNCONTROLLED for i in karate_partition.uncontrolled)
        assert all(codes[i] == STUBBORN for i in karate_partition.stubborn)
        assert not codes.flags.writeable
        assert not pickle.loads(pickle.dumps(karate_partition)).node_codes().flags.writeable

    def test_stubborn_set(self, karate_partition):
        members = karate_partition.stubborn_set()
        assert karate_partition.stubborn_set() is members
        assert isinstance(members, frozenset)
        assert members == set(karate_partition.stubborn)
        assert pickle.loads(pickle.dumps(karate_partition)).stubborn_set() == members
        moved = replace(
            karate_partition, stubborn=(), h={},
            uncontrolled=karate_partition.uncontrolled + karate_partition.stubborn,
        )
        assert moved.stubborn_set() == frozenset()

    def test_replaced_partition_gets_its_own_codes(self, karate_partition):
        karate_partition.node_codes()
        moved = replace(
            karate_partition,
            controlled=karate_partition.stubborn,
            stubborn=karate_partition.controlled,
            alpha=np.where(np.isin(np.arange(34), karate_partition.stubborn), 0.5, 0.0),
            h={i: 0.5 for i in karate_partition.controlled},
            w={i: karate_partition.w[karate_partition.controlled[0]] for i in karate_partition.stubborn},
        )
        assert all(moved.node_codes()[i] == STUBBORN for i in karate_partition.controlled)
