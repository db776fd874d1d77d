"""The cached poll table: exact draws against the dense reference, and the last-neighbour pin."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionshape.curves import SaturatingCurve
from opinionshape.dynamics import sample_poll_targets
from opinionshape.network import AgentPartition, bundled_network_path, load_edge_list, row_normalize
from opinionshape.optim import run_exact_gd
from opinionshape.partial_obs import relay_token
from opinionshape.sgd import _walk_batch

from helpers import graph_from_P

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


@st.composite
def poll_matrices(draw):
    n = draw(st.integers(1, 9))
    weight = st.one_of(st.just(0.0), st.floats(1e-9, 1e9), st.sampled_from([0.1, 1 / 3, 1 / 7, 0.3]))
    adjacency = np.array(draw(st.lists(weight, min_size=n * n, max_size=n * n))).reshape(n, n)
    for i in np.flatnonzero(adjacency.sum(axis=1) == 0.0):
        adjacency[i, draw(st.integers(0, n - 1))] = 1.0
    return row_normalize(adjacency)


uniforms = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, TOP, 0.5, 1 / 3]))


@settings(max_examples=300, deadline=None)
@given(P=poll_matrices(), data=st.data())
def test_draw_matches_dense_reference(P, data):
    graph = graph_from_P(P)
    n = graph.node_count
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20)))
    r = np.array(data.draw(st.lists(uniforms, min_size=len(rows), max_size=len(rows))))
    table = graph.poll_cdf()
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
