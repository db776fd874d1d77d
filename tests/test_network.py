from __future__ import annotations

import pickle
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionshape import network
from opinionshape.curves import SaturatingCurve
from opinionshape.errors import DanglingNodeError, EdgeListParseError, InfeasibleError, NonFiniteRowError
from opinionshape.general import model_from_partition
from opinionshape.network import (
    ActivationModel,
    AgentPartition,
    bundled_network_path,
    check_feasible,
    load_edge_list,
    random_partition,
    row_normalize,
    stationary_system,
    substochastic_matrix,
)

from helpers import graph_from_P, random_instance, reference_load_edge_list, reference_poll_table


def write(tmp_path, text, name="g.edges"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRowNormalize:
    def test_two_cycle(self):
        out = row_normalize(np.array([[0.0, 2.0], [3.0, 0.0]]))
        assert np.array_equal(out, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_mixed_weights(self):
        out = row_normalize(np.array([[1.0, 1.0], [0.0, 4.0]]))
        assert np.array_equal(out, np.array([[0.5, 0.5], [0.0, 1.0]]))

    def test_zero_row_is_error(self):
        with pytest.raises(DanglingNodeError) as err:
            row_normalize(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert err.value.node == 0

    @pytest.mark.parametrize("first", [[0.0, 1e308, 1e308], [0.0, np.nan, 1.0]])
    def test_non_finite_row_sum_names_the_node(self, first):
        adjacency = np.array([[1.0, 0.0, 1.0], first, [1.0, 1.0, 0.0]])
        with pytest.raises(NonFiniteRowError, match="node 1") as err:
            row_normalize(adjacency)
        assert err.value.node == 1

    def test_zero_entries_preserved(self):
        rng = np.random.default_rng(3)
        adj = rng.uniform(0, 1, (6, 6)) * (rng.random((6, 6)) < 0.5)
        adj[:, 0] += 0.1  # no dangling rows
        out = row_normalize(adj)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((adj == 0) == (out == 0))


class TestLoadEdgeList:
    def test_symmetric_two_cycle(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 0\n"))
        assert g.node_count == 2
        assert np.array_equal(g.P, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_equal_weights_normalize_to_halves(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1 2.0\n0 2 2.0\n"))
        assert g.P[0, 1] == 0.5
        assert g.P[0, 2] == 0.5

    def test_karate_is_34_nodes_78_edges(self, karate_graph):
        assert karate_graph.node_count == 34
        assert len(karate_graph.edges) == 78
        assert np.allclose(karate_graph.P.sum(axis=1), 1.0, atol=1e-12)

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list(write(tmp_path, "0 1\n0 x\n"))

    def test_column_count_mismatch(self, tmp_path):
        with pytest.raises(EdgeListParseError, match="line 3"):
            load_edge_list(write(tmp_path, "0 1\n1 2\n2 0 1.0\n"))

    def test_directed_dangling_node(self, tmp_path):
        with pytest.raises(DanglingNodeError):
            load_edge_list(write(tmp_path, "0 1\n"), directed=True)

    def test_overflowing_weights_name_the_node(self, tmp_path):
        # the two 1e308 arcs leave node 0 with an infinite weight sum
        with pytest.raises(NonFiniteRowError, match="node 0"):
            load_edge_list(write(tmp_path, "0 1 1e308\n0 2 1e308\n1 2 1.0\n"))

    def test_nan_poll_row_rejected(self):
        P = np.array([[np.nan, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="sum to 1"):
            graph_from_P(P)

    def test_one_based_ids_normalized(self, tmp_path):
        g = load_edge_list(write(tmp_path, "1 2\n2 3\n3 1\n"))
        assert g.node_count == 3
        assert g.names == {0: 1, 1: 2, 2: 3}

    def test_comments_and_blanks_ignored(self, tmp_path):
        g = load_edge_list(write(tmp_path, "# header\n\n0 1  # trailing\n1 0\n"))
        assert g.node_count == 2

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_property_random_edge_lists(self, data):
        labels = data.draw(st.lists(st.integers(-5, 60), min_size=1, max_size=12, unique=True))
        weight = st.floats(0.25, 8.0)
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels), weight), max_size=30))
        # a ring through every label keeps each node's out-degree positive when directed
        ring = [(a, b, data.draw(weight)) for a, b in zip(labels, labels[1:] + labels[:1])]
        raw = pairs + ring
        directed = data.draw(st.booleans())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.edges"
            path.write_text("".join(f"{s} {d} {w!r}\n" for s, d, w in raw))
            g = load_edge_list(path, directed=directed)
        assert g.node_count == len(labels)
        assert np.all(g.P >= 0.0)
        assert np.allclose(g.P.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert sorted(g.names.values()) == sorted(labels)
        assert sorted(g.names) == list(range(g.node_count))
        assert [(g.names[i], g.names[j], w) for i, j, w in g.edges] == raw
        for i, j, _ in g.edges:
            assert g.P[i, j] > 0.0
            assert directed or g.P[j, i] > 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_arc_by_arc_loader(self, data):
        # label gaps, labels past int64, duplicate weighted arcs, loops,
        # comments, blanks and the occasional bad line
        labels = data.draw(
            st.lists(
                st.one_of(st.integers(-3, 40), st.sampled_from([2**63, 2**70, -(2**65)])),
                min_size=1, max_size=8, unique=True,
            )
        )
        label = st.sampled_from(labels).map(str) | st.sampled_from(["2_0", "1_000"])
        weight = st.sampled_from(["1.0", "0.5", "3", "1e-3", "2.5e2", "0.1", "0", "1e16"]) | st.floats(0.0, 10.0).map(repr)
        arc = st.tuples(label, label, weight).map(" ".join)
        loop = st.tuples(st.sampled_from(labels).map(str), weight).map(lambda t: f"{t[0]} {t[0]} {t[1]}")
        decoration = st.sampled_from(["", "# comment", "   ", "\t# tab comment"])
        bad = st.sampled_from(["0 x 1.0", "1 2", "1 2 3 4", "1 2 abc", "1 2 -1.0", "1 2 inf", "1.5 2 1.0", "1 2 nan"])
        kinds = [arc, arc, arc, loop, decoration] + ([bad] if data.draw(st.booleans()) else [])
        lines = data.draw(st.lists(st.one_of(kinds), min_size=1, max_size=25))
        if data.draw(st.booleans()):
            # drop the weights: an unweighted list
            lines = [" ".join(line.split()[:2]) if not line.lstrip().startswith("#") and len(line.split()) == 3 else line
                     for line in lines]
        trailing = data.draw(st.sampled_from(["", "  # trailing"]))
        text = "\n".join(line + trailing if line.strip() else line for line in lines) + "\n"
        weighted = data.draw(st.sampled_from([None, True, False]))
        directed = data.draw(st.booleans())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.edges"
            path.write_text(text)
            try:
                want = reference_load_edge_list(path, weighted=weighted, directed=directed)
            except (EdgeListParseError, DanglingNodeError, NonFiniteRowError) as exc:
                with pytest.raises(type(exc)) as err:
                    load_edge_list(path, weighted=weighted, directed=directed)
                assert str(err.value) == str(exc)
                assert getattr(err.value, "line_no", None) == getattr(exc, "line_no", None)
                return
            got = load_edge_list(path, weighted=weighted, directed=directed)
        assert got.P.tobytes() == want.P.tobytes()
        assert got.edges == want.edges
        assert got.names == want.names
        assert got.node_count == want.node_count and got.undirected == want.undirected
        table, want_table = got.poll_cdf(), reference_poll_table(want.P)
        assert table.keys.tobytes() == want_table.keys.tobytes()
        assert table.indices.tobytes() == want_table.indices.tobytes()
        assert table.row_lists() == want_table.row_lists()
        # every other node stubborn and the rest controlled, with alpha up
        # to 1 (a zero row of A): solvable whatever the arcs
        n = got.node_count
        controlled, stubborn = tuple(range(1, n, 2)), tuple(range(0, n, 2))
        alpha = np.zeros(n)
        alpha[list(controlled)] = [data.draw(st.sampled_from([0.3, 0.6, 1.0])) for _ in controlled]
        partition = AgentPartition(
            controlled=controlled, uncontrolled=(), stubborn=stubborn, alpha=alpha,
            h={i: 0.5 for i in stubborn}, w={i: SaturatingCurve() for i in controlled},
        )
        damp = 1.0 - alpha
        damp[list(stubborn)] = 0.0
        want_system = np.eye(n) - damp[:, None] * want.P
        # signed zeros included
        assert stationary_system(got, partition).tobytes() == want_system.tobytes()
        want_coef = np.linalg.solve(want_system.T, np.ones(n))
        assert got.payoff_adjoint(partition).tobytes() == want_coef.tobytes()

    def test_row_sums_have_the_dense_pairwise_bits(self, tmp_path):
        # node 0's ten arcs spread over 180 columns: numpy sums the dense
        # row pairwise to 57.7, while a left-to-right sum of the ten weights
        # gives 57.699999999999996, and P's bits follow the row sum
        weights = [0.4, 1.3, 6.7, 6.4, 6.1, 3.9, 9.9, 9.7, 6.8, 6.5]
        targets = [1, *range(20, 200, 20)]
        dense_row = np.zeros(200)
        dense_row[targets] = weights
        sequential = 0.0
        for w in weights:
            sequential += w
        assert sequential != dense_row.sum()
        lines = [f"0 {j} {w!r}" for j, w in zip(targets, weights)]
        lines += [f"{i} {(i + 1) % 200} 1.0" for i in range(1, 200)]
        path = write(tmp_path, "\n".join(lines) + "\n")
        got = load_edge_list(path, directed=True)
        want = reference_load_edge_list(path, directed=True)
        assert got.P.tobytes() == want.P.tobytes()
        assert got.vals[:10].tobytes() == (np.array(weights) / dense_row.sum()).tobytes()

    def test_sparse_rows_stay_read_only_after_pickling(self, karate_graph):
        copy = pickle.loads(pickle.dumps(karate_graph))
        for graph in (karate_graph, copy):
            assert not any(a.flags.writeable for a in (graph.ptr, graph.cols, graph.vals, graph.P))
        assert copy.P.tobytes() == karate_graph.P.tobytes()

    @pytest.mark.parametrize("directed", [False, True])
    def test_repeated_arcs_add_up_in_file_order(self, tmp_path, directed):
        # 1 + 1e16 + 1 rounds to 1e16 but 1 + 1 + 1e16 does not, so adding
        # the reverse arcs after all forward ones would change P's bits
        path = write(tmp_path, "0 1 1.0\n1 0 1e16\n0 1 1.0\n0 2 1.0\n2 1 1.0\n")
        got = load_edge_list(path, directed=directed)
        want = reference_load_edge_list(path, directed=directed)
        assert got.P.tobytes() == want.P.tobytes()

    def test_deterministic_reload(self, tmp_path):
        path = write(tmp_path, "0 1 1.5\n1 2 0.5\n2 0 2.0\n")
        g1 = load_edge_list(path)
        g2 = load_edge_list(path)
        assert np.array_equal(g1.P, g2.P)
        assert g1.edges == g2.edges


def load_like_the_oracle(path, **kwargs):
    """``load_edge_list`` on ``path`` against ``reference_load_edge_list``:
    P's bytes, the arcs and the labels, or the parse error's message and
    line.  No warning may escape the load.  Returns the graph, or None
    after an error."""
    try:
        want = reference_load_edge_list(path, **kwargs)
    except EdgeListParseError as exc:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EdgeListParseError) as err:
                load_edge_list(path, **kwargs)
        assert str(err.value) == str(exc)
        assert err.value.line_no == exc.line_no
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_edge_list(path, **kwargs)
    assert got.P.tobytes() == want.P.tobytes()
    # repr tells -0.0 from 0.0 and numpy integers from Python ones
    assert got.edges == want.edges and repr(got.edges) == repr(want.edges)
    assert got.names == want.names and repr(got.names) == repr(want.names)
    return got


@pytest.fixture
def taken(monkeypatch):
    """Calls of the line loop and of the dense row sums, by name."""
    counts = {"_parse_lines": 0, "_dense_row_sums": 0}
    for name in counts:
        def counted(*args, _real=getattr(network, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(network, name, counted)
    return counts


class TestCReader:
    """The C reader reads what it accepts as the oracle does, and hands the
    rest to the line loop, which reads it or raises the oracle's error."""

    @pytest.mark.parametrize(
        "label, fast",
        [
            ("1.0", False), ("5.", False), ("1e3", False), ("0x10", False), ("1_000", False),
            ("+5", True), ("-0", True), ("05", True), ("١", False),
            (str(2**63), False), (str(-(2**63)), True), (str(2**63 - 1), True), (str(-(2**63) - 1), False),
        ],
    )
    def test_labels(self, tmp_path, taken, label, fast):
        path = write(tmp_path, f"0 1\n{label} 1\n2 {label}\n")
        load_like_the_oracle(path)
        assert taken["_parse_lines"] == (0 if fast else 1)

    @pytest.mark.parametrize("sep", ["\xa0", "\x0b", "\x0c", "\x1c", "\x85", " ", "　"])
    def test_unicode_whitespace_separates(self, tmp_path, taken, sep):
        path = write(tmp_path, f"0{sep}1\n1{sep}{sep}2{sep}\n{sep}2 0 #{sep}x\n{sep}\n")
        assert load_like_the_oracle(path).node_count == 3
        assert taken["_parse_lines"] == 0

    def test_nul_does_not_separate(self, tmp_path, taken):
        assert load_like_the_oracle(write(tmp_path, "0 1\n1\x002\n")) is None
        assert taken["_parse_lines"] == 1

    @pytest.mark.parametrize(
        "text",
        ["0 1\r\n1 2\r\n2 0\r\n", "0 1\r1 2\r2 0\r", "0 1\r\n1 2\r2 0\n", "0 1\r\n1 x\r\n", "0 1\r\r1 x\r"],
    )
    def test_line_ends(self, tmp_path, text):
        path = tmp_path / "g.edges"
        path.write_bytes(text.encode())
        load_like_the_oracle(path)

    @pytest.mark.parametrize(
        "weight, fast",
        [("inf", False), ("nan", False), ("-1.0", False), ("-0.0", True), ("1e-400", True),
         ("1_0", False), (".5", True), ("1.", True)],
    )
    def test_weights(self, tmp_path, taken, weight, fast):
        path = write(tmp_path, f"0 1 1.0\n1 2 {weight}\n2 0 1.0\n")
        load_like_the_oracle(path)
        assert taken["_parse_lines"] == (0 if fast else 1)

    @pytest.mark.parametrize("weighted", [None, True, False])
    @pytest.mark.parametrize("text", ["", "# only a comment\n\n   \t# another\n"])
    def test_no_data_is_the_empty_error(self, tmp_path, text, weighted):
        assert load_like_the_oracle(write(tmp_path, text), weighted=weighted) is None
        with pytest.raises(EdgeListParseError, match="^line 0: edge list is empty$"):
            load_edge_list(write(tmp_path, text), weighted=weighted)

    @pytest.mark.parametrize("second, dense", [(2**52 - 1, 0), (2**52, 1)])
    def test_integer_row_sums_below_2_53_skip_the_dense_rows(self, tmp_path, taken, second, dense):
        # node 0's weights sum to 2^53 - 1, or to 2^53, where the dense rows
        # decide the bits
        path = write(tmp_path, f"0 1 {2**52}\n0 2 {second}\n1 2 1\n2 0 3\n")
        load_like_the_oracle(path, directed=True)
        assert taken == {"_parse_lines": 0, "_dense_row_sums": dense}

    def test_past_2_53_the_dense_rows_give_the_bits(self, tmp_path, taken):
        # 2^53 + 1 + 1 rounds to 2^53 left to right, but the dense row's
        # pairwise sum adds the ones first
        ring = "".join(f"{i} {(i + 1) % 24} 1\n" for i in range(1, 24))
        got = load_like_the_oracle(write(tmp_path, f"0 1 {2**53}\n0 2 1\n0 3 1\n" + ring), directed=True)
        assert got.vals[0] == 2**53 / (2**53 + 2)
        assert taken["_dense_row_sums"] == 1

    @pytest.mark.parametrize("weighted", [False, True])
    def test_non_integer_weights_take_the_dense_rows(self, tmp_path, taken, weighted):
        text = "0 1 0.5\n1 2 1\n2 0 1\n" if weighted else "0 1\n1 2\n2 0\n"
        load_like_the_oracle(write(tmp_path, text))
        assert taken == {"_parse_lines": 0, "_dense_row_sums": int(weighted)}


def _peak_bytes(call):
    """The result of ``call()`` and the peak of the memory it allocated, as
    tracemalloc sees it (numpy reports its buffers; LAPACK's do not count)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_base_scheme_build_holds_one_dense_array(self, tmp_path):
        # a ring plus three random arcs per node; only the stationary system
        # is n x n: the load and the poll table are O(edges + n)
        n = 1000
        rng = np.random.default_rng(11)
        lines = []
        for i in range(n):
            others = np.delete(np.arange(n), sorted({i, (i + 1) % n}))
            lines += [f"{i} {(i + 1) % n}"] + [f"{i} {j}" for j in sorted(rng.choice(others, 3, replace=False))]
        path = write(tmp_path, "\n".join(lines) + "\n")
        dense = n * n * 8
        graph, peak = _peak_bytes(lambda: load_edge_list(path))
        assert peak < 0.5 * dense
        _, peak = _peak_bytes(lambda: random_partition(graph, (20, 960, 20), 0.6, seed=1))
        assert peak < 1.5 * dense
        _, peak = _peak_bytes(lambda: graph.poll_cdf().row_lists())
        assert peak < 0.5 * dense
        assert graph._dense is None

    def test_unweighted_load_peaks_below_one_dense_row_block(self, tmp_path):
        # integer weights sum exactly in one bincount: no dense row block
        # of _dense_row_sums is allocated
        n = 1000
        path = write(tmp_path, "".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        _, peak = _peak_bytes(lambda: load_edge_list(path))
        assert peak < network._ROW_SUM_CELLS * 8


class TestRandomPartition:
    def test_karate_sizes(self, karate_graph):
        p = random_partition(karate_graph, (3, 28, 3), 0.6, seed=1)
        assert (len(p.controlled), len(p.uncontrolled), len(p.stubborn)) == (3, 28, 3)

    def test_all_stubborn(self, karate_graph):
        p = random_partition(karate_graph, (0, 0, 34), 0.6, seed=1)
        assert len(p.stubborn) == 34
        assert all(0.0 <= p.h[i] <= 1.0 for i in p.stubborn)

    def test_same_seed_identical(self, karate_graph):
        p1 = random_partition(karate_graph, (3, 28, 3), 0.6, seed=9)
        p2 = random_partition(karate_graph, (3, 28, 3), 0.6, seed=9)
        assert p1.controlled == p2.controlled
        assert p1.stubborn == p2.stubborn
        assert p1.h == p2.h

    def test_size_mismatch(self, karate_graph):
        with pytest.raises(ValueError, match="sum"):
            random_partition(karate_graph, (3, 28, 4), 0.6, seed=0)

    def test_alpha_on_controlled_only(self, karate_graph):
        p = random_partition(karate_graph, (3, 28, 3), 0.6, seed=2)
        assert np.all(p.alpha[list(p.controlled)] == 0.6)
        off = sorted(set(range(34)) - set(p.controlled))
        assert np.all(p.alpha[off] == 0.0)


class TestPartitionInvariants:
    def test_overlapping_classes_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            AgentPartition(
                controlled=(0,),
                uncontrolled=(0, 1),
                stubborn=(2,),
                alpha=np.array([0.5, 0.0, 0.0]),
                h={2: 0.5},
                w={0: SaturatingCurve()},
            )

    def test_non_exhaustive_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            AgentPartition(
                controlled=(0,),
                uncontrolled=(),
                stubborn=(2,),
                alpha=np.array([0.5, 0.0, 0.0]),
                h={2: 0.5},
                w={0: SaturatingCurve()},
            )

    def test_h_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="h"):
            AgentPartition(
                controlled=(0,),
                uncontrolled=(1,),
                stubborn=(2,),
                alpha=np.array([0.5, 0.0, 0.0]),
                h={2: 1.5},
                w={0: SaturatingCurve()},
            )


class TestActivationModel:
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.5, 1.5])
    def test_probability_outside_the_unit_interval_rejected(self, bad):
        # a NaN probability would fail every ``rng.random() < q`` coin, so
        # that agent would never wake
        with pytest.raises(ValueError, match="activation probabilities"):
            ActivationModel("asynchronous", q=np.array([bad, 0.5]))

    def test_probabilities_in_the_unit_interval_accepted(self):
        assert ActivationModel("asynchronous", q=np.array([1.0, 0.5])).mode == "asynchronous"


class TestIdentityEquality:
    """The array-holding frozen dataclasses compare and hash by identity:
    value equality would compare arrays, which raises."""

    @staticmethod
    def pairs():
        graphs = [load_edge_list(bundled_network_path("karate")) for _ in range(2)]
        partitions = [random_partition(graphs[0], (3, 28, 3), 0.6, seed=0) for _ in range(2)]
        return {
            "graph": graphs,
            "poll table": [g.poll_cdf() for g in graphs],
            "partition": partitions,
            "activation": [ActivationModel("asynchronous", q=np.full(34, 0.5)) for _ in range(2)],
            "general model": [model_from_partition(partitions[0]) for _ in range(2)],
        }

    def test_equal_builds_compare_unequal_without_raising(self):
        for name, (first, second) in self.pairs().items():
            assert first == first, name
            assert first != second, name

    def test_each_can_be_a_dict_key(self):
        for name, (first, second) in self.pairs().items():
            keyed = {first: 1, second: 2}
            assert keyed[first] == 1 and keyed[second] == 2, name


class TestSubstochastic:
    def test_stubborn_rows_zero(self, karate_graph, karate_partition):
        A = substochastic_matrix(karate_graph, karate_partition)
        for i in karate_partition.stubborn:
            assert np.all(A[i] == 0.0)

    def test_controlled_row_damped(self):
        g = graph_from_P(np.array([[0.0, 1.0], [1.0, 0.0]]))
        p = AgentPartition(
            controlled=(0,),
            uncontrolled=(1,),
            stubborn=(),
            alpha=np.array([0.6, 0.0]),
            h={},
            w={0: SaturatingCurve()},
        )
        A = substochastic_matrix(g, p)
        assert A[0, 1] == pytest.approx(0.4)

    def test_uncontrolled_rows_equal_P(self, karate_graph, karate_partition):
        A = substochastic_matrix(karate_graph, karate_partition)
        for i in karate_partition.uncontrolled:
            assert np.array_equal(A[i], karate_graph.P[i])

    def test_row_sums(self, karate_graph, karate_partition):
        A = substochastic_matrix(karate_graph, karate_partition)
        sums = A.sum(axis=1)
        assert np.all(A >= 0.0)
        assert np.all(sums <= 1.0 + 1e-12)
        for i in karate_partition.controlled:
            assert sums[i] == pytest.approx(1.0 - karate_partition.alpha[i])
        for i in karate_partition.stubborn:
            assert sums[i] == 0.0


class TestFeasibility:
    def test_spectral_radius_below_one_on_random_instances(self):
        for seed in range(8):
            graph, partition = random_instance(seed, max_nodes=25)
            A = substochastic_matrix(graph, partition)
            rho = np.max(np.abs(np.linalg.eigvals(A)))
            assert rho < 1.0
            check_feasible(graph, partition)

    def test_adjoint_residual_above_tolerance_raises(self, karate_partition, monkeypatch):
        # an adjoint off by 1e-4 in one entry leaves a residual of about
        # 1e-4: above the 1e-6 bound, far below 1e-2
        exact = network.solve

        def off_solve(system, rhs):
            x = exact(system, rhs)
            x[0] += 1e-4
            return x

        graph = load_edge_list(bundled_network_path("karate"))
        monkeypatch.setattr(network, "solve", off_solve)
        with pytest.raises(InfeasibleError, match="residual"):
            graph.payoff_adjoint(karate_partition)

    def test_infeasible_instance_rejected(self):
        # no stubborn agents and no planner influence: singular system
        g = graph_from_P(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(InfeasibleError):
            random_partition(g, (2, 0, 0), 0.0, seed=0)
