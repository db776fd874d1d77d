"""Batched reward curves, the in-place sas tick, the general model's
one-row kernels, the gossip step and the partial-observation oracles
against their previous scalar, temporary-allocating, per-event and
per-entry implementations, kept in ``helpers.py``."""

from __future__ import annotations

import math
import pickle
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionshape import sas
from opinionshape.curves import _UFUNC_WIDTH, ConstantCurve, LinearCurve, SaturatingCurve, group_curves
from opinionshape.dynamics import gossip_step, initial_state, payoff_fn
from opinionshape.errors import DivergenceError
from opinionshape.general import (
    GeneralModel,
    _merged_groups,
    general_grad_update,
    known_p_updates,
    study_model,
    value_update,
)
from opinionshape.network import ActivationModel, AgentPartition
from opinionshape.optim import LocalClocks, StepSchedule
from opinionshape.partial_obs import hit_law_oracle, observed_set, restricted_grad_oracle, sample_hidden
from opinionshape.sas import _tick_fast_updates, run_sas, sas_fast_update

from helpers import (
    graph_from_P,
    reference_general_grad_update,
    reference_gossip_step,
    reference_hit_law_oracle,
    reference_known_p_updates,
    reference_relax_scalars,
    reference_restricted_grad_oracle,
    reference_tables,
    reference_tick_fast_updates,
    reference_value_update,
    reference_w_derivs,
    reference_w_values,
    ring_chords_instance,
)


@dataclass(frozen=True)
class PeakedCurve:
    """x - x^2 / 2, with the scalar methods only."""

    def value(self, x: float) -> float:
        return x - 0.5 * x * x

    def deriv(self, x: float) -> float:
        return 1.0 - x


@dataclass(frozen=True)
class RampCurve:
    """A convex curve: w' grows with u, so the sas table outgrows its bound."""

    def value(self, x: float) -> float:
        return min(1.0, 0.1 * x + 0.5 * x * x)

    def deriv(self, x: float) -> float:
        return 0.1 + x


CURVES = st.one_of(
    st.floats(1e-3, 10.0).map(SaturatingCurve),
    st.floats(0.0, 2.0).map(LinearCurve),
    st.floats(0.0, 1.0).map(ConstantCurve),
    st.just(PeakedCurve()),
)
CONTROLS = st.one_of(
    st.sampled_from([0.0, 1e160, 1e308, 1e-300, 5.0]),
    st.floats(0.0, 1e3),
    st.floats(0.0, 1e308),
)


def partition_with(curves: list) -> AgentPartition:
    """Controls 0..len(curves)-1 with the given curves, plus one uncontrolled node."""
    n_ctrl = len(curves)
    alpha = np.zeros(n_ctrl + 1)
    alpha[:n_ctrl] = 0.5
    return AgentPartition(
        controlled=tuple(range(n_ctrl)),
        uncontrolled=(n_ctrl,),
        stubborn=(),
        alpha=alpha,
        h={},
        w=dict(enumerate(curves)),
    )


def assert_matches_scalar(partition: AgentPartition, u: np.ndarray) -> None:
    assert partition.w_values(u).tobytes() == reference_w_values(partition, u).tobytes()
    assert partition.w_derivs(u).tobytes() == reference_w_derivs(partition, u).tobytes()


class TestCurveGroups:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_shared_and_distinct_curves(self, data):
        # a few curve objects, each control picks one: groups share objects
        pool = data.draw(st.lists(CURVES, min_size=1, max_size=4))
        n_ctrl = data.draw(st.integers(0, 12))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_ctrl, max_size=n_ctrl))
        partition = partition_with([pool[k] for k in picks])
        u = np.array(data.draw(st.lists(CONTROLS, min_size=n_ctrl, max_size=n_ctrl)), dtype=float)
        assert_matches_scalar(partition, u)
        assert len(partition.curve_groups()) == len({id(pool[k]) for k in picks})

    @pytest.mark.parametrize("curve", [SaturatingCurve(0.1), LinearCurve(0.3), ConstantCurve(0.4), PeakedCurve()])
    def test_one_curve_for_every_control(self, curve):
        partition = partition_with([curve] * 6)
        (group,) = partition.curve_groups()
        assert group[0] is curve and group[1].tolist() == list(range(6))
        assert_matches_scalar(partition, np.array([0.0, 1e-300, 0.7, 5.0, 1e160, 1e308]))

    def test_empty_control_set(self):
        partition = partition_with([])
        assert partition.curve_groups() == ()
        assert_matches_scalar(partition, np.zeros(0))
        assert partition.w_values(np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 1e-3])
    def test_many_uniform_controls(self, scale):
        # a squared x + s rounds differently from libm pow on under 0.1% of
        # inputs, so the check needs many of them
        u = np.random.default_rng(0).uniform(0.0, 5.0, 100_000)
        shared, other = SaturatingCurve(scale), SaturatingCurve(scale)
        partition = partition_with([shared] * 50_000 + [other] * 50_000)
        assert_matches_scalar(partition, u)
        assert_matches_scalar(partition_with([shared] * 100_000), u)

    def test_saturating_derivative_overflow_falls_back(self):
        curve = SaturatingCurve(0.1)
        xs = np.array([0.0, 1.0, 1e160, 1e308])
        assert curve.derivs(xs).tobytes() == np.array([curve.deriv(x) for x in xs.tolist()]).tobytes()
        assert curve.derivs(xs)[2:].tolist() == [0.0, 0.0]

    def test_groups_cached_and_read_only(self):
        a, b = SaturatingCurve(0.1), SaturatingCurve(0.1)
        partition = partition_with([a, b, a, b, b])
        groups = partition.curve_groups()
        assert partition.curve_groups() is groups
        # grouped by object, not by equality
        assert [g[1].tolist() for g in groups] == [[0, 2], [1, 3, 4]]
        assert all(not g[1].flags.writeable for g in groups)

    def test_replaced_partition_gets_fresh_groups(self, karate_partition):
        u = np.array([0.5, 1.5, 3.0])
        karate_partition.w_values(u)
        assert karate_partition.curve_groups()[0][0] == SaturatingCurve()
        curves = [LinearCurve(0.2), PeakedCurve(), SaturatingCurve(0.3)]
        moved = replace(karate_partition, w=dict(zip(karate_partition.controlled, curves)))
        assert [g[0] for g in moved.curve_groups()] == curves
        assert_matches_scalar(moved, u)
        assert_matches_scalar(karate_partition, u)

    def test_pickled_partition_gives_same_results(self):
        shared = SaturatingCurve(0.2)
        partition = partition_with([shared, LinearCurve(0.5), shared, PeakedCurve()])
        u = np.array([0.1, 0.2, 3.0, 0.4])
        partition.w_derivs(u)
        copy = pickle.loads(pickle.dumps(partition))
        assert copy.w_values(u).tobytes() == partition.w_values(u).tobytes()
        assert copy.w_derivs(u).tobytes() == partition.w_derivs(u).tobytes()
        assert all(not g[1].flags.writeable for g in copy.curve_groups())
        # the shared object stays one group after the round trip
        assert copy.curve_groups()[0][0] is copy.w[0] is copy.w[2]


# the edge of the square's float range, where Python's ** starts to raise
ROOT_MAX = math.sqrt(sys.float_info.max)
EDGE_CONTROLS = [
    math.nextafter(ROOT_MAX, 0.0), ROOT_MAX, math.nextafter(ROOT_MAX, math.inf), 1e160, 1e308,
    math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324,
]
WIDTHS = [_UFUNC_WIDTH - 1, _UFUNC_WIDTH, 80]


def scalar_derivs(curve: SaturatingCurve, xs: np.ndarray) -> np.ndarray:
    return np.array([curve.deriv(x) for x in xs.ravel().tolist()]).reshape(xs.shape)


class TestSaturatingDerivs:
    """``derivs`` takes Python floats below ``_UFUNC_WIDTH`` entries and
    one ``np.float_power`` chain from it up; both give ``deriv``'s bits."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_log_uniform_controls(self, width):
        # libm pow and a product differ on under 0.1% of the squares
        curve = SaturatingCurve(0.1)
        rows = width * (100_000 // width + 1)
        xs = np.exp(np.random.default_rng(width).uniform(math.log(1e-13), math.log(148.0), rows))
        want = scalar_derivs(curve, xs)
        got = np.concatenate([curve.derivs(row) for row in xs.reshape(-1, width)])
        assert got.tobytes() == want.tobytes()
        assert curve.derivs(xs.reshape(-1, width)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("scale", [0.1, 1.0, 1e-3])
    def test_edge_controls(self, width, scale):
        curve = SaturatingCurve(scale)
        fill = np.linspace(0.0, 5.0, width)
        for start in range(0, len(EDGE_CONTROLS), width):
            xs = fill.copy()
            chunk = EDGE_CONTROLS[start : start + width]
            xs[: len(chunk)] = chunk
            assert curve.derivs(xs).tobytes() == scalar_derivs(curve, xs).tobytes()

    @pytest.mark.parametrize("shape", [(2, 8), (3, 8), (4, 5, 6), (1, 80), (_UFUNC_WIDTH,), (0,), (0, 80)])
    def test_stacks_keep_their_shape(self, shape):
        # (3, 8) and (4, 5, 6) reach the width only as a whole stack
        curve = SaturatingCurve(0.3)
        xs = np.random.default_rng(1).uniform(0.0, 5.0, shape)
        got = curve.derivs(xs)
        assert got.shape == shape
        assert got.tobytes() == scalar_derivs(curve, xs).tobytes()

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("rows", [None, 3])
    def test_zero_square_raises_on_both_paths(self, width, rows):
        curve = SaturatingCurve(0.25)
        with pytest.raises(ZeroDivisionError):
            curve.deriv(-0.25)
        xs = np.linspace(0.0, 1.0, width)
        xs[width // 2] = -0.25
        if rows is not None:
            xs = np.tile(xs, (rows, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroDivisionError):
                curve.derivs(xs)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_flat_or_infinite_scale_rounds_as_python(self, width):
        # 0 / 0 raises in Python and inf / inf is NaN: numpy's invalid flag
        # sends both to the Python floats
        xs = np.linspace(0.0, 1.0, width)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroDivisionError):
                SaturatingCurve(0.0).derivs(xs)
            curve = SaturatingCurve(math.inf)
            assert curve.derivs(xs).tobytes() == scalar_derivs(curve, xs).tobytes()


class TestSaturatingValues:
    """``values`` raises, warns and rounds as ``value`` does at every entry."""

    @pytest.mark.parametrize("rows", [None, 3])
    def test_zero_denominator_raises_without_a_warning(self, rows):
        curve = SaturatingCurve(0.1)
        with pytest.raises(ZeroDivisionError):
            curve.value(-0.1)
        xs = np.array([-0.1, 1.0])
        if rows is not None:
            xs = np.tile(xs, (rows, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroDivisionError):
                curve.values(xs)

    @pytest.mark.parametrize("rows", [None, 3])
    def test_infinite_entries_are_a_quiet_nan(self, rows):
        curve = SaturatingCurve(0.1)
        xs = np.array([math.inf, 1.0, -math.inf, 0.0])
        if rows is not None:
            xs = np.tile(xs, (rows, 1))
        want = np.reshape([curve.value(x) for x in xs.ravel().tolist()], xs.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = curve.values(xs)
        assert got.shape == xs.shape
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[..., 0]).all() and np.isnan(got[..., 2]).all()


@st.composite
def tick_cases(draw):
    n = draw(st.integers(1, 10))
    n_ctrl = draw(st.integers(0, 4))
    entries = st.floats(-1e6, 1e6, allow_nan=False)
    table = np.array(draw(st.lists(entries, min_size=n * n_ctrl, max_size=n * n_ctrl))).reshape(n, n_ctrl)
    if draw(st.booleans()):
        pollers = np.arange(n)  # synchronous: every row polls
    else:
        pollers = np.array(sorted(draw(st.sets(st.integers(0, n - 1)))), dtype=int)
    m = len(pollers)
    # polled rows repeat freely; a poller may poll itself
    polled = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=int)
    alpha = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    # each control is owned by at most one poller; the others own none
    owners = draw(st.permutations(list(range(m)) + [-1] * n_ctrl))[:n_ctrl] if m else []
    ctrl_pos = np.full(m, -1)
    for col, owner in enumerate(owners):
        if owner >= 0:
            ctrl_pos[owner] = col
    diag = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)))
    steps = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    return table, pollers, polled, alpha, diag, ctrl_pos, steps


def kernel_args(table, pollers, polled, alpha, diag, ctrl_pos, steps):
    """The previous kernel's arguments in the form ``_tick_fast_updates``
    takes: the damping column, the owned cells of the pollers x controls
    block with their drivers, and the steps as a column."""
    own_rows = np.flatnonzero(ctrl_pos >= 0)
    damp = (1.0 - alpha[pollers])[:, None]
    cells = own_rows * table.shape[1] + ctrl_pos[own_rows]
    return pollers, polled, damp, cells, diag[own_rows], steps[:, None]


class TestTickKernel:
    @settings(max_examples=300, deadline=None)
    @given(case=tick_cases())
    def test_matches_previous_kernel(self, case):
        table, *args = case
        want = table.copy()
        reference_tick_fast_updates(want, *args)
        got = table.copy()
        block = _tick_fast_updates(got, *kernel_args(table, *args))
        assert got.tobytes() == want.tobytes()
        assert block.tobytes() == want[args[0]].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=tick_cases(), step=st.floats(0.0, 1.0))
    def test_one_scalar_step_is_the_column_of_equal_steps(self, case, step):
        table, pollers, polled, alpha, diag, ctrl_pos, _ = case
        args = kernel_args(table, pollers, polled, alpha, diag, ctrl_pos, np.full(len(pollers), step))
        want, got = table.copy(), table.copy()
        _tick_fast_updates(want, *args)
        _tick_fast_updates(got, *args[:-1], step)
        assert got.tobytes() == want.tobytes()

    def test_one_event_is_the_one_row_kernel(self, karate_graph, karate_partition, schedule):
        rng = np.random.default_rng(3)
        table = rng.uniform(-1.0, 1.0, size=(34, 3))
        u = np.array([0.5, 1.0, 2.0])
        derivs = karate_partition.w_derivs(u)
        for poller in range(34):
            if poller in karate_partition.stubborn:
                continue
            polled = int(rng.integers(34))
            clocks = LocalClocks.zeros(34)
            clocks.bump([poller])
            got = sas_fast_update(table, (poller, polled), karate_graph, karate_partition, u, clocks, schedule)
            pos = int(karate_partition.node_codes()[poller])
            want = table.copy()
            diag = np.array([karate_partition.alpha[poller] * derivs[pos] if pos >= 0 else 0.0])
            reference_tick_fast_updates(
                want, np.array([poller]), np.array([polled]), karate_partition.alpha,
                diag, np.array([pos]), np.array([schedule.a(1)]),
            )
            assert got.tobytes() == want.tobytes()
            assert clocks.value(poller) == 2


def mixed_curves(partition: AgentPartition) -> AgentPartition:
    """The controls cycle through a shared pointwise RampCurve, a
    ConstantCurve and a LinearCurve."""
    pool = [RampCurve(), ConstantCurve(0.4), LinearCurve(0.2)]
    return replace(partition, w={node: pool[pos % 3] for pos, node in enumerate(partition.controlled)})


def shared_curve(partition: AgentPartition, curve) -> AgentPartition:
    """Every control shares one curve object: one group, no scatter."""
    return replace(partition, w={node: curve for node in partition.controlled})


def draw_stack(data, n_rows: int, n_ctrl: int) -> np.ndarray:
    """n_rows control rows, uniform on [0, 5], up to three of them drawn from CONTROLS."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    us = rng.uniform(0.0, 5.0, (n_rows, n_ctrl))
    for row in data.draw(st.lists(st.integers(0, n_rows - 1), max_size=3)):
        us[row] = data.draw(st.lists(CONTROLS, min_size=n_ctrl, max_size=n_ctrl))
    return us


class TestStackedPayoff:
    """payoff_fn's closure and the reward-curve derivatives on a stack of
    control rows equal their one-vector calls, row by row, bit for bit."""

    @pytest.fixture(scope="class")
    def instances(self, karate_graph, karate_partition):
        ring, ring_partition = ring_chords_instance(30, 9, 3, seed=2)
        wide, wide_partition = ring_chords_instance(120, 80, 10, seed=3)
        none_graph, none_partition = ring_chords_instance(20, 0, 3, seed=1)
        return {
            "karate": (karate_graph, karate_partition),
            "karate-mixed": (karate_graph, mixed_curves(karate_partition)),
            "karate-linear": (karate_graph, shared_curve(karate_partition, LinearCurve(0.2))),
            "karate-constant": (karate_graph, shared_curve(karate_partition, ConstantCurve(0.4))),
            "ring-mixed": (ring, mixed_curves(ring_partition)),
            # 80 controls: dot products long enough for BLAS's vector kernel
            "wide": (wide, wide_partition),
            "no-controls": (none_graph, none_partition),
        }

    @pytest.mark.parametrize("name", ["karate", "karate-mixed", "ring-mixed", "wide", "no-controls"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_stack_matches_rows(self, instances, name, data):
        graph, partition = instances[name]
        n_ctrl = len(partition.controlled)
        n_rows = data.draw(st.integers(1, 50))
        us = draw_stack(data, n_rows, n_ctrl)
        payoff = payoff_fn(graph, partition)
        got = payoff(us)
        assert got.shape == (n_rows,)
        assert got.tobytes() == np.array([payoff(u) for u in us]).tobytes()

    @pytest.mark.parametrize(
        "name", ["karate", "karate-linear", "karate-constant", "karate-mixed", "ring-mixed", "wide", "no-controls"]
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_w_derivs_stack_matches_rows(self, instances, name, data):
        partition = instances[name][1]
        n_ctrl = len(partition.controlled)
        n_rows = data.draw(st.integers(1, 20))
        us = draw_stack(data, n_rows, n_ctrl)
        got = partition.w_derivs(us)
        assert got.shape == (n_rows, n_ctrl)
        assert got.tobytes() == np.array([partition.w_derivs(u) for u in us]).reshape(n_rows, n_ctrl).tobytes()


def ring_with_last_controlled(n: int = 6):
    """Ring i -> i+1 with node 0 stubborn and node n-1, the last row any tick
    updates, the only controlled agent: the table outgrows its bound there."""
    P = np.roll(np.eye(n), 1, axis=1)
    alpha = np.zeros(n)
    alpha[-1] = 0.6
    partition = AgentPartition(
        controlled=(n - 1,),
        uncontrolled=tuple(range(1, n - 1)),
        stubborn=(0,),
        alpha=alpha,
        h={0: 0.5},
        w={n - 1: RampCurve()},
    )
    return graph_from_P(P), partition


class TestDivergenceTick:
    @pytest.mark.parametrize("instance", ["karate", "ring"])
    @pytest.mark.parametrize("mode", ["synchronous", "asynchronous"])
    def test_raises_on_the_tick_the_whole_table_leaves_its_bound(
        self, monkeypatch, karate_graph, karate_partition, schedule, budget, mode, instance
    ):
        if instance == "karate":
            graph = karate_graph
            partition = replace(karate_partition, w={i: RampCurve() for i in karate_partition.controlled})
        else:
            graph, partition = ring_with_last_controlled()
        n = graph.node_count
        activation = ActivationModel(mode, q=np.full(n, 0.3) if mode == "asynchronous" else None)
        bound = sas._table_bound(partition)

        # the previous check: the whole table's largest entry after each tick
        peaks = []
        kernel = sas._tick_fast_updates

        def recording(grad_table, *args):
            block = kernel(grad_table, *args)
            peaks.append(np.max(np.abs(grad_table)))
            return block

        monkeypatch.setattr(sas, "_tick_fast_updates", recording)
        monkeypatch.setattr(sas, "_table_bound", lambda p: np.inf)
        run_sas(graph, partition, budget, schedule, activation, 60, 3)
        over = [k + 1 for k, peak in enumerate(peaks) if not peak <= bound]
        assert over, "the ramp curve must drive the table past its bound"
        monkeypatch.undo()

        with pytest.raises(DivergenceError, match=f"at tick {over[0]}$"):
            run_sas(graph, partition, budget, schedule, activation, 60, 3)
        run_sas(graph, partition, budget, schedule, activation, over[0] - 1, 3)


@st.composite
def general_event_cases(draw):
    """A general-model instance, its tables, one poll event and local clocks."""
    n = draw(st.integers(1, 8))
    n_ctrl = draw(st.integers(0, n))
    n_stub = draw(st.integers(0, n - n_ctrl))
    controlled = tuple(range(n_ctrl))
    stubborn = tuple(range(n - n_stub, n))
    partition = AgentPartition(
        controlled=controlled,
        uncontrolled=tuple(range(n_ctrl, n - n_stub)),
        stubborn=stubborn,
        alpha=np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n_ctrl, max_size=n_ctrl)) + [0.0] * (n - n_ctrl)),
        h={i: 0.5 for i in stubborn},
        w={i: SaturatingCurve() for i in controlled},
    )
    model = GeneralModel(
        alpha_curves={i: draw(CURVES) for i in controlled},
        w_curves={i: draw(CURVES) for i in controlled},
    )
    entries = st.floats(-1e6, 1e6, allow_nan=False)
    table = np.array(draw(st.lists(entries, min_size=n * n_ctrl, max_size=n * n_ctrl))).reshape(n, n_ctrl)
    values = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    u = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n_ctrl, max_size=n_ctrl)))
    node, probed = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    counts = np.array(draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n)), dtype=np.int64)
    schedule = StepSchedule(draw(st.floats(0.01, 2.0)), 0.6, draw(st.integers(1, 200)))
    return partition, model, table, values, u, node, probed, counts, schedule


class TestGeneralOneRow:
    @settings(max_examples=300, deadline=None)
    @given(case=general_event_cases())
    def test_value_update_matches_per_event(self, case):
        partition, model, _, values, u, node, probed, counts, schedule = case
        clocks, ref_clocks = LocalClocks(counts.copy()), LocalClocks(counts.copy())
        got = value_update(values, node, probed, partition, model, u, clocks, schedule)
        want = reference_value_update(values, node, probed, partition, model, u, ref_clocks, schedule)
        assert got.tobytes() == want.tobytes()
        assert clocks.counts.tolist() == ref_clocks.counts.tolist()

    @settings(max_examples=300, deadline=None)
    @given(case=general_event_cases())
    def test_grad_update_matches_per_event(self, case):
        partition, model, table, values, u, node, probed, counts, schedule = case
        clocks, ref_clocks = LocalClocks(counts.copy()), LocalClocks(counts.copy())
        got = general_grad_update(table, values, node, probed, partition, model, u, clocks, schedule)
        want = reference_general_grad_update(
            table, values, node, probed, partition, model, u, ref_clocks, schedule
        )
        assert got.tobytes() == want.tobytes()
        assert clocks.counts.tolist() == ref_clocks.counts.tolist()


class TestGeneralTables:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_curves(self, data):
        # constants merge into one group of levels; other curves group by object
        pool = data.draw(st.lists(CURVES, min_size=1, max_size=5))
        n_ctrl = data.draw(st.integers(0, 30))
        picks = st.lists(st.integers(0, len(pool) - 1), min_size=2 * n_ctrl, max_size=2 * n_ctrl)
        chosen = [pool[k] for k in data.draw(picks)]
        partition = partition_with([SaturatingCurve()] * n_ctrl)
        model = GeneralModel(dict(enumerate(chosen[:n_ctrl])), dict(enumerate(chosen[n_ctrl:])))
        u = np.array(data.draw(st.lists(CONTROLS, min_size=n_ctrl, max_size=n_ctrl)), dtype=float)
        want = reference_tables(model, partition, u)
        assert [t.tobytes() for t in model.tables(partition, u)] == [t.tobytes() for t in want]
        # a stack of rows gives each row's tables
        stack = np.stack([u, u[::-1], np.zeros(n_ctrl)])
        rows = [reference_tables(model, partition, row) for row in stack]
        for k, table in enumerate(model.tables(partition, stack)):
            assert table.shape == stack.shape
            assert table.tobytes() == np.stack([r[k] for r in rows]).tobytes()

    def test_groups_follow_the_partition(self, karate_partition):
        model = study_model(karate_partition, 0, SaturatingCurve(0.1))
        u = np.array([0.5, 1.5, 3.0])
        flipped = replace(karate_partition, controlled=karate_partition.controlled[::-1])
        for partition in (karate_partition, flipped, karate_partition):
            got = model.tables(partition, u)
            want = reference_tables(model, partition, u)
            assert [t.tobytes() for t in got] == [t.tobytes() for t in want]

    def test_constants_merge_into_one_group(self):
        flat, other, curve = ConstantCurve(0.2), ConstantCurve(0.7), SaturatingCurve(0.1)
        curves = [curve, flat, other, curve, flat]
        assert len(group_curves(curves)) == 3
        (first, at_first), (levels, at_levels) = _merged_groups(curves)
        assert first is curve and at_first.tolist() == [0, 3]
        assert levels.level.tolist() == [0.2, 0.7, 0.2] and at_levels.tolist() == [1, 2, 4]
        assert not at_levels.flags.writeable


@st.composite
def scalar_tick_cases(draw):
    """A scalar vector, a tick's learners and probes, alpha, the learners'
    own terms and one step, as ``run_partial`` hands them to the kernel."""
    n = draw(st.integers(1, 10))
    vec = np.array(draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n)))
    learners = sorted(draw(st.sets(st.integers(0, n - 1))))
    m = len(learners)
    probed = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    alpha = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    owners = sorted(draw(st.sets(st.integers(0, m - 1)))) if m else []
    own_terms = [0.0] * m
    for row in owners:
        own_terms[row] = draw(st.floats(0.0, 10.0))
    return vec, learners, probed, alpha, owners, own_terms, draw(st.floats(0.0, 1.0))


class TestKernelCallers:
    """``run_partial``'s scalar tick and ``known_p_updates`` on the one tick
    kernel equal the loop and whole-array sweeps they replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=scalar_tick_cases())
    def test_scalar_tick_matches_previous_loop(self, case):
        vec, learners, probed, alpha, owners, own_terms, step = case
        rows = np.array(learners, dtype=np.intp)
        got = vec.copy()
        _tick_fast_updates(
            got, rows, np.array(probed, dtype=np.intp), 1.0 - alpha[rows], np.array(owners, dtype=np.intp),
            np.array([own_terms[row] for row in owners]), np.float64(step),
        )
        want = dict(enumerate(vec.tolist()))
        survive = [1.0 - a for a in alpha[rows].tolist()]
        reference_relax_scalars(want, dict(want), learners, probed, survive, own_terms, [step] * len(learners))
        assert got.tobytes() == np.array(list(want.values())).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case=general_event_cases(), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 10_000))
    def test_known_p_updates_match_previous_sweep(self, case, seed, k):
        partition, model, table, values, u, _, _, _, schedule = case
        n = partition.node_count
        graph = graph_from_P(np.random.default_rng(seed).dirichlet(np.ones(n), size=n))
        got = known_p_updates(values, table, partition, model, u, k, schedule, graph)
        want = reference_known_p_updates(values, table, partition, model, u, k, schedule, graph)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


@pytest.fixture(scope="module")
def loop_instances(karate_graph, karate_partition):
    ring, ring_partition = ring_chords_instance(30, 9, 3, seed=2)
    free, free_partition = ring_chords_instance(24, 4, 0, seed=5)
    none, none_partition = ring_chords_instance(20, 0, 3, seed=1)
    return {
        "karate": (karate_graph, karate_partition),
        "ring-mixed": (ring, mixed_curves(ring_partition)),
        "no-stubborn": (free, free_partition),
        "no-controls": (none, none_partition),
    }


class TestLoopOracles:
    """The array forms of ``gossip_step`` and of the partial-observation
    oracles equal their loops bit for bit."""

    @pytest.mark.parametrize("name", ["karate", "ring-mixed", "no-stubborn", "no-controls"])
    @pytest.mark.parametrize("mode", ["synchronous", "asynchronous"])
    def test_gossip_step(self, loop_instances, name, mode):
        graph, partition = loop_instances[name]
        activation = ActivationModel(mode, q=np.full(graph.node_count, 0.6) if mode == "asynchronous" else None)
        u = np.linspace(0.0, 2.0, len(partition.controlled))
        got, want = initial_state(graph, partition), initial_state(graph, partition)
        rng_got, rng_want = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(40):
            got, got_events = gossip_step(got, u, graph, partition, activation, rng_got)
            want, want_events = reference_gossip_step(want, u, graph, partition, activation, rng_want)
            assert got.x.tobytes() == want.x.tobytes() and got.k == want.k
            assert got_events == want_events
        assert rng_got.random() == rng_want.random()

    @pytest.mark.parametrize("name", ["karate", "ring-mixed", "no-stubborn", "no-controls"])
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_partial_oracles(self, loop_instances, name, fraction):
        graph, partition = loop_instances[name]
        u = np.linspace(0.1, 1.5, len(partition.controlled))
        for seed in range(3):
            observed = observed_set(partition, sample_hidden(partition, fraction, seed))
            law, terminal = hit_law_oracle(graph, partition, observed)
            want_law, want_terminal = reference_hit_law_oracle(graph, partition, observed)
            assert terminal == want_terminal and law.tobytes() == want_law.tobytes()
            got = restricted_grad_oracle(graph, partition, observed, u)
            want = reference_restricted_grad_oracle(graph, partition, observed, u)
            assert list(got) == list(want)
            assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
