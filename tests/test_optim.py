from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opinionshape import curves, optim
from opinionshape.curves import ConstantCurve, LinearCurve, SaturatingCurve
from opinionshape.dynamics import total_payoff
from opinionshape.errors import DivergenceError
from opinionshape.optim import (
    StepSchedule,
    exact_gradient,
    exact_optimum,
    project_budget_simplex,
    run_exact_gd,
    stationarity_residual,
)

from helpers import (
    DerivCounter,
    brute_force_projection,
    chain_instance,
    random_instance,
    reference_bisection,
    reference_exact_optimum,
    reference_project_budget_simplex,
    ring_chords_instance,
    single_agent_instance,
)

def magnitudes(lo_exp: int, hi_exp: int):
    """Floats m * 10^e, m in [1, 10) and e in [lo_exp, hi_exp]: log-uniform-ish."""
    return st.tuples(st.floats(1.0, 10.0, exclude_max=True), st.integers(lo_exp, hi_exp)).map(
        lambda t: t[0] * 10.0 ** t[1]
    )


# the ranges the bisection brackets must hold on
SCALES = magnitudes(-60, 5)
BUDGETS = st.one_of(magnitudes(-323, 307), st.sampled_from([5e-324, 1e-9, 5.0, 200.0, 1e308]))

CURVES = st.one_of(
    st.floats(1e-3, 10.0).map(SaturatingCurve),
    st.floats(0.0, 2.0).map(LinearCurve),
    st.floats(0.0, 1.0).map(ConstantCurve),
)


@dataclass(frozen=True)
class PeakedCurve:
    """x - x^2 / 2: the marginal 1 - x turns negative past x = 1."""

    def value(self, x: float) -> float:
        return x - 0.5 * x * x

    def deriv(self, x: float) -> float:
        return 1.0 - x


@dataclass(frozen=True)
class UnbracketedSaturatingCurve:
    """SaturatingCurve's value and derivative without its bisection brackets."""

    scale: float

    def value(self, x: float) -> float:
        return SaturatingCurve(self.scale).value(x)

    def deriv(self, x: float) -> float:
        return SaturatingCurve(self.scale).deriv(x)


def with_curves(partition, curves):
    """``partition`` with the given curves assigned to its controls in turn."""
    w = {node: curves[k % len(curves)] for k, node in enumerate(partition.controlled)}
    return replace(partition, w=w)


def assert_matches_reference(graph, partition, budget):
    u_star, payoff_star = exact_optimum(graph, partition, budget)
    u_ref, payoff_ref = reference_exact_optimum(graph, partition, budget)
    assert u_star.tobytes() == u_ref.tobytes()
    assert payoff_star == payoff_ref
    return u_star


class TestProjection:
    def test_already_feasible(self):
        assert np.array_equal(project_budget_simplex(np.array([1.0, 1.0]), 5.0), [1.0, 1.0])

    def test_face_projection(self):
        out = project_budget_simplex(np.array([3.0, 4.0]), 5.0)
        assert out == pytest.approx([2.0, 3.0], abs=1e-12)

    def test_negative_component_clips(self):
        out = project_budget_simplex(np.array([-1.0, 2.0]), 5.0)
        assert out == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(0, 3, size=rng.integers(1, 7))
            once = project_budget_simplex(v, 5.0)
            twice = project_budget_simplex(once, 5.0)
            assert np.allclose(once, twice, atol=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for n in range(1, 7):
            vs = rng.normal(0, 4, size=(400, n))
            oracle = brute_force_projection(vs, 5.0)
            for v, want in zip(vs, oracle):
                got = project_budget_simplex(v, 5.0)
                assert np.allclose(got, want, atol=1e-6)

    def test_output_always_feasible(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            v = rng.normal(0, 10, size=rng.integers(1, 7))
            out = project_budget_simplex(v, 3.0)
            assert np.all(out >= 0.0)
            assert out.sum() <= 3.0 + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        v=arrays(float, st.integers(1, 12), elements=st.floats(-1e3, 1e3)),
        budget=st.floats(1e-3, 1e3),
    )
    def test_property_feasible_and_fixed(self, v, budget):
        out = project_budget_simplex(v, budget)
        scale = max(1.0, budget, float(np.abs(v).max()))
        assert np.all(out >= 0.0)
        assert out.sum() <= budget + 1e-12 * scale
        assert np.allclose(project_budget_simplex(out, budget), out, rtol=0.0, atol=1e-12 * scale)

    @settings(max_examples=400, deadline=None)
    @given(
        v=arrays(
            float, st.integers(1, 40),
            elements=st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 1.0, 5e-324])),
        ),
        budget=st.one_of(st.floats(1e-30, 1e4), st.sampled_from([5e-324, 1e-20, 1.0, 5.0])),
    )
    def test_bits_match_reference_where_it_does_not_raise(self, v, budget):
        try:
            want = reference_project_budget_simplex(v, budget)
        except DivergenceError:
            with pytest.raises(DivergenceError):
                project_budget_simplex(v, budget)
            return
        except ValueError:
            # no sorted entry held: the budget rounded away next to the largest
            out = project_budget_simplex(v, budget)
            assert np.all(out >= 0.0) and out.sum() <= budget
            return
        top = float(v.max())
        if want.sum() > budget and top - budget == top:
            # the budget rounded away, and the oracle's ties held an ulp below the largest entry
            out = project_budget_simplex(v, budget)
            assert np.all(out >= 0.0) and out.sum() <= budget
            return
        total = float(want.sum())
        if total - budget > budget * optim._OVERSHOOT:
            # the oracle overshot the budget on the ulp grid of entries far
            # above it; the projection scales that point onto the budget
            want = want * (budget / total)
        assert project_budget_simplex(v, budget).tobytes() == want.tobytes()

    def test_bits_match_reference_beyond_the_cached_sizes(self):
        v = np.random.default_rng(3).normal(0.0, 1.0, 1500)
        want = reference_project_budget_simplex(v, 5.0)
        assert project_budget_simplex(v, 5.0).tobytes() == want.tobytes()

    @pytest.mark.parametrize("v", [[1.0, 0.5], [1.0], [3.0, 3.0, -1.0]])
    def test_budget_below_half_an_ulp_gives_zero(self, v):
        v = np.array(v)
        with pytest.raises(ValueError):
            reference_project_budget_simplex(v, 1e-20)
        out = project_budget_simplex(v, 1e-20)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("n", [1, 9])
    def test_tiny_budget_is_not_overshot_on_the_entries_ulp_grid(self, n):
        # v - (v - budget) rounds on v's ulp grid, 1.7e-24 wide here: left
        # as it is, one entry returns 1.00006e-20 and nine (the array path)
        # sum to 1.00056e-20
        out = project_budget_simplex(np.full(n, 9.06319142e-09), 1e-20)
        assert np.all(out >= 0.0)
        assert math.fsum(out.tolist()) <= 1e-20 * (1.0 + 1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_divergence(self, bad):
        with pytest.raises(DivergenceError):
            project_budget_simplex(np.array([1.0, bad, 2.0]), 5.0)

    @pytest.mark.parametrize("n", [3, 7, 8, 40])
    def test_budget_rounding_away_against_ties_gives_zero(self, n):
        # the budget vanishes in the cumulative sum, and the ties would
        # hold at a level an ulp below them: n ulps of 0.7 is far over 1e-20
        out = project_budget_simplex(np.full(n, 0.7), 1e-20)
        assert out.tobytes() == np.zeros(n).tobytes()

    @pytest.mark.parametrize("n_inf", [1, 6, 40])
    def test_minus_inf_entries_project_without_warning_when_the_budget_binds(self, n_inf):
        # -inf entries sort last; the holds test compares them against a
        # -inf level and must not subtract -inf from -inf
        v = np.array([3.0] * 3 + [-np.inf] * n_inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project_budget_simplex(v, 1.0)
        # a -inf entry clips to 0 like any entry far below the level
        want = project_budget_simplex(np.array([3.0] * 3 + [-1.0] * n_inf), 1.0)
        assert out.tobytes() == want.tobytes()
        assert out[:3] == pytest.approx([1.0 / 3.0] * 3) and np.all(out[3:] == 0.0)


# what the list path of the projection meets: signed zeros, -inf, the
# smallest subnormal, huge entries, and ties
SPECIAL_ENTRIES = st.sampled_from([0.0, -0.0, -math.inf, 5e-324, -5e-324, 1e300, -1e300, 0.7, 1.0, 3.0])
ENTRIES = st.one_of(SPECIAL_ENTRIES, st.floats(-1e3, 1e3), st.floats(-1e300, 1e300))


class TestProjectionListPath:
    """Below 8 entries the projection runs on Python floats with the array path's bits."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_numpy_sums_short_vectors_left_to_right(self, n):
        # the list path rests on this: a numpy that sums fewer than 8
        # entries in another order must fail here, not move a CSV byte
        rows = np.random.default_rng(n).normal(0.0, 1.0, (3000, n)) * 10.0 ** np.arange(n)[::-1]
        for row in rows:
            total = 0.0
            for x in row.tolist():
                total += x
            assert np.add.reduce(row) == total

    @pytest.mark.parametrize("n", [8, 9, 12])
    def test_eight_entries_and_up_take_the_array_path(self, n):
        # at a budget equal to numpy's pairwise sum, a sequential sum that
        # lands above it would water-fill a point the array path returns as is
        rows = np.abs(np.random.default_rng(n).normal(0.0, 1.0, (200, n)))
        differs = 0
        for v in rows:
            budget = float(v.sum())
            want = optim._project_array(v, budget)
            assert project_budget_simplex(v, budget).tobytes() == want.tobytes()
            differs += optim._project_floats(v, budget).tobytes() != want.tobytes()
        assert differs > 0

    @settings(max_examples=1500, deadline=None)
    @given(v=st.lists(ENTRIES, min_size=1, max_size=7), data=st.data())
    def test_property_bits_match_the_array_path(self, v, data):
        v = np.array(v)
        total = float(np.maximum(v, 0.0).sum())
        budgets = [5e-324, 1e-20, 1.0, 1e300]
        if 0.0 < total < math.inf:
            budgets += [total, float(np.nextafter(total, 0.0)), float(np.nextafter(total, math.inf)), total / 2]
        budget = data.draw(st.one_of(st.sampled_from(budgets), st.floats(1e-30, 1e4)))
        want = optim._project_array(v, budget)
        got = optim._project_floats(v, budget)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_raise_the_same_error(self, n, bad):
        v = np.linspace(-1.0, 2.0, n)
        v[n // 2] = bad
        messages = []
        for project in (optim._project_array, optim._project_floats, project_budget_simplex):
            with pytest.raises(DivergenceError) as err:
                project(v, 5.0)
            messages.append(str(err.value))
        assert len(set(messages)) == 1

    @pytest.mark.parametrize("n", [1, 7, 8])
    @pytest.mark.parametrize("budget", [0.0, -0.0, -1.0, -math.inf, math.nan])
    def test_budget_that_is_not_positive_raises(self, n, budget):
        with pytest.raises(ValueError):
            project_budget_simplex(np.ones(n), budget)


class TestStepSchedule:
    def test_fast_step_initial_value(self):
        s = StepSchedule(A=0.6, B=0.6, denom=100)
        assert s.a(0) == pytest.approx(0.6)

    def test_slow_step_block_boundary(self):
        s = StepSchedule(A=0.6, B=0.6, denom=100)
        assert s.b(0) == pytest.approx(0.6)
        assert s.b(100) == pytest.approx(0.6)
        assert s.b(101) == pytest.approx(0.3)

    @pytest.mark.parametrize("denom", [1, 7, 100, 999])
    def test_slow_step_of_an_int_has_the_array_bits(self, denom):
        s = StepSchedule(A=0.6, B=0.37, denom=denom)
        ks = np.r_[np.arange(5_000), 2**40 + np.arange(5)]
        assert [s.b(int(k)) for k in ks] == s.b(ks).tolist()

    def test_fast_step_nonincreasing(self):
        s = StepSchedule(A=0.6, B=0.6, denom=100)
        ks = np.arange(1_000_000)
        a = s.a(ks)
        assert np.all(np.diff(a) <= 1e-15)

    def test_sum_conditions_numerically(self):
        # divergent partial sums, summable squares, over a long horizon
        s = StepSchedule(A=0.6, B=0.6, denom=100)
        ks = np.arange(1, 1_000_001)
        a, b = s.a(ks), s.b(ks)
        half = len(ks) // 2
        assert a[half:].sum() > 1.0  # tail still diverging
        assert b[half:].sum() > 1.0
        assert (a**2).sum() < np.inf and (a[half:] ** 2).sum() < 0.1 * (a**2).sum()
        assert (b[half:] ** 2).sum() < 0.1 * (b**2).sum()

    @pytest.mark.xfail(
        strict=True,
        reason="with these step formulas b(k)/a(k) grows like log k; the"
        " two-scale ratio condition cannot hold for any (A, B, denom)",
    )
    def test_two_scale_ratio_vanishes(self):
        s = StepSchedule(A=0.6, B=0.6, denom=100)
        ks = np.array([10**3, 10**4, 10**5, 10**6])
        ratio = s.b(ks) / s.a(ks)
        assert ratio[-1] < ratio[0]
        assert ratio[-1] < 0.1

    def test_extra_fast_step_diagnostics(self):
        # monotone from the start; a([xn])/a(n) bounded; partial-sum ratio -> 1
        s = StepSchedule(A=0.6, B=0.6, denom=100)
        n = np.arange(2, 200_001)
        a = s.a(n)
        a_half = s.a(n // 2)
        assert np.max(a_half / a) < 4.0
        A_partial = np.cumsum(s.a(np.arange(200_001)))
        assert A_partial[100_000] / A_partial[200_000] > 0.9
        powers = s.a(n) ** 1.5
        assert powers[len(n) // 2 :].sum() < 0.01 * powers.sum()


# a(k) of every tick a synchronous run of this many ticks takes
PREMISE_TICKS = 300_000
PREMISE_SCHEDULES = [StepSchedule(), StepSchedule(A=0.3, denom=7)]


@pytest.fixture(scope="module")
def arange_steps():
    return [s.a(np.arange(PREMISE_TICKS)) for s in PREMISE_SCHEDULES]


class TestStepArrayPremise:
    """Synchronous runners take every tick's a(k) from one
    ``a(np.arange(n_iters))`` call.  The per-tick path they replace called
    ``a`` on the m pollers' clocks, all equal to k, so both must give the
    same bits for every k, whatever m.  (``==`` on positive finite floats
    is a bitwise comparison.)"""

    @pytest.mark.parametrize("width", [1, 3, 31, 980])
    @pytest.mark.parametrize("which", range(len(PREMISE_SCHEDULES)))
    def test_arange_matches_per_tick_arrays_for_every_k(self, arange_steps, which, width):
        schedule, want = PREMISE_SCHEDULES[which], arange_steps[which]
        chunk = max(1, 200_000 // width)
        for start in range(0, PREMISE_TICKS, chunk):
            ks = np.arange(start, min(start + chunk, PREMISE_TICKS))
            # a padded view keeps numpy from fusing the rows into one loop,
            # so its inner loops run one width-m row at a time
            padded = np.empty((len(ks), width + 1))
            rows = padded[:, :width]
            rows[...] = ks[:, None]
            assert (schedule.a(rows) == want[ks, None]).all()

    @pytest.mark.parametrize("which", range(len(PREMISE_SCHEDULES)))
    def test_arange_matches_per_tick_and_scalar_calls_at_a_stride(self, arange_steps, which):
        schedule, want = PREMISE_SCHEDULES[which], arange_steps[which]
        for k in range(0, PREMISE_TICKS, 211):
            for width in (1, 3, 31, 980):
                assert (schedule.a(np.repeat(k, width)) == want[k]).all()
            assert schedule.a(k) == want[k]

    @pytest.mark.parametrize("which", range(len(PREMISE_SCHEDULES)))
    def test_a_shorter_run_reads_a_prefix(self, arange_steps, which):
        schedule, want = PREMISE_SCHEDULES[which], arange_steps[which]
        for n in (1, 7, 100, 10_000, PREMISE_TICKS - 1):
            assert (schedule.a(np.arange(n)) == want[:n]).all()


class TestExactGradient:
    def test_single_agent_identity_curve(self):
        graph, partition = single_agent_instance(1.0, LinearCurve(1.0))
        grad = exact_gradient(graph, partition, np.array([0.5]))
        assert grad[0] == pytest.approx(1.0)

    def test_chain_component(self):
        graph, partition = chain_instance()
        grad = exact_gradient(graph, partition, np.array([0.1]))
        assert grad[0] == pytest.approx(1.25, abs=1e-12)

    def test_zero_derivative_gives_zero_component(self):
        graph, partition = single_agent_instance(1.0, ConstantCurve(0.7))
        grad = exact_gradient(graph, partition, np.array([0.5]))
        assert grad[0] == 0.0

    def test_matches_central_finite_differences(self):
        h = 1e-5
        for seed in range(6):
            graph, partition = random_instance(seed, max_nodes=20)
            rng = np.random.default_rng(seed + 7)
            u = rng.uniform(0.05, 1.5, size=len(partition.controlled))
            grad = exact_gradient(graph, partition, u)
            for pos in range(len(u)):
                up, down = u.copy(), u.copy()
                up[pos] += h
                down[pos] -= h
                fd = (total_payoff(graph, partition, up) - total_payoff(graph, partition, down)) / (2 * h)
                assert grad[pos] == pytest.approx(fd, abs=1e-4)


class TestExactGD:
    def test_single_agent_saturates_budget(self):
        graph, partition = single_agent_instance(0.6, SaturatingCurve(0.1))
        traj = run_exact_gd(graph, partition, 5.0, n_iters=50)
        assert traj.final_u()[0] == pytest.approx(5.0)

    def test_zero_gradient_start_stays_put(self):
        graph, partition = single_agent_instance(0.6, ConstantCurve(0.4))
        traj = run_exact_gd(graph, partition, 5.0, u0=np.array([1.0]), n_iters=20)
        assert np.all(traj.u == 1.0)

    def test_karate_monotone_payoff_and_stationary_endpoint(
        self, karate_graph, karate_partition, budget
    ):
        # large early steps overshoot tangentially on the budget face; once
        # the 1/(k+1) decay brings them under the curvature scale the payoff
        # is nondecreasing and the endpoint is stationary
        traj = run_exact_gd(
            karate_graph, karate_partition, budget, n_iters=10_000, step_scale=100.0
        )
        assert np.all(np.diff(traj.payoff)[300:] >= -1e-9)
        assert traj.payoff[-1] >= traj.payoff.max() - 1e-12
        res = stationarity_residual(karate_graph, karate_partition, budget, traj.final_u())
        assert res <= 1e-6

    def test_unit_step_scale_is_monotone_but_slow(self, karate_graph, karate_partition, budget):
        traj = run_exact_gd(karate_graph, karate_partition, budget, n_iters=2_000, step_scale=1.0)
        assert np.all(np.diff(traj.payoff)[10:] >= -1e-9)
        assert traj.payoff[-1] >= traj.payoff.max() - 1e-12


class TestExactOptimum:
    def test_stationary_point(self, karate_graph, karate_partition, budget, karate_optimum):
        u_star, payoff_star = karate_optimum
        assert stationarity_residual(karate_graph, karate_partition, budget, u_star) <= 1e-8
        assert u_star.sum() == pytest.approx(budget)

    def test_dominates_gd_trail(self, karate_graph, karate_partition, budget, karate_optimum):
        u_star, payoff_star = karate_optimum
        traj = run_exact_gd(
            karate_graph, karate_partition, budget, n_iters=10_000, step_scale=100.0,
            payoff_star=payoff_star,
        )
        assert np.all(traj.rel_gap >= -1e-12)
        assert traj.rel_gap[-1] <= 1e-9

    def test_random_instances_agree_with_gd(self):
        for seed in range(4):
            graph, partition = random_instance(seed, max_nodes=15)
            u_star, payoff_star = exact_optimum(graph, partition, 3.0)
            traj = run_exact_gd(graph, partition, 3.0, n_iters=20_000, step_scale=50.0)
            assert payoff_star >= traj.payoff[-1] - 1e-9
            assert payoff_star == pytest.approx(traj.payoff[-1], rel=1e-6)


class TestExactOptimumMatchesReference:
    """Shared-bracket bisection returns the plain double bisection's bits."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        curves=st.lists(CURVES, min_size=1, max_size=6),
        budget=st.floats(1e-6, 200.0),
    )
    def test_property_bit_identical(self, seed, curves, budget):
        graph, partition = random_instance(seed, max_nodes=30)
        assert_matches_reference(graph, with_curves(partition, curves), budget)

    @pytest.mark.parametrize("budget", [1e-6, 5.0, 200.0])
    def test_karate(self, karate_graph, karate_partition, budget):
        assert_matches_reference(karate_graph, karate_partition, budget)

    @pytest.mark.parametrize("budget", [1e-6, 5.0, 200.0])
    def test_step_cap_binds(self, karate_graph, karate_partition, budget):
        # the 1e-60 curve's controls end ~100 halvings below the budget, so
        # their bisection stops at the 100-step cap, not at a fixed point
        # (its marginal of 1e60 at zero also runs the outer search to its cap)
        partition = with_curves(karate_partition, [SaturatingCurve(1e-60), SaturatingCurve(0.1)])
        assert_matches_reference(karate_graph, partition, budget)

    def test_all_zero_derivatives(self, karate_graph, karate_partition):
        partition = with_curves(karate_partition, [ConstantCurve(0.3), ConstantCurve(0.8)])
        u_star = assert_matches_reference(karate_graph, partition, 5.0)
        assert np.all(u_star == 0.0)

    def test_budget_slack_single_control(self):
        graph, partition = single_agent_instance(0.6, SaturatingCurve(0.1))
        u_star = assert_matches_reference(graph, partition, 5.0)
        assert u_star[0] == 5.0

    def test_budget_slack_interior_maxima(self):
        # each peaked control bisects to its maximum at u = 1, inside the budget
        graph, partition = random_instance(3, max_nodes=30)
        u_star = assert_matches_reference(graph, with_curves(partition, [PeakedCurve()]), 5.0)
        assert u_star == pytest.approx(np.ones(len(u_star)), abs=1e-12)
        assert u_star.sum() < 5.0

    def test_wide_instance_needs_a_quarter_of_the_derivs(self, monkeypatch):
        graph, partition = ring_chords_instance(400, n_controlled=80, n_stubborn=8, seed=1)
        counter = DerivCounter(monkeypatch)
        u_star, payoff_star = exact_optimum(graph, partition, 5.0)
        shared_calls = counter.calls
        counter.calls = 0
        u_ref, payoff_ref = reference_exact_optimum(graph, partition, 5.0)
        assert u_star.tobytes() == u_ref.tobytes() and payoff_star == payoff_ref
        assert 4 * shared_calls <= counter.calls
        # the brackets decide most probes without a bisection
        assert shared_calls <= 6_000

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scales=st.lists(SCALES, min_size=1, max_size=6),
        budget=BUDGETS,
    )
    def test_property_bit_identical_over_the_bracket_ranges(self, seed, scales, budget):
        graph, partition = random_instance(seed, max_nodes=30)
        curves = [SaturatingCurve(s) for s in scales]
        assert_matches_reference(graph, with_curves(partition, curves), budget)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        curves=st.lists(
            st.one_of(SCALES.map(SaturatingCurve), SCALES.map(UnbracketedSaturatingCurve), CURVES),
            min_size=2, max_size=6,
        ),
        budget=BUDGETS,
    )
    def test_property_bit_identical_when_some_curves_lack_brackets(self, seed, curves, budget):
        graph, partition = random_instance(seed, max_nodes=30)
        assert_matches_reference(graph, with_curves(partition, curves), budget)

    def test_linear_curve_at_the_largest_budget_overflows_the_payoff_quietly(self):
        # a linear control of 1e308 overflows the payoff's stacked product
        graph, partition = random_instance(0, max_nodes=30)
        partition = with_curves(partition, [SaturatingCurve(1.0), LinearCurve(1.0)])
        assert_matches_reference(graph, partition, 1e308)


class TestBisectionBrackets:
    """``SaturatingCurve.bisection_brackets`` holds the bisection's result."""

    @settings(max_examples=300, deadline=None)
    @given(
        scale=SCALES,
        budget=BUDGETS,
        gains=st.lists(magnitudes(-6, 6), min_size=1, max_size=6),
        spots=st.lists(st.tuples(st.integers(0, 5), st.floats(-0.05, 1.05)), min_size=1, max_size=6),
    )
    def test_brackets_hold_the_bisection_result(self, scale, budget, gains, spots):
        curve = SaturatingCurve(scale)
        brackets = curve.bisection_brackets(np.array(gains), budget)
        if brackets is None:
            assert budget > 1e150
            return
        for k, t in spots:
            # lam across control k's interior (its marginals at budget and
            # at 0), in log scale, a little past both ends
            g = gains[k % len(gains)]
            top, floor = g * curve.deriv(0.0), max(g * curve.deriv(budget), 5e-324)
            lam = top * 2.0 ** (-t * (math.log2(top) - math.log2(floor)))
            bounds = brackets(lam)
            if bounds is None:
                continue
            for lo, hi, gain in zip(*bounds, gains):
                assert lo <= reference_bisection(gain, curve, lam, budget) <= hi

    @settings(max_examples=300, deadline=None)
    @given(
        scale=SCALES,
        budget=BUDGETS,
        gains=st.lists(magnitudes(-6, 6), min_size=1, max_size=7),
        lams=st.lists(magnitudes(-320, 300), min_size=1, max_size=6),
    )
    def test_pointwise_brackets_have_the_array_bits(self, scale, budget, gains, lams):
        # below curves._POINTWISE_WIDTH gains the brackets run on Python
        # floats; a width of 0 sends the same gains down the array path
        pointwise = SaturatingCurve(scale).bisection_brackets(np.array(gains), budget)
        saved = curves._POINTWISE_WIDTH
        curves._POINTWISE_WIDTH = 0
        try:
            arrays = SaturatingCurve(scale).bisection_brackets(np.array(gains), budget)
        finally:
            curves._POINTWISE_WIDTH = saved
        if pointwise is None:
            assert arrays is None
            return
        for lam in lams:
            got, want = pointwise(lam), arrays(lam)
            if want is None:
                assert got is None
                continue
            assert [b.tobytes() for b in got] == [b.tobytes() for b in want]

    def test_brackets_are_narrow_at_the_paper_settings(self):
        gains = np.array([0.5, 1.0, 3.0])
        brackets = SaturatingCurve(0.1).bisection_brackets(gains, 5.0)
        for lam in (0.2, 1.0, 5.0):
            lo, hi = brackets(lam)
            want = [reference_bisection(g, SaturatingCurve(0.1), lam, 5.0) for g in gains]
            assert np.all(lo <= want) and np.all(want <= hi)
            assert np.all(hi - lo <= 1e-9)

    @pytest.mark.parametrize("scale, budget", [(0.1, 1e308), (0.1, 2e154), (1e-200, 5.0), (0.0, 5.0), (-1.0, 5.0)])
    def test_no_brackets_where_the_derivative_leaves_the_float_range(self, scale, budget):
        assert SaturatingCurve(scale).bisection_brackets(np.array([1.0]), budget) is None

    def test_no_brackets_at_an_unsafe_level(self):
        brackets = SaturatingCurve(0.1).bisection_brackets(np.array([1.0]), 5.0)
        assert brackets(0.0) is None and brackets(5e-324) is None and brackets(1e305) is None

    def test_no_brackets_for_curves_without_them(self, karate_graph, karate_partition, monkeypatch):
        # a Linear curve among the controls sends every probe to the bisection
        partition = with_curves(karate_partition, [SaturatingCurve(0.1), LinearCurve(0.5)])
        counter = DerivCounter(monkeypatch)
        exact_optimum(karate_graph, partition, 5.0)
        mixed_calls = counter.calls
        counter.calls = 0
        reference_exact_optimum(karate_graph, partition, 5.0)
        assert 0 < mixed_calls < counter.calls
