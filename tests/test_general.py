from __future__ import annotations

import numpy as np
import pytest

from opinionshape.curves import ConstantCurve, SaturatingCurve
from opinionshape.general import (
    GeneralModel,
    annealed_slow_update,
    general_grad_update,
    general_payoff,
    general_payoff_and_grad,
    known_p_updates,
    model_from_partition,
    run_general_knownp,
    run_general_rl,
    sigma_noise,
    study_model,
    value_oracle,
    value_update,
)
from opinionshape.network import ActivationModel, AgentPartition
from opinionshape.optim import StepSchedule
from opinionshape.sas import exact_grad_table, run_sas

from helpers import all_stubborn_instance, graph_from_P

SYNC = ActivationModel("synchronous")


@pytest.fixture(scope="module")
def karate_study(karate_partition):
    return study_model(karate_partition, seed=0, alpha_curve=SaturatingCurve(0.1))


class TestValueOracle:
    def test_all_stubborn_values_are_pinned(self, schedule):
        graph, partition = all_stubborn_instance(4, 0.5)
        model = GeneralModel(alpha_curves={}, w_curves={})
        v = value_oracle(graph, partition, model, np.zeros(0))
        assert np.allclose(v, 0.5)

    def test_constant_curves_match_base_model(self, karate_graph, karate_partition):
        from opinionshape.dynamics import stationary_opinion

        model = model_from_partition(karate_partition)
        u = np.array([1.0, 0.3, 2.0])
        assert np.allclose(
            value_oracle(karate_graph, karate_partition, model, u),
            stationary_opinion(karate_graph, karate_partition, u),
            atol=1e-12,
        )

    def test_constant_curves_give_the_base_system_bit_for_bit(self, karate_graph, karate_partition):
        from opinionshape.general import _fixed_point
        from opinionshape.network import influence_rhs, stationary_system, system_matrix

        model = model_from_partition(karate_partition)
        for u in (np.zeros(3), np.array([1.0, 0.3, 2.0])):
            damp, rhs, _ = _fixed_point(karate_partition, model, u)
            base = stationary_system(karate_graph, karate_partition)
            assert np.array_equal(system_matrix(karate_graph, damp), base)
            assert np.array_equal(rhs, influence_rhs(karate_partition, u))

    def test_payoff_gradient_matches_finite_differences(self, karate_graph, karate_partition, karate_study):
        u = np.array([0.8, 1.1, 0.4])
        _, grad = general_payoff_and_grad(karate_graph, karate_partition, karate_study, u)
        h = 1e-6
        for pos in range(3):
            up, down = u.copy(), u.copy()
            up[pos] += h
            down[pos] -= h
            fd = (
                general_payoff(karate_graph, karate_partition, karate_study, up)
                - general_payoff(karate_graph, karate_partition, karate_study, down)
            ) / (2 * h)
            assert grad[pos] == pytest.approx(fd, abs=1e-5)


class TestValueUpdate:
    def test_stubborn_untouched(self, karate_graph, karate_partition, karate_study, schedule):
        values = np.zeros(34)
        stub = karate_partition.stubborn[0]
        values[stub] = karate_partition.h[stub]
        out = value_update(values, stub, 0, karate_partition, karate_study, np.zeros(3), np.zeros(34, dtype=np.int64), schedule)
        assert np.array_equal(out, values)

    def test_certain_influence_converges_to_reward(self, schedule):
        P = np.array([[0.0, 1.0], [0.0, 1.0]])
        graph = graph_from_P(P)
        partition = AgentPartition(
            controlled=(0,),
            uncontrolled=(),
            stubborn=(1,),
            alpha=np.array([0.9, 0.0]),
            h={1: 0.3},
            w={0: SaturatingCurve()},
        )
        model = GeneralModel(
            alpha_curves={0: ConstantCurve(1.0)},
            w_curves={0: SaturatingCurve(0.1)},
        )
        u = np.array([0.4])
        values = np.zeros(2)
        clocks = np.zeros(2, dtype=np.int64)
        for _ in range(300):
            values = value_update(values, 0, 1, partition, model, u, clocks, schedule)
        assert values[0] == pytest.approx(model.w_curves[0].value(0.4), abs=1e-6)

    def test_frozen_control_tracks_oracle(self, karate_graph, karate_partition, karate_study, schedule):
        # synchronous sampled value iteration against the exact solution
        rng = np.random.default_rng(0)
        from opinionshape.dynamics import sample_poll_targets

        u = np.array([1.5, 1.5, 2.0])
        oracle = value_oracle(karate_graph, karate_partition, karate_study, u)
        values = np.zeros(34)
        for n in karate_partition.stubborn:
            values[n] = karate_partition.h[n]
        cdf = karate_graph.poll_cdf()
        stub = set(karate_partition.stubborn)
        pollers = np.array([i for i in range(34) if i not in stub])
        alpha_node = karate_study.alpha_values(karate_partition, u)
        aw = np.zeros(34)
        a, _, w, _ = karate_study.tables(karate_partition, u)
        for pos, node in enumerate(karate_partition.controlled):
            aw[node] = a[pos] * w[pos]
        sched = StepSchedule(0.6, 0.6, 100)
        for k in range(40_000):
            polled = sample_poll_targets(cdf, pollers, rng)
            step = sched.a(k)
            target = aw[pollers] + (1.0 - alpha_node[pollers]) * values[polled]
            values[pollers] += step * (target - values[pollers])
        assert np.max(np.abs(values - oracle)) <= 1e-2


class TestGradUpdate:
    def test_flat_curve_reduces_to_fast_update(self, karate_graph, karate_partition, schedule):
        from opinionshape.sas import sas_fast_update

        model = model_from_partition(karate_partition)
        u = np.array([0.5, 1.0, 1.5])
        rng = np.random.default_rng(4)
        table = rng.uniform(0, 2, size=(34, 3))
        table[list(karate_partition.stubborn)] = 0.0
        values = rng.uniform(0, 1, size=34)
        node = karate_partition.controlled[1]
        polled = 5
        got = general_grad_update(
            table, values, node, polled, karate_partition, model, u, np.zeros(34, dtype=np.int64), schedule
        )
        want = sas_fast_update(
            table, (node, polled), karate_graph, karate_partition, u, np.zeros(34, dtype=np.int64), schedule
        )
        assert np.array_equal(got, want)

    def test_constant_reward_diagonal_driver(self, karate_partition, schedule):
        # reward flat at level, influence curve varying: driver is
        # alpha'(u) * (level - probed value) on the diagonal
        model = GeneralModel(
            alpha_curves={n: SaturatingCurve(0.1) for n in karate_partition.controlled},
            w_curves={n: ConstantCurve(0.7) for n in karate_partition.controlled},
        )
        node = karate_partition.controlled[0]
        u = np.zeros(3)
        values = np.full(34, 0.2)
        table = np.zeros((34, 3))
        out = general_grad_update(
            table, values, node, 1, karate_partition, model, u, np.zeros(34, dtype=np.int64), schedule
        )
        ad = model.alpha_curves[node].deriv(0.0)
        expected = schedule.a(0) * ad * (0.7 - 0.2)
        assert out[node, 0] == pytest.approx(expected)

    def test_frozen_control_matches_finite_difference_of_oracle(
        self, karate_graph, karate_partition, karate_study
    ):
        # fixed point check via the known-matrix recursion, then compare
        # against finite differences of the value oracle
        u = np.array([1.0, 0.7, 1.3])
        sched = StepSchedule(1.0, 0.6, 1_000_000_000)  # a(k) = 1: plain fixed-point iteration
        values = np.zeros(34)
        for n in karate_partition.stubborn:
            values[n] = karate_partition.h[n]
        table = np.zeros((34, 3))
        for k in range(400):
            values, table = known_p_updates(
                values, table, karate_partition, karate_study, u, k, sched, karate_graph
            )
        h = 1e-6
        for pos in range(3):
            up, down = u.copy(), u.copy()
            up[pos] += h
            down[pos] -= h
            fd = (
                value_oracle(karate_graph, karate_partition, karate_study, up)
                - value_oracle(karate_graph, karate_partition, karate_study, down)
            ) / (2 * h)
            assert np.max(np.abs(table[:, pos] - fd)) <= 1e-2


class TestAnnealing:
    def test_sigma_formula(self):
        assert sigma_noise(0.3, 100, 10.0) == pytest.approx(10.0 / 2.2563, rel=1e-4)

    def test_sigma_zero_cases(self):
        assert sigma_noise(0.3, 2, 10.0) == 0.0
        assert sigma_noise(0.3, 100, 0.0) == 0.0

    def test_sigma_vanishes(self):
        s = StepSchedule(0.6, 0.6, 100)
        vals = [sigma_noise(s.b(k), int(np.ceil(k / 100)), 10.0) for k in (10**3, 10**4, 10**5, 10**6)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_noise_is_plain_ascent(self, schedule, budget):
        u = np.array([1.0, 1.0, 1.0])
        g = np.array([0.1, 0.2, 0.3])
        rng = np.random.default_rng(0)
        out = annealed_slow_update(u, g, 50, schedule, 0.0, 100, budget, rng)
        from opinionshape.optim import project_budget_simplex

        assert np.array_equal(out, project_budget_simplex(u + schedule.b(50) * g, budget))

    def test_feasible_after_noisy_step(self, schedule, budget):
        rng = np.random.default_rng(1)
        u = np.array([2.0, 2.0, 1.0])
        for k in (500, 5000, 50_000):
            out = annealed_slow_update(u, np.zeros(3), k, schedule, 10.0, 100, budget, rng)
            assert np.all(out >= 0.0) and out.sum() <= budget + 1e-12


class TestKnownP:
    def test_value_iteration_converges_linearly(self, karate_graph, karate_partition, karate_study):
        u = np.array([0.5, 2.0, 0.5])
        sched = StepSchedule(1.0, 0.6, 1_000_000_000)
        values = np.zeros(34)
        for n in karate_partition.stubborn:
            values[n] = karate_partition.h[n]
        table = np.zeros((34, 3))
        for k in range(600):
            values, table = known_p_updates(
                values, table, karate_partition, karate_study, u, k, sched, karate_graph
            )
        oracle = value_oracle(karate_graph, karate_partition, karate_study, u)
        assert np.max(np.abs(values - oracle)) <= 1e-8

    def test_flat_curves_fixed_point_is_exact_table(self, karate_graph, karate_partition):
        model = model_from_partition(karate_partition)
        u = np.array([1.0, 1.0, 1.0])
        sched = StepSchedule(1.0, 0.6, 1_000_000_000)
        values = np.zeros(34)
        for n in karate_partition.stubborn:
            values[n] = karate_partition.h[n]
        table = np.zeros((34, 3))
        for k in range(800):
            values, table = known_p_updates(
                values, table, karate_partition, model, u, k, sched, karate_graph
            )
        assert np.max(np.abs(table - exact_grad_table(karate_graph, karate_partition, u))) <= 1e-8

    def test_contraction_modulus_without_uncontrolled(self):
        # no uncontrolled agents: one sweep contracts by max(1 - alpha(u))
        P = np.array(
            [
                [0.0, 0.5, 0.5, 0.0],
                [0.5, 0.0, 0.0, 0.5],
                [0.5, 0.0, 0.0, 0.5],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        graph = graph_from_P(P)
        partition = AgentPartition(
            controlled=(0, 1, 2),
            uncontrolled=(),
            stubborn=(3,),
            alpha=np.array([0.5, 0.5, 0.5, 0.0]),
            h={3: 0.8},
            w={i: SaturatingCurve() for i in range(3)},
        )
        model = GeneralModel(
            alpha_curves={i: SaturatingCurve(0.1) for i in range(3)},
            w_curves={i: SaturatingCurve(0.1) for i in range(3)},
        )
        u = np.array([0.4, 0.2, 0.9])
        sched = StepSchedule(1.0, 0.6, 1_000_000_000)
        a, _, _, _ = model.tables(partition, u)
        modulus = float(np.max(1.0 - a))
        rng = np.random.default_rng(0)
        v1 = rng.uniform(0, 1, 4)
        v2 = rng.uniform(0, 1, 4)
        v1[3] = v2[3] = 0.8
        t = np.zeros((4, 3))
        n1, _ = known_p_updates(v1, t, partition, model, u, 0, sched, graph)
        n2, _ = known_p_updates(v2, t, partition, model, u, 0, sched, graph)
        assert np.max(np.abs(n1 - n2)) <= modulus * np.max(np.abs(v1 - v2)) + 1e-12


class TestDegenerationAndTracking:
    def test_bit_identical_to_sas_with_flat_curves(
        self, karate_graph, karate_partition, schedule, budget
    ):
        model = model_from_partition(karate_partition)
        sas_traj = run_sas(karate_graph, karate_partition, budget, schedule, SYNC, 800, seed=5)
        gen_traj = run_general_rl(
            karate_graph, karate_partition, model, budget, schedule, 800, seed=5, C=0.0
        )
        assert np.array_equal(sas_traj.u, gen_traj.u)
        assert np.array_equal(sas_traj.extras["grad_table"], gen_traj.extras["grad_table"])
        assert np.allclose(sas_traj.payoff, gen_traj.payoff, atol=1e-12)

    def test_rl_tracks_known_p(self, karate_graph, karate_partition, karate_study, schedule, budget):
        n_iters = 6000
        hits = 0
        for seed in (0, 1, 2):
            rl = run_general_rl(
                karate_graph, karate_partition, karate_study, budget, schedule, n_iters, seed, C=10.0
            )
            kp = run_general_knownp(
                karate_graph, karate_partition, karate_study, budget, schedule, n_iters, seed, C=10.0
            )
            if np.max(np.abs(rl.final_u() - kp.final_u())) <= 0.05:
                hits += 1
        assert hits >= 2

    def test_noise_streams_are_paired(self, karate_graph, karate_partition, karate_study, schedule, budget):
        rl = run_general_rl(
            karate_graph, karate_partition, karate_study, budget, schedule, 400, seed=9, C=10.0
        )
        kp = run_general_knownp(
            karate_graph, karate_partition, karate_study, budget, schedule, 400, seed=9, C=10.0
        )
        assert len(rl.ks) == len(kp.ks) == 401
