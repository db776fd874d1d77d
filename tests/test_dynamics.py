from __future__ import annotations

import numpy as np
import pytest

from opinionshape import dynamics
from opinionshape.curves import SaturatingCurve
from opinionshape.dynamics import (
    empirical_mean_opinion,
    empirical_opinion_stats,
    gossip_step,
    initial_state,
    payoff_fn,
    stationary_opinion,
    total_payoff,
)
from opinionshape.errors import InfeasibleError
from opinionshape.network import ActivationModel, AgentPartition
from opinionshape.optim import project_budget_simplex

from helpers import (
    all_stubborn_instance,
    chain_instance,
    graph_from_P,
    random_instance,
    reference_payoff,
    ring_chords_instance,
)

SYNC = ActivationModel("synchronous")


class TestGossipStep:
    def test_all_stubborn_is_absorbing(self):
        graph, partition = all_stubborn_instance(4, 0.5)
        state = initial_state(graph, partition)
        rng = np.random.default_rng(0)
        nxt, events = gossip_step(state, np.zeros(0), graph, partition, SYNC, rng)
        assert np.array_equal(nxt.x, state.x)
        assert np.all(nxt.x == 0.5)
        assert events == []

    def test_certain_influence_sets_planner_target(self):
        graph, partition = chain_instance()
        partition = AgentPartition(
            controlled=(0,),
            uncontrolled=(1,),
            stubborn=(2,),
            alpha=np.array([1.0, 0.0, 0.0]),
            h={2: 1.0},
            w={0: SaturatingCurve(0.1)},
        )
        u = np.array([0.1])
        state = initial_state(graph, partition)
        for seed in range(5):
            nxt, _ = gossip_step(state, u, graph, partition, SYNC, np.random.default_rng(seed))
            assert nxt.x[0] == pytest.approx(0.5)  # w(0.1) = 0.5

    def test_single_neighbor_copy(self):
        graph, partition = chain_instance()
        state = initial_state(graph, partition)
        state.x[2] = 1.0
        nxt, events = gossip_step(state, np.array([0.1]), graph, partition, SYNC, np.random.default_rng(1))
        assert nxt.x[1] == state.x[2]
        pollers = {e.poller for e in events}
        assert pollers == {0, 1}  # stubborn agent never polls

    def test_opinions_stay_in_unit_interval(self):
        graph, partition = random_instance(11, max_nodes=15)
        state = initial_state(graph, partition)
        u = np.full(len(partition.controlled), 0.7)
        rng = np.random.default_rng(2)
        for _ in range(50):
            state, _ = gossip_step(state, u, graph, partition, SYNC, rng)
            assert np.all(state.x >= 0.0) and np.all(state.x <= 1.0)

    def test_asynchronous_only_touches_active(self):
        graph, partition = random_instance(12, max_nodes=12)
        act = ActivationModel("asynchronous", q=np.full(graph.node_count, 0.3))
        state = initial_state(graph, partition)
        rng = np.random.default_rng(3)
        nxt, events = gossip_step(state, np.zeros(len(partition.controlled)), graph, partition, act, rng)
        assert nxt.k == 1
        assert len(events) <= graph.node_count


class TestStationaryOpinion:
    def test_all_stubborn_constant(self):
        graph, partition = all_stubborn_instance(5, 0.3)
        x = stationary_opinion(graph, partition, np.zeros(0))
        assert np.allclose(x, 0.3, atol=1e-14)

    def test_chain_hand_solved(self):
        # x2 = 1, x1 = x2, x0 = 0.5*w(0.1) + 0.5*x1 = 0.25 + 0.5
        graph, partition = chain_instance()
        x = stationary_opinion(graph, partition, np.array([0.1]))
        assert x[2] == pytest.approx(1.0, abs=1e-12)
        assert x[1] == pytest.approx(1.0, abs=1e-12)
        assert x[0] == pytest.approx(0.75, abs=1e-12)

    def test_self_loop_controlled_agent(self):
        graph = graph_from_P(np.array([[1.0]]))
        partition = AgentPartition(
            controlled=(0,),
            uncontrolled=(),
            stubborn=(),
            alpha=np.array([1.0]),
            h={},
            w={0: SaturatingCurve(0.1)},
        )
        x = stationary_opinion(graph, partition, np.array([0.3]))
        assert x[0] == pytest.approx(0.75)  # w(0.3) = 0.3/0.4

    def test_residual_small(self, karate_graph, karate_partition):
        from opinionshape.network import substochastic_matrix, influence_rhs

        u = np.array([1.0, 2.0, 0.5])
        x = stationary_opinion(karate_graph, karate_partition, u)
        A = substochastic_matrix(karate_graph, karate_partition)
        res = (np.eye(34) - A) @ x - influence_rhs(karate_partition, u)
        assert np.max(np.abs(res)) <= 1e-10

    def test_in_unit_cube_on_random_instances(self):
        for seed in range(10):
            graph, partition = random_instance(seed, max_nodes=20)
            rng = np.random.default_rng(seed)
            u = rng.uniform(0, 2, size=len(partition.controlled))
            x = stationary_opinion(graph, partition, u)
            assert np.all(x >= -1e-12) and np.all(x <= 1.0 + 1e-12)


    def test_residual_above_tolerance_raises(self, karate_graph, karate_partition, monkeypatch):
        # a solve off by 1e-8 in one entry, refinement included, leaves a
        # residual of about 1e-8: above RESIDUAL_TOL, far below 1e-6
        exact = dynamics.solve

        def off_solve(system, rhs):
            x = exact(system, rhs)
            x[0] += 1e-8
            return x

        monkeypatch.setattr(dynamics, "solve", off_solve)
        with pytest.raises(InfeasibleError, match="residual"):
            stationary_opinion(karate_graph, karate_partition, np.array([1.0, 2.0, 0.5]))


class TestTotalPayoff:
    def test_all_stubborn_half(self):
        graph, partition = all_stubborn_instance(4, 0.5)
        assert total_payoff(graph, partition, np.zeros(0)) == pytest.approx(2.0)

    def test_chain_value(self):
        graph, partition = chain_instance()
        assert total_payoff(graph, partition, np.array([0.1])) == pytest.approx(2.75, abs=1e-12)

    def test_monotone_in_each_control(self):
        for seed in range(5):
            graph, partition = random_instance(seed, max_nodes=20)
            rng = np.random.default_rng(seed + 100)
            u = project_budget_simplex(rng.uniform(0, 1, len(partition.controlled)), 5.0)
            base = total_payoff(graph, partition, u)
            for pos in range(len(partition.controlled)):
                bumped = u.copy()
                bumped[pos] += 0.05
                assert total_payoff(graph, partition, bumped) >= base - 1e-12

    @pytest.mark.parametrize("n_ctrl", [0, 1, 3, 7, 8, 9, 20, 80])
    def test_stacked_product_matches_the_row_loop(self, n_ctrl):
        # the stacked product takes each row's dot product on its own, so
        # its bits are those of one c_ctrl @ row per row
        graph, partition = ring_chords_instance(120, n_controlled=n_ctrl, n_stubborn=8, seed=n_ctrl)
        fast = payoff_fn(graph, partition)
        rng = np.random.default_rng(n_ctrl)
        for rows in (1, 2, 5, 64, 1001):
            us = rng.uniform(0.0, 3.0, size=(rows, n_ctrl)) ** 3
            assert fast(us).tobytes() == reference_payoff(graph, partition, us).tobytes()
            for u in us[:3]:
                got, want = fast(u), reference_payoff(graph, partition, u)
                assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_fast_payoff_matches_solver_route(self, karate_graph, karate_partition):
        fast = payoff_fn(karate_graph, karate_partition)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.uniform(0, 2, size=3)
            assert fast(u) == pytest.approx(total_payoff(karate_graph, karate_partition, u), abs=1e-9)


class TestEmpiricalMean:
    def test_all_stubborn_exact(self):
        graph, partition = all_stubborn_instance(4, 0.5)
        mean = empirical_mean_opinion(graph, partition, np.zeros(0), SYNC, 50, 7, seed=0)
        assert np.all(mean == 0.5)

    def test_chain_matches_solver_within_3se(self):
        graph, partition = chain_instance()
        u = np.array([0.1])
        x = stationary_opinion(graph, partition, u)
        mean, se = empirical_opinion_stats(graph, partition, u, SYNC, 500, 2000, seed=1)
        assert np.all(np.abs(mean - x) <= 3 * se + 1e-9)

    def test_zero_steps_returns_initial_state(self):
        graph, partition = chain_instance()
        mean = empirical_mean_opinion(graph, partition, np.array([0.1]), SYNC, 0, 1, seed=0)
        assert np.array_equal(mean, initial_state(graph, partition).x)

    def test_asynchronous_mode_reaches_same_fixed_point(self):
        graph, partition = chain_instance()
        act = ActivationModel("asynchronous", q=np.full(3, 0.5))
        u = np.array([0.1])
        x = stationary_opinion(graph, partition, u)
        mean, se = empirical_opinion_stats(graph, partition, u, act, 800, 1500, seed=2)
        assert np.all(np.abs(mean - x) <= 3 * se + 1e-9)


class TestConcavity:
    def test_componentwise_concavity_of_stationary_opinion(self):
        # 200 random (u, v, lambda) triples across a few instances
        rng = np.random.default_rng(42)
        checked = 0
        for seed in range(10):
            graph, partition = random_instance(seed, max_nodes=20)
            n_ctrl = len(partition.controlled)
            for _ in range(20):
                u = project_budget_simplex(rng.uniform(0, 2, n_ctrl), 5.0)
                v = project_budget_simplex(rng.uniform(0, 2, n_ctrl), 5.0)
                lam = rng.uniform()
                mix = stationary_opinion(graph, partition, lam * u + (1 - lam) * v)
                split = lam * stationary_opinion(graph, partition, u) + (1 - lam) * stationary_opinion(
                    graph, partition, v
                )
                assert np.all(mix >= split - 1e-9)
                checked += 1
        assert checked == 200
