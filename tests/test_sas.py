from __future__ import annotations

import numpy as np
import pytest

from opinionshape import sas
from opinionshape.curves import ConstantCurve, SaturatingCurve
from opinionshape.general import run_general_rl, study_model
from opinionshape.harness import build_instance
from opinionshape.network import ActivationModel, AgentPartition, substochastic_matrix
from opinionshape.optim import exact_gradient, project_budget_simplex
from opinionshape.sas import exact_grad_table, run_sas, sas_fast_update, sas_slow_update

from helpers import chain_instance, graph_from_P, single_agent_instance
from test_golden import short_config

SYNC = ActivationModel("synchronous")


class TestExactTable:
    def test_isolated_certain_agent(self):
        graph, partition = single_agent_instance(1.0, SaturatingCurve(0.1))
        table = exact_grad_table(graph, partition, np.array([0.1]))
        assert table[0, 0] == pytest.approx(partition.w[0].deriv(0.1))

    def test_zero_alpha_gives_zero_table(self):
        # alpha = 0 on the controlled agent: no planner influence at all
        P = np.array([[0.0, 1.0], [0.0, 1.0]])
        graph = graph_from_P(P)
        partition = AgentPartition(
            controlled=(0,),
            uncontrolled=(),
            stubborn=(1,),
            alpha=np.array([0.0, 0.0]),
            h={1: 0.5},
            w={0: SaturatingCurve()},
        )
        table = exact_grad_table(graph, partition, np.array([1.0]))
        assert np.all(table == 0.0)

    def test_chain_table(self):
        graph, partition = chain_instance()
        table = exact_grad_table(graph, partition, np.array([0.1]))
        assert table[:, 0] == pytest.approx([1.25, 0.0, 0.0], abs=1e-12)

    def test_karate_fixed_point_residual(self, karate_graph, karate_partition):
        u = np.array([0.5, 1.0, 2.0])
        table = exact_grad_table(karate_graph, karate_partition, u)
        A = substochastic_matrix(karate_graph, karate_partition)
        idx = list(karate_partition.controlled)
        driver = np.zeros_like(table)
        driver[idx, np.arange(3)] = karate_partition.alpha[idx] * karate_partition.w_derivs(u)
        residual = table - (driver + A @ table)
        assert np.max(np.abs(residual)) <= 1e-10
        for i in karate_partition.stubborn:
            assert np.all(table[i] == 0.0)

    def test_column_sums_equal_exact_gradient(self, karate_graph, karate_partition):
        u = np.array([1.3, 0.2, 2.2])
        table = exact_grad_table(karate_graph, karate_partition, u)
        grad = exact_gradient(karate_graph, karate_partition, u)
        assert np.allclose(table.sum(axis=0), grad, atol=1e-8)


class TestFastUpdate:
    def test_zero_expected_increment_at_fixed_point(self, karate_graph, karate_partition, schedule):
        u = np.array([1.0, 1.0, 1.0])
        table = exact_grad_table(karate_graph, karate_partition, u)
        P = karate_graph.P
        for poller in (karate_partition.controlled[0], karate_partition.uncontrolled[0]):
            drift = np.zeros(3)
            for polled in range(34):
                if P[poller, polled] == 0:
                    continue
                clocks = np.zeros(34, dtype=np.int64)
                new = sas_fast_update(
                    table, (poller, polled), karate_graph, karate_partition, u, clocks, schedule
                )
                drift += P[poller, polled] * (new[poller] - table[poller])
            assert np.allclose(drift, 0.0, atol=1e-12)

    def test_first_event_writes_scaled_derivative(self, schedule):
        graph, partition = single_agent_instance(1.0, SaturatingCurve(0.1))
        table = np.zeros((1, 1))
        clocks = np.zeros(1, dtype=np.int64)
        u = np.array([0.1])
        new = sas_fast_update(table, (0, 0), graph, partition, u, clocks, schedule)
        assert new[0, 0] == pytest.approx(schedule.a(0) * partition.w[0].deriv(0.1))
        assert clocks[0] == 1

    def test_stubborn_poller_ignored(self, karate_graph, karate_partition, schedule):
        table = np.ones((34, 3))
        clocks = np.zeros(34, dtype=np.int64)
        stub = karate_partition.stubborn[0]
        new = sas_fast_update(
            table, (stub, 0), karate_graph, karate_partition, np.zeros(3), clocks, schedule
        )
        assert np.array_equal(new, table)
        assert clocks[stub] == 0

    def test_long_run_frozen_u_converges(self, karate_graph, karate_partition, schedule, budget):
        u = np.array([1.0, 2.0, 1.5])
        oracle = exact_grad_table(karate_graph, karate_partition, u)
        traj = run_sas(
            karate_graph, karate_partition, budget, schedule, SYNC,
            n_iters=100_000, seed=0, u0=u, freeze_u=True,
        )
        table = traj.extras["grad_table"]
        assert np.max(np.abs(table - oracle)) <= 1e-2
        # converged column sums estimate the payoff gradient
        grad = exact_gradient(karate_graph, karate_partition, u)
        assert np.max(np.abs(table.sum(axis=0) - grad)) <= 1e-2


class TestSlowUpdate:
    def test_zero_table_keeps_control(self, budget, schedule):
        u = np.array([1.0, 2.0])
        out = sas_slow_update(u, np.zeros((5, 2)), 3, schedule, budget)
        assert np.array_equal(out, u)

    def test_fixed_point_at_optimum(self, karate_graph, karate_partition, schedule, budget, karate_optimum):
        u_star, _ = karate_optimum
        table = exact_grad_table(karate_graph, karate_partition, u_star)
        out = sas_slow_update(u_star, table, 10, schedule, budget)
        assert np.allclose(out, u_star, atol=1e-8)

    def test_interior_ascent_is_componentwise_increase(self, karate_graph, karate_partition, schedule, budget):
        # step small enough that the budget stays slack
        u = np.array([0.1, 0.1, 0.1])
        table = exact_grad_table(karate_graph, karate_partition, u)
        out = sas_slow_update(u, table, 100_000, schedule, budget)
        assert out.sum() < budget
        assert np.all(out >= u)

    def test_feasible_after_every_step(self, karate_graph, karate_partition, schedule, budget):
        rng = np.random.default_rng(0)
        u = np.zeros(3)
        for k in range(50):
            table = rng.normal(0, 5, size=(34, 3))
            u = sas_slow_update(u, table, k, schedule, budget)
            assert np.all(u >= 0.0) and u.sum() <= budget + 1e-12


class TestRunSas:
    def test_all_stubborn_never_moves(self, schedule, budget):
        from helpers import all_stubborn_instance

        graph, partition = all_stubborn_instance(4, 0.5)
        traj = run_sas(graph, partition, budget, schedule, SYNC, n_iters=20, seed=0)
        assert traj.u.shape == (21, 0)
        assert np.allclose(traj.payoff, 2.0)

    def test_matches_single_event_updates_for_one_tick(
        self, karate_graph, karate_partition, schedule, budget
    ):
        # one synchronous tick of the runner == per-event updates on the
        # pre-tick table, in any order
        seed = 13
        traj = run_sas(karate_graph, karate_partition, budget, schedule, SYNC, n_iters=1, seed=seed)
        rng = np.random.default_rng(seed)
        from opinionshape.dynamics import sample_poll_targets

        stub = set(karate_partition.stubborn)
        pollers = np.array([i for i in range(34) if i not in stub])
        polled = sample_poll_targets(karate_graph.poll_cdf(), pollers, rng)
        table = np.zeros((34, 3))
        expect = table.copy()
        clocks = np.zeros(34, dtype=np.int64)
        u0 = np.zeros(3)
        for i, j in zip(pollers, polled):
            upd = sas_fast_update(
                table, (int(i), int(j)), karate_graph, karate_partition, u0,
                np.zeros(34, dtype=np.int64), schedule,
            )
            expect[i] = upd[i]
        u1 = project_budget_simplex(u0 + schedule.b(0) * expect.sum(axis=0), budget)
        assert np.allclose(traj.u[1], u1, atol=1e-15)

    def test_karate_end_to_end_gap(self, karate_graph, karate_partition, schedule, budget, karate_optimum):
        _, payoff_star = karate_optimum
        traj = run_sas(
            karate_graph, karate_partition, budget, schedule, SYNC,
            n_iters=4000, seed=3, payoff_star=payoff_star,
        )
        assert traj.rel_gap[-1] <= 0.01
        assert np.all(traj.u.sum(axis=1) <= budget + 1e-9)

    def test_frozen_control_reduces_to_fast_recursion(self, karate_graph, karate_partition, schedule, budget):
        u = np.array([0.3, 0.3, 0.3])
        traj = run_sas(
            karate_graph, karate_partition, budget, schedule, SYNC,
            n_iters=10, seed=5, u0=u, freeze_u=True,
        )
        assert np.all(traj.u == 0.3)

    def test_asynchronous_mode_runs(self, karate_graph, karate_partition, schedule, budget):
        act = ActivationModel("asynchronous", q=np.full(34, 0.5))
        traj = run_sas(karate_graph, karate_partition, budget, schedule, act, n_iters=200, seed=1)
        assert len(traj.ks) == 201
        clocks = traj.extras["clocks"]
        for i in karate_partition.stubborn:
            assert clocks[i] == 0
        assert np.all(clocks <= 201)


class TestDegenerateAlphaVariants:
    def test_constant_reward_curve_keeps_table_at_zero(self, schedule, budget):
        graph, partition = single_agent_instance(0.6, ConstantCurve(0.9))
        traj = run_sas(graph, partition, budget, schedule, SYNC, n_iters=100, seed=0)
        assert np.all(traj.extras["grad_table"] == 0.0)
        assert np.all(traj.u == 0.0)


class TestPollBlocks:
    """Synchronous runs draw their poll targets ``POLL_BLOCK`` draws at a
    time; where the blocks end must not show in any output."""

    @staticmethod
    def outputs(built, scheme, n_iters=320, seed=4):
        graph, partition, schedule = built.graph, built.partition, built.schedule
        if scheme == "sas":
            traj = run_sas(graph, partition, 5.0, schedule, SYNC, n_iters, seed)
            extras = (traj.extras["grad_table"], traj.extras["clocks"])
        else:
            model = study_model(partition, seed, SaturatingCurve())
            traj = run_general_rl(graph, partition, model, 5.0, schedule, n_iters, seed)
            extras = (traj.extras["grad_table"], traj.extras["values"])
        return [a.tobytes() for a in (traj.u, traj.payoff, *extras)]

    @pytest.mark.parametrize("scheme", ["sas", "general-rl"])
    @pytest.mark.parametrize("instance", ["karate", "ring"])
    def test_block_length_does_not_move_any_output(self, monkeypatch, tmp_path, instance, scheme):
        built = build_instance(short_config(tmp_path, instance, "sas"))
        pollers = built.graph.node_count - len(built.partition.stubborn)
        assert sas.POLL_BLOCK // pollers not in (1, 7)
        default = self.outputs(built, scheme)
        # one tick per block, then 7 ticks: a prime, so most blocks end
        # where the default's do not
        for ticks in (1, 7):
            monkeypatch.setattr(sas, "POLL_BLOCK", ticks * pollers)
            assert self.outputs(built, scheme) == default

    def test_synchronous_clocks_count_every_tick(self, karate_graph, karate_partition, schedule, budget):
        traj = run_sas(karate_graph, karate_partition, budget, schedule, SYNC, n_iters=37, seed=0)
        clocks = traj.extras["clocks"]
        assert clocks.dtype == np.int64
        assert clocks.tolist() == [0 if i in karate_partition.stubborn else 37 for i in range(34)]
