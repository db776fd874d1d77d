from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opinionshape.partial_obs as partial_mod
from opinionshape.curves import SaturatingCurve
from opinionshape.errors import NonAbsorbingError
from opinionshape.network import AgentPartition
from opinionshape.optim import LocalClocks, StepSchedule
from opinionshape.partial_obs import (
    BLOCK,
    BlockUniforms,
    Token,
    hit_law_oracle,
    observed_set,
    partial_fast_update,
    partial_slow_update,
    probe,
    relay_token,
    restricted_grad_oracle,
    run_partial,
    sample_hidden,
)
from opinionshape.sas import exact_grad_table

from helpers import chain_instance, graph_from_P


@pytest.fixture(scope="module")
def karate_hidden(karate_partition):
    return sample_hidden(karate_partition, 0.5, seed=42)


@pytest.fixture(scope="module")
def karate_observed(karate_partition, karate_hidden):
    return observed_set(karate_partition, karate_hidden)


class TestHiddenSampling:
    def test_hidden_size_and_pool(self, karate_partition, karate_hidden):
        pool = set(karate_partition.uncontrolled) | set(karate_partition.stubborn)
        assert karate_hidden <= pool
        assert len(karate_hidden) == round(0.5 * len(pool))

    def test_observed_always_covers_controlled_and_stubborn(self, karate_partition, karate_hidden):
        obs = set(observed_set(karate_partition, karate_hidden))
        assert set(karate_partition.controlled) <= obs
        assert set(karate_partition.stubborn) <= obs

    def test_deterministic(self, karate_partition):
        assert sample_hidden(karate_partition, 0.5, seed=3) == sample_hidden(karate_partition, 0.5, seed=3)


class TestProbe:
    def test_all_observed_is_one_poll(self, karate_graph, karate_partition):
        # with everything observed the probe law is exactly the poll matrix
        law, terminal = hit_law_oracle(karate_graph, karate_partition, tuple(range(34)))
        assert terminal == list(range(34))
        for i in karate_partition.controlled:
            assert np.allclose(law[i], karate_graph.P[i], atol=1e-12)

    def test_deterministic_relay_chain(self):
        # 0 -> 1 -> 2 with node 1 hidden: a probe from 0 always lands on 2
        P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        graph = graph_from_P(P)
        partition = AgentPartition(
            controlled=(0,),
            uncontrolled=(1,),
            stubborn=(2,),
            alpha=np.array([0.5, 0.0, 0.0]),
            h={2: 1.0},
            w={0: SaturatingCurve()},
        )
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert probe(graph, partition, (0, 2), 0, rng) == 2

    def test_token_metadata(self):
        P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        graph = graph_from_P(P)
        partition = AgentPartition(
            controlled=(0,),
            uncontrolled=(1,),
            stubborn=(2,),
            alpha=np.array([0.5, 0.0, 0.0]),
            h={2: 1.0},
            w={0: SaturatingCurve()},
        )
        token = relay_token(graph, partition, (0, 2), 0, np.random.default_rng(1), stamp=7)
        assert token == Token(origin=0, terminal=2, hops=2, stamp=7)

    def test_empirical_law_matches_oracle(self, karate_graph, karate_partition, karate_observed):
        law, terminal = hit_law_oracle(karate_graph, karate_partition, karate_observed)
        t_index = {n: i for i, n in enumerate(terminal)}
        rng = np.random.default_rng(5)
        start = karate_partition.controlled[1]
        n = 100_000
        counts = np.zeros(len(terminal))
        for _ in range(n):
            counts[t_index[probe(karate_graph, karate_partition, karate_observed, start, rng)]] += 1
        tv = 0.5 * np.abs(counts / n - law[start]).sum()
        assert tv <= 0.01

    def test_oracle_rows_are_distributions(self, karate_graph, karate_partition, karate_observed):
        law, terminal = hit_law_oracle(karate_graph, karate_partition, karate_observed)
        for i in karate_partition.controlled:
            assert law[i].sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(law[i] >= -1e-15)


class TestRestrictedOracle:
    def test_all_observed_equals_row_sums_of_full_table(self, karate_graph, karate_partition):
        u = np.array([0.8, 0.4, 1.2])
        full = exact_grad_table(karate_graph, karate_partition, u)
        restricted = restricted_grad_oracle(karate_graph, karate_partition, tuple(range(34)), u)
        for node in range(34):
            assert restricted[node] == pytest.approx(full[node].sum(), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        u=st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
    )
    def test_observed_values_are_row_sums_of_full_table(self, karate_graph, karate_partition, fraction, seed, u):
        # hidden agents are uncontrolled relays: eliminating them reroutes
        # the chain but keeps each observed row sum, so the scheme's limit
        # does not depend on the observed set
        u = np.array(u)
        observed = observed_set(karate_partition, sample_hidden(karate_partition, fraction, seed))
        row_sums = exact_grad_table(karate_graph, karate_partition, u).sum(axis=1)
        restricted = restricted_grad_oracle(karate_graph, karate_partition, observed, u)
        assert sorted(restricted) == list(observed)
        for node in observed:
            assert restricted[node] == pytest.approx(row_sums[node], rel=1e-12, abs=1e-14)

    def test_stubborn_entries_zero(self, karate_graph, karate_partition, karate_observed):
        out = restricted_grad_oracle(karate_graph, karate_partition, karate_observed, np.zeros(3))
        for i in karate_partition.stubborn:
            assert out[i] == 0.0


class TestFastUpdate:
    def test_fixed_point_has_zero_expected_drift(self, karate_graph, karate_partition, karate_observed, schedule):
        u = np.array([0.5, 0.5, 0.5])
        law, terminal = hit_law_oracle(karate_graph, karate_partition, karate_observed)
        oracle = restricted_grad_oracle(karate_graph, karate_partition, karate_observed, u)
        fixed = np.zeros(34)
        fixed[list(oracle)] = list(oracle.values())
        node = karate_partition.controlled[0]
        drift = 0.0
        for other in terminal:
            clocks = LocalClocks.zeros(34)
            new = partial_fast_update(fixed, node, other, karate_partition, u, clocks, schedule)
            drift += law[node, terminal.index(other)] * (new[node] - fixed[node])
        assert drift == pytest.approx(0.0, abs=1e-12)

    def test_certain_influence_converges_to_derivative(self, schedule):
        graph, partition = chain_instance()
        partition = AgentPartition(
            controlled=(0,),
            uncontrolled=(1,),
            stubborn=(2,),
            alpha=np.array([1.0, 0.0, 0.0]),
            h={2: 1.0},
            w={0: SaturatingCurve(0.1)},
        )
        u = np.array([0.2])
        grad_vec = np.zeros(3)
        clocks = LocalClocks.zeros(3)
        for _ in range(200):
            grad_vec = partial_fast_update(grad_vec, 0, 2, partition, u, clocks, schedule)
        assert grad_vec[0] == pytest.approx(partition.w[0].deriv(0.2), abs=1e-6)

    def test_stubborn_update_ignored(self, karate_partition, schedule):
        grad_vec = np.ones(34)
        clocks = LocalClocks.zeros(34)
        stub = karate_partition.stubborn[0]
        out = partial_fast_update(grad_vec, stub, 0, karate_partition, np.zeros(3), clocks, schedule)
        assert np.array_equal(out, grad_vec)


class TestSlowUpdate:
    def test_zero_estimate_keeps_control(self, karate_partition, schedule, budget):
        u = np.array([1.0, 1.0, 1.0])
        grad_vec = np.zeros(34)
        out = partial_slow_update(u, grad_vec, karate_partition, 5, schedule, budget)
        assert np.array_equal(out, u)

    def test_positive_estimates_increase_interior_control(self, karate_partition, schedule, budget):
        u = np.array([0.2, 0.2, 0.2])
        grad_vec = np.zeros(34)
        grad_vec[list(karate_partition.controlled)] = 0.05
        out = partial_slow_update(u, grad_vec, karate_partition, 100_000, schedule, budget)
        assert out.sum() < budget
        assert np.all(out > u)


class TestRunPartial:
    def test_frozen_vector_converges_to_restricted_oracle(
        self, karate_graph, karate_partition, karate_hidden, schedule, budget
    ):
        # freeze the control by running with the slow scale effectively off:
        # drive the fast recursion directly against the oracle
        observed = observed_set(karate_partition, karate_hidden)
        u = np.array([1.0, 0.5, 1.5])
        oracle = restricted_grad_oracle(karate_graph, karate_partition, observed, u)
        rng = np.random.default_rng(0)
        grad_vec = {node: 0.0 for node in observed}
        clocks = LocalClocks.zeros(34)
        stubborn = set(karate_partition.stubborn)
        learners = [n for n in observed if n not in stubborn]
        for _ in range(30_000):
            snapshot = dict(grad_vec)
            for node in learners:
                tok = relay_token(karate_graph, karate_partition, observed, node, rng)
                a = karate_partition.alpha[node]
                pos = karate_partition.control_index().get(node)
                own = a * karate_partition.w[node].deriv(float(u[pos])) if pos is not None else 0.0
                step = schedule.a(clocks.value(node))
                grad_vec[node] = snapshot[node] + step * (
                    own + (1.0 - a) * snapshot[tok.terminal] - snapshot[node]
                )
            clocks.bump(learners)
        err = max(abs(grad_vec[n] - oracle[n]) for n in learners)
        assert err <= 1e-2

    def test_no_controlled_agents_is_noop(self, schedule, budget):
        from helpers import all_stubborn_instance

        graph, partition = all_stubborn_instance(4, 0.5)
        traj = run_partial(graph, partition, budget, schedule, 10, seed=0, observed_fraction=0.5)
        assert traj.u.shape == (11, 0)

    def test_karate_converges_within_3000_iters(
        self, karate_graph, karate_partition, karate_hidden, schedule, budget, karate_optimum
    ):
        _, payoff_star = karate_optimum
        traj = run_partial(
            karate_graph, karate_partition, budget, schedule, 3000, seed=1,
            hidden=karate_hidden, payoff_star=payoff_star,
        )
        assert traj.rel_gap[-1] <= 0.01
        # converged well before the horizon: later controls barely move
        tail = traj.u[2000:]
        assert np.max(np.abs(tail - tail[-1])) <= 0.05

    def test_feasibility_throughout(self, karate_graph, karate_partition, schedule, budget):
        traj = run_partial(
            karate_graph, karate_partition, budget, schedule, 200, seed=3, observed_fraction=0.5
        )
        assert np.all(traj.u >= 0.0)
        assert np.all(traj.u.sum(axis=1) <= budget + 1e-9)

    def test_fully_observed_run_improves_payoff(
        self, karate_graph, karate_partition, schedule, budget, karate_optimum
    ):
        _, payoff_star = karate_optimum
        traj = run_partial(
            karate_graph, karate_partition, budget, schedule, 1500, seed=0,
            observed_fraction=1.0, payoff_star=payoff_star,
        )
        assert traj.extras["hidden"] == set()
        assert traj.rel_gap[-1] <= 0.02


class TestBlockUniforms:
    """``run_partial`` relays on a block-drawn source; it must be the
    generator's own scalar stream."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 5 * BLOCK + 3))
    def test_stream_is_the_scalar_stream(self, seed, count):
        source, rng = BlockUniforms(np.random.default_rng(seed)), np.random.default_rng(seed)
        got = np.array([source.random() for _ in range(count)])
        want = np.array([rng.random() for _ in range(count)])
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def leaky_ring(size, leak):
        # controlled 0 and 1 poll into a hidden ring; each ring hop leaks
        # to 0, 1 or stubborn node size + 2 with probability 3 * leak, so a
        # relay takes about 1 / (3 * leak) hops
        n = size + 3
        P = np.zeros((n, n))
        P[0, 2] = P[1, 2 + size // 2] = P[n - 1, n - 1] = 1.0
        ring = np.arange(2, n - 1)
        P[ring, 2 + (ring - 1) % size] = P[ring, 2 + (ring - 3) % size] = 1.0
        P[ring, 0] = P[ring, 1] = P[ring, n - 1] = leak
        P /= P.sum(axis=1, keepdims=True)
        partition = AgentPartition(
            controlled=(0, 1), uncontrolled=tuple(range(2, n - 1)), stubborn=(n - 1,),
            alpha=np.r_[0.5, 0.5, np.zeros(n - 2)], h={n - 1: 1.0},
            w={0: SaturatingCurve(), 1: SaturatingCurve()},
        )
        return graph_from_P(P), partition

    def test_relays_match_a_fresh_generator_across_blocks(self):
        graph, partition = self.leaky_ring(40, 1e-3)
        observed = frozenset({0, 1})
        source, rng = BlockUniforms(np.random.default_rng(7)), np.random.default_rng(7)
        starts = [0, 1] * 6
        got = [relay_token(graph, partition, observed, v, source, k) for k, v in enumerate(starts)]
        want = [relay_token(graph, partition, observed, v, rng, k) for k, v in enumerate(starts)]
        assert got == want
        hops = [token.hops for token in got]
        assert max(hops) > BLOCK and sum(hops) > 4 * BLOCK
        assert len({token.terminal for token in got}) > 1
        assert source.random() == rng.random()


class TestHopCap:
    """``HOP_CAP`` is a package error naming the token's start node, not an
    ``assert``: this class also runs under ``python -O``."""

    @staticmethod
    def two_learner_chain(length):
        # controlled 0 polls stubborn length + 1 directly; controlled 1
        # starts a chain through hidden 2 .. length, so its token takes
        # length hops
        n = length + 2
        P = np.zeros((n, n))
        P[0, n - 1] = P[n - 1, n - 1] = 1.0
        P[np.arange(1, n - 1), np.arange(2, n)] = 1.0
        partition = AgentPartition(
            controlled=(0, 1), uncontrolled=tuple(range(2, n - 1)), stubborn=(n - 1,),
            alpha=np.r_[0.5, 0.5, np.zeros(n - 2)], h={n - 1: 1.0},
            w={0: SaturatingCurve(), 1: SaturatingCurve()},
        )
        return graph_from_P(P), partition, set(range(2, n - 1))

    def test_token_within_the_cap_lands(self, monkeypatch):
        graph, partition, hidden = self.two_learner_chain(6)
        monkeypatch.setattr(partial_mod, "HOP_CAP", 6)
        traj = run_partial(graph, partition, 1.0, StepSchedule(), 2, seed=0, hidden=hidden)
        assert traj.extras["mean_hops"] == (1 + 6) / 2
        token = relay_token(graph, partition, (0, 1), 1, np.random.default_rng(0))
        assert (token.terminal, token.hops) == (7, 6)

    def test_cap_names_the_start_node(self, monkeypatch):
        graph, partition, hidden = self.two_learner_chain(6)
        monkeypatch.setattr(partial_mod, "HOP_CAP", 3)
        message = "token from node 1 exceeded 3 hops"
        with pytest.raises(NonAbsorbingError, match=message):
            run_partial(graph, partition, 1.0, StepSchedule(), 2, seed=0, hidden=hidden)
        with pytest.raises(NonAbsorbingError, match=message):
            relay_token(graph, partition, (0, 1), 1, np.random.default_rng(0))
        # the first learner's token is still within the cap
        assert relay_token(graph, partition, (0, 1), 0, np.random.default_rng(0)).hops == 1

    def test_cap_names_the_start_node_on_block_uniforms(self, monkeypatch):
        graph, partition, _ = self.two_learner_chain(6)
        monkeypatch.setattr(partial_mod, "HOP_CAP", 3)
        source = BlockUniforms(np.random.default_rng(0))
        assert relay_token(graph, partition, (0, 1), 0, source).hops == 1
        with pytest.raises(NonAbsorbingError, match="token from node 1 exceeded 3 hops"):
            relay_token(graph, partition, (0, 1), 1, source)
