"""The stationary system: one adjoint solve per (graph, partition), cached on the graph."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from opinionshape.curves import SaturatingCurve
from opinionshape.dynamics import payoff_coefficients
from opinionshape.errors import InfeasibleError
from opinionshape.network import (
    AgentPartition,
    bundled_network_path,
    load_edge_list,
    random_partition,
    stationary_system,
    substochastic_matrix,
)
from opinionshape.sas import exact_grad_table

from helpers import SolveCounter, graph_from_P


@pytest.fixture
def fresh():
    """A graph and partition of their own, so no other test touches the cache."""
    graph = load_edge_list(bundled_network_path("karate"))
    return graph, random_partition(graph, (3, 28, 3), 0.6, seed=0)


def test_coefficients_equal_the_direct_solve_bit_for_bit(fresh):
    graph, partition = fresh
    n = graph.node_count
    A = substochastic_matrix(graph, partition)
    reference = np.linalg.solve((np.eye(n) - A).T, np.ones(n))
    assert np.array_equal(payoff_coefficients(graph, partition), reference)


def test_feasibility_check_fills_the_cache(fresh, monkeypatch):
    graph, partition = fresh
    counter = SolveCounter(monkeypatch, graph.node_count)
    first = payoff_coefficients(graph, partition)
    assert payoff_coefficients(graph, partition) is first
    assert counter.calls == 0


def test_replaced_partition_gets_its_own_coefficients(fresh):
    graph, partition = fresh
    original = payoff_coefficients(graph, partition).copy()
    halved = dataclasses.replace(partition, alpha=partition.alpha * 0.5)
    coef = payoff_coefficients(graph, halved)
    n = graph.node_count
    fresh_solve = np.linalg.solve(stationary_system(graph, halved).T, np.ones(n))
    assert np.array_equal(coef, fresh_solve)
    assert not np.array_equal(coef, original)
    # the single slot now holds the replacement; the original solves again
    assert np.array_equal(payoff_coefficients(graph, partition), original)


def test_equal_but_distinct_partition_misses_the_cache(fresh, monkeypatch):
    graph, partition = fresh
    payoff_coefficients(graph, partition)
    counter = SolveCounter(monkeypatch, graph.node_count)
    payoff_coefficients(graph, dataclasses.replace(partition))
    assert counter.calls == 1


def test_returned_vector_is_read_only(fresh):
    graph, partition = fresh
    coef = payoff_coefficients(graph, partition)
    assert not coef.flags.writeable
    with pytest.raises(ValueError):
        coef[0] = 0.0

    # pool workers receive the instance pickled: the cache travels, still read-only
    graph2, partition2 = pickle.loads(pickle.dumps((graph, partition)))
    coef2 = payoff_coefficients(graph2, partition2)
    assert graph2._adjoint[1] is coef2
    assert not coef2.flags.writeable



def two_cycles_instance():
    """Two closed 2-cycles {0, 1} and {2, 3}; node 0 is controlled with
    alpha = 0 and no agent is stubborn, so Id - A is Id - P, singular."""
    P = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])
    partition = AgentPartition(
        controlled=(0,), uncontrolled=(1, 2, 3), stubborn=(), alpha=np.zeros(4), h={}, w={0: SaturatingCurve()}
    )
    return graph_from_P(P), partition


@pytest.mark.parametrize(
    "oracle",
    [
        lambda graph, partition: exact_grad_table(graph, partition, np.ones(1)),
    ],
    ids=["exact_grad_table"],
)
def test_exact_oracles_raise_infeasible_on_a_singular_system(oracle):
    graph, partition = two_cycles_instance()
    with pytest.raises(InfeasibleError, match="singular"):
        oracle(graph, partition)
