"""The stationary system: one adjoint solve per (graph, partition), cached on the graph."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from opinionshape.dynamics import payoff_coefficients
from opinionshape.network import (
    bundled_network_path,
    load_edge_list,
    random_partition,
    stationary_system,
    substochastic_matrix,
)

from helpers import SolveCounter


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

