from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# helpers holds shared assertions: rewritten, they also run under python -O
pytest.register_assert_rewrite("helpers")

from opinionshape.network import ActivationModel, bundled_network_path, load_edge_list, random_partition
from opinionshape.optim import StepSchedule, exact_optimum

BUDGET = 5.0


@pytest.fixture(scope="session")
def karate_graph():
    return load_edge_list(bundled_network_path("karate"))


@pytest.fixture(autouse=True)
def restore_karate_adjoint(karate_graph):
    """Put back, after each test, what the shared graph's one-slot adjoint
    cache held before it: a partition a test leaves there would reach every
    later test, and every pickle of the graph."""
    held = karate_graph._adjoint
    yield
    object.__setattr__(karate_graph, "_adjoint", held)


@pytest.fixture(scope="session")
def karate_partition(karate_graph):
    """The benchmark split: 3 controlled, 28 uncontrolled, 3 stubborn, alpha 0.6."""
    return random_partition(karate_graph, (3, 28, 3), 0.6, seed=0)


@pytest.fixture(scope="session")
def karate_optimum(karate_graph, karate_partition):
    return exact_optimum(karate_graph, karate_partition, BUDGET)


@pytest.fixture(scope="session")
def schedule():
    return StepSchedule(A=0.6, B=0.6, denom=100)


@pytest.fixture(scope="session")
def synchronous():
    return ActivationModel("synchronous")


@pytest.fixture(scope="session")
def budget():
    return BUDGET
