"""The shared session fixtures stay the same from one test to the next."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PICKLING = "tests/test_network.py::TestLoadEdgeList::test_sparse_rows_stay_read_only_after_pickling"
CACHING = "tests/test_fixtures.py::test_caches_a_partition_with_a_local_curve"


def test_caches_a_partition_with_a_local_curve(karate_graph, karate_partition):
    class LocalCurve:
        """A curve class pickle cannot find by name."""

        def value(self, x: float) -> float:
            return x

        def deriv(self, x: float) -> float:
            return 1.0

    partition = replace(karate_partition, w={i: LocalCurve() for i in karate_partition.controlled})
    karate_graph.payoff_adjoint(partition)
    assert karate_graph._adjoint[0] is partition


@pytest.mark.parametrize("order", [(CACHING, PICKLING), (PICKLING, CACHING)])
def test_pickling_the_shared_graph_passes_in_either_order(order):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *order],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "2 passed" in run.stdout
