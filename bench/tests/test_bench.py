"""Self-tests of the benchmark: inputs, output check, tracer, workloads.

Run from the repository root with ``python -m pytest bench/tests``.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer as tracing
import workloads
from graphgen import write_edge_list
from opinionshape import harness, load_edge_list

ROOT = Path(__file__).resolve().parents[2]


def test_generator_is_deterministic_and_loadable(tmp_path):
    a = write_edge_list(tmp_path / "a.edges", 200, 4, seed=7)
    b = write_edge_list(tmp_path / "b.edges", 200, 4, seed=7)
    c = write_edge_list(tmp_path / "c.edges", 200, 4, seed=8)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    graph = load_edge_list(a)
    assert graph.node_count == 200
    assert len(graph.edges) == 200 * 4
    # ring arcs: every node reaches its successor
    assert all(graph.P[i, (i + 1) % 200] > 0 for i in range(200))


def test_output_check_rejects_infeasible_trajectory():
    budget = 5.0
    u = np.array([[0.0, 0.0], [2.0, 3.0], [4.0, 1.5]])
    pay = np.array([1.0, 2.0, 3.0])
    gap = np.array([0.5, 0.2, 0.1])
    assert checks.trajectory_problems(u[:2], pay[:2], gap[:2], budget) == []
    assert any("above budget" in p for p in checks.trajectory_problems(u, pay, gap, budget))
    assert any("negative" in p for p in checks.trajectory_problems(-u, pay, gap, budget))
    assert checks.trajectory_problems(u[:2], np.array([1.0, np.nan]), gap[:2], budget) == ["non-finite payoff"]
    assert checks.trajectory_problems(u[:2], pay[:2], np.array([np.inf, 0.1]), budget) == ["non-finite rel_gap"]


def test_output_check_reads_csv_rows(tmp_path):
    path = tmp_path / "run.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "u_1", "payoff", "rel_gap"])
        writer.writerow(["0", "0", "1.0", "0.5"])
        writer.writerow(["1", "6", "1.5", "0.25"])
    problems, gap = checks.run_csv_problems(path, n_iters=1, budget=5.0)
    assert gap == 0.25
    assert len(problems) == 1 and "above budget" in problems[0]
    problems, _ = checks.run_csv_problems(path, n_iters=2, budget=10.0)
    assert problems == ["run.csv: 2 rows, expected 3"]


def test_self_time_of_nested_spans(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracing, "perf_counter", lambda: clock[0])
    tr = tracing.Tracer()

    def inner():
        clock[0] += 2.0

    traced_inner = tr.traced(inner, "inner", keep=True)

    def outer():
        clock[0] += 1.0
        traced_inner()
        traced_inner()
        clock[0] += 3.0

    tr.traced(outer, "outer")()
    stats = tr.merged()
    assert (stats["outer"].calls, stats["outer"].total_s, stats["outer"].self_s) == (1, 8.0, 4.0)
    assert (stats["inner"].calls, stats["inner"].total_s, stats["inner"].self_s) == (2, 4.0, 4.0)
    assert stats["inner"].durations == [2.0, 2.0]


def test_missing_hook_is_listed_not_raised():
    tr = tracing.Tracer()
    original = harness.run_scheme
    tr.install((tracing.Hook("sas:no_such_boundary", "x"), tracing.Hook("harness:run_scheme", "y")))
    try:
        assert tr.missing == ["opinionshape.sas.no_such_boundary"]
        assert harness.run_scheme is not original
    finally:
        tr.uninstall()
    assert harness.run_scheme is original


def test_every_hook_target_exists():
    tr = tracing.Tracer()
    tr.install(tracing.COARSE_HOOKS + tracing.FINE_HOOKS)
    tr.uninstall()
    assert tr.missing == []


def toy(workload):
    """One job of each kind of the workload, at smoke-test length."""
    shrink = lambda jobs: tuple(replace(j, n_iters=min(j.n_iters, 3), n_runs=min(j.n_runs, 2)) for j in jobs)
    distinct = tuple({j.kind: j for j in workload.jobs}.values())
    return replace(workload, jobs=shrink(distinct), trace_only_jobs=shrink(workload.trace_only_jobs))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_toy_workload_passes_and_tracing_keeps_outputs(name, tmp_path):
    workload = toy(workloads.WORKLOADS[name])
    inputs = tmp_path / "inputs"
    workloads.write_inputs(workload, inputs)
    configs = workloads.config_paths(workload, ROOT, inputs)
    jobs = workload.jobs_for(3, True)
    plain = workloads.run_rep(workload, jobs, configs, tmp_path / "plain", trace=False)
    traced = workloads.run_rep(workload, jobs, configs, tmp_path / "traced", trace=True)
    expected = workloads.run_count(jobs)
    for rep in (plain, traced):
        assert rep["errors"] == []
        assert (rep["attempted"], rep["failed"]) == (expected, 0)
        assert rep["missing_hooks"] == []
        assert [len(r) for r in rep["job_run_s"]] == [1 if j.scheme == "gd" else j.n_runs for j in jobs]
    digest = lambda rep: {(r["job"], r["file"]): r["sha256"] for r in rep["runs"] + rep["summaries"]}
    assert digest(plain) == digest(traced)
    assert len(digest(plain)) == expected + len(jobs)
    layers = traced["layers"]
    assert layers["harness.run_scheme.calls"] == expected
    assert layers["dynamics.sample_poll_targets.calls"] > 0
    assert layers["partial_obs.relay_token.calls"] > 0
    assert layers["sgd._walk_batch.calls"] > 0
