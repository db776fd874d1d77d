"""End-to-end acceptance suite.

One test per numbered criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances are
pinned here and nowhere else.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from opinionshape.curves import SaturatingCurve
from opinionshape.dynamics import (
    empirical_opinion_stats,
    gossip_step,
    initial_state,
    payoff_coefficients,
    stationary_opinion,
    total_payoff,
)
from opinionshape.general import model_from_partition, run_general_knownp, run_general_rl, study_model
from opinionshape.network import ActivationModel
from opinionshape.optim import exact_gradient, project_budget_simplex
from opinionshape.partial_obs import observed_set, probe, run_partial, sample_hidden
from opinionshape.sas import exact_grad_table, run_sas, sas_fast_update
from opinionshape.sgd import _walk_batch, run_sgd

from helpers import brute_force_projection, random_instance, reference_hit_law_oracle

SYNC = ActivationModel("synchronous")


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def sas_runs(karate_graph, karate_partition, schedule, budget, karate_optimum):
    """Ten seeded end-to-end runs at the benchmark settings (shared by 6 and 7)."""
    _, payoff_star = karate_optimum
    return [
        run_sas(
            karate_graph, karate_partition, budget, schedule, SYNC,
            n_iters=10_000, seed=seed, payoff_star=payoff_star,
        )
        for seed in range(10)
    ]


def test_criterion_1_oracle_consistency():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        graph, partition = random_instance(seed, max_nodes=40)
        rng = np.random.default_rng(seed + 1000)
        u = rng.uniform(0.0, 1.5, size=len(partition.controlled))
        x_star = stationary_opinion(graph, partition, u)
        mean, se = empirical_opinion_stats(graph, partition, u, SYNC, 500, 2000, seed)
        # the tiny absolute floor covers solver residual on zero-variance components
        ratio = np.abs(mean - x_star) / (3.0 * se + 1e-9)
        worst = max(worst, float(ratio.max()))
    elapsed = time.monotonic() - start
    report(
        1,
        "oracle consistency",
        worst <= 1.0 and elapsed <= 120.0,
        f"worst |mean - x*| / 3SE = {worst:.3f} over 20 instances in {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_2_gradient_correctness():
    h = 1e-5
    worst = 0.0
    pairs = 0
    seed = 0
    while pairs < 50:
        graph, partition = random_instance(seed % 12, max_nodes=30)
        rng = np.random.default_rng(10_000 + seed)
        u = rng.uniform(0.05, 2.0, size=len(partition.controlled))
        grad = exact_gradient(graph, partition, u)
        for pos in range(len(u)):
            up, down = u.copy(), u.copy()
            up[pos] += h
            down[pos] -= h
            fd = (total_payoff(graph, partition, up) - total_payoff(graph, partition, down)) / (2 * h)
            worst = max(worst, abs(float(grad[pos] - fd)))
        pairs += 1
        seed += 1
    report(
        2,
        "gradient correctness",
        worst <= 1e-4,
        f"max |analytic - central FD| = {worst:.2e} over {pairs} (instance, u) pairs (tol 1e-4)",
    )


def test_criterion_3_projection_correctness():
    rng = np.random.default_rng(99)
    budget = 5.0
    worst = 0.0
    total = 0
    for n in range(1, 7):
        count = 1667 if n < 6 else 1665  # 10_000 vectors in total
        vs = rng.normal(0.0, 4.0, size=(count, n))
        oracle = brute_force_projection(vs, budget)
        for v, want in zip(vs, oracle):
            got = project_budget_simplex(v, budget)
            worst = max(worst, float(np.max(np.abs(got - want))))
        total += count
    report(
        3,
        "projection correctness",
        worst <= 1e-6 and total == 10_000,
        f"max deviation from brute-force oracle = {worst:.2e} on {total} vectors (tol 1e-6)",
    )


def test_criterion_4_sas_fast_scale(karate_graph, karate_partition, schedule, budget):
    start = time.monotonic()
    u = np.array([1.0, 2.0, 1.5])
    oracle = exact_grad_table(karate_graph, karate_partition, u)
    errs = []
    for seed in (0, 1, 2):
        traj = run_sas(
            karate_graph, karate_partition, budget, schedule, SYNC,
            n_iters=100_000, seed=seed, u0=u, freeze_u=True,
        )
        errs.append(float(np.max(np.abs(traj.extras["grad_table"] - oracle))))
    elapsed = time.monotonic() - start
    report(
        4,
        "sas fast scale",
        max(errs) <= 1e-2 and elapsed <= 60.0,
        f"sup errors after 1e5 sweeps: {[f'{e:.4f}' for e in errs]} (tol 1e-2), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_5_sgd_unbiasedness(karate_graph, karate_partition):
    coef = payoff_coefficients(karate_graph, karate_partition)
    idx = list(karate_partition.controlled)
    target = coef[idx] * karate_partition.alpha[idx]
    starts = np.array(sorted(set(range(34)) - set(karate_partition.stubborn)))
    n_iter = int(np.ceil(100_000 / len(starts)))

    stats = {}
    for scheme in (1, 2):
        rng = np.random.default_rng(123)
        estimates = np.zeros((n_iter, len(idx)))
        for it in range(n_iter):
            estimates[it] = _walk_batch(karate_graph, karate_partition, starts, scheme, rng).sum(axis=0)
        mean = estimates.mean(axis=0)
        se = estimates.std(axis=0, ddof=1) / np.sqrt(n_iter)
        stats[scheme] = (mean, se, estimates.var(axis=0, ddof=1))

    z1 = np.abs(stats[1][0] - target) / stats[1][1]
    z2 = np.abs(stats[2][0] - target) / stats[2][1]
    variance_ordered = bool(np.all(stats[2][2] <= stats[1][2]))
    ok = bool(np.all(z1 <= 3.0) and np.all(z2 <= 3.0) and variance_ordered)
    report(
        5,
        "sgd unbiasedness",
        ok,
        f"z1={np.round(z1, 2)}, z2={np.round(z2, 2)} (limit 3), "
        f"weighted-walk variance <= killed-walk variance: {variance_ordered}",
    )


def test_criterion_6_sas_end_to_end(sas_runs):
    start_gaps = [t.rel_gap[-1] for t in sas_runs]
    median = float(np.median(start_gaps))
    q3 = float(np.percentile(start_gaps, 75))
    report(
        6,
        "sas end to end",
        median <= 0.01 and q3 <= 0.02,
        f"final relative gap over 10 seeds: median={median:.5%} (tol 1%), q3={q3:.5%} (tol 2%)",
    )


def test_criterion_7_sgd_beats_sas_at_2500(
    karate_graph, karate_partition, budget, karate_optimum, sas_runs
):
    _, payoff_star = karate_optimum
    sgd_gaps = []
    for seed in range(10):
        traj = run_sgd(
            karate_graph, karate_partition, budget, 1, 2500, seed, payoff_star=payoff_star
        )
        sgd_gaps.append(traj.rel_gap[-1])
    sas_gaps_2500 = [t.rel_gap[2500] for t in sas_runs]
    med_sgd = float(np.median(sgd_gaps))
    med_sas = float(np.median(sas_gaps_2500))
    report(
        7,
        "sgd faster than sas at 2500",
        med_sgd <= med_sas,
        f"median gap: sgd1={med_sgd:.5%} vs sas={med_sas:.5%} over 10 paired seeds",
    )


def test_criterion_8_partial_observation(
    karate_graph, karate_partition, schedule, budget, karate_optimum
):
    _, payoff_star = karate_optimum
    hidden = sample_hidden(karate_partition, 0.5, seed=42)
    observed = observed_set(karate_partition, hidden)

    # probe law against the absorption-solve oracle
    law, terminal = reference_hit_law_oracle(karate_graph, karate_partition, observed)
    t_index = {n: i for i, n in enumerate(terminal)}
    rng = np.random.default_rng(7)
    node = karate_partition.controlled[0]
    counts = np.zeros(len(terminal))
    n_samples = 100_000
    for _ in range(n_samples):
        counts[t_index[probe(karate_graph, karate_partition, observed, node, rng)]] += 1
    tv = 0.5 * float(np.abs(counts / n_samples - law[node]).sum())

    gaps = []
    for seed in range(10):
        traj = run_partial(
            karate_graph, karate_partition, budget, schedule, 3000, seed,
            hidden=hidden, payoff_star=payoff_star,
        )
        gaps.append(traj.rel_gap[-1])
    median = float(np.median(gaps))
    report(
        8,
        "partial observation",
        median <= 0.01 and tv <= 0.01,
        f"median final gap={median:.4%} (tol 1%), probe-law TV={tv:.4f} at 1e5 samples (tol 0.01)",
    )


def test_criterion_9_general_model(karate_graph, karate_partition, schedule, budget):
    # flat influence curves degenerate exactly to the two-time-scale scheme
    model = model_from_partition(karate_partition)
    sas_traj = run_sas(karate_graph, karate_partition, budget, schedule, SYNC, 1500, seed=5)
    gen_traj = run_general_rl(
        karate_graph, karate_partition, model, budget, schedule, 1500, seed=5, C=0.0
    )
    identical = bool(
        np.array_equal(sas_traj.u, gen_traj.u)
        and np.array_equal(sas_traj.extras["grad_table"], gen_traj.extras["grad_table"])
    )

    study = study_model(karate_partition, seed=0, alpha_curve=SaturatingCurve(0.1))
    hits = 0
    diffs = []
    for seed in (0, 1, 2):
        rl = run_general_rl(
            karate_graph, karate_partition, study, budget, schedule, 6000, seed, C=10.0
        )
        kp = run_general_knownp(
            karate_graph, karate_partition, study, budget, schedule, 6000, seed, C=10.0
        )
        diff = float(np.max(np.abs(rl.final_u() - kp.final_u())))
        diffs.append(diff)
        if diff <= 0.05:
            hits += 1
    report(
        9,
        "general model",
        identical and hits >= 2,
        f"flat-curve degeneration bit-identical: {identical}; "
        f"rl/known-matrix final sup diffs={[f'{d:.4f}' for d in diffs]} (tol 0.05, need 2/3)",
    )


def test_criterion_10_property_suite(schedule, budget):
    # componentwise concavity on 200 random mixes
    rng = np.random.default_rng(2024)
    checked = 0
    concave_ok = True
    for seed in range(10):
        graph, partition = random_instance(seed, max_nodes=20)
        n_ctrl = len(partition.controlled)
        for _ in range(20):
            u = project_budget_simplex(rng.uniform(0, 2, n_ctrl), budget)
            v = project_budget_simplex(rng.uniform(0, 2, n_ctrl), budget)
            lam = float(rng.uniform())
            mix = stationary_opinion(graph, partition, lam * u + (1 - lam) * v)
            split = lam * stationary_opinion(graph, partition, u) + (1 - lam) * stationary_opinion(
                graph, partition, v
            )
            concave_ok = concave_ok and bool(np.all(mix >= split - 1e-9))
            checked += 1

    # type invariants under randomized operation sequences
    invariants_ok = True
    for seed in range(12):
        graph, partition = random_instance(seed, max_nodes=18)
        n = graph.node_count
        n_ctrl = len(partition.controlled)
        state = initial_state(graph, partition)
        u = np.zeros(n_ctrl)
        table = np.zeros((n, n_ctrl))
        clocks = np.zeros(n, dtype=np.int64)
        ticks = 0
        op_rng = np.random.default_rng(seed + 500)
        for _ in range(60):
            op = op_rng.integers(4)
            if op == 0:
                state, events = gossip_step(state, u, graph, partition, SYNC, op_rng)
                invariants_ok &= bool(np.all(state.x >= 0.0) and np.all(state.x <= 1.0))
                invariants_ok &= all(e.poller not in partition.stubborn for e in events)
            elif op == 1:
                v = op_rng.normal(0, 3, size=n_ctrl)
                proj = project_budget_simplex(v, budget)
                invariants_ok &= bool(np.all(proj >= 0.0) and proj.sum() <= budget + 1e-12)
                invariants_ok &= bool(
                    np.allclose(project_budget_simplex(proj, budget), proj, atol=1e-12)
                )
            elif op == 2 and n_ctrl:
                poller = int(op_rng.choice([i for i in range(n) if i not in partition.stubborn]))
                polled = int(op_rng.integers(n))
                ticks += 1
                table = sas_fast_update(
                    table, (poller, polled), graph, partition, u, clocks, schedule
                )
                invariants_ok &= bool(np.all(table[list(partition.stubborn)] == 0.0))
                invariants_ok &= bool(np.all(clocks <= ticks))
            else:
                u = project_budget_simplex(u + op_rng.normal(0, 0.5, size=n_ctrl), budget)
                invariants_ok &= bool(np.all(u >= 0.0) and u.sum() <= budget + 1e-12)
        invariants_ok &= bool(np.allclose(graph.P.sum(axis=1), 1.0, atol=1e-12))
    report(
        10,
        "property suite",
        concave_ok and checked == 200 and invariants_ok,
        f"concavity mixes checked={checked} (all held: {concave_ok}); "
        f"randomized operation-sequence invariants held: {invariants_ok}",
    )
