"""The benchmark workloads and one repetition of a workload.

A repetition runs a fixed list of experiment configs through the public
entry ``harness.run_experiment``, exactly as ``shape run`` would: configs
come from ``parse_config`` (the shipped karate configs, or a config file
generated next to a synthetic edge list) plus overrides for scheme, length,
seed and output directory, with ``jobs = 1``.  Every CSV written is checked
and hashed.  Why each workload exists is recorded in ``NOTES.md``.
"""

from __future__ import annotations

import random
import resource
import time

import numpy as np
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer as tracing
from graphgen import write_edge_list

SAMPLING_SPANS = ("dynamics.sample_poll_targets", "sgd._walk_batch", "partial_obs.relay_token")
CURVE_PROJECTION_SPANS = ("network.w_values", "network.w_derivs", "optim.project_budget_simplex.optim")


@dataclass(frozen=True)
class Job:
    """One ``run_experiment`` call: a config (by role) and its overrides."""

    config: str
    scheme: str
    n_iters: int
    n_runs: int

    @property
    def kind(self) -> str:
        """Jobs of one kind do identical work, so their times are comparable."""
        return f"{self.config}:{self.scheme}:{self.n_iters}x{self.n_runs}"

    @property
    def setup_kind(self) -> str:
        """Jobs of one setup kind build the same instance (``build_instance``
        computes the general reference optimum for general schemes, the exact
        optimum for the others)."""
        return f"{self.config}:{'general' if self.scheme.startswith('general') else 'base'}"


@dataclass(frozen=True)
class Synthetic:
    """A generated instance: ring-plus-random-arcs graph and its config."""

    n: int
    arcs_per_node: int
    sizes: tuple[int, int, int]
    observed_fraction: float
    alpha: float = 0.6
    budget: float = 5.0
    seed: int = 1


@dataclass(frozen=True)
class Workload:
    """Jobs over one fixed instance.

    A synthetic workload builds its graph from its instance seed
    (``Synthetic.seed``), which is also every config's seed, so it fixes
    the partition, the hidden set and the run seeds too.  Without
    ``synthetic`` the workload is the paper's instance: the shipped configs
    as they are, their own seed included.  The workload seed sets the order
    of the jobs; ``trace_only_jobs`` run after them in ``--trace 1``
    invocations only.
    """

    name: str
    jobs: tuple[Job, ...]
    synthetic: Synthetic | None = None
    trace_only_jobs: tuple[Job, ...] = ()

    def jobs_for(self, seed: int, with_trace_only: bool) -> tuple[Job, ...]:
        """One repetition's jobs, in the order the workload seed draws."""
        order = random.Random(seed).sample(self.jobs, len(self.jobs))
        return tuple(order) + (self.trace_only_jobs if with_trace_only else ())


def run_count(jobs) -> int:
    """CSV-producing runs of one pass over ``jobs`` (``gd`` always runs once)."""
    return sum(1 if j.scheme == "gd" else j.n_runs for j in jobs)


KARATE_CONFIGS = {
    "sas": "configs/karate_sas.cfg",
    "partial": "configs/karate_partial.cfg",
    "general": "configs/karate_general.cfg",
}

# Many short calls per scheme, in rounds that the workload seed shuffles
# together: on a shared host the speed flips between a fast and a slow mode
# every few seconds (see NOTES.md), so each time is the best of many
# samples taken at many moments rather than one long timing.  ``gd`` runs
# once per config, so it gets two jobs per round.
KARATE_ROUND = (
    Job("sas", "gd", 1_000, 1),
    Job("sas", "sas", 100, 4),
    Job("sas", "sgd1", 15, 4),
    Job("sas", "gd", 1_000, 1),
    Job("sas", "sgd2", 10, 4),
    Job("partial", "partial", 30, 4),
)
SPARSE_ROUND = (
    Job("synthetic", "gd", 1_000, 1),
    Job("synthetic", "sas", 50, 3),
    Job("synthetic", "sgd1", 1, 6),
    Job("synthetic", "gd", 1_000, 1),
    Job("synthetic", "sgd2", 1, 6),
)
WIDE_ROUND = (
    Job("synthetic", "gd", 150, 1),
    Job("synthetic", "sas", 25, 6),
    Job("synthetic", "sgd1", 6, 6),
    Job("synthetic", "gd", 150, 1),
    Job("synthetic", "sgd2", 1, 6),
    Job("synthetic", "partial", 1, 2),
)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "karate-paper",
            KARATE_ROUND * 16,
            trace_only_jobs=(Job("general", "general-rl", 200, 6), Job("general", "general-knownp", 150, 6)),
        ),
        Workload(
            "sparse-large",
            (*SPARSE_ROUND * 2, Job("synthetic", "partial", 1, 1), *SPARSE_ROUND),
            Synthetic(n=1000, arcs_per_node=4, sizes=(20, 960, 20), observed_fraction=0.5),
        ),
        Workload(
            "wide-control",
            WIDE_ROUND * 4,
            Synthetic(n=400, arcs_per_node=8, sizes=(80, 312, 8), observed_fraction=0.9),
        ),
    )
}


def config_paths(workload: Workload, root: Path, inputs: Path) -> dict[str, Path]:
    """Config file per config role of the workload."""
    if workload.synthetic is None:
        return {role: root / rel for role, rel in KARATE_CONFIGS.items()}
    return {"synthetic": inputs / f"{workload.name}.cfg"}


def write_inputs(workload: Workload, inputs: Path) -> None:
    """Generate the synthetic graph and its config from the instance seed."""
    syn = workload.synthetic
    if syn is None:
        return
    inputs.mkdir(parents=True, exist_ok=True)
    edges = write_edge_list(inputs / f"{workload.name}.edges", syn.n, syn.arcs_per_node, syn.seed)
    s, s1, s0 = syn.sizes
    (inputs / f"{workload.name}.cfg").write_text(
        f"network = {edges.resolve()}\n"
        f"s_size = {s}\ns1_size = {s1}\ns0_size = {s0}\n"
        f"alpha = {syn.alpha}\nbudget = {syn.budget}\n"
        f"observed_fraction = {syn.observed_fraction}\n"
    )


GAUGE_DATA = np.random.default_rng(0).random((200, 200))


def gauge_s() -> float:
    """Time of a fixed Python and numpy kernel, a gauge of the host's speed.

    The mix follows the program's: an interpreter loop, many numpy calls on
    short vectors (karate-sized) and row-wise scans of a 200x200 array.
    ``run.py`` scales every time of a run by the run's best gauge reading.
    """
    small = GAUGE_DATA[0, :34].copy()
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i
    for _ in range(300):
        small = np.clip(small * 0.9 + 0.05, 0.0, 1.0)
    for _ in range(8):
        (GAUGE_DATA[:, :1] < np.cumsum(GAUGE_DATA, axis=1)).argmax(axis=1)
    return time.perf_counter() - t0


def run_durations(tracer: tracing.Tracer, scheme: str) -> list[float]:
    stats = tracer.stats.get(scheme, {}).get("harness.run_scheme")
    return stats.durations if stats else []


def run_rep(workload: Workload, jobs, configs: dict[str, Path], out: Path, trace: bool) -> dict:
    """Run each of ``jobs`` once, in this process, and check its CSVs."""
    from opinionshape import harness

    tracer = tracing.Tracer()
    tracer.install(tracing.COARSE_HOOKS + (tracing.FINE_HOOKS if trace else ()))
    runs, summaries, errors, job_wall, job_setup, job_runs, gauge = [], [], [], [], [], [], []
    attempted = failed = 0
    try:
        for index, job in enumerate(jobs):
            job_out = out / f"job{index}-{job.scheme}"
            overrides = {
                "scheme": job.scheme, "n_iters": job.n_iters, "n_runs": job.n_runs,
                "out_dir": str(job_out), "jobs": 1,
            }
            if workload.synthetic is not None:
                overrides["seed"] = workload.synthetic.seed
            config = harness.parse_config(configs[job.config], overrides)
            gauge.append(gauge_s())
            n_runs = 1 if job.scheme == "gd" else job.n_runs
            attempted += n_runs
            tracer.scheme = job.scheme
            setup_before = tracer.total(["harness.build_instance"])
            runs_before = len(run_durations(tracer, job.scheme))
            t0 = time.perf_counter()
            try:
                result = harness.run_experiment(config)
            except Exception as exc:  # a failing config must not stop the others
                errors.append(f"job{index} {job.scheme}: {type(exc).__name__}: {exc}")
                failed += n_runs
                continue
            finally:
                job_wall.append(time.perf_counter() - t0)
                job_setup.append(tracer.total(["harness.build_instance"]) - setup_before)
                job_runs.append(run_durations(tracer, job.scheme)[runs_before:])
            for path in result["runs"]:
                problems, gap = checks.run_csv_problems(path, job.n_iters, config.budget)
                runs.append({
                    "job": index, "scheme": job.scheme, "file": path.name,
                    "sha256": checks.sha256(path), "final_gap": gap, "problems": problems,
                })
                failed += bool(problems)
            summary = result["summary"]
            problems = checks.summary_csv_problems(summary, job.n_iters)
            summaries.append({
                "job": index, "scheme": job.scheme, "file": summary.name,
                "sha256": checks.sha256(summary), "problems": problems,
            })
            if problems:
                # a broken summary fails every run of the job
                errors.extend(problems)
                failed += sum(not r["problems"] for r in runs if r["job"] == index)
    finally:
        tracer.uninstall()

    rep = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "runs": runs,
        "summaries": summaries,
        "wall_s": sum(job_wall),
        "job_wall_s": job_wall,
        "setup_s": sum(job_setup),
        "job_setup_s": job_setup,
        "job_run_s": job_runs,
        "gauge_s": gauge,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "missing_hooks": tracer.missing,
    }
    if trace:
        rep["layers"] = layer_metrics(tracer)
    return rep


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(tracer: tracing.Tracer) -> dict[str, float]:
    """Flat per-layer metrics of one traced repetition."""
    out: dict[str, float] = {}
    for name, st in sorted(tracer.merged().items()):
        out[f"{name}.calls"] = st.calls
        out[f"{name}.self_s"] = st.self_s
        out[f"{name}.total_s"] = st.total_s
        if st.durations:
            out[f"{name}.p50_us"] = 1e6 * quantile(st.durations, 0.50)
            out[f"{name}.p99_us"] = 1e6 * quantile(st.durations, 0.99)
    counters = tracer.counters
    out.update(counters)
    if counters.get("sgd.walks"):
        out["sgd.useful_walk_ratio"] = counters["sgd.useful_walks"] / counters["sgd.walks"]
    if counters.get("partial_obs.tokens"):
        out["partial_obs.hops_per_token"] = counters["partial_obs.hops"] / counters["partial_obs.tokens"]

    def share(schemes, spans):
        learn = tracer.total(["harness.run_scheme"], schemes)
        return tracer.total(spans, schemes) / learn if learn else 0.0

    schemes = list(tracer.stats)
    out["sampling_share_of_learn"] = share(schemes, SAMPLING_SPANS)
    out["sampling_share_of_sas_gd"] = share(["sas", "gd"], SAMPLING_SPANS)
    out["curves_projection_share_of_gd"] = share(["gd"], CURVE_PROJECTION_SPANS)
    return out
