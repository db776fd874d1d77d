"""Experiment runner: configuration, seeded multi-run execution, CSV output.

A config describes one instance (network, partition sizes, alpha, budget,
schedule) and one scheme.  run_experiment executes n_runs with seeds seed,
seed+1, ..., writes one CSV per run plus a quartile summary of the relative
payoff gap, all measured against a reference optimum computed once per
instance.  Identical config and seed produce byte-identical CSVs on the
same BLAS build and thread setting; the stationary solve's last bits depend
on both (ROADMAP item 6).  A relative gap against a payoff* of 0 is nan.
"""

from __future__ import annotations

import csv
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import general as general_mod
from . import partial_obs, sas, sgd
from .curves import SaturatingCurve
from .errors import ConfigError
from .network import ActivationModel, AgentPartition, InteractionGraph, bundled_network_path, load_edge_list, random_partition
from .optim import StepSchedule, Trajectory, exact_optimum, run_exact_gd

SCHEMES = ("gd", "sas", "sgd1", "sgd2", "partial", "general-rl", "general-knownp")


@dataclass(frozen=True)
class ExperimentConfig:
    network: str = "karate"
    directed: bool = False
    weighted: bool | None = None
    s_size: int = 3
    s1_size: int = 28
    s0_size: int = 3
    alpha: float = 0.6
    budget: float = 5.0
    scheme: str = "sas"
    n_iters: int = 10_000
    n_runs: int = 10
    seed: int = 0
    step_a: float = 0.6
    step_b: float = 0.6
    denom: int = 100
    sgd_block: int | None = None
    anneal_c: float = 10.0
    anneal_denom: int | None = None
    observed_fraction: float = 0.5
    gd_step_scale: float = 100.0
    out_dir: str = "results"
    jobs: int = 1

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.n_iters < 0:
            raise ConfigError("n_iters must be nonnegative")
        # a run records n_iters + 1 rows, and numpy refuses a float array
        # whose byte count does not fit an intp
        max_rows = np.iinfo(np.intp).max // np.dtype(float).itemsize
        if self.n_iters + 1 > max_rows:
            raise ConfigError(f"n_iters must be below {max_rows}: numpy cannot index a longer trajectory")
        if self.n_runs < 1:
            raise ConfigError("n_runs must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not (math.isfinite(self.budget) and self.budget > 0):
            raise ConfigError("budget must be finite and positive")
        for key in ("step_a", "step_b", "gd_step_scale"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be finite and positive")
        if not (math.isfinite(self.anneal_c) and self.anneal_c >= 0):
            raise ConfigError("anneal_c must be finite and nonnegative")
        if not 1 <= self.denom <= sys.float_info.max:
            raise ConfigError("denom must be at least 1 and at most the largest float")
        for key in ("sgd_block", "anneal_denom"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ConfigError(f"{key} must be at least 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if not 0.0 <= self.observed_fraction <= 1.0:
            raise ConfigError("observed_fraction must lie in [0, 1]")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if min(self.s_size, self.s1_size, self.s0_size) < 0:
            raise ConfigError("partition sizes must be nonnegative")


def parse_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a flat ``key = value`` file; ``overrides`` (CLI flags) win."""
    values: dict = {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        content = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _io_failure("read", "config file", path, exc) from exc
    for line_no, line in enumerate(content.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {text!r}")
        key, _, raw = text.partition("=")
        key, raw = key.strip(), raw.strip()
        values[key] = _coerce(key, raw, f"{path}:{line_no}")
    if overrides:
        for key, val in overrides.items():
            if val is not None:
                values[key] = val
    try:
        config = ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    config.validate()
    return config


def _io_failure(verb: str, what: str, path: Path, exc: OSError | UnicodeDecodeError) -> ConfigError:
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)
    return ConfigError(f"cannot {verb} {what} {path}: {reason}")


def _coerce(key: str, raw: str, where: str):
    # a field's annotation is a string such as "int | None"; its first
    # name is the type a value in the file converts to
    kinds = {f.name: f.type.split(" | ")[0] for f in fields(ExperimentConfig)}
    if key not in kinds:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    try:
        if kinds[key] == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"bad boolean {raw!r}")
        return {"int": int, "float": float, "str": str}[kinds[key]](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class Instance:
    """A fully built experiment instance shared by all runs."""

    graph: InteractionGraph
    partition: AgentPartition
    schedule: StepSchedule
    payoff_star: float
    u_star: np.ndarray
    model: general_mod.GeneralModel | None = None


def build_instance(config: ExperimentConfig) -> Instance:
    net = config.network
    if net.endswith(".edges") or "/" in net or "\\" in net:
        path = Path(net)
    else:
        try:
            path = bundled_network_path(net)
        except FileNotFoundError as exc:
            raise ConfigError(str(exc)) from exc
    if not path.exists():
        raise ConfigError(f"network file not found: {path}")
    try:
        graph = load_edge_list(path, weighted=config.weighted, directed=config.directed)
    except (OSError, UnicodeDecodeError) as exc:
        raise _io_failure("read", "network file", path, exc) from exc
    sizes = (config.s_size, config.s1_size, config.s0_size)
    if sum(sizes) != graph.node_count:
        raise ConfigError(
            f"partition sizes {sizes} do not sum to node count {graph.node_count}"
        )
    partition = random_partition(graph, sizes, config.alpha, seed=config.seed)
    schedule = StepSchedule(A=config.step_a, B=config.step_b, denom=config.denom)

    model = None
    if config.scheme.startswith("general"):
        model = general_mod.study_model(partition, config.seed, SaturatingCurve())
        u_star, payoff_star = general_mod.general_reference_optimum(
            graph, partition, model, config.budget
        )
    else:
        u_star, payoff_star = exact_optimum(graph, partition, config.budget)
    return Instance(
        graph=graph,
        partition=partition,
        schedule=schedule,
        payoff_star=payoff_star,
        u_star=u_star,
        model=model,
    )


def run_scheme(config: ExperimentConfig, instance: Instance, run_seed: int) -> Trajectory:
    """Execute one seeded run of the configured scheme.

    A huge step size can overflow an update to inf, which the scheme's
    ``project_budget_simplex`` call turns into DivergenceError; the
    overflow itself is not reported.
    """
    with np.errstate(over="ignore"):
        g, p = instance.graph, instance.partition
        schedule = instance.schedule
        star = instance.payoff_star
        if config.scheme == "gd":
            return run_exact_gd(
                g, p, config.budget,
                n_iters=config.n_iters,
                step_scale=config.gd_step_scale, payoff_star=star,
            )
        if config.scheme == "sas":
            return sas.run_sas(
                g, p, config.budget, schedule, ActivationModel("synchronous"),
                config.n_iters, run_seed, payoff_star=star,
            )
        if config.scheme in ("sgd1", "sgd2"):
            return sgd.run_sgd(
                g, p, config.budget, int(config.scheme[-1]), config.n_iters, run_seed,
                step_A=config.step_a,
                block=config.sgd_block if config.sgd_block is not None else config.denom,
                payoff_star=star,
            )
        if config.scheme == "partial":
            # the hidden set is an instance property, fixed across run seeds
            hidden = partial_obs.sample_hidden(p, 1.0 - config.observed_fraction, config.seed)
            return partial_obs.run_partial(
                g, p, config.budget, schedule, config.n_iters, run_seed,
                observed_fraction=config.observed_fraction, hidden=hidden, payoff_star=star,
            )
        if config.scheme == "general-rl":
            return general_mod.run_general_rl(
                g, p, instance.model, config.budget, schedule, config.n_iters, run_seed,
                C=config.anneal_c, anneal_denom=config.anneal_denom, payoff_star=star,
            )
        if config.scheme == "general-knownp":
            return general_mod.run_general_knownp(
                g, p, instance.model, config.budget, schedule, config.n_iters, run_seed,
                C=config.anneal_c, anneal_denom=config.anneal_denom, payoff_star=star,
            )
        raise ConfigError(f"unknown scheme {config.scheme!r}")


def write_run_csv(path: Path, traj: Trajectory) -> None:
    """One row per iteration: k, the controls, payoff and rel_gap (nan if unset)."""
    n_ctrl = traj.u.shape[1]
    header = ["k"] + [f"u_{j + 1}" for j in range(n_ctrl)] + ["payoff", "rel_gap"]
    gaps = traj.rel_gap if traj.rel_gap is not None else np.full(len(traj.ks), np.nan)
    columns = [traj.ks.tolist(), *traj.u.T.tolist(), traj.payoff.tolist(), gaps.tolist()]
    _write_rows(path, header, columns)


def read_run_csv(path: Path) -> dict[str, np.ndarray]:
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [list(map(float, row)) for row in reader]
    data = np.array(rows)
    return {name: data[:, i] for i, name in enumerate(header)}


def write_summary_csv(path: Path, ks: np.ndarray, gaps: np.ndarray) -> None:
    """Per-iteration quartiles of the relative gap across runs (rows = runs)."""
    q1, med, q3 = np.percentile(gaps, [25, 50, 75], axis=0)
    columns = [np.asarray(ks).tolist(), med.tolist(), q1.tolist(), q3.tolist()]
    _write_rows(path, ["k", "gap_median", "gap_q1", "gap_q3"], columns)


def _write_rows(path: Path, header: list[str], columns: list[list]) -> None:
    """Write the header, then one row per entry of the zipped columns, in one go.

    The bytes of ``csv.writer`` on these fields: rows end in CRLF, the
    first column is ``%d`` and every other one ``%.17g``, and no field
    needs quoting.
    """
    row = "%d" + ",%.17g" * (len(columns) - 1) + "\r\n"
    body = "".join([row % fields for fields in zip(*columns)])
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + body)


def _worker(args) -> tuple[int, Trajectory]:
    """One run in a pool process, on the instance the parent built."""
    config, instance, run_seed = args
    return run_seed, run_scheme(config, instance, run_seed)


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured scheme for every seed and emit CSVs plus a summary."""
    config.validate()
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out_dir} as the output directory: {exc}") from exc
    instance = build_instance(config)

    n_runs = 1 if config.scheme == "gd" else config.n_runs
    seeds = [config.seed + r for r in range(n_runs)]
    trajectories: list[Trajectory] = []
    if config.jobs > 1 and n_runs > 1:
        with ProcessPoolExecutor(max_workers=min(config.jobs, n_runs)) as pool:
            for _, traj in pool.map(_worker, [(config, instance, s) for s in seeds]):
                trajectories.append(traj)
    else:
        for s in seeds:
            trajectories.append(run_scheme(config, instance, s))

    run_paths = []
    for s, traj in zip(seeds, trajectories):
        path = out_dir / f"{config.scheme}_seed{s}.csv"
        try:
            write_run_csv(path, traj)
        except OSError as exc:
            raise _io_failure("write", "run CSV", path, exc) from exc
        run_paths.append(path)

    summary_path = out_dir / f"{config.scheme}_summary.csv"
    gaps = np.array([t.rel_gap for t in trajectories])
    try:
        write_summary_csv(summary_path, trajectories[0].ks, gaps)
    except OSError as exc:
        raise _io_failure("write", "summary CSV", summary_path, exc) from exc
    return {
        "runs": run_paths,
        "summary": summary_path,
        "payoff_star": instance.payoff_star,
        "u_star": instance.u_star,
        "trajectories": trajectories,
    }


def timing_report(config: ExperimentConfig, schemes: list[str], n_iters: int = 100) -> dict:
    """Per-iteration wall-clock stats (min/median/max seconds) per scheme.

    The stats come from each run's ``iter_seconds``; ``notes`` is the list
    for diagnostics about the report, empty today.  The instance is built
    once per set-up kind: the general schemes share one, the others another.
    """
    if not schemes:
        raise ConfigError("timing report needs at least one scheme")
    if n_iters < 1:
        raise ConfigError(f"timing needs at least one iteration, got {n_iters}")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}")
    replace(config, n_iters=n_iters).validate()
    report: dict = {}
    instances: dict[bool, Instance] = {}
    for scheme in schemes:
        cfg = replace(config, scheme=scheme, n_iters=n_iters)
        general = scheme.startswith("general")
        if general not in instances:
            instances[general] = build_instance(cfg)
        times = run_scheme(cfg, instances[general], cfg.seed).iter_seconds
        report[scheme] = {
            "min": float(np.min(times)),
            "median": float(np.median(times)),
            "max": float(np.max(times)),
        }
    report["notes"] = []
    return report
