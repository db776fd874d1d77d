"""opinionshape benchmark: one workload, measured for a fixed time.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload karate-paper --seed 1 --seconds 40 --trace 0

The workload runs as a closed loop with one client: repetitions run one
after another, each in a fresh interpreter (``rep.py``) with the package
imported from the checkout's ``src`` and BLAS pinned to one thread in the
child's environment.  Repetitions start while the median one so far still
fits in ``--seconds`` (at least ``MIN_REPS``).  With ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json`` come from untraced repetitions:
every time is the best of the many identical calls of the run, scaled to
the reference host speed (see ``GAUGE_REF_S``).  With ``--trace 1`` the
workload's trace-only jobs run too, untraced and traced repetitions
alternate, the per-layer metrics are medians over the traced ones, and
``trace_overhead`` is the ratio of the two kinds' wall times.

Every CSV is checked (feasible controls, finite payoff and gap, row count,
parsable summary) and must hash identically in every repetition.  A
results file with the environment, digests and all layer figures goes to
``.bench_work/results/``.  The last line of standard output is the JSON
result.  Exits 2 without a result when the checkout lacks the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
MIN_REPS = 3
# Other tenants of the host slow this process by up to 1.9x, for seconds or
# for a whole run, and only ever slow it.  The slowdown comes in bursts, so
# some of many short identical calls run in a quiet spell: each time is the
# best over the run.  The run's times are then scaled by GAUGE_REF_S over
# the best reading of a fixed kernel timed before every job
# (``workloads.gauge_s``), which cancels part of a slowdown that lasts the
# whole run.  A scaled time reads as seconds on a host that runs the kernel
# in GAUGE_REF_S.
GAUGE_REF_S = 0.004
RUN_CAP_S = 170.0
SCHEME_METRICS = {
    "gd": "gd_iters_per_s",
    "sas": "sas_ticks_per_s",
    "sgd1": "sgd1_iters_per_s",
    "sgd2": "sgd2_iters_per_s",
    "partial": "partial_iters_per_s",
    "general-rl": "general_rl_ticks_per_s",
    "general-knownp": "general_knownp_ticks_per_s",
}
# claims checked by the traced run: (workload, metric, "<" or ">", threshold)
PREDICTIONS = (
    ("sparse-large", "sampling_share_of_learn", ">", 0.5),
    ("karate-paper", "sampling_share_of_sas_gd", "<", 0.5),
    ("wide-control", "curves_projection_share_of_gd", ">", 0.5),
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def spawn_rep(args, root: Path, inputs: Path, out: Path, traced: bool, timeout: float) -> dict | None:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, str(BENCH_DIR / "rep.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(int(traced)), "--trace-only-jobs", str(args.trace),
        "--root", str(root), "--inputs", str(inputs), "--out", str(out),
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_scale(reps: list[dict]) -> float:
    """Factor that brings the run's times to the reference host speed."""
    return GAUGE_REF_S / min(g for r in reps for g in r["gauge_s"])


def best_times(jobs, reps: list[dict]) -> tuple[dict, dict, dict]:
    """Best time over the run per set-up kind, per job kind (wall time
    minus set-up) and per (job kind, run index)."""
    setup, rest, runs = {}, {}, {}

    def keep(table, key, t):
        table[key] = min(t, table.get(key, t))

    for rep in reps:
        for job, wall, build, run_s in zip(jobs, rep["job_wall_s"], rep["job_setup_s"], rep["job_run_s"]):
            keep(setup, job.setup_kind, build)
            keep(rest, job.kind, wall - build)
            for index, t in enumerate(run_s):
                keep(runs, (job.kind, index), t)
    return setup, rest, runs


def rep_times(jobs, reps: list[dict]) -> tuple[float, float]:
    """Set-up and wall time of one pass over ``jobs``: each job's best
    set-up time by its set-up kind plus the best rest by its job kind."""
    setup, rest, _ = best_times(jobs, reps)
    total_setup = sum(setup[j.setup_kind] for j in jobs)
    return total_setup, total_setup + sum(rest[j.kind] for j in jobs)


def scheme_rates(jobs, reps: list[dict]) -> dict[str, float]:
    """Iterations per second of each scheme over one run of every distinct
    (job kind, run seed), each at its best time.  Runs with different seeds
    do different work, so their times are summed, never compared."""
    _, _, runs = best_times(jobs, reps)
    iters: dict[str, float] = {}
    secs: dict[str, float] = {}
    distinct = {j.kind: j for j in jobs}
    for (kind, _index), t in runs.items():
        job = distinct[kind]
        iters[job.scheme] = iters.get(job.scheme, 0.0) + job.n_iters
        secs[job.scheme] = secs.get(job.scheme, 0.0) + t
    return {SCHEME_METRICS[s]: iters[s] / secs[s] for s in iters if secs[s] > 0}


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": 1,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_commit": git_commit(Path.cwd()),
        "workload_seed": args.seed,
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="opinionshape benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not (root / "src" / "opinionshape" / "__init__.py").is_file():
        return fail(f"no package source at {root / 'src' / 'opinionshape'}; run from a source checkout")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    workload = workloads.WORKLOADS[args.workload]

    started = time.monotonic()
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs = work / "inputs"
    workloads.write_inputs(workload, inputs)
    configs = workloads.config_paths(workload, root, inputs)
    missing = [str(p) for p in configs.values() if not p.is_file()]
    if missing:
        shutil.rmtree(work, ignore_errors=True)
        return fail(f"missing config files: {missing}")

    jobs = workload.jobs_for(args.seed, bool(args.trace))
    min_reps = 2 if args.trace else MIN_REPS
    plain, traced, durations = [], [], []
    attempted = failed = 0
    while True:
        elapsed = time.monotonic() - started
        count = len(durations)
        if count >= min_reps and elapsed + statistics.median(durations) > args.seconds:
            break
        if count and elapsed + max(durations) > RUN_CAP_S:
            break
        is_traced = bool(args.trace) and count % 2 == 1
        t0 = time.monotonic()
        rep = spawn_rep(args, root, inputs, work / f"rep{count}", is_traced, RUN_CAP_S - elapsed)
        durations.append(time.monotonic() - t0)
        if rep is None:
            attempted += workloads.run_count(jobs)
            failed += workloads.run_count(jobs)
            print(f"bench: repetition {count} produced no record", file=sys.stderr)
            break
        attempted += rep["attempted"]
        failed += rep["failed"]
        (traced if is_traced else plain).append(rep)
    shutil.rmtree(work, ignore_errors=True)

    reps = plain + traced
    digests: dict[str, set[str]] = {}
    for rep in reps:
        for rec in rep["runs"] + rep["summaries"]:
            digests.setdefault(f"job{rec['job']}/{rec['file']}", set()).add(rec["sha256"])
    unstable = sorted(k for k, v in digests.items() if len(v) > 1)
    failed += len(unstable)
    problems = [p for rep in reps for p in rep["errors"]] + [p for rep in reps for r in rep["runs"] for p in r["problems"]]

    rates, e2e, raw = {}, {}, {}
    if plain:
        scale = host_scale(plain)
        rates = {metric: rate / scale for metric, rate in scheme_rates(jobs, plain).items()}
        raw = dict(zip(("setup_s", "wall_s"), rep_times(jobs, plain)))
        e2e = {"setup_s": raw["setup_s"] * scale, "wall_s": raw["wall_s"] * scale,
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain), **rates}
    gaps = [r["final_gap"] for r in plain[0]["runs"]] if plain else []
    extras = {
        "fail_rate": failed / attempted if attempted else 1.0,
        "final_gap_mean": statistics.fmean(gaps) if gaps else None,
        "final_gaps": {f"job{r['job']}/{r['file']}": r["final_gap"] for r in (plain[0]["runs"] if plain else [])},
        "general_rl_ticks_per_s": rates.get("general_rl_ticks_per_s"),
        "general_knownp_ticks_per_s": rates.get("general_knownp_ticks_per_s"),
        "host_gauge_ms": 1e3 * GAUGE_REF_S / scale if plain else None,
        "unscaled_setup_s": raw.get("setup_s"),
        "unscaled_wall_s": raw.get("wall_s"),
    }

    layers: dict[str, float] = {}
    predictions = []
    if traced:
        keys = sorted({k for rep in traced for k in rep["layers"]})
        layers = {k: statistics.median(rep["layers"].get(k, 0.0) for rep in traced) for k in keys}
        base = rep_times(jobs, plain)[1] if plain else 0.0
        layers["trace_overhead"] = rep_times(jobs, traced)[1] / base if base else 0.0
        for name, metric, op, threshold in PREDICTIONS:
            if name == args.workload:
                value = layers.get(metric, 0.0)
                holds = value > threshold if op == ">" else value < threshold
                predictions.append({"claim": f"{metric} {op} {threshold}", "value": value, "holds": holds})

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else e2e
    absent = [m["name"] for m in wanted if m["name"] not in source]
    if not args.trace and absent:
        problems.append(f"end-to-end metrics not measured: {absent}")
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and not unstable and not (absent and not args.trace) and bool(plain)

    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args),
        "repetitions": {"untraced": len(plain), "traced": len(traced), "seconds": durations},
        "attempted": attempted, "failed": failed, "problems": problems[:50],
        "unstable_digests": unstable,
        "digests": {k: sorted(v) for k, v in sorted(digests.items())},
        "missing_hooks": sorted({h for rep in reps for h in rep["missing_hooks"]}),
        "samples": {
            "wall_s": [r["wall_s"] for r in plain], "setup_s": [r["setup_s"] for r in plain],
            "job_wall_s": [r["job_wall_s"] for r in plain],
            "job_setup_s": [r["job_setup_s"] for r in plain],
            "gauge_s": [r["gauge_s"] for r in plain],
            "job_run_s": [r["job_run_s"] for r in plain],
        },
        "end_to_end": e2e, "extras": extras, "layers": layers, "predictions": predictions,
    }
    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} traced repetitions, "
          f"{failed}/{attempted} runs failed, results in {results_path.relative_to(root)}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        for name, value in extras.items():
            if isinstance(value, float):
                print(f"  {name:<48} {value:>16.6g} (not gated)")
    for p in predictions:
        print(f"  prediction {p['claim']}: {p['value']:.3f} {'holds' if p['holds'] else 'MISMATCH'}")
    for p in problems[:10]:
        print(f"  problem: {p}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
