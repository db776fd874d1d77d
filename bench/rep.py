"""One repetition of a benchmark workload, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``;
prints the repetition's record as one JSON line.  Interpreter start and
imports happen before any timer starts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-only-jobs", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    import opinionshape

    src = (args.root / "src").resolve()
    if src not in Path(opinionshape.__file__).resolve().parents:
        print(f"opinionshape imported from {opinionshape.__file__}, not from {src}", file=sys.stderr)
        return 3
    workload = workloads.WORKLOADS[args.workload]
    configs = workloads.config_paths(workload, args.root, args.inputs)
    jobs = workload.jobs_for(args.seed, bool(args.trace_only_jobs))
    rep = workloads.run_rep(workload, jobs, configs, args.out, bool(args.trace))
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
