"""Command-line entry point.

    shape run --config FILE [--scheme S --seed N --iters K --jobs J --out DIR]
    shape gd --config FILE [...]
    shape timing --config FILE [--seed N --schemes sas,sgd1,... --timing-iters K]

Exit codes: 0 success, 2 configuration error, 3 numerical infeasibility or
divergence.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DivergenceError, InfeasibleError, NonAbsorbingError, OpinionShapeError
from .harness import SCHEMES, parse_config, run_experiment, timing_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None)


def _run_flags(parser: argparse.ArgumentParser) -> None:
    _common_flags(parser)
    parser.add_argument("--scheme", default=None, choices=SCHEMES)
    parser.add_argument("--iters", type=int, default=None, dest="n_iters")
    parser.add_argument("--runs", type=int, default=None, dest="n_runs")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--out", default=None, dest="out_dir")


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: no flag stands for a longer one (--scheme for --schemes)
    parser = argparse.ArgumentParser(
        prog="shape", description="Budgeted opinion shaping experiments", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", allow_abbrev=False, help="run the configured scheme over seeded repetitions")
    _run_flags(run_p)

    gd_p = sub.add_parser("gd", allow_abbrev=False, help="single deterministic exact-gradient run")
    _run_flags(gd_p)

    timing_p = sub.add_parser("timing", allow_abbrev=False, help="per-iteration wall-clock report")
    _common_flags(timing_p)
    timing_p.add_argument(
        "--schemes",
        default="sas,sgd1,sgd2",
        help="comma-separated scheme list to time",
    )
    timing_p.add_argument("--timing-iters", type=int, default=100)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {
        key: getattr(args, key)
        for key in ("scheme", "seed", "n_iters", "n_runs", "jobs", "out_dir")
        if hasattr(args, key)
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _overrides(args)
        if args.command == "gd":
            overrides["scheme"] = "gd"
        config = parse_config(args.config, overrides)

        if args.command in ("run", "gd"):
            result = run_experiment(config)
            final_gaps = [t.rel_gap[-1] for t in result["trajectories"]]
            print(f"scheme={config.scheme} runs={len(result['runs'])} payoff*={result['payoff_star']:.6f}")
            for path, gap in zip(result["runs"], final_gaps):
                print(f"  {path}  final_rel_gap={gap:.3e}")
            print(f"  summary: {result['summary']}")
            return EXIT_OK

        schemes = [s for s in args.schemes.split(",") if s]
        report = timing_report(config, schemes, n_iters=args.timing_iters)
        for scheme in schemes:
            stats = report[scheme]
            print(
                f"{scheme}: min={stats['min']:.6f}s median={stats['median']:.6f}s max={stats['max']:.6f}s"
            )
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleError, NonAbsorbingError, DivergenceError) as exc:
        print(f"numerical infeasibility: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OpinionShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
