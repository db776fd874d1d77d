"""Output checks applied to every CSV a benchmark run writes."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

REL_TOL = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    data = np.array([[float(x) for x in row] for row in body], dtype=float).reshape(len(body), len(header))
    return header, data


def trajectory_problems(u: np.ndarray, payoff: np.ndarray, rel_gap: np.ndarray, budget: float) -> list[str]:
    """Feasibility of every control vector and finiteness of payoff and gap."""
    problems = []
    slack = REL_TOL * budget
    if u.size and np.min(u) < -slack:
        problems.append(f"negative control {np.min(u):.3g}")
    if u.size and np.max(u.sum(axis=1)) > budget + slack:
        problems.append(f"control total {np.max(u.sum(axis=1)):.17g} above budget {budget}")
    if not np.all(np.isfinite(payoff)):
        problems.append("non-finite payoff")
    if not np.all(np.isfinite(rel_gap)):
        problems.append("non-finite rel_gap")
    return problems


def run_csv_problems(path: Path, n_iters: int, budget: float) -> tuple[list[str], float]:
    """Problems found in one run CSV, plus its final relative gap."""
    try:
        header, data = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{Path(path).name}: unreadable ({exc})"], float("nan")
    problems = []
    if len(data) != n_iters + 1:
        problems.append(f"{len(data)} rows, expected {n_iters + 1}")
    if header[0] != "k" or header[-2:] != ["payoff", "rel_gap"]:
        problems.append(f"unexpected header {header[:2]}...{header[-2:]}")
        return problems, float("nan")
    problems += trajectory_problems(data[:, 1:-2], data[:, -2], data[:, -1], budget)
    final_gap = float(data[-1, -1]) if len(data) else float("nan")
    return [f"{Path(path).name}: {p}" for p in problems], final_gap


def summary_csv_problems(path: Path, n_iters: int) -> list[str]:
    try:
        header, data = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{Path(path).name}: unreadable ({exc})"]
    problems = []
    if header != ["k", "gap_median", "gap_q1", "gap_q3"]:
        problems.append(f"unexpected header {header}")
    if len(data) != n_iters + 1:
        problems.append(f"{len(data)} rows, expected {n_iters + 1}")
    return [f"{Path(path).name}: {p}" for p in problems]
