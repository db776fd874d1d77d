from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionshape import harness
from opinionshape.cli import main
from opinionshape.optim import exact_optimum

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, **overrides):
    base = {
        "network": "karate",
        "s_size": 3,
        "s1_size": 28,
        "s0_size": 3,
        "alpha": 0.6,
        "budget": 5.0,
        "scheme": "sas",
        "n_iters": 50,
        "n_runs": 2,
        "seed": 0,
    }
    base.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return path


def test_run_success(tmp_path, capsys):
    cfg = write_config(tmp_path, out_dir=tmp_path / "out")
    code = main(["run", "--config", str(cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "summary" in out
    assert (tmp_path / "out" / "sas_summary.csv").exists()


def test_run_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, out_dir=tmp_path / "out2")
    code = main(["run", "--config", str(cfg), "--scheme", "sgd1", "--iters", "20", "--runs", "1"])
    assert code == 0
    assert (tmp_path / "out2" / "sgd1_seed0.csv").exists()


def test_gd_subcommand(tmp_path):
    cfg = write_config(tmp_path, out_dir=tmp_path / "gd_out")
    code = main(["gd", "--config", str(cfg), "--iters", "4000"])
    assert code == 0
    assert (tmp_path / "gd_out" / "gd_seed0.csv").exists()


def test_missing_config_is_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 2


def test_bad_key_is_exit_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense = true\n")
    assert main(["run", "--config", str(path)]) == 2


def test_infeasible_instance_is_exit_3(tmp_path):
    # every agent controlled with zero influence: singular stationary system
    cfg = write_config(tmp_path, s_size=34, s1_size=0, s0_size=0, alpha=0.0, out_dir=tmp_path / "x")
    assert main(["run", "--config", str(cfg)]) == 3


def test_two_node_instance_that_never_absorbs_is_exit_3_within_a_second(tmp_path, capsys):
    # both nodes controlled with alpha = 0 and none stubborn: Id - A is
    # singular, yet LAPACK solves its transpose with residual 0.0.  The
    # graph search refuses it before the solve and before any walk
    edges = tmp_path / "two.edges"
    edges.write_text("0 1\n1 0\n0 0\n")
    cfg = write_config(
        tmp_path, network=edges, s_size=2, s1_size=0, s0_size=0, alpha=0.0, scheme="sgd1", out_dir=tmp_path / "out"
    )
    start = time.perf_counter()
    assert main(["run", "--config", str(cfg)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "node 0" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["general-rl", "general-knownp"])
def test_general_scheme_without_stubborn_agents_is_exit_3(tmp_path, scheme):
    # alpha(0) = 0 and no stubborn agent: the general system at u = 0 is
    # Id - P, singular
    cfg = write_config(tmp_path, scheme=scheme, s1_size=31, s0_size=0, out_dir=tmp_path / "g")
    assert main(["run", "--config", str(cfg)]) == 3


def write_stranded_general_config(tmp_path):
    # the partition controls nodes 2 and 4 and makes node 1 stubborn, so
    # the base system is feasible; alpha(0) = 0 leaves {4, 5, 6} with no
    # path to an absorbing row, and I - A(0) is singular there
    edges = tmp_path / "stranded.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n4 5\n5 4\n4 4\n5 6\n")
    return write_config(
        tmp_path, network=edges, scheme="general-rl", s_size=2, s1_size=4, s0_size=1, out_dir=tmp_path / "out"
    )


def test_general_system_singular_at_zero_control_is_exit_3_within_a_second(tmp_path, capsys):
    # LAPACK solved this system without complaint and the run wrote a
    # gradient entry of 5e16 at u = 0
    cfg = write_stranded_general_config(tmp_path)
    start = time.perf_counter()
    assert main(["run", "--config", str(cfg)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "node 4" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


def test_timing_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, out_dir=tmp_path / "t")
    code = main(["timing", "--config", str(cfg), "--schemes", "sas", "--timing-iters", "10"])
    assert code == 0
    assert "sas:" in capsys.readouterr().out


def test_run_refuses_an_abbreviated_flag(tmp_path):
    # --it would otherwise read as --iters
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        main(["run", "--config", str(cfg), "--it", "5"])
    assert exc.value.code == 2


def test_timing_empty_schemes_is_exit_2(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["timing", "--config", str(cfg), "--schemes", ""]) == 2


@pytest.mark.parametrize(
    "flag", [["--iters", "5"], ["--runs", "1"], ["--jobs", "1"], ["--out", "t"], ["--scheme", "sas"]]
)
def test_timing_refuses_the_flags_it_does_not_read(tmp_path, flag):
    # timing_report picks the schemes and the iteration count itself
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        main(["timing", "--config", str(cfg), *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("denom", 0),
        ("budget", "nan"),
        ("budget", "inf"),
        ("sgd_block", 0),
        ("anneal_denom", 0),
        ("step_a", 0.0),
        ("step_a", "inf"),
        ("step_b", -0.6),
        ("step_b", "nan"),
        ("gd_step_scale", 0.0),
        ("anneal_c", "nan"),
        ("anneal_c", -5.0),
        ("anneal_c", "inf"),
    ],
)
def test_bad_numeric_setting_is_exit_2(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, out_dir=tmp_path / "bad", **{key: value})
    assert main(["run", "--config", str(cfg)]) == 2
    assert key in capsys.readouterr().err


def test_negative_seed_flag_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, out_dir=tmp_path / "neg")
    assert main(["run", "--config", str(cfg), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_negative_seed_in_config_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, seed=-1, out_dir=tmp_path / "neg")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_timing_without_iterations_is_exit_2(tmp_path, capsys, iters):
    cfg = write_config(tmp_path, out_dir=tmp_path / "t")
    assert main(["timing", "--config", str(cfg), "--schemes", "sas", f"--timing-iters={iters}"]) == 2
    assert "at least one iteration" in capsys.readouterr().err


@pytest.mark.parametrize("under_file", [False, True])
def test_unusable_output_directory_is_exit_2(tmp_path, capsys, under_file):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    out = taken / "runs" if under_file else taken
    cfg = write_config(tmp_path, out_dir=out)
    assert main(["run", "--config", str(cfg)]) == 2
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sas_seed0.csv", "sas_summary.csv"])
def test_unwritable_csv_path_is_exit_2(tmp_path, capsys, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = write_config(tmp_path, out_dir=out)
    assert main(["run", "--config", str(cfg), "--iters", "3", "--runs", "1"]) == 2
    assert str(out / name) in capsys.readouterr().err


def test_denom_too_large_for_a_float_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, out_dir=tmp_path / "big", denom=10**400)
    assert main(["run", "--config", str(cfg), "--iters", "3", "--runs", "1"]) == 2
    assert "denom" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["sas", "partial"])
def test_iters_past_what_numpy_can_index_is_exit_2(tmp_path, capsys, scheme):
    # a float array of 1e23 + 1 rows has more bytes than an intp counts
    config = SRC.parent / "configs" / "karate_sas.cfg"
    out = tmp_path / "iters"
    argv = ["run", "--config", str(config), "--scheme", scheme, "--iters", str(10**23), "--runs", "1", "--out", str(out)]
    assert main(argv) == 2
    assert "n_iters" in capsys.readouterr().err
    assert not out.exists()


def test_timing_iters_past_what_numpy_can_index_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, out_dir=tmp_path / "t")
    assert main(["timing", "--config", str(cfg), "--schemes", "sas", "--timing-iters", str(10**23)]) == 2
    assert "n_iters" in capsys.readouterr().err


def test_diverging_sas_is_exit_3(tmp_path, capsys):
    # a fast step of 5 overshoots the sensitivity fixed point and blows up
    cfg = write_config(tmp_path, step_a=5.0, out_dir=tmp_path / "div")
    assert main(["run", "--config", str(cfg)]) == 3
    assert "sanity bound" in capsys.readouterr().err


def test_divergence_is_caught_under_python_O(tmp_path):
    cfg = write_config(tmp_path, step_a=5.0, n_runs=1, out_dir=tmp_path / "div")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "opinionshape.cli", "run", "--config", str(cfg)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr


@pytest.mark.parametrize("scheme", ["gd", "sas", "sgd1", "sgd2", "partial"])
def test_huge_budget_keeps_exit_contract(tmp_path, scheme):
    # (budget + scale) ** 2 leaves the float range above about 1.34e154
    cfg = write_config(tmp_path, budget=1e160, scheme=scheme, n_iters=20, n_runs=1, out_dir=tmp_path / "big")
    assert main(["run", "--config", str(cfg)]) in (0, 2, 3)


@pytest.mark.parametrize("scheme", ["gd", "sas", "sgd1", "sgd2", "partial"])
def test_tiny_budget_runs(tmp_path, scheme):
    # 1e-20 is below half an ulp of the entries the first projected step sees
    cfg = write_config(tmp_path, budget=1e-20, scheme=scheme, n_iters=20, n_runs=1, out_dir=tmp_path / "tiny")
    assert main(["run", "--config", str(cfg)]) == 0


def test_overflowing_edge_weights_are_exit_2(tmp_path, capsys):
    edges = tmp_path / "huge.edges"
    edges.write_text("0 1 1e308\n0 2 1e308\n1 2 1.0\n")
    cfg = write_config(
        tmp_path, network=edges, weighted="true", s_size=1, s1_size=1, s0_size=1, out_dir=tmp_path / "huge"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    assert "node 0" in capsys.readouterr().err


def test_network_directory_is_exit_2(tmp_path, capsys):
    folder = tmp_path / "graph.edges"
    folder.mkdir()
    cfg = write_config(tmp_path, network=folder, out_dir=tmp_path / "out")
    assert main(["run", "--config", str(cfg)]) == 2
    assert str(folder) in capsys.readouterr().err


def test_non_utf8_edge_list_is_exit_2(tmp_path, capsys):
    edges = tmp_path / "latin1.edges"
    edges.write_bytes(b"# caf\xe9\n0 1\n1 2\n")
    cfg = write_config(tmp_path, network=edges, s_size=1, s1_size=1, s0_size=1, out_dir=tmp_path / "out")
    assert main(["run", "--config", str(cfg)]) == 2
    assert str(edges) in capsys.readouterr().err


def test_non_utf8_config_is_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes() + b"# r\xe9sum\xe9\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert str(cfg) in capsys.readouterr().err


def test_config_directory_is_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_more_jobs_than_runs_is_exit_0(tmp_path):
    # the pool gets one worker per run, never the 1e20 asked for
    config = SRC.parent / "configs" / "karate_sas.cfg"
    out = tmp_path / "jobs"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "opinionshape.cli", "run", "--config", str(config), "--iters", "3",
         "--runs", "2", "--jobs", "100000000000000000000", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.glob("*_seed*.csv")) == ["sas_seed0.csv", "sas_seed1.csv"]


def write_ring(tmp_path):
    """A 4-node ring: 0 1, 1 2, 2 3, 3 0."""
    edges = tmp_path / "ring.edges"
    edges.write_text("0 1\n1 2\n2 3\n3 0\n")
    return edges


@pytest.mark.parametrize(
    "scheme, key",
    [("sas", "step_b"), ("partial", "step_b"), ("general-rl", "step_b"), ("sgd1", "step_a"), ("gd", "gd_step_scale")],
)
def test_huge_step_is_exit_3_without_a_warning(tmp_path, scheme, key):
    # the first update overflows to inf and the projection reports divergence
    cfg = write_config(
        tmp_path, network=write_ring(tmp_path), s_size=1, s1_size=2, s0_size=1, scheme=scheme,
        n_iters=3, n_runs=1, out_dir=tmp_path / "out", **{key: 1e308},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg)]) == 3


def test_parallel_arcs_past_the_float_range_are_exit_2_without_a_warning(tmp_path, capsys):
    # each weight is finite, but the arc and its reverse add up to inf
    edges = tmp_path / "huge.edges"
    edges.write_text("0 1 1e308\n1 0 1e308\n")
    cfg = write_config(
        tmp_path, network=edges, weighted="true", s_size=0, s1_size=2, s0_size=0, n_iters=1, n_runs=1,
        out_dir=tmp_path / "out",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gd", "--config", str(cfg)]) == 2
    assert "node 0" in capsys.readouterr().err


def test_zero_optimum_gives_nan_gaps_without_a_warning(tmp_path, monkeypatch):
    # no feasible config has payoff* = 0 (stubborn nodes add to it, and
    # without them some alpha > 0 spends the budget), so it is pinned there
    def zero_optimum(graph, partition, budget):
        u_star, _ = exact_optimum(graph, partition, budget)
        return u_star, 0.0

    monkeypatch.setattr(harness, "exact_optimum", zero_optimum)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, network=write_ring(tmp_path), s_size=4, s1_size=0, s0_size=0, alpha=1.0, budget=1e-20,
        n_iters=5, n_runs=2, out_dir=out,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg)]) == 0
    for name in ("sas_seed0.csv", "sas_seed1.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == ["nan"] * 6
    assert (out / "sas_summary.csv").read_text().splitlines()[1:] == [f"{k},nan,nan,nan" for k in range(6)]


# values at the edges of every key's range: zero, negatives, huge ints,
# the largest and the smallest float, inf, nan and non-numbers
EDGE_VALUES = ["0", "-1", "-0.0", str(10**30), str(10**400), "1e308", "5e-324", "inf", "-inf", "nan", "abc", ""]
# in-range values of each key the property varies; n_iters, n_runs and jobs
# stay small, since the pool starts one process per run
ORDINARY = {
    "alpha": ["0.6", "0", "1"],
    "budget": ["5.0", "1e-20", "1e160"],
    "seed": ["0", "3", str(10**30)],
    "step_a": ["0.6", "5"],
    "step_b": ["0.6"],
    "denom": ["100", "1"],
    "sgd_block": ["1", "7"],
    "gd_step_scale": ["100.0"],
    "observed_fraction": ["0.5", "0", "1"],
    "directed": ["false", "true"],
    "n_iters": ["0", "1", "5"],
    "n_runs": ["1", "2"],
    "jobs": ["1", "2"],
}
SMALL_KEYS = ("n_iters", "n_runs", "jobs")


@st.composite
def cli_cases(draw):
    """An edge list, a config file's settings and the subcommand of one CLI
    call; up to two keys, a weight or a node label take an edge value."""
    n = draw(st.integers(2, 6))
    weighted = draw(st.booleans())
    edged = draw(st.sets(st.sampled_from([*ORDINARY, "sizes", "weight", "label"]), max_size=2))

    def value(key):
        if key not in edged:
            return draw(st.sampled_from(ORDINARY[key]))
        if key in SMALL_KEYS:
            return draw(st.sampled_from(["-1", "0", "-0.0", "2.5", "abc", ""]))
        return draw(st.sampled_from(EDGE_VALUES))

    labels = list(range(n))
    arcs = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        arcs.append((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    if "label" in edged:
        odd = draw(st.sampled_from([-1, 10**30, 2**63]))
        arcs.append((odd, draw(st.integers(0, n - 1))))
        labels.append(odd)
    rows = [f"{i} {j}" for i, j in arcs]
    if weighted:
        rows = [f"{row} {draw(st.sampled_from(EDGE_VALUES if 'weight' in edged else ['1', '0.5', '2']))}" for row in rows]
    nodes = len(set(labels))
    s = draw(st.integers(0, nodes))
    s0 = draw(st.integers(0, nodes - s))
    sizes = [s, nodes - s - s0, s0]
    if "sizes" in edged:
        sizes[draw(st.integers(0, 2))] = draw(st.sampled_from(EDGE_VALUES))
    settings_ = {key: value(key) for key in ORDINARY}
    settings_.update(
        s_size=sizes[0], s1_size=sizes[1], s0_size=sizes[2], weighted=str(weighted).lower(),
        scheme=draw(st.sampled_from(["gd", "sas", "sgd1", "sgd2", "partial"])),
    )
    return rows, settings_, draw(st.sampled_from(["run", "gd"]))


@settings(max_examples=200, deadline=None)
@given(case=cli_cases())
def test_cli_keeps_its_exit_contract(case):
    rows, values, command = case
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        (folder / "net.edges").write_text("\n".join(rows) + "\n")
        values = dict(values, network=folder / "net.edges", out_dir=folder / "out")
        cfg = folder / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(cfg)])
    assert code in (0, 2, 3)
