from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from opinionshape.cli import main

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


@pytest.mark.parametrize("scheme", ["general-rl", "general-knownp"])
def test_general_scheme_without_stubborn_agents_is_exit_3(tmp_path, scheme):
    # alpha(0) = 0 and no stubborn agent: the general system at u = 0 is
    # Id - P, singular
    cfg = write_config(tmp_path, scheme=scheme, s1_size=31, s0_size=0, out_dir=tmp_path / "g")
    assert main(["run", "--config", str(cfg)]) == 3


def test_timing_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, out_dir=tmp_path / "t")
    code = main(["timing", "--config", str(cfg), "--schemes", "sas", "--timing-iters", "10"])
    assert code == 0
    assert "sas:" in capsys.readouterr().out


def test_timing_empty_schemes_is_exit_2(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["timing", "--config", str(cfg), "--schemes", ""]) == 2


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
