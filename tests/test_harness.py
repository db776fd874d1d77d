from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionshape import harness
from opinionshape.errors import ConfigError
from opinionshape.harness import (
    SCHEMES,
    build_instance,
    parse_config,
    read_run_csv,
    run_experiment,
    run_scheme,
    timing_report,
    write_run_csv,
    write_summary_csv,
)
from opinionshape.optim import Trajectory

from helpers import SolveCounter, reference_exact_optimum, reference_write_run_csv, reference_write_summary_csv


def write_config(tmp_path, **overrides):
    base = {
        "network": "karate",
        "s_size": 3,
        "s1_size": 28,
        "s0_size": 3,
        "alpha": 0.6,
        "budget": 5.0,
        "scheme": "sas",
        "n_iters": 200,
        "n_runs": 3,
        "seed": 0,
        "denom": 100,
    }
    base.update(overrides)
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return path


class TestConfig:
    def test_parse_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.scheme == "sas"
        assert cfg.n_iters == 200
        assert cfg.alpha == 0.6

    def test_overrides_win(self, tmp_path):
        cfg = parse_config(write_config(tmp_path), {"scheme": "sgd1", "n_iters": 50})
        assert cfg.scheme == "sgd1"
        assert cfg.n_iters == 50

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# experiment\nnetwork = karate\nscheme = sas # inline\nn_iters = 10\n"
                        "s_size = 3\ns1_size = 28\ns0_size = 3\n")
        cfg = parse_config(path)
        assert cfg.scheme == "sas"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    def test_unknown_scheme_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown scheme"):
            parse_config(write_config(tmp_path, scheme="newton"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_bad_sizes_rejected_at_build(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, s_size=4))
        with pytest.raises(ConfigError, match="sum"):
            build_instance(cfg)


class TestRunExperiment:
    def test_writes_runs_and_summary(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, out_dir=tmp_path / "out"))
        result = run_experiment(cfg)
        assert len(result["runs"]) == 3
        for path in result["runs"]:
            data = read_run_csv(path)
            assert set(data) == {"k", "u_1", "u_2", "u_3", "payoff", "rel_gap"}
            assert len(data["k"]) == cfg.n_iters + 1
        assert result["summary"].exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, out_dir=tmp_path / "a", n_iters=100))
        first = run_experiment(cfg)
        blob1 = [p.read_bytes() for p in first["runs"]] + [first["summary"].read_bytes()]
        cfg2 = parse_config(write_config(tmp_path, out_dir=tmp_path / "b", n_iters=100))
        second = run_experiment(cfg2)
        blob2 = [p.read_bytes() for p in second["runs"]] + [second["summary"].read_bytes()]
        assert blob1 == blob2

    def test_summary_quartiles_recomputable(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, out_dir=tmp_path / "out", n_iters=120))
        result = run_experiment(cfg)
        per_run = np.array([read_run_csv(p)["rel_gap"] for p in result["runs"]])
        summary = read_run_csv(result["summary"])
        q1, med, q3 = np.percentile(per_run, [25, 50, 75], axis=0)
        assert np.allclose(summary["gap_median"], med, atol=1e-15)
        assert np.allclose(summary["gap_q1"], q1, atol=1e-15)
        assert np.allclose(summary["gap_q3"], q3, atol=1e-15)

    def test_gd_is_single_deterministic_run_with_tiny_gap(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, scheme="gd", n_iters=10_000, out_dir=tmp_path / "gd"))
        result = run_experiment(cfg)
        assert len(result["runs"]) == 1
        gap = read_run_csv(result["runs"][0])["rel_gap"][-1]
        assert abs(gap) <= 1e-6

    def test_zero_iterations_records_initial_point(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, n_iters=0, out_dir=tmp_path / "z"))
        result = run_experiment(cfg)
        data = read_run_csv(result["runs"][0])
        assert len(data["k"]) == 1
        assert data["k"][0] == 0

    def test_gap_never_significantly_negative(self, tmp_path):
        for scheme in ("sas", "sgd1", "partial"):
            cfg = parse_config(
                write_config(tmp_path, scheme=scheme, n_iters=300, n_runs=2, out_dir=tmp_path / scheme)
            )
            result = run_experiment(cfg)
            for traj in result["trajectories"]:
                assert np.all(traj.rel_gap >= -1e-9)

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = run_experiment(
            parse_config(write_config(tmp_path, n_iters=80, out_dir=tmp_path / "s", jobs=1))
        )
        parallel = run_experiment(
            parse_config(write_config(tmp_path, n_iters=80, out_dir=tmp_path / "p", jobs=3))
        )
        for a, b in zip(serial["runs"], parallel["runs"]):
            assert a.read_bytes() == b.read_bytes()

    def test_worker_runs_on_the_parent_instance(self, tmp_path, monkeypatch):
        cfg = parse_config(write_config(tmp_path, n_iters=40))
        instance = build_instance(cfg)
        expected = run_scheme(cfg, instance, cfg.seed + 1)

        def no_rebuild(config):
            raise AssertionError("pool workers must not rebuild the instance")

        monkeypatch.setattr(harness, "build_instance", no_rebuild)
        seed, traj = harness._worker((cfg, instance, cfg.seed + 1))
        assert seed == cfg.seed + 1
        assert np.array_equal(traj.u, expected.u)
        assert np.array_equal(traj.payoff, expected.payoff)

    @pytest.mark.parametrize("scheme", ["gd", "sas", "sgd1", "sgd2", "partial"])
    def test_one_dense_solve_per_experiment(self, tmp_path, monkeypatch, scheme):
        counter = SolveCounter(monkeypatch, 34)  # karate's node count
        cfg = parse_config(
            write_config(tmp_path, scheme=scheme, n_iters=20, n_runs=3, out_dir=tmp_path / scheme)
        )
        run_experiment(cfg)
        assert counter.calls == 1

    @pytest.mark.parametrize("scheme", ["gd", "sas", "sgd1", "sgd2", "partial"])
    def test_base_schemes_never_build_the_dense_poll_matrix(self, tmp_path, scheme):
        cfg = parse_config(write_config(tmp_path, scheme=scheme, n_iters=20, n_runs=2, out_dir=tmp_path / scheme))
        instance = build_instance(cfg)
        # the poll table waits for the first draw
        assert instance.graph._poll_table is None
        for seed in (cfg.seed, cfg.seed + 1):
            run_scheme(cfg, instance, seed)
        assert instance.graph._dense is None

    @pytest.mark.parametrize("budget", [1e308, 5e-324])
    @pytest.mark.parametrize("scheme", ["gd", "sas", "sgd1", "sgd2", "partial"])
    def test_extreme_budgets_run_without_warnings(self, tmp_path, scheme, budget):
        # at 1e308 the controls sum past the float range inside the exact
        # optimum: an expected overflow, so it must not warn
        cfg = parse_config(
            write_config(tmp_path, scheme=scheme, budget=budget, n_iters=20, n_runs=1, out_dir=tmp_path / scheme)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(cfg)
            instance = build_instance(cfg)
        u_ref, payoff_ref = reference_exact_optimum(instance.graph, instance.partition, budget)
        assert instance.u_star.tobytes() == u_ref.tobytes()
        assert instance.payoff_star == payoff_ref

    def test_general_schemes_run(self, tmp_path):
        for scheme in ("general-rl", "general-knownp"):
            cfg = parse_config(
                write_config(
                    tmp_path, scheme=scheme, n_iters=60, n_runs=1, out_dir=tmp_path / scheme
                )
            )
            result = run_experiment(cfg)
            data = read_run_csv(result["runs"][0])
            assert len(data["k"]) == 61


@pytest.fixture(scope="module")
def karate_instances():
    """Build one karate instance per model: the general reference optimum takes seconds."""
    built = {}

    def get(cfg):
        general = cfg.scheme.startswith("general")
        if general not in built:
            built[general] = build_instance(cfg)
        return built[general]

    return get


EXTRAS = {
    "gd": set(),
    "sas": {"grad_table", "clocks"},
    "sgd1": set(),
    "sgd2": set(),
    "partial": {"grad_vec", "observed", "hidden", "mean_hops"},
    "general-rl": {"values", "grad_table"},
    "general-knownp": {"values", "grad_table"},
}


@pytest.mark.parametrize("n_iters", [0, 5])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_loop_records_every_tick(tmp_path, karate_instances, scheme, n_iters):
    cfg = parse_config(write_config(tmp_path, scheme=scheme, n_iters=n_iters))
    traj = run_scheme(cfg, karate_instances(cfg), cfg.seed)
    assert traj.scheme == scheme
    assert np.array_equal(traj.ks, np.arange(n_iters + 1))
    assert len(traj.iter_seconds) == n_iters
    assert traj.u.shape == (n_iters + 1, 3)
    assert len(traj.payoff) == len(traj.rel_gap) == n_iters + 1
    assert set(traj.extras) == EXTRAS[scheme]


class TestTiming:
    def test_report_structure(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, out_dir=tmp_path / "t"))
        report = timing_report(cfg, ["sas", "sgd1"], n_iters=30)
        for scheme in ("sas", "sgd1"):
            stats = report[scheme]
            assert 0.0 <= stats["min"] <= stats["median"] <= stats["max"]
        assert isinstance(report["notes"], list)

    def test_gd_steps_are_timed(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, out_dir=tmp_path / "gd"))
        stats = timing_report(cfg, ["gd"], n_iters=20)["gd"]
        assert 0.0 < stats["min"] <= stats["median"] <= stats["max"]

    def test_single_scheme_report(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, out_dir=tmp_path / "t1"))
        report = timing_report(cfg, ["sas"], n_iters=10)
        assert "sas" in report

    def test_empty_scheme_list_rejected(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match="at least one"):
            timing_report(cfg, [])

    def test_one_instance_per_setup_kind(self, tmp_path, monkeypatch):
        # general schemes share the general instance, the others the base one
        built = []

        def counting_build(config):
            built.append(config.scheme)
            return build_instance(config)

        monkeypatch.setattr(harness, "build_instance", counting_build)
        monkeypatch.setattr(
            harness.general_mod, "general_reference_optimum", lambda graph, partition, model, budget: (None, 1.0)
        )
        cfg = parse_config(write_config(tmp_path, out_dir=tmp_path / "t"))
        schemes = ["sas", "general-rl", "gd", "general-knownp", "sgd1"]
        report = timing_report(cfg, schemes, n_iters=3)
        assert built == ["sas", "general-rl"]
        assert all(report[s]["min"] > 0.0 for s in schemes)


SPECIAL_FLOATS = st.sampled_from([
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, -1 / 3,
])


def float_block(data, shape: tuple[int, ...]) -> np.ndarray:
    """Arbitrary float64 bit patterns with a few special values written in."""
    size = int(np.prod(shape))
    out = np.frombuffer(data.draw(st.binary(min_size=8 * size, max_size=8 * size)), dtype=float).copy()
    if size:
        for pos, value in data.draw(st.lists(st.tuples(st.integers(0, size - 1), SPECIAL_FLOATS), max_size=12)):
            out[pos] = value
    return out.reshape(shape)


class TestCsvWriters:
    """The one-string writers against the csv.writer ones, byte for byte."""

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        return tmp_path_factory.mktemp("csv-writers")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_run_csv_matches_csv_writer(self, out, data):
        n_rows, n_ctrl = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 6))
        ks = np.array(data.draw(st.lists(st.integers(0, 2**62), min_size=n_rows, max_size=n_rows)))
        traj = Trajectory(
            scheme="sas",
            ks=ks,
            u=float_block(data, (n_rows, n_ctrl)),
            payoff=float_block(data, (n_rows,)),
            rel_gap=float_block(data, (n_rows,)) if data.draw(st.booleans()) else None,
        )
        write_run_csv(out / "run.csv", traj)
        reference_write_run_csv(out / "ref.csv", traj)
        assert (out / "run.csv").read_bytes() == (out / "ref.csv").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_summary_csv_matches_csv_writer(self, out, data):
        n_rows, n_runs = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 5))
        ks = np.arange(n_rows) * data.draw(st.integers(1, 10**6))
        gaps = float_block(data, (n_runs, n_rows))
        with np.errstate(invalid="ignore", over="ignore"):
            write_summary_csv(out / "summary.csv", ks, gaps)
            reference_write_summary_csv(out / "ref.csv", ks, gaps)
        assert (out / "summary.csv").read_bytes() == (out / "ref.csv").read_bytes()
