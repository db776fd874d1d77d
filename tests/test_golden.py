"""Golden sha256 digests of seeded experiment CSVs.

A fixed config and seed must give byte-identical CSVs.  The digests below
were recorded with a dense inverse-CDF poll sampler, so they also pin that
the poll table consumes every uniform in the same order and picks the same
neighbour as that sampler.  The simulator digests cover the two opinion
simulators, which write no CSV.  The digests depend on the float results
of the linear-algebra build (LAPACK solves feed the payoff column); record
them again only with a change that is meant to move the numbers, and say
why.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from opinionshape.dynamics import empirical_opinion_stats, gossip_step, initial_state
from opinionshape.harness import build_instance, parse_config, run_experiment
from opinionshape.network import ActivationModel
from opinionshape.sas import run_sas
from opinionshape.sgd import run_sgd, sample_killed_walk, sample_weighted_walk

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "karate_sas.cfg"
SCHEMES = ("gd", "sas", "sgd1", "sgd2", "partial")

RING_N = 40
# a synthetic graph wide enough that sas ticks and sgd walk fronts draw
# polls in arrays of a few hundred queries
WIDE_N = 320


def write_ring_with_chords(path: Path) -> None:
    """Weighted undirected ring on RING_N nodes plus a chord from every even node."""
    lines = []
    for i in range(RING_N):
        lines.append(f"{i} {(i + 1) % RING_N} {1 + i % 3}")
        if i % 2 == 0:
            lines.append(f"{i} {(7 * i + 5) % RING_N} 0.5")
    path.write_text("\n".join(lines) + "\n")


def write_weighted_random_graph(path: Path) -> None:
    """Seeded weighted undirected graph on WIDE_N nodes: a ring plus three
    random arcs per node, integer weights 1-9."""
    rng = np.random.default_rng(20)
    lines = []
    for i in range(WIDE_N):
        lines.append(f"{i} {(i + 1) % WIDE_N} {rng.integers(1, 10)}")
        for j in rng.choice(WIDE_N, size=3, replace=False):
            if j != i:
                lines.append(f"{i} {j} {rng.integers(1, 10)}")
    path.write_text("\n".join(lines) + "\n")


def csv_digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*.csv"))
    }


def short_config(tmp_path: Path, instance: str, scheme: str, **overrides):
    out = tmp_path / f"{instance}_{scheme}"
    config = parse_config(CONFIG, {"scheme": scheme, "n_iters": 50, "n_runs": 2, "out_dir": str(out)})
    if instance == "ring":
        edges = tmp_path / "ring.edges"
        write_ring_with_chords(edges)
        config = replace(
            config, network=str(edges), weighted=True,
            s_size=4, s1_size=30, s0_size=6, budget=3.0, seed=5,
        )
    elif instance == "wide":
        edges = tmp_path / "wide.edges"
        write_weighted_random_graph(edges)
        config = replace(
            config, network=str(edges), weighted=True,
            s_size=16, s1_size=288, s0_size=16, budget=4.0, seed=2, step_a=0.002,
            n_iters=20 if scheme == "sas" else 3,
        )
    return replace(config, **overrides)


def run_short(tmp_path: Path, instance: str, scheme: str, **overrides) -> dict[str, str]:
    config = short_config(tmp_path, instance, scheme, **overrides)
    run_experiment(config)
    return csv_digests(Path(config.out_dir))


def simulator_digests(graph, partition) -> dict[str, str]:
    """Digests of the opinion simulators' outputs, which share the poll draw."""
    u = np.full(len(partition.controlled), 1.0)
    asynchronous = ActivationModel("asynchronous", q=np.full(graph.node_count, 0.7))
    out = {}
    for mode in (ActivationModel("synchronous"), asynchronous):
        rng = np.random.default_rng(3)
        state = initial_state(graph, partition)
        polled = []
        for _ in range(20):
            state, events = gossip_step(state, u, graph, partition, mode, rng)
            polled.extend(e.polled for e in events)
        gossip = state.x.tobytes() + np.array(polled).tobytes()
        mean, se = empirical_opinion_stats(graph, partition, u, mode, 20, 30, seed=4)
        out[f"gossip_{mode.mode}"] = hashlib.sha256(gossip).hexdigest()
        out[f"stats_{mode.mode}"] = hashlib.sha256(mean.tobytes() + se.tobytes()).hexdigest()
    return out


GOLDEN = {
    ('karate', 'gd'): {
        'gd_seed0.csv': 'ec5b5ac7778d6f11678fa395bc1f3e1f4736a5226886b08ea663de38f24587fa',
        'gd_summary.csv': 'a553d433698d8fd1388e1a5cebd227cc0173ba9b09dd900028b8ff575e55d8ea',
    },
    ('karate', 'sas'): {
        'sas_seed0.csv': '44146961a135af5f61c988673d81b83a3936f40214ba48dd799927721c5be67a',
        'sas_seed1.csv': '00d0984cda6cd4e73fec610071dfa2491c86256756a6233568c1df252a64b4e3',
        'sas_summary.csv': '2401e80e6d986f49d14a2d20306f6c4fc25d63c2b4206d4ed89a276754187dfb',
    },
    ('karate', 'sgd1'): {
        'sgd1_seed0.csv': 'b02afa12e6f9fb11932e5d3f47ec23c2623f8d15c6baa5262bc23cba1a4d80e4',
        'sgd1_seed1.csv': 'fffc262e1a6d35fe0d6cf25b1d32d098dac401980185838a8c8c6efd31ce0bb5',
        'sgd1_summary.csv': '64fcd5e217f685ce601284825a2233b80b6f6348d500ec22f4a50c87ad708a1c',
    },
    ('karate', 'sgd2'): {
        'sgd2_seed0.csv': 'c4a85d8a6af00dc4c1f3af86169dd417135057c405fbefa721f91727489301c4',
        'sgd2_seed1.csv': 'a5baf01f74b3673d96c5d571f53c0dcabab38009be8b318a678114b14e3321f0',
        'sgd2_summary.csv': '336125d155f929ec3e0a7cf75b937b74728abab00db2f29decc7c6d062fe2e15',
    },
    ('karate', 'partial'): {
        'partial_seed0.csv': '6d023bc4c9551ea4228d2beb14209ac20aa5095d064cdf4659ba00f1b48fb95f',
        'partial_seed1.csv': 'a3a809802757e54d235e67e3e4ec3bef3f98bb51db6edaf77d0f553a16e75c77',
        'partial_summary.csv': '9c2df0f05284a2350d28e9631e8345217d007c0b8254abd34aeac04cb3b51119',
    },
    ('ring', 'gd'): {
        'gd_seed5.csv': '0d503021165bb136b7f1346062973d70a27149c9ff40e704bde98555f87161ba',
        'gd_summary.csv': '57c3f69f4aaad99b1577982bfc3b3a6d102c6fcdc60bec2965acc9f298e8fefd',
    },
    ('ring', 'sas'): {
        'sas_seed5.csv': '94c58bd6fe20e2cb20f1b90034ff90889a6d6799dabd0ea1b21167953b4359f0',
        'sas_seed6.csv': 'dd9cb0d1caff85834a2bdcbed6bef1aee2b0476419766da82e77148c53961f6c',
        'sas_summary.csv': '4a988d15d3d957e5653294fbe577e64bfef7e13a0eb515ac59abab9e2564a9a2',
    },
    ('ring', 'sgd1'): {
        'sgd1_seed5.csv': '250a5fa6c18a4fbde98997e88bee1f294c2d761244ea74e171b6bc3a5ab36201',
        'sgd1_seed6.csv': 'fd79dec687c639f39993354112fa8f53a5aeae7b7dbbce7ce0f7dbc81740b8b6',
        'sgd1_summary.csv': '442b7997a19f35370a0e7d3096fc08b086b27b7a5113bd23c92fb56bf9b9d52c',
    },
    ('ring', 'sgd2'): {
        'sgd2_seed5.csv': '34d5bf9acd625760abb7d4d299523ea8c1ef17205e38dc5ce5f32e46b8a86c06',
        'sgd2_seed6.csv': 'ba8bb711a2046a8bfc71917b5dd996ce6abca8bceffdad6674507568a6a0d365',
        'sgd2_summary.csv': '55c0a76e9035a0307274595e031b0142ceac41244522db714e592395202f2273',
    },
    ('ring', 'partial'): {
        'partial_seed5.csv': '3bf92609b44857c70c7c25f808d7b966c271eb30be86aa837ad6d37ecf7e5d77',
        'partial_seed6.csv': '22eab5d0f00917a5ce2933891c79240d5ab73372d4418e570cd2004b2cc6af23',
        'partial_summary.csv': 'd94f1f9001d3ede8f3768deee7d6cb00ef2fe05990ccc23b181cfb3a1c95de5b',
    },
    ('karate', 'general-rl'): {
        'general-rl_seed0.csv': 'e89bc34a663c7e8eb03552196cc4c17841f077221481508203fb4c2769ed10a7',
        'general-rl_seed1.csv': 'ea5785fc6984667355f8ae72c336b6679b8ad6c949960146a036ec4b3ceea0e6',
        'general-rl_summary.csv': '0d502b49ea5e392caf0a60d88769537ec4a00c202d5d6f1584311e06dae5befe',
    },
    ('karate', 'general-knownp'): {
        'general-knownp_seed0.csv': 'b37ab8caafde16242888ead3e8d159b2fc9a90858d5a9624332b34e338e0c6c2',
        'general-knownp_seed1.csv': 'b37ab8caafde16242888ead3e8d159b2fc9a90858d5a9624332b34e338e0c6c2',
        'general-knownp_summary.csv': 'e4cf99ad36a2cc2b21300163a2dcba63809c6052bc1482062b0c964331ad9ff3',
    },
}
GOLDEN_SIMULATORS = {
    'gossip_synchronous': 'f3ea15b61703cb9b7439ef99e90b25f42be35e05b20b4c227d5ad9e40f38d9d2',
    'stats_synchronous': '0f595eaa72a1ba2a2992cb3de890b20a8ca87922bd50e401d14ce568ed979ced',
    'gossip_asynchronous': 'cc401c08b5b607ab5ad5f4d8d03f6598a3708b5b68d93158a66955969c2505b3',
    'stats_asynchronous': 'ed883825151e7bcae6bbd4db7c15296a94a68e869b38a0e3df79dc4897cf1a11',
}


# the WIDE_N-node graph: each sas tick draws 304 polls in one array and
# each sgd iteration starts 304 walks, so these pin the poll draws of wide
# batches, which karate and the ring never make; a partial tick relays one
# token from each of about 160 observed learners
GOLDEN_WIDE = {
    ('wide', 'sas'): {
        'sas_seed2.csv': 'c35882ba558923adc0f2ad8f67c1dcbf11e97afe612a2eed5a2af6af778a83ac',
        'sas_seed3.csv': '74a84db841612e4fa62989614ff3faeff7cdc70407e50adddf694b7e6ffcea98',
        'sas_summary.csv': '3b0de87e67986c7d21c6339ef3c154eab303f2adfb35d2c191e9a60bb7b9d38e',
    },
    ('wide', 'sgd1'): {
        'sgd1_seed2.csv': 'bced6f5ff920f57b054e9d9bf165fdca6f8b1ee67ce01ea7bf27a1db5b5cf1a9',
        'sgd1_seed3.csv': '0e4f17fb84dd1cad3bbc3962ca9b92fd9dcdea5411f867b16a73d9296bdf5388',
        'sgd1_summary.csv': '7391d9712aeb532aebc98afe98d216fad1140157e3f951e567c462e158248187',
    },
    ('wide', 'sgd2'): {
        'sgd2_seed2.csv': '661623c0b15f3d628bf82a06ec84d35e7b3605d0cab801ec6b082f9b517cd53b',
        'sgd2_seed3.csv': '91ca2c9ee49369a1d1be74d1c89a0993e9254e483a95a95e5440205df60f6934',
        'sgd2_summary.csv': 'a58af15b196e64b99c750454e406f6604aaeca3fbabfabccabe05cd063c413b5',
    },
    ('wide', 'partial'): {
        'partial_seed2.csv': '2653f3d610563341307c50ffe2d214d33f684daf63a61c2a24724bb18c256336',
        'partial_seed3.csv': '71856216d53bcc10486b8138cda923ea2874d62256e0ff4e115b670b874d76d1',
        'partial_summary.csv': 'bf8b9a4983f250b6e135e6afe5a9264c2e68bdff55450a0fd077ac5322aefb8b',
    },
}


@pytest.mark.parametrize("scheme", ["sas", "sgd1", "sgd2", "partial"])
def test_wide_batch_csv_bytes_match_golden_digests(tmp_path, scheme):
    assert run_short(tmp_path, "wide", scheme) == GOLDEN_WIDE["wide", scheme]


@pytest.mark.parametrize(
    "instance, scheme",
    [(i, s) for i in ("karate", "ring") for s in SCHEMES]
    + [("karate", "general-rl"), ("karate", "general-knownp")],
)
def test_csv_bytes_match_golden_digests(tmp_path, instance, scheme):
    assert run_short(tmp_path, instance, scheme) == GOLDEN[instance, scheme]


def test_simulator_outputs_match_golden_digests(karate_graph, karate_partition):
    assert simulator_digests(karate_graph, karate_partition) == GOLDEN_SIMULATORS


# sampler edge cases: alpha = 1 kills every scheme-1 walk at the first
# controlled node and zeroes scheme-2 weights there; observed_fraction = 0
# hides every non-controlled agent, so tokens relay for many hops
GOLDEN_EDGES = {
    ('karate', 'sgd1', 'alpha', 1.0): {
        'sgd1_seed0.csv': 'dc6d04105c00da5f5ab3f5b5543896f032a2f63e7d906daaeabd6e332fc554d9',
        'sgd1_seed1.csv': 'dfa43d5c10c171eeb50cc34eaa856233e8347666fbea5895d9d15165d2e58a57',
        'sgd1_summary.csv': '5118c2ff204d2fe7f671f64fab2d5925a234a6fb70bc49bdc43adaf5322acd12',
    },
    ('karate', 'sgd2', 'alpha', 1.0): {
        'sgd2_seed0.csv': '7d043f3feab8f6ef926f46907c376a9f20abf8572bfc2c04b471846652362c4e',
        'sgd2_seed1.csv': '5a654d38bdfb33ec57ff79c23832dfb40ee81c39ec007313189d32775c086888',
        'sgd2_summary.csv': '624e5b8aedb5d5ad9cd0a6ce5ddf21d774788f0b6a008f7e085c1fd923319da3',
    },
    ('karate', 'partial', 'observed_fraction', 0.0): {
        'partial_seed0.csv': '796784eb16852af11a247e5d10d473b095b3cb8b1dfb2d993c4780e9ed905c73',
        'partial_seed1.csv': '69761c73e06960668759cefaf7141067165f05501c719f6ca0457636abe7d0a3',
        'partial_summary.csv': '99985cbbb6f534e952f28390697c0e33e4eac0a0b75792b42b46368a3926e6ae',
    },
    ('ring', 'sgd1', 'alpha', 1.0): {
        'sgd1_seed5.csv': '7e5e65b0b2b9f0af9fc2f79a184b79447b7a29812e787c26af40c30dd6d5ede5',
        'sgd1_seed6.csv': 'f3c6037cc95d17e3280e5c1081eb3cefc9027f030c8eb653dd4071d9949cc85d',
        'sgd1_summary.csv': '7a3545ab897bb91b6114d12f47a2b271d39c62c736d8dd562b5eeaa84f9653b2',
    },
    ('ring', 'sgd2', 'alpha', 1.0): {
        'sgd2_seed5.csv': '7f4a677abff6f0a9d87ea084fa31f8fb1ed4eb53af9b0465f12378ee7cd97bf7',
        'sgd2_seed6.csv': '94a50026d15a0b7ffbeef01e3e856660db50accfcc02702c674e8881f56d6ede',
        'sgd2_summary.csv': '939394d667ec25d8a73e372e9cb324c5995d3665be5b58057c72a7025ccfd3fe',
    },
    ('ring', 'partial', 'observed_fraction', 0.0): {
        'partial_seed5.csv': '8758c39306f79ea4a3646b688d6a2f514daca5f5fcb4cebca551ae94ab1072eb',
        'partial_seed6.csv': 'fe0a1a3315c8eabee93c3a0708a398c72ed7cb1f8f255855e41a59dfc8bd2fa7',
        'partial_summary.csv': 'd1f33e54fea1e10d4ebda3b28e61a478bab096275e68e0061db7aef1ed2f4b5a',
    },
    ('karate', 'general-rl', 'anneal_denom', 5): {
        'general-rl_seed0.csv': 'ebfe341daa82f0f77983cfd475c7a106b8ea14bc86f934d517bd09d336f6ddc9',
        'general-rl_seed1.csv': 'f8d79fda3a7fc50f24bf2761707c89176f3bd22f4da399f4c6461617dba698cc',
        'general-rl_summary.csv': 'd3a7cef660864550bdb933078e81ffa3870e4a4f0d8927636d4be9ee227d94c5',
    },
    ('karate', 'general-knownp', 'anneal_denom', 5): {
        'general-knownp_seed0.csv': '6e7fe4f67ec44696ca7dfb5281d9b93152f91534107ba050f51c4b508a56d08f',
        'general-knownp_seed1.csv': '0a2499f641dbd3cf836a6429da39bd1ea7b57d24fc5a364f849203f757d8b9fc',
        'general-knownp_summary.csv': '64d30f01c89f2d41d2ae57b2653c728fad0e980559c7ccb00bb6875ef04fd999',
    },
}


@pytest.mark.parametrize("instance, scheme, key, value", sorted(GOLDEN_EDGES))
def test_sampler_edge_cases_match_golden_digests(tmp_path, instance, scheme, key, value):
    digests = run_short(tmp_path, instance, scheme, **{key: value})
    assert digests == GOLDEN_EDGES[instance, scheme, key, value]


def digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()


# one walk at a time: uniform-single-start sgd runs draw a single start per
# iteration, and the one-row samplers walk from one start per call
GOLDEN_SINGLE_START = {
    'karate': {
        'sgd1': 'f6ff8258052efb2b2e22300714cc0f2d4d0e519b63544307406005d66981feed',
        'sgd2': '8a8e210219547fad5e6da1e575562cd87a01205ba165425b259ef974bf1f91e7',
    },
    'ring': {
        'sgd1': 'ca9b0ac94d56f9ceedb0afaef84b6eb86686c94748d0aba7a0cd3e5eb126de72',
        'sgd2': 'eba015c8fe3405ced8ad80e8d03ee86a55a8e76a2744f13ea62fada92fea139c',
    },
}
GOLDEN_ONE_WALK = {
    'killed': '8a3cd186fd6b74239a525d9eaee1c2ff9df4f91a412769738170bf639611aec5',
    'weighted': 'c235ae53be0ad1ddcf2d6f17363f50e980b6a030df9aa20825bfdc8d22804ba8',
}


@pytest.mark.parametrize("instance", sorted(GOLDEN_SINGLE_START))
def test_uniform_single_start_runs_match_golden_digests(tmp_path, instance):
    config = short_config(tmp_path, instance, "sgd1")
    built = build_instance(config)
    got = {}
    for scheme in (1, 2):
        traj = run_sgd(
            built.graph, built.partition, config.budget, scheme, 200, config.seed,
            payoff_star=built.payoff_star, uniform_single_start=True,
        )
        got[f"sgd{scheme}"] = digest(traj.u, traj.payoff, traj.rel_gap)
    assert got == GOLDEN_SINGLE_START[instance]


def test_one_row_walks_match_golden_digests(karate_graph, karate_partition):
    free = [i for i in range(karate_graph.node_count) if i not in karate_partition.stubborn]
    got = {}
    for name, sample in (("killed", sample_killed_walk), ("weighted", sample_weighted_walk)):
        rng = np.random.default_rng(11)
        rows = [sample(karate_graph, karate_partition, start, rng) for start in free for _ in range(20)]
        got[name] = digest(rows, rng.random())
    assert got == GOLDEN_ONE_WALK


# asynchronous sas keeps its per-tick draws and local clocks: karate with
# every agent active with probability 0.3, 200 ticks
GOLDEN_ASYNC_SAS = {
    0: '1f1c1ca73d454f60ce9666c7cff79b6a6b9736e31b0704ff9175a6503a73cc81',
    1: 'b0136028fe2e8341c0c11640864866df9b86ba84faa2c1558e41e3ace614c36b',
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_ASYNC_SAS))
def test_asynchronous_sas_matches_golden_digests(karate_graph, karate_partition, schedule, budget, seed):
    activation = ActivationModel("asynchronous", q=np.full(karate_graph.node_count, 0.3))
    traj = run_sas(karate_graph, karate_partition, budget, schedule, activation, 200, seed)
    got = digest(traj.u, traj.payoff, traj.extras["grad_table"], traj.extras["clocks"])
    assert got == GOLDEN_ASYNC_SAS[seed]
