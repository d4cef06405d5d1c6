"""Fixed-seed behaviour fingerprints.

Refactors must keep these values; a change that alters them changes
behaviour, and has to say why. The training hashes pin bit-exact float
arithmetic, so a numpy or BLAS build that rounds differently can change
them without any change to this package.
"""

import hashlib

import pytest

from rmsalab.config import RunConfig
from rmsalab.env import RmsaEnv
from rmsalab.topology import precompute_paths
from rmsalab.trainer import run_training

BASELINE_REQUESTS = 30_000
BLOCKED = {"sp_ff": 6306, "ksp_ff": 4259}

TRAIN_EPOCHS = 20
TRAIN_SHA256 = {
    "flx": {
        "metrics.csv":
            "83fbe07b36b50b2ade5953b52e99109973a3c63247e0d5598981cfb2039a91b5",
        "checkpoint-final.npz":
            "a0e9b66a68c7f796fbd7188c64c6af97744e3fc433500e09b40b8a434d5540fe",
    },
    "ep": {
        "metrics.csv":
            "9112eddd9fc0129da44953919dba87e433f840aa5157923e26772b248263f05f",
        "checkpoint-final.npz":
            "86863788cff58de2e4e2e5f4cfb37ad9c81189378d3a4664f61f345cdedab874",
    },
}


@pytest.fixture(scope="module")
def network():
    cfg = RunConfig()
    topo = cfg.load_topology()
    return topo, precompute_paths(topo, cfg.k_paths, cfg.reach_table())


@pytest.mark.parametrize("heuristic", sorted(BLOCKED))
def test_baseline_blocked_counts(network, heuristic):
    topo, paths = network
    cfg = RunConfig(num_requests=BASELINE_REQUESTS, seed=0)
    env = RmsaEnv(topo, paths, cfg.traffic(), k_paths=cfg.k_paths,
                  j_blocks=cfg.j_blocks, seed=cfg.seed,
                  slot_capacity_gbps=cfg.slot_capacity_gbps,
                  stats_window=cfg.stats_window)
    decide = getattr(env, heuristic)
    for _ in range(cfg.num_requests):
        decide(env.arrive())
    assert env.stats.blocked == BLOCKED[heuristic]


@pytest.mark.parametrize("mode", sorted(TRAIN_SHA256))
def test_single_worker_training_artifacts(network, tmp_path, mode):
    topo, paths = network
    cfg = RunConfig(mode=mode, workers=1, epochs=TRAIN_EPOCHS, seed=0)
    result = run_training(
        cfg.training(), topo, paths, cfg.traffic(), k_paths=cfg.k_paths,
        j_blocks=cfg.j_blocks, hidden_layers=cfg.hidden_layers,
        hidden_width=cfg.hidden_width,
        slot_capacity_gbps=cfg.slot_capacity_gbps,
        shared_hidden=cfg.share_hidden, stats_window=cfg.stats_window,
        out_dir=tmp_path)
    assert result.final_epoch == TRAIN_EPOCHS
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in TRAIN_SHA256[mode]}
    assert digests == TRAIN_SHA256[mode]
