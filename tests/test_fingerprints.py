"""Fixed-seed behaviour fingerprints.

Refactors must keep these values; a change that alters them changes
behaviour, and has to say why. Besides the single-worker runs, the pins
cover the lockstep schedule across several actors (2 and 16 workers; 3
workers with N = 1, where each actor syncs after the previous actor's
apply in the same round) and the shared hidden trunk, whose two nets'
gradients sum into one array. The CLI pins cover the path from a config
file to the artifacts ``rmsalab`` writes: both baselines, a tiny
episode-mode training run and a greedy eval of its checkpoint, on
settings away from the defaults so that a setting passed to the wrong
place changes a hash. The training hashes pin bit-exact float
arithmetic, so a numpy or BLAS build that rounds differently can change
them without any change to this package.
"""

import hashlib

import pytest

from rmsalab.cli import main
from rmsalab.config import RunConfig

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

CHECKPOINT_EVERY = 7
RUN_SETTINGS = {
    "flx-w2": dict(mode="flx", workers=2),
    "flx-w16": dict(mode="flx", workers=16),
    "ep-w3-n1": dict(mode="ep", workers=3, batch_size=1),
    "flx-shared": dict(mode="flx", workers=1, share_hidden=True),
}
RUN_SHA256 = {
    "flx-w2": {
        "metrics.csv":
            "e14aeb31cb68f7f81c5d672d68698e928b52b07f7b29ef553a0ab421849ed006",
        "checkpoint-final.npz":
            "8d00d4e61fb639495474dbd77e76a42630820dfa3e42b3defeb9ee26bba86c65",
        "checkpoint-7.npz":
            "ea1267a6b10e06eb8fad8d1fc2126fdad8ad566c9759ff772cec60a8b98065e8",
    },
    "flx-w16": {
        "metrics.csv":
            "5481f56b804eb78c307c11b6fdc78b54897d7e51a51eedf1b5999f3779ea7523",
        "checkpoint-final.npz":
            "771264480aa4999ddc13dd8a136618c5b5e6725e561372831773cbd6f1ad143f",
        "checkpoint-7.npz":
            "91d326e11796afe9913edd0053457f7d4f5561a34b90e685d75eb2b1c7005fdd",
    },
    "ep-w3-n1": {
        "metrics.csv":
            "981f2ed002bd68dc99fba403e7c965b9d5eebf809837f7e23c68bf6967225462",
        "checkpoint-final.npz":
            "f5ccbf7fec5068ef9589e6221bb36c06ec803d687cbe4cc670cdee9f80233d6e",
        "checkpoint-7.npz":
            "f8359f15927a3743dee983be928246e2748143ba41b4356932506ec3c5171c86",
    },
    "flx-shared": {
        "metrics.csv":
            "e160039870022fb1a2d9828d39c511d28f99e9959472980c23abfe6e5a992354",
        "checkpoint-final.npz":
            "e04caa54ac414ebf898855700e4881574a17878de0818f609e6b36c3f7c6774c",
        "checkpoint-7.npz":
            "08f27c1dab64249720c938e9f650a994b1f18886c77d52b493d08ad620e4a681",
    },
}


CLI_SETTINGS = dict(mode="ep", workers=2, batch_size=5, epochs=10,
                    hidden_layers=2, hidden_width=16, share_hidden=True,
                    k_paths=3, j_blocks=2, slot_count=40, mean_duration=20.0,
                    seed=3, num_requests=3000, stats_window=1000,
                    metrics_window=100)
CLI_RUNS = {
    "baseline-spff": ("baseline", "--mode", "spff"),
    "baseline-kspff": ("baseline", "--mode", "kspff"),
    "train": ("train",),
    "eval": ("eval", "--checkpoint", "{train}/checkpoint-final.npz"),
}
CLI_SHA256 = {
    "baseline-spff": {
        "metrics.csv":
            "b77e143f163f7d5cb0566e03208bee736c3782563494782c1401b5038cc6d1ea",
        "summary.txt":
            "7e33a10d34fa04de5b1b23ba8d32588bb4a063e5774b5f7a4db04c7f74a69a1c",
    },
    "baseline-kspff": {
        "metrics.csv":
            "668f88f3a1f623d410a855359f13abbe081eb15b17256c313ea9b88078475d3a",
        "summary.txt":
            "b80ac84ab192306cbbbf3c0f005fad1b606d04c246802d91714c5bd4445e4f96",
    },
    "train": {
        "metrics.csv":
            "ce468c30e6fa563ad244a9af518fd823851fc3308e6ecbe0693a9b82dd265cbf",
        "summary.txt":
            "b6bcc2c8a187646f1075996130e871be680d3ae763f37c76f72c286a519dfe27",
        "checkpoint-final.npz":
            "3dd834a16747763a883e6bc1ef75447799c5aefbc8282e85c83896c152557c93",
    },
    "eval": {
        "metrics.csv":
            "83063cb4176ce6840a52f41636f193365245950dd18b359d1d2874f22189a213",
        "summary.txt":
            "840a4f8954bfc6b88ebcec27ef5573f7e21f191d709b97620255e1a77e5fabfb",
    },
}


def digests(out_dir, names):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names}


def train_digests(network, out_dir, cfg, names):
    """Train under ``cfg`` into ``out_dir``; sha256 of each named file."""
    result = cfg.train(*network, out_dir=out_dir)
    assert result.final_epoch == cfg.epochs
    return digests(out_dir, names)


@pytest.mark.parametrize("heuristic", sorted(BLOCKED))
def test_baseline_blocked_counts(nsfnet_network, heuristic):
    cfg = RunConfig(num_requests=BASELINE_REQUESTS, seed=0)
    env = cfg.env(*nsfnet_network)
    decide = getattr(env, heuristic)
    for _ in range(cfg.num_requests):
        decide(env.arrive())
    assert env.stats.blocked == BLOCKED[heuristic]


@pytest.mark.parametrize("mode", sorted(TRAIN_SHA256))
def test_single_worker_training_artifacts(nsfnet_network, tmp_path, mode):
    cfg = RunConfig(mode=mode, workers=1, epochs=TRAIN_EPOCHS, seed=0)
    assert train_digests(nsfnet_network, tmp_path, cfg,
                         TRAIN_SHA256[mode]) == TRAIN_SHA256[mode]


@pytest.mark.parametrize("run", sorted(RUN_SHA256))
def test_lockstep_and_shared_trunk_artifacts(nsfnet_network, tmp_path, run):
    cfg = RunConfig(epochs=TRAIN_EPOCHS, seed=0,
                    checkpoint_every=CHECKPOINT_EVERY, **RUN_SETTINGS[run])
    assert train_digests(nsfnet_network, tmp_path, cfg,
                         RUN_SHA256[run]) == RUN_SHA256[run]


def test_cli_artifacts(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    RunConfig(**CLI_SETTINGS).save(cfg_path)
    got = {}
    for run, args in CLI_RUNS.items():
        args = [arg.format(train=tmp_path / "train") for arg in args]
        out = tmp_path / run
        assert main([*args, "--config", str(cfg_path), "--out", str(out)]) == 0
        got[run] = digests(out, CLI_SHA256[run])
    assert got == CLI_SHA256
