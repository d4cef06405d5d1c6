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
            "682ffe3c6948487b5d0c8b780b184e3b7ea78a9fad65dc001929c5d44f501963",
    },
    "ep": {
        "metrics.csv":
            "9112eddd9fc0129da44953919dba87e433f840aa5157923e26772b248263f05f",
        "checkpoint-final.npz":
            "3600379d36578bba805982888bfe51dc81f9909bbaf09fa7915976e716a476b5",
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
            "8c432b8993b004f9037cf3ff8b9a713307fd095543bde63fe484b05a1bfdbd44",
        "checkpoint-7.npz":
            "dc81d1994ef7a83bad2fddaa13030f0bc060c98f2e1bb996030882d7156e1346",
    },
    "flx-w16": {
        "metrics.csv":
            "5481f56b804eb78c307c11b6fdc78b54897d7e51a51eedf1b5999f3779ea7523",
        "checkpoint-final.npz":
            "372b01836621ff35d1fd857b4491ca19e1e8072039e9e7e5c94189f702c934af",
        "checkpoint-7.npz":
            "e3b586de8dd7febc98b1a1d6950a00f9dd533c463584df074fae8df75cfddbd4",
    },
    "ep-w3-n1": {
        "metrics.csv":
            "981f2ed002bd68dc99fba403e7c965b9d5eebf809837f7e23c68bf6967225462",
        "checkpoint-final.npz":
            "f54ad0668758849948cd7f1afc58faff09615540e1d9d1262eba79891345e855",
        "checkpoint-7.npz":
            "f99d0905163e6e834793da45861e182373e13197b1bdec590edbbad639044b96",
    },
    "flx-shared": {
        "metrics.csv":
            "e160039870022fb1a2d9828d39c511d28f99e9959472980c23abfe6e5a992354",
        "checkpoint-final.npz":
            "bb6383e6ae26fd273591e8ce285e8973d9c1d305c11a66b83ff5104085f1fc57",
        "checkpoint-7.npz":
            "2c120b18987e91edcef0366fd80bd35cd8d33cd4063b7557c343344acdf288e3",
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
            "8a32c54a3b075dd6979166b472948c6801e2861d784c8ef9c6229e732e50c9dc",
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
    cfg_path.write_text(RunConfig(**CLI_SETTINGS).to_text())
    got = {}
    for run, args in CLI_RUNS.items():
        args = [arg.format(train=tmp_path / "train") for arg in args]
        out = tmp_path / run
        assert main([*args, "--config", str(cfg_path), "--out", str(out)]) == 0
        got[run] = digests(out, CLI_SHA256[run])
    assert got == CLI_SHA256
