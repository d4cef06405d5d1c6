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
them without any change to this package. They are recorded under
OpenBLAS's Haswell kernel at one thread, which ``conftest.py`` selects
(``OPENBLAS_CORETYPE=Haswell``, ``OPENBLAS_NUM_THREADS=1``) before numpy
loads. OpenBLAS picks its kernel from the CPU at run time, and the
SkylakeX kernel an AVX-512 CPU gets rounds differently. It also splits a
large product across its threads: the (50, 128) @ (128, 128) batch
product in ``backward`` rounds differently under one thread than under
two or more, while row stacks of up to 16 rows do not, so one thread is
also what a one-CPU machine computes and what ``perfbench`` runs. The
baseline counts and the CLI baseline and eval hashes hold under either
kernel and any thread count.
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
            "737c3d35a2db2c8f545f7ec0a0c40b621149d6731f0ba92d9a2ff0511aaeb8c9",
        "checkpoint-final.npz":
            "7ec616776fb13b2841362205a97344b8ccf3d73d68608417ce6698364478aea5",
    },
    "ep": {
        "metrics.csv":
            "8ffdc3fe7c1a52a9f58acadfef0a9bfc8d7199a1a4dc274b023e6850b59a1714",
        "checkpoint-final.npz":
            "b2c504bcd807201fd8c7ecc4cd2499adb2058663306b99d7e219443ab0ae6a24",
    },
}

# (requests served, blocked) of each training run pinned here: a final round
# that serves an actor after the last apply changes these counts, not a hash
TRAIN_SERVED = {"flx": (1049, 508), "ep": (1000, 491)}

CHECKPOINT_EVERY = 7
RUN_SETTINGS = {
    "flx-w2": dict(mode="flx", workers=2),
    "flx-w16": dict(mode="flx", workers=16),
    "ep-w3-n1": dict(mode="ep", workers=3, batch_size=1),
    "flx-shared": dict(mode="flx", workers=1, share_hidden=True),
}
RUN_SERVED = {"flx-w2": (1098, 472), "flx-w16": (2372, 719),
              "ep-w3-n1": (20, 0), "flx-shared": (1049, 508)}
RUN_SHA256 = {
    "flx-w2": {
        "metrics.csv":
            "3ba93a492c044c1fba23539c6aca96c0cc76ba05238b055d1203bb23b373ccda",
        "checkpoint-final.npz":
            "c810621675c105bd254fc84094e85c39bccb098f506d75bab1f882a447c41ecb",
        "checkpoint-7.npz":
            "be0e342f7a58684adec1aae05541d82c5d70520377879ae164cc14f7aea3efdb",
    },
    "flx-w16": {
        "metrics.csv":
            "5481f56b804eb78c307c11b6fdc78b54897d7e51a51eedf1b5999f3779ea7523",
        "checkpoint-final.npz":
            "c73527621c931fbdc281a561959eba800988d13a9a7279536a1470d4d08a50ed",
        "checkpoint-7.npz":
            "5664d97b187aedded5a7df01244b7fff44d8bc0b9d832c882aecf4dc69ba5710",
    },
    "ep-w3-n1": {
        "metrics.csv":
            "a97c2469efcae510f33cef3ef5cf38dd212e7d2f41387f06d8f2158ad95e6750",
        "checkpoint-final.npz":
            "376693d76b66b20d2207174140438193a86d76cc354ae84a107fc7f103c63e58",
        "checkpoint-7.npz":
            "b33aaf4e03bc9e7e59dc0ce3be6a05cd4fc8fbfdb3333cc0b8d006a7ebf54b70",
    },
    "flx-shared": {
        "metrics.csv":
            "ea193a9fea0e5dc02791e78654647b0bda74251ca20fcb903e22b7f075b7aa5e",
        "checkpoint-final.npz":
            "b9af6cf0ca6ed5b837a0939b5faea5d714bf6c95f5033970d670685c310c5e08",
        "checkpoint-7.npz":
            "96cfd03421adade97153c911a3922e13f68037121cdb6a247f45b21b3f3c4c1e",
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
            "409e8aac19ed6dfa9186c3bda880186495ca6dd24bfc9a02374d1ec7383cc381",
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


def train_digests(network, out_dir, cfg, names, served):
    """Train under ``cfg`` into ``out_dir``, check that it served and
    blocked the ``served`` request counts; sha256 of each named file."""
    result = cfg.train(*network, out_dir=out_dir)
    assert result.final_epoch == cfg.epochs
    assert (result.total_requests, result.total_blocked) == served
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
    assert train_digests(nsfnet_network, tmp_path, cfg, TRAIN_SHA256[mode],
                         TRAIN_SERVED[mode]) == TRAIN_SHA256[mode]


@pytest.mark.parametrize("run", sorted(RUN_SHA256))
def test_lockstep_and_shared_trunk_artifacts(nsfnet_network, tmp_path, run):
    cfg = RunConfig(epochs=TRAIN_EPOCHS, seed=0,
                    checkpoint_every=CHECKPOINT_EVERY, **RUN_SETTINGS[run])
    assert train_digests(nsfnet_network, tmp_path, cfg, RUN_SHA256[run],
                         RUN_SERVED[run]) == RUN_SHA256[run]


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
