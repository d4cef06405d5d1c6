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
place changes a hash.

The training hashes pin bit-exact float arithmetic, so a numpy or BLAS
build that rounds differently can change them without any change to
this package. ``conftest.py`` selects three settings before numpy loads,
and the hashes are recorded under them:

* OpenBLAS's Haswell kernel (``OPENBLAS_CORETYPE=Haswell``). OpenBLAS
  picks its kernel from the CPU at run time, and the SkylakeX kernel an
  AVX-512 CPU gets rounds differently.
* One OpenBLAS thread (``OPENBLAS_NUM_THREADS=1``). The (50, 128) @
  (128, 128) batch product in ``backward`` rounds differently under one
  thread than under two or more, while row stacks of up to 16 rows do
  not, so one thread is also what a one-CPU machine computes and what
  ``perfbench`` runs.
* numpy's AVX2 dispatch tier (``NPY_DISABLE_CPU_FEATURES`` names the
  AVX-512 tiers this numpy dispatches and this CPU supports). numpy picks
  its ``exp``, ``expm1`` and ``log`` loops from the CPU when it loads,
  and its AVX-512 loops round differently.

The pins are x86-64 only: the Haswell kernel and the AVX2 tier exist
only there. The baseline counts and the CLI baseline and eval hashes hold
under either kernel and any thread count, and under either dispatch tier
so do the served and blocked counts of every training pin.
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
            "b7bb132602acf5d7f459c6a5fc6994fd2ffa94aa5b293a3951c7aa473d6e5c79",
        "checkpoint-final.npz":
            "644baacd8824817a22ff291ae99443d3f5457e20d1f0794256e06f331d1eda6b",
    },
    "ep": {
        "metrics.csv":
            "edd6c420090dd127a145aa849f608dd0f5209ef1c08e30d5db679df2e7daa6f6",
        "checkpoint-final.npz":
            "b5210c5811cde6474ca1e0b5022480d7df7baf584bbc7bbc2646e001bf27f193",
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
            "b2e9d86e73902d9554a019f9b10734cdf58d32655d99ae0230cb95c8aa791b8f",
        "checkpoint-final.npz":
            "4510b89eaf4b5379e058b7561629f6bd0a406aa73c1d48e7c15a4269673879b1",
        "checkpoint-7.npz":
            "5965b070d73b83d056f7c6eeeaa2871419fafd3291ed011d776d7208c648b0fc",
    },
    "flx-w16": {
        "metrics.csv":
            "9e332c609de2cfe783ca178bbb7ed3a20b4587db11efcf0749f2860c29ed2dfd",
        "checkpoint-final.npz":
            "da01f8eb2fa377bfd74c866d50d9d5cb496be49192e92cea4ee3f888c050cae0",
        "checkpoint-7.npz":
            "078b67aa3ed2cf166a2210f42478e6a2affdf53e93323081bc5fc012ce6abcaf",
    },
    "ep-w3-n1": {
        "metrics.csv":
            "1b9f2a24c71447e0972e599b54be1959b99be031595ac507505ecb323907d81f",
        "checkpoint-final.npz":
            "e108a3c8ec6668502491d0b742e3eac12e7dc5c3a3fd19351a4434b643cb3277",
        "checkpoint-7.npz":
            "f89272b298cc628cbd3fd6ec13923335ab87e45607a8263fe0bcff497026b625",
    },
    "flx-shared": {
        "metrics.csv":
            "c4524d4ed99e66cda443b819c3be4ee4be9a4d90a8da6d08f6ff2dbe486d76c7",
        "checkpoint-final.npz":
            "948ef495cc01fb2ddb5165edb8a12d268ce968724675a8c07ce287107c34911f",
        "checkpoint-7.npz":
            "38fcfa9966d665d4474e2545ace35382001614f8d0387cbccc8faa0d83bbe3a6",
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
            "97f9ef9efdafba4d6cbfb46d01671a9c836b7b04a512950a09fa623d4fb6e869",
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
