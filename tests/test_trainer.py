import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rmsalab.trainer as trainer_mod
from rmsalab.config import RunConfig
from rmsalab.errors import ContractViolation
from rmsalab.features import StateEncoder
from rmsalab.neuralnet import (LayerSpec, forward_policy, forward_value,
                               init_params, load_checkpoint)
from rmsalab.trainer import (discounted_returns, roulette_select,
                             sliding_window_returns)


def test_discounted_returns_hand_example():
    got = discounted_returns([1.0, -1.0, 1.0], 0.5)
    assert got.tolist() == [0.75, -0.5, 1.0]


def test_discounted_returns_gamma_zero_is_identity():
    rewards = [1.0, -1.0, -1.0, 1.0]
    assert discounted_returns(rewards, 0.0).tolist() == rewards


def test_discounted_returns_geometric_series():
    got = discounted_returns(np.ones(50), 0.95)
    assert got[0] == pytest.approx((1 - 0.95 ** 50) / 0.05, abs=1e-12)
    assert got[-1] == 1.0


def test_discounted_returns_empty_rejected():
    with pytest.raises(ValueError):
        discounted_returns([], 0.9)


@settings(max_examples=60, deadline=None)
@given(rewards=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60),
       gamma=st.floats(0.0, 1.0))
def test_discounted_returns_matches_double_loop_oracle(rewards, gamma):
    got = discounted_returns(rewards, gamma)
    for i in range(len(rewards)):
        expected = sum(gamma ** (j - i) * rewards[j]
                       for j in range(i, len(rewards)))
        assert abs(got[i] - expected) <= 1e-12


def test_sliding_window_returns_per_sample_windows():
    rng = np.random.default_rng(0)
    rewards = rng.choice([-1.0, 1.0], size=99)
    got = sliding_window_returns(rewards, 0.95, 50)
    assert got.shape == (50,)
    for i in range(50):
        expected = discounted_returns(rewards[i:i + 50], 0.95)[0]
        assert got[i] == pytest.approx(expected, abs=1e-12)
    # the last trained sample's window covers rewards[49:99]: all 50 of them
    assert got[49] == pytest.approx(
        float(np.dot(0.95 ** np.arange(50), rewards[49:99])), abs=1e-12)


def test_sliding_window_constant_rewards_all_equal():
    got = sliding_window_returns(np.ones(99), 0.95, 50)
    assert np.allclose(got, (1 - 0.95 ** 50) / 0.05)


def test_sliding_window_needs_enough_rewards():
    with pytest.raises(ValueError):
        sliding_window_returns(np.ones(10), 0.95, 50)


# --- roulette -------------------------------------------------------------


class FixedDraw:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_roulette_examples():
    probs = [0.2, 0.3, 0.5]
    assert roulette_select(probs, FixedDraw(0.4)) == 1
    assert roulette_select(probs, FixedDraw(0.15)) == 0
    assert roulette_select(probs, FixedDraw(0.99)) == 2


def test_roulette_top_edge_falls_back_to_last_action():
    probs = [0.5, 0.5 - 1e-9]  # cumulative tops out just below 1
    assert roulette_select(probs, FixedDraw(1.0 - 1e-12)) == 1


def test_roulette_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum"):
        roulette_select([0.5, 0.4], FixedDraw(0.1))


@pytest.mark.parametrize("probs", [[math.nan, 0.5, 0.5], [math.nan] * 5])
def test_roulette_rejects_nan(probs):
    with pytest.raises(ValueError, match="sum"):
        roulette_select(probs, FixedDraw(0.1))


def test_roulette_empirical_distribution():
    probs = np.array([0.2, 0.3, 0.5])
    rng = np.random.default_rng(314)
    # vectorized draws with the same cumulative-sum rule
    draws = rng.random(1_000_000)
    picks = np.searchsorted(np.cumsum(probs), draws, side="left")
    freq = np.bincount(picks, minlength=3) / draws.size
    assert np.abs(freq - probs).max() <= 0.005
    # the scalar implementation agrees with the vectorized rule draw-by-draw
    for value in draws[:5000]:
        assert roulette_select(probs, FixedDraw(value)) == int(
            np.searchsorted(np.cumsum(probs), value, side="left"))


def test_roulette_matches_cumsum_rule_beyond_eight_actions():
    # K = 5 paths x J = 3 blocks; numpy's sum turns pairwise from 8
    # entries, so the running sum must follow cumsum, not sum
    rng = np.random.default_rng(15)
    for _ in range(200):
        logits = rng.normal(scale=3.0, size=15)
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        cumulative = np.cumsum(probs)
        draws = list(rng.random(20)) + [0.0]
        for edge in cumulative:
            draws += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)]
        assert draws[-1] > cumulative[-1]  # above the top: the last action
        for value in draws:
            expected = min(int(np.searchsorted(cumulative, value,
                                               side="left")), 14)
            assert roulette_select(probs, FixedDraw(float(value))) == expected


# --- lockstep training loop -------------------------------------------------


def small_run(nsfnet, nsfnet_paths, out_dir, mode, epochs, batch_size=5,
              workers=1, seed=0, checkpoint_every=0):
    cfg = RunConfig(mode=mode, epochs=epochs, batch_size=batch_size,
                    workers=workers, seed=seed,
                    checkpoint_every=checkpoint_every, hidden_layers=2,
                    hidden_width=16)
    return cfg.train(nsfnet, nsfnet_paths, out_dir=out_dir)


def read_metrics(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_ep_trains_once_per_batch(nsfnet, nsfnet_paths, tmp_path):
    small_run(nsfnet, nsfnet_paths, tmp_path, "ep", epochs=4)
    rows = read_metrics(tmp_path / "metrics.csv")
    assert [int(r["epoch"]) for r in rows] == [1, 2, 3, 4]
    # one gradient application per batch_size requests, exactly
    assert [int(r["requests_total"]) for r in rows] == [5, 10, 15, 20]


def test_ep_position_indicator_sequence(nsfnet, nsfnet_paths, tmp_path,
                                        monkeypatch):
    seen = []
    original = StateEncoder.encode

    def spy(self, req, spectrum, paths):
        state = original(self, req, spectrum, paths)
        n = self.episode_length
        seen.append((req.id % n + 1, n, state[-1]))
        return state

    monkeypatch.setattr(StateEncoder, "encode", spy)
    small_run(nsfnet, nsfnet_paths, tmp_path, "ep", epochs=2, batch_size=3)
    assert [(i, n) for i, n, _ in seen] == [(1, 3), (2, 3), (3, 3)] * 2
    # position feature values: (N - i + 1) / N
    assert [value for _, _, value in seen[:3]] == [1.0, 2 / 3, 1 / 3]


def test_flx_training_cadence(nsfnet, nsfnet_paths, tmp_path):
    small_run(nsfnet, nsfnet_paths, tmp_path, "flx", epochs=4)
    rows = read_metrics(tmp_path / "metrics.csv")
    # first training at 2N-1 = 9 samples, then every N = 5
    assert [int(r["requests_total"]) for r in rows] == [9, 14, 19, 24]


@pytest.mark.parametrize("mode", ["ep", "flx"])
def test_syncs_only_at_rule_sync_points(nsfnet, nsfnet_paths, tmp_path,
                                        monkeypatch, mode):
    syncs = []
    original = trainer_mod.ParamStore.sync_into

    def spy(self, local):
        syncs.append(self.epoch)
        original(self, local)

    monkeypatch.setattr(trainer_mod.ParamStore, "sync_into", spy)
    small_run(nsfnet, nsfnet_paths, tmp_path, mode, epochs=3)
    # ep resyncs at each episode start, flx when N - 1 samples remain, and
    # neither before the first apply: the snapshot starts as a clone
    assert syncs == [1, 2]


@pytest.mark.parametrize("workers, epochs", [(2, 40), (16, 64)])
def test_flx_copies_the_snapshot_once_per_sync_round(
        nsfnet, nsfnet_paths, tmp_path, monkeypatch, workers, epochs):
    syncs = []
    original = trainer_mod.ParamStore.sync_into

    def spy(self, snapshot):
        syncs.append(self.epoch)
        original(self, snapshot)

    monkeypatch.setattr(trainer_mod.ParamStore, "sync_into", spy)
    small_run(nsfnet, nsfnet_paths, tmp_path, "flx", epochs=epochs,
              workers=workers)
    # every actor trains in one round and refreshes in the next, so each
    # round between two training rounds copies once, for all W actors
    assert len(set(syncs)) == len(syncs)
    assert syncs == list(range(workers, epochs, workers))


@pytest.mark.parametrize("mode, batch_size, rows", [
    ("flx", 5, [3] * 18 + [1]), ("ep", 5, [3] * 14 + [1]),
    ("ep", 1, [1] * 7), ("flx", 1, [1] * 7)])
def test_a_round_makes_one_stacked_policy_forward_per_group(
        nsfnet, nsfnet_paths, tmp_path, monkeypatch, mode, batch_size, rows):
    seen = []
    real_forward = trainer_mod.forward_policy

    def forward_policy(params, states):
        seen.append(len(states))
        return real_forward(params, states)

    monkeypatch.setattr(trainer_mod, "forward_policy", forward_policy)
    result = small_run(nsfnet, nsfnet_paths, tmp_path, mode, epochs=7,
                       batch_size=batch_size, workers=3)
    # for N >= 2 each round is one group of all 3 actors, and the final
    # round holds only the actor whose apply reaches epoch 7; for N = 1 an
    # actor refreshes after the previous one's apply, so each is a group
    assert seen == rows
    assert sum(rows) == result.total_requests


@pytest.mark.parametrize("batch_size", [1, 2, 5])
@pytest.mark.parametrize("mode", ["ep", "flx"])
def test_every_buffer_has_the_same_length_after_each_round(
        nsfnet, nsfnet_paths, tmp_path, monkeypatch, mode, batch_size):
    lengths = []
    valued = []
    real_round = trainer_mod._WORKER_LOOPS[mode]

    def serve(actors, store):
        real_round(actors, store)
        lengths.append({len(column) for actor in actors for column in
                        (actor.states, actor.actions, actor.rewards)})
        valued.append(all(len(actor.values) <= len(actor.rewards)
                          for actor in actors))

    monkeypatch.setitem(trainer_mod._WORKER_LOOPS, mode, serve)
    small_run(nsfnet, nsfnet_paths, tmp_path, mode, epochs=7,
              batch_size=batch_size, workers=3)
    # a round's schedule is read off the first actor's samples; only the
    # final round, after which the run stops, may serve some of the actors
    assert len(lengths) >= 3
    assert all(len(seen) == 1 for seen in lengths[:-1])
    # the values cover a prefix of every actor's samples
    assert all(valued)


@pytest.mark.parametrize("mode, workers, batch_size",
                         [("flx", 2, 5), ("ep", 3, 1), ("ep", 1, 5)])
def test_acting_and_values_use_the_last_synced_snapshot(
        nsfnet, nsfnet_paths, tmp_path, monkeypatch, mode, workers,
        batch_size):
    # the global parameters cloned at the start and at each sync, and per
    # worker the states acted on, in order, each with the clone in force
    # when it acted
    now = {}
    acted = {}
    counts = {"probs": 0, "values": 0}
    real_init = trainer_mod.ParamStore.__init__
    real_sync = trainer_mod.ParamStore.sync_into
    real_round = trainer_mod.serve_round
    real_train = trainer_mod.train_actor
    real_encode = StateEncoder.encode
    real_roulette = trainer_mod.roulette_select
    real_backward = trainer_mod.backward

    def init(self, *args):
        real_init(self, *args)
        now["params"] = self.params.clone()

    def sync_into(self, behaviour):
        real_sync(self, behaviour)
        now["params"] = self.params.clone()

    # a round encodes every actor's state before any of them acts, so each
    # step finds its worker from what it is given: the env's spectrum when
    # encoding, the actor's RNG when drawing an action
    def serve_round(actors, *args):
        now["actors"] = actors
        real_round(actors, *args)

    def worker_of(owns):
        return next(actor.worker_id for actor in now["actors"] if owns(actor))

    def train_actor(actor, *args):
        now["actor"] = actor
        real_train(actor, *args)

    def encode(self, req, spectrum, paths):
        state = real_encode(self, req, spectrum, paths)
        worker = worker_of(lambda actor: actor.env.spectrum is spectrum)
        acted.setdefault(worker, []).append((state, now["params"]))
        return state

    def roulette_select(probs, rng):
        state, params = acted[worker_of(lambda actor: actor.rng is rng)][-1]
        assert np.array_equal(probs, forward_policy(params, state))
        counts["probs"] += 1
        return real_roulette(probs, rng)

    def backward(*args):
        # the trained samples are still the first N of the columns here
        actor = now["actor"]
        values = actor.values[:batch_size]
        queue = acted[actor.worker_id]
        assert len(values) == batch_size
        for value, (state, params) in zip(values, queue):
            assert value == forward_value(params, state)
        del queue[:batch_size]
        counts["values"] += batch_size
        return real_backward(*args)

    monkeypatch.setattr(trainer_mod.ParamStore, "__init__", init)
    monkeypatch.setattr(trainer_mod.ParamStore, "sync_into", sync_into)
    monkeypatch.setattr(trainer_mod, "serve_round", serve_round)
    monkeypatch.setattr(trainer_mod, "train_actor", train_actor)
    monkeypatch.setattr(StateEncoder, "encode", encode)
    monkeypatch.setattr(trainer_mod, "roulette_select", roulette_select)
    monkeypatch.setattr(trainer_mod, "backward", backward)
    result = small_run(nsfnet, nsfnet_paths, tmp_path, mode, epochs=8,
                       batch_size=batch_size, workers=workers)
    assert counts == {"probs": result.total_requests,
                      "values": 8 * batch_size}


def test_refresh_rejects_unvalued_samples_after_an_apply(
        nsfnet, nsfnet_paths, tmp_path, monkeypatch):
    real_train = trainer_mod.train_actor

    def train_actor(actor, *args):
        real_train(actor, *args)
        actor.values.pop()  # carried unvalued across the next refresh

    monkeypatch.setattr(trainer_mod, "train_actor", train_actor)
    # the first copy, after the first apply, finds an unvalued sample
    with pytest.raises(RuntimeError, match="not yet valued") as info:
        small_run(nsfnet, nsfnet_paths, tmp_path, "flx", epochs=3)
    assert isinstance(info.value.__cause__, ContractViolation)
    assert len(read_metrics(tmp_path / "metrics.csv")) == 1


def test_entropy_column_within_bounds(nsfnet, nsfnet_paths, tmp_path):
    small_run(nsfnet, nsfnet_paths, tmp_path, "flx", epochs=6)
    for row in read_metrics(tmp_path / "metrics.csv"):
        assert 0.0 <= float(row["entropy"]) <= math.log(5) + 1e-9


@pytest.mark.parametrize("mode", ["ep", "flx"])
def test_single_worker_runs_are_reproducible(nsfnet, nsfnet_paths, tmp_path,
                                             mode):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{mode}-{name}"
        small_run(nsfnet, nsfnet_paths, out, mode, epochs=6, seed=7)
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("mode", ["ep", "flx"])
def test_multi_worker_runs_are_reproducible(nsfnet, nsfnet_paths, tmp_path,
                                            mode):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{mode}-{name}"
        small_run(nsfnet, nsfnet_paths, out, mode, epochs=40, batch_size=10,
                  workers=2, seed=7)
        outs.append(((out / "metrics.csv").read_bytes(),
                     (out / "checkpoint-final.npz").read_bytes()))
    assert outs[0] == outs[1]


# (mode, workers) -> (requests served, blocked) in a 7-epoch run: the final
# round serves only the actors up to the apply that reaches epoch 7
FINAL_ROUND_SERVED = {("ep", 1): (35, 0), ("ep", 2): (39, 0),
                      ("ep", 3): (43, 0), ("flx", 1): (39, 0),
                      ("flx", 2): (47, 0), ("flx", 3): (55, 0)}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("mode", ["ep", "flx"])
def test_final_epoch_is_exact(nsfnet, nsfnet_paths, tmp_path, mode, workers):
    # 7 epochs is not a multiple of 2 or 3 workers
    result = small_run(nsfnet, nsfnet_paths, tmp_path, mode, epochs=7,
                       workers=workers)
    assert result.final_epoch == 7
    assert ((result.total_requests, result.total_blocked)
            == FINAL_ROUND_SERVED[mode, workers])
    rows = read_metrics(tmp_path / "metrics.csv")
    assert [int(r["epoch"]) for r in rows] == list(range(1, 8))
    # gradients are applied in worker order within a round
    order = [int(r["worker"]) for r in rows]
    assert order == [i % workers for i in range(7)]
    assert sorted(p.name for p in tmp_path.glob("checkpoint-*.npz")) == [
        "checkpoint-7.npz", "checkpoint-final.npz"]


def test_run_training_writes_checkpoints(nsfnet, nsfnet_paths, tmp_path):
    result = small_run(nsfnet, nsfnet_paths, tmp_path, "flx", epochs=4,
                       workers=2, checkpoint_every=2)
    assert result.final_epoch == 4
    assert (tmp_path / "checkpoint-2.npz").exists()
    assert (tmp_path / "checkpoint-final.npz").exists()
    final = load_checkpoint(tmp_path / "checkpoint-final.npz")
    assert np.array_equal(final.policy_weights[0],
                          result.params.policy_weights[0])
    assert result.total_requests >= 4 * 5
    assert 0.0 <= result.blocking_probability <= 1.0


def test_zero_epochs_returns_untrained_params(nsfnet, nsfnet_paths, tmp_path):
    result = small_run(nsfnet, nsfnet_paths, tmp_path, "flx", epochs=0,
                       workers=2, seed=3)
    assert result.final_epoch == 0
    assert result.total_requests == 0
    reference = init_params(LayerSpec(54, 2, 16, 5), 3, input_gain=2.5)
    assert np.array_equal(result.params.policy_weights[0],
                          reference.policy_weights[0])
    probs = forward_policy(result.params, np.zeros(54))
    assert probs.max() < 0.25  # near-uniform policy before any training


def test_worker_failure_aborts_run(nsfnet, nsfnet_paths, tmp_path,
                                   monkeypatch):
    calls = {"n": 0}
    original = StateEncoder.encode

    def exploding(self, req, spectrum, paths):
        calls["n"] += 1
        if calls["n"] > 12:
            raise RuntimeError("synthetic worker fault")
        return original(self, req, spectrum, paths)

    monkeypatch.setattr(StateEncoder, "encode", exploding)
    # the 13th request is served by worker 0 in the seventh round
    with pytest.raises(RuntimeError,
                       match="worker 0 failed: synthetic worker fault"):
        small_run(nsfnet, nsfnet_paths, tmp_path, "flx", epochs=50, workers=2)
    # the fault hit before the first training at 2N - 1 = 9 samples
    assert read_metrics(tmp_path / "metrics.csv") == []


def test_run_training_surfaces_worker_failure(nsfnet, nsfnet_paths, tmp_path,
                                              monkeypatch):
    def explode(probs, rng):
        raise RuntimeError("boom in worker")

    monkeypatch.setattr(trainer_mod, "roulette_select", explode)
    with pytest.raises(RuntimeError, match="worker [01] failed"):
        small_run(nsfnet, nsfnet_paths, tmp_path, "flx", epochs=5, workers=2)
    # metrics flushed and readable even after the abort
    assert (tmp_path / "metrics.csv").read_text().startswith("epoch,")
