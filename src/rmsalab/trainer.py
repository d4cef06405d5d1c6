"""Lockstep actor-learner training loop.

W actors share one object, a ``ParamStore``: the global parameter set,
the behaviour snapshot of it that they all act on, the settings, the
state encoder and the run's outputs. Each actor owns a private
environment, demand stream, action RNG and sample columns. Training runs
in rounds on one thread, and a round serves one request per actor in
groups; each group takes three steps:

1. the snapshot is refreshed if due (below), and every actor of the
   group, in worker order, draws its request and encodes it;
2. one ``forward_policy`` call on the row stack of their states gives
   every actor's action probabilities;
3. every actor, in worker order, draws its action by roulette on its own
   RNG, serves its request and appends the sample, and an actor whose
   samples reach its trigger trains at once.

Gradients are thus applied in a fixed order and a run is reproducible
from its seed. One epoch is one gradient application, and the run stops
as soon as the configured epoch count is reached. A fault in an actor's
part of a round aborts the run with an error that names the actor. Two
return rules exist, and both train on an actor's first N samples:

* episode mode (``ep``): every batch of N requests is an episode; the
  state carries the request's position within it, and the return of the
  i-th sample aggregates the remaining rewards of its own episode, so
  late samples see returns built from very few rewards.
* sliding-window mode (``flx``): training fires once an actor holds
  2N - 1 samples; each of the first N samples gets a return over exactly
  the N rewards that follow it, and the trained samples are dropped.

After every round but the final one, every actor holds the same number
of samples, L, so a round follows from L and the trigger T (N, or 2N - 1):

* when L + 1 = T every actor that takes part trains, so only the actors
  up to the apply that reaches the epoch count take part;
* at L = T - N (each ``ep`` episode start, or with N - 1 ``flx``
  samples left) past epoch 0, the global parameters are copied into the
  snapshot. Each such point follows an apply since the last copy, so one
  snapshot serves all W actors exactly as W private copies would;
* for N >= 2 no round both refreshes and trains, so a round is one group
  that refreshes before any actor acts. For N = 1 every round does both,
  and an actor must refresh after the previous actor's apply, so each
  actor is a group of its own.

Each actor thus acts on the snapshot it would act on if the actors were
served one at a time. A stacked row is exact: ``forward_policy`` runs an
``(n, d)`` stack as n separate 1 x d products, so each row has the bits
of its single-state call, and every roulette draw picks what it would
pick one at a time.

The critic's value estimate enters only the advantages of a trained
batch, so a sample is stored without one: an actor keeps its samples as
four columns, and ``values`` covers a prefix of the other three. At a
trigger, one stacked ``forward_value`` call on the behaviour snapshot
values the rest, before the batch trains. A value must come from the
snapshot its sample acted with, and this rule gives exactly that: the
samples past the valued prefix at a trigger are exactly those acted
since the snapshot last changed. A copy that finds a sample past the
prefix raises ``ContractViolation``; the lockstep schedule never does
this.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from pathlib import Path

import numpy as np

from .env import BlockingStats, RmsaEnv
from .errors import ContractViolation
from .features import StateEncoder
from .neuralnet import (Batch, LayerSpec, ParamSet, adam_apply, backward,
                        forward_policy, forward_value, init_params,
                        save_checkpoint)
from .topology import Topology
from .traffic import TrafficConfig

METRICS_COLUMNS = ("epoch", "worker", "requests_total", "requests_blocked",
                   "cum_reward_1k", "blocking_prob", "policy_loss",
                   "value_loss", "entropy")


# entropy_sign setting -> sign of the weighted entropy in the policy loss
ENTROPY_SIGNS = {"bonus": -1.0, "literal": 1.0}


@dataclass(frozen=True)
class TrainingConfig:
    """Learning-loop settings, derived and validated by
    ``RunConfig.training()``. Each field is the ``RunConfig`` setting of
    the same name, with the same value."""

    epochs: int
    gamma: float
    entropy_weight: float
    batch_size: int
    learning_rate: float
    workers: int
    mode: str
    seed: int
    entropy_sign: str
    grad_clip: float
    checkpoint_every: int
    metrics_window: int


def discounted_returns(rewards, gamma: float) -> np.ndarray:
    """Suffix-discounted sums over exactly the given reward window."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size == 0:
        raise ValueError("empty reward sequence")
    out = np.empty_like(r)
    acc = 0.0
    for i in range(r.size - 1, -1, -1):
        acc = r[i] + gamma * acc
        out[i] = acc
    return out


def sliding_window_returns(rewards, gamma: float, window: int) -> np.ndarray:
    """Discounted sum over a length-``window`` slice starting at each index.

    Yields ``len(rewards) - window + 1`` values; every return aggregates
    the same number of rewards.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < window:
        raise ValueError(
            f"need at least {window} rewards, got {r.size}")
    powers = gamma ** np.arange(window, dtype=np.float64)
    view = np.lib.stride_tricks.sliding_window_view(r, window)
    return view @ powers


def roulette_select(probs, rng: np.random.Generator) -> int:
    """Sample an action index: first index whose cumulative probability
    reaches a uniform draw. Floating-point shortfall at the top end
    falls back to the last action.

    The running sum is built over Python floats, one addition per entry
    in index order, exactly as ``np.cumsum`` adds, so it picks the index
    ``np.searchsorted(np.cumsum(p), draw)`` picks, and the sum check
    reads its last entry; on a vector of K x J entries numpy's fixed
    per-call cost would dominate.
    """
    cumulative = list(accumulate(np.asarray(probs).tolist()))
    total = cumulative[-1] if cumulative else 0.0
    if not abs(total - 1.0) <= 1e-6:  # NaN fails this test too
        raise ValueError(f"probabilities sum to {total}, not 1")
    idx = bisect_left(cumulative, rng.random())
    return min(idx, len(cumulative) - 1)


class MetricsWriter:
    """Append-only CSV stream."""

    def __init__(self, path: str | Path):
        self._fh = open(path, "w", encoding="utf-8")
        self._rows = csv.writer(self._fh, lineterminator="\n")
        self._rows.writerow(METRICS_COLUMNS)

    def write_row(self, epoch: int, worker: int, stats: BlockingStats,
                  window: int, losses=(0.0, 0.0, 0.0)) -> None:
        """One row: the counts, reward and blocking share of ``stats`` over
        its trailing ``window`` requests, then (policy, value, entropy)."""
        self._rows.writerow((epoch, worker, stats.total, stats.blocked,
                             stats.window_reward(window),
                             stats.blocking_probability(window), *losses))

    def close(self) -> None:
        self._fh.close()


class ParamStore:
    """The one object the W actors share: the run's ``TrainingConfig`` and
    state encoder, the global parameters, the behaviour snapshot of them,
    the metrics stream and the output directory."""

    def __init__(self, params: ParamSet, cfg: TrainingConfig,
                 encoder: StateEncoder, metrics: MetricsWriter,
                 out_dir: Path):
        self.params = params
        self.cfg = cfg
        self.encoder = encoder
        self.metrics = metrics
        self.out_dir = out_dir
        self.snapshot = params.clone()

    @property
    def epoch(self) -> int:
        """Gradient applications so far: the Adam step count."""
        return self.params.adam_step

    def sync_into(self, snapshot: ParamSet) -> None:
        snapshot.copy_weights_from(self.params)

    def apply(self, grads: np.ndarray) -> int:
        """Adam-update the global set; returns the new epoch number."""
        cfg = self.cfg
        adam_apply(self.params, grads, cfg.learning_rate, cfg.grad_clip)
        return self.epoch


@dataclass
class Actor:
    """One worker's private state; its samples are four columns, and
    ``values`` covers a prefix of the other three."""

    worker_id: int
    env: RmsaEnv
    rng: np.random.Generator
    states: list[np.ndarray] = field(default_factory=list)
    actions: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)


def _failed(actor: Actor, exc: Exception) -> RuntimeError:
    """The error a fault in ``actor``'s part of a round aborts the run with."""
    return RuntimeError(f"worker {actor.worker_id} failed: {exc}")


def train_actor(actor: Actor, store: ParamStore,
                returns_fn: Callable[[np.ndarray, float], np.ndarray]) -> None:
    """Train on ``actor``'s first N samples: one stacked pass on the
    snapshot values the samples past the valued prefix, and
    ``returns_fn(rewards, gamma)`` gives the returns of the first N. Their
    gradient is applied, the metrics row and any due checkpoint are
    written, and the N samples are dropped from every column."""
    cfg = store.cfg
    n = cfg.batch_size
    actor.values += forward_value(
        store.snapshot, np.array(actor.states[len(actor.values):])).tolist()
    returns = returns_fn(np.array(actor.rewards), cfg.gamma)
    batch = Batch(np.array(actor.states[:n]),
                  np.array(actor.actions[:n], dtype=np.intp),
                  returns - np.array(actor.values[:n]), returns)
    grads, stats = backward(store.snapshot, batch, cfg.entropy_weight,
                            ENTROPY_SIGNS[cfg.entropy_sign])
    epoch = store.apply(grads)
    if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
        save_checkpoint(store.params,
                        store.out_dir / f"checkpoint-{epoch}.npz")
    store.metrics.write_row(
        epoch, actor.worker_id, actor.env.stats, cfg.metrics_window,
        (stats.policy_loss, stats.value_loss, stats.entropy))
    for column in (actor.states, actor.actions, actor.rewards, actor.values):
        del column[:n]


def serve_round(actors: list[Actor], store: ParamStore, trigger: int,
                returns_fn: Callable[[np.ndarray, float], np.ndarray]) -> None:
    """Serve one lockstep round under a return rule: the actors up to the
    apply that reaches the configured epoch count take part, in groups that
    each refresh the snapshot if due and make one stacked policy forward;
    an actor whose samples reach ``trigger`` trains (see the module
    docstring)."""
    n = store.cfg.batch_size
    length = len(actors[0].rewards)
    if length + 1 == trigger:
        actors = actors[:store.cfg.epochs - store.epoch]
    groups = [[actor] for actor in actors] if n == 1 else [actors]
    for group in groups:
        if length == trigger - n and store.epoch > 0:
            for actor in group:
                if len(actor.values) < len(actor.rewards):
                    fault = ContractViolation(
                        f"worker {actor.worker_id}: refresh at epoch "
                        f"{store.epoch} finds samples not yet valued under "
                        "the snapshot they acted with")
                    raise _failed(actor, fault) from fault
            store.sync_into(store.snapshot)
        arrivals = []
        for actor in group:
            try:
                req = actor.env.arrive()
                arrivals.append((req, store.encoder.encode(
                    req, actor.env.spectrum, actor.env.candidate_paths(req))))
            except Exception as exc:
                raise _failed(actor, exc) from exc
        probs = forward_policy(store.snapshot,
                               np.array([state for _, state in arrivals]))
        for actor, (req, state), row in zip(group, arrivals, probs):
            try:
                action = roulette_select(row, actor.rng)
                reward = actor.env.step(req, action).reward
                actor.states.append(state)
                actor.actions.append(action)
                actor.rewards.append(reward)
                if len(actor.rewards) == trigger:
                    train_actor(actor, store, returns_fn)
            except Exception as exc:
                raise _failed(actor, exc) from exc


def run_actor_learner_ep(actors: list[Actor], store: ParamStore) -> None:
    """One round under the episode rule: trigger N, position indicator in
    the state."""
    serve_round(actors, store, store.cfg.batch_size, discounted_returns)


def run_actor_learner_flx(actors: list[Actor], store: ParamStore) -> None:
    """One round under the sliding-window rule: trigger 2N - 1, N-reward
    window per sample."""
    n = store.cfg.batch_size
    serve_round(actors, store, 2 * n - 1,
                partial(sliding_window_returns, window=n))


# mode -> one lockstep round, looked up when a run starts
_WORKER_LOOPS = {"ep": run_actor_learner_ep, "flx": run_actor_learner_flx}


@dataclass
class TrainingResult:
    final_epoch: int
    total_requests: int
    total_blocked: int
    blocking_probability: float
    trailing_blocking: tuple[int, float]
    params: ParamSet


def pooled_trailing_blocking(stats_list, window: int) -> tuple[int, float]:
    """(requests pooled, blocked share of them) over the trailing window,
    split evenly across workers: each gives its last ``window // W``
    requests, or all it served if fewer."""
    per_worker = max(1, window // len(stats_list))
    total = 0
    blocked = 0
    for stats in stats_list:
        t, b = stats.window_counts(per_worker)
        total += t
        blocked += b
    return total, blocked / total if total else float("nan")


def run_training(cfg: TrainingConfig, topology: Topology, paths,
                 traffic: TrafficConfig, *, k_paths: int, j_blocks: int,
                 hidden_layers: int, hidden_width: int,
                 slot_capacity_gbps: float, shared_hidden: bool,
                 stats_window: int, out_dir: str | Path,
                 progress: bool = False) -> TrainingResult:
    """Run lockstep rounds until ``cfg.epochs`` gradient applications,
    then return pooled statistics.

    A metrics CSV and parameter checkpoints are written to ``out_dir``;
    the run aborts (with metrics flushed) if any worker raises.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    encoder = StateEncoder(
        topology, k_paths=k_paths, j_blocks=j_blocks, mode=cfg.mode,
        mean_duration=traffic.mean_duration,
        slot_capacity_gbps=slot_capacity_gbps,
        bandwidth_max_gbps=traffic.bandwidth_max,
        episode_length=cfg.batch_size)
    layer_spec = LayerSpec(encoder.length, hidden_layers, hidden_width,
                           k_paths * j_blocks)
    actors = [
        Actor(worker_id,
              RmsaEnv(topology, paths, traffic, k_paths=k_paths,
                      j_blocks=j_blocks, seed=cfg.seed + worker_id,
                      slot_capacity_gbps=slot_capacity_gbps,
                      stats_window=stats_window),
              np.random.default_rng([cfg.seed, worker_id, 0xA5]))
        for worker_id in range(cfg.workers)]
    store = ParamStore(init_params(layer_spec, cfg.seed, shared_hidden),
                       cfg, encoder, MetricsWriter(out_path / "metrics.csv"),
                       out_path)

    serve = _WORKER_LOOPS[cfg.mode]
    report_every = max(1, cfg.epochs // 20)
    last_report = 0
    try:
        while store.epoch < cfg.epochs:
            serve(actors, store)
            if progress and store.epoch >= last_report + report_every:
                last_report = store.epoch
                print(f"  epoch {store.epoch}/{cfg.epochs}", flush=True)
    finally:
        store.metrics.close()

    final = store.params
    save_checkpoint(final, out_path / f"checkpoint-{store.epoch}.npz")
    save_checkpoint(final, out_path / "checkpoint-final.npz")

    live_stats = [actor.env.stats for actor in actors]
    total = sum(s.total for s in live_stats)
    blocked = sum(s.blocked for s in live_stats)
    return TrainingResult(
        final_epoch=store.epoch,
        total_requests=total,
        total_blocked=blocked,
        blocking_probability=blocked / total if total else float("nan"),
        trailing_blocking=pooled_trailing_blocking(live_stats, stats_window),
        params=final,
    )
