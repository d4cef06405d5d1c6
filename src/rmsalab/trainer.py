"""Lockstep actor-learner training loop.

W actors share one global parameter set and act on one behaviour
snapshot of it. Each actor owns a private environment, demand stream,
action RNG and sample buffer. Training runs in rounds on one thread: in
each round every actor, in worker order, serves one request, and an
actor whose buffer reaches its trigger trains at once, so gradients are
applied in a fixed order and a run is reproducible from its seed. One
epoch is one gradient application; the run stops as soon as the
configured epoch count is reached. Two return rules exist, and both
train on the first N buffered samples:

* episode mode (``ep``): every batch of N requests is an episode; the
  state carries the request's position within it, and the return of the
  i-th sample aggregates the remaining rewards of its own episode, so
  late samples see returns built from very few rewards.
* sliding-window mode (``flx``): training fires once the buffer holds
  2N - 1 samples; each of the first N samples gets a return over exactly
  the N rewards that follow it, and the trained samples are dropped.

An actor refreshes the snapshot when its buffer holds trigger - N samples
(at each ``ep`` episode start, or with N - 1 ``flx`` samples left): it
copies the global parameters in if they have moved since the last copy.
One snapshot thus serves all W actors exactly as W private copies would:
it changes only at a refresh, to what a private copy would get there.
Every buffer has the same length after each round, so for N >= 2 all
actors refresh in the same round, in which no gradient is applied, and
only the first copies. For N = 1 each actor refreshes just before it acts
and trains, after the previous actor's update.

The critic's value estimate enters only the advantages of a trained
batch, so a sample is buffered without one. When a buffer reaches its
trigger, every sample still without a value gets one from a single
stacked ``forward_value`` call on the behaviour snapshot, before the
batch trains. A value must come from the snapshot its sample acted with,
and this rule gives exactly that: the samples without a value at a
trigger are exactly those acted since the snapshot last changed. A copy
that finds a sample without a value raises ``ContractViolation``; the
lockstep schedule never does this.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from pathlib import Path

import numpy as np

from .env import RmsaEnv
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


@dataclass(frozen=True)
class TrainingConfig:
    """Learning-loop settings, derived and validated by
    ``RunConfig.training()``."""

    epochs: int
    gamma: float
    entropy_weight: float
    batch_size: int
    learning_rate: float
    worker_count: int
    mode: str
    seed: int
    entropy_sign: float
    grad_clip: float
    checkpoint_every: int
    metrics_window: int


@dataclass(slots=True)
class ExperienceSample:
    """One decision: state, chosen action, reward, and the value estimate,
    which stays ``None`` until the buffer reaches its trigger."""

    state: np.ndarray
    action: int
    reward: float
    value: float | None = None


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


def advantages(returns, values) -> np.ndarray:
    """Return minus value estimate, per sample."""
    g = np.asarray(returns, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if g.shape != v.shape:
        raise ValueError(f"length mismatch: {g.shape} returns vs {v.shape} values")
    return g - v


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
        self.path = Path(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._fh.write(",".join(METRICS_COLUMNS) + "\n")

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    def write_row(self, *values) -> None:
        if len(values) != len(METRICS_COLUMNS):
            raise ValueError(f"expected {len(METRICS_COLUMNS)} values")
        self._fh.write(",".join(self._fmt(v) for v in values) + "\n")

    def close(self) -> None:
        self._fh.close()


class ParamStore:
    """The global parameters and the behaviour snapshot, with its epoch."""

    def __init__(self, params: ParamSet, cfg: TrainingConfig):
        self.params = params
        self._cfg = cfg
        self.snapshot = params.clone()
        self.snapshot_epoch = self.epoch

    @property
    def epoch(self) -> int:
        """Gradient applications so far: the Adam step count."""
        return self.params.adam_step

    def sync_into(self, snapshot: ParamSet) -> None:
        snapshot.copy_weights_from(self.params)

    def apply(self, grads: np.ndarray) -> int:
        """Adam-update the global set; returns the new epoch number."""
        cfg = self._cfg
        adam_apply(self.params, grads, cfg.learning_rate, cfg.grad_clip)
        return self.epoch


@dataclass
class WorkerContext:
    """What every actor shares: the parameter store and the run's outputs."""

    cfg: TrainingConfig
    encoder: StateEncoder
    store: ParamStore
    metrics: MetricsWriter | None
    out_dir: Path | None


@dataclass
class Actor:
    """One worker's private state."""

    worker_id: int
    env: RmsaEnv
    rng: np.random.Generator
    buffer: list[ExperienceSample] = field(default_factory=list)


def _train_batch(actor: Actor, ctx: WorkerContext,
                 samples: list[ExperienceSample], returns: np.ndarray) -> None:
    cfg = ctx.cfg
    states = np.stack([smp.state for smp in samples])
    actions = np.array([smp.action for smp in samples], dtype=np.intp)
    values = np.array([smp.value for smp in samples])
    batch = Batch(states, actions, advantages(returns, values), returns)
    grads, stats = backward(ctx.store.snapshot, batch, cfg.entropy_weight,
                            cfg.entropy_sign)
    epoch = ctx.store.apply(grads)
    if (cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0
            and ctx.out_dir is not None):
        save_checkpoint(ctx.store.params,
                        ctx.out_dir / f"checkpoint-{epoch}.npz")
    if ctx.metrics is not None:
        env_stats = actor.env.stats
        window = cfg.metrics_window
        ctx.metrics.write_row(
            epoch, actor.worker_id, env_stats.total, env_stats.blocked,
            env_stats.window_reward(window),
            env_stats.blocking_probability(window),
            stats.policy_loss, stats.value_loss, stats.entropy)


def actor_step(actor: Actor, ctx: WorkerContext, trigger: int,
               returns_fn: Callable[[np.ndarray, float], np.ndarray],
               episode_pos: tuple[int, int] | None) -> None:
    """Serve one request for ``actor`` under a return rule.

    At ``trigger - N`` buffered samples the snapshot is refreshed, if the
    global parameters have moved since it was copied; once the buffer
    holds ``trigger`` samples, the samples without a value estimate get
    one in a single stacked pass, and ``returns_fn(rewards, gamma)`` gives
    the returns of the first N, which are trained on and dropped.
    """
    cfg = ctx.cfg
    n = cfg.batch_size
    buffer = actor.buffer
    store = ctx.store
    if len(buffer) == trigger - n and store.snapshot_epoch != store.epoch:
        if any(smp.value is None for smp in buffer):
            raise ContractViolation(
                f"worker {actor.worker_id}: refresh at epoch {store.epoch} "
                "finds samples not yet valued under the snapshot they "
                "acted with")
        store.sync_into(store.snapshot)
        store.snapshot_epoch = store.epoch
    env = actor.env
    req = env.arrive()
    state = ctx.encoder.encode(req, env.spectrum, env.candidate_paths(req),
                               episode_pos=episode_pos)
    probs = forward_policy(store.snapshot, state)
    action = roulette_select(probs, actor.rng)
    outcome = env.step(req, action)
    buffer.append(ExperienceSample(state, action, outcome.reward))
    if len(buffer) == trigger:
        pending = [smp for smp in buffer if smp.value is None]
        values = forward_value(store.snapshot,
                               np.stack([smp.state for smp in pending]))
        for smp, value in zip(pending, values.tolist()):
            smp.value = value
        rewards = np.array([smp.reward for smp in buffer])
        _train_batch(actor, ctx, buffer[:n], returns_fn(rewards, cfg.gamma))
        del buffer[:n]


def run_actor_learner_ep(actor: Actor, ctx: WorkerContext) -> None:
    """Episode rule: trigger N, position indicator in the state."""
    n = ctx.cfg.batch_size
    actor_step(actor, ctx, n, discounted_returns, (len(actor.buffer) + 1, n))


def run_actor_learner_flx(actor: Actor, ctx: WorkerContext) -> None:
    """Sliding-window rule: trigger 2N - 1, N-reward window per sample."""
    n = ctx.cfg.batch_size
    actor_step(actor, ctx, 2 * n - 1,
               partial(sliding_window_returns, window=n), None)


# mode -> one-request step, looked up when a run starts
_WORKER_LOOPS = {"ep": run_actor_learner_ep, "flx": run_actor_learner_flx}


@dataclass
class TrainingResult:
    final_epoch: int
    total_requests: int
    total_blocked: int
    blocking_probability: float
    trailing_blocking: float
    params: ParamSet


def pooled_trailing_blocking(stats_list, window: int) -> float:
    """Blocking over the trailing window, split evenly across workers."""
    per_worker = max(1, window // len(stats_list))
    total = 0
    blocked = 0
    for stats in stats_list:
        t, b = stats.window_counts(per_worker)
        total += t
        blocked += b
    return blocked / total if total else float("nan")


def run_training(cfg: TrainingConfig, topology: Topology, paths,
                 traffic: TrafficConfig, *, k_paths: int, j_blocks: int,
                 hidden_layers: int, hidden_width: int,
                 slot_capacity_gbps: float, shared_hidden: bool,
                 stats_window: int, out_dir: str | Path | None = None,
                 progress: bool = False) -> TrainingResult:
    """Run lockstep rounds until ``cfg.epochs`` gradient applications,
    then return pooled statistics.

    When ``out_dir`` is given, a metrics CSV and parameter checkpoints
    are written there; the run aborts (with metrics flushed) if any
    worker raises.
    """
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    encoder = StateEncoder(
        topology, k_paths=k_paths, j_blocks=j_blocks, mode=cfg.mode,
        mean_duration=traffic.mean_duration,
        slot_capacity_gbps=slot_capacity_gbps,
        bandwidth_max_gbps=traffic.bandwidth_max)
    layer_spec = LayerSpec(encoder.length, hidden_layers, hidden_width,
                           k_paths * j_blocks)
    store = ParamStore(init_params(layer_spec, cfg.seed, shared_hidden), cfg)
    actors = [
        Actor(worker_id,
              RmsaEnv(topology, paths, traffic, k_paths=k_paths,
                      j_blocks=j_blocks, seed=cfg.seed + worker_id,
                      slot_capacity_gbps=slot_capacity_gbps,
                      stats_window=stats_window),
              np.random.default_rng([cfg.seed, worker_id, 0xA5]))
        for worker_id in range(cfg.worker_count)]
    metrics = MetricsWriter(out_path / "metrics.csv") if out_path else None
    ctx = WorkerContext(cfg=cfg, encoder=encoder, store=store,
                        metrics=metrics, out_dir=out_path)

    step = _WORKER_LOOPS[cfg.mode]
    report_every = max(1, cfg.epochs // 20)
    last_report = 0
    try:
        while store.epoch < cfg.epochs:
            for actor in actors:
                try:
                    step(actor, ctx)
                except Exception as exc:
                    raise RuntimeError(
                        f"worker {actor.worker_id} failed: {exc}") from exc
                if store.epoch == cfg.epochs:
                    break
            if progress and store.epoch >= last_report + report_every:
                last_report = store.epoch
                print(f"  epoch {store.epoch}/{cfg.epochs}", flush=True)
    finally:
        if metrics is not None:
            metrics.close()

    final = store.params
    if out_path is not None:
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
