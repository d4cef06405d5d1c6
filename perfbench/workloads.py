"""The benchmark's three workloads, their set-up and their output checks.

Every workload runs on the ``RunConfig`` defaults (NSFNET, 100 slots,
K=5, J=1, 150 Erlang, 5x128 ELU networks, batch 50) through the same
public calls that ``rmsalab baseline``, ``eval`` and ``train`` make. The
load is closed-loop: the next request is drawn when the previous one is
decided, and simulated arrival time never paces the host.

* ``kspff``: ``RmsaEnv.arrive`` then ``ksp_ff``, one pass is a fixed
  request stream. No learning code runs.
* ``eval-greedy``: ``StateEncoder.encode``, ``forward_policy``, argmax and
  ``step`` per request, with the parameters ``run_training`` starts from
  at seed 0.
* ``train-flx``: ``run_training`` in ``flx`` mode with two actor threads,
  writing ``metrics.csv`` and checkpoints, then a greedy probe of the
  trained policy for the decision latency.

Functions of the program are looked up when a pass starts, never at
import, so that a traced pass calls the wrappers the tracer installed.
"""

from __future__ import annotations

import csv
import heapq
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rmsalab.neuralnet as neuralnet
import rmsalab.topology as topology
import rmsalab.trainer as trainer
from rmsalab import RmsaEnv, RunConfig, StateEncoder

KSPFF_REQUESTS = 30_000
GREEDY_REQUESTS = 20_000
PROBE_REQUESTS = 10_000
TRAIN_EPOCHS = 400
TRAIN_WORKERS = 2
SETUP_REPEATS = 15

DEFAULT_SEED = 0
# seed of the greedy policy's parameters, whatever the workload seed
PARAMS_SEED = DEFAULT_SEED

# Blocked requests of one pass, pinned at the default seed and at one
# seed held out from tuning. A change that alters behaviour shows here.
HELD_OUT_SEED = 7919
PINNED_BLOCKED = {
    "kspff": {DEFAULT_SEED: 4259, HELD_OUT_SEED: 4060},
    "eval-greedy": {DEFAULT_SEED: 9090, HELD_OUT_SEED: 8944},
}


def run_config(workload: str, seed: int) -> RunConfig:
    """The workload's run configuration: defaults plus what it drives."""
    if workload == "kspff":
        cfg = RunConfig(mode="kspff", num_requests=KSPFF_REQUESTS, seed=seed)
    elif workload == "eval-greedy":
        cfg = RunConfig(mode="flx", num_requests=GREEDY_REQUESTS, seed=seed)
    elif workload == "train-flx":
        cfg = RunConfig(mode="flx", workers=TRAIN_WORKERS,
                        epochs=TRAIN_EPOCHS, num_requests=PROBE_REQUESTS,
                        seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cfg.validate()
    return cfg


@dataclass
class Fixture:
    """What one pass needs, built the way the CLI builds it."""

    cfg: RunConfig
    topology: object
    paths: dict
    encoder: StateEncoder | None = None
    params: object = None

    def new_env(self) -> RmsaEnv:
        cfg = self.cfg
        return RmsaEnv(self.topology, self.paths, cfg.traffic(),
                       k_paths=cfg.k_paths, j_blocks=cfg.j_blocks,
                       seed=cfg.seed,
                       slot_capacity_gbps=cfg.slot_capacity_gbps,
                       stats_window=cfg.stats_window)


def set_up(cfg: RunConfig, with_agent: bool) -> Fixture:
    """Topology load, ``precompute_paths``, an env and, for the learning
    workloads, the encoder and the parameters ``run_training`` starts from."""
    topo = cfg.load_topology()
    paths = topology.precompute_paths(topo, cfg.k_paths, cfg.reach_table())
    fx = Fixture(cfg, topo, paths)
    # set-up pays for one env; every pass then builds a fresh one
    fx.new_env()
    if with_agent:
        fx.encoder = StateEncoder(
            topo, k_paths=cfg.k_paths, j_blocks=cfg.j_blocks, mode=cfg.mode,
            mean_duration=cfg.mean_duration,
            slot_capacity_gbps=cfg.slot_capacity_gbps,
            bandwidth_max_gbps=cfg.bandwidth_max)
        spec = neuralnet.LayerSpec(fx.encoder.length, cfg.hidden_layers,
                                   cfg.hidden_width,
                                   cfg.k_paths * cfg.j_blocks)
        # the call run_training makes, with its input_gain default, at a
        # fixed seed: the untrained greedy policy is arbitrary, and with
        # one per workload seed the blocked share spread across seeds by
        # 44% of its median
        fx.params = neuralnet.init_params(spec, PARAMS_SEED, cfg.share_hidden,
                                          input_gain=2.5)
    return fx


def timed_set_ups(cfg: RunConfig,
                  with_agent: bool) -> tuple[Fixture, list[float]]:
    """Set up ``SETUP_REPEATS`` times; the last fixture and every duration."""
    durations = []
    fx = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fx = set_up(cfg, with_agent)
        durations.append(time.perf_counter() - start)
    return fx, durations


# ---- reference check -----------------------------------------------------

class ShadowGrid:
    """Reference slot grid rebuilt from the decisions alone.

    Each outcome is compared with a plain first-fit scan of this grid and
    then applied to it, so a wrong placement or a wrong block anywhere in
    a pass is caught, whatever the seed.
    """

    def __init__(self, link_count: int, slot_count: int,
                 slot_capacity_gbps: float):
        self.occupied = np.zeros((link_count, slot_count), dtype=bool)
        self.slot_capacity_gbps = slot_capacity_gbps
        self._departures: list[tuple] = []
        self._seq = 0
        self.checked = 0
        self.error: str | None = None

    def release_until(self, now: float) -> None:
        while self._departures and self._departures[0][0] <= now:
            _, _, links, start, n = heapq.heappop(self._departures)
            self.occupied[links, start:start + n] = False

    def first_fit(self, path, n: int) -> int | None:
        free = (~self.occupied[list(path.link_ids)].any(axis=0)).tolist()
        run = 0
        for slot, ok in enumerate(free):
            run = run + 1 if ok else 0
            if run == n:
                return slot - n + 1
        return None

    def slots(self, req, path) -> int:
        return topology.required_slots(req.bandwidth_gbps, path.modulation,
                                       self.slot_capacity_gbps)

    def check(self, req, paths, outcome, chosen: int | None) -> None:
        """Compare one outcome with the reference and apply it.

        ``chosen`` is the path the agent picked, or None for KSP-FF,
        which takes the first path with room.
        """
        if self.error is not None:
            return
        self.release_until(req.arrival_time)
        candidates = range(len(paths)) if chosen is None else [chosen]
        expected = (False, None, None)
        for index in candidates:
            if index >= len(paths):
                break
            n = self.slots(req, paths[index])
            start = self.first_fit(paths[index], n)
            if start is not None:
                expected = (True, index, start)
                break
        got = ((True, outcome.path_index, outcome.start_slot)
               if outcome.accepted else (False, None, None))
        if got != expected:
            self.error = (f"request {req.id}: outcome {got} but reference "
                          f"first-fit gives {expected}")
            return
        self.checked += 1
        if outcome.accepted:
            path = paths[outcome.path_index]
            links = list(path.link_ids)
            n = outcome.n_slots
            if n != self.slots(req, path):
                self.error = f"request {req.id}: {n} slots allocated"
                return
            self.occupied[links, outcome.start_slot:outcome.start_slot + n] = True
            self._seq += 1
            heapq.heappush(self._departures,
                           (req.arrival_time + req.duration, self._seq,
                            links, outcome.start_slot, n))

    def occupied_slot_count(self) -> int:
        return int(self.occupied.sum())


def check_pin(workload: str, seed: int, blocked: int) -> str | None:
    """An error message when a pinned blocked count differs, else None."""
    expected = PINNED_BLOCKED.get(workload, {}).get(seed)
    if expected is None or expected == blocked:
        return None
    return (f"{workload} seed {seed}: {blocked} requests blocked, "
            f"pinned {expected}")


# ---- request passes ------------------------------------------------------

def greedy_decider(env: RmsaEnv, encoder: StateEncoder, params):
    encode = encoder.encode
    forward_policy = neuralnet.forward_policy
    argmax = np.argmax
    step = env.step
    spectrum = env.spectrum
    candidate_paths = env.candidate_paths

    def decide(req):
        state = encode(req, spectrum, candidate_paths(req))
        return step(req, int(argmax(forward_policy(params, state))))
    return decide


@dataclass
class PassResult:
    """One pass's counts and timing; latencies are kept only as the
    percentiles, so memory does not grow with the number of passes."""

    requests: int
    blocked: int
    seconds: float
    p50_us: float
    p90_us: float
    p99_us: float

    @property
    def req_per_s(self) -> float:
        return self.requests / self.seconds


def run_pass(fx: Fixture, requests: int, greedy: bool, params=None,
             check: bool = False) -> tuple[PassResult, list[str]]:
    """Drive ``requests`` arrivals through KSP-FF or the greedy policy
    (``params``, by default the fixture's), timing each decision.

    With ``check`` every outcome is compared with ``ShadowGrid`` after
    its decision is timed; the errors found are returned.
    """
    env = fx.new_env()
    if greedy:
        decide = greedy_decider(env, fx.encoder,
                                fx.params if params is None else params)
    else:
        decide = env.ksp_ff
    shadow = None
    if check:
        shadow = ShadowGrid(fx.topology.link_count, fx.topology.slot_count,
                            fx.cfg.slot_capacity_gbps)
    paths = fx.paths
    arrive = env.arrive
    clock = time.perf_counter_ns
    latency = [0] * requests
    start = time.perf_counter()
    for i in range(requests):
        req = arrive()
        t0 = clock()
        outcome = decide(req)
        latency[i] = clock() - t0
        if shadow is not None:
            shadow.check(req, paths[(req.src, req.dst)], outcome,
                         outcome.path_index if greedy else None)
    seconds = time.perf_counter() - start
    p50, p90, p99 = np.percentile(latency, [50, 90, 99]) / 1e3
    result = PassResult(env.stats.total, env.stats.blocked, seconds,
                        float(p50), float(p90), float(p99))

    errors = []
    if result.requests != requests or not 0 <= result.blocked <= requests:
        errors.append(f"pass counted {result.requests} requests and "
                      f"{result.blocked} blocked for {requests} arrivals")
    if shadow is not None and shadow.error is not None:
        errors.append(shadow.error)
    elif (shadow is not None and env.spectrum.occupied_slot_count()
          != shadow.occupied_slot_count()):
        errors.append(
            f"{env.spectrum.occupied_slot_count()} slots occupied after the "
            f"pass, reference has {shadow.occupied_slot_count()}")
    return result, errors


# ---- training --------------------------------------------------------------

@dataclass
class TrainResult:
    epochs: int
    requests: int
    blocking: float
    seconds: float
    params: object = field(repr=False)

    @property
    def epochs_per_s(self) -> float:
        return self.epochs / self.seconds

    @property
    def req_per_s(self) -> float:
        return self.requests / self.seconds


def train(fx: Fixture, out_dir: Path) -> tuple[TrainResult, list[str]]:
    """One ``run_training`` call as ``rmsalab train`` makes it, then the
    checks on what it returned and wrote."""
    cfg = fx.cfg
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    result = trainer.run_training(
        cfg.training(), fx.topology, fx.paths, cfg.traffic(),
        k_paths=cfg.k_paths, j_blocks=cfg.j_blocks,
        hidden_layers=cfg.hidden_layers, hidden_width=cfg.hidden_width,
        slot_capacity_gbps=cfg.slot_capacity_gbps,
        shared_hidden=cfg.share_hidden, stats_window=cfg.stats_window,
        out_dir=out_dir)
    seconds = time.perf_counter() - start
    out = TrainResult(result.final_epoch, result.total_requests,
                      result.blocking_probability, seconds, result.params)
    return out, check_training(cfg, result, out_dir)


LOSS_COLUMNS = ("policy_loss", "value_loss", "entropy")


def check_training(cfg: RunConfig, result, out_dir: Path) -> list[str]:
    errors = []
    final = result.final_epoch
    if not cfg.epochs <= final <= cfg.epochs + cfg.workers - 1:
        errors.append(f"final epoch {final} outside "
                      f"[{cfg.epochs}, {cfg.epochs + cfg.workers - 1}]")
    if not 0 <= result.total_blocked <= result.total_requests:
        errors.append(f"{result.total_blocked} blocked of "
                      f"{result.total_requests} requests")
    if result.total_requests < final * cfg.batch_size:
        errors.append(f"{result.total_requests} requests cannot fill "
                      f"{final} batches of {cfg.batch_size}")
    with open(out_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    epochs = sorted(int(row["epoch"]) for row in rows)
    if epochs != list(range(1, final + 1)):
        errors.append(f"metrics.csv holds {len(rows)} epoch rows, "
                      f"not epochs 1..{final}")
    bad = [row["epoch"] for row in rows
           if not all(math.isfinite(float(row[c])) for c in LOSS_COLUMNS)]
    if bad:
        errors.append(f"non-finite loss in metrics.csv at epochs {bad[:5]}")
    saved = neuralnet.load_checkpoint(out_dir / "checkpoint-final.npz")
    live = result.params
    arrays = zip(saved.policy_weights + saved.value_weights,
                 live.policy_weights + live.value_weights)
    if not all(np.array_equal(a, b) for a, b in arrays):
        errors.append("checkpoint-final.npz differs from the returned params")
    if not (out_dir / f"checkpoint-{final}.npz").is_file():
        errors.append(f"checkpoint-{final}.npz missing")
    return errors
