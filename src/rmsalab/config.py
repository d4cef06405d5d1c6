"""Flat key-value run configuration.

One file drives every experiment. ``RunConfig`` is the only place where a
run setting has a default or is validated: every setting defaults to the
reference experiment's value, so an empty file is a valid NSFNET
training config, and the traffic, training, reach-table and topology
pieces the rest of the package takes are derived from a validated
``RunConfig``. It is also the one place that maps settings to the run's
objects: ``network()`` builds the topology and candidate-path table,
``env()`` the provisioning environment, ``encoder()`` the state encoder
and ``train()`` the training call, so every experiment built from one
config sees the same keywords. Lines are ``key = value``; ``#`` starts a
comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .env import RmsaEnv
from .errors import ConfigError, TopologyError
from .features import StateEncoder
from .topology import Topology, load_topology, precompute_paths
from .traffic import TrafficConfig
from .trainer import (ENTROPY_SIGNS, TrainingConfig, TrainingResult,
                      run_training)

LEARNING_MODES = ("ep", "flx")
BASELINE_MODES = ("spff", "kspff")
MODES = LEARNING_MODES + BASELINE_MODES


@dataclass
class RunConfig:
    topology: str = "nsfnet"
    slot_count: int = 100
    k_paths: int = 5
    j_blocks: int = 1
    arrival_rate: float = 10.0
    mean_duration: float = 15.0
    bandwidth_min: float = 25.0
    bandwidth_max: float = 100.0
    hidden_layers: int = 5
    hidden_width: int = 128
    gamma: float = 0.95
    entropy_weight: float = 0.01
    batch_size: int = 50
    learning_rate: float = 1e-5
    workers: int = 16
    mode: str = "flx"
    epochs: int = 1000
    seed: int = 0
    num_requests: int = 100_000
    reach_16qam: float = 625.0
    reach_8qam: float = 1250.0
    reach_qpsk: float = 2500.0
    slot_capacity_gbps: float = 12.5
    entropy_sign: str = "bonus"
    grad_clip: float = 0.0
    share_hidden: bool = False
    checkpoint_every: int = 0
    stats_window: int = 10_000
    metrics_window: int = 1000
    checkpoint: str = ""

    def validate(self) -> None:
        def require(ok: bool, field_name: str, message: str) -> None:
            if not ok:
                raise ConfigError(f"{field_name}: {message}")

        for f in fields(self):
            if f.type in ("float", float):
                require(math.isfinite(getattr(self, f.name)), f.name,
                        "must be finite")
        require(self.slot_count >= 1, "slot_count", "must be >= 1")
        require(self.k_paths >= 1, "k_paths", "must be >= 1")
        require(self.j_blocks >= 1, "j_blocks", "must be >= 1")
        require(self.arrival_rate > 0, "arrival_rate", "must be > 0")
        require(self.mean_duration > 0, "mean_duration", "must be > 0")
        require(0 < self.bandwidth_min <= self.bandwidth_max,
                "bandwidth_min", "need 0 < bandwidth_min <= bandwidth_max")
        require(self.hidden_layers >= 1, "hidden_layers", "must be >= 1")
        require(self.hidden_width >= 1, "hidden_width", "must be >= 1")
        require(0.0 <= self.gamma <= 1.0, "gamma", "must be in [0, 1]")
        require(self.entropy_weight >= 0, "entropy_weight", "must be >= 0")
        require(self.batch_size >= 1, "batch_size", "must be >= 1")
        require(self.learning_rate > 0, "learning_rate", "must be > 0")
        require(self.workers >= 1, "workers", "must be >= 1")
        require(self.mode in MODES, "mode", f"must be one of {'|'.join(MODES)}")
        require(self.epochs >= 0, "epochs", "must be >= 0")
        require(self.seed >= 0, "seed", "must be >= 0")
        require(self.num_requests >= 1, "num_requests", "must be >= 1")
        require(0 < self.reach_16qam <= self.reach_8qam <= self.reach_qpsk,
                "reach_16qam", "reach thresholds must be positive and "
                "non-decreasing toward lower orders")
        require(self.slot_capacity_gbps > 0, "slot_capacity_gbps",
                "must be > 0")
        require(self.entropy_sign in ENTROPY_SIGNS, "entropy_sign",
                f"must be one of {'|'.join(ENTROPY_SIGNS)}")
        require(self.grad_clip >= 0, "grad_clip", "must be >= 0")
        require(self.checkpoint_every >= 0, "checkpoint_every", "must be >= 0")
        require(self.metrics_window >= 1, "metrics_window", "must be >= 1")
        require(self.stats_window >= self.metrics_window, "stats_window",
                "must be >= metrics_window")

    # ---- derived pieces ------------------------------------------------

    def reach_table(self) -> tuple[tuple[int, float], ...]:
        """(modulation order, reach in km), highest order first; order 1
        (BPSK) has unlimited reach."""
        return ((4, self.reach_16qam), (3, self.reach_8qam),
                (2, self.reach_qpsk), (1, math.inf))

    def _view(self, cls):
        """A ``cls`` holding this validated config's same-named fields."""
        self.validate()
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def traffic(self) -> TrafficConfig:
        return self._view(TrafficConfig)

    def training(self) -> TrainingConfig:
        if self.mode not in LEARNING_MODES:
            raise ConfigError(
                f"mode: {self.mode!r} is not a learning mode "
                f"({'|'.join(LEARNING_MODES)})")
        return self._view(TrainingConfig)

    def load_topology(self) -> Topology:
        """The configured topology; one that is missing or malformed is a
        configuration problem."""
        try:
            return load_topology(self.topology, self.slot_count)
        except TopologyError as exc:
            raise ConfigError(f"topology: {exc}") from None

    # ---- run objects ---------------------------------------------------

    def network(self) -> tuple[Topology, dict]:
        """The topology and its K-shortest candidate-path table, which every
        env, encoder and training call of one run shares."""
        topology = self.load_topology()
        return topology, precompute_paths(topology, self.k_paths,
                                          self.reach_table())

    def env(self, topology: Topology, paths) -> RmsaEnv:
        """A provisioning environment drawing its demands from ``seed``."""
        return RmsaEnv(topology, paths, self.traffic(), k_paths=self.k_paths,
                       j_blocks=self.j_blocks, seed=self.seed,
                       slot_capacity_gbps=self.slot_capacity_gbps,
                       stats_window=self.stats_window)

    def encoder(self, topology: Topology) -> StateEncoder:
        return StateEncoder(topology, k_paths=self.k_paths,
                            j_blocks=self.j_blocks, mode=self.mode,
                            mean_duration=self.mean_duration,
                            slot_capacity_gbps=self.slot_capacity_gbps,
                            bandwidth_max_gbps=self.bandwidth_max,
                            episode_length=self.batch_size)

    def train(self, topology: Topology, paths,
              out_dir: str | Path, progress: bool = False) -> TrainingResult:
        """One ``run_training`` call on this config's settings."""
        return run_training(
            self.training(), topology, paths, self.traffic(),
            k_paths=self.k_paths, j_blocks=self.j_blocks,
            hidden_layers=self.hidden_layers, hidden_width=self.hidden_width,
            slot_capacity_gbps=self.slot_capacity_gbps,
            shared_hidden=self.share_hidden, stats_window=self.stats_window,
            out_dir=out_dir, progress=progress)

    # ---- file format ---------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _convert(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    try:
        if kind in ("int", int):
            return int(raw)
        if kind in ("float", float):
            return float(raw)
        if kind in ("bool", bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{name}: cannot parse {raw!r}") from None


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = _convert(key, value)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text, source=str(path))
