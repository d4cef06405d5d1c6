"""Dynamic lightpath demand: Poisson arrivals, uniform endpoints and
bandwidths, exponential holding times, and the departure event queue.

A ``Request`` is built for every arrival, so it is a ``NamedTuple``:
immutable like a frozen dataclass, with the same fields, order and
keywords, but built without a per-field ``object.__setattr__``. Each
request takes five draws from its stream's generator in a fixed order
(see ``RequestStream.next``); changing a draw or the order changes every
seeded result.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Request(NamedTuple):
    """One lightpath demand."""

    id: int
    src: int
    dst: int
    bandwidth_gbps: float
    duration: float
    arrival_time: float


@dataclass(frozen=True)
class TrafficConfig:
    """Demand-stream settings, derived and validated by
    ``RunConfig.traffic()``."""

    arrival_rate: float
    mean_duration: float
    bandwidth_min: float
    bandwidth_max: float


class RequestStream:
    """Stateful request source: monotone ids and a running clock."""

    def __init__(self, cfg: TrafficConfig, node_count: int,
                 rng: np.random.Generator):
        if node_count < 2:
            raise ValueError("need at least 2 nodes to generate demands")
        self.cfg = cfg
        self.node_count = node_count
        self.rng = rng
        self.now = 0.0
        self._next_id = 0

    def next(self) -> Request:
        """Sample the next arrival after ``now`` and advance the clock.

        Interarrival is exponential with mean 1/arrival_rate, (src, dst) is
        uniform over ordered pairs with src != dst, bandwidth uniform over
        the configured range, holding time exponential with the configured
        mean.
        """
        rng = self.rng
        cfg = self.cfg
        self.now += rng.exponential(1.0 / cfg.arrival_rate)
        src = int(rng.integers(self.node_count))
        dst = int(rng.integers(self.node_count - 1))
        if dst >= src:
            dst += 1
        # Generator.uniform(low, high) returns exactly low + (high - low) *
        # random() from the same single draw; spelled out, it skips
        # uniform's argument handling, which costs more than the draw itself.
        bandwidth = (cfg.bandwidth_min
                     + (cfg.bandwidth_max - cfg.bandwidth_min) * rng.random())
        duration = float(rng.exponential(cfg.mean_duration))
        req = Request(self._next_id, src, dst, bandwidth, duration, self.now)
        self._next_id += 1
        return req


class DepartureQueue:
    """Pending lightpath expirations, popped in (expiry, id) order."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int]] = []

    def push(self, expiry: float, lightpath_id: int) -> None:
        heapq.heappush(self._heap, (expiry, lightpath_id))

    def pop_expired(self, now: float) -> list[int]:
        """Remove and return ids of all entries with expiry <= now."""
        heap = self._heap
        expired: list[int] = []
        while heap and heap[0][0] <= now:
            expired.append(heapq.heappop(heap)[1])
        return expired
