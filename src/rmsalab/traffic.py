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

_UINT32_RANGE = 1 << 32
_UINT32_MASK = _UINT32_RANGE - 1


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
    """Stateful request source: monotone ids and a running clock.

    ``node_count`` is at most 2**32, the largest bound that
    ``Generator.integers`` draws from one 32-bit word.
    """

    def __init__(self, cfg: TrafficConfig, node_count: int,
                 rng: np.random.Generator):
        if node_count < 2:
            raise ValueError("need at least 2 nodes to generate demands")
        if node_count > _UINT32_RANGE:
            raise ValueError("node_count above 2**32 is not supported")
        self.cfg = cfg
        self.node_count = node_count
        self.rng = rng
        self.now = 0.0
        self._next_id = 0
        # the state pointer lives as long as the bit generator, which
        # self.rng keeps alive
        bits = rng.bit_generator.ctypes
        self._state = bits.state
        self._next_uint32 = bits.next_uint32
        self._next_double = bits.next_double
        # Lemire's rejection thresholds, 2**32 mod bound, for the src and
        # dst bounds; numpy computes the same on each call
        self._src_threshold = _UINT32_RANGE % node_count
        self._dst_threshold = _UINT32_RANGE % (node_count - 1)

    def next(self) -> Request:
        """Sample the next arrival after ``now`` and advance the clock.

        Interarrival is exponential with mean 1/arrival_rate, (src, dst) is
        uniform over ordered pairs with src != dst, bandwidth uniform over
        the configured range, holding time exponential with the configured
        mean.

        The endpoints and the bandwidth are drawn through the bit
        generator's own C functions (``bit_generator.ctypes``). src and dst
        are Lemire's bounded draw (Lemire, 2019, arXiv:1805.10941) over
        ``next_uint32``, the steps of numpy's
        ``buffered_bounded_lemire_uint32`` behind
        ``Generator.integers(bound)``: scale one 32-bit word by the bound,
        redraw while the low half is under 2**32 mod bound, keep the high
        half; a bound of 1 (dst on a 2-node graph) draws nothing, as
        ``integers(1)`` does. The bandwidth is
        ``low + (high - low) * next_double``, which is what
        ``Generator.uniform(low, high)`` computes from the value
        ``Generator.random()`` returns. The C functions advance the bit
        generator's own state, including the buffered 32-bit half that
        some generators keep, so every request and the generator's final
        state equal those of the plain numpy calls. They skip
        ``Generator``'s lock, so only the stream's owner may draw from it
        or its generator. The two exponentials stay ``Generator`` calls.
        """
        rng = self.rng
        cfg = self.cfg
        state = self._state
        next_uint32 = self._next_uint32
        self.now += rng.exponential(1.0 / cfg.arrival_rate)
        bound = self.node_count
        m = next_uint32(state) * bound
        while m & _UINT32_MASK < self._src_threshold:
            m = next_uint32(state) * bound
        src = m >> 32
        bound -= 1
        if bound == 1:
            dst = 0
        else:
            m = next_uint32(state) * bound
            while m & _UINT32_MASK < self._dst_threshold:
                m = next_uint32(state) * bound
            dst = m >> 32
        if dst >= src:
            dst += 1
        bandwidth = (cfg.bandwidth_min
                     + (cfg.bandwidth_max - cfg.bandwidth_min)
                     * self._next_double(state))
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
