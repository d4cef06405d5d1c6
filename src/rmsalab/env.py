"""Provisioning environment: request arrivals and departures drive a
spectrum grid; actions pick a candidate path (and block) for each request.

A request is serviced or blocked immediately on arrival. Acceptance earns
reward +1, anything else -1, and an infeasible choice never falls back to
a different path. Shortest-path and K-shortest-path first-fit heuristics
share the same machinery and serve as baselines.

Every decision returns a new ``ProvisionOutcome``. It is a slotted, not a
frozen, dataclass: a frozen ``__init__`` writes each field through
``object.__setattr__``, which costs about three times as much per
request, while ``dataclasses.replace`` and field access stay as they were.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .spectrum import NetworkSpectrum
from .topology import CandidatePath, Topology, required_slots
from .traffic import DepartureQueue, Request, RequestStream, TrafficConfig


@dataclass(slots=True)
class ProvisionOutcome:
    """Result of one provisioning decision."""

    accepted: bool
    path_index: int | None
    start_slot: int | None
    n_slots: int | None
    reward: float


class BlockingStats:
    """Accepted/blocked counters with a bounded trailing window: the
    running blocked count after each of the last ``window_cap + 1``
    requests, so a window's blocked count is one subtraction."""

    def __init__(self, window_cap: int):
        self.window_cap = window_cap
        self.total = 0
        self.blocked = 0
        self._blocked_after = [0] * (window_cap + 1)

    def record(self, accepted: bool) -> None:
        self.total += 1
        if not accepted:
            self.blocked += 1
        self._blocked_after[self.total % (self.window_cap + 1)] = self.blocked

    def window_counts(self, window: int) -> tuple[int, int]:
        """(requests, blocked) over the trailing ``window`` requests."""
        if window > self.window_cap:
            raise ValueError(
                f"window {window} exceeds the retained history "
                f"({self.window_cap})")
        n = min(window, self.total)
        start = (self.total - n) % (self.window_cap + 1)
        return n, self.blocked - self._blocked_after[start]

    def blocking_probability(self, window: int | None = None) -> float:
        """Blocked share of the whole run, or of the trailing window."""
        if window is None:
            total, blocked = self.total, self.blocked
        else:
            total, blocked = self.window_counts(window)
        if total == 0:
            raise ValueError("blocking probability of an empty window")
        return blocked / total

    def window_reward(self, window: int) -> float:
        """Sum of +/-1 rewards over the trailing ``window`` requests."""
        total, blocked = self.window_counts(window)
        return float(total - 2 * blocked)


class RmsaEnv:
    """One worker's private copy of the network plus its demand stream."""

    def __init__(self, topology: Topology,
                 path_table: dict[tuple[int, int], tuple[CandidatePath, ...]],
                 traffic: TrafficConfig, *, k_paths: int, j_blocks: int,
                 seed: int, slot_capacity_gbps: float, stats_window: int):
        self.topology = topology
        self.paths = path_table
        self.k_paths = k_paths
        self.j_blocks = j_blocks
        self.slot_capacity_gbps = slot_capacity_gbps
        self.spectrum = NetworkSpectrum(topology)
        self.stream = RequestStream(traffic, topology.num_nodes,
                                    np.random.default_rng(seed))
        self.departures = DepartureQueue()
        self.stats = BlockingStats(stats_window)
        self._ids = itertools.count()

    @property
    def action_count(self) -> int:
        return self.k_paths * self.j_blocks

    def candidate_paths(self, req: Request) -> tuple[CandidatePath, ...]:
        return self.paths[(req.src, req.dst)]

    def release_due(self, now: float) -> list[int]:
        """Free every lightpath that expires at or before ``now``."""
        expired = self.departures.pop_expired(now)
        for lightpath_id in expired:
            self.spectrum.release(lightpath_id)
        return expired

    def arrive(self) -> Request:
        """Draw the next request and release everything due before it."""
        req = self.stream.next()
        self.release_due(req.arrival_time)
        return req

    def _provision(self, req: Request, path: CandidatePath, path_index: int,
                   start: int, n: int) -> ProvisionOutcome:
        lightpath_id = next(self._ids)
        self.spectrum.allocate(path, start, n, lightpath_id)
        self.departures.push(req.arrival_time + req.duration, lightpath_id)
        self.stats.record(True)
        return ProvisionOutcome(True, path_index, start, n, 1.0)

    def _blocked(self, path_index: int | None) -> ProvisionOutcome:
        self.stats.record(False)
        return ProvisionOutcome(False, path_index, None, None, -1.0)

    def step(self, req: Request, action: int) -> ProvisionOutcome:
        """Apply one agent decision.

        The action indexes (path, block): path k = action // J, block
        j = action % J. Block j means the j-th free block on the chosen
        path that can hold the demand, matching the blocks the state
        encoder reports; j = 0 is the first-fit placement. A missing
        block is a hard block, never a fallback to another path.
        Departures due at the request's arrival must already be released.
        """
        if not 0 <= action < self.action_count:
            raise ValueError(
                f"action {action} outside [0, {self.action_count})")
        paths = self.candidate_paths(req)
        path_index = action // self.j_blocks
        block_index = action % self.j_blocks
        if path_index >= len(paths):
            return self._blocked(path_index)
        path = paths[path_index]
        n = required_slots(req.bandwidth_gbps, path.modulation,
                           self.slot_capacity_gbps)
        start = self.spectrum.usable_block_start(path, n, block_index)
        if start is None:
            return self._blocked(path_index)
        return self._provision(req, path, path_index, start, n)

    # The heuristics place through usable_block_start, as step does, so an
    # agent's j = 0 action and first fit cannot disagree.
    def sp_ff(self, req: Request) -> ProvisionOutcome:
        """Shortest path with first-fit; never tries an alternate path."""
        path = self.candidate_paths(req)[0]
        n = required_slots(req.bandwidth_gbps, path.modulation,
                           self.slot_capacity_gbps)
        start = self.spectrum.usable_block_start(path, n)
        if start is None:
            return self._blocked(0)
        return self._provision(req, path, 0, start, n)

    def ksp_ff(self, req: Request) -> ProvisionOutcome:
        """First-fit over candidate paths in ascending length order."""
        for index, path in enumerate(self.candidate_paths(req)):
            n = required_slots(req.bandwidth_gbps, path.modulation,
                               self.slot_capacity_gbps)
            start = self.spectrum.usable_block_start(path, n)
            if start is not None:
                return self._provision(req, path, index, start, n)
        return self._blocked(None)
