"""Per-link frequency-slot occupancy with contiguous-block search.

A lightpath occupies the same contiguous slot range on every link of its
route (no spectrum conversion), so feasibility on a path reduces to block
search over the slot-wise AND of the links' free masks.

``path_blocks`` is the one view of all candidate paths' blocks that the
encoder and ``step`` read, memoised until the grid changes. The grid
changes only through ``allocate`` and ``release``, which bump
``_version``; any other writer must bump it too, or the view goes stale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .topology import CandidatePath, Topology


@dataclass(frozen=True)
class Lightpath:
    id: int
    link_ids: tuple[int, ...]
    start: int
    n_slots: int
    expiry: float


def _mask_blocks(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and sizes of maximal True runs in a boolean mask."""
    edged = np.empty(mask.size + 2, dtype=bool)
    edged[0] = edged[-1] = False
    edged[1:-1] = mask
    edges = np.flatnonzero(edged[1:] != edged[:-1])
    starts = edges[0::2]
    sizes = edges[1::2] - starts
    return starts, sizes


class NetworkSpectrum:
    """Slot occupancy for every link plus the active lightpath records."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.slot_count = topology.slot_count
        self._occupancy = np.zeros((topology.link_count, topology.slot_count),
                                   dtype=bool)
        self._active: dict[int, Lightpath] = {}
        self._version = 0
        # id(paths) -> (paths, K x H link indices); the kept tuple pins the id
        self._path_index: dict[int, tuple[tuple, np.ndarray]] = {}
        self._view: tuple = (None, -1, None)

    def path_free_mask(self, path: CandidatePath) -> np.ndarray:
        """Slots simultaneously free on every link of ``path``."""
        ids = path.link_ids
        if len(ids) == 1:
            return ~self._occupancy[ids[0]]
        return ~(self._occupancy[list(ids)].any(axis=0))

    def block_spans(self, path: CandidatePath) -> tuple[np.ndarray, np.ndarray]:
        """(starts, sizes) arrays of the maximal free blocks along ``path``."""
        return _mask_blocks(self.path_free_mask(path))

    def path_blocks(self, paths: tuple[CandidatePath, ...]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, starts, sizes) of the maximal free blocks of every path in
        the path-table tuple ``paths``, row-major: block i lies on path
        ``rows[i]``. Kept until the grid changes; callers must not write."""
        if self._view[0] is paths and self._view[1] == self._version:
            return self._view[2]
        entry = self._path_index.get(id(paths))
        if entry is None or entry[0] is not paths:
            # a short path repeats its last link, which leaves any() as is
            hops = max(len(p.link_ids) for p in paths)
            index = np.array([p.link_ids + p.link_ids[-1:]
                              * (hops - len(p.link_ids)) for p in paths])
            entry = self._path_index[id(paths)] = (paths, index)
        edged = np.zeros((len(paths), self.slot_count + 2), dtype=bool)
        edged[:, 1:-1] = ~self._occupancy[entry[1]].any(axis=1)
        rows, edges = np.nonzero(edged[:, 1:] != edged[:, :-1])
        starts = edges[0::2]
        blocks = (rows[0::2], starts, edges[1::2] - starts)
        self._view = (paths, self._version, blocks)
        return blocks

    def usable_block_start(self, path: CandidatePath, n: int,
                           j: int = 0) -> int | None:
        """Start of the ``j``-th lowest maximal free block along ``path``
        that can hold ``n`` slots, or None; ``j = 0`` is first fit."""
        starts, sizes = self.block_spans(path)
        fits = np.flatnonzero(sizes >= n)
        if j >= fits.size:
            return None
        return int(starts[fits[j]])

    def allocate(self, path: CandidatePath, start: int, n: int,
                 lightpath_id: int, expiry: float) -> None:
        """Occupy ``[start, start + n)`` on every link of ``path``."""
        if n < 1:
            raise ContractViolation(f"slot count must be positive, got {n}")
        if start < 0 or start + n > self.slot_count:
            raise ContractViolation(
                f"slot range [{start}, {start + n}) outside grid of "
                f"{self.slot_count}")
        if lightpath_id in self._active:
            raise ContractViolation(f"lightpath {lightpath_id} already active")
        ids = list(path.link_ids)
        region = self._occupancy[ids, start:start + n]
        if region.any():
            raise ContractViolation(
                f"allocation [{start}, {start + n}) overlaps occupied slots "
                f"on path links {path.link_ids}")
        self._occupancy[ids, start:start + n] = True
        self._version += 1
        self._active[lightpath_id] = Lightpath(
            lightpath_id, path.link_ids, start, n, expiry)

    def release(self, lightpath_id: int) -> None:
        """Free every slot held by the given lightpath."""
        record = self._active.pop(lightpath_id, None)
        if record is None:
            raise ContractViolation(f"lightpath {lightpath_id} is not active")
        ids = list(record.link_ids)
        self._occupancy[ids, record.start:record.start + record.n_slots] = False
        self._version += 1

    def occupied_slot_count(self) -> int:
        return int(self._occupancy.sum())

    def dump(self) -> str:
        """Debug snapshot: one 0/1 row per link, slot 0 first."""
        return "\n".join(
            "".join("1" if used else "0" for used in row)
            for row in self._occupancy)
