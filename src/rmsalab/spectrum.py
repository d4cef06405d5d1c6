"""Per-link frequency-slot occupancy with contiguous-block search.

A lightpath occupies the same contiguous slot range on every link of its
route (no spectrum conversion), so feasibility on a path reduces to block
search over the slots free on all of its links.

Each link's occupancy is one Python ``int``: bit s is set when slot s is
used. A path's free slots are the complement of the OR of its links, and
``path_blocks`` answers every block question on that one bitset with a
few whole-word operations. It is the one block query: ``RmsaEnv.step``
takes block j of ``path_blocks(path, n, j + 1)``, first fit block 0, and
the encoder's per-path fields and ``block_spans`` read it too.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .topology import CandidatePath, Topology


class NetworkSpectrum:
    """Slot occupancy for every link plus, per active lightpath, its links
    and slot mask."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.slot_count = topology.slot_count
        self._full = (1 << topology.slot_count) - 1
        # bit s of _links[i] is set when slot s of link i is used
        self._links: list[int] = [0] * topology.link_count
        self._active: dict[int, tuple[tuple[int, ...], int]] = {}

    def path_blocks(self, path: CandidatePath, n: int, limit: int
                    ) -> tuple[list[tuple[int, int]], int, int]:
        """The first ``limit`` maximal free blocks along ``path`` that can
        hold ``n`` slots, as (start, size) pairs in slot order, then the
        path's total free slots and its number of maximal free blocks."""
        if n < 1:
            raise ContractViolation(f"slot count must be positive, got {n}")
        links = self._links
        used = 0
        for link_id in path.link_ids:
            used |= links[link_id]
        free = ~used & self._full
        heads = free & ~(free << 1)
        # bit s of fit: slots s .. s + n - 1 are all free ("searching for a
        # string of 1-bits", Warren, Hacker's Delight, 2nd ed., 6-2)
        fit = free
        while n > 1:
            shift = n >> 1
            fit &= fit >> shift
            n -= shift
        usable = heads & fit
        blocks = []
        while usable and len(blocks) < limit:
            low = usable & -usable
            start = low.bit_length() - 1
            run = free >> start
            # trailing ones of run: the block's size
            blocks.append((start, (run ^ (run + 1)).bit_length() - 1))
            usable ^= low
        return blocks, free.bit_count(), heads.bit_count()

    def block_spans(self, path: CandidatePath) -> tuple[np.ndarray, np.ndarray]:
        """(starts, sizes) arrays of the maximal free blocks along ``path``."""
        blocks = self.path_blocks(path, 1, self.slot_count)[0]
        spans = np.array(blocks, dtype=np.intp).reshape(-1, 2)
        return spans[:, 0], spans[:, 1]

    def allocate(self, path: CandidatePath, start: int, n: int,
                 lightpath_id: int) -> None:
        """Occupy ``[start, start + n)`` on every link of ``path``; on any
        conflict nothing is written."""
        if n < 1:
            raise ContractViolation(f"slot count must be positive, got {n}")
        if start < 0 or start + n > self.slot_count:
            raise ContractViolation(
                f"slot range [{start}, {start + n}) outside grid of "
                f"{self.slot_count}")
        if lightpath_id in self._active:
            raise ContractViolation(f"lightpath {lightpath_id} already active")
        links = self._links
        mask = ((1 << n) - 1) << start
        for link_id in path.link_ids:
            if links[link_id] & mask:
                raise ContractViolation(
                    f"allocation [{start}, {start + n}) overlaps occupied "
                    f"slots on path links {path.link_ids}")
        for link_id in path.link_ids:
            links[link_id] |= mask
        self._active[lightpath_id] = (path.link_ids, mask)

    def release(self, lightpath_id: int) -> None:
        """Free every slot held by the given lightpath."""
        record = self._active.pop(lightpath_id, None)
        if record is None:
            raise ContractViolation(f"lightpath {lightpath_id} is not active")
        link_ids, mask = record
        links = self._links
        for link_id in link_ids:
            links[link_id] &= ~mask

    def occupied_slot_count(self) -> int:
        return sum(used.bit_count() for used in self._links)

    def dump(self) -> str:
        """Debug snapshot: one 0/1 row per link, slot 0 first."""
        return "\n".join(format(used, f"0{self.slot_count}b")[::-1]
                         for used in self._links)
