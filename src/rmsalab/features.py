"""State encoding: one request plus the spectrum condition of its
candidate paths, flattened to a fixed-length array in [-1, 1].

Layout, in order: one-hot source over the node set, one-hot destination,
scaled holding time, then per candidate path the (start, size) of the
first J free blocks large enough to hold this request on that path, the
slot count the path needs, the average free-block size and the total
free slots. A block the demand cannot use tells the policy nothing
about where the request could go, so the J reported blocks are the
usable ones (the first being the first-fit placement) and a sentinel
marks their absence. In episode mode one trailing element carries the
request's position within the episode: with N requests per episode,
request ``id`` is at 1-based position ``i = id % N + 1``, encoded as
``(N - i + 1) / N``. Every field is scaled by a fixed constant (grid
size, maximum slot need, twice the mean holding time) so encoding is
stateless and reproducible. Each path group is read from
``NetworkSpectrum.path_blocks``, the per-path block query that
``RmsaEnv.step`` and the first-fit heuristics also use.
"""

from __future__ import annotations

import numpy as np

from .spectrum import NetworkSpectrum
from .topology import CandidatePath, Topology, required_slots
from .traffic import Request

# A path with fewer than J usable blocks pads with this (start, size)
# pair. The start sentinel is an encoded value, deliberately not scaled
# down by the grid size: absence of a placement must stay an O(1) signal
# against real starts in [0, 1), or the network cannot separate
# "infeasible" from "fits near slot 0".
MISSING_BLOCK = (-1.0, 0.0)


def state_length(node_count: int, k_paths: int, j_blocks: int,
                 with_position: bool) -> int:
    """Encoded array length for a given topology size and path/block count."""
    return 2 * node_count + 1 + (2 * j_blocks + 3) * k_paths + int(with_position)


class StateEncoder:
    """Pure encoder from (request, spectrum snapshot) to a feature array.

    ``episode_length`` is N, the requests per episode, from which a
    request's position follows; it is required in episode mode and ignored
    otherwise.
    """

    def __init__(self, topology: Topology, *, k_paths: int, j_blocks: int,
                 mode: str, mean_duration: float, slot_capacity_gbps: float,
                 bandwidth_max_gbps: float, episode_length: int | None = None):
        self.with_position = mode == "ep"
        if self.with_position and (episode_length is None
                                   or episode_length < 1):
            raise ValueError("the episode position needs an episode length "
                             f">= 1 in ep mode, got {episode_length}")
        self.episode_length = episode_length
        self.node_count = topology.num_nodes
        self.slot_count = topology.slot_count
        self.k_paths = k_paths
        self.j_blocks = j_blocks
        self.tau_scale = 2.0 * mean_duration
        self.slot_capacity_gbps = slot_capacity_gbps
        self.max_slots = required_slots(bandwidth_max_gbps, 1, slot_capacity_gbps)
        self.length = state_length(self.node_count, k_paths, j_blocks,
                                   self.with_position)
        base = 2 * self.node_count + 1
        self._groups = slice(base, base + k_paths * (2 * j_blocks + 3))
        # the group of a path the graph does not have: J missing blocks,
        # then zero n, average and total
        self._absent_group = MISSING_BLOCK * j_blocks + (0.0, 0.0, 0.0)

    def encode(self, req: Request, spectrum: NetworkSpectrum,
               paths: tuple[CandidatePath, ...]) -> np.ndarray:
        """Encode one decision point.

        ``paths`` are the precomputed candidates for (req.src, req.dst);
        if the graph offers fewer than K, the missing path groups encode
        as all-missing blocks with zero free spectrum.
        """
        n_nodes = self.node_count
        f0 = float(self.slot_count)
        out = np.zeros(self.length, dtype=np.float64)
        out[req.src] = 1.0
        out[n_nodes + req.dst] = 1.0
        out[2 * n_nodes] = min(req.duration / self.tau_scale, 1.0)

        # one group per candidate path: J (start, size) pairs, n, avg, total
        j_blocks = self.j_blocks
        values = []
        for path in paths:
            n_slots = required_slots(req.bandwidth_gbps, path.modulation,
                                     self.slot_capacity_gbps)
            blocks, total, count = spectrum.path_blocks(path, n_slots,
                                                        j_blocks)
            for start, size in blocks:
                values += (start / f0, size / f0)
            values += MISSING_BLOCK * (j_blocks - len(blocks))
            values += (n_slots / self.max_slots,
                       total / max(count, 1) / f0, total / f0)
        values += self._absent_group * (self.k_paths - len(paths))
        out[self._groups] = values

        if self.with_position:
            n = self.episode_length
            out[-1] = (n - req.id % n) / n
        return out
