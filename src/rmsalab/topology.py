"""Network graph model: topology files, candidate routing paths, and the
distance-adaptive modulation / slot-count rules.

Topologies are small undirected graphs with physical link lengths in km.
Candidate paths between every node pair are computed once at startup
(loopless K-shortest by length) and reused for the whole run, so path
ordering and therefore action indices are stable across runs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import TopologyError

BUILTIN_TOPOLOGIES = ("nsfnet", "cost239")


@dataclass(frozen=True)
class Link:
    """One bidirectional fiber link; (a, b) and (b, a) are the same resource."""

    id: int
    a: int
    b: int
    length_km: float


@dataclass(frozen=True)
class CandidatePath:
    """A precomputed simple route with its modulation choice fixed by length."""

    nodes: tuple[int, ...]
    link_ids: tuple[int, ...]
    length_km: float
    modulation: int


class Topology:
    """Immutable node/link graph with a per-link frequency-slot count."""

    def __init__(self, num_nodes: int, links: list[Link] | tuple[Link, ...],
                 slot_count: int):
        if num_nodes < 2:
            raise TopologyError(f"need at least 2 nodes, got {num_nodes}")
        if slot_count < 1:
            raise TopologyError(f"slot count must be positive, got {slot_count}")
        self.num_nodes = num_nodes
        self.links = tuple(links)
        self.slot_count = slot_count
        self._validate()
        # adjacency[node] -> ((link_id, neighbor, length_km), ...) sorted by
        # link id so path search is deterministic
        adj: list[list[tuple[int, int, float]]] = [[] for _ in range(num_nodes)]
        for ln in self.links:
            adj[ln.a].append((ln.id, ln.b, ln.length_km))
            adj[ln.b].append((ln.id, ln.a, ln.length_km))
        self.adjacency = tuple(tuple(sorted(rows)) for rows in adj)
        if not self._connected():
            raise TopologyError("graph is not connected")

    @property
    def nodes(self) -> range:
        return range(self.num_nodes)

    @property
    def link_count(self) -> int:
        return len(self.links)

    def _validate(self) -> None:
        if not self.links:
            raise TopologyError("topology has no links")
        seen_ids: set[int] = set()
        seen_pairs: set[tuple[int, int]] = set()
        for ln in self.links:
            for node in (ln.a, ln.b):
                if not 0 <= node < self.num_nodes:
                    raise TopologyError(
                        f"link {ln.id} references a node {node} outside "
                        f"0..{self.num_nodes - 1}")
            if ln.a == ln.b:
                raise TopologyError(f"link {ln.id} is a self-loop on node {ln.a}")
            # a NaN length would leave the path search's heap order undefined
            if not math.isfinite(ln.length_km):
                raise TopologyError(
                    f"link {ln.id} has non-finite length {ln.length_km}")
            if ln.length_km <= 0:
                raise TopologyError(
                    f"link {ln.id} has non-positive length {ln.length_km}")
            if not 0 <= ln.id < len(self.links):
                raise TopologyError(f"link id {ln.id} outside "
                                    f"0..{len(self.links) - 1}")
            if ln.id in seen_ids:
                raise TopologyError(f"duplicate link id {ln.id}")
            seen_ids.add(ln.id)
            pair = (min(ln.a, ln.b), max(ln.a, ln.b))
            if pair in seen_pairs:
                raise TopologyError(
                    f"duplicate link between nodes {pair[0]} and {pair[1]}")
            seen_pairs.add(pair)

    def _connected(self) -> bool:
        reached = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for _, nbr, _ in self.adjacency[node]:
                if nbr not in reached:
                    reached.add(nbr)
                    frontier.append(nbr)
        return len(reached) == self.num_nodes


def parse_topology(text: str, slot_count: int,
                   source: str = "<string>") -> Topology:
    """Parse the line-oriented topology format.

    First meaningful line is ``nodes <count>``; each following line is
    ``link <id> <nodeA> <nodeB> <length_km>``. ``#`` starts a comment
    anywhere on a line; blank lines are ignored. Node ids are integers in
    ``[0, count)``, link ids in ``[0, number of links)``, and lengths
    finite and positive; ``Topology`` checks each link.
    """
    num_nodes: int | None = None
    links: list[Link] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if num_nodes is None:
            if fields[0] != "nodes" or len(fields) != 2:
                raise TopologyError(
                    f"{source}:{lineno}: expected 'nodes <count>', got {line!r}")
            try:
                num_nodes = int(fields[1])
            except ValueError:
                raise TopologyError(
                    f"{source}:{lineno}: node count {fields[1]!r} is not an integer"
                ) from None
            continue
        if fields[0] != "link" or len(fields) != 5:
            raise TopologyError(
                f"{source}:{lineno}: expected 'link <id> <a> <b> <length_km>', "
                f"got {line!r}")
        try:
            link_id, a, b = (int(f) for f in fields[1:4])
            length = float(fields[4])
        except ValueError:
            raise TopologyError(
                f"{source}:{lineno}: malformed link fields in {line!r}") from None
        links.append(Link(link_id, a, b, length))
    if num_nodes is None:
        raise TopologyError(f"{source}: empty topology description")
    try:
        return Topology(num_nodes, links, slot_count)
    except TopologyError as exc:
        raise TopologyError(f"{source}: {exc}") from None


def load_topology(source: str | Path, slot_count: int) -> Topology:
    """Load a topology file, or one of the built-ins by name.

    ``source`` may be a filesystem path or one of
    ``nsfnet`` / ``cost239`` (shipped with the package).
    """
    name = str(source)
    if name in BUILTIN_TOPOLOGIES:
        text = (resources.files("rmsalab") / "data" / f"{name}.topo").read_text()
        return parse_topology(text, slot_count, source=name)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TopologyError(f"cannot read topology file {path}: {exc}") from None
    return parse_topology(text, slot_count, source=str(path))


def modulation_for(distance_km: float,
                   reach_table: tuple[tuple[int, float], ...]) -> int:
    """Highest modulation order whose reach covers ``distance_km``.

    ``reach_table`` lists (order, reach_km) pairs in descending order of
    spectral efficiency, as ``RunConfig.reach_table()`` builds it.
    """
    if distance_km <= 0:
        raise ValueError(f"distance must be positive, got {distance_km}")
    for order, reach in reach_table:
        if distance_km <= reach:
            return order
    return reach_table[-1][0]


def required_slots(bandwidth_gbps: float, modulation: int,
                   slot_capacity_gbps: float) -> int:
    """Contiguous slots needed for a demand at the given modulation order;
    one slot carries ``slot_capacity_gbps`` at order 1."""
    if bandwidth_gbps <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_gbps}")
    if modulation < 1:
        raise ValueError(f"modulation order must be >= 1, got {modulation}")
    return max(1, math.ceil(bandwidth_gbps / (modulation * slot_capacity_gbps)))


def _lex_shortest(topo: Topology, src: int, dst: int,
                  banned_nodes: frozenset[int] | set[int],
                  banned_links: frozenset[int] | set[int],
                  ) -> tuple[float, tuple[int, ...], tuple[int, ...]] | None:
    """Shortest src->dst path avoiding the given nodes/links.

    Ties in length resolve to the lexicographically smallest link-id
    sequence; with strictly positive lengths the first pop of ``dst`` is
    minimal under that (length, link_ids) order.
    """
    heap: list[tuple[float, tuple[int, ...], int, tuple[int, ...]]] = [
        (0.0, (), src, (src,))
    ]
    settled: set[int] = set()
    while heap:
        dist, link_seq, node, node_seq = heapq.heappop(heap)
        if node == dst:
            return dist, link_seq, node_seq
        if node in settled:
            continue
        settled.add(node)
        for link_id, nbr, length in topo.adjacency[node]:
            if nbr in settled or nbr in banned_nodes or link_id in banned_links:
                continue
            heapq.heappush(
                heap,
                (dist + length, link_seq + (link_id,), nbr, node_seq + (nbr,)))
    return None


def k_shortest_paths(topo: Topology, src: int, dst: int, k: int,
                     reach_table: tuple[tuple[int, float], ...],
                     ) -> list[CandidatePath]:
    """Loopless K-shortest paths by physical length (Yen's algorithm).

    Returns up to ``k`` simple paths sorted by (length_km, link-id
    sequence); fewer if the graph does not contain ``k`` simple paths.
    """
    if src == dst:
        raise ValueError(f"source and destination are both node {src}")
    for node in (src, dst):
        if not 0 <= node < topo.num_nodes:
            raise ValueError(f"node {node} not in topology")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")

    lengths = {ln.id: ln.length_km for ln in topo.links}
    # a Topology is connected, so every node pair has a first path
    first = _lex_shortest(topo, src, dst, frozenset(), frozenset())
    accepted: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = [first]
    seen: set[tuple[int, ...]] = {first[1]}
    candidates: list[tuple[float, tuple[int, ...], tuple[int, ...]]] = []

    while len(accepted) < k:
        _, base_links, base_nodes = accepted[-1]
        root_len = 0.0
        for i in range(len(base_nodes) - 1):
            spur_node = base_nodes[i]
            root_links = base_links[:i]
            root_nodes = base_nodes[: i + 1]
            banned_links = {
                path_links[i]
                for _, path_links, _ in accepted
                if path_links[:i] == root_links and len(path_links) > i
            }
            banned_nodes = set(root_nodes[:-1])
            spur = _lex_shortest(topo, spur_node, dst, banned_nodes, banned_links)
            if spur is not None:
                spur_len, spur_links, spur_nodes = spur
                total_links = root_links + spur_links
                if total_links not in seen:
                    seen.add(total_links)
                    heapq.heappush(
                        candidates,
                        (root_len + spur_len, total_links,
                         root_nodes[:-1] + spur_nodes))
            root_len += lengths[base_links[i]]
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))

    return [
        CandidatePath(
            nodes=node_seq,
            link_ids=link_seq,
            length_km=length,
            modulation=modulation_for(length, reach_table),
        )
        for length, link_seq, node_seq in accepted
    ]


def precompute_paths(topo: Topology, k: int,
                     reach_table: tuple[tuple[int, float], ...],
                     ) -> dict[tuple[int, int], tuple[CandidatePath, ...]]:
    """Candidate-path table for every ordered node pair, computed once."""
    table: dict[tuple[int, int], tuple[CandidatePath, ...]] = {}
    for src in topo.nodes:
        for dst in topo.nodes:
            if src != dst:
                table[(src, dst)] = tuple(
                    k_shortest_paths(topo, src, dst, k, reach_table))
    return table
