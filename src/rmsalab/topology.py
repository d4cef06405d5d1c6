"""Network graph model: topology files, candidate routing paths, and the
distance-adaptive modulation / slot-count rules.

Topologies are small undirected graphs with physical link lengths in km.
Candidate paths between every node pair are computed once at startup
(loopless K-shortest by length) and reused for the whole run, so path
ordering and therefore action indices are stable across runs.

The search is Yen's algorithm (1971) with the rules of
``k_shortest_paths`` that skip work without changing the table. Each
pair's first path and the distances the bound uses come from one
lexicographic shortest-path tree per node, built by the first search on a
``Topology`` and kept on it with the k-th lengths found so far.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import NamedTuple

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
        # a connected graph has at least num_nodes - 1 links; a node count
        # past that is rejected before any per-node list is allocated
        if num_nodes > len(self.links) + 1:
            raise TopologyError("graph is not connected")
        # adjacency[node] -> ((link_id, neighbor, length_km), ...) sorted by
        # link id so path search is deterministic
        adj: list[list[tuple[int, int, float]]] = [[] for _ in range(num_nodes)]
        for ln in self.links:
            adj[ln.a].append((ln.id, ln.b, ln.length_km))
            adj[ln.b].append((ln.id, ln.a, ln.length_km))
        self.adjacency = tuple(tuple(sorted(rows)) for rows in adj)
        if not self._connected():
            raise TopologyError("graph is not connected")

    @cached_property
    def _search_index(self) -> _SearchIndex:
        """Link lengths, link ends and every node's shortest-path tree,
        built by the first path search and shared by every pair's, and
        the k-th lengths the searches have found."""
        by_id = sorted(self.links, key=lambda ln: ln.id)
        trees = [_lex_tree(self.adjacency, node) for node in self.nodes]
        return _SearchIndex(tuple(ln.length_km for ln in by_id),
                            tuple((ln.a, ln.b) for ln in by_id),
                            tuple(lengths for lengths, _ in trees),
                            tuple(sequences for _, sequences in trees),
                            {})

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
    except (OSError, UnicodeDecodeError) as exc:
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


def _lex_tree(adjacency: tuple[tuple[tuple[int, int, float], ...], ...],
              src: int) -> tuple[list[float], list[tuple[int, ...]]]:
    """Lexicographic shortest-path tree from ``src``: per node, its length
    and link-id sequence.

    Ties in length resolve to the lexicographically smallest link-id
    sequence; with strictly positive lengths a node's first pop is minimal
    under that (length, link_ids) order, and it is the path a search
    stopped at that node would return.
    """
    lengths = [0.0] * len(adjacency)
    sequences: list[tuple[int, ...] | None] = [None] * len(adjacency)
    heap: list[tuple[float, tuple[int, ...], int]] = [(0.0, (), src)]
    while heap:
        dist, link_seq, node = heapq.heappop(heap)
        if sequences[node] is not None:
            continue
        lengths[node] = dist
        sequences[node] = link_seq
        for link_id, nbr, length in adjacency[node]:
            if sequences[nbr] is None:
                heapq.heappush(heap, (dist + length, link_seq + (link_id,), nbr))
    return lengths, sequences


class _SearchIndex(NamedTuple):
    """What every pair's path search on one topology shares."""

    link_lengths: tuple[float, ...]        # by link id
    link_ends: tuple[tuple[int, int], ...]  # by link id
    # per node, its lexicographic shortest-path tree (_lex_tree)
    tree_lengths: tuple[list[float], ...]
    tree_links: tuple[list[tuple[int, ...]], ...]
    # (src, dst, k) -> length of the k-th path, for each search that found k
    kth_lengths: dict[tuple[int, int, int], float]


def _nodes_along(link_ends: tuple[tuple[int, int], ...], start: int,
                 link_seq: tuple[int, ...]) -> tuple[int, ...]:
    nodes = [start]
    for link_id in link_seq:
        a, b = link_ends[link_id]
        nodes.append(b if nodes[-1] == a else a)
    return tuple(nodes)


def _spur_search(adjacency: tuple[tuple[tuple[int, int, float], ...], ...],
                 start: int, dst: int, closed: set[int],
                 banned_links: set[int], root_len: float,
                 to_dst: list[float], limit: float,
                 ) -> tuple[float, tuple[int, ...]] | None:
    """Lexicographically shortest start->dst path (as ``_lex_tree`` orders
    paths) that enters no node of ``closed`` and uses no banned link.

    An entry is not pushed when ``root_len`` + its length + its node's
    unrestricted distance to ``dst`` exceeds ``limit``, so the search
    returns None instead of a path longer than ``limit`` once the root
    is added. ``closed`` is used as the settled set.
    """
    heap: list[tuple[float, tuple[int, ...], int]] = [(0.0, (), start)]
    while heap:
        dist, link_seq, node = heapq.heappop(heap)
        if node == dst:
            return dist, link_seq
        if node in closed:
            continue
        closed.add(node)
        for link_id, nbr, length in adjacency[node]:
            if nbr in closed or link_id in banned_links:
                continue
            ahead = dist + length
            if root_len + ahead + to_dst[nbr] <= limit:
                heapq.heappush(heap, (ahead, link_seq + (link_id,), nbr))
    return None


# relative slack of the candidate bound, far above the rounding of its sums
_BOUND_SLACK = 1.0 + 1e-9


def k_shortest_paths(topo: Topology, src: int, dst: int, k: int,
                     reach_table: tuple[tuple[int, float], ...],
                     ) -> list[CandidatePath]:
    """Loopless K-shortest paths by physical length (Yen's algorithm).

    Returns up to ``k`` simple paths sorted by (length_km, link-id
    sequence); fewer if the graph does not contain ``k`` simple paths.
    A candidate found by a spur search at index i of an accepted path
    has length ``root_len + spur_len``: the sum of the path's first i
    links plus the spur's own sum, each added from its start.

    Three rules skip searches that cannot change the result:

    - Lawler's rule (1972): an accepted path is spurred only from its
      deviation index, the index at which its own spur search found it,
      onward. At an earlier index the root and the banned links are
      those of a spur search already made, so it can only find a path
      already generated.
    - The candidate bound: with r = k - (paths accepted) still to
      accept and at least r candidates queued, no path longer than the
      r-th shortest queued one can be accepted, and that bound only
      falls. A spur search pushes no entry whose root length + length
      + unrestricted distance to ``dst`` exceeds it times 1 + 1e-9.
    - The reverse pair's bound: a path and its reverse have the same
      length, so once a search from ``dst`` to ``src`` has found ``k``
      paths, no path longer than its k-th can be accepted here either.
      It caps the candidate bound the same way.

    With strictly positive lengths, which ``Topology`` requires, an
    entry on a path within the bound is never dropped, so no rule
    changes which paths are accepted or their lengths: lengths are still
    summed as ``root_len + spur_len`` by the spur search that first
    finds the path, and the slack of 1e-9 covers the rounding of the
    bound's own sums, which the reverse pair adds in the other order.
    So the result does not depend on which pairs were searched before.
    """
    if src == dst:
        raise ValueError(f"source and destination are both node {src}")
    for node in (src, dst):
        if not 0 <= node < topo.num_nodes:
            raise ValueError(f"node {node} not in topology")
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")

    index = topo._search_index
    to_dst = index.tree_lengths[dst]
    ceiling = index.kth_lengths.get((dst, src, k), math.inf) * _BOUND_SLACK
    # a Topology is connected, so every node pair has a first path
    first = index.tree_links[src][dst]
    # (length, link ids, nodes, deviation index)
    accepted = [(index.tree_lengths[src][dst], first,
                 _nodes_along(index.link_ends, src, first), 0)]
    seen: set[tuple[int, ...]] = {first}
    # (length, link ids, deviation index); link ids are unique, so the
    # deviation index never takes part in the heap order
    candidates: list[tuple[float, tuple[int, ...], int]] = []
    # sorted lengths of the (k - accepted) shortest queued candidates
    bound: list[float] = []

    while len(accepted) < k:
        _, base_links, base_nodes, deviation = accepted[-1]
        to_accept = k - len(accepted)
        root_len = 0.0
        for link_id in base_links[:deviation]:
            root_len += index.link_lengths[link_id]
        for i in range(deviation, len(base_links)):
            spur_node = base_nodes[i]
            limit = (min(bound[-1] * _BOUND_SLACK, ceiling)
                     if len(bound) == to_accept else ceiling)
            if root_len + to_dst[spur_node] <= limit:
                root_links = base_links[:i]
                banned_links = {path_links[i]
                                for _, path_links, _, _ in accepted
                                if path_links[:i] == root_links}
                spur = _spur_search(topo.adjacency, spur_node, dst,
                                    set(base_nodes[:i]), banned_links,
                                    root_len, to_dst, limit)
                if spur is not None:
                    spur_len, spur_links = spur
                    total_links = root_links + spur_links
                    if total_links not in seen:
                        seen.add(total_links)
                        length = root_len + spur_len
                        heapq.heappush(candidates, (length, total_links, i))
                        bisect.insort(bound, length)
                        del bound[to_accept:]
            root_len += index.link_lengths[base_links[i]]
        if not candidates:
            break
        length, link_seq, deviation = heapq.heappop(candidates)
        del bound[0]
        accepted.append((length, link_seq,
                         _nodes_along(index.link_ends, src, link_seq),
                         deviation))

    if len(accepted) == k:
        index.kth_lengths[(src, dst, k)] = accepted[-1][0]
    return [
        CandidatePath(
            nodes=node_seq,
            link_ids=link_seq,
            length_km=length,
            modulation=modulation_for(length, reach_table),
        )
        for length, link_seq, node_seq, _ in accepted
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
