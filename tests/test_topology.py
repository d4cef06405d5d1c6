import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rmsalab.config import RunConfig
from rmsalab.errors import TopologyError
from rmsalab.topology import (Link, Topology, k_shortest_paths, load_topology,
                              modulation_for, parse_topology, precompute_paths,
                              required_slots)

from conftest import TRIANGLE_TEXT

REACH = RunConfig().reach_table()
SLOT_GBPS = RunConfig().slot_capacity_gbps


def test_parse_triangle():
    # '#' starts a comment anywhere on a line, as in config files
    commented = ("# a triangle\nnodes 3 # three\n"
                 "link 0 0 1 100  # short hop\n\n"
                 "link 1 1 2 100#\nlink 2 0 2 100\n")
    for text in (TRIANGLE_TEXT, commented):
        topo = parse_topology(text, slot_count=100)
        assert topo.num_nodes == 3
        assert topo.link_count == 3
        assert topo.slot_count == 100
        assert [ln.length_km for ln in topo.links] == [100.0] * 3


def test_nsfnet_shape(nsfnet):
    assert nsfnet.num_nodes == 14
    assert nsfnet.link_count == 21


def test_cost239_shape():
    topo = load_topology("cost239", 100)
    assert topo.num_nodes == 11
    assert topo.link_count == 26


def test_undeclared_node_rejected():
    text = "nodes 3\nlink 0 0 1 100\nlink 1 1 5 100\n"
    with pytest.raises(TopologyError, match="outside 0..2"):
        parse_topology(text, 100)


def test_non_integer_node_rejected():
    text = "nodes 3\nlink 0 0 Z 100\n"
    with pytest.raises(TopologyError, match=":2"):
        parse_topology(text, 100)


def test_malformed_line_reports_line_number():
    # text -> what the error names
    cases = {
        "nodes 3\nlink 0 0 1 100\nlink oops\n": ":3",
        "link 0 0 1 100\n": ":1: expected 'nodes <count>'",
        "# header\nnodes\nlink 0 0 1 100\n": ":2: expected 'nodes <count>'",
        "nodes 2 3\nlink 0 0 1 100\n": ":1: expected 'nodes <count>'",
        "nodes two\nlink 0 0 1 100\n": ":1: node count 'two' is not an integer",
    }
    for text, named in cases.items():
        with pytest.raises(TopologyError, match=named):
            parse_topology(text, 100, source="net.topo")


def test_duplicate_link_rejected():
    text = "nodes 3\nlink 0 0 1 100\nlink 1 1 0 120\nlink 2 1 2 50\n"
    with pytest.raises(TopologyError, match="duplicate link between"):
        parse_topology(text, 100)
    text = "nodes 3\nlink 0 0 1 100\nlink 0 1 2 100\n"
    with pytest.raises(TopologyError, match="duplicate link id 0"):
        parse_topology(text, 100)


@pytest.mark.parametrize("text, message", [
    ("", "empty topology description"),
    ("# only a comment\n\n", "empty topology description"),
    ("nodes 1\n", "need at least 2 nodes, got 1"),
    ("nodes 3\n", "topology has no links"),
    ("nodes 2\nlink 0 1 1 100\n", "link 0 is a self-loop on node 1"),
])
def test_description_without_a_valid_graph_rejected(text, message):
    with pytest.raises(TopologyError, match=f"^net.topo: {message}"):
        parse_topology(text, 100, source="net.topo")


@pytest.mark.parametrize("links, message", [
    # link ids index the spectrum grid, so -1 would alias link 2
    ("link 0 0 1 100\nlink 1 0 2 100\nlink -1 1 2 100\n",
     "link id -1 outside 0..2"),
    ("link 0 0 1 100\nlink 7 1 2 100\n", "link id 7 outside 0..1"),
])
def test_link_id_outside_the_link_count_rejected(links, message):
    with pytest.raises(TopologyError, match=message):
        parse_topology("nodes 3\n" + links, 100)


def test_disconnected_graph_rejected():
    text = "nodes 4\nlink 0 0 1 100\nlink 1 2 3 100\n"
    with pytest.raises(TopologyError, match="not connected"):
        parse_topology(text, 100)


def test_node_count_past_the_link_count_rejected_before_allocating():
    # one list per node would take far more memory than the run has
    text = "nodes 4294967296\nlink 0 0 1 100\n"
    with pytest.raises(TopologyError, match="not connected"):
        parse_topology(text, 100)


def test_zero_length_link_rejected():
    text = "nodes 2\nlink 0 0 1 0\n"
    with pytest.raises(TopologyError, match="non-positive length"):
        parse_topology(text, 100)


@pytest.mark.parametrize("length", ["nan", "inf", "1e400"])
def test_non_finite_link_length_rejected(length):
    # float() reads all three; 1e400 overflows to inf
    text = f"nodes 3\nlink 0 0 1 100\nlink 1 1 2 {length}\n"
    with pytest.raises(TopologyError, match="link 1 has non-finite length"):
        parse_topology(text, 100)


# --- candidate paths -----------------------------------------------------


def test_triangle_two_paths(triangle):
    paths = k_shortest_paths(triangle, 0, 2, 2, REACH)
    assert [p.length_km for p in paths] == [100.0, 200.0]
    assert paths[0].nodes == (0, 2)
    assert paths[1].nodes == (0, 1, 2)


def test_triangle_k_larger_than_path_count(triangle):
    assert len(k_shortest_paths(triangle, 0, 2, 5, REACH)) == 2


def test_same_endpoints_rejected(triangle):
    with pytest.raises(ValueError):
        k_shortest_paths(triangle, 1, 1, 3, REACH)


def _all_simple_paths(topo, src, dst):
    """Brute-force oracle: every simple path as (length, link_ids, nodes)."""
    out = []

    def walk(node, visited, links, length):
        if node == dst:
            out.append((length, tuple(links), tuple(visited)))
            return
        for link_id, nbr, link_len in topo.adjacency[node]:
            if nbr not in visited:
                visited.append(nbr)
                links.append(link_id)
                walk(nbr, visited, links, length + link_len)
                links.pop()
                visited.pop()

    walk(src, [src], [], 0.0)
    out.sort(key=lambda item: (item[0], item[1]))
    return out


@pytest.mark.parametrize("src,dst", [(0, 12), (1, 8), (5, 13), (0, 9)])
def test_nsfnet_matches_bruteforce(nsfnet, src, dst):
    got = k_shortest_paths(nsfnet, src, dst, 5, REACH)
    oracle = _all_simple_paths(nsfnet, src, dst)[:5]
    assert len(got) == 5
    for path, (length, link_ids, nodes) in zip(got, oracle):
        # NSFNET lengths are whole kilometres, so every sum is exact
        assert (path.length_km, path.link_ids, path.nodes) == (length,
                                                               link_ids, nodes)


def _random_topology(rng, num_nodes, lengths, extra_links):
    """A connected graph: a random spanning tree plus ``extra_links`` other
    node pairs, link ids shuffled, each length drawn from ``lengths``."""
    pairs = [(rng.randrange(node), node) for node in range(1, num_nodes)]
    others = [(a, b) for a in range(num_nodes) for b in range(a + 1, num_nodes)
              if (a, b) not in pairs]
    pairs += rng.sample(others, min(extra_links, len(others)))
    ids = list(range(len(pairs)))
    rng.shuffle(ids)
    return Topology(num_nodes, [Link(link_id, a, b, rng.choice(lengths))
                                for link_id, (a, b) in zip(ids, pairs)],
                    slot_count=10)


def _table_digest(table):
    digest = hashlib.sha256()
    for (src, dst), paths in sorted(table.items()):
        for p in paths:
            digest.update(f"{src} {dst} {p.nodes} {p.link_ids} "
                          f"{p.length_km!r} {p.modulation}\n".encode())
    return digest.hexdigest()


# tie-heavy sets: many paths of equal length, ordered by their link ids
TIED_LENGTHS = ((100.0, 200.0, 300.0), (1.0, 2.0), (500.0, 500.0, 700.0))


def test_random_graphs_match_bruteforce():
    rng = random.Random(23)
    for _ in range(24):
        num_nodes = rng.randint(4, 10)
        topo = _random_topology(rng, num_nodes, rng.choice(TIED_LENGTHS),
                                rng.randint(0, num_nodes))
        for src in topo.nodes:
            for dst in topo.nodes:
                if src == dst:
                    continue
                oracle = _all_simple_paths(topo, src, dst)
                for k in (1, 3, 5, 9):
                    got = k_shortest_paths(topo, src, dst, k, REACH)
                    # integer lengths: the oracle's sums are exact too
                    assert [(p.length_km, p.link_ids, p.nodes)
                            for p in got] == oracle[:k]


# sha256 of each table (_table_digest), recorded with the plain form of
# Yen's algorithm, which spurs from every node of every accepted path
BUILTIN_TABLE_SHA256 = {
    ("nsfnet", 5):
        "6160d53e8fe5ae536396f15aef2f41421a1413ce08c5cb01bc4590cff338b81c",
    ("nsfnet", 8):
        "e21eff6118041c0bc312326684a2d32efc8f707d142e84d14a56118f4950c0a3",
    ("cost239", 5):
        "2e1fb6a3df7161a92a4fdd58c74361afeae17becccb13fc50da84e9b5c44f788",
    ("cost239", 8):
        "16f4c234b8266916814df882b0990cce45b63e7fc4d24cdbc69fc39540f22315",
}


@pytest.mark.parametrize("name, k", BUILTIN_TABLE_SHA256)
def test_builtin_path_tables_pinned(name, k):
    table = precompute_paths(load_topology(name, 100), k, REACH)
    assert _table_digest(table) == BUILTIN_TABLE_SHA256[(name, k)]


def test_paths_do_not_depend_on_earlier_searches():
    # a search bounds its pair by the reverse pair's k-th length once the
    # reverse pair has been searched on the same Topology
    links = load_topology("nsfnet", 100).links
    forward, backward = (Topology(14, links, 100) for _ in range(2))
    pairs = [(src, dst) for src in range(14) for dst in range(14) if src != dst]
    table = {pair: k_shortest_paths(forward, *pair, 5, REACH)
             for pair in pairs}
    assert table == {pair: k_shortest_paths(backward, *pair, 5, REACH)
                     for pair in reversed(pairs)}


def test_non_integer_length_tables_pinned():
    # sums of lengths like 0.1 round, so a path's length depends on where
    # the search splits it into root and spur: the pins hold the
    # root_len + spur_len sums, which a left-to-right sum can miss by a bit
    rng = random.Random(5)
    digest = hashlib.sha256()
    for _ in range(12):
        num_nodes = rng.randint(4, 10)
        topo = _random_topology(rng, num_nodes, (0.1, 0.2, 0.3, 0.7, 1.1),
                                rng.randint(0, 2 * num_nodes))
        for k in (1, 3, 5, 9):
            digest.update(_table_digest(
                precompute_paths(topo, k, REACH)).encode())
    assert digest.hexdigest() == (
        "48d910ddc38800f0adaf5886319b7a7a75d9eb32f513a5472206ff59141ca7aa")


def test_thirty_node_tie_heavy_table_pinned():
    # many paths of equal length: the guard against a search whose work
    # grows with their number rather than with k
    topo = _random_topology(random.Random(30), 30, (100.0, 200.0, 300.0), 30)
    assert _table_digest(precompute_paths(topo, 5, REACH)) == (
        "4779e2bfecf894675baf454f2c912bb1d129020a26895323d17a2445f96a3a58")


def test_paths_sorted_loopless_deterministic(nsfnet):
    for src in range(nsfnet.num_nodes):
        for dst in range(nsfnet.num_nodes):
            if src == dst:
                continue
            paths = k_shortest_paths(nsfnet, src, dst, 5, REACH)
            lengths = [p.length_km for p in paths]
            assert lengths == sorted(lengths)
            for p in paths:
                assert len(set(p.nodes)) == len(p.nodes)
                assert p.modulation == modulation_for(p.length_km, REACH)
            again = k_shortest_paths(nsfnet, src, dst, 5, REACH)
            assert [p.link_ids for p in paths] == [p.link_ids for p in again]


def test_precompute_covers_all_ordered_pairs(nsfnet, nsfnet_paths):
    n = nsfnet.num_nodes
    assert len(nsfnet_paths) == n * (n - 1)
    assert all(len(paths) == 5 for paths in nsfnet_paths.values())


# --- modulation and slot count -------------------------------------------


@pytest.mark.parametrize("distance,order", [(400, 4), (625, 4), (626, 3),
                                            (2000, 2), (2500, 2), (5000, 1)])
def test_modulation_table(distance, order):
    assert modulation_for(distance, REACH) == order


def test_modulation_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        modulation_for(0, REACH)


@given(st.floats(min_value=1.0, max_value=20000.0),
       st.floats(min_value=1.0, max_value=20000.0))
def test_modulation_monotone_nonincreasing(d1, d2):
    lo, hi = sorted((d1, d2))
    assert modulation_for(lo, REACH) >= modulation_for(hi, REACH)


@pytest.mark.parametrize("bandwidth,m,n", [(100, 4, 2), (25, 1, 2),
                                           (100, 1, 8), (62.5, 2, 3)])
def test_required_slots_examples(bandwidth, m, n):
    assert required_slots(bandwidth, m, SLOT_GBPS) == n


@given(st.floats(min_value=1.0, max_value=100.0),
       st.integers(min_value=1, max_value=4))
def test_required_slots_properties(bandwidth, m):
    n = required_slots(bandwidth, m, SLOT_GBPS)
    assert n >= 1
    assert n == math.ceil(bandwidth / (m * 12.5))
    if m > 1:
        assert required_slots(bandwidth, m - 1, SLOT_GBPS) >= n
    assert required_slots(min(bandwidth + 10, 110.0), m, SLOT_GBPS) >= n
