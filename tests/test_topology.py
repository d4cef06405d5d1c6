import math

import pytest
from hypothesis import given, settings, strategies as st

from rmsalab.config import RunConfig
from rmsalab.errors import TopologyError
from rmsalab.topology import (CandidatePath, k_shortest_paths, load_topology,
                              modulation_for, parse_topology, precompute_paths,
                              required_slots)

from conftest import TRIANGLE_TEXT

REACH = RunConfig().reach_table()
SLOT_GBPS = RunConfig().slot_capacity_gbps


def test_parse_triangle():
    topo = parse_topology(TRIANGLE_TEXT, slot_count=100)
    assert topo.num_nodes == 3
    assert topo.link_count == 3
    assert topo.slot_count == 100


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
    text = "nodes 3\nlink 0 0 1 100\nlink oops\n"
    with pytest.raises(TopologyError, match=":3"):
        parse_topology(text, 100)


def test_duplicate_link_rejected():
    text = "nodes 3\nlink 0 0 1 100\nlink 1 1 0 120\nlink 2 1 2 50\n"
    with pytest.raises(TopologyError, match="duplicate link"):
        parse_topology(text, 100)


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


def test_zero_length_link_rejected():
    text = "nodes 2\nlink 0 0 1 0\n"
    with pytest.raises(TopologyError, match="non-positive length"):
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
        assert path.link_ids == link_ids
        assert path.nodes == nodes
        assert path.length_km == pytest.approx(length)


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
