import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rmsalab.config import RunConfig
from rmsalab.errors import ContractViolation
from rmsalab.spectrum import NetworkSpectrum
from rmsalab.topology import k_shortest_paths

REACH = RunConfig().reach_table()


@pytest.fixture
def line_spectrum(line):
    return NetworkSpectrum(line)


def _two_link_path(line):
    return k_shortest_paths(line, 0, 2, 1, REACH)[0]


def _one_link_path(line, src, dst):
    return k_shortest_paths(line, src, dst, 1, REACH)[0]


def spans(spectrum, path):
    """(start, size) of every maximal free block along ``path``."""
    starts, sizes = spectrum.block_spans(path)
    return list(zip(starts.tolist(), sizes.tolist()))


def test_available_blocks_intersection(line, line_spectrum, set_grid):
    # link 0 free slots {1,2,3,7,8}; link 1 free slots {2,3,4,8,9}
    grid = np.ones((2, 10), dtype=bool)
    grid[0, [1, 2, 3, 7, 8]] = False
    grid[1, [2, 3, 4, 8, 9]] = False
    set_grid(line_spectrum, grid)
    assert spans(line_spectrum, _two_link_path(line)) == [(2, 2), (8, 1)]


def test_all_free_grid_single_block(nsfnet, nsfnet_paths):
    spectrum = NetworkSpectrum(nsfnet)
    assert spans(spectrum, nsfnet_paths[(0, 5)][0]) == [(0, 100)]


def test_fully_occupied_no_blocks(line, line_spectrum, set_grid):
    set_grid(line_spectrum, True)
    assert spans(line_spectrum, _two_link_path(line)) == []


@pytest.mark.parametrize("n,expected", [(3, 8), (2, 3), (6, None), (5, 8)])
def test_first_fit(n, expected, nsfnet, nsfnet_paths, set_grid):
    spectrum = NetworkSpectrum(nsfnet)
    path = nsfnet_paths[(0, 5)][0]
    set_grid(spectrum, True, free=[3, 4, 8, 9, 10, 11, 12])
    assert spans(spectrum, path) == [(3, 2), (8, 5)]
    blocks = spectrum.path_blocks(path, n, 1)[0]
    assert (blocks[0][0] if blocks else None) == expected


def test_allocate_removes_block(line, line_spectrum):
    path = _two_link_path(line)
    line_spectrum.allocate(path, 2, 3, lightpath_id=1)
    assert spans(line_spectrum, path) == [(0, 2), (5, 5)]


def test_allocate_shrinks_other_paths_sharing_a_link(line, line_spectrum):
    line_spectrum.allocate(_one_link_path(line, 0, 1), 0, 4, 1)
    assert spans(line_spectrum, _two_link_path(line)) == [(4, 6)]
    assert spans(line_spectrum, _one_link_path(line, 1, 2)) == [(0, 10)]


def test_double_allocate_same_range_rejected(line, line_spectrum):
    path = _two_link_path(line)
    line_spectrum.allocate(path, 0, 2, 1)
    with pytest.raises(ContractViolation, match="overlap"):
        line_spectrum.allocate(path, 0, 2, 2)


def test_duplicate_lightpath_id_rejected(line, line_spectrum):
    path = _two_link_path(line)
    line_spectrum.allocate(path, 0, 2, 1)
    with pytest.raises(ContractViolation, match="already active"):
        line_spectrum.allocate(path, 5, 2, 1)


def test_release_restores_occupancy(line, line_spectrum):
    path = _two_link_path(line)
    before = line_spectrum.dump()
    line_spectrum.allocate(path, 3, 4, lightpath_id=7)
    assert line_spectrum.dump() != before
    line_spectrum.release(7)
    assert line_spectrum.dump() == before
    with pytest.raises(ContractViolation, match="not active"):
        line_spectrum.release(7)


def test_release_unknown_rejected(line_spectrum):
    with pytest.raises(ContractViolation, match="not active"):
        line_spectrum.release(42)


def test_release_order_does_not_matter(line, line_spectrum):
    path = _two_link_path(line)
    empty = line_spectrum.dump()
    for order in ((1, 2, 3), (3, 1, 2)):
        line_spectrum.allocate(path, 0, 2, 1)
        line_spectrum.allocate(path, 2, 2, 2)
        line_spectrum.allocate(path, 4, 2, 3)
        for lightpath_id in order:
            line_spectrum.release(lightpath_id)
        assert line_spectrum.dump() == empty


def test_usable_block_spans_filters_small_blocks(line, line_spectrum,
                                                 set_grid):
    set_grid(line_spectrum, True, free=[0, 3, 4, 5, 9])
    path = _two_link_path(line)
    assert spans(line_spectrum, path) == [(0, 1), (3, 3), (9, 1)]
    # the only block that holds 2 slots is the one of size 3 at slot 3
    assert line_spectrum.path_blocks(path, 2, 2)[0] == [(3, 3)]
    assert line_spectrum.path_blocks(path, 1, 4)[0] == [(0, 1), (3, 3),
                                                        (9, 1)]


def test_allocate_release_random_sequences_identity(nsfnet, nsfnet_paths):
    rng = np.random.default_rng(11)
    spectrum = NetworkSpectrum(nsfnet)
    baseline = spectrum.dump()
    pairs = list(nsfnet_paths)
    active = {}
    next_id = 0
    for _ in range(600):
        if active and rng.random() < 0.45:
            lightpath_id = int(rng.choice(list(active)))
            n, links = active.pop(lightpath_id)
            spectrum.release(lightpath_id)
        else:
            pair = pairs[int(rng.integers(len(pairs)))]
            path = nsfnet_paths[pair][int(rng.integers(5))]
            n = int(rng.integers(1, 9))
            blocks = spectrum.path_blocks(path, n, 1)[0]
            if not blocks:
                continue
            spectrum.allocate(path, blocks[0][0], n, next_id)
            active[next_id] = (n, len(path.link_ids))
            next_id += 1
        # occupied slot total always matches the live lightpath records
        expected = sum(n * links for n, links in active.values())
        assert spectrum.occupied_slot_count() == expected
    for lightpath_id in sorted(active):
        spectrum.release(lightpath_id)
    assert spectrum.dump() == baseline


def test_blocks_are_maximal_disjoint_and_reconstruct_mask(nsfnet,
                                                          nsfnet_paths,
                                                          set_grid):
    rng = np.random.default_rng(5)
    spectrum = NetworkSpectrum(nsfnet)
    grid = rng.random((nsfnet.link_count, nsfnet.slot_count)) < 0.4
    set_grid(spectrum, grid)
    for pair in [(0, 5), (3, 9), (12, 2)]:
        for path in nsfnet_paths[pair]:
            mask = ~grid[list(path.link_ids)].any(axis=0)
            blocks = spans(spectrum, path)
            rebuilt = np.zeros_like(mask)
            prev_end = -1
            for start, size in blocks:
                assert size >= 1
                assert start > prev_end  # disjoint and sorted
                # maximal: bordered by occupied slots or the grid edge
                if start > 0:
                    assert not mask[start - 1]
                end = start + size
                if end < mask.size:
                    assert not mask[end]
                rebuilt[start:end] = True
                prev_end = end
            assert np.array_equal(rebuilt, mask)
            # block 0 is the minimal feasible start, block j the j-th
            # feasible one
            for n in (1, 3, 8):
                feasible = [b for b, z in blocks if z >= n]
                first = spectrum.path_blocks(path, n, 1)[0]
                assert [b for b, _ in first] == (
                    [min(feasible)] if feasible else [])
                for j in range(3):
                    got = spectrum.path_blocks(path, n, j + 1)[0]
                    assert [b for b, _ in got] == feasible[:j + 1]


def test_path_blocks_match_block_spans_of_each_path(nsfnet, nsfnet_paths,
                                                    set_grid):
    rng = np.random.default_rng(8)
    spectrum = NetworkSpectrum(nsfnet)
    for fill in (0.0, 1.0, 0.2, 0.5, 0.8):
        set_grid(spectrum, rng.random((nsfnet.link_count, nsfnet.slot_count))
                 < fill)
        for pair in [(0, 5), (3, 9), (12, 2), (6, 7)]:
            paths = nsfnet_paths[pair]
            assert len({len(p.link_ids) for p in paths}) > 1  # hop counts
            for path in paths:
                starts, sizes = spectrum.block_spans(path)
                assert np.all(np.diff(starts) > 0)  # slot order
                blocks = list(zip(starts.tolist(), sizes.tolist()))
                for n in (1, 2, 5, 8):
                    usable = [b for b in blocks if b[1] >= n]
                    for limit in (0, 1, 3):
                        assert spectrum.path_blocks(path, n, limit) == (
                            usable[:limit], int(sizes.sum()), len(blocks))


def scan_blocks(free):
    """Maximal free runs of a list of per-slot flags, as (start, size)
    pairs, by a plain slot-by-slot scan."""
    blocks = []
    run = 0
    for slot, ok in enumerate(list(free) + [False]):
        if ok:
            run += 1
        elif run:
            blocks.append((slot - run, run))
            run = 0
    return blocks


LINE_SLOTS = 10
EDGE_BLOCKS = [True] * 2 + [False] * 6 + [True] * 2  # slots 0-1 and 8-9 free


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(used=st.lists(st.lists(st.booleans(), min_size=LINE_SLOTS,
                              max_size=LINE_SLOTS), min_size=2, max_size=2),
       n=st.integers(1, LINE_SLOTS), j=st.integers(0, 3))
@example(used=[[False] * LINE_SLOTS] * 2, n=LINE_SLOTS, j=0)  # empty
@example(used=[[False] * LINE_SLOTS] * 2, n=1, j=1)
@example(used=[[True] * LINE_SLOTS] * 2, n=1, j=0)  # full
@example(used=[[not f for f in EDGE_BLOCKS], [False] * LINE_SLOTS],
         n=2, j=1)  # blocks touching slot 0 and slot S - 1
@example(used=[[not f for f in EDGE_BLOCKS], [False] * LINE_SLOTS],
         n=3, j=0)  # n above the largest block
def test_block_query_matches_a_slot_scan(line, used, n, j):
    spectrum = NetworkSpectrum(line)
    for link_id, row in enumerate(used):
        for slot, is_used in enumerate(row):
            if is_used:
                single = _one_link_path(line, link_id, link_id + 1)
                spectrum.allocate(single, slot, 1, 100 * link_id + slot)
    # two single-link paths and the two-link path
    for path in (_one_link_path(line, 0, 1), _one_link_path(line, 1, 2),
                 _two_link_path(line)):
        free = [not any(used[i][s] for i in path.link_ids)
                for s in range(LINE_SLOTS)]
        blocks = scan_blocks(free)
        usable = [b for b in blocks if b[1] >= n]
        assert spans(spectrum, path) == blocks
        assert spectrum.path_blocks(path, n, j + 1) == (
            usable[:j + 1], sum(free), len(blocks))


def test_block_query_rejects_bad_demand(nsfnet, nsfnet_paths):
    # n = 0 must not fit, also when no block is asked for; a negative
    # block index never reaches the query, since step rejects the action
    spectrum = NetworkSpectrum(nsfnet)
    path = nsfnet_paths[(0, 5)][0]
    spectrum.allocate(path, 10, 5, lightpath_id=1)
    for n in (0, -3):
        with pytest.raises(ContractViolation, match="slot count"):
            spectrum.path_blocks(path, n, 0)
        with pytest.raises(ContractViolation, match="slot count"):
            spectrum.path_blocks(path, n, 1)


def test_overlapping_allocate_writes_no_link(line, line_spectrum):
    # the conflict is on the path's last link only, so a write before
    # every link is checked would show on the first
    line_spectrum.allocate(_one_link_path(line, 1, 2), 4, 2, 1)
    before = line_spectrum.dump()
    with pytest.raises(ContractViolation, match="overlap"):
        line_spectrum.allocate(_two_link_path(line), 3, 3, 2)
    assert line_spectrum.dump() == before
    assert line_spectrum.occupied_slot_count() == 2
    with pytest.raises(ContractViolation, match="not active"):
        line_spectrum.release(2)
    line_spectrum.release(1)
    assert line_spectrum.occupied_slot_count() == 0


def test_dump_is_zero_one_rows(line, line_spectrum):
    line_spectrum.allocate(_one_link_path(line, 0, 1), 0, 3, 9)
    rows = line_spectrum.dump().splitlines()
    assert rows == ["1110000000", "0000000000"]
    line_spectrum.allocate(_two_link_path(line), 5, 2, 10)
    assert line_spectrum.dump() == "1110011000\n0000011000"
