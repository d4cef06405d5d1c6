import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmsalab.config import RunConfig
from rmsalab.features import MISSING_BLOCK, StateEncoder, state_length
from rmsalab.spectrum import NetworkSpectrum
from rmsalab.topology import Link, Topology, precompute_paths, required_slots
from rmsalab.traffic import Request

REACH = RunConfig().reach_table()
SLOT_GBPS = RunConfig().slot_capacity_gbps


def make_encoder(topo, mode="flx", k_paths=5, j_blocks=1):
    # in ep mode every encoder here has episodes of N = 50 requests
    return RunConfig(mode=mode, k_paths=k_paths, j_blocks=j_blocks,
                     batch_size=50).encoder(topo)


def test_state_length_formula(nsfnet):
    assert state_length(14, 5, 1, with_position=False) == 54
    assert state_length(14, 5, 1, with_position=True) == 55
    assert make_encoder(nsfnet, "flx").length == 54
    assert make_encoder(nsfnet, "ep").length == 55


@given(nodes=st.integers(2, 20), k=st.integers(1, 6), j=st.integers(1, 4),
       ep=st.booleans())
def test_state_length_invariant(nodes, k, j, ep):
    assert (state_length(nodes, k, j, ep)
            == 2 * nodes + 1 + (2 * j + 3) * k + int(ep))


def test_encoding_layout_and_onehots(nsfnet, nsfnet_paths):
    spectrum = NetworkSpectrum(nsfnet)
    encoder = make_encoder(nsfnet)
    req = Request(0, src=3, dst=9, bandwidth_gbps=100.0, duration=15.0,
                  arrival_time=1.0)
    state = encoder.encode(req, spectrum, nsfnet_paths[(3, 9)])
    assert state.shape == (54,)
    assert state[3] == 1.0 and state[0:14].sum() == 1.0
    assert state[14 + 9] == 1.0 and state[14:28].sum() == 1.0
    assert state[28] == pytest.approx(15.0 / 30.0)  # tau / (2 * mean)
    # empty grid: every path's first usable block starts at 0, spans 100
    for k in range(5):
        group = state[29 + 5 * k: 29 + 5 * (k + 1)]
        start, size, n_scaled, avg, total = group
        assert start == 0.0
        assert size == 1.0
        path = nsfnet_paths[(3, 9)][k]
        n = required_slots(100.0, path.modulation, SLOT_GBPS)
        assert n_scaled == pytest.approx(n / 8)
        assert avg == 1.0 and total == 1.0
    assert np.all(state >= -1.0) and np.all(state <= 1.0)


def test_duration_scaling_clips_at_one(nsfnet, nsfnet_paths):
    spectrum = NetworkSpectrum(nsfnet)
    encoder = make_encoder(nsfnet)
    req = Request(0, 0, 1, 50.0, duration=400.0, arrival_time=0.0)
    state = encoder.encode(req, spectrum, nsfnet_paths[(0, 1)])
    assert state[28] == 1.0


def test_position_indicator_in_episode_mode(nsfnet, nsfnet_paths):
    spectrum = NetworkSpectrum(nsfnet)
    encoder = make_encoder(nsfnet, "ep")
    req = Request(0, 0, 1, 50.0, 10.0, 0.0)
    # request id i - 1 is at position i of an episode, 1-based
    first = encoder.encode(req, spectrum, nsfnet_paths[(0, 1)])
    last = encoder.encode(req._replace(id=49), spectrum,
                          nsfnet_paths[(0, 1)])
    assert first[-1] == 1.0
    assert last[-1] == pytest.approx(0.02)


@pytest.mark.parametrize("episode_length", [None, 0])
def test_episode_mode_needs_an_episode_length(nsfnet, episode_length):
    with pytest.raises(ValueError, match="position"):
        StateEncoder(nsfnet, k_paths=5, j_blocks=1, mode="ep",
                     mean_duration=15.0, slot_capacity_gbps=SLOT_GBPS,
                     bandwidth_max_gbps=100.0, episode_length=episode_length)


def test_flx_mode_ignores_position(nsfnet, nsfnet_paths):
    spectrum = NetworkSpectrum(nsfnet)
    encoder = make_encoder(nsfnet, "flx")
    req = Request(0, 0, 1, 50.0, 10.0, 0.0)
    state = encoder.encode(req, spectrum, nsfnet_paths[(0, 1)])
    assert state.shape == (54,)


def test_saturated_path_encodes_missing_block_sentinel(line, set_grid):
    paths = precompute_paths(line, 1, REACH)
    spectrum = NetworkSpectrum(line)
    set_grid(spectrum, True)
    encoder = make_encoder(line, k_paths=1)
    req = Request(0, 0, 2, 50.0, 10.0, 0.0)
    state = encoder.encode(req, spectrum, paths[(0, 2)])
    base = 2 * 3 + 1
    assert state[base] == MISSING_BLOCK[0] == -1.0
    assert state[base + 1] == MISSING_BLOCK[1] == 0.0
    # average block size and total free slots are zero on a full grid
    assert state[base + 3] == 0.0 and state[base + 4] == 0.0


def test_blocks_reported_are_usable_for_this_demand(line, set_grid):
    # free blocks sized 1 and 3; a 2-slot demand must see the 3-slot block
    paths = precompute_paths(line, 1, REACH)
    spectrum = NetworkSpectrum(line)
    set_grid(spectrum, True, free=[0, 5, 6, 7])
    encoder = make_encoder(line, k_paths=1)
    req = Request(0, 0, 2, 100.0, 10.0, 0.0)  # n = 2 at modulation 4
    state = encoder.encode(req, spectrum, paths[(0, 2)])
    base = 2 * 3 + 1
    assert state[base] == pytest.approx(5 / 10)
    assert state[base + 1] == pytest.approx(3 / 10)
    # stats still describe all free blocks
    assert state[base + 3] == pytest.approx(2 / 10)   # mean of sizes 1 and 3
    assert state[base + 4] == pytest.approx(4 / 10)


def test_path_average_and_total_free_slots(line, set_grid):
    paths = precompute_paths(line, 1, REACH)
    spectrum = NetworkSpectrum(line)
    encoder = make_encoder(line, k_paths=1)
    req = Request(0, 0, 2, 50.0, 10.0, 0.0)
    avg_total = slice(2 * 3 + 1 + 3, 2 * 3 + 1 + 5)
    # free blocks of 2 and 1 slots: average 1.5, total 3, over 10 slots
    set_grid(spectrum, True, free=[2, 3, 8])
    state = encoder.encode(req, spectrum, paths[(0, 2)])
    assert state[avg_total].tolist() == pytest.approx([0.15, 0.3])
    # a full path has neither
    set_grid(spectrum, True)
    state = encoder.encode(req, spectrum, paths[(0, 2)])
    assert state[avg_total].tolist() == [0.0, 0.0]


def test_missing_candidate_paths_encode_as_sentinels(triangle):
    paths = precompute_paths(triangle, 5, REACH)
    spectrum = NetworkSpectrum(triangle)
    encoder = make_encoder(triangle)
    req = Request(0, 0, 2, 50.0, 10.0, 0.0)
    state = encoder.encode(req, spectrum, paths[(0, 2)])
    assert len(paths[(0, 2)]) == 2
    base = 2 * 3 + 1
    for k in (2, 3, 4):  # nonexistent paths
        group = state[base + 5 * k: base + 5 * (k + 1)]
        assert group[0] == -1.0
        assert list(group[1:]) == [0.0, 0.0, 0.0, 0.0]


def test_encoding_is_pure(nsfnet, nsfnet_paths, set_grid):
    spectrum = NetworkSpectrum(nsfnet)
    rng = np.random.default_rng(3)
    set_grid(spectrum, rng.random((nsfnet.link_count, nsfnet.slot_count))
             < 0.3)
    encoder = make_encoder(nsfnet)
    req = Request(5, 2, 11, 77.0, 12.0, 9.0)
    a = encoder.encode(req, spectrum, nsfnet_paths[(2, 11)])
    b = encoder.encode(req, spectrum, nsfnet_paths[(2, 11)])
    assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), ep=st.booleans())
def test_encoding_stays_in_unit_range(nsfnet, nsfnet_paths, set_grid, seed,
                                     ep):
    rng = np.random.default_rng(seed)
    spectrum = NetworkSpectrum(nsfnet)
    set_grid(spectrum, rng.random((nsfnet.link_count, nsfnet.slot_count))
             < rng.random())
    encoder = make_encoder(nsfnet, "ep" if ep else "flx")
    src, dst = rng.choice(14, size=2, replace=False)
    req = Request(int(rng.integers(0, 1000)), int(src), int(dst),
                  float(rng.uniform(25, 100)), float(rng.exponential(15.0)),
                  0.0)
    state = encoder.encode(req, spectrum, nsfnet_paths[(src, dst)])
    assert state.shape == (encoder.length,)
    assert np.all(state >= -1.0) and np.all(state <= 1.0)
    assert state[0:14].sum() == 1.0 and state[14:28].sum() == 1.0


def reference_encode(encoder, req, spectrum, paths, episode_length=None):
    """The per-path encoder loop over ``block_spans`` arrays, kept as the
    reference ``StateEncoder.encode`` must match bit for bit."""
    n_nodes = encoder.node_count
    f0 = float(encoder.slot_count)
    out = np.zeros(encoder.length, dtype=np.float64)
    out[req.src] = 1.0
    out[n_nodes + req.dst] = 1.0
    out[2 * n_nodes] = min(req.duration / encoder.tau_scale, 1.0)
    base = 2 * n_nodes + 1
    group = 2 * encoder.j_blocks + 3
    for k in range(encoder.k_paths):
        offset = base + k * group
        if k < len(paths):
            path = paths[k]
            n_slots = required_slots(req.bandwidth_gbps, path.modulation,
                                     encoder.slot_capacity_gbps)
            starts, sizes = spectrum.block_spans(path)
            usable = np.flatnonzero(sizes >= n_slots)
            for j in range(encoder.j_blocks):
                if j < usable.size:
                    out[offset + 2 * j] = starts[usable[j]] / f0
                    out[offset + 2 * j + 1] = sizes[usable[j]] / f0
                else:
                    out[offset + 2 * j] = MISSING_BLOCK[0]
                    out[offset + 2 * j + 1] = MISSING_BLOCK[1]
            out[offset + 2 * encoder.j_blocks] = n_slots / encoder.max_slots
            total = int(sizes.sum())
            avg = total / sizes.size if sizes.size else 0.0
            out[offset + 2 * encoder.j_blocks + 1] = avg / f0
            out[offset + 2 * encoder.j_blocks + 2] = total / f0
        else:
            for j in range(encoder.j_blocks):
                out[offset + 2 * j] = MISSING_BLOCK[0]
                out[offset + 2 * j + 1] = MISSING_BLOCK[1]
    if encoder.with_position:
        pos_i, pos_n = req.id % episode_length + 1, episode_length
        out[-1] = (pos_n - pos_i + 1) / pos_n
    return out


@pytest.mark.parametrize("j_blocks", [1, 2, 3])
@pytest.mark.parametrize("mode", ["ep", "flx"])
@pytest.mark.parametrize("topo_name", ["nsfnet", "triangle"])
def test_vectorised_encoding_matches_per_path_reference(
        request, set_grid, topo_name, mode, j_blocks):
    topo = request.getfixturevalue(topo_name)
    table = precompute_paths(topo, 5, REACH)
    encoder = make_encoder(topo, mode, k_paths=5, j_blocks=j_blocks)
    spectrum = NetworkSpectrum(topo)
    rng = np.random.default_rng(j_blocks)
    pairs = list(table)
    shape = (topo.link_count, topo.slot_count)
    # empty and full grids first, then random ones of random density
    for trial in range(60):
        fill = 0.0 if trial == 0 else 1.0 if trial == 1 else rng.random()
        set_grid(spectrum, rng.random(shape) < fill)
        for _ in range(3):
            src, dst = pairs[int(rng.integers(len(pairs)))]
            req = Request(int(rng.integers(0, 1000)), src, dst,
                          float(rng.uniform(25, 100)),
                          float(rng.exponential(15.0)), 0.0)
            paths = table[(src, dst)]
            expected = reference_encode(encoder, req, spectrum, paths, 50)
            assert np.array_equal(encoder.encode(req, spectrum, paths),
                                  expected)
    # the triangle offers fewer than K paths, NSFNET all K
    assert {len(p) for p in table.values()} == (
        {2} if topo_name == "triangle" else {5})
