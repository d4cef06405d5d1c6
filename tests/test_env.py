import dataclasses
import math

import numpy as np
import pytest

from rmsalab.config import RunConfig
from rmsalab.env import BlockingStats
from rmsalab.topology import precompute_paths, required_slots
from rmsalab.traffic import Request

REACH = RunConfig().reach_table()
SLOT_GBPS = RunConfig().slot_capacity_gbps


def make_env(topo, paths, seed=0, k_paths=5, j_blocks=1):
    return RunConfig(k_paths=k_paths, j_blocks=j_blocks,
                     seed=seed).env(topo, paths)


@pytest.fixture
def nsf_env(nsfnet, nsfnet_paths):
    return make_env(nsfnet, nsfnet_paths)


def fixed_request(src=0, dst=5, bandwidth=100.0, duration=10.0, arrival=1.0,
                  req_id=0):
    return Request(req_id, src, dst, bandwidth, duration, arrival)


def test_step_accepts_on_empty_grid(nsf_env):
    req = fixed_request()
    out = nsf_env.step(req, action=0)
    assert out.accepted and out.reward == 1.0
    assert out.path_index == 0 and out.start_slot == 0
    assert out.n_slots == required_slots(
        100.0, nsf_env.candidate_paths(req)[0].modulation, SLOT_GBPS)
    # one departure is scheduled: lightpath 0, the first one provisioned
    assert nsf_env.release_due(math.inf) == [0]


def test_outcome_is_a_slotted_dataclass(nsf_env):
    out = nsf_env.step(fixed_request(), action=0)
    # perfbench's shadow-grid test forges a wrong placement this way
    moved = dataclasses.replace(out, start_slot=out.start_slot + 1)
    assert (moved.accepted, moved.path_index, moved.start_slot,
            moved.n_slots, moved.reward) == (
        out.accepted, out.path_index, out.start_slot + 1, out.n_slots,
        out.reward)
    # one outcome is built per request; slots keep that cheap
    assert not hasattr(out, "__dict__")


def test_departure_scheduled_at_arrival_plus_duration(nsf_env):
    req = fixed_request(duration=7.5, arrival=2.0)
    nsf_env.step(req, action=0)
    assert nsf_env.release_due(9.4) == []
    released = nsf_env.release_due(9.5)
    assert released == [0]
    assert nsf_env.spectrum.occupied_slot_count() == 0


def test_blocked_request_leaves_state_unchanged(nsfnet, nsfnet_paths, grid):
    env = make_env(nsfnet, nsfnet_paths)
    # saturate path 3 of a pair, then ask for it explicitly
    req = fixed_request(src=0, dst=5)
    path = env.candidate_paths(req)[3]
    env.spectrum.allocate(path, 0, 100, lightpath_id=999)
    before = grid(env.spectrum)
    out = env.step(req, action=3)
    assert not out.accepted and out.reward == -1.0
    assert out.start_slot is None and out.n_slots is None
    assert grid(env.spectrum) == before
    # and no departure is scheduled
    assert env.release_due(math.inf) == []
    assert env.stats.blocked == 1


def test_action_out_of_range_rejected(nsf_env):
    for action in (5, -1):
        with pytest.raises(ValueError, match="outside"):
            nsf_env.step(fixed_request(), action=action)


def test_action_on_missing_path_blocks(triangle):
    paths = precompute_paths(triangle, 5, REACH)
    env = make_env(triangle, paths)
    req = fixed_request(src=0, dst=2)
    out = env.step(req, action=4)  # only 2 simple paths exist
    assert not out.accepted and out.reward == -1.0


def test_sp_ff_uses_only_shortest_path(nsfnet, nsfnet_paths):
    env = make_env(nsfnet, nsfnet_paths)
    req = fixed_request(src=0, dst=5)
    shortest = env.candidate_paths(req)[0]
    env.spectrum.allocate(shortest, 0, 100, lightpath_id=999)
    out = env.sp_ff(req)
    assert not out.accepted  # an alternate path is free but never tried
    out2 = env.ksp_ff(fixed_request(req_id=1))
    assert out2.accepted and out2.path_index >= 1


def test_sp_ff_on_empty_grid(nsf_env):
    out = nsf_env.sp_ff(fixed_request())
    assert out.accepted and out.path_index == 0 and out.start_slot == 0


def test_sp_ff_equivalent_to_step_action_zero(nsfnet, nsfnet_paths, grid):
    env_a = make_env(nsfnet, nsfnet_paths, seed=5)
    env_b = make_env(nsfnet, nsfnet_paths, seed=5)
    for _ in range(2000):
        req_a = env_a.arrive()
        req_b = env_b.arrive()
        assert req_a == req_b
        out_a = env_a.sp_ff(req_a)
        out_b = env_b.step(req_b, action=0)
        assert out_a.accepted == out_b.accepted
        assert out_a.start_slot == out_b.start_slot
    assert grid(env_a.spectrum) == grid(env_b.spectrum)


def test_ksp_blocks_only_when_all_paths_full(triangle):
    paths = precompute_paths(triangle, 2, REACH)
    env = make_env(triangle, paths, k_paths=2)
    req = fixed_request(src=0, dst=2)
    for i, path in enumerate(env.candidate_paths(req)):
        env.spectrum.allocate(path, 0, 100, lightpath_id=900 + i)
    out = env.ksp_ff(req)
    assert not out.accepted and out.path_index is None


def test_ksp_accepts_superset_of_sp_decisions(nsfnet, nsfnet_paths):
    # paired envs on an identical stream: whenever SP-FF can service a
    # request, KSP-FF must service it too
    sp_env = make_env(nsfnet, nsfnet_paths, seed=21)
    ksp_env = make_env(nsfnet, nsfnet_paths, seed=21)
    sp_feasible_total = 0
    for _ in range(20_000):
        sp_req = sp_env.arrive()
        ksp_req = ksp_env.arrive()
        # feasibility of SP on the KSP env state is what KSP must dominate
        path0 = ksp_env.candidate_paths(ksp_req)[0]
        n = required_slots(ksp_req.bandwidth_gbps, path0.modulation,
                           SLOT_GBPS)
        sp_would_fit = bool(ksp_env.spectrum.path_blocks(path0, n, 1)[0])
        out = ksp_env.ksp_ff(ksp_req)
        if sp_would_fit:
            sp_feasible_total += 1
            assert out.accepted
        sp_env.sp_ff(sp_req)
    assert sp_feasible_total > 0
    assert (ksp_env.stats.blocking_probability()
            <= sp_env.stats.blocking_probability())


def erlang_b(servers, load):
    """Erlang's loss formula, by its recursion over the server count."""
    blocking = 1.0
    for n in range(1, servers + 1):
        blocking = load * blocking / (n + load * blocking)
    return blocking


def test_ksp_ff_on_one_link_is_an_erlang_loss_system(tmp_path):
    # one link of 10 slots and one-slot demands (12.5 Gbps at any
    # modulation): KSP-FF accepts a request whenever a slot is free, so
    # the link is an M/M/10/10 loss system at 1.0 * 8.0 = 8 Erlang
    topo = tmp_path / "pair.topo"
    topo.write_text("nodes 2\nlink 0 0 1 100\n")
    cfg = RunConfig(topology=str(topo), slot_count=10, k_paths=1,
                    bandwidth_min=12.5, bandwidth_max=12.5, arrival_rate=1.0,
                    mean_duration=8.0)
    env = cfg.env(*cfg.network())
    for _ in range(100_000):
        env.ksp_ff(env.arrive())
    assert erlang_b(10, 8.0) == pytest.approx(0.12166, abs=1e-5)
    # 100k requests at seeds 0-9 read 0.1211 on average, with a standard
    # deviation of 0.0022 between seeds, so the bound 0.009 is about 4 of
    # them; releasing departures after the decision instead of before it
    # reads about 0.16
    assert (abs(env.stats.blocking_probability() - erlang_b(10, 8.0))
            < 0.009)


@pytest.mark.parametrize("j_blocks", [1, 3])
def test_step_matches_single_path_first_fit(nsfnet, nsfnet_paths, set_grid,
                                            j_blocks):
    # every action (k, j) places at the j-th usable block of path k alone,
    # or blocks when that path has none
    env = make_env(nsfnet, nsfnet_paths, j_blocks=j_blocks)
    rng = np.random.default_rng(13)
    pairs = list(nsfnet_paths)
    placed = 0
    for trial in range(40):
        grid = (rng.random((nsfnet.link_count, nsfnet.slot_count))
                < rng.random())
        src, dst = pairs[int(rng.integers(len(pairs)))]
        req = fixed_request(src, dst, bandwidth=float(rng.uniform(25, 100)),
                            req_id=trial)
        paths = env.candidate_paths(req)
        for action in range(env.action_count):
            set_grid(env.spectrum, grid)
            k, j = divmod(action, j_blocks)
            n = required_slots(req.bandwidth_gbps, paths[k].modulation,
                               SLOT_GBPS)
            # every maximal block of path k, then the ones that hold n
            feasible = [start for start, size in env.spectrum.path_blocks(
                paths[k], 1, nsfnet.slot_count)[0] if size >= n]
            expected = feasible[j] if j < len(feasible) else None
            out = env.step(req, action)
            assert out.path_index == k
            assert out.accepted == (expected is not None)
            assert out.start_slot == expected
            placed += out.accepted
    assert 0 < placed < 40 * env.action_count


def test_allocate_and_release_refresh_the_shared_view(nsf_env):
    # encode and step read the grid through one block query; a change
    # through allocate or release must show in the next encode and step
    encoder = RunConfig().encoder(nsf_env.topology)
    spectrum = nsf_env.spectrum
    req = fixed_request()
    paths = nsf_env.candidate_paths(req)

    def first_block_start():
        return encoder.encode(req, spectrum, paths)[2 * 14 + 1]

    assert first_block_start() == 0.0
    spectrum.allocate(paths[0], 0, 10, lightpath_id=900)
    assert first_block_start() == pytest.approx(0.1)
    out = nsf_env.step(req, action=0)
    assert out.start_slot == 10
    spectrum.release(900)
    assert first_block_start() == 0.0
    assert nsf_env.step(req, action=0).start_slot == 0


def test_cumulative_reward_matches_counts(nsf_env):
    rng = np.random.default_rng(0)
    reward_sum = 0.0
    for _ in range(3000):
        req = nsf_env.arrive()
        out = nsf_env.step(req, int(rng.integers(5)))
        assert out.reward in (1.0, -1.0)
        reward_sum += out.reward
    stats = nsf_env.stats
    assert reward_sum == (stats.total - stats.blocked) - stats.blocked


# --- blocking stats --------------------------------------------------------


def test_blocking_probability_examples():
    stats = BlockingStats(window_cap=10_000)
    for i in range(1000):
        stats.record(accepted=i >= 10)
    assert stats.blocking_probability() == pytest.approx(0.01)
    clean = BlockingStats(window_cap=10_000)
    clean.record(True)
    assert clean.blocking_probability() == 0.0


def test_blocking_probability_empty_is_error():
    with pytest.raises(ValueError, match="empty"):
        BlockingStats(window_cap=10_000).blocking_probability()


def test_windowed_blocking_and_reward():
    stats = BlockingStats(window_cap=100)
    for _ in range(50):
        stats.record(False)
    for _ in range(100):
        stats.record(True)
    assert stats.blocking_probability() == pytest.approx(50 / 150)
    assert stats.blocking_probability(window=100) == 0.0
    assert stats.window_reward(100) == 100.0
    with pytest.raises(ValueError, match="exceeds"):
        stats.blocking_probability(window=101)


def test_window_wraps_ring_buffer():
    stats = BlockingStats(window_cap=8)
    pattern = [True, False] * 10
    for accepted in pattern:
        stats.record(accepted)
    total, blocked = stats.window_counts(8)
    assert total == 8 and blocked == 4
    total, blocked = stats.window_counts(3)
    assert total == 3 and blocked in (1, 2)  # depends on parity of tail
    assert blocked == sum(not a for a in pattern[-3:])
