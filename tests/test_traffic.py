import math

import numpy as np
import pytest

from rmsalab.config import RunConfig
from rmsalab.errors import ConfigError
from rmsalab.traffic import DepartureQueue, Request, RequestStream


def make_stream(seed, arrival_rate=10.0, mean_duration=15.0, nodes=14):
    cfg = RunConfig(arrival_rate=arrival_rate,
                    mean_duration=mean_duration).traffic()
    return RequestStream(cfg, nodes, np.random.default_rng(seed))


def test_config_validation():
    # traffic settings are validated where they are derived
    with pytest.raises(ConfigError, match="arrival_rate"):
        RunConfig(arrival_rate=0.0).traffic()
    with pytest.raises(ConfigError, match="mean_duration"):
        RunConfig(mean_duration=-1.0).traffic()
    with pytest.raises(ConfigError, match="bandwidth_min"):
        RunConfig(bandwidth_min=50.0, bandwidth_max=25.0).traffic()


def test_fixed_seed_reproduces_sequence():
    first = [make_stream(123).next() for _ in range(1)]
    a = make_stream(123)
    b = make_stream(123)
    for _ in range(200):
        assert a.next() == b.next()
    assert first[0] == make_stream(123).next()


def test_ids_monotone_and_clock_advances():
    stream = make_stream(7)
    prev_time = 0.0
    for i in range(100):
        req = stream.next()
        assert req.id == i
        assert req.arrival_time > prev_time
        prev_time = req.arrival_time
        assert req.src != req.dst
        assert 25.0 <= req.bandwidth_gbps <= 100.0
        assert req.duration > 0


def test_empirical_means_within_two_percent():
    samples = 100_000
    stream = make_stream(42)
    requests = [stream.next() for _ in range(samples)]
    mean_interarrival = requests[-1].arrival_time / samples
    assert abs(mean_interarrival - 0.1) / 0.1 < 0.02
    mean_duration = np.mean([r.duration for r in requests])
    assert abs(mean_duration - 15.0) / 15.0 < 0.02


def test_endpoint_histogram_close_to_uniform():
    samples = 100_000
    nodes = 6
    stream = make_stream(9, nodes=nodes)
    counts = np.zeros((nodes, nodes))
    for _ in range(samples):
        req = stream.next()
        counts[req.src, req.dst] += 1
    assert np.trace(counts) == 0
    expected = samples / (nodes * (nodes - 1))
    off_diag = counts[~np.eye(nodes, dtype=bool)]
    assert np.all(np.abs(off_diag - expected) / expected < 0.10)


def reference_stream(cfg, nodes, rng, count):
    """The demand stream drawn one numpy call per quantity, with the
    bandwidth through ``rng.uniform``."""
    now = 0.0
    requests = []
    for request_id in range(count):
        arrival = now + rng.exponential(1.0 / cfg.arrival_rate)
        src = int(rng.integers(nodes))
        dst = int(rng.integers(nodes - 1))
        if dst >= src:
            dst += 1
        bandwidth = float(rng.uniform(cfg.bandwidth_min, cfg.bandwidth_max))
        duration = float(rng.exponential(cfg.mean_duration))
        requests.append((request_id, src, dst, bandwidth, duration, arrival))
        now = arrival
    return requests


@pytest.mark.parametrize("seed,bandwidth_range",
                         [(0, (25.0, 100.0)), (7919, (10.0, 400.0)),
                          (2024, (40.0, 40.0))])
def test_stream_matches_one_call_per_draw_reference(seed, bandwidth_range):
    cfg = RunConfig(bandwidth_min=bandwidth_range[0],
                    bandwidth_max=bandwidth_range[1]).traffic()
    nodes = 14
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    stream = RequestStream(cfg, nodes, rng)
    fields = ("id", "src", "dst", "bandwidth_gbps", "duration",
              "arrival_time")
    for expected in reference_stream(cfg, nodes, ref_rng, 10_000):
        req = stream.next()
        got = tuple(getattr(req, name) for name in fields)
        assert got == expected
        assert list(map(type, got)) == list(map(type, expected))
    # the same draws consumed: a later caller of the rng sees no change
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def assert_matches_reference(cfg, nodes, rng, ref_rng, count):
    """The stream on ``rng`` gives the reference's requests, and both
    generators end in the same state (compared with ``assert_equal``,
    since MT19937's state holds an array)."""
    stream = RequestStream(cfg, nodes, rng)
    got = [tuple(stream.next()) for _ in range(count)]
    assert got == reference_stream(cfg, nodes, ref_rng, count)
    np.testing.assert_equal(rng.bit_generator.state,
                            ref_rng.bit_generator.state)


# 2**31 + 2 nodes: about half of all endpoint draws reject and redraw, so a
# generator's buffered 32-bit half is carried across requests
@pytest.mark.parametrize("nodes", [2, 14, 2**31 + 2])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("buffered", [False, True])
def test_stream_matches_reference_on_every_bit_generator(nodes, bit_generator,
                                                         buffered):
    cfg = RunConfig().traffic()
    rng = np.random.Generator(bit_generator(1905))
    ref_rng = np.random.Generator(bit_generator(1905))
    if buffered:
        # one 32-bit draw first: the generators that split 64-bit words
        # now hold the other half, which the stream's first draw must use
        rng.integers(3)
        ref_rng.integers(3)
        if bit_generator is np.random.PCG64:
            assert rng.bit_generator.state["has_uint32"] == 1
    assert_matches_reference(cfg, nodes, rng, ref_rng, 2000)


def test_node_count_bound_is_two_to_the_32():
    cfg = RunConfig().traffic()
    # the largest bound numpy draws from one 32-bit word: no rejection for
    # src, Lemire's threshold of 1 for dst
    assert_matches_reference(cfg, 2**32, np.random.default_rng(3),
                             np.random.default_rng(3), 2000)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        RequestStream(cfg, 2**32 + 1, np.random.default_rng(3))


def test_request_is_immutable():
    req = Request(0, src=1, dst=2, bandwidth_gbps=50.0, duration=3.0,
                  arrival_time=4.0)
    with pytest.raises(AttributeError):
        req.src = 5
    assert req.src == 1


# --- departure queue ------------------------------------------------------


def test_pop_expired_in_time_order():
    queue = DepartureQueue()
    queue.push(3.0, 30)
    queue.push(1.0, 10)
    queue.push(2.0, 20)
    assert queue.pop_expired(2.0) == [10, 20]
    assert queue.pop_expired(2.0) == []
    assert queue.pop_expired(10.0) == [30]
    assert queue.pop_expired(math.inf) == []


def test_pop_expired_empty_queue():
    assert DepartureQueue().pop_expired(5.0) == []


def test_equal_expiry_breaks_ties_by_id():
    queue = DepartureQueue()
    queue.push(1.0, 7)
    queue.push(1.0, 3)
    queue.push(1.0, 5)
    assert queue.pop_expired(1.0) == [3, 5, 7]
