import numpy as np
import pytest

from rmsalab.config import RunConfig
from rmsalab.errors import ConfigError
from rmsalab.traffic import DepartureQueue, RequestStream, next_request


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


def test_next_request_uses_now_offset():
    cfg = RunConfig().traffic()
    rng = np.random.default_rng(0)
    req = next_request(rng, cfg, 5, now=100.0, request_id=3)
    assert req.arrival_time > 100.0
    assert req.id == 3


# --- departure queue ------------------------------------------------------


def test_pop_expired_in_time_order():
    queue = DepartureQueue()
    queue.push(3.0, 30)
    queue.push(1.0, 10)
    queue.push(2.0, 20)
    assert queue.pop_expired(2.0) == [10, 20]
    assert len(queue) == 1
    assert queue.pop_expired(10.0) == [30]


def test_pop_expired_empty_queue():
    assert DepartureQueue().pop_expired(5.0) == []


def test_equal_expiry_breaks_ties_by_id():
    queue = DepartureQueue()
    queue.push(1.0, 7)
    queue.push(1.0, 3)
    queue.push(1.0, 5)
    assert queue.pop_expired(1.0) == [3, 5, 7]
