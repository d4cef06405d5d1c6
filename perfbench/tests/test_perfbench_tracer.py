"""Tracer arithmetic and wrapper removal."""

import sys
import threading
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for entry in (BENCH, BENCH.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import rmsalab.neuralnet  # noqa: E402
import rmsalab.trainer  # noqa: E402
from rmsalab.spectrum import NetworkSpectrum  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Patcher, Tracer, leftover_wrappers  # noqa: E402


class FakeClock:
    """Per-thread wall and CPU clocks that move only when told to."""

    def __init__(self):
        self._local = threading.local()

    def _now(self):
        if not hasattr(self._local, "now"):
            self._local.now = [0.0, 0.0]
        return self._local.now

    def advance(self, wall, cpu):
        now = self._now()
        now[0] += wall
        now[1] += cpu

    def wall(self):
        return self._now()[0]

    def cpu(self):
        return self._now()[1]


def nested(tracer, clock, scale=1.0, meet=None):
    """outer: 2 wall / 2 cpu, inner (3 / 1), 5 / 4, inner again."""
    inner = tracer.wrap("inner", lambda: clock.advance(3 * scale, 1 * scale))

    def outer_body():
        clock.advance(2 * scale, 2 * scale)
        if meet is not None:
            meet.wait(timeout=5)
        inner()
        clock.advance(5 * scale, 4 * scale)
        inner()

    return tracer.wrap("outer", outer_body)


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(wall_clock=clock.wall, cpu_clock=clock.cpu)
    nested(tracer, clock)()
    totals = tracer.totals()
    inner, outer = totals["inner"], totals["outer"]
    assert (inner.calls, inner.wall, inner.wall_self) == (2, 6.0, 6.0)
    assert (inner.cpu, inner.cpu_self) == (2.0, 2.0)
    assert (outer.calls, outer.wall, outer.wall_self) == (1, 13.0, 7.0)
    assert (outer.cpu, outer.cpu_self) == (8.0, 6.0)
    parents = {(s["name"], s["parent"]) for s in tracer.spans()}
    assert parents == {("inner", "outer"), ("outer", None)}


def test_self_time_across_two_threads():
    clock = FakeClock()
    tracer = Tracer(wall_clock=clock.wall, cpu_clock=clock.cpu)
    # both outer spans are open at once, so a shared stack would make
    # one thread's outer span the parent of the other's
    meet = threading.Barrier(2)
    calls = [nested(tracer, clock, scale, meet) for scale in (1.0, 10.0)]
    threads = [threading.Thread(target=c, name=f"t{i}")
               for i, c in enumerate(calls)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)

    totals = tracer.totals()
    assert (totals["outer"].calls, totals["inner"].calls) == (2, 4)
    assert totals["outer"].wall_self == 7.0 + 70.0
    assert totals["outer"].cpu_self == 6.0 + 60.0
    assert totals["inner"].wall_self == 6.0 + 60.0
    spans = tracer.spans()
    assert {(s["name"], s["parent"]) for s in spans} == {
        ("inner", "outer"), ("outer", None)}
    for s in spans:
        scale = 1.0 if s["thread"] == "t0" else 10.0
        expected = {"inner": 3.0, "outer": 7.0}[s["name"]] * scale
        assert s["wall_self"] == expected


def tiny_training(tmp_path):
    cfg = workloads.run_config("train-flx", 0)
    cfg.epochs = 3
    fx = workloads.set_up(cfg, True)
    return workloads.train(fx, tmp_path / "train")


def test_every_wrapper_is_removed(tmp_path):
    originals = {
        "forward_policy": rmsalab.neuralnet.forward_policy,
        "block_spans": NetworkSpectrum.__dict__["block_spans"],
        "loop": rmsalab.trainer.run_actor_learner_flx,
    }
    tracer = Tracer()
    patcher = Patcher(tracer)
    try:
        patcher.install(layers.TARGETS)
        assert patcher.missing == []
        # by-name imports and the loop table are patched too
        assert rmsalab.trainer.forward_policy is not originals["forward_policy"]
        assert (rmsalab.trainer._WORKER_LOOPS["flx"]
                is not originals["loop"])
        fx = workloads.set_up(workloads.run_config("eval-greedy", 0), True)
        workloads.run_pass(fx, 200, greedy=True)
        _, errors = tiny_training(tmp_path)
        assert errors == []
    finally:
        patcher.remove()
    assert leftover_wrappers() == []
    assert rmsalab.trainer.forward_policy is originals["forward_policy"]
    assert rmsalab.neuralnet.forward_policy is originals["forward_policy"]
    assert NetworkSpectrum.__dict__["block_spans"] is originals["block_spans"]
    assert rmsalab.trainer._WORKER_LOOPS["flx"] is originals["loop"]

    seen = {name: t.calls for name, t in tracer.totals().items()}
    for span in ("features.encode", "neuralnet.backward", "neuralnet.adam",
                 "trainer.sync", "trainer.actor", "trainer.roulette"):
        assert seen.get(span, 0) > 0, span
    # an untraced pass after removal records nothing
    fx = workloads.set_up(workloads.run_config("eval-greedy", 0), True)
    workloads.run_pass(fx, 200, greedy=True)
    tiny_training(tmp_path)
    assert {name: t.calls for name, t in tracer.totals().items()} == seen
