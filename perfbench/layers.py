"""Which program functions the traced run wraps, and the per-layer
metrics derived from their spans.

Layer times are self thread-CPU time per call: the work the layer itself
did, without its wrapped callees and without time spent waiting for the
interpreter lock. The two ``*_wait_us`` metrics are self wall time per
call, which is time spent waiting for the parameter lock plus the few
statements around it.
"""

from __future__ import annotations

from tracer import SpanTotals

# (span name, module, attribute). The actor loop span is only used for
# trainer.wait_share.
TARGETS = (
    ("topology.precompute_paths", "rmsalab.topology", "precompute_paths"),
    ("traffic.next", "rmsalab.traffic", "RequestStream.next"),
    ("traffic.pop_expired", "rmsalab.traffic", "DepartureQueue.pop_expired"),
    ("spectrum.block_spans", "rmsalab.spectrum", "NetworkSpectrum.block_spans"),
    ("spectrum.allocate", "rmsalab.spectrum", "NetworkSpectrum.allocate"),
    ("spectrum.release", "rmsalab.spectrum", "NetworkSpectrum.release"),
    ("env.arrive", "rmsalab.env", "RmsaEnv.arrive"),
    ("env.ksp_ff", "rmsalab.env", "RmsaEnv.ksp_ff"),
    ("env.step", "rmsalab.env", "RmsaEnv.step"),
    ("features.encode", "rmsalab.features", "StateEncoder.encode"),
    ("neuralnet.forward_policy", "rmsalab.neuralnet", "forward_policy"),
    ("neuralnet.forward_value", "rmsalab.neuralnet", "forward_value"),
    ("neuralnet.backward", "rmsalab.neuralnet", "backward"),
    ("neuralnet.adam", "rmsalab.neuralnet", "adam_apply"),
    ("neuralnet.copy_weights", "rmsalab.neuralnet", "ParamSet.copy_weights_from"),
    ("trainer.roulette", "rmsalab.trainer", "roulette_select"),
    ("trainer.sync", "rmsalab.trainer", "ParamStore.sync_into"),
    ("trainer.apply", "rmsalab.trainer", "ParamStore.apply"),
    ("trainer.actor", "rmsalab.trainer", "run_actor_learner_flx"),
)

# per-layer metric name -> (span, statistic, unit)
SPAN_METRICS = {
    "topology.precompute_paths_ms": ("topology.precompute_paths", "cpu", "ms"),
    "traffic.next_us": ("traffic.next", "cpu", "us"),
    "traffic.pop_expired_us": ("traffic.pop_expired", "cpu", "us"),
    "spectrum.block_spans_us": ("spectrum.block_spans", "cpu", "us"),
    "spectrum.allocate_us": ("spectrum.allocate", "cpu", "us"),
    "spectrum.release_us": ("spectrum.release", "cpu", "us"),
    "env.arrive_us": ("env.arrive", "cpu", "us"),
    "env.ksp_ff_us": ("env.ksp_ff", "cpu", "us"),
    "env.step_us": ("env.step", "cpu", "us"),
    "features.encode_us": ("features.encode", "cpu", "us"),
    "neuralnet.forward_policy_us": ("neuralnet.forward_policy", "cpu", "us"),
    "neuralnet.forward_value_us": ("neuralnet.forward_value", "cpu", "us"),
    "neuralnet.backward_ms": ("neuralnet.backward", "cpu", "ms"),
    "neuralnet.adam_ms": ("neuralnet.adam", "cpu", "ms"),
    "neuralnet.copy_weights_us": ("neuralnet.copy_weights", "cpu", "us"),
    "trainer.roulette_us": ("trainer.roulette", "cpu", "us"),
    "trainer.sync_wait_us": ("trainer.sync", "wall", "us"),
    "trainer.apply_wait_us": ("trainer.apply", "wall", "us"),
}

UNIT_SCALE = {"ms": 1e3, "us": 1e6}

# the rest of the per-layer metrics, with their units
DERIVED_UNITS = {
    "spectrum.block_spans_per_req": "count",
    "trainer.syncs_per_epoch": "count",
    "trainer.wait_share": "share",
    "trainer.epoch_overshoot": "count",
    "trace.overhead_share": "share",
}


def self_time_per_call(totals: SpanTotals | None, clock: str,
                       unit: str) -> float:
    """Mean self time of one call; 0.0 for a layer that did not run."""
    if totals is None or totals.calls == 0:
        return 0.0
    total = totals.cpu_self if clock == "cpu" else totals.wall_self
    return UNIT_SCALE[unit] * total / totals.calls


def layer_metrics(totals: dict[str, SpanTotals], *, requests: int,
                  epochs: int, overshoot: int,
                  overhead_share: float) -> dict[str, dict]:
    """Every per-layer metric from the traced run's span totals.

    ``requests`` and ``epochs`` are what the traced passes did; a layer
    that a workload never calls reports 0.
    """
    out = {}
    for metric, (span, clock, unit) in SPAN_METRICS.items():
        out[metric] = {"value": self_time_per_call(totals.get(span), clock,
                                                   unit), "unit": unit}

    def calls(span: str) -> int:
        t = totals.get(span)
        return t.calls if t is not None else 0

    actor = totals.get("trainer.actor")
    wait_share = 0.0
    if actor is not None and actor.wall > 0:
        wait_share = 1.0 - actor.cpu / actor.wall
    derived = {
        "spectrum.block_spans_per_req":
            calls("spectrum.block_spans") / requests if requests else 0.0,
        "trainer.syncs_per_epoch":
            calls("trainer.sync") / epochs if epochs else 0.0,
        "trainer.wait_share": wait_share,
        "trainer.epoch_overshoot": overshoot,
        "trace.overhead_share": overhead_share,
    }
    for metric, value in derived.items():
        out[metric] = {"value": value, "unit": DERIVED_UNITS[metric]}
    return out
