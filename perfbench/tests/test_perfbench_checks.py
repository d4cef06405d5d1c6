"""The output checks trip on wrong results."""

import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for entry in (BENCH, BENCH.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def declared_units(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_check_pin_reports_a_wrong_count():
    assert workloads.check_pin("kspff", 0, 4259) is None
    assert "pinned 4259" in workloads.check_pin("kspff", 0, 4258)
    assert workloads.check_pin("kspff", 12345, 1) is None


def test_run_fails_on_a_wrong_pinned_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "PINNED_BLOCKED", {"kspff": {0: 4260}})
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    # main() sets these for the process; put them back afterwards
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    code = run.main(["--workload", "kspff", "--seed", "0",
                     "--seconds", "0.01"])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert "pinned 4260" in captured.err
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == declared_units("end_to_end"))


def test_layer_metrics_match_benchmark_json():
    metrics = layers.layer_metrics({}, requests=1, epochs=1, overshoot=0,
                                   overhead_share=0.0)
    assert ({name: m["unit"] for name, m in metrics.items()}
            == declared_units("per_layer"))


def test_shadow_grid_catches_a_wrong_placement():
    fx = workloads.set_up(workloads.run_config("kspff", 0), False)
    env = fx.new_env()
    shadow = workloads.ShadowGrid(fx.topology.link_count,
                                  fx.topology.slot_count,
                                  fx.cfg.slot_capacity_gbps)
    for _ in range(50):
        req = env.arrive()
        outcome = env.ksp_ff(req)
        shadow.check(req, fx.paths[(req.src, req.dst)], outcome, None)
    assert shadow.error is None and shadow.checked == 50
    req = env.arrive()
    outcome = env.ksp_ff(req)
    assert outcome.accepted
    moved = dataclasses.replace(outcome, start_slot=outcome.start_slot + 1)
    shadow.check(req, fx.paths[(req.src, req.dst)], moved, None)
    assert shadow.error is not None and "reference first-fit" in shadow.error
