"""Benchmark entry point.

    python3 perfbench/run.py --workload kspff --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the run measures the end-to-end metrics with
nothing wrapped. With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, plus the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Details, the
provenance record and, for traced runs, the raw spans go to
``perfbench/out/``. Exit code 0 on a correct run, 1 when an output check
fails, 2 when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Pinned before numpy loads, so the actor threads are the only compute
# threads: OpenBLAS would otherwise start its own pool per process.
BLAS_THREADS = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True,
                        choices=("kspff", "eval-greedy", "train-flx"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


# ---- provenance ------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the package's files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((src / "rmsalab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        return "unknown"


def provenance(np, cfg, workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(np),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "topology": cfg.topology,
        "run_config": cfg.to_text(),
    }


# ---- measuring -------------------------------------------------------------

def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    """One invocation: its workload, budget and what it found."""

    def __init__(self, args, w):
        self.args = args
        self.w = w
        self.workload = args.workload
        self.cfg = w.run_config(args.workload, args.seed)
        self.errors: list[str] = []
        self.attempted = 0
        self.notes: dict = {}
        self.deadline = 0.0

    def start_clock(self) -> None:
        self.deadline = time.perf_counter() + self.args.seconds

    def more(self, last_seconds: float) -> bool:
        """Whether another unit of ``last_seconds`` fits in the budget."""
        return time.perf_counter() + last_seconds <= self.deadline


def decide_notes(run: Run, passes) -> None:
    """Sample counts, and p99, which is printed but not a gated metric:
    above p90 the latency of a decision is set by other tenants of the
    host, in spells that last seconds."""
    run.notes.update(
        decide_samples=sum(p.requests for p in passes),
        decide_p99_us_lowest_pass=round(min(p.p99_us for p in passes), 3),
        pass_p99_us=[round(p.p99_us, 2) for p in passes])


def request_workload(run: Run, tracing) -> dict:
    """kspff and eval-greedy: a checked pass, then timed passes."""
    w = run.w
    greedy = run.workload == "eval-greedy"
    requests = w.KSPFF_REQUESTS if not greedy else w.GREEDY_REQUESTS
    fx, set_ups = w.timed_set_ups(run.cfg, greedy)
    reference, errors = w.run_pass(fx, requests, greedy, check=True)
    run.errors += errors
    pin_error = w.check_pin(run.workload, run.args.seed, reference.blocked)
    if pin_error:
        run.errors.append(pin_error)
    run.notes["blocked_per_pass"] = reference.blocked
    run.notes["requests_per_pass"] = requests

    passes, traced_passes = [], []
    run.start_clock()
    while True:
        result, errors = w.run_pass(fx, requests, greedy)
        run.errors += errors
        passes.append(result)
        if tracing is not None:
            with tracing:
                traced_fx = w.set_up(run.cfg, greedy)
                traced, errors = w.run_pass(traced_fx, requests, greedy)
            run.errors += errors
            traced_passes.append(traced)
        if not run.more(result.seconds * (2 if tracing else 1)):
            break
    for result in passes + traced_passes:
        run.attempted += result.requests
        if result.blocked != reference.blocked:
            run.errors.append(f"a pass blocked {result.blocked}, the checked "
                              f"pass {reference.blocked}: not deterministic")

    if tracing is not None:
        untraced = statistics.median(p.req_per_s for p in passes)
        traced = statistics.median(p.req_per_s for p in traced_passes)
        return tracing.report(
            requests=sum(p.requests for p in traced_passes), epochs=0,
            overshoot=0, overhead_share=1.0 - traced / untraced)

    run.notes.update(passes=len(passes), set_ups=len(set_ups),
                     pass_req_per_s=[round(p.req_per_s) for p in passes])
    decide_notes(run, passes)
    return {
        "setup_s": metric(statistics.median(set_ups), "s"),
        "req_per_s": metric(statistics.median(p.req_per_s for p in passes),
                            "1/s"),
        "decide_p50_us": metric(
            statistics.median(p.p50_us for p in passes), "us"),
        "decide_p90_us": metric(
            statistics.median(p.p90_us for p in passes), "us"),
        # the epoch rmsalab baseline/eval log: one metrics.csv row per
        # 1000 requests
        "epochs_per_s": metric(
            statistics.median(p.req_per_s for p in passes) / 1000.0, "1/s"),
        "blocking": metric(reference.blocked / requests, "share"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def train_workload(run: Run, tracing) -> dict:
    """train-flx: repeated training calls, each followed by a checked
    greedy probe of the trained policy."""
    w = run.w
    fx, set_ups = w.timed_set_ups(run.cfg, True)
    out_dir = OUT_DIR / f"train-flx-seed{run.args.seed}"
    calls, traced_calls, probes = [], [], []
    run.start_clock()
    while True:
        result, errors = w.train(fx, out_dir)
        run.errors += errors
        calls.append(result)
        run.attempted += result.requests
        if tracing is not None:
            with tracing:
                traced_fx = w.set_up(run.cfg, True)
                traced, errors = w.train(traced_fx, out_dir)
            run.errors += errors
            traced_calls.append(traced)
            run.attempted += traced.requests
        else:
            probe, errors = w.run_pass(fx, w.PROBE_REQUESTS, True,
                                       params=result.params, check=True)
            run.errors += errors
            probes.append(probe)
            run.attempted += probe.requests
        if not run.more(result.seconds * (2 if tracing else 1)):
            break
    run.notes["final_epochs"] = [c.epochs for c in calls + traced_calls]
    run.notes["epoch_overshoot"] = [c.epochs - run.cfg.epochs
                                    for c in calls + traced_calls]

    if tracing is not None:
        untraced = statistics.median(c.epochs_per_s for c in calls)
        traced = statistics.median(c.epochs_per_s for c in traced_calls)
        return tracing.report(
            requests=sum(c.requests for c in traced_calls),
            epochs=sum(c.epochs for c in traced_calls),
            overshoot=traced_calls[-1].epochs - run.cfg.epochs,
            overhead_share=1.0 - traced / untraced)

    run.notes.update(calls=len(calls), set_ups=len(set_ups),
                     call_epochs_per_s=[round(c.epochs_per_s, 1) for c in calls])
    decide_notes(run, probes)
    return {
        "setup_s": metric(statistics.median(set_ups), "s"),
        "req_per_s": metric(statistics.median(c.req_per_s for c in calls),
                            "1/s"),
        "decide_p50_us": metric(
            statistics.median(p.p50_us for p in probes), "us"),
        "decide_p90_us": metric(
            statistics.median(p.p90_us for p in probes), "us"),
        "epochs_per_s": metric(
            statistics.median(c.epochs_per_s for c in calls), "1/s"),
        "blocking": metric(statistics.median(c.blocking for c in calls),
                           "share"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


class Tracing:
    """Context manager for one traced pass: wrappers in on entry, out on
    exit, with a check that none is left behind."""

    def __init__(self, tracer_mod, layers_mod):
        self.tracer_mod = tracer_mod
        self.layers = layers_mod
        self.tracer = tracer_mod.Tracer()
        self.missing: list[str] = []

    def __enter__(self):
        self.patcher = self.tracer_mod.Patcher(self.tracer)
        self.patcher.install(self.layers.TARGETS)
        self.missing = self.patcher.missing
        return self

    def __exit__(self, *exc):
        self.patcher.remove()
        left = self.tracer_mod.leftover_wrappers()
        if left:
            raise RuntimeError(f"tracer wrappers left behind: {left}")
        return False

    def report(self, **counts) -> dict:
        return self.layers.layer_metrics(self.tracer.totals(), **counts)


def print_table(metrics: dict, notes: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    for name, value in notes.items():
        print(f"  # {name}: {value}")


def print_spans(totals: dict) -> None:
    print(f"  {'span':28s} {'calls':>9s} {'self cpu us':>12s} "
          f"{'self wall us':>13s} {'incl wall us':>13s}")
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1].cpu_self):
        print(f"  {name:28s} {t.calls:9d} {1e6 * t.cpu_self / t.calls:12.2f} "
              f"{1e6 * t.wall_self / t.calls:13.2f} "
              f"{1e6 * t.wall / t.calls:13.2f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rmsalab" / "__init__.py").is_file():
        print(f"perfbench: no rmsalab package under {SRC}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import numpy as np
    import rmsalab
    if Path(rmsalab.__file__).resolve().parent != (SRC / "rmsalab").resolve():
        print(f"perfbench: imported rmsalab from {rmsalab.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    import layers
    import tracer
    import workloads

    run = Run(args, workloads)
    record = provenance(np, run.cfg, args.workload, args.seed, args.trace)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(record, sort_keys=True))

    tracing = Tracing(tracer, layers) if args.trace else None
    body = train_workload if args.workload == "train-flx" else request_workload
    metrics = body(run, tracing)

    print_table(metrics, run.notes)
    if tracing is not None:
        print_spans(tracing.tracer.totals())
        if tracing.missing:
            print(f"  # spans not found in the program: {tracing.missing}")
    for error in run.errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)

    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": 0, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"provenance": record, "result": result, "notes": run.notes,
              "errors": run.errors}
    if tracing is not None:
        detail["span_totals"] = {
            name: vars(t) for name, t in tracing.tracer.totals().items()}
        detail["spans"] = tracing.tracer.spans()
        detail["spans_missing"] = tracing.missing
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail))
    print(json.dumps(result))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
