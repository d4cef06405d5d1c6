"""Experiment front-end.

Subcommands: ``train`` (learning run), ``baseline`` (SP-FF / KSP-FF over
a fixed request count), ``eval`` (greedy replay of a checkpoint without
training), ``summarize`` (comparison table over metrics files). All
artifacts land under ``--out``: ``metrics.csv``, ``checkpoint-<epoch>``
files for training runs, and ``summary.txt``.

Exit codes: 0 success, 1 configuration problem (including a missing or
malformed topology), 2 runtime failure.

OpenBLAS's thread count is left to the environment, since importing a
library must not change a process-wide setting; the pinned results hold
at ``OPENBLAS_NUM_THREADS=1``, and more threads can round differently.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import BASELINE_MODES, LEARNING_MODES, RunConfig, load_config
from .env import RmsaEnv
from .errors import ConfigError
from .neuralnet import forward_policy, load_checkpoint
from .trainer import METRICS_COLUMNS, MetricsWriter, pooled_trailing_blocking


def _write_summary(out_dir: Path, cfg: RunConfig, label: str, entries: dict,
                   total: int, blocked: int, pooled: int,
                   trailing: float) -> None:
    """Write ``summary.txt``: label, mode, seed, ``entries``, the request
    and blocked counts and their share (``nan`` for no requests), then the
    blocking share ``trailing`` over the ``pooled`` trailing requests."""
    entries = {"run": label, "mode": cfg.mode, "seed": cfg.seed, **entries,
               "requests_total": total, "requests_blocked": blocked,
               "blocking_probability":
                   blocked / total if total else float("nan"),
               f"trailing_blocking_{pooled}": trailing}
    (out_dir / "summary.txt").write_text(
        "".join(f"{k} = {v}\n" for k, v in entries.items()))


def _simulate(cfg: RunConfig, env: RmsaEnv, out_dir: Path, decide,
              label: str) -> None:
    """Drive one request-at-a-time run, logging one row per 1000 requests."""
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = MetricsWriter(out_dir / "metrics.csv")
    try:
        for i in range(1, cfg.num_requests + 1):
            req = env.arrive()
            decide(req)
            if i % 1000 == 0:
                metrics.write_row(i // 1000, 0, env.stats, cfg.metrics_window)
    finally:
        metrics.close()
    stats = env.stats
    _write_summary(out_dir, cfg, label, {}, stats.total, stats.blocked,
                   *pooled_trailing_blocking([stats], cfg.stats_window))
    print(f"{label}: blocking probability {stats.blocking_probability():.6f} "
          f"over {stats.total} requests")


def cmd_train(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.used").write_text(cfg.to_text())
    result = cfg.train(*cfg.network(), out_dir=out_dir, progress=True)
    _write_summary(out_dir, cfg, "train", {"epochs": result.final_epoch},
                   result.total_requests, result.total_blocked,
                   *result.trailing_blocking)
    print(f"train[{cfg.mode}]: {result.final_epoch} epochs, "
          f"{result.total_requests} requests, "
          f"blocking {result.blocking_probability:.6f} "
          f"(trailing {result.trailing_blocking[1]:.6f})")
    return 0


def cmd_baseline(cfg: RunConfig, out_dir: Path) -> int:
    env = cfg.env(*cfg.network())
    decide = env.sp_ff if cfg.mode == "spff" else env.ksp_ff
    _simulate(cfg, env, out_dir, decide, f"baseline-{cfg.mode}")
    return 0


def cmd_eval(cfg: RunConfig, out_dir: Path) -> int:
    if not cfg.checkpoint:
        raise ConfigError("checkpoint: eval needs a checkpoint path "
                          "(config key or --checkpoint)")
    try:
        params = load_checkpoint(cfg.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"checkpoint: {exc}") from None
    topo, paths = cfg.network()
    encoder = cfg.encoder(topo)
    if encoder.length != params.spec.input_dim:
        raise ConfigError(
            f"checkpoint: input width {params.spec.input_dim} does not match "
            f"this config's state length {encoder.length}")
    if params.spec.action_count != cfg.k_paths * cfg.j_blocks:
        raise ConfigError(
            f"checkpoint: action count {params.spec.action_count} does not "
            f"match k_paths * j_blocks = {cfg.k_paths * cfg.j_blocks}")

    env = cfg.env(topo, paths)

    def decide(req) -> None:
        state = encoder.encode(req, env.spectrum, env.candidate_paths(req))
        action = int(np.argmax(forward_policy(params, state)))
        env.step(req, action)

    _simulate(cfg, env, out_dir, decide, "eval")
    return 0


def _read_metrics(path: Path) -> list[dict]:
    parsed = {"epoch": int, "blocking_prob": float, "value_loss": float}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read metrics file {path}: {exc}") from None
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty metrics file") from None
    if tuple(header) != METRICS_COLUMNS:
        raise ConfigError(f"{path}: unexpected header {header}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(METRICS_COLUMNS):
            raise ConfigError(
                f"{path}:{lineno}: expected {len(METRICS_COLUMNS)} "
                f"fields, got {len(row)}")
        try:
            rows.append({name: parse(row[METRICS_COLUMNS.index(name)])
                         for name, parse in parsed.items()})
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: malformed row {row}"
                              ) from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return rows


def cmd_summarize(paths: list[Path], tail: int) -> int:
    """Final-window blocking per run plus reduction relative to the first."""
    results = []
    for path in paths:
        rows = _read_metrics(path)
        window = rows[-tail:]
        blocking = sum(r["blocking_prob"] for r in window) / len(window)
        results.append((str(path), blocking))
    name_width = max(len(name) for name, _ in results)
    print(f"{'run'.ljust(name_width)}  blocking    reduction_vs_first")
    reference = results[0][1]
    for i, (name, blocking) in enumerate(results):
        if i == 0 or reference == 0:
            delta = "-"
        else:
            delta = f"{(reference - blocking) / reference * 100.0:+.1f}%"
        print(f"{name.ljust(name_width)}  {blocking:.6f}    {delta}")
    return 0


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Copy each given flag that is named after a ``RunConfig`` field."""
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


# run subcommand -> (handler, the modes it accepts, help text)
COMMANDS = {
    "train": (cmd_train, LEARNING_MODES, "run a learning experiment"),
    "baseline": (cmd_baseline, BASELINE_MODES, "run a heuristic baseline"),
    "eval": (cmd_eval, LEARNING_MODES, "greedy replay of a checkpoint"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmsalab",
        description="Elastic optical network provisioning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (_, modes, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run config file")
        p.add_argument("--out", default="out", help="artifact directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=modes, default=None)
        if name == "train":
            p.add_argument("--epochs", type=int, default=None)
        if name == "eval":
            p.add_argument("--checkpoint", default=None,
                           help="parameter checkpoint to load")

    p_sum = sub.add_parser("summarize", help="compare metrics files")
    p_sum.add_argument("metrics", nargs="+", help="metrics.csv paths")
    p_sum.add_argument("--tail", type=int, default=50,
                       help="rows of the final window (default 50)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "summarize":
            if args.tail < 1:
                raise ConfigError("tail: must be >= 1")
            return cmd_summarize([Path(p) for p in args.metrics], args.tail)
        handler, modes, _ = COMMANDS[args.command]
        cfg = _apply_overrides(load_config(args.config), args)
        if cfg.mode not in modes:
            raise ConfigError(f"mode: {args.command} needs one of "
                              f"{'|'.join(modes)}, got {cfg.mode!r}")
        return handler(cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - report and exit non-zero
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
