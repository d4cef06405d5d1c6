from dataclasses import fields

import numpy as np
import pytest

import rmsalab.topology as topology_mod
from rmsalab.cli import main
from rmsalab.config import RunConfig, load_config, parse_config
from rmsalab.errors import ConfigError


def write_config(path, **overrides):
    cfg = RunConfig(**overrides)
    path.write_text(cfg.to_text())
    return cfg


# --- config parsing ---------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = RunConfig(mode="ep", epochs=42, learning_rate=3e-6, seed=9,
                    share_hidden=True, topology="cost239")
    path = tmp_path / "run.cfg"
    path.write_text(cfg.to_text())
    again = load_config(path)
    assert again == cfg
    # and a second round trip is stable
    assert parse_config(again.to_text()) == cfg


def test_defaults_match_reference_experiment():
    cfg = RunConfig()
    assert (cfg.k_paths, cfg.j_blocks) == (5, 1)
    assert (cfg.gamma, cfg.entropy_weight, cfg.batch_size,
            cfg.learning_rate, cfg.workers) == (0.95, 0.01, 50, 1e-5, 16)
    assert (cfg.hidden_layers, cfg.hidden_width) == (5, 128)
    assert (cfg.arrival_rate, cfg.mean_duration) == (10.0, 15.0)
    assert cfg.slot_count == 100
    cfg.validate()


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("nonsense = 3\n")


def test_bad_value_reports_field():
    with pytest.raises(ConfigError, match="epochs"):
        parse_config("epochs = many\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")


def test_validation_messages_name_fields():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config("gamma = 1.5\n")
    with pytest.raises(ConfigError, match="mode"):
        parse_config("mode = sp\n")
    with pytest.raises(ConfigError, match="reach"):
        parse_config("reach_16qam = 3000\nreach_8qam = 1250\n")
    with pytest.raises(ConfigError, match="arrival_rate"):
        parse_config("arrival_rate = 0\n")
    with pytest.raises(ConfigError, match="mean_duration"):
        parse_config("mean_duration = -1\n")
    with pytest.raises(ConfigError, match="bandwidth_min"):
        parse_config("bandwidth_min = 50\nbandwidth_max = 25\n")
    # every float setting must be finite: inf would pass the range checks
    for name in ("arrival_rate", "mean_duration", "bandwidth_min",
                 "bandwidth_max", "gamma", "entropy_weight", "learning_rate",
                 "reach_16qam", "reach_8qam", "reach_qpsk",
                 "slot_capacity_gbps", "grad_clip"):
        for value in ("inf", "nan"):
            with pytest.raises(ConfigError, match=f"{name}: must be finite"):
                parse_config(f"{name} = {value}\n")
    # the derived pieces validate the config they come from
    with pytest.raises(ConfigError, match="mean_duration"):
        RunConfig(mean_duration=-1.0).traffic()
    with pytest.raises(ConfigError, match="gamma"):
        RunConfig(gamma=1.5).training()


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nseed = 5  # trailing\n")
    assert cfg.seed == 5


def test_derived_views_hold_the_same_named_settings():
    cfg = RunConfig(mode="ep", epochs=7, gamma=0.9, entropy_weight=0.02,
                    batch_size=8, learning_rate=2e-5, workers=3, seed=5,
                    entropy_sign="literal", grad_clip=1.5, checkpoint_every=4,
                    metrics_window=20, arrival_rate=8.0, mean_duration=12.0,
                    bandwidth_min=30.0, bandwidth_max=90.0)
    for view in (cfg.training(), cfg.traffic()):
        for f in fields(view):
            assert getattr(view, f.name) == getattr(cfg, f.name), f.name


def test_training_config_requires_learning_mode():
    cfg = RunConfig(mode="kspff")
    with pytest.raises(ConfigError, match="learning mode"):
        cfg.training()


# --- CLI subcommands --------------------------------------------------------


def run_cli(*args):
    return main(list(args))


def test_baseline_and_summarize_flow(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="kspff", num_requests=3000, stats_window=2000)
    out_ksp = tmp_path / "ksp"
    assert run_cli("baseline", "--config", str(cfg_path), "--out",
                   str(out_ksp)) == 0
    out_sp = tmp_path / "sp"
    assert run_cli("baseline", "--config", str(cfg_path), "--mode", "spff",
                   "--out", str(out_sp)) == 0
    for out in (out_ksp, out_sp):
        assert (out / "metrics.csv").exists()
        assert "blocking_probability" in (out / "summary.txt").read_text()
    capsys.readouterr()
    assert run_cli("summarize", str(out_sp / "metrics.csv"),
                   str(out_ksp / "metrics.csv"), "--tail", "2") == 0
    table = capsys.readouterr().out
    assert "reduction_vs_first" in table
    assert "+" in table  # KSP-FF reduces blocking relative to SP-FF


def test_summarize_single_run_has_no_delta(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="spff", num_requests=2000)
    out = tmp_path / "sp"
    run_cli("baseline", "--config", str(cfg_path), "--out", str(out))
    capsys.readouterr()
    assert run_cli("summarize", str(out / "metrics.csv")) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].rstrip().endswith("-")


def test_summarize_malformed_row_reports_line(tmp_path, capsys):
    header = ("epoch,worker,requests_total,requests_blocked,cum_reward_1k,"
              "blocking_prob,policy_loss,value_loss,entropy\n")
    good_row = "1,0,50,1,48.0,0.02,0.1,0.2,1.5\n"
    # file text -> what the error names
    cases = {
        "epoch,worker,some_other_column\n1,0,2\n": "unexpected header",
        header + good_row + "2,0,oops,1,48.0,0.02,0.1,0.2\n": ":3",
        "": "empty metrics file",
        header: "no data rows",
        header + good_row.replace("\n", ",9\n"): ":2: expected 9 fields",
        header + good_row.replace("0.02", "high"): ":2: malformed row",
    }
    for i, (text, named) in enumerate(cases.items()):
        bad = tmp_path / f"metrics{i}.csv"
        bad.write_text(text)
        assert run_cli("summarize", str(bad)) == 1
        assert named in capsys.readouterr().err
    assert run_cli("summarize", str(tmp_path / "missing.csv")) == 1
    assert "cannot read metrics file" in capsys.readouterr().err
    good = tmp_path / "good.csv"
    good.write_text(header + good_row)
    assert run_cli("summarize", str(good), "--tail", "0") == 1
    assert "tail: must be >= 1" in capsys.readouterr().err


def test_train_with_zero_epochs_reports_nan_blocking(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="flx", epochs=0, batch_size=5, workers=1,
                 hidden_layers=2, hidden_width=8, stats_window=2000,
                 metrics_window=100)
    out = tmp_path / "train"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
    summary = (out / "summary.txt").read_text().splitlines()
    assert "requests_total = 0" in summary
    assert "blocking_probability = nan" in summary


def test_train_flags_override_the_config(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="flx", epochs=40, batch_size=5, workers=1,
                 hidden_layers=2, hidden_width=8, stats_window=2000,
                 metrics_window=100)
    out = tmp_path / "train"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out),
                   "--seed", "7", "--epochs", "3") == 0
    used = load_config(out / "config.used")
    assert (used.seed, used.epochs) == (7, 3)
    assert "epochs = 3" in (out / "summary.txt").read_text().splitlines()


def test_epochs_flag_is_train_only(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="kspff", num_requests=1000)
    for command in ("baseline", "eval"):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, "--config", str(cfg_path), "--epochs", "3")
        assert exit_info.value.code == 2
        assert "--epochs" in capsys.readouterr().err


def test_train_tiny_run_artifacts(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="flx", epochs=3, batch_size=5, workers=1,
                 hidden_layers=2, hidden_width=8, stats_window=2000,
                 metrics_window=100)
    out = tmp_path / "train"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint-final.npz").exists()
    assert (out / "summary.txt").exists()
    assert (out / "config.used").exists()


@pytest.mark.parametrize("stats_window", [1000, 60])
def test_train_summary_names_the_pooled_request_count(tmp_path,
                                                      stats_window):
    # each of the W = 3 workers pools its last stats_window // 3 requests,
    # or all it served if fewer; the key names the requests pooled
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="flx", workers=3, epochs=30, batch_size=5,
                 hidden_layers=2, hidden_width=8, stats_window=stats_window,
                 metrics_window=50)
    out = tmp_path / "train"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
    summary = dict(line.split(" = ")
                   for line in (out / "summary.txt").read_text().splitlines())
    total = int(summary["requests_total"])
    # a total divisible by 3 means the last round ran to its end, so every
    # worker served total // 3 requests
    assert total % 3 == 0
    pooled = 3 * min(stats_window // 3, total // 3)
    assert [key for key in summary if key.startswith("trailing_blocking_")
            ] == [f"trailing_blocking_{pooled}"]
    if pooled == total:
        assert (summary[f"trailing_blocking_{pooled}"]
                == summary["blocking_probability"])


def test_cli_train_is_deterministic(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="ep", epochs=4, batch_size=5, workers=1,
                 hidden_layers=2, hidden_width=8, stats_window=2000,
                 metrics_window=100, seed=11)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli("train", "--config", str(cfg_path), "--out",
                       str(out)) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_eval_flow_and_missing_checkpoint(tmp_path, capsys,
                                          damaged_checkpoints):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="flx", epochs=2, batch_size=5, workers=1,
                 hidden_layers=2, hidden_width=8, num_requests=1500,
                 stats_window=1000, metrics_window=100)
    out = tmp_path / "train"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
    out_eval = tmp_path / "eval"
    assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                   str(out / "checkpoint-final.npz"), "--out",
                   str(out_eval)) == 0
    assert (out_eval / "summary.txt").exists()
    capsys.readouterr()
    assert run_cli("eval", "--config", str(cfg_path), "--out",
                   str(tmp_path / "e1")) == 1
    assert "eval needs a checkpoint path" in capsys.readouterr().err
    assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                   str(tmp_path / "nope.npz"), "--out",
                   str(tmp_path / "e2")) == 1
    assert "checkpoint" in capsys.readouterr().err
    foreign = tmp_path / "foreign.npz"
    np.savez(foreign, weights=np.zeros(3))
    assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                   str(foreign), "--out", str(tmp_path / "e4")) == 1
    assert "checkpoint" in capsys.readouterr().err
    for damaged, named in damaged_checkpoints(out / "checkpoint-final.npz"):
        assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                       str(damaged), "--out",
                       str(tmp_path / f"eval-{damaged.stem}")) == 1
        err = capsys.readouterr().err
        assert "checkpoint" in err and named in err and str(damaged) in err


def test_eval_checkpoint_shape_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="flx", epochs=2, batch_size=5, workers=1,
                 hidden_layers=2, hidden_width=8, stats_window=1000,
                 metrics_window=100)
    out = tmp_path / "train"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
    other_cfg = tmp_path / "other.cfg"
    write_config(other_cfg, mode="flx", topology="cost239", stats_window=1000,
                 metrics_window=100)
    assert run_cli("eval", "--config", str(other_cfg), "--checkpoint",
                   str(out / "checkpoint-final.npz"), "--out",
                   str(tmp_path / "e3")) == 1
    assert "does not match" in capsys.readouterr().err
    # K = 1, J = 11 gives the same state length, 54, as K = 5, J = 1
    write_config(other_cfg, mode="flx", k_paths=1, j_blocks=11,
                 stats_window=1000, metrics_window=100)
    assert run_cli("eval", "--config", str(other_cfg), "--checkpoint",
                   str(out / "checkpoint-final.npz"), "--out",
                   str(tmp_path / "e4")) == 1
    assert ("action count 5 does not match k_paths * j_blocks = 11"
            in capsys.readouterr().err)


def test_wrong_mode_for_subcommand(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="flx")
    assert run_cli("baseline", "--config", str(cfg_path), "--out",
                   str(tmp_path / "x")) == 1
    write_config(cfg_path, mode="kspff")
    assert run_cli("train", "--config", str(cfg_path), "--out",
                   str(tmp_path / "y")) == 1


def test_missing_config_file(tmp_path, capsys):
    assert run_cli("train", "--config", str(tmp_path / "none.cfg")) == 1
    assert "config" in capsys.readouterr().err


def test_runtime_failure_exits_2(tmp_path, capsys):
    # an output directory under a regular file cannot be made
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="kspff", num_requests=1000)
    (tmp_path / "file").write_text("")
    assert run_cli("baseline", "--config", str(cfg_path), "--out",
                   str(tmp_path / "file" / "out")) == 2
    assert "runtime failure" in capsys.readouterr().err



# the first bytes of a zip archive, as a checkpoint file starts; 0xb6 is
# not valid UTF-8
NOT_UTF8 = b"PK\x03\x04\x14\x00\x00\x00\x00\x00\xb6\x8f"


@pytest.mark.parametrize("reader", ["config", "topology", "metrics"])
def test_a_file_not_in_utf8_is_a_config_error_that_names_it(tmp_path, capsys,
                                                            reader):
    bad = tmp_path / "checkpoint.npz"
    bad.write_bytes(NOT_UTF8)
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="kspff", topology=str(bad))
    out = ("--out", str(tmp_path / "b"))
    argv = {"config": ("baseline", "--config", str(bad), *out),
            "topology": ("baseline", "--config", str(cfg_path), *out),
            "metrics": ("summarize", str(bad))}[reader]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert str(bad) in err


def test_unknown_topology_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="ep", topology="nsfnett")
    assert run_cli("train", "--config", str(cfg_path), "--out",
                   str(tmp_path / "t")) == 1
    assert ("config error: topology: cannot read topology file nsfnett"
            in capsys.readouterr().err)


def test_malformed_topology_is_a_config_error(tmp_path, capsys):
    topo_path = tmp_path / "broken.topo"
    topo_path.write_text("nodes 3\nlink 0 0 1 far\n")
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="kspff", topology=str(topo_path))
    assert run_cli("baseline", "--config", str(cfg_path), "--out",
                   str(tmp_path / "b")) == 1
    err = capsys.readouterr().err
    assert "config error: topology:" in err
    assert "malformed link fields" in err


def test_out_of_range_link_id_is_a_config_error(tmp_path, capsys):
    topo_path = tmp_path / "gap.topo"
    topo_path.write_text("nodes 3\nlink 0 0 1 100\nlink 7 1 2 100\n")
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="kspff", topology=str(topo_path))
    assert run_cli("baseline", "--config", str(cfg_path), "--out",
                   str(tmp_path / "b")) == 1
    assert "link id 7 outside 0..1" in capsys.readouterr().err


def test_non_finite_link_length_is_a_config_error(tmp_path, capsys):
    topo_path = tmp_path / "nan.topo"
    topo_path.write_text("nodes 3\nlink 0 0 1 100\nlink 1 1 2 nan\n")
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="kspff", topology=str(topo_path),
                 num_requests=1000)
    assert run_cli("baseline", "--config", str(cfg_path), "--out",
                   str(tmp_path / "b")) == 1
    assert "link 1 has non-finite length nan" in capsys.readouterr().err


def test_eval_builds_the_network_once(tmp_path, monkeypatch):
    cfg_path = tmp_path / "run.cfg"
    write_config(cfg_path, mode="flx", epochs=1, batch_size=5, workers=1,
                 hidden_layers=2, hidden_width=8, num_requests=100,
                 stats_window=100, metrics_window=100)
    out = tmp_path / "train"
    assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
    nodes = RunConfig().load_topology().num_nodes
    calls = {"parse_topology": 0, "k_shortest_paths": 0}
    for name in calls:
        def counted(*args, _real=getattr(topology_mod, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(topology_mod, name, counted)
    assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                   str(out / "checkpoint-final.npz"), "--out",
                   str(tmp_path / "eval")) == 0
    # one parse, and one K-shortest search per ordered node pair
    assert calls == {"parse_topology": 1,
                     "k_shortest_paths": nodes * (nodes - 1)}
