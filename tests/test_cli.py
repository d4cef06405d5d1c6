import numpy as np
import pytest

import rmsalab.topology as topology_mod
from rmsalab.cli import main
from rmsalab.config import RunConfig, load_config, parse_config
from rmsalab.errors import ConfigError


def write_config(path, **overrides):
    cfg = RunConfig(**overrides)
    cfg.save(path)
    return cfg


# --- config parsing ---------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = RunConfig(mode="ep", epochs=42, learning_rate=3e-6, seed=9,
                    share_hidden=True, topology="cost239")
    path = tmp_path / "run.cfg"
    cfg.save(path)
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
    bad = tmp_path / "metrics.csv"
    bad.write_text("epoch,worker,some_other_column\n1,0,2\n")
    assert run_cli("summarize", str(bad)) == 1
    path2 = tmp_path / "metrics2.csv"
    path2.write_text(
        "epoch,worker,requests_total,requests_blocked,cum_reward_1k,"
        "blocking_prob,policy_loss,value_loss,entropy\n"
        "1,0,50,1,48.0,0.02,0.1,0.2,1.5\n"
        "2,0,oops,1,48.0,0.02,0.1,0.2\n")
    assert run_cli("summarize", str(path2)) == 1
    err = capsys.readouterr().err
    assert ":3" in err


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


def test_eval_flow_and_missing_checkpoint(tmp_path, capsys):
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
    assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                   str(tmp_path / "nope.npz"), "--out",
                   str(tmp_path / "e2")) == 1
    assert "checkpoint" in capsys.readouterr().err
    foreign = tmp_path / "foreign.npz"
    np.savez(foreign, weights=np.zeros(3))
    assert run_cli("eval", "--config", str(cfg_path), "--checkpoint",
                   str(foreign), "--out", str(tmp_path / "e4")) == 1
    assert "checkpoint" in capsys.readouterr().err


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
