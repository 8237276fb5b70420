import json
import math
import random
import shutil
import struct
from pathlib import Path

import pytest

from graphtext import cli
from graphtext.tensor import read_checkpoint

DATASET = [
    {"triples": [["Iraq", "language", "Arabic"]],
     "text": "Arabic is spoken in Iraq."},
    {"triples": [["Spain", "capital", "Madrid"]],
     "text": "Madrid is the capital of Spain."},
    {"triples": [["Italy", "capital", "Rome"],
                 ["Rome", "population", "2873000"]],
     "text": "Rome, with 2873000 people, is the capital of Italy."},
    {"triples": [["Peru", "capital", "Lima"]],
     "text": "Lima is the capital of Peru."},
]

CONFIG = {
    "d_model": 8,
    "num_heads": 2,
    "num_encoder_layers": 1,
    "num_decoder_layers": 1,
    "feedforward_dim": 16,
    "max_sequence_length": 48,
    "max_target_length": 24,
    "epochs": 2,
    "batch_size": 4,
    "seed": 9,
}


def write_dataset(path, records=DATASET):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliwork")
    data = write_dataset(root / "train.jsonl")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    run_dir = root / "run"
    code = cli.main(["train", "--config", str(config), "--data", data,
                     "--out", str(run_dir)])
    assert code == 0
    return {"root": root, "data": data, "config": str(config),
            "run": str(run_dir)}


def test_build_graph_iraq_counts(tmp_path, capsys):
    data = write_dataset(tmp_path / "iraq.jsonl", [DATASET[0]])
    out = tmp_path / "graphs.jsonl"
    assert cli.main(["build-graph", "--data", data, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["examples"] == 1
    record = json.loads(out.read_text().splitlines()[0])
    fwd = record["edge_counts"]["forward"]
    non_self = sum(n for rel, n in fwd.items() if rel != "SELF")
    assert non_self == 8
    # self-loops make up the rest: nodes + forward + reverse = all edges
    assert record["num_nodes"] == len(record["edges"]) - 2 * non_self


def test_build_graph_unidirectional_halves_edges(tmp_path, capsys):
    data = write_dataset(tmp_path / "d.jsonl")
    out_bi = tmp_path / "bi.jsonl"
    out_uni = tmp_path / "uni.jsonl"
    assert cli.main(["build-graph", "--data", data, "--out",
                     str(out_bi)]) == 0
    bi = json.loads(capsys.readouterr().out)["edge_counts"]
    assert cli.main(["build-graph", "--data", data, "--out", str(out_uni),
                     "--unidirectional"]) == 0
    uni = json.loads(capsys.readouterr().out)["edge_counts"]
    bi_non_self = sum(n for rel, n in bi["forward"].items() if rel != "SELF")
    assert sum(bi["reverse"].values()) == bi_non_self
    assert sum(uni["reverse"].values()) == 0
    assert {r: n for r, n in uni["forward"].items()} == bi["forward"]


def test_build_graph_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = cli.main(["build-graph", "--data", str(missing), "--out",
                     str(tmp_path / "o.jsonl")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_train_writes_run_artifacts(workspace):
    run = workspace["run"]
    names = ["config.json", "vocab.txt", "model.ckpt", "metrics.jsonl"]
    import os
    for name in names:
        assert os.path.exists(os.path.join(run, name)), name
    lines = open(os.path.join(run, "metrics.jsonl")).read().splitlines()
    preamble = json.loads(lines[0])
    assert preamble["trainable_params"] == preamble["total_params"]
    assert len(lines) == 1 + CONFIG["epochs"]
    persisted = json.loads(open(os.path.join(run, "config.json")).read())
    assert persisted["d_model"] == 8


def test_train_base_variation_has_no_gnn_params(tmp_path, workspace):
    out = tmp_path / "base_run"
    code = cli.main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--out", str(out),
                     "--variation", "base"])
    assert code == 0
    params = read_checkpoint(str(out / "model.ckpt"))
    assert not [n for n in params if ".gnn." in n]


def test_train_gnn_with_base_is_usage_error(workspace, tmp_path, capsys):
    code = cli.main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--out", str(tmp_path / "x"),
                     "--variation", "base", "--gnn", "sage"])
    assert code == 1
    assert "--gnn" in capsys.readouterr().err


def test_train_freeze_base_reports_fewer_trainable(tmp_path, workspace):
    out = tmp_path / "frozen_run"
    code = cli.main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--out", str(out), "--freeze-base"])
    assert code == 0
    preamble = json.loads(
        open(out / "metrics.jsonl").read().splitlines()[0])
    assert preamble["trainable_params"] < preamble["total_params"]


def test_usage_errors(tmp_path):
    assert cli.main([]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["train", "--out", str(tmp_path / "x")]) == 1


def test_generate_writes_jsonl(workspace, tmp_path):
    out = tmp_path / "gen.jsonl"
    code = cli.main(["generate", "--run", workspace["run"], "--data",
                     workspace["data"], "--out", str(out),
                     "--mode", "greedy"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == len(DATASET)
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["input_id"] == i
        assert isinstance(rec["text"], str)
        assert rec["log_prob"] <= 0.0


def test_eval_prints_metrics(workspace, capsys):
    code = cli.main(["eval", "--run", workspace["run"], "--data",
                     workspace["data"], "--mode", "greedy"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"bleu", "chrf_pp", "num_examples"}
    assert out["num_examples"] == len(DATASET)
    assert 0.0 <= out["bleu"] <= 100.0


def test_eval_empty_dataset_is_data_error(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = cli.main(["eval", "--run", workspace["run"], "--data", str(empty)])
    assert code == 2
    assert "no examples" in capsys.readouterr().err


def test_generate_missing_checkpoint(workspace, tmp_path, capsys):
    bogus = tmp_path / "not_a_run"
    bogus.mkdir()
    code = cli.main(["generate", "--run", str(bogus), "--data",
                     workspace["data"]])
    assert code == 2


def test_sweep_lambda_single_value(workspace, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli.main(["sweep-lambda", "--config", workspace["config"],
                     "--data", workspace["data"], "--val", workspace["data"],
                     "--out", str(out), "--values", "0.08"])
    assert code == 0
    rows = (out / "sweep.tsv").read_text().splitlines()
    assert rows[0] == "lambda\tval_bleu"
    assert len(rows) == 2
    assert rows[1].startswith("0.08\t")
    plot = json.loads((out / "sweep_plot.json").read_text())
    assert plot["lambda"] == [0.08]
    summary = json.loads(capsys.readouterr().out)
    assert summary["results"][0]["lambda"] == 0.08


def test_sweep_lambda_bad_values(workspace, tmp_path, capsys):
    code = cli.main(["sweep-lambda", "--config", workspace["config"],
                     "--data", workspace["data"], "--val", workspace["data"],
                     "--out", str(tmp_path / "s"), "--values", "a,b"])
    assert code == 1


def test_unknown_config_key_is_data_error(tmp_path, capsys):
    data = write_dataset(tmp_path / "d.jsonl")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"d_modle": 8}))
    code = cli.main(["train", "--config", str(cfg), "--data", data,
                     "--out", str(tmp_path / "run")])
    assert code == 2
    assert "d_modle" in capsys.readouterr().err


def test_invalid_config_value_is_data_error(tmp_path, capsys):
    data = write_dataset(tmp_path / "d.jsonl")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"variation": "spiral"}))
    code = cli.main(["train", "--config", str(cfg), "--data", data,
                     "--out", str(tmp_path / "run")])
    assert code == 2


# -- bad configs and checkpoints: exit 2, one stderr line ----------------------

def _assert_data_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("data error: "), err


def _copy_run(run, dest, **config_changes):
    shutil.copytree(run, dest)
    path = dest / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()),
                                **config_changes}))
    return dest


def _header_offsets(blob):
    """Offsets of every checkpoint byte except the parameter values (layout
    in ParameterStore.save). Values carry no checksum, so a flip there
    loads as other weights; every other flip must be rejected."""
    offsets = list(range(12))  # magic, format version, parameter count
    (count,) = struct.unpack_from("<I", blob, 8)
    off = 12
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, off)
        code, rank = blob[off + 2 + nlen], blob[off + 3 + nlen]
        head = 4 + nlen + 4 * rank
        dims = struct.unpack_from(f"<{rank}I", blob, off + 4 + nlen)
        offsets.extend(range(off, off + head))
        off += head + math.prod(dims) * (4 if code == 0 else 8)
    assert off == len(blob)
    return offsets


@pytest.mark.parametrize("bad", [
    {"d_model": 30, "num_heads": 4}, {"epochs": 0}, {"beam_size": 0},
    # values of the wrong JSON type
    {"variation": 5}, {"variation": None}, {"prompt": 5}, {"epochs": 1.5},
    {"d_model": 8.0}, {"num_encoder_layers": 1.5}, {"feedforward_dim": 16.5},
    {"beam_size": 1.5}, {"max_target_length": 24.5},
    {"tie_embeddings": "no"},
    # values out of range, and the NaN and Infinity that json reads
    {"feedforward_dim": -1}, {"max_sequence_length": -1, "max_target_length": -1},
    {"learning_rate": math.nan}, {"beta1": 1.0}, {"lambda_gr": math.inf},
    {"learning_rate": -1.0}, {"clip_norm": -1.0}, {"length_penalty": math.nan},
    {"num_decoder_layers": -1}, {"stop_token_accuracy": math.nan},
    {"beta2": -0.1}, {"adam_eps": 0.0}, {"stop_gr_accuracy": 1.5}])
def test_bad_config_is_data_error_for_every_command(workspace, tmp_path,
                                                     capsys, bad):
    data = workspace["data"]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**CONFIG, **bad}))
    run = _copy_run(workspace["run"], tmp_path / "run", **bad)
    for argv in (
            ["train", "--config", str(cfg), "--data", data,
             "--out", str(tmp_path / "out")],
            ["sweep-lambda", "--config", str(cfg), "--data", data,
             "--val", data, "--out", str(tmp_path / "sweep"),
             "--values", "0.08"],
            ["generate", "--run", str(run), "--data", data],
            ["eval", "--run", str(run), "--data", data]):
        _assert_data_error(cli.main(argv), capsys)


def test_bad_flag_values_are_data_errors(workspace, tmp_path, capsys):
    data = workspace["data"]
    _assert_data_error(cli.main(
        ["train", "--config", workspace["config"], "--data", data,
         "--out", str(tmp_path / "out"), "--epochs", "0"]), capsys)
    for command in ("generate", "eval"):
        _assert_data_error(cli.main(
            [command, "--run", workspace["run"], "--data", data,
             "--beam-size", "0"]), capsys)
    for values in ("nan", "0.08,-1"):
        _assert_data_error(cli.main(
            ["sweep-lambda", "--config", workspace["config"], "--data", data,
             "--val", data, "--out", str(tmp_path / "sweep"),
             "--values", values]), capsys)


def test_damaged_checkpoint_is_data_error(workspace, tmp_path, capsys):
    rng = random.Random(2024)
    blob = (Path(workspace["run"]) / "model.ckpt").read_bytes()
    damaged = [blob[:n] for n in (0, 3, 100, rng.randrange(12, len(blob)),
                                  len(blob) - 1)]
    for pos in rng.sample(_header_offsets(blob), 10):
        flipped = bytearray(blob)
        flipped[pos] ^= rng.randrange(1, 256)
        damaged.append(bytes(flipped))
    run = _copy_run(workspace["run"], tmp_path / "run")
    for content in damaged:
        (run / "model.ckpt").write_bytes(content)
        for command in ("eval", "generate"):
            _assert_data_error(cli.main([command, "--run", str(run),
                                         "--data", workspace["data"]]),
                               capsys)


@pytest.mark.parametrize("change", [{"d_model": 16},
                                    {"variation": "BASE"}])
def test_checkpoint_of_another_model_is_data_error(workspace, tmp_path,
                                                   capsys, change):
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps({**CONFIG, **change}))
    other = tmp_path / "other"
    assert cli.main(["train", "--config", str(cfg), "--data",
                     workspace["data"], "--out", str(other)]) == 0
    capsys.readouterr()
    run = _copy_run(workspace["run"], tmp_path / "run")
    shutil.copy(other / "model.ckpt", run / "model.ckpt")
    for command in ("eval", "generate"):
        _assert_data_error(cli.main([command, "--run", str(run),
                                     "--data", workspace["data"]]), capsys)
