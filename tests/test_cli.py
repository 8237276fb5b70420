import argparse
import json
import math
import os
import random
import re
import signal
import shutil
import struct
import subprocess
import sys
import time
import zlib
from collections import Counter
from pathlib import Path

import pytest

from graphtext import cli
from graphtext import tensor as T
from graphtext.config import load_config
from graphtext.data import (DEFAULT_PROMPT, EOS_ID, RESERVED_TOKENS,
                            tokenize)
from graphtext.decoding import DecodeConfig
from graphtext.tensor import read_checkpoint

import corpus as synth

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


@pytest.mark.parametrize("record,message", [
    ({"triples": [["Iraq", "language", "Arabic"]] * 40, "text": "Iraq ."},
     "linearized length 246 exceeds the 187-token limit"),
    ({"triples": [["Iraq", "<R>", "Arabic"]], "text": "Iraq ."},
     "triple 0 holds the reserved token '<R>'"),
], ids=["too-long", "reserved-token"])
def test_build_graph_names_the_bad_example(tmp_path, capsys, record,
                                           message):
    data = write_dataset(tmp_path / "bad.jsonl", [DATASET[0], record])
    code = cli.main(["build-graph", "--data", data,
                     "--out", str(tmp_path / "graphs.jsonl")])
    assert capsys.readouterr().err == f"data error: example 2: {message}\n"
    assert code == 2


def test_build_graph_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = cli.main(["build-graph", "--data", str(missing), "--out",
                     str(tmp_path / "o.jsonl")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_interrupted_build_graph_keeps_previous_file(tmp_path, monkeypatch):
    data = write_dataset(tmp_path / "d.jsonl")
    out = tmp_path / "graphs.jsonl"
    out.write_text("previous\n")
    real_iterencode = json.JSONEncoder.iterencode
    records = []

    def encode_then_fail(self, o, _one_shot=False):
        if isinstance(o, dict) and "index" in o:
            records.append(o)
            if len(records) == 3:
                raise OSError("disk full")  # part-way through the output
        return real_iterencode(self, o, _one_shot)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", encode_then_fail)
    code = cli.main(["build-graph", "--data", data, "--out", str(out)])
    assert code == 2
    assert len(records) == 3
    assert out.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl",
                                                          "graphs.jsonl"]


def test_train_writes_run_artifacts(workspace):
    run = workspace["run"]
    names = ["config.json", "vocab.txt", "model.ckpt", "metrics.jsonl"]
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


def test_every_flag_reaches_its_config_field(workspace, tmp_path,
                                             monkeypatch, capsys):
    set_by_flags = {"variation": "VAR2", "gnn_family": "RGCN",
                    "freeze_mode": "FREEZE_BASE", "disable_gr_loss": True,
                    "unidirectional_edges": True, "epochs": 1,
                    "batch_size": 3, "learning_rate": 0.002,
                    "lambda_gr": 0.5, "seed": 4}
    parser = cli.build_parser()
    # every train flag that writes a setting is set here
    bare = parser.parse_args(["train", "--data", "d", "--out", "o"])
    assert set(cli._overrides(bare)) == set(set_by_flags)
    out = tmp_path / "flags"
    argv = ["train", "--config", workspace["config"], "--data",
            workspace["data"], "--out", str(out), "--variation", "var2",
            "--gnn", "rgcn", "--freeze-base", "--no-gr-loss",
            "--unidirectional", "--epochs", "1", "--batch-size", "3",
            "--learning-rate", "0.002", "--lambda-gr", "0.5", "--seed", "4"]
    assert cli.main(argv) == 0
    saved = json.loads((out / "config.json").read_text())
    from_file = vars(load_config(workspace["config"]))
    for key, value in set_by_flags.items():
        assert saved[key] == value != from_file[key], key
    capsys.readouterr()

    bare = parser.parse_args(["eval", "--run", "r", "--data", "d"])
    assert set(cli._overrides(bare)) == {"decode_mode", "beam_size",
                                         "length_penalty"}
    seen = []
    real_decode_items = cli.decode_items

    def recording_decode_items(model, items, config):
        seen.append(config)
        return real_decode_items(model, items, config)

    monkeypatch.setattr(cli, "decode_items", recording_decode_items)
    for command in ("eval", "generate"):
        assert cli.main([command, "--run", str(out), "--data",
                         workspace["data"], "--mode", "greedy",
                         "--beam-size", "2", "--length-penalty", "0.5"]) == 0
    assert seen == 2 * [DecodeConfig("GREEDY", 2, CONFIG["max_target_length"],
                                     0.5)]


def test_readme_names_every_command_line_option():
    """Each subcommand's usage in README's command-line block names every
    option the parser gives it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    usage = {u.split()[0]: u for u in block.split("graphtext ")[1:]}
    [commands] = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert set(usage) == set(commands.choices)
    for name, parser in commands.choices.items():
        for action in parser._actions:
            for option in action.option_strings:
                if option not in ("-h", "--help"):
                    assert re.search(re.escape(option) + r"(?![\w-])",
                                     usage[name]), (name, option)


def _train_with(workspace, tmp_path, **changes) -> Path:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, **changes}))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--data",
                     workspace["data"], "--out", str(out)]) == 0
    return out


def test_vocab_min_count_drops_singletons_from_vocab_file(workspace,
                                                          tmp_path):
    out = _train_with(workspace, tmp_path, vocab_min_count=2)
    counts = Counter(tok for rec in DATASET
                     for s in [*(x for t in rec["triples"] for x in t),
                               rec["text"]]
                     for tok in tokenize(s))
    every = (Path(workspace["run"]) / "vocab.txt").read_text().splitlines()
    kept = (out / "vocab.txt").read_text().splitlines()
    always = RESERVED_TOKENS + tokenize(DEFAULT_PROMPT)
    assert "spoken" in every and counts["spoken"] == 1
    assert kept == [t for t in every if t in always or counts[t] >= 2]


def test_untied_embeddings_round_trip_through_train_and_generate(
        workspace, tmp_path):
    out = _train_with(workspace, tmp_path, tie_embeddings=False)
    params = read_checkpoint(str(out / "model.ckpt"))
    vocab_size = len((out / "vocab.txt").read_text().splitlines())
    assert list(params)[-1] == "lm_head"
    assert params["lm_head"].shape == (vocab_size, CONFIG["d_model"])
    gen = tmp_path / "gen.jsonl"
    assert cli.main(["generate", "--run", str(out), "--data",
                     workspace["data"], "--out", str(gen)]) == 0
    assert len(gen.read_text().splitlines()) == len(DATASET)


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
        assert isinstance(rec["capped"], bool)


def test_interrupted_generate_keeps_previous_file(workspace, tmp_path,
                                                  monkeypatch):
    out = tmp_path / "gen.jsonl"
    out.write_text("previous\n")
    real_iterencode = json.JSONEncoder.iterencode
    records = []

    def encode_then_fail(self, o, _one_shot=False):
        records.append(o)
        if len(records) == 2:
            raise OSError("disk full")  # part-way through the output
        return real_iterencode(self, o, _one_shot)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", encode_then_fail)
    code = cli.main(["generate", "--run", workspace["run"], "--data",
                     workspace["data"], "--out", str(out),
                     "--mode", "greedy"])
    assert code == 2
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["gen.jsonl"]


def test_eval_prints_metrics(workspace, capsys):
    code = cli.main(["eval", "--run", workspace["run"], "--data",
                     workspace["data"], "--mode", "greedy"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"bleu", "chrf_pp", "num_examples", "capped_frac"}
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


@pytest.mark.parametrize("record", [
    {"triples": [["Iraq", "language", "Arabic"]],
     "text": "Iraq <eos> speaks <pad> Arabic ."},
    {"triples": [["<H>", "language", "Arabic"]], "text": "Arabic ."},
])
def test_reserved_token_in_data_is_data_error(workspace, tmp_path, capsys,
                                              record):
    data = write_dataset(tmp_path / "bad.jsonl", DATASET + [record])
    out = tmp_path / "run"
    _assert_data_error(cli.main(["train", "--config", workspace["config"],
                                 "--data", data, "--out", str(out)]), capsys)
    assert not (out / "model.ckpt").exists()


def test_data_error_names_the_example(workspace, tmp_path, capsys):
    record = {"triples": [["Iraq", "language", "Arabic"]],
              "text": "Iraq <eos> speaks Arabic ."}
    data = write_dataset(tmp_path / "bad.jsonl", DATASET + [record])
    code = cli.main(["train", "--config", workspace["config"], "--data", data,
                     "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("data error: example 5: the text holds the reserved"
                   " token '<eos>'\n")


def _latin_1(src, dest):
    """A copy of ``src`` with a Latin-1 "é" after its first "a": a byte
    that no UTF-8 sequence holds there."""
    blob = Path(src).read_bytes()
    at = blob.index(b"a") + 1
    dest.write_bytes(blob[:at] + "é".encode("latin-1") + blob[at:])
    return str(dest)


@pytest.mark.parametrize("bad", ["build-graph --data", "train --data",
                                 "train --val", "train --config",
                                 "eval vocab.txt", "eval config.json"])
def test_non_utf8_file_is_data_error(workspace, tmp_path, capsys, bad):
    data, config = workspace["data"], workspace["config"]
    run = tmp_path / "run"
    shutil.copytree(workspace["run"], run)
    command, which = bad.split()
    argv = {"build-graph": ["build-graph", "--data", data,
                            "--out", str(tmp_path / "g.jsonl")],
            "train": ["train", "--config", config, "--data", data,
                      "--val", data, "--out", str(tmp_path / "out")],
            "eval": ["eval", "--run", str(run), "--data", data]}[command]
    if command == "eval":
        spoiled = _latin_1(run / which, run / which)
    else:
        at = argv.index(which) + 1
        spoiled = argv[at] = _latin_1(argv[at], tmp_path / "latin-1")
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"data error: {spoiled} is not UTF-8 text: "\
        "invalid continuation byte\n"
    assert code == 2


_ADDRESS_SPACE_CAP = 512 << 20  # bytes: the interpreter and numpy need ~150 MB


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE_CAP,) * 2)


def _assert_train_is_out_of_memory(workspace, tmp_path, changes):
    """``train`` under the config with ``changes`` ends in exit 3 and one
    stderr line, which is returned with the run's wall time in seconds.
    The run's address space is capped, so a refused allocation fails at
    once and the test never holds more than the cap."""
    config = tmp_path / "big.json"
    config.write_text(json.dumps({**CONFIG, **changes}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "graphtext.cli", "train", "--config",
         str(config), "--data", workspace["data"], "--out",
         str(tmp_path / "out")],
        env=env, preexec_fn=_cap_address_space, capture_output=True,
        text=True, timeout=120)
    seconds = time.monotonic() - start
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("runtime error: out of memory: ")
    assert proc.stderr.count("\n") == 1
    assert proc.returncode == 3
    return proc.stderr, seconds


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="address-space limit")
def test_out_of_memory_is_one_line_runtime_error(workspace, tmp_path):
    """A model too large to allocate ends in exit 3 and one stderr line."""
    _assert_train_is_out_of_memory(workspace, tmp_path, {"d_model": 400000})


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="address-space limit")
@pytest.mark.parametrize("field", ["d_model", "feedforward_dim",
                                   "max_sequence_length"])
def test_unaddressable_size_is_one_line_runtime_error(workspace, tmp_path,
                                                      field):
    """A size whose parameter array numpy cannot address (2**59 rows or
    columns of 8-byte values) is out of memory too, refused from the
    config before anything is allocated."""
    _assert_train_is_out_of_memory(workspace, tmp_path, {field: 2 ** 59})


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="address-space limit")
def test_model_larger_than_memory_is_refused_before_it_allocates(
        workspace, tmp_path):
    """A million encoder layers at d 64 need about 1.3 TB for parameters,
    gradients and Adam moments. The parameter count is worked out from
    the config and refused before any draw, in one line naming both sizes;
    without that, the layers would be drawn one small array at a time
    until the address-space cap stopped them."""
    err, seconds = _assert_train_is_out_of_memory(
        workspace, tmp_path, {"num_encoder_layers": 10 ** 6, "d_model": 64,
                              "feedforward_dim": 128})
    assert re.fullmatch(r"runtime error: out of memory: the model needs \d+"
                        r" bytes .*; physical memory is \d+ bytes\n", err)
    assert seconds < 1.0


def _copy_run(run, dest, **config_changes):
    shutil.copytree(run, dest)
    path = dest / "config.json"
    path.write_text(json.dumps({**json.loads(path.read_text()),
                                **config_changes}))
    return dest


def _checkpoint_offsets(blob):
    """Offsets of the header bytes and of the value bytes of a version-2
    checkpoint (layout in ParameterStore.save); the header bytes include
    the closing CRC32."""
    header = list(range(12))  # magic, format version, parameter count
    values = []
    (count,) = struct.unpack_from("<I", blob, 8)
    off = 12
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, off)
        code, rank = blob[off + 2 + nlen], blob[off + 3 + nlen]
        head = 4 + nlen + 4 * rank
        dims = struct.unpack_from(f"<{rank}I", blob, off + 4 + nlen)
        header.extend(range(off, off + head))
        off += head
        nbytes = math.prod(dims) * (4 if code == 0 else 8)
        values.extend(range(off, off + nbytes))
        off += nbytes
    header.extend(range(off, off + 4))
    assert off + 4 == len(blob)
    return header, values


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
    {"beta2": -0.1}, {"adam_eps": 0.0}, {"stop_gr_accuracy": 1.5},
    # a negative seed and ints beyond 64 bits, which numpy refuses
    {"seed": -1}, {"num_encoder_layers": 2 ** 63}, {"epochs": 10 ** 400}])
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
        # a length to the power -400 underflows to 0, which ranking divided by
        _assert_data_error(cli.main(
            [command, "--run", workspace["run"], "--data", data,
             "--length-penalty", "-400"]), capsys)
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
    header, values = _checkpoint_offsets(blob)
    # the CRC32 rejects a flip in the values too, which would otherwise
    # load as other weights
    for pos in rng.sample(header, 10) + rng.sample(values, 10):
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


def test_version_1_checkpoint_still_loads(workspace, tmp_path, capsys):
    """A version-1 file is the version-2 layout without the CRC32."""
    blob = (Path(workspace["run"]) / "model.ckpt").read_bytes()
    params = read_checkpoint(str(Path(workspace["run"]) / "model.ckpt"))
    body = [struct.pack("<I", len(params))]
    for name, arr in params.items():
        body += [struct.pack("<H", len(name)), name.encode("utf-8"),
                 struct.pack(f"<BB{arr.ndim}I", 1, arr.ndim, *arr.shape),
                 arr.astype("<f8").tobytes()]
    v2 = b"GRSM" + struct.pack("<I", 2) + b"".join(body)
    assert blob == v2 + struct.pack("<I", zlib.crc32(v2))
    run = _copy_run(workspace["run"], tmp_path / "run")
    v1 = b"GRSM" + struct.pack("<I", 1) + b"".join(body)
    (run / "model.ckpt").write_bytes(v1)
    loaded = read_checkpoint(str(run / "model.ckpt"))
    assert list(loaded) == list(params)
    for name, arr in params.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].tobytes() == arr.tobytes()
    for command in ("eval", "generate"):
        outputs = []
        for run_dir in (workspace["run"], str(run)):
            assert cli.main([command, "--run", run_dir, "--data",
                             workspace["data"]]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


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


def _resave_checkpoint(run, edit):
    """Re-save ``run``'s checkpoint, a valid file with its CRC32, after
    ``edit`` changed the name -> array mapping in place."""
    params = read_checkpoint(str(run / "model.ckpt"))
    edit(params)
    store = T.ParameterStore()
    for name, arr in params.items():
        store.create(name, arr)
    store.save(str(run / "model.ckpt"))


def test_non_finite_checkpoint_value_is_data_error(workspace, tmp_path,
                                                    capsys):
    run = _copy_run(workspace["run"], tmp_path / "run")
    _resave_checkpoint(run, lambda p: p["dec.ln.g"].__setitem__(0, math.inf))
    for command in ("eval", "generate"):
        _assert_data_error(cli.main([command, "--run", str(run),
                                     "--data", workspace["data"]]), capsys)


@pytest.mark.parametrize("eos_sign", [1.0, -1.0])
def test_generate_and_eval_report_length_caps(workspace, tmp_path, capsys,
                                              eos_sign):
    """The final decoder layer norm emits the all-ones vector at every
    position, and the (tied) EOS embedding is +-100 ones: EOS scores
    highest at every step, so nothing is capped, or lowest, so every
    hypothesis runs to the length cap."""
    def steer(params):
        params["dec.ln.g"][:] = 0.0
        params["dec.ln.b"][:] = 1.0
        params["emb.tok"][EOS_ID] = 100.0 * eos_sign

    run = _copy_run(workspace["run"], tmp_path / "run")
    _resave_checkpoint(run, steer)
    capped = eos_sign < 0
    assert cli.main(["generate", "--run", str(run), "--data",
                     workspace["data"]]) == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    assert [rec["capped"] for rec in lines] == [capped] * len(DATASET)
    assert all(rec["text"] == "" for rec in lines if not rec["capped"])
    assert cli.main(["eval", "--run", str(run), "--data",
                     workspace["data"]]) == 0
    assert json.loads(capsys.readouterr().out)["capped_frac"] == capped


RUN_FILES = ["config.json", "metrics.jsonl", "model.ckpt", "vocab.txt"]


def test_train_replaces_run_files_and_keeps_others(workspace, tmp_path,
                                                   monkeypatch):
    run = _copy_run(workspace["run"], tmp_path / "run")
    (run / "notes.txt").write_text("mine\n")
    before = {name: (run / name).read_bytes() for name in RUN_FILES}
    real_replace = os.replace
    moves = []

    def recording_replace(src, dst):
        moves.append((src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    assert cli.main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--out", str(run),
                     "--variation", "base"]) == 0
    # every file is staged under --out, so no move crosses a mount point
    assert {os.path.basename(dst) for _, dst in moves} >= set(RUN_FILES)
    assert all(Path(src).is_relative_to(run) for src, _ in moves)
    assert sorted(p.name for p in run.iterdir()) == sorted(RUN_FILES
                                                           + ["notes.txt"])
    assert all((run / name).read_bytes() != before[name]
               for name in ["config.json", "metrics.jsonl", "model.ckpt"])
    assert json.loads((run / "config.json").read_text())["variation"] == "BASE"
    assert (run / "notes.txt").read_text() == "mine\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run"]


def test_interrupted_train_exits_3_and_keeps_checkpoint(workspace, tmp_path,
                                                        monkeypatch, capsys):
    run = _copy_run(workspace["run"], tmp_path / "run")
    before = {name: (run / name).read_bytes() for name in RUN_FILES}
    real_backward = T.backward
    calls = []

    def backward_then_interrupt(loss):
        calls.append(loss)
        if len(calls) == 2:  # the second batch of the first epoch
            raise KeyboardInterrupt
        real_backward(loss)

    monkeypatch.setattr(T, "backward", backward_then_interrupt)
    try:
        code = cli.main(["train", "--config", workspace["config"], "--data",
                         workspace["data"], "--out", str(run),
                         "--batch-size", "2", "--variation", "base"])
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped cli.main")
    err = capsys.readouterr().err
    assert code == 3, err
    assert len(err.splitlines()) == 1, err
    assert len(calls) == 2
    assert {name: (run / name).read_bytes() for name in RUN_FILES} == before
    assert sorted(p.name for p in run.iterdir()) == RUN_FILES
    assert [p.name for p in tmp_path.iterdir()] == ["run"]


def test_interrupted_train_into_new_out_keeps_best_checkpoint(
        workspace, tmp_path, monkeypatch, capsys):
    run = tmp_path / "run"
    real_backward = T.backward
    calls = []

    def backward_then_interrupt(loss):
        calls.append(loss)
        if len(calls) == 3:  # the first batch of the second epoch
            raise KeyboardInterrupt
        real_backward(loss)

    monkeypatch.setattr(T, "backward", backward_then_interrupt)
    assert cli.main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--val", workspace["data"], "--out",
                     str(run), "--batch-size", "2"]) == 3
    assert sorted(p.name for p in run.iterdir()) == RUN_FILES
    preamble, record = [json.loads(line) for line
                        in (run / "metrics.jsonl").read_text().splitlines()]
    assert "total_params" in preamble
    assert record["epoch"] == 1 and "val_bleu" in record
    assert cli.main(["eval", "--run", str(run), "--data",
                     workspace["data"]]) == 0, capsys.readouterr().err


def test_interrupt_during_the_swap_waits_for_every_file(workspace, tmp_path,
                                                        monkeypatch, capsys):
    run = _copy_run(workspace["run"], tmp_path / "run")
    real_replace = os.replace
    moved = []

    def replace_then_interrupt(src, dst):
        if ".stage." in str(src) and Path(dst).parent == run:
            moved.append(os.path.basename(dst))
            if len(moved) == 1:
                os.kill(os.getpid(), signal.SIGINT)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_then_interrupt)
    handler = signal.getsignal(signal.SIGINT)
    assert cli.main(["train", "--config", workspace["config"], "--data",
                     workspace["data"], "--out", str(run),
                     "--variation", "base"]) == 3
    assert capsys.readouterr().err == "interrupted\n"
    assert moved == RUN_FILES
    assert json.loads((run / "config.json").read_text())["variation"] == "BASE"
    assert sorted(p.name for p in run.iterdir()) == RUN_FILES
    assert signal.getsignal(signal.SIGINT) is handler


def test_interrupted_sweep_keeps_previous_files(workspace, tmp_path,
                                                monkeypatch, capsys):
    out = tmp_path / "sweep"
    argv = ["sweep-lambda", "--config", workspace["config"], "--data",
            workspace["data"], "--val", workspace["data"], "--out", str(out)]
    assert cli.main(argv + ["--values", "0.08"]) == 0
    names = ["config.json", "sweep.tsv", "sweep_plot.json"]
    before = {name: (out / name).read_bytes() for name in names}
    real_backward = T.backward
    calls = []

    def backward_then_interrupt(loss):
        calls.append(loss)
        if len(calls) == 3:  # during the second weight's training
            raise KeyboardInterrupt
        real_backward(loss)

    monkeypatch.setattr(T, "backward", backward_then_interrupt)
    capsys.readouterr()
    assert cli.main(argv + ["--values", "0.0,0.5", "--seed", "4"]) == 3
    assert len(calls) == 3
    assert {name: (out / name).read_bytes() for name in names} == before
    assert sorted(p.name for p in out.iterdir()) == names
    assert [p.name for p in tmp_path.iterdir()] == ["sweep"]


# -- whole CLI sessions in a fresh process ------------------------------------

# runs each command (a JSON list of argument lists) through cli.main in one
# process, then prints whether numpy.ma was imported
_CLI_SESSION = """
import json, sys
from graphtext import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
print(json.dumps("numpy.ma" in sys.modules))
"""


def _cli_session(commands, **env) -> str:
    """The last stdout line of a fresh process running ``commands``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_SESSION, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": src, **env}, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_run_files_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``train --val`` and ``generate``, beam and greedy, write the same
    bytes at one and at two BLAS threads, for BASE and for GRASAME with
    each GNN family. A BLAS reduction may split its sum by thread count,
    as the gradient norm's dot product did; at these sizes none does."""
    def records(examples):
        return [{"triples": [[t.head, t.relation, t.tail] for t in ex.triples],
                 "text": ex.target_text} for ex in examples]

    train, val = synth.split_corpus(synth.build_corpus())
    data = write_dataset(tmp_path / "train.jsonl", records(train))
    held = write_dataset(tmp_path / "val.jsonl", records(val))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "d_model": 16, "num_heads": 2, "feedforward_dim": 32, "epochs": 3,
        "max_sequence_length": 48, "max_target_length": 28}))
    models = [["base"]] + [["grasame", "--gnn", family]
                           for family in ("sage", "gat", "rgcn")]
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        commands = []
        for model in models:
            run = str(out / "-".join(model[::2]))
            commands.append(["train", "--config", str(config), "--data", data,
                             "--val", held, "--out", run,
                             "--variation", *model])
            commands += [["generate", "--run", run, "--data", held, "--mode",
                          mode, "--out", f"{run}-{mode}.jsonl"]
                         for mode in ("beam", "greedy")]
        _cli_session(commands, OPENBLAS_NUM_THREADS=threads,
                     OMP_NUM_THREADS=threads)
        files.append({p.relative_to(out): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()})
    assert len(files[0]) == 4 * (len(RUN_FILES) + 2)
    assert [p for p in files[0] if files[0][p] != files[1].get(p)] == []


def test_no_command_imports_numpy_ma(workspace, tmp_path):
    """No command imports numpy.ma: ``np.unique`` does, and that adds
    about 1.7 MB of resident memory to every run, too little for the
    benchmark's memory bound to notice."""
    run, data = str(tmp_path / "run"), workspace["data"]
    commands = [
        ["train", "--config", workspace["config"], "--data", data, "--val",
         data, "--out", run],
        ["generate", "--run", run, "--data", data, "--out",
         str(tmp_path / "gen.jsonl")],
        ["eval", "--run", run, "--data", data],
        ["build-graph", "--data", data, "--out", str(tmp_path / "g.jsonl")],
        ["sweep-lambda", "--config", workspace["config"], "--data", data,
         "--val", data, "--out", str(tmp_path / "sweep"), "--values", "0,0.1"],
    ]
    assert _cli_session(commands) == "false"


# -- a seeded fuzzer over the data file ---------------------------------------

_JSON_VALUES = [None, True, 0, -1, 1.5, 1e308, float("nan"), float("inf"),
                float("-inf"), "", " ", "\u0000", "NaN", [], {}, [[]],
                ["a", "b"], {"triples": []}]


_JSON_PIECES = [b"{", b"}", b"[", b"]", b'"', b",", b":", b"\n", b"\\", b"NaN",
                b"-Infinity", b"null", b"\xef\xbb\xbf", b"\xff"]
_HUGE_NUMBERS = [10 ** 400, -(10 ** 400), 2 ** 63]


def _byte_mutations(rng: random.Random, blob: bytes) -> list:
    """(kind, mutate) pairs that damage ``blob``: byte flips, truncation,
    and insertion of random bytes or of a piece of JSON syntax."""
    def flip():
        out = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        return bytes(out)

    def insert(piece):
        at = rng.randrange(len(blob) + 1)
        return blob[:at] + piece + blob[at:]

    return [
        ("flip", flip),
        ("truncate", lambda: blob[:rng.randrange(len(blob))]),
        ("insert-bytes", lambda: insert(bytes(
            rng.randrange(256) for _ in range(rng.randint(1, 8))))),
        ("insert-json", lambda: insert(rng.choice(_JSON_PIECES))),
    ]


def _cycle(kinds: list, count: int):
    """``count`` (label, bytes) mutations, cycling through ``kinds``."""
    for i in range(count):
        name, mutate = kinds[i % len(kinds)]
        yield f"{i}:{name}", mutate()


def _data_mutations(rng: random.Random, records: list, count: int):
    """``count`` (label, bytes) mutations of the JSON-lines file of
    ``records``, cycling through the kinds below: byte flips, truncation
    and insertion; swapped JSON types, NaN and Infinity; empty and huge
    fields."""
    blob = "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")

    def edited(edit):
        recs = json.loads(json.dumps(records))  # a deep copy
        edit(rng.choice(recs))
        # json writes NaN and Infinity bare; Python's reader accepts them
        return "".join(json.dumps(r) + "\n" for r in recs).encode("utf-8")

    def set_field(value):
        def edit(rec):
            where = rng.randrange(3)
            if where == 0 or not rec.get("triples"):
                rec["text"] = value
            elif where == 1:
                rec["triples"] = value
            else:
                rng.choice(rec["triples"])[rng.randrange(3)] = value
        return edited(edit)

    def huge_triples(rec):
        rec["triples"] = rec["triples"] * rng.choice([20, 200])

    return _cycle(_byte_mutations(rng, blob) + [
        ("swap-type", lambda: set_field(rng.choice(_JSON_VALUES))),
        ("drop-key", lambda: edited(
            lambda rec: rec.pop(rng.choice(sorted(rec))))),
        ("empty", lambda: set_field(rng.choice(["", " ", "\t", [], {}]))),
        ("huge-text", lambda: set_field(" ".join(
            f"w{rng.randrange(50)}" for _ in range(rng.choice([200, 5000]))))),
        ("huge-triples", lambda: edited(huge_triples)),
        ("huge-number", lambda: set_field(rng.choice(_HUGE_NUMBERS))),
    ], count)


def _config_mutations(rng: random.Random, config: dict) -> list:
    """(kind, mutate) pairs that damage the JSON config ``config``: its
    bytes; a field of another JSON type, NaN or Infinity; a dropped key;
    an empty or huge field."""
    def set_field(value):
        # json writes NaN and Infinity bare; Python's reader accepts them
        return json.dumps({**config, rng.choice(sorted(config)): value}
                          ).encode("utf-8")

    def drop_key():
        key = rng.choice(sorted(config))
        return json.dumps({k: v for k, v in config.items() if k != key}
                          ).encode("utf-8")

    return _byte_mutations(rng, json.dumps(config, indent=2).encode()) + [
        ("swap-type", lambda: set_field(rng.choice(_JSON_VALUES))),
        ("drop-key", drop_key),
        ("empty", lambda: set_field(rng.choice(["", " ", [], {}]))),
        ("huge-text", lambda: set_field(" ".join(
            f"w{rng.randrange(50)}" for _ in range(rng.choice([200, 5000]))))),
        ("huge-number", lambda: set_field(rng.choice(_HUGE_NUMBERS))),
    ]


def _vocab_mutations(rng: random.Random, blob: bytes) -> list:
    """(kind, mutate) pairs that damage the vocabulary file ``blob``: its
    bytes; a line set to a reserved token, NaN or Infinity; a dropped
    line; an empty or huge line."""
    lines = blob.decode("utf-8").splitlines()

    def set_line(value):
        edited = list(lines)
        edited[rng.randrange(len(edited))] = value
        return "".join(t + "\n" for t in edited).encode("utf-8")

    def drop_line():
        edited = list(lines)
        del edited[rng.randrange(len(edited))]
        return "".join(t + "\n" for t in edited).encode("utf-8")

    return _byte_mutations(rng, blob) + [
        ("swap-token", lambda: set_line(rng.choice(
            ["<pad>", "<unk>", "NaN", "Infinity", "\u0000"]))),
        ("drop-line", drop_line),
        ("empty", lambda: set_line(rng.choice(["", " "]))),
        ("huge-line", lambda: set_line("w" * rng.choice([1000, 100000]))),
    ]


def _checkpoint_mutations(rng: random.Random, blob: bytes) -> list:
    """(kind, mutate) pairs that damage the checkpoint ``blob``: its bytes;
    a header field set empty or huge; a value set to NaN, Infinity or a
    huge number. Each comes once as it is, which the CRC32 rejects, and
    once with the CRC32 made good again, so the parser sees it."""
    header, values = _checkpoint_offsets(blob)

    def put(offsets, piece):
        at = rng.choice(offsets)
        return blob[:at] + piece + blob[at + len(piece):]

    damage = _byte_mutations(rng, blob) + [
        ("empty-field", lambda: put(header[:-4], b"\0" * 4)),
        ("huge-field", lambda: put(header[:-4], b"\xff" * 4)),
        ("value", lambda: put(values, struct.pack("<d", rng.choice(
            [math.nan, math.inf, -math.inf, 1e308])))),
    ]

    def resealed(mutate):
        body = mutate()[:-4]
        return body + struct.pack("<I", zlib.crc32(body))

    return damage + [(f"resealed-{name}", lambda m=mutate: resealed(m))
                     for name, mutate in damage]


def _assert_no_crash(argv, label, blob, capsys):
    """``argv`` ends in exit 0, 2 or 3 with at most one line on stderr and
    no traceback."""
    try:
        code = cli.main(argv)
    except BaseException as exc:  # a crash, reported with its input
        pytest.fail(f"{label} {argv[0]}: {type(exc).__name__}: {exc}"
                    f"\n{blob[:300]!r}")
    err = capsys.readouterr().err
    where = f"{label} {argv[0]}: {err!r}\n{blob[:300]!r}"
    assert code in (0, 2, 3), where
    assert len(err.splitlines()) <= 1, where
    assert "Traceback" not in err, where


def test_mutated_data_files_never_crash_the_cli(workspace, tmp_path, capsys):
    """``build-graph`` and a one-epoch ``train`` on 200 seeded mutations of
    a valid data file each end in exit 0, 2 or 3 with at most one line on
    stderr and no traceback."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, "epochs": 1}))
    data = tmp_path / "data.jsonl"
    for label, blob in _data_mutations(random.Random(2024), DATASET, 200):
        data.write_bytes(blob)
        for argv in (["build-graph", "--data", str(data),
                      "--out", str(tmp_path / "graphs.jsonl")],
                     ["train", "--config", str(config), "--data", str(data),
                      "--out", str(tmp_path / "run")]):
            _assert_no_crash(argv, label, blob, capsys)


def test_mutated_run_files_never_crash_the_cli(workspace, tmp_path, capsys):
    """Seeded mutations of a trained run's ``config.json``, ``vocab.txt``
    and ``model.ckpt``, and of a ``--config`` file, never crash a command
    that reads them: ``generate`` and ``eval`` read the run's files, and
    ``train`` and ``sweep-lambda`` read a config (the run's ``config.json``
    is one too). Each ends as ``_assert_no_crash`` asks."""
    rng = random.Random(2024)
    run = tmp_path / "run"
    shutil.copytree(workspace["run"], run)
    original = {name: (run / name).read_bytes()
                for name in ("config.json", "vocab.txt", "model.ckpt")}
    config = tmp_path / "settings.json"
    data = workspace["data"]
    decode = [[command, "--run", str(run), "--data", data]
              for command in ("generate", "eval")]

    def train(config_path):
        return [["train", "--config", str(config_path), "--data", data,
                 "--out", str(tmp_path / "out")],
                ["sweep-lambda", "--config", str(config_path), "--data", data,
                 "--val", data, "--out", str(tmp_path / "sweep"),
                 "--values", "0.08"]]

    cases = [  # the file mutated, its mutations, the commands that read it
        (run / "config.json", _config_mutations(
            rng, json.loads(original["config.json"])), 36,
         decode + train(run / "config.json")),
        (run / "vocab.txt", _vocab_mutations(
            rng, original["vocab.txt"]), 24, decode),
        (run / "model.ckpt", _checkpoint_mutations(
            rng, original["model.ckpt"]), 42, decode),
        (config, _config_mutations(rng, {**CONFIG, "epochs": 1}), 27,
         train(config)),
    ]
    for path, kinds, count, commands in cases:
        for label, blob in _cycle(kinds, count):
            for name, content in original.items():
                (run / name).write_bytes(content)
            path.write_bytes(blob)
            for argv in commands:
                _assert_no_crash(argv, f"{path.name} {label}", blob, capsys)
