import json
import math

import numpy as np
import pytest

from graphtext import tensor as T
from graphtext import training as TR
from graphtext.data import Example, Triple, build_vocabulary, tokenize
from graphtext.gnn import GnnConfig
from graphtext.model import ModelConfig, Seq2SeqModel

EXAMPLES = [
    Example([Triple("Iraq", "language", "Arabic")],
            "Arabic is spoken in Iraq."),
    Example([Triple("Spain", "capital", "Madrid")],
            "Madrid is the capital of Spain."),
    Example([Triple("Italy", "capital", "Rome"),
             Triple("Rome", "population", "2873000")],
            "Rome, home to 2873000 people, is the capital of Italy."),
    Example([Triple("Ajoblanco", "country", "Spain")],
            "Ajoblanco comes from Spain."),
    Example([Triple("Japan", "language", "Japanese")],
            "Japanese is spoken in Japan."),
    Example([Triple("Peru", "capital", "Lima")],
            "Lima is the capital of Peru."),
]


def make_setup(variation="GRASAME", d_model=8):
    vocab = build_vocabulary(EXAMPLES)
    gnn = None
    if variation != "BASE":
        gnn = GnnConfig(family="SAGE", in_dim=d_model, out_dim=d_model)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=d_model, num_heads=2,
                      num_encoder_layers=1, num_decoder_layers=1,
                      feedforward_dim=16, variation=variation, gnn=gnn,
                      max_sequence_length=48, max_target_length=24)
    items = TR.prepare_items(EXAMPLES, vocab, cfg)
    return vocab, cfg, items


def test_prepare_items_base_skips_graph_tensors():
    vocab, cfg, items = make_setup("BASE")
    assert all(it.gt is None for it in items)
    assert all(len(it.gr_pairs) == len(it.gr_labels) > 0 for it in items)
    assert items[0].ref_tokens == tokenize(EXAMPLES[0].target_text)
    _, _, graph_items = make_setup("GRASAME")
    assert all(it.gt is not None for it in graph_items)


def test_untrained_uniform_model_hits_log_vocab():
    vocab, cfg, items = make_setup()
    model = Seq2SeqModel(cfg, seed=0)
    # zero the tied output embedding and the relation head: every logit
    # becomes exactly zero, so both losses are log of the class count
    model.store.get("emb.tok").data[:] = 0.0
    model.store.get("gr_head.W").data[:] = 0.0
    model.store.get("gr_head.b").data[:] = 0.0
    _, bd = TR.compute_batch_loss(model, items, lambda_gr=0.08)
    assert abs(bd.l_tg - math.log(len(vocab))) < 1e-12
    assert abs(bd.l_gr - math.log(5)) < 1e-12
    assert abs(bd.l_total - (bd.l_tg + 0.08 * bd.l_gr)) < 1e-9


def test_loss_identity_and_lambda_zero():
    vocab, cfg, items = make_setup()
    model = Seq2SeqModel(cfg, seed=3)
    _, bd = TR.compute_batch_loss(model, items[:3], lambda_gr=0.08)
    assert bd.l_gr > 0.0
    assert abs(bd.l_total - (bd.l_tg + 0.08 * bd.l_gr)) < 1e-9
    _, bd0 = TR.compute_batch_loss(model, items[:3], lambda_gr=0.0)
    assert bd0.l_total == bd0.l_tg
    assert bd0.l_tg == bd.l_tg


def test_disable_gr_loss_zeroes_term_and_gradients():
    vocab, cfg, items = make_setup()
    model = Seq2SeqModel(cfg, seed=3)
    model.store.zero_grads()
    loss, bd = TR.compute_batch_loss(model, items[:2], lambda_gr=0.08,
                                     disable_gr_loss=True)
    assert bd.l_gr == 0.0
    assert bd.l_total == bd.l_tg
    T.backward(loss)
    for name in ("gr_head.W", "gr_head.b"):
        g = model.store.get(name).grad
        assert g is None or not np.any(g)
    # the graph encoder still feeds the attention, so it does get signal
    gnn_grads = [model.store.get(n).grad
                 for n in model.store.names() if ".gnn." in n]
    assert any(g is not None and np.any(g) for g in gnn_grads)


def test_freeze_base_only_updates_graph_parameters():
    vocab, cfg, items = make_setup()
    model = Seq2SeqModel(cfg, seed=5)
    frozen_names = [n for n in model.store.names()
                    if ".gnn." not in n and not n.startswith("gr_head.")]
    before = {n: model.store.get(n).data.tobytes() for n in model.store.names()}
    config = TR.TrainConfig(epochs=3, batch_size=2, freeze_mode="FREEZE_BASE",
                            seed=11)
    TR.train(model, items, config)
    for n in frozen_names:
        assert model.store.get(n).data.tobytes() == before[n], n
    moved = [n for n in TR.gnn_parameter_names(model.store)
             if model.store.get(n).data.tobytes() != before[n]]
    assert moved, "graph parameters should have been updated"
    assert model.store.num_trainable_values() < model.store.num_values()


def test_training_reduces_loss():
    vocab, cfg, items = make_setup()
    model = Seq2SeqModel(cfg, seed=123)
    config = TR.TrainConfig(epochs=40, batch_size=3, learning_rate=3e-3,
                            seed=123)
    history = TR.train(model, items, config)
    assert len(history) == 40
    assert history[-1]["l_total"] < history[0]["l_total"] * 0.7
    assert history[-1]["token_accuracy"] >= history[0]["token_accuracy"]


def test_training_is_deterministic(tmp_path):
    vocab, cfg, items = make_setup()
    logs = []
    ckpts = []
    for run in range(2):
        model = Seq2SeqModel(cfg, seed=123)
        config = TR.TrainConfig(epochs=4, batch_size=2, seed=123)
        log = tmp_path / f"metrics_{run}.jsonl"
        ckpt = tmp_path / f"model_{run}.ckpt"
        TR.train(model, items, config, vocab=vocab, val_items=items[:2],
                 log_path=str(log), checkpoint_path=str(ckpt))
        logs.append(log.read_bytes())
        ckpts.append(ckpt.read_bytes())
    assert logs[0] == logs[1]
    assert ckpts[0] == ckpts[1]


def test_metrics_log_structure(tmp_path):
    vocab, cfg, items = make_setup()
    model = Seq2SeqModel(cfg, seed=1)
    log = tmp_path / "metrics.jsonl"
    ckpt = tmp_path / "model.ckpt"
    config = TR.TrainConfig(epochs=2, batch_size=3, eval_every=1, seed=1)
    TR.train(model, items, config, vocab=vocab, val_items=items[:2],
             log_path=str(log), checkpoint_path=str(ckpt))
    lines = [json.loads(s) for s in log.read_text().splitlines()]
    assert lines[0]["total_params"] == model.store.num_values()
    assert lines[0]["trainable_params"] == model.store.num_values()
    assert len(lines) == 3
    for i, rec in enumerate(lines[1:], start=1):
        assert rec["epoch"] == i
        assert {"l_tg", "l_gr", "l_total", "val_bleu"} <= set(rec)
        assert abs(rec["l_total"]
                   - (rec["l_tg"] + 0.08 * rec["l_gr"])) < 1e-9
    restored = Seq2SeqModel(cfg, seed=99)
    restored.load(str(ckpt))


def test_early_stop_on_threshold():
    vocab, cfg, items = make_setup()
    model = Seq2SeqModel(cfg, seed=2)
    config = TR.TrainConfig(epochs=50, batch_size=3, seed=2,
                            stop_token_accuracy=0.0)
    history = TR.train(model, items, config)
    assert len(history) == 1


def test_non_finite_loss_raises():
    vocab, cfg, items = make_setup()
    model = Seq2SeqModel(cfg, seed=2)
    model.store.get("emb.tok").data[:] = np.nan
    config = TR.TrainConfig(epochs=1, batch_size=2, seed=2)
    with pytest.raises(T.NumericsError):
        TR.train(model, items, config)


def test_sweep_lambda_writes_reports(tmp_path):
    vocab, cfg, items = make_setup()
    config = TR.TrainConfig(epochs=2, batch_size=3, seed=7)
    tsv = tmp_path / "sweep.tsv"
    js = tmp_path / "sweep.json"
    results = TR.sweep_lambda(cfg, items, items[:2], vocab,
                              [0.0, 0.08], config,
                              tsv_path=str(tsv), json_path=str(js))
    assert [lam for lam, _ in results] == [0.0, 0.08]
    rows = tsv.read_text().splitlines()
    assert rows[0] == "lambda\tval_bleu"
    assert len(rows) == 3
    payload = json.loads(js.read_text())
    assert payload["lambda"] == [0.0, 0.08]
    assert len(payload["val_bleu"]) == 2


def test_interrupted_sweep_report_keeps_previous_file(tmp_path, monkeypatch):
    vocab, cfg, items = make_setup()
    config = TR.TrainConfig(epochs=1, batch_size=3, seed=7)
    js = tmp_path / "sweep.json"
    js.write_text("previous\n")
    real_iterencode = json.JSONEncoder.iterencode

    def encode_then_fail(self, o, _one_shot=False):
        chunks = real_iterencode(self, o, _one_shot)
        yield next(chunks)
        yield next(chunks)
        raise OSError("disk full")  # part-way through the payload

    monkeypatch.setattr(json.JSONEncoder, "iterencode", encode_then_fail)
    with pytest.raises(OSError):
        TR.sweep_lambda(cfg, items, items[:2], vocab, [0.0], config,
                        json_path=str(js))
    assert js.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


def test_config_validation():
    with pytest.raises(ValueError):
        TR.TrainConfig(freeze_mode="HALF")
    with pytest.raises(ValueError):
        TR.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TR.TrainConfig(lambda_gr=-0.1)
