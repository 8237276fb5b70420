import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from graphtext import tensor as T
from graphtext import training as TR
from graphtext.data import (DEFAULT_PROMPT, DataError, Example, Triple,
                            build_vocabulary, tokenize)
from graphtext.gnn import GnnConfig, graph_tensors
from graphtext.graph import build_graph
from graphtext.model import ModelConfig, Seq2SeqModel
from corpus import build_corpus, large_corpus, split_corpus
from oracles import (ReferenceAdam, loop_batch_loss, pack, per_example_items,
                     recorded_nodes, relative_error, tape_nodes, tsum)

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


def make_setup(variation="GRASAME", d_model=8, layers=1, **gnn_kw):
    vocab = build_vocabulary(EXAMPLES)
    gnn = None
    if variation != "BASE":
        gnn = GnnConfig(**{"family": "SAGE", **gnn_kw}, in_dim=d_model,
                        out_dim=d_model)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=d_model, num_heads=2,
                      num_encoder_layers=layers, num_decoder_layers=layers,
                      feedforward_dim=16, variation=variation, gnn=gnn,
                      max_sequence_length=48, max_target_length=24)
    items = TR.prepare_items(EXAMPLES, vocab, cfg)
    return vocab, cfg, items


def test_prepare_items_base_skips_graph_tensors():
    vocab, cfg, items = make_setup("BASE")
    assert all(it.gt is None for it in items)
    assert all(it.gr_targets.shape[0] == 3 and it.gr_targets.shape[1] > 0
               for it in items)
    assert items[0].ref_tokens == tokenize(EXAMPLES[0].target_text)
    _, _, graph_items = make_setup("GRASAME")
    assert all(it.gt is not None for it in graph_items)


@pytest.mark.parametrize("bad,message", [
    (Example([Triple("Peru", "capital", "Lima")], "Lima <eos> Peru ."),
     "the text holds the reserved token '<eos>'"),
    (Example([Triple("Peru", "<R>", "Lima")], "Lima ."),
     "triple 0 holds the reserved token '<R>'"),
    (Example([Triple("Peru", "capital", "Lima")], "Lima " * 30),
     "target length 32 exceeds the 24-token limit"),
    (Example([Triple('""', "capital", "Lima")], "Lima ."),
     "triple 0: SPECIAL_H span tokenizes to nothing"),
    (Example([Triple("Peru", "capital", "x " * 45)], "Lima ."),
     "linearized length 56 exceeds the 48-token limit"),
])
def test_prepare_items_names_the_example_in_data_errors(bad, message):
    vocab, cfg, _ = make_setup()
    examples = EXAMPLES[:4] + [bad] + EXAMPLES[4:]
    for prepare in (TR.prepare_items, per_example_items):
        with pytest.raises(DataError) as info:
            prepare(examples, vocab, cfg)
        assert str(info.value) == f"example 5: {message}"


def test_prepare_items_checks_the_prompt_once_naming_example_1():
    vocab, cfg, _ = make_setup()
    for prepare in (TR.prepare_items, per_example_items):
        with pytest.raises(DataError) as info:
            prepare(EXAMPLES, vocab, cfg, prompt="describe <Graph> :")
        assert str(info.value) == (
            "example 1: the prompt holds the reserved token '<Graph>'")


@pytest.mark.parametrize("bidirectional", [True, False])
def test_prepare_items_equals_the_per_example_path(bidirectional):
    """Each string tokenized once, spans extended in bulk: every field of
    every item equals the per-example path's, for the training and the
    held-out split, with unknown tokens and with a custom prompt."""
    train, held_out = split_corpus(build_corpus())
    for prompt, min_count in ((DEFAULT_PROMPT, 1), ('say "it" (now):', 2)):
        vocab = build_vocabulary(train, min_count, prompt)
        cfg = ModelConfig(vocab_size=len(vocab), d_model=8, num_heads=2,
                          feedforward_dim=16, gnn=GnnConfig(in_dim=8,
                                                            out_dim=8))
        for part in (train, held_out):
            got = TR.prepare_items(part, vocab, cfg, prompt=prompt,
                                   bidirectional=bidirectional)
            want = per_example_items(part, vocab, cfg, prompt=prompt,
                                     bidirectional=bidirectional)
            assert len(got) == len(want) == len(part)
            for a, b in zip(got, want):
                assert a.inp == b.inp
                assert a.target_ids == b.target_ids
                assert a.ref_tokens == b.ref_tokens
                assert np.array_equal(a.gr_targets, b.gr_targets)
                assert a.graph.num_nodes == b.graph.num_nodes
                for name in ("src", "dst", "rel", "reverse"):
                    assert np.array_equal(getattr(a.graph, name),
                                          getattr(b.graph, name))


def reachable_arrays(obj, seen=None):
    """Every numpy array reachable from ``obj`` through dataclass fields,
    containers and array bases."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        if obj.base is not None:
            yield from reachable_arrays(obj.base, seen)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from reachable_arrays(getattr(obj, f.name), seen)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from reachable_arrays(x, seen)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from reachable_arrays(x, seen)


def graph_fields(gt) -> dict[str, np.ndarray]:
    """Each field of a ``GraphTensors`` as a numpy array."""
    out = {}
    for f in dataclasses.fields(gt):
        value = getattr(gt, f.name)
        out[f.name] = np.asarray(
            value.data if isinstance(value, T.Tensor) else value)
    return out


@pytest.mark.parametrize("bidirectional", [True, False])
@pytest.mark.parametrize("family", ["SAGE", "GAT", "RGCN", "BASE"])
def test_items_hold_edge_arrays_and_build_graph_tensors_on_read(
        family, bidirectional):
    examples = EXAMPLES + build_corpus()
    vocab = build_vocabulary(examples)
    variation = "BASE" if family == "BASE" else "GRASAME"
    gnn = None if family == "BASE" else GnnConfig(family=family, in_dim=8,
                                                  out_dim=8)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, num_heads=2,
                      feedforward_dim=16, variation=variation, gnn=gnn,
                      max_sequence_length=48, max_target_length=24)
    items = TR.prepare_items(examples, vocab, cfg,
                             bidirectional=bidirectional)
    for item in items:
        n = len(item.inp)
        # the graph's arrays: all but the reconstruction targets, which
        # BASE keeps too
        arrays = list(reachable_arrays(
            dataclasses.replace(item, gr_targets=None)))
        assert all(a.size < n * n for a in arrays + [item.gr_targets])
        if family == "BASE":
            assert item.graph is None and item.gt is None and not arrays
            continue
        assert arrays
        want = graph_fields(graph_tensors(
            build_graph(item.inp, bidirectional=bidirectional)))
        assert want["num_nodes"] == n
        first, second = graph_fields(item.gt), graph_fields(item.gt)
        for got in (first, second):
            assert got.keys() == want.keys()
            for name, b in want.items():
                a = got[name]
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
        for name in want:
            assert not np.shares_memory(first[name], second[name]), name


def test_prepared_items_retain_less_than_the_dense_graph_tensors():
    """Dense graph tensors take about 105 bytes per node pair; prepared
    items of train-large-sized examples must hold far less than that."""
    examples = large_corpus(12)
    vocab = build_vocabulary(examples)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, num_heads=2,
                      feedforward_dim=16,
                      gnn=GnnConfig(family="RGCN", in_dim=8, out_dim=8),
                      max_sequence_length=160, max_target_length=128)
    TR.prepare_items(examples[:1], vocab, cfg)  # first-call caches untraced
    tracemalloc.start()
    try:
        items = TR.prepare_items(examples, vocab, cfg)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    sizes = [len(item.inp) for item in items]
    assert min(sizes) >= 95 and max(sizes) <= 145
    assert retained < sum(8 * n * n for n in sizes), retained


@pytest.mark.parametrize("family,kw", [
    ("SAGE", {}),
    ("SAGE", {"sage_aggregator": "SUM"}),
    ("SAGE", {"sage_aggregator": "MAX"}),
    ("GAT", {"gat_heads": 1}),
    ("RGCN", {}),
])
def test_graph_path_allocates_no_array_of_n_squared_entries(family, kw):
    """The graph's part of a training or decode step never builds an array
    with an entry per pair of nodes: building two items' batch graph, and
    a GNN layer's forward and backward over it, peak below n² bytes, n =
    3,601 nodes per example. The batch graph is built both by the oracle
    ``pack`` of the items' graph tensors and as ``compute_batch_loss``
    builds it, by joining the items' edge arrays. A long prompt, whose
    tokens have only self-loops, makes n large at a modest edge count."""
    prompt = " ".join(f"p{j}" for j in range(3000))
    examples = [Example([Triple(f"h{i}x{k}", f"r{i}x{k}", f"t{i}x{k}")
                         for k in range(100)], f"t{i}x0 .")
                for i in range(2)]
    vocab = build_vocabulary(examples, prompt=prompt)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=2, num_heads=1,
                      feedforward_dim=4,
                      gnn=GnnConfig(family=family, in_dim=2, out_dim=2, **kw),
                      max_sequence_length=4000, max_target_length=8)
    items = TR.prepare_items(examples, vocab, cfg, prompt=prompt)
    n = min(len(item.inp) for item in items)
    assert n == 3601
    layer = Seq2SeqModel(cfg, seed=1).enc_layers[0]["gnn"]
    sizes = [len(item.inp) for item in items]
    builds = {
        "oracle pack": lambda: pack([item.gt for item in items]),
        "batch join": lambda: graph_tensors(TR._join_graphs(
            [item.graph for item in items], sizes,
            np.cumsum(sizes) - sizes)),
    }
    for name, build in builds.items():
        states = T.Tensor(np.random.default_rng(19).standard_normal(
            (2 * n, 2)), requires_grad=True)
        tracemalloc.start()
        try:
            graph = build()
            T.backward(tsum(layer.forward(states, graph)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.grad is not None, name
        assert peak < n * n, (name, peak, n * n)


@pytest.mark.parametrize("picks", [[2, 0, 5], [4], [0, 1, 2, 3, 4, 5]])
@pytest.mark.parametrize("bidirectional", [True, False])
@pytest.mark.parametrize("family", ["SAGE", "GAT", "RGCN"])
def test_batch_builds_one_graph_equal_to_the_packed_item_graphs(
        monkeypatch, family, bidirectional, picks):
    """``compute_batch_loss`` builds the graph tensors of the whole batch
    with one ``graph_tensors`` call, byte-equal to the items' own graph
    tensors joined by the oracle ``pack``."""
    vocab = build_vocabulary(EXAMPLES)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, num_heads=2,
                      num_encoder_layers=1, num_decoder_layers=1,
                      feedforward_dim=16, gnn=GnnConfig(
                          family=family, in_dim=8, out_dim=8, gat_heads=2),
                      max_sequence_length=48, max_target_length=24)
    items = TR.prepare_items(EXAMPLES, vocab, cfg,
                             bidirectional=bidirectional)
    batch = [items[i] for i in picks]
    if len(batch) > 1:
        assert len({len(item.inp) for item in batch}) > 1
    want = graph_fields(pack([item.gt for item in batch]))
    built = []

    def counted(graph):
        built.append(graph_tensors(graph))
        return built[-1]

    monkeypatch.setattr(TR, "graph_tensors", counted)
    TR.compute_batch_loss(Seq2SeqModel(cfg, seed=2), batch, lambda_gr=0.08)
    assert len(built) == 1
    got = graph_fields(built[0])
    assert got["num_nodes"] == want["num_nodes"] == sum(
        len(item.inp) for item in batch)
    for name in ("pairs", "pair_weight", "cells", "cell_weight"):
        a, b = got[name], want[name]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_batch_loss_rejects_a_graph_that_misfits_its_input():
    vocab, cfg, items = make_setup()
    assert len(items[2].inp) != len(items[0].inp)
    misfit = dataclasses.replace(items[0], graph=items[2].graph)
    with pytest.raises(T.ShapeError, match="nodes"):
        TR.compute_batch_loss(Seq2SeqModel(cfg, seed=0),
                              [items[1], misfit], lambda_gr=0.08)


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


def _moments(store, name):
    """Adam's two moments of ``name``: its ranges of the flat buffers."""
    flat = store._flat
    for member, _, lo, hi in flat.members:
        if member == name:
            return flat.m[lo:hi], flat.v[lo:hi]
    raise KeyError(name)


def test_flat_adam_matches_reference_under_freeze_base(tmp_path):
    """FREEZE_BASE leaves several non-contiguous trainable ranges, the clip
    acts on every step, and a parameter created after the model's counts
    in the global norm."""
    vocab, cfg, items = make_setup(layers=2)
    model = Seq2SeqModel(cfg, seed=8)
    store = model.store
    extra = store.create("extra", np.linspace(-1, 1, 6))
    lr, clip = 1e-2, 0.05

    def gradients():
        store.zero_grads()
        loss, _ = TR.compute_batch_loss(model, items[:3], lambda_gr=0.08)
        T.backward(loss)
        extra.grad[...] = np.arange(6) - 2.5  # its squares sum exactly
        return {n: store.get(n).grad.copy() for n in store.trainable_names()}

    for _ in range(2):  # every moment is non-zero before the freeze
        gradients()
        store.adam_step(lr, clip_norm=clip)
    store.set_trainable(TR.gnn_parameter_names(store) + ["extra"])
    assert len(store._trainable_ranges()) > 1
    trainable = store.trainable_names()
    frozen = [n for n in store.names() if n not in trainable]
    frozen_bytes = {n: [a.tobytes() for a in (store.get(n).data,
                                              *_moments(store, n))]
                    for n in frozen}
    ref_params = [store.get(n).data.copy() for n in trainable]
    ref = ReferenceAdam([p.shape for p in ref_params], lr=lr)
    ref.m, ref.v = ([_moments(store, n)[i].reshape(p.shape).copy()
                     for n, p in zip(trainable, ref_params)] for i in (0, 1))
    ref.t = store.step_count
    for _ in range(4):
        grads = gradients()
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert norm > clip
        assert abs(store.adam_step(lr, clip_norm=clip) - norm) <= 1e-12 * norm
        ref.step(ref_params, [grads[n] * (clip / norm) for n in trainable])
    for n, p in zip(trainable, ref_params):
        assert np.allclose(store.get(n).data, p, rtol=0, atol=1e-12), n
    for n in frozen:
        assert [a.tobytes() for a in (store.get(n).data,
                                      *_moments(store, n))] == frozen_bytes[n]

    # after load, a step still moves the very arrays the store hands out
    path = str(tmp_path / "model.ckpt")
    store.save(path)
    store.load(path)
    arrays = {n: store.get(n).data for n in trainable}
    before = {n: a.copy() for n, a in arrays.items()}
    gradients()
    store.adam_step(lr, clip_norm=clip)
    for n, a in arrays.items():
        assert store.get(n).data is a
        assert not np.array_equal(a, before[n]), n


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
        assert {"l_tg", "l_gr", "l_total", "val_bleu", "grad_norm_mean",
                "grad_norm_max"} <= set(rec)
        assert 0.0 < rec["grad_norm_mean"] <= rec["grad_norm_max"]
        assert abs(rec["l_total"]
                   - (rec["l_tg"] + 0.08 * rec["l_gr"])) < 1e-9
    restored = Seq2SeqModel(cfg, seed=99)
    restored.store.load(str(ckpt))


PACKED_MODELS = [("BASE", {})] + [
    (variation, gnn) for variation in ("GRASAME", "VAR1", "VAR2")
    for gnn in ({"sage_aggregator": "MEAN"}, {"sage_aggregator": "SUM"},
                {"sage_aggregator": "MAX"}, {"family": "GAT"},
                {"family": "RGCN"})]
# name -> (lambda_gr, disable_gr_loss, freeze_mode)
LOSS_SETTINGS = {"with_gr": (0.08, False, "NONE"),
                 "disable_gr_loss": (0.08, True, "NONE"),
                 "lambda_zero": (0.0, False, "NONE"),
                 "freeze_base": (0.08, False, "FREEZE_BASE")}


def _loss_and_grads(model, build):
    model.store.zero_grads()
    loss, bd = build()
    T.backward(loss)
    return loss.item(), bd, {n: t.grad for n, t in model.store.items()}


@pytest.mark.parametrize("variation,gnn", PACKED_MODELS)
def test_packed_batch_matches_loop_reference(variation, gnn):
    """The packed batch loss, every LossBreakdown field and every parameter
    gradient agree with the per-example loop to 1e-10 relative: on mixed
    lengths, a batch of one and a batch with an item that has no
    reconstruction pairs, under each loss setting."""
    vocab, cfg, items = make_setup(variation, layers=2, **gnn)
    model = Seq2SeqModel(cfg, seed=21)
    no_pairs = dataclasses.replace(items[1],
                                   gr_targets=np.empty((3, 0), dtype=np.intp))
    batches = [items, items[2:3], [items[0], no_pairs, items[2]]]
    for name, (lam, no_gr, freeze) in LOSS_SETTINGS.items():
        TR._apply_freeze(model, freeze)
        for batch in batches:
            got = _loss_and_grads(model, lambda: TR.compute_batch_loss(
                model, batch, lam, no_gr))
            want = _loss_and_grads(model, lambda: loop_batch_loss(
                model, batch, lam, no_gr))
            assert relative_error(got[0], want[0]) <= 1e-10, name
            for f in dataclasses.fields(TR.LossBreakdown):
                a, b = getattr(got[1], f.name), getattr(want[1], f.name)
                assert relative_error(a, b) <= 1e-10, (name, f.name)
            for p, g in got[2].items():
                ref = want[2][p]
                assert (g is None) == (ref is None), (name, p)
                if g is not None:
                    assert relative_error(g, ref) <= 1e-10, (name, p)
    # the last batch scored: the item without pairs adds none
    assert got[1].num_pairs == (items[0].gr_targets.shape[1]
                                + items[2].gr_targets.shape[1])


# GAT last, which keeps the other models' test ids from before GAT joined
@pytest.mark.parametrize("variation,gnn", sorted(
    PACKED_MODELS, key=lambda m: m[1].get("family") == "GAT"))
def test_batch_tape_size_does_not_grow_with_examples(variation, gnn):
    """A packed batch records the same tape ops whatever its example
    count."""
    vocab, cfg, items = make_setup(variation, **gnn)
    model = Seq2SeqModel(cfg, seed=3)
    six, _ = TR.compute_batch_loss(model, items[:6], lambda_gr=0.08)
    one, _ = TR.compute_batch_loss(model, items[2:3], lambda_gr=0.08)
    assert recorded_nodes(six) == recorded_nodes(one)


def test_early_stop_on_threshold():
    vocab, cfg, items = make_setup()
    model = Seq2SeqModel(cfg, seed=2)
    config = TR.TrainConfig(epochs=50, batch_size=3, seed=2,
                            stop_token_accuracy=0.0)
    history = TR.train(model, items, config)
    assert len(history) == 1


def test_early_stop_ignores_gr_threshold_without_gr_loss():
    # no pair is scored, so gr_accuracy stays 0.0 below the threshold
    vocab, cfg, items = make_setup()
    model = Seq2SeqModel(cfg, seed=2)
    config = TR.TrainConfig(epochs=3, batch_size=3, seed=2,
                            disable_gr_loss=True, stop_token_accuracy=0.0,
                            stop_gr_accuracy=0.5)
    assert len(TR.train(model, items, config)) == 1


def test_epoch_record_is_ratios_of_summed_batch_counts(monkeypatch):
    # (c / n) * n != c for each of these counts, and the sums do not
    # survive sum * (1 / n) * n either: an epoch rebuilt from batch means
    # misses every one of the exact values below
    batches = iter([
        TR.LossBreakdown(tg_sum=13.3, gr_sum=2.2, num_tokens=39,
                         num_pairs=59, tok_correct=25, gr_correct=31,
                         l_total=1.0),
        TR.LossBreakdown(tg_sum=16.5, gr_sum=4.0, num_tokens=41,
                         num_pairs=29, tok_correct=7, gr_correct=15,
                         l_total=1.0)])
    monkeypatch.setattr(TR, "compute_batch_loss",
                        lambda *args: (T.Tensor(0.0), next(batches)))
    vocab, cfg, items = make_setup()
    model = Seq2SeqModel(cfg, seed=0)
    [record] = TR.train(model, items[:2], TR.TrainConfig(epochs=1,
                                                         batch_size=1))
    assert record["token_accuracy"] == (25 + 7) / (39 + 41)
    assert record["gr_accuracy"] == (31 + 15) / (59 + 29)
    assert record["l_tg"] == (13.3 + 16.5) * (1.0 / (39 + 41))
    assert record["l_gr"] == (2.2 + 4.0) * (1.0 / (59 + 29))
    assert record["l_total"] == record["l_tg"] + 0.08 * record["l_gr"]


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


@pytest.mark.parametrize("variation,gnn", PACKED_MODELS)
def test_backward_rules_keep_arrays_not_tensors(variation, gnn):
    """Every rule on a batch's tape closes over arrays, shapes and helper
    functions only, never a tensor or another node, so an op output that
    no rule reads dies with its tensor."""
    vocab, cfg, items = make_setup(variation, **gnn)
    model = Seq2SeqModel(cfg, seed=3)
    loss, _ = TR.compute_batch_loss(model, items, lambda_gr=0.08)
    for node in tape_nodes(loss):
        held = [cell.cell_contents for cell in node._backward.__closure__]
        while held:
            obj = held.pop()
            assert not isinstance(obj, (T.Tensor, T._Node)), (
                node._backward.__qualname__)
            if isinstance(obj, (list, tuple)):
                held.extend(obj)
            elif callable(obj) and getattr(obj, "__closure__", None):
                held.extend(cell.cell_contents for cell in obj.__closure__)


def test_train_frees_each_batch_tape_before_the_next_forward():
    """``train`` keeps no batch's tape past its backward: its traced peak
    over an epoch stays within 1.25 times the peak of one loss and
    backward on the largest of its batches."""
    examples = large_corpus(8)
    vocab = build_vocabulary(examples)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, num_heads=2,
                      feedforward_dim=64,
                      gnn=GnnConfig(family="SAGE", in_dim=32, out_dim=32),
                      max_sequence_length=160, max_target_length=128)
    items = TR.prepare_items(examples, vocab, cfg)
    model = Seq2SeqModel(cfg, seed=1)
    config = TR.TrainConfig(epochs=1, batch_size=4, seed=7)
    model.store.zero_grads()  # lays out the flat buffers before tracing
    order = list(range(len(items)))
    random.Random(config.seed).shuffle(order)  # the batches train draws
    step_peak = 0
    for start in range(0, len(order), config.batch_size):
        batch = [items[i] for i in order[start:start + config.batch_size]]
        tracemalloc.start()
        try:
            loss, _ = TR.compute_batch_loss(model, batch, config.lambda_gr)
            T.backward(loss)
            step_peak = max(step_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del loss
    tracemalloc.start()
    try:
        TR.train(model, items, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * step_peak, (peak, step_peak)
