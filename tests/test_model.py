import math

import numpy as np
import pytest

from graphtext import data as D
from graphtext import gnn as N
from graphtext import graph as G
from graphtext import model as M
from graphtext import tensor as T
from oracles import (finite_difference, recorded_nodes, reference_softmax,
                     relative_error)


def oracle_attention(q_in, kv_in, wq, wk, wv, wo, num_heads, mask=None):
    """Independent numpy evaluation of multi-head scaled dot-product
    attention; returns (output, per-head weights)."""
    d = wq.shape[1]
    dk = d // num_heads
    Q, K, V = q_in @ wq, kv_in @ wk, kv_in @ wv
    outs, weights = [], []
    for h in range(num_heads):
        sl = slice(h * dk, (h + 1) * dk)
        scores = Q[:, sl] @ K[:, sl].T / math.sqrt(dk)
        if mask is not None:
            scores = np.where(mask, scores, -1e30)
        alpha = reference_softmax(scores)
        if mask is not None:
            alpha = np.where(mask, alpha, 0.0)
            alpha = alpha / alpha.sum(axis=-1, keepdims=True)
        weights.append(alpha)
        outs.append(alpha @ V[:, sl])
    return np.concatenate(outs, axis=-1) @ wo, weights


def toy_config(variation="GRASAME", vocab=20, identity=False, **kw):
    gnn = None
    if variation != "BASE":
        d = kw.get("d_model", 8)
        gnn = N.GnnConfig(family=kw.pop("family", "SAGE"), in_dim=d, out_dim=d,
                          identity_mode=identity)
    defaults = dict(vocab_size=vocab, d_model=8, num_heads=2,
                    num_encoder_layers=2, num_decoder_layers=2,
                    feedforward_dim=16, variation=variation, gnn=gnn,
                    max_sequence_length=32, max_target_length=16)
    defaults.update(kw)
    return M.ModelConfig(**defaults)


def iraq_inputs(vocab_size=None):
    ex = D.Example([D.Triple("Iraq", "language", "Arabic")],
                   "Iraq language is Arabic.")
    vocab = D.build_vocabulary([ex])
    inp = D.linearize(ex, D.DEFAULT_PROMPT, vocab)
    graph = G.build_graph(inp)
    return vocab, inp, graph, N.graph_tensors(graph)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_matches_bruteforce_oracle(heads):
    rng = np.random.default_rng(0)
    n, m, d = 3, 5, 8
    q_in = T.Tensor(rng.standard_normal((n, d)))
    kv_in = T.Tensor(rng.standard_normal((m, d)))
    ws = [T.Tensor(rng.standard_normal((d, d)) * 0.5) for _ in range(4)]
    mask = rng.random((n, m)) > 0.3
    mask[:, 0] = True  # keep every row attendable
    out, alpha = M.multi_head_attention(q_in, kv_in, *ws, num_heads=heads,
                                        mask=mask)
    ref_out, ref_w = oracle_attention(q_in.data, kv_in.data,
                                      *[w.data for w in ws], num_heads=heads,
                                      mask=mask)
    assert np.allclose(out.data, ref_out, atol=1e-10)
    assert alpha.shape == (heads, n, m)
    for h, ref in enumerate(ref_w):
        got = alpha.data[h]
        assert np.allclose(got, ref, atol=1e-10)
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(got[~mask] == 0.0)


def test_single_token_attention_weight_is_one():
    rng = np.random.default_rng(1)
    d = 8
    x = T.Tensor(rng.standard_normal((1, d)))
    ws = [T.Tensor(rng.standard_normal((d, d))) for _ in range(4)]
    _, alpha = M.multi_head_attention(x, x, *ws, num_heads=4)
    for h in range(4):
        assert np.allclose(alpha.data[h], [[1.0]])


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_attention_tape_size_does_not_grow_with_heads(heads):
    """Counts the tape nodes one attention call records: the head split is
    a tensor axis, so a per-head loop would add nodes per head."""
    rng = np.random.default_rng(2)
    d = 16
    x = T.Tensor(rng.standard_normal((3, d)))
    ws = [T.Tensor(rng.standard_normal((d, d)), requires_grad=True)
          for _ in range(4)]
    out, _ = M.multi_head_attention(x, x, *ws, num_heads=heads,
                                    mask=np.tril(np.ones((3, 3), dtype=bool)))
    assert recorded_nodes(out) == 12


@pytest.mark.parametrize("variation", ["GRASAME", "VAR1", "VAR2"])
def test_identity_gnn_reduces_to_base(variation):
    vocab, inp, graph, gt = iraq_inputs()
    base = M.Seq2SeqModel(toy_config("BASE", vocab=len(vocab)), seed=7)
    alt = M.Seq2SeqModel(toy_config(variation, vocab=len(vocab), identity=True),
                         seed=7)
    assert base.store.names() == alt.store.names()
    for n_ in base.store.names():
        assert np.array_equal(base.store.get(n_).data, alt.store.get(n_).data)
    with T.no_grad():
        out_base = base.encode(inp, None)
        out_alt = alt.encode(inp, gt)
    assert np.max(np.abs(out_base.data - out_alt.data)) <= 1e-12


def test_base_variation_has_no_gnn_parameters():
    vocab, *_ = iraq_inputs()
    base = M.Seq2SeqModel(toy_config("BASE", vocab=len(vocab)), seed=0)
    assert not [n_ for n_ in base.store.names() if ".gnn." in n_]
    real = M.Seq2SeqModel(toy_config("GRASAME", vocab=len(vocab)), seed=0)
    assert [n_ for n_ in real.store.names() if ".gnn." in n_]


def test_missing_graph_rejected_for_graph_variations():
    vocab, inp, *_ = iraq_inputs()
    model = M.Seq2SeqModel(toy_config("GRASAME", vocab=len(vocab)), seed=0)
    with pytest.raises(ValueError):
        model.encode(inp, None)


def test_head_count_shape_invariance():
    vocab, inp, graph, gt = iraq_inputs()
    for heads in (1, 2, 4, 8):
        cfg = toy_config("GRASAME", vocab=len(vocab), num_heads=heads)
        model = M.Seq2SeqModel(cfg, seed=3)
        with T.no_grad():
            out = model.encode(inp, gt)
        assert out.shape == (len(inp), cfg.d_model)


def test_zeroed_output_paths_leave_residual_stream():
    vocab, inp, graph, gt = iraq_inputs()
    model = M.Seq2SeqModel(toy_config("BASE", vocab=len(vocab)), seed=4)
    for layer in model.enc_layers:
        layer["wo"].data[:] = 0.0
        layer["ff_w2"].data[:] = 0.0
        layer["ff_b2"].data[:] = 0.0
    with T.no_grad():
        out = model.encode(inp, None)
        emb = model._embed(inp.token_ids)
        expected = T.layer_norm(emb, model.enc_ln_g, model.enc_ln_b)
    assert np.allclose(out.data, expected.data, atol=1e-12)
    assert out.shape == (len(inp), model.config.d_model)


def test_encoder_output_finite_at_max_length():
    vocab, inp, graph, gt = iraq_inputs()
    cfg = toy_config("GRASAME", vocab=len(vocab), max_sequence_length=64)
    model = M.Seq2SeqModel(cfg, seed=5)
    ids = list(np.random.default_rng(6).integers(0, len(vocab), size=64))
    # graph-free check uses the BASE wiring on random ids
    base = M.Seq2SeqModel(toy_config("BASE", vocab=len(vocab),
                                     max_sequence_length=64), seed=5)
    with T.no_grad():
        out = base.encode(ids, None)
    assert np.all(np.isfinite(out.data))
    with T.no_grad():
        out2 = model.encode(inp, gt)
    assert np.all(np.isfinite(out2.data))


def test_decoder_causality():
    vocab, inp, graph, gt = iraq_inputs()
    model = M.Seq2SeqModel(toy_config("GRASAME", vocab=len(vocab)), seed=8)
    with T.no_grad():
        enc = model.encode(inp, gt)
        prefix = [D.BOS_ID, 9, 10, 11]
        logits = model.decode(prefix, enc).data
        altered = model.decode([D.BOS_ID, 9, 12, 13], enc).data
    assert np.allclose(logits[:2], altered[:2], atol=1e-12)
    assert not np.allclose(logits[2:], altered[2:])


def test_cross_attention_rows_sum_to_one():
    rng = np.random.default_rng(9)
    d = 8
    dec_states = T.Tensor(rng.standard_normal((4, d)))
    enc_states = T.Tensor(rng.standard_normal((6, d)))
    ws = [T.Tensor(rng.standard_normal((d, d))) for _ in range(4)]
    _, alpha = M.multi_head_attention(dec_states, enc_states, *ws, num_heads=2)
    for h in range(2):
        assert np.allclose(alpha.data[h].sum(axis=1), 1.0, atol=1e-9)


def test_reconstruction_head_contracts():
    vocab, inp, graph, gt = iraq_inputs()
    model = M.Seq2SeqModel(toy_config("GRASAME", vocab=len(vocab)), seed=10)
    targets = G.reconstruction_targets(graph)
    with T.no_grad():
        enc = model.encode(inp, gt)
    model.gr_w.data[:] = 0.0
    model.gr_b.data[:] = 0.0
    with T.no_grad():
        logits = model.reconstruct_relations(enc, targets)
        probs = T.softmax_last_dim(logits)
    assert np.allclose(probs.data, 0.2, atol=1e-12)

    model.gr_b.data[:] = 0.0
    model.gr_b.data[3] = 50.0
    with T.no_grad():
        logits = model.reconstruct_relations(enc, targets)
    assert np.all(np.argmax(logits.data, axis=1) == 3)

    with pytest.raises(T.ShapeError):
        model.reconstruct_relations(enc, [(0, 99, G.RelationType.R1)])
    with pytest.raises(ValueError):
        model.reconstruct_relations(enc, [])


def test_relation_label_ids_cover_five_labels():
    assert M.NUM_EDGE_LABELS == 5
    labels = M.relation_label_ids(
        [(0, 1, r) for r in G.LABEL_RELATIONS])
    assert labels == [0, 1, 2, 3, 4]


def relu_kink_margin(build_loss):
    """Smallest |pre-activation| hitting a relu during one forward pass.
    Central differences are only trustworthy when this clears the step."""
    margins = []
    orig = T.relu

    def spy(a):
        margins.append(float(np.min(np.abs(a.data))))
        return orig(a)

    T.relu = spy
    try:
        build_loss()
    finally:
        T.relu = orig
    return min(margins)


def test_full_model_gradients_vs_finite_differences():
    """End-to-end: encode -> decode CE plus relation-head CE, every
    parameter checked by central differences on a small config."""
    ex = D.Example([D.Triple("a b", "rel", "c")], "a b rel c")
    vocab = D.build_vocabulary([ex])
    inp = D.linearize(ex, "go :", vocab)
    graph = G.build_graph(inp)
    gt = N.graph_tensors(graph)
    targets = G.reconstruction_targets(graph)
    labels = M.relation_label_ids(targets)
    cfg = M.ModelConfig(vocab_size=len(vocab), d_model=4, num_heads=2,
                        num_encoder_layers=1, num_decoder_layers=1,
                        feedforward_dim=8, variation="GRASAME",
                        gnn=N.GnnConfig(in_dim=4, out_dim=4),
                        max_sequence_length=16, max_target_length=8)
    model = M.Seq2SeqModel(cfg, seed=19)
    target_ids = D.encode_target(ex.target_text, vocab)

    def build_loss():
        enc = model.encode(inp, gt)
        logits = model.decode(target_ids[:-1], enc)
        l_tg = T.cross_entropy(logits, target_ids[1:], ignore_id=D.PAD_ID)
        gr_logits = model.reconstruct_relations(enc, targets)
        l_gr = T.cross_entropy(gr_logits, labels)
        return T.add(l_tg, T.scale(l_gr, 0.08))

    assert relu_kink_margin(build_loss) > 1e-3
    loss = build_loss()
    T.backward(loss)
    names = model.store.names()
    tensors = [model.store.get(n_) for n_ in names]
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    numeric = finite_difference(lambda: build_loss().item(),
                                [t.data for t in tensors])
    worst = 0.0
    for name, a, n_ in zip(names, analytic, numeric):
        err = relative_error(a, n_)
        worst = max(worst, err)
        assert err <= 1e-4, f"{name}: rel err {err}"
    assert worst <= 1e-4
