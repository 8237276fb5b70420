import hashlib
import math

import numpy as np
import pytest

from graphtext import data as D
from graphtext import gnn as N
from graphtext import graph as G
from graphtext import model as M
from graphtext import tensor as T
from graphtext import training as TR
from oracles import (finite_difference, forward_edges_of, recorded_nodes,
                     reference_softmax, relative_error)


def oracle_attention(q_in, kv_in, wq, wk, wv, wo, num_heads, mask=None):
    """Independent numpy evaluation of multi-head scaled dot-product
    attention."""
    d = wq.shape[1]
    dk = d // num_heads
    Q, K, V = q_in @ wq, kv_in @ wk, kv_in @ wv
    outs = []
    for h in range(num_heads):
        sl = slice(h * dk, (h + 1) * dk)
        scores = Q[:, sl] @ K[:, sl].T / math.sqrt(dk)
        if mask is not None:
            scores = np.where(mask, scores, -1e30)
        alpha = reference_softmax(scores)
        if mask is not None:
            alpha = np.where(mask, alpha, 0.0)
            alpha = alpha / alpha.sum(axis=-1, keepdims=True)
        outs.append(alpha @ V[:, sl])
    return np.concatenate(outs, axis=-1) @ wo


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
    """Each example of a packed batch attends its own rows only, causally
    or not, and matches the oracle run on that example alone."""
    rng = np.random.default_rng(0)
    d = 8
    ws = [T.Tensor(rng.standard_normal((d, d)) * 0.5) for _ in range(4)]
    q_rows, kv_rows = [3, 1, 4], [5, 2, 4]
    q_in = T.Tensor(rng.standard_normal((sum(q_rows), d)))
    kv_in = T.Tensor(rng.standard_normal((sum(kv_rows), d)))
    for q, kv, segments, causal in [
            (q_in, kv_in, list(zip(q_rows, kv_rows)), False),
            (kv_in, kv_in, list(zip(kv_rows, kv_rows)), True)]:
        out = M.multi_head_attention(q, kv, ws, heads, segments, causal)
        qo = ko = 0
        for nq, nk in segments:
            mask = np.tri(nq, nk, dtype=bool) if causal else None
            ref_out = oracle_attention(
                q.data[qo:qo + nq], kv.data[ko:ko + nk],
                *[w.data for w in ws], num_heads=heads, mask=mask)
            assert np.allclose(out.data[qo:qo + nq], ref_out, atol=1e-10)
            qo, ko = qo + nq, ko + nk
    with pytest.raises(T.ShapeError):  # the segments miss a key row
        M.multi_head_attention(q_in, kv_in, ws, heads, [(8, 10)])


def _attention_weights(rng, d=8):
    return [T.Tensor(rng.standard_normal((d, d)) * 0.5) for _ in range(4)]


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_causal_attention_row_ignores_later_rows(heads):
    """Output row j of causal self-attention reads rows 0..j only: new
    values in every row after j leave it bit-identical."""
    rng = np.random.default_rng(3)
    ws = _attention_weights(rng)
    x = rng.standard_normal((6, 8))
    out = M.multi_head_attention(T.Tensor(x), T.Tensor(x), ws, heads,
                                 [(6, 6)], causal=True).data
    for j in range(5):
        y = x.copy()
        y[j + 1:] = rng.standard_normal((5 - j, 8)) * 10
        got = M.multi_head_attention(T.Tensor(y), T.Tensor(y), ws, heads,
                                     [(6, 6)], causal=True).data
        assert np.array_equal(got[:j + 1], out[:j + 1])
        assert not np.array_equal(got[j + 1:], out[j + 1:])


@pytest.mark.parametrize("causal", [False, True])
def test_segment_attention_ignores_other_segments(causal):
    """New values in every other segment's rows leave a segment's output
    bit-identical."""
    rng = np.random.default_rng(4)
    ws = _attention_weights(rng)
    sizes = [3, 1, 4]
    segments = [(n, n) for n in sizes]
    bounds = np.cumsum([0] + sizes)
    x = rng.standard_normal((8, 8))
    out = M.multi_head_attention(T.Tensor(x), T.Tensor(x), ws, 2, segments,
                                 causal).data
    for lo, hi in zip(bounds, bounds[1:]):
        y = rng.standard_normal((8, 8)) * 10
        y[lo:hi] = x[lo:hi]
        got = M.multi_head_attention(T.Tensor(y), T.Tensor(y), ws, 2,
                                     segments, causal).data
        assert np.array_equal(got[lo:hi], out[lo:hi])


def test_single_token_attention_weight_is_one():
    """One key row takes all the weight, which the output shows: it is
    that row's value projection through the output projection."""
    rng = np.random.default_rng(1)
    d = 8
    x = T.Tensor(rng.standard_normal((1, d)))
    ws = [T.Tensor(rng.standard_normal((d, d))) for _ in range(4)]
    out = M.multi_head_attention(x, x, ws, 4, [(1, 1)])
    want = T.matmul(T.matmul(x, ws[2]), ws[3])
    assert np.array_equal(out.data, want.data)


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_attention_tape_size_does_not_grow_with_heads(heads):
    """Counts the tape nodes one attention call records: the head split is
    a tensor axis inside one attention op, so a per-head loop would add
    nodes per head."""
    rng = np.random.default_rng(2)
    d = 16
    x = T.Tensor(rng.standard_normal((3, d)))
    ws = [T.Tensor(rng.standard_normal((d, d)), requires_grad=True)
          for _ in range(4)]
    out = M.multi_head_attention(x, x, ws, heads, [(3, 3)], causal=True)
    assert recorded_nodes(out) == 5


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


def test_graph_of_other_row_count_rejected():
    """``encode`` takes one graph over all its rows: a graph of another
    node count, such as one example's graph for a batch of two copies of
    it, is a shape error."""
    vocab, inp, graph, gt = iraq_inputs()
    model = M.Seq2SeqModel(toy_config("GRASAME", vocab=len(vocab)), seed=0)
    loops = np.arange(len(inp) - 1)  # self-loops over one node fewer
    rel = np.full(len(loops), G.RELATIONS.index(G.RelationType.SELF))
    short = G.HierGraph(len(loops), loops, loops, rel,
                        np.zeros(len(loops), dtype=bool))
    for batch, wrong in ((inp, N.graph_tensors(short)), ([inp, inp], gt)):
        with pytest.raises(T.ShapeError, match="nodes"):
            model.encode(batch, wrong)


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
        emb = model._embed(inp.token_ids, np.arange(len(inp)))
        expected = T.layer_norm(emb, model.enc_ln_g, model.enc_ln_b)
    assert np.allclose(out.data, expected.data, atol=1e-12)
    assert out.shape == (len(inp), model.config.d_model)


def test_untied_model_has_its_own_lm_head():
    """With ``tie_embeddings`` off, the vocabulary head is a (V, d)
    parameter of its own, created after every other, so the rest of the
    model draws the tied model's values. Backward reaches it, and
    FREEZE_BASE, which trains only the graph parameters, freezes it."""
    vocab, inp, graph, gt = iraq_inputs()
    target = D.encode_target(D.tokenize("Iraq language is Arabic."), vocab)
    cfg = toy_config("GRASAME", vocab=len(vocab), tie_embeddings=False)
    model = M.Seq2SeqModel(cfg, seed=6)
    tied = M.Seq2SeqModel(toy_config("GRASAME", vocab=len(vocab)), seed=6)
    names = model.store.names()
    assert names[-1] == "lm_head" and tied.store.names() == names[:-1]
    for name in names[:-1]:
        assert np.array_equal(model.store.get(name).data,
                              tied.store.get(name).data), name
    assert model.lm_head is model.store.get("lm_head")
    assert model.lm_head is not model.emb_tok
    assert model.lm_head.shape == (len(vocab), cfg.d_model)

    def loss_of(m):
        logits = m.decode(target[:-1], m.encode(inp, gt))
        return T.cross_entropy(logits, target[1:])

    T.backward(loss_of(model))
    head = model.lm_head
    assert np.any(head.grad)
    [numeric] = finite_difference(lambda: loss_of(model).item(), [head.data])
    assert relative_error(head.grad, numeric) <= 1e-4
    TR._apply_freeze(model, "FREEZE_BASE")
    assert not head.requires_grad
    head.zero_grad()
    T.backward(loss_of(model))
    assert head.grad is None


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


CACHE_MODELS = [("BASE", None)] + [
    (variation, family) for variation in ("GRASAME", "VAR1", "VAR2")
    for family in ("SAGE", "GAT", "RGCN")]


@pytest.mark.parametrize("variation,family", CACHE_MODELS)
def test_cached_step_matches_full_prefix_recompute(variation, family):
    """Step by step over random prefixes, the cached step's logits for each
    row equal the last row of a teacher-forced decode of that row's whole
    prefix. Parents repeat rows and drop rows along the way."""
    vocab, inp, graph, gt = iraq_inputs()
    cfg = toy_config(variation, vocab=len(vocab), max_target_length=9,
                     **({"family": family} if family else {}))
    rng = np.random.default_rng(len(CACHE_MODELS))
    model = M.Seq2SeqModel(cfg, seed=5)
    # rows 0 and then 1 are picked twice, and then row 1 is dropped
    scripted = [[0], [0, 0], [1, 1, 0], [2, 0]]
    with T.no_grad():
        enc = model.encode(inp, gt)
        cache = M.DecoderCache(model, enc)
        seqs = np.array([[D.BOS_ID]])
        parents = np.zeros(1, dtype=np.int64)
        for step in range(cfg.max_target_length):
            cache.reorder(parents)
            with pytest.raises(T.ShapeError):  # one next token per row
                cache.step(np.zeros(len(seqs) + 1, dtype=int))
            got = cache.step(seqs[:, -1])
            assert got.shape == (len(seqs), len(vocab))
            for row, prefix in enumerate(seqs.tolist()):
                want = model.decode(prefix, enc).data[-1]
                assert np.abs(got[row] - want).max() <= 1e-12
                assert np.abs(np.log(reference_softmax(got[row]))
                              - np.log(reference_softmax(want))).max() <= 1e-12
            if step + 1 < len(scripted):
                parents = np.array(scripted[step + 1])
            else:
                parents = rng.integers(0, len(seqs), size=rng.integers(1, 5))
            seqs = np.column_stack(
                (seqs[parents], rng.integers(0, len(vocab), len(parents))))
        cache.reorder(parents)
        with pytest.raises(T.ShapeError):  # position 9 of a 9-token model
            cache.step(seqs[:, -1])


@pytest.mark.parametrize("variation,family", CACHE_MODELS)
def test_closed_form_parameter_count_matches_the_store(variation, family):
    """``ModelConfig.num_values``, which the out-of-memory refusal reads
    before any parameter is drawn, counts what the store then holds."""
    for tie in (True, False):
        for enc_layers, dec_layers, kw in [
                (0, 0, {}), (1, 3, {"max_target_length": 40}),
                (3, 1, {"d_model": 12, "num_heads": 3}),
                (2, 2, {"identity": True})]:
            cfg = toy_config(variation, tie_embeddings=tie,
                             num_encoder_layers=enc_layers,
                             num_decoder_layers=dec_layers, **kw,
                             **({"family": family} if family else {}))
            if cfg.gnn is not None:  # GAT draws one weight per head
                cfg.gnn.gat_heads = 1 + enc_layers
            got = M.Seq2SeqModel(cfg).store.num_values()
            assert cfg.num_values() == got, (tie, enc_layers, kw)


def _scripted_steps(model, enc, vocab_size):
    """The logits of five cached steps whose parents repeat and drop rows."""
    rng = np.random.default_rng(3)
    cache = M.DecoderCache(model, enc)
    logits = []
    for parents in ([0], [0, 0, 0], [2, 0, 1, 1], [3, 0], [1, 1, 0]):
        cache.reorder(parents)
        logits.append(cache.step(rng.integers(0, vocab_size, len(parents))))
    return logits


def test_cached_step_records_no_tape_with_grad_on_or_off(monkeypatch):
    """The cache and its steps run on arrays: they make no tape op (a
    step through the tape made about 43), and the logits are the same
    bits with grad on and with grad off."""
    vocab, inp, graph, gt = iraq_inputs()
    model = M.Seq2SeqModel(toy_config("GRASAME", vocab=len(vocab)), seed=5)
    with T.no_grad():
        enc = model.encode(inp, gt)
        off = _scripted_steps(model, enc, len(vocab))
    ops = []
    result = T._result
    monkeypatch.setattr(T, "_result",
                        lambda *args: ops.append(args) or result(*args))
    on = _scripted_steps(model, enc, len(vocab))
    assert ops == []
    assert all(np.array_equal(a, b) for a, b in zip(on, off))


def test_cached_step_rejects_a_token_outside_the_vocabulary():
    """As ``embedding_lookup`` does, before the cache changes."""
    vocab, inp, graph, gt = iraq_inputs()
    model = M.Seq2SeqModel(toy_config("BASE", vocab=len(vocab)), seed=5)
    with T.no_grad():
        enc = model.encode(inp, None)
    cache = M.DecoderCache(model, enc)
    for bad in (len(vocab), -1):
        with pytest.raises(T.ShapeError, match="out of range"):
            cache.step([bad])
    assert cache.length == 0
    assert cache.step([D.BOS_ID]).shape == (1, len(vocab))


def test_cross_attention_rows_sum_to_one():
    """Seen through the output: with distinct keys but one value row
    repeated, every query's output is that value under the output
    projection exactly when the query's weights sum to one."""
    rng = np.random.default_rng(9)
    d = 8
    dec_states = T.Tensor(rng.standard_normal((4, d)))
    # the encoder states differ only in the columns that the value
    # projection zeroes: distinct keys, one value row repeated
    enc = np.repeat(rng.standard_normal((1, d)), 6, axis=0)
    enc[:, :d // 2] = rng.standard_normal((6, d // 2))
    ws = [T.Tensor(rng.standard_normal((d, d))) for _ in range(4)]
    ws[2].data[:d // 2] = 0.0
    out = M.multi_head_attention(dec_states, T.Tensor(enc), ws, 2, [(4, 6)])
    value = enc[:1] @ ws[2].data
    want = np.repeat(value @ ws[3].data, 4, axis=0)
    assert np.allclose(out.data, want, rtol=0, atol=1e-12)


def test_reconstruction_head_contracts():
    vocab, inp, graph, gt = iraq_inputs()
    model = M.Seq2SeqModel(toy_config("GRASAME", vocab=len(vocab)), seed=10)
    targets = G.reconstruction_targets(graph)
    with T.no_grad():
        enc = model.encode(inp, gt)
    model.gr_w.data[:] = 0.0
    model.gr_b.data[:] = 0.0
    with T.no_grad():
        logits = model.reconstruct_relations(enc, targets[:2]).data
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    assert np.allclose(probs, 0.2, atol=1e-12)

    model.gr_b.data[:] = 0.0
    model.gr_b.data[3] = 50.0
    with T.no_grad():
        logits = model.reconstruct_relations(enc, targets[:2])
    assert np.all(np.argmax(logits.data, axis=1) == 3)

    with pytest.raises(T.ShapeError):
        model.reconstruct_relations(enc, np.array([[0], [99]]))
    with pytest.raises(ValueError):
        model.reconstruct_relations(enc, np.empty((2, 0), dtype=np.intp))


def test_relation_label_ids_cover_five_labels():
    """A target's label is its relation's index in LABEL_RELATIONS, and a
    graph with every relation uses all five."""
    assert M.NUM_EDGE_LABELS == 5
    ex = D.Example([D.Triple("New Italy", "capital city", "Old Rome"),
                    D.Triple("Old Rome", "population", "2873000")])
    graph = G.build_graph(D.linearize(ex, D.DEFAULT_PROMPT,
                                      D.build_vocabulary([ex])))
    targets = G.reconstruction_targets(graph)
    assert sorted(set(targets[2].tolist())) == [0, 1, 2, 3, 4]
    assert {(u, v, G.LABEL_RELATIONS[r]) for u, v, r in targets.T.tolist()} \
        == {(e.src, e.dst, e.rel) for e in forward_edges_of(graph)}


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
    ends, labels = targets[:2], targets[2]
    cfg = M.ModelConfig(vocab_size=len(vocab), d_model=4, num_heads=2,
                        num_encoder_layers=1, num_decoder_layers=1,
                        feedforward_dim=8, variation="GRASAME",
                        gnn=N.GnnConfig(in_dim=4, out_dim=4),
                        max_sequence_length=16, max_target_length=8)
    model = M.Seq2SeqModel(cfg, seed=19)
    target_ids = D.encode_target(D.tokenize(ex.target_text), vocab)

    def build_loss():
        enc = model.encode(inp, gt)
        logits = model.decode(target_ids[:-1], enc)
        # each mean is the summed cross-entropy over its count
        l_tg = T.scale(T.cross_entropy(logits, target_ids[1:]),
                       1 / (len(target_ids) - 1))
        gr_logits = model.reconstruct_relations(enc, ends)
        l_gr = T.scale(T.cross_entropy(gr_logits, labels), 1 / len(labels))
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


# SHA-256 of the checkpoint a fresh toy model saves, recorded before the
# store moved to flat buffers: a layout change that reorders, re-types or
# re-draws any parameter changes these bytes.
INIT_CHECKPOINT_SHA256 = {
    ("BASE", None):
        "cd2d9167f1c519573d256c49f48786f6ee76e5d059f034dc17de95e1b4d996d3",
    ("GRASAME", "SAGE"):
        "d4fb3f17c62cfb064daba726784157e7d8d6a8d34adcbccfac08f40b463b5d38",
    ("GRASAME", "GAT"):
        "b2912dc38a36586b2934fc4c2580d7d339ad30a696be21d36aaac40ace06be5a",
    ("GRASAME", "RGCN"):
        "546dbf5a921c3e0c0a12ef91f81b80141c6fde3c13f9dd731b36ea87749a67b1",
}


@pytest.mark.parametrize("variation,family", list(INIT_CHECKPOINT_SHA256))
def test_fresh_checkpoint_bytes_are_pinned(variation, family, tmp_path):
    kw = {} if family is None else {"family": family}
    model = M.Seq2SeqModel(toy_config(variation, **kw), seed=0)
    digests = []
    for i in range(2):  # as created, then laid out in the flat buffers
        path = tmp_path / f"{i}.ckpt"
        model.store.save(str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        model.store.zero_grads()
    assert digests == [INIT_CHECKPOINT_SHA256[variation, family]] * 2
