"""Acceptance gate: nine end-to-end checks, one test per criterion.

`pytest -v tests/test_acceptance.py` therefore prints exactly one
pass/fail line per criterion; each test also prints a `[criterion N]`
summary with the measured numbers (shown with -rA, or on failure).
Tolerances and runtime bounds are asserted, never logged-and-ignored.
"""
import inspect
import math
import random
import time

import numpy as np
import pytest

from graphtext import data as D
from graphtext import decoding as X
from graphtext import gnn as N
from graphtext import graph as G
from graphtext import model as M
from graphtext import tensor as T
from graphtext import training as TR
from graphtext.metrics import chrf_pp, corpus_bleu

import corpus as synth
import test_decoding as toy
from oracles import (finite_difference, forward_edges_of, mul,
                     per_prefix_step, relative_error,
                     sampled_finite_difference, tsum)
from test_graph import (forward_set, iraq_example, monocacy_example,
                        oracle_forward_edges)
from test_model import relu_kink_margin


def _report(num: int, slug: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {slug}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {num} {slug}: {detail}"


# -- shared overfit setup (criteria 4, 5, 6, 9) -----------------------------

def overfit_setup():
    corp = synth.build_corpus()
    vocab = D.build_vocabulary(corp)
    mc = M.ModelConfig(vocab_size=len(vocab), d_model=64, num_heads=4,
                       num_encoder_layers=2, num_decoder_layers=2,
                       feedforward_dim=128, variation="GRASAME",
                       gnn=N.GnnConfig(in_dim=64, out_dim=64),
                       max_sequence_length=32, max_target_length=28)
    return corp, vocab, mc


def overfit_train_config():
    return TR.TrainConfig(epochs=300, batch_size=10, learning_rate=1e-3,
                          lambda_gr=0.08, seed=123,
                          stop_token_accuracy=0.995, stop_gr_accuracy=0.995)


def run_overfit(log_path=None, checkpoint_path=None):
    corp, vocab, mc = overfit_setup()
    items = TR.prepare_items(corp, vocab, mc)
    model = M.Seq2SeqModel(mc, seed=123)
    hist = TR.train(model, items, overfit_train_config(), vocab=vocab,
                    log_path=log_path, checkpoint_path=checkpoint_path)
    return model, items, vocab, hist


# -- criterion 1: gradient correctness --------------------------------------

def _fd_case_error(tensors, build):
    loss = build()
    T.backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    numeric = finite_difference(lambda: build().item(),
                                [t.data for t in tensors])
    return max(relative_error(a, n) for a, n in zip(analytic, numeric))


_NOT_TAPE_OPS = {"backward", "read_checkpoint", "no_grad"}


def _op_sweep():
    """Central differences against every differentiable op, each probed
    through a fixed random weighting so no gradient path collapses. The
    weighting and the sum are the test-only ``oracles.mul`` and
    ``oracles.tsum``, so every case crosses their backwards too."""
    rng = np.random.default_rng(7)

    def away(shape, low=0.1, high=1.0):
        # keep relu inputs clear of the kink at zero
        return rng.uniform(low, high, size=shape) * rng.choice([-1.0, 1.0],
                                                               size=shape)

    def p(arr):
        return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)

    def const(shape):
        return T.Tensor(rng.normal(size=shape))

    def weighted(out, w):
        return tsum(mul(out, w))

    def gat_scores(signs, heads=2):
        # source scores of the given signs dominate the target scores, so
        # every pre-activation keeps its source's sign, clear of
        # LeakyReLU's kink, and a row mixes both branches
        rows = len(signs)
        s_src = rng.uniform(1.0, 1.5, (heads, rows, 1)) * np.reshape(
            signs, (1, rows, 1))
        return p(rng.uniform(-0.4, 0.4, (heads, rows, 1))), p(s_src)

    nb_mask = np.array([[1, 1, 0, 0],
                        [0, 1, 1, 0],
                        [1, 0, 1, 1],
                        [0, 1, 0, 1]], dtype=bool)
    nb_states = p(np.arange(12, dtype=np.float64).reshape(4, 3) * 0.5
                  + rng.uniform(0.0, 0.2, size=(4, 3)))

    cases = []

    def case(label, tensors, build):
        cases.append((label, tensors, build))

    a, b = p(rng.normal(size=(3, 4))), p(rng.normal(size=(4,)))
    w34 = const((3, 4))
    case("add", [a, b], lambda a=a, b=b: weighted(T.add(a, b), w34))
    e = p(rng.normal(size=(3, 4)))
    case("scale", [e], lambda e=e: weighted(T.scale(e, 1.7), w34))
    w35 = const((3, 5))
    m1, m2 = p(rng.normal(size=(3, 4))), p(rng.normal(size=(4, 5)))
    case("matmul", [m1, m2], lambda x=m1, y=m2: weighted(T.matmul(x, y), w35))
    m5, m6 = p(rng.normal(size=(3, 4))), p(rng.normal(size=(5, 4)))
    case("matmul[tb]", [m5, m6],
         lambda x=m5, y=m6: weighted(T.matmul(x, y, transpose_b=True), w35))
    w235 = const((2, 3, 5))
    b1, b2 = p(rng.normal(size=(2, 3, 4))), p(rng.normal(size=(2, 5, 4)))
    case("matmul[batched]", [b1, b2],
         lambda x=b1, y=b2: weighted(T.matmul(x, y, transpose_b=True), w235))
    b3, b4 = p(rng.normal(size=(2, 3, 4))), p(rng.normal(size=(4, 5)))
    case("matmul[broadcast]", [b3, b4],
         lambda x=b3, y=b4: weighted(T.matmul(x, y), w235))
    w215 = const((2, 1, 5))
    b5, b6 = p(rng.normal(size=(2, 1, 4))), p(rng.normal(size=(5, 4)))
    case("matmul[broadcast-tb]", [b5, b6],
         lambda x=b5, y=b6: weighted(T.matmul(x, y, transpose_b=True), w215))
    w43 = const((4, 3))
    r1 = p(away((3, 4)))
    case("relu", [r1], lambda x=r1: weighted(T.relu(x), w34))
    w36 = const((3, 6))
    mh = p(rng.normal(size=(2, 3, 3)))
    case("merge_heads", [mh], lambda x=mh: weighted(T.merge_heads(x), w36))
    w44 = const((4, 4))
    tbl = p(rng.normal(size=(7, 4)))
    case("embedding_lookup", [tbl],
         lambda x=tbl: weighted(T.embedding_lookup(x, [0, 3, 3, 5]), w44))
    w234 = const((2, 3, 4))
    tbl2 = p(rng.normal(size=(7, 4)))
    case("embedding_lookup[2d]", [tbl2],
         lambda x=tbl2: weighted(T.embedding_lookup(x, [[0, 3, 6], [3, 5, 0]]),
                                 w234))
    ln, lg, lb = (p(rng.normal(size=(3, 6))), p(rng.uniform(0.5, 1.5, 6)),
                  p(rng.normal(size=(6,))))
    case("layer_norm", [ln, lg, lb],
         lambda x=ln, g=lg, bb=lb: weighted(T.layer_norm(x, g, bb), w36))
    ce1 = p(rng.normal(size=(5, 7)))
    case("cross_entropy[mean]", [ce1],  # a mean is scale(sum, 1 / rows)
         lambda x=ce1: T.scale(T.cross_entropy(x, [1, 0, 6, 3, 2]), 1 / 5))
    ce2 = p(rng.normal(size=(5, 7)))
    case("cross_entropy[shared-target]", [ce2],
         lambda x=ce2: T.cross_entropy(x, [1, 0, 6, 0, 2]))
    ce3 = p(rng.normal(size=(4, 6)))
    case("cross_entropy", [ce3],
         lambda x=ce3: T.cross_entropy(x, [5, 2, 0, 1]))
    # edge lists (source, target), sorted by target: nb_mask's edges, and
    # a 2-node graph packed before them
    nb_dst, nb_src_ids = np.nonzero(nb_mask)
    nb_edges = np.stack((nb_src_ids, nb_dst))
    two_edges = np.concatenate((np.array([[0, 1, 0, 1], [0, 0, 1, 1]]),
                                nb_edges + 2), axis=1)
    case("segment_max", [nb_states],
         lambda x=nb_states: weighted(T.segment_max(x, nb_edges), w43))
    nb2 = p(np.arange(18, dtype=np.float64).reshape(6, 3) * 0.5
            + rng.uniform(0.0, 0.2, size=(6, 3)))
    w63 = const((6, 3))
    case("segment_max[segments]", [nb2],
         lambda x=nb2: weighted(T.segment_max(x, two_edges), w63))
    sg = p(rng.normal(size=(6, 3)))
    sg_weight = rng.normal(size=two_edges.shape[1])
    case("segment_sum", [sg],
         lambda x=sg: weighted(T.segment_sum(x, two_edges, sg_weight), w63))
    # three channels per row, one of them never filled
    sg2 = p(rng.normal(size=(6, 2)))
    channel = np.where(two_edges[1] % 2 == 0, 0, 2)
    cells = np.stack((two_edges[0], 3 * two_edges[1] + channel))
    w66 = const((6, 6))
    case("segment_sum[channels]", [sg2],
         lambda x=sg2: weighted(T.segment_sum(x, cells, channels=3), w66))
    aq, ak, av = (p(rng.normal(size=(3, 4))), p(rng.normal(size=(5, 4))),
                  p(rng.normal(size=(5, 4))))
    case("attention", [aq, ak, av],
         lambda q=aq, k=ak, v=av: weighted(T.attention(q, k, v, 2, [(3, 5)]),
                                           w34))
    sq, sk, sv = (p(rng.normal(size=(5, 4))), p(rng.normal(size=(5, 4))),
                  p(rng.normal(size=(5, 4))))
    w54 = const((5, 4))
    case("attention[segments-causal]", [sq, sk, sv],
         lambda q=sq, k=sk, v=sv: weighted(
             T.attention(q, k, v, 2, [(2, 2), (3, 3)], causal=True), w54))
    cq, ck, cv = (p(rng.normal(size=(3, 4))), p(rng.normal(size=(5, 4))),
                  p(rng.normal(size=(5, 4))))
    case("attention[segments-cross]", [cq, ck, cv],
         lambda q=cq, k=ck, v=cv: weighted(
             T.attention(q, k, v, 2, [(1, 3), (2, 2)]), w34))
    na_dst, na_src = gat_scores([1, 1, -1, 1])
    na_val = p(rng.normal(size=(2, 4, 3)))
    full = np.stack(np.divmod(np.arange(16), 4)[::-1])
    case("neighbor_attention", [na_dst, na_src, na_val],
         lambda a=na_dst, b=na_src, v=na_val: weighted(
             T.neighbor_attention(a, b, v, full), w43))
    # two segments; negative source scores take LeakyReLU's lower branch
    nb_dst, nb_src = gat_scores([1, -1, -1, 1, -1, 1])
    nb_val = p(rng.normal(size=(2, 6, 3)))
    case("neighbor_attention[segments-both-branches]", [nb_dst, nb_src, nb_val],
         lambda a=nb_dst, b=nb_src, v=nb_val: weighted(
             T.neighbor_attention(a, b, v, two_edges), w63))
    ns_dst, ns_src = gat_scores([-1, 1, -1, 1])
    ns_val = p(rng.normal(size=(2, 4, 3)))
    case("neighbor_attention[sparse-mask]", [ns_dst, ns_src, ns_val],
         lambda a=ns_dst, b=ns_src, v=ns_val: weighted(
             T.neighbor_attention(a, b, v, nb_edges), w43))

    # every tape op has a case and every case names a tape op; a label is
    # the op name, with an optional [variant]
    tape_ops = {name for name, fn in vars(T).items()
                if inspect.isfunction(fn) and fn.__module__ == T.__name__
                and not name.startswith("_")} - _NOT_TAPE_OPS
    covered = {label.split("[")[0] for label, _, _ in cases}
    assert covered == tape_ops, (
        f"ops without a case: {sorted(tape_ops - covered)}, "
        f"cases without an op: {sorted(covered - tape_ops)}")

    worst = 0.0
    for label, tensors, build in cases:
        err = _fd_case_error(tensors, build)
        assert err <= 1e-4, f"op {label}: rel err {err:.3e}"
        worst = max(worst, err)
    return len(cases), worst


def _full_model_fd_setup():
    words = [f"w{i}" for i in range(184)]
    examples = []
    for k in range(23):
        chunk = words[k * 8:(k + 1) * 8]
        examples.append(D.Example(
            [D.Triple(f"{chunk[0]} {chunk[1]}", chunk[2], chunk[3]),
             D.Triple(chunk[3], chunk[4], f"{chunk[5]} {chunk[6]}")],
            " ".join(chunk)))
    vocab = D.build_vocabulary(examples)
    assert 150 <= len(vocab) <= 250
    ex = examples[0]
    inp = D.linearize(ex, "describe :", vocab)
    graph = G.build_graph(inp)
    gt = N.graph_tensors(graph)
    targets = G.reconstruction_targets(graph)
    ends, labels = targets[:2], targets[2]
    target_ids = D.encode_target(D.tokenize(ex.target_text), vocab)
    cfg = M.ModelConfig(vocab_size=len(vocab), d_model=32, num_heads=4,
                        num_encoder_layers=2, num_decoder_layers=2,
                        feedforward_dim=64, variation="GRASAME",
                        gnn=N.GnnConfig(in_dim=32, out_dim=32),
                        max_sequence_length=32, max_target_length=16)
    model = M.Seq2SeqModel(cfg, seed=15)

    def build_loss():
        enc = model.encode(inp, gt)
        logits = model.decode(target_ids[:-1], enc)
        # each mean is the summed cross-entropy over its count
        l_tg = T.scale(T.cross_entropy(logits, target_ids[1:]),
                       1 / (len(target_ids) - 1))
        gr_logits = model.reconstruct_relations(enc, ends)
        l_gr = T.scale(T.cross_entropy(gr_logits, labels), 1 / len(labels))
        return T.add(l_tg, T.scale(l_gr, 0.08))

    return model, build_loss


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    num_ops, op_worst = _op_sweep()

    model, build_loss = _full_model_fd_setup()
    margin = relu_kink_margin(build_loss)
    assert margin > 1e-3, f"relu kink margin {margin:.2e} too small for FD"
    loss = build_loss()
    T.backward(loss)
    rng = np.random.default_rng(0)
    worst = 0.0
    for name in model.store.names():
        t = model.store.get(name)
        size = t.data.size
        coords = sorted(rng.choice(size, size=min(8, size),
                                   replace=False).tolist())
        numeric = sampled_finite_difference(lambda: build_loss().item(),
                                            t.data, coords)
        flat = (t.grad.reshape(-1) if t.grad is not None
                else np.zeros(t.data.size))
        err = relative_error(flat[coords], numeric)
        assert err <= 1e-4, f"{name}: rel err {err:.3e}"
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    _report(1, "gradient correctness",
            op_worst <= 1e-4 and worst <= 1e-4 and elapsed < 120.0,
            f"{num_ops} ops worst {op_worst:.2e}, model worst {worst:.2e}, "
            f"kink margin {margin:.2e}, {elapsed:.0f}s")


# -- criterion 2: identity-mode reduction -----------------------------------

def test_criterion_2_identity_reduction():
    start = time.monotonic()
    rng = random.Random(11)
    words = ["Iraq", "Arabic", "New_York", "big apple", "plateau", "X",
             "Y y", "co_op", "river", "basin"]

    def name():
        return " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))

    examples = [D.Example([D.Triple(name(), name(), name())
                           for _ in range(rng.randint(1, 3))])
                for _ in range(20)]
    vocab = D.build_vocabulary(examples)

    def make_config(variation, gnn):
        return M.ModelConfig(vocab_size=len(vocab), d_model=32, num_heads=4,
                             num_encoder_layers=2, num_decoder_layers=2,
                             feedforward_dim=64, variation=variation, gnn=gnn,
                             max_sequence_length=80, max_target_length=16)

    base = M.Seq2SeqModel(make_config("BASE", None), seed=33)
    worst = 0.0
    for variation in ("GRASAME", "VAR1", "VAR2"):
        var = M.Seq2SeqModel(
            make_config(variation, N.GnnConfig(in_dim=32, out_dim=32,
                                               identity_mode=True)),
            seed=99)  # distinct init seed: equality must come from the copy
        assert set(var.store.names()) == set(base.store.names())
        for pname, tensor in base.store.items():
            var.store.get(pname).data[...] = tensor.data
        for ex in examples:
            inp = D.linearize(ex, D.DEFAULT_PROMPT, vocab)
            gt = N.graph_tensors(G.build_graph(inp))
            with T.no_grad():
                enc_base = base.encode(inp, None)
                enc_var = var.encode(inp, gt)
            worst = max(worst, float(np.max(np.abs(enc_base.data
                                                   - enc_var.data))))
    elapsed = time.monotonic() - start
    _report(2, "identity-mode reduction",
            worst <= 1e-12 and elapsed < 10.0,
            f"3 variations x 20 inputs, worst abs diff {worst:.1e}, "
            f"{elapsed:.1f}s")


# -- criterion 3: graph construction vs brute force --------------------------

def _random_shared_example(rng):
    words = ["Iraq", "Arabic", "New_York", "big", "apple", "a-b", "X",
             '"Z"', "co_op", "Q,R", "delta", "river"]
    used = []

    def name():
        if used and rng.random() < 0.35:
            return rng.choice(used)
        s = " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
        used.append(s)
        return s

    return D.Example([D.Triple(name(), name(), name())
                      for _ in range(rng.randint(1, 7))])


def test_criterion_3_graph_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(303)
    for case in range(200):
        ex = _random_shared_example(rng)
        prompt = rng.choice(["", D.DEFAULT_PROMPT, "describe :"])
        inp = D.linearize(ex, prompt, D.build_vocabulary([ex]),
                          max_sequence_length=10_000)
        g = G.build_graph(inp, bidirectional=True)
        assert forward_set(g) == oracle_forward_edges(inp), f"case {case}"

    iraq = D.linearize(iraq_example(), D.DEFAULT_PROMPT,
                       D.build_vocabulary([iraq_example()]))
    g_iraq = G.build_graph(iraq)
    assert len(forward_edges_of(g_iraq)) == 8
    assert forward_set(g_iraq) == oracle_forward_edges(iraq)

    mono = D.linearize(monocacy_example(), D.DEFAULT_PROMPT,
                       D.build_vocabulary([monocacy_example()]))
    g_mono = G.build_graph(mono)
    assert G.edge_counts(g_mono)["forward"]["R5"] == 11
    assert forward_set(g_mono) == oracle_forward_edges(mono)

    elapsed = time.monotonic() - start
    _report(3, "graph oracle equivalence", elapsed < 10.0,
            f"200 random cases exact, iraq forward 8, monocacy r5 11, "
            f"{elapsed:.1f}s")


# -- criterion 4: overfit run ------------------------------------------------

def test_criterion_4_overfit_run():
    start = time.monotonic()
    model, items, vocab, hist = run_overfit()
    last = hist[-1]
    bleu = TR.evaluate_bleu(model, items, vocab)
    elapsed = time.monotonic() - start
    _report(4, "overfit run",
            (last["token_accuracy"] >= 0.98 and last["gr_accuracy"] >= 0.99
             and bleu >= 90.0 and len(hist) <= 300 and elapsed < 600.0),
            f"epochs {len(hist)}, token acc {last['token_accuracy']:.4f}, "
            f"gr acc {last['gr_accuracy']:.4f}, train BLEU {bleu:.2f}, "
            f"{elapsed:.0f}s")


# -- criterion 5: freeze contract --------------------------------------------

def test_criterion_5_freeze_contract():
    start = time.monotonic()
    corp, vocab, mc = overfit_setup()
    items = TR.prepare_items(corp, vocab, mc)
    model = M.Seq2SeqModel(mc, seed=7)
    gnn_names = set(TR.gnn_parameter_names(model.store))
    total = model.store.num_values()
    trainable = sum(model.store.get(n).data.size for n in gnn_names)
    frozen_before = {n: t.data.tobytes() for n, t in model.store.items()
                     if n not in gnn_names}

    config = TR.TrainConfig(epochs=13, batch_size=8, learning_rate=1e-3,
                            lambda_gr=0.08, seed=7,
                            freeze_mode="FREEZE_BASE")
    TR.train(model, items, config)
    steps = config.epochs * ((len(items) + config.batch_size - 1)
                             // config.batch_size)
    assert steps >= 50

    frozen_ok = all(model.store.get(n).data.tobytes() == blob
                    for n, blob in frozen_before.items())
    fresh = M.Seq2SeqModel(mc, seed=7)
    gnn_moved = any(not np.array_equal(model.store.get(n).data,
                                       fresh.store.get(n).data)
                    for n in gnn_names)
    elapsed = time.monotonic() - start
    _report(5, "freeze contract",
            (frozen_ok and gnn_moved and trainable / total < 0.25
             and elapsed < 60.0),
            f"{steps} steps, frozen bit-identical {frozen_ok}, trainable "
            f"{trainable}/{total} = {trainable / total:.3f}, {elapsed:.0f}s")


# -- criterion 6: ablation direction ------------------------------------------

def _best_val_bleu(mc, vocab, train_ex, test_ex, seed, *, bidirectional,
                   disable_gr):
    items = TR.prepare_items(train_ex, vocab, mc, bidirectional=bidirectional)
    val = TR.prepare_items(test_ex, vocab, mc, bidirectional=bidirectional)
    model = M.Seq2SeqModel(mc, seed=seed)
    config = TR.TrainConfig(epochs=120, batch_size=10, learning_rate=1e-3,
                            lambda_gr=0.08, seed=seed,
                            disable_gr_loss=disable_gr, eval_every=10)
    hist = TR.train(model, items, config, vocab=vocab, val_items=val)
    return max(rec["val_bleu"] for rec in hist if "val_bleu" in rec)


@pytest.mark.slow  # nine 120-epoch trainings
def test_criterion_6_ablation_direction():
    start = time.monotonic()
    corp, vocab, mc = overfit_setup()
    train_ex, test_ex = synth.split_corpus(corp)
    rows = []
    wins_uni = wins_nogr = 0
    for seed in (123, 124, 125):
        full = _best_val_bleu(mc, vocab, train_ex, test_ex, seed,
                              bidirectional=True, disable_gr=False)
        uni = _best_val_bleu(mc, vocab, train_ex, test_ex, seed,
                             bidirectional=False, disable_gr=False)
        nogr = _best_val_bleu(mc, vocab, train_ex, test_ex, seed,
                              bidirectional=True, disable_gr=True)
        wins_uni += full >= uni
        wins_nogr += full >= nogr
        rows.append(f"seed {seed}: full {full:.1f} uni {uni:.1f} "
                    f"nogr {nogr:.1f}")
    elapsed = time.monotonic() - start
    _report(6, "ablation direction", wins_uni >= 2 and wins_nogr >= 2,
            "; ".join(rows) + f"; full>=uni {wins_uni}/3, "
            f"full>=nogr {wins_nogr}/3, {elapsed:.0f}s")


# -- criterion 7: beam search vs exhaustive enumeration -----------------------

def test_criterion_7_beam_exhaustive_optimality():
    config = X.DecodeConfig(mode="BEAM", beam_size=3,
                            max_target_length=toy.TOY_MAX_LEN)
    hyp = X.beam_search(per_prefix_step(toy.toy_step), config, bos_id=0,
                        eos_id=toy.TOY_EOS)
    _, seq, lp_sum, score = toy.exhaustive_best(
        toy.TOY_TABLE, toy.TOY_MAX_LEN - 1, toy.TOY_EOS, 1.0)
    exact = (hyp.token_ids == [0] + seq
             and abs(hyp.log_prob - lp_sum) < 1e-12
             and abs(X.normalized_score(hyp, 1.0) - score) < 1e-12)
    _report(7, "beam exhaustive optimality", exact,
            f"beam {hyp.token_ids} log prob {hyp.log_prob:.4f} == "
            f"exhaustive {[0] + seq}")


# -- criterion 8: metric oracles ----------------------------------------------

def test_criterion_8_metric_oracles():
    chrf_b_recall = (9/13 + 8/12 + 7/11 + 6/10 + 5/9 + 4/8 + 3/4 + 2/3) / 8.0
    cases = [
        # candidate, reference, closed-form BLEU, 4dp, closed chrF++, 4dp
        ("the cat sat on the mat", "the cat sat on the mat",
         100.0, 100.0, 100.0, 100.0),
        ("the cat sat", "the cat sat down",
         0.0, 0.0,
         100.0 * 5.0 * chrf_b_recall / (4.0 + chrf_b_recall), 68.3557),
        ("a b c d", "a b c d e",
         100.0 * math.exp(1.0 - 5.0 / 4.0), 77.8801,
         100.0 * 40.0 / 53.0, 75.4717),
    ]
    details = []
    for cand, ref, bleu_closed, bleu_4dp, chrf_closed, chrf_4dp in cases:
        bleu = corpus_bleu([cand.split()], [ref.split()])
        chrf = chrf_pp([cand.split()], [ref.split()])
        assert abs(bleu - bleu_closed) < 1e-9, (cand, bleu, bleu_closed)
        assert abs(bleu - bleu_4dp) < 5e-5, (cand, bleu, bleu_4dp)
        assert abs(chrf - chrf_closed) < 1e-9, (cand, chrf, chrf_closed)
        assert abs(chrf - chrf_4dp) < 5e-5, (cand, chrf, chrf_4dp)
        details.append(f"{bleu:.4f}/{chrf:.4f}")
    _report(8, "metric oracles", True,
            "BLEU/chrF++ on 3 pairs: " + ", ".join(details))


# -- criterion 9: determinism --------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    start = time.monotonic()
    log_a, ckpt_a = tmp_path / "a.jsonl", tmp_path / "a.ckpt"
    log_b, ckpt_b = tmp_path / "b.jsonl", tmp_path / "b.ckpt"
    run_overfit(log_path=str(log_a), checkpoint_path=str(ckpt_a))
    run_overfit(log_path=str(log_b), checkpoint_path=str(ckpt_b))
    logs_equal = log_a.read_bytes() == log_b.read_bytes()
    ckpts_equal = ckpt_a.read_bytes() == ckpt_b.read_bytes()
    elapsed = time.monotonic() - start
    _report(9, "determinism", logs_equal and ckpts_equal,
            f"metrics logs byte-identical {logs_equal}, checkpoints "
            f"byte-identical {ckpts_equal}, {elapsed:.0f}s")
