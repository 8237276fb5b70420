import numpy as np
import pytest

from graphtext import data as D
from graphtext import decoding as X
from graphtext import gnn as N
from graphtext import graph as G
from graphtext import model as M
from graphtext import tensor as T

from oracles import per_prefix_step, reference_beam_search, reference_softmax

# Hand-crafted position-indexed log-prob table: 5 tokens, EOS = 4.
# Greedy ends immediately (EOS wins step 0) but the two-token path
# 2 -> EOS has the better per-token score, so beams >= 2 must find it.
TOY_EOS = 4
TOY_TABLE = np.array([
    [-1.2, -1.0, -0.7, -2.0, -0.5],
    [-1.5, -1.1, -2.2, -1.9, -0.1],
    [-3.0, -3.0, -3.0, -3.0, -0.05],
])
TOY_MAX_LEN = 4  # BOS plus up to 3 generated tokens


def toy_step(prefix):
    return TOY_TABLE[len(prefix) - 1]


def toy_config(beam, lp=1.0, mode="BEAM"):
    return X.DecodeConfig(mode=mode, beam_size=beam,
                          max_target_length=TOY_MAX_LEN, length_penalty=lp)


def exhaustive_best(table, max_new, eos, length_penalty):
    """Enumerate every legal sequence (EOS only terminal; non-EOS strings
    only at the length cap) and pick the best normalized score."""
    vocab = table.shape[1]
    non_eos = [t for t in range(vocab) if t != eos]
    best = None

    def consider(seq):
        nonlocal best
        lp_sum = sum(float(table[i][t]) for i, t in enumerate(seq))
        score = lp_sum / (len(seq) ** length_penalty)
        key = (-score, [0] + list(seq))
        if best is None or key < best[0]:
            best = (key, list(seq), lp_sum, score)

    def extend(seq):
        if len(seq) < max_new:
            consider(seq + [eos])
            if len(seq) + 1 == max_new:
                for t in non_eos:
                    consider(seq + [t])
            for t in non_eos:
                if len(seq) + 1 < max_new:
                    extend(seq + [t])
        elif len(seq) == max_new:
            consider(seq)

    extend([])
    # also the all-non-EOS sequences shorter than max_new are not legal
    # finished hypotheses (the decoder would keep generating), so only the
    # cases above compete.
    return best


def test_beam_one_is_greedy_argmax_walk():
    hyp = X.beam_search(per_prefix_step(toy_step), toy_config(1), bos_id=0,
                        eos_id=TOY_EOS)
    # manual walk: step 0 argmax over TOY_TABLE[0] is EOS
    assert hyp.token_ids == [0, TOY_EOS]
    assert abs(hyp.log_prob - (-0.5)) < 1e-12
    greedy_mode = X.beam_search(
        per_prefix_step(toy_step), toy_config(5, mode="GREEDY"), bos_id=0,
        eos_id=TOY_EOS)
    assert greedy_mode.token_ids == hyp.token_ids


def test_beam_three_matches_exhaustive_enumeration():
    hyp = X.beam_search(per_prefix_step(toy_step), toy_config(3), bos_id=0,
                        eos_id=TOY_EOS)
    _, seq, lp_sum, score = exhaustive_best(TOY_TABLE, TOY_MAX_LEN - 1,
                                            TOY_EOS, 1.0)
    assert hyp.token_ids == [0] + seq == [0, 2, TOY_EOS]
    assert abs(hyp.log_prob - lp_sum) < 1e-12
    assert abs(X.normalized_score(hyp, 1.0) - score) < 1e-12


def test_larger_beams_never_score_worse():
    scores = []
    for b in range(1, 6):
        hyp = X.beam_search(per_prefix_step(toy_step), toy_config(b),
                            bos_id=0, eos_id=TOY_EOS)
        scores.append(X.normalized_score(hyp, 1.0))
    assert scores == sorted(scores)
    _, _, _, best = exhaustive_best(TOY_TABLE, TOY_MAX_LEN - 1, TOY_EOS, 1.0)
    assert abs(scores[-1] - best) < 1e-12


def test_immediate_eos_gives_empty_generation():
    table = np.full((1, 5), -5.0)
    table[0, D.EOS_ID] = -0.01
    hyp = X.beam_search(per_prefix_step(lambda p: table[0]), toy_config(3))
    assert hyp.token_ids == [D.BOS_ID, D.EOS_ID]
    assert hyp.generated() == []


def test_length_cap_marks_unfinished_as_finished():
    never_eos = np.log(np.full(5, 0.2))
    never_eos[TOY_EOS] = -50.0
    hyp = X.beam_search(per_prefix_step(lambda p: never_eos), toy_config(2),
                        bos_id=0, eos_id=TOY_EOS)
    assert len(hyp.token_ids) == TOY_MAX_LEN
    assert TOY_EOS not in hyp.token_ids[1:]


@pytest.mark.parametrize("vocab", [5, 9])
@pytest.mark.parametrize("beam", [1, 2, 3, 4, 5])
def test_beam_matches_loop_reference_under_ties(vocab, beam):
    # log-probs depend on the position and the last token; multiples of 0.5
    # over a few levels make exact score ties common, two levels make the
    # slots-th best score tie across several parents, and -inf entries
    # leave fewer finite candidates than slots
    eos = vocab - 1
    tables = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        shape = (6, vocab, vocab)
        tables.append(-0.5 * rng.integers(0, 4, size=shape).astype(float))
        tables.append(-0.5 * rng.integers(0, 2, size=shape).astype(float))
        tables.append(np.where(rng.random(shape) < 0.7, -np.inf,
                               -0.5 * rng.integers(0, 2, size=shape)))
    for table in tables:

        def step(prefix):
            return table[len(prefix) - 1, prefix[-1]]

        for cap in range(2, 7):
            for lp in (0.0, 1.0, 1.5):
                cfg = X.DecodeConfig(beam_size=beam, max_target_length=cap,
                                     length_penalty=lp)
                got = X.beam_search(per_prefix_step(step), cfg, bos_id=0,
                                    eos_id=eos)
                want = reference_beam_search(step, cfg, bos_id=0, eos_id=eos)
                assert got.token_ids == want.token_ids
                assert got.log_prob == want.log_prob


def test_exact_ties_resolve_to_smallest_token_ids():
    flat = np.log(np.full(5, 0.2))
    hyp = X.beam_search(per_prefix_step(lambda p: flat), toy_config(3),
                        bos_id=0, eos_id=TOY_EOS)
    # every candidate scores identically, so lexicographic order decides:
    # token 0 repeatedly, never EOS, until the cap... but EOS-ended [0,0,4]
    # and [0,0,0] tie too; the id sequence [0,0,0] sorts first.
    assert hyp.token_ids == [0, 0, 0, 0]


def test_log_prob_non_increasing():
    hyp = X.beam_search(per_prefix_step(toy_step), toy_config(3), bos_id=0,
                        eos_id=TOY_EOS)
    running = 0.0
    for i, tok in enumerate(hyp.token_ids[1:]):
        running += float(TOY_TABLE[i][tok])
        assert running <= 1e-12
    assert abs(running - hyp.log_prob) < 1e-12


def test_decode_config_validation():
    with pytest.raises(ValueError):
        X.DecodeConfig(mode="SAMPLE")
    with pytest.raises(ValueError):
        X.DecodeConfig(beam_size=0)
    assert X.DecodeConfig(mode="greedy").effective_beam == 1


@pytest.mark.parametrize("bad", [{"max_target_length": 0},
                                 {"max_target_length": -2},
                                 {"length_penalty": float("nan")},
                                 {"length_penalty": float("inf")}])
def test_decode_config_rejects_empty_budget_and_non_finite_penalty(bad):
    with pytest.raises(ValueError):
        X.DecodeConfig(**bad)


def test_model_decode_beam_one_equals_greedy():
    ex = D.Example([D.Triple("Iraq", "language", "Arabic")],
                   "Iraq language is Arabic.")
    vocab = D.build_vocabulary([ex])
    inp = D.linearize(ex, D.DEFAULT_PROMPT, vocab)
    gt = N.graph_tensors(G.build_graph(inp))
    cfg = M.ModelConfig(vocab_size=len(vocab), d_model=8, num_heads=2,
                        num_encoder_layers=1, num_decoder_layers=1,
                        feedforward_dim=16, variation="GRASAME",
                        gnn=N.GnnConfig(in_dim=8, out_dim=8),
                        max_sequence_length=32, max_target_length=10)
    for seed in (0, 1, 2):
        model = M.Seq2SeqModel(cfg, seed=seed)
        greedy = X.decode_example(
            model, inp, gt, X.DecodeConfig(mode="GREEDY", max_target_length=10))
        beam1 = X.decode_example(
            model, inp, gt,
            X.DecodeConfig(mode="BEAM", beam_size=1, max_target_length=10))
        assert greedy.token_ids == beam1.token_ids
        assert abs(greedy.log_prob - beam1.log_prob) < 1e-12
        again = X.decode_example(
            model, inp, gt, X.DecodeConfig(mode="GREEDY", max_target_length=10))
        assert again.token_ids == greedy.token_ids


def test_nan_step_is_a_numerics_error():
    table = np.log(np.full(5, 0.2))
    table[2] = np.nan
    with pytest.raises(T.NumericsError):
        X.beam_search(per_prefix_step(lambda p: table), toy_config(3),
                      bos_id=0, eos_id=TOY_EOS)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("beam", [1, 2, 3, 4])
def test_cached_model_beam_matches_per_prefix_reference(beam, seed):
    """decode_example's cached steps against the loop beam over a full
    teacher-forced decode of each prefix."""
    ex = D.Example([D.Triple("Iraq", "language", "Arabic"),
                    D.Triple("Iraq", "capital", "Baghdad")],
                   "Iraq language is Arabic.")
    vocab = D.build_vocabulary([ex])
    inp = D.linearize(ex, D.DEFAULT_PROMPT, vocab)
    gt = N.graph_tensors(G.build_graph(inp))
    cfg = M.ModelConfig(vocab_size=len(vocab), d_model=8, num_heads=2,
                        num_encoder_layers=1, num_decoder_layers=2,
                        feedforward_dim=16, variation="GRASAME",
                        gnn=N.GnnConfig(in_dim=8, out_dim=8),
                        max_sequence_length=48, max_target_length=10)
    model = M.Seq2SeqModel(cfg, seed=seed)
    config = X.DecodeConfig(beam_size=beam, max_target_length=10)
    got = X.decode_example(model, inp, gt, config)
    with T.no_grad():
        enc = model.encode(inp, gt)

        want = reference_beam_search(
            lambda p: np.log(reference_softmax(model.decode(p, enc).data[-1])),
            config)
    assert got.token_ids == want.token_ids
    assert abs(got.log_prob - want.log_prob) <= 1e-12
