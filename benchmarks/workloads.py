"""The three benchmark workloads: set-up, closed loop and checks.

Each workload is driven by one caller: the next training step or decode
starts when the previous one returns. Timers cover the program's calls
only; input generation, correctness checks and quality probes run
outside them.
"""
from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
import spans
from graphtext import data as D
from graphtext import decoding, metrics, training
from graphtext import model as M
from graphtext import tensor as T
from graphtext.decoding import DecodeConfig
from graphtext.gnn import GnnConfig
from graphtext.model import ModelConfig

HERE = os.path.dirname(os.path.abspath(__file__))
OPT = training.TrainConfig()  # learning rate, Adam and clipping of `train`
DECODE = DecodeConfig(mode="BEAM", beam_size=4, max_target_length=30)
VALIDATE = DecodeConfig(mode="GREEDY", max_target_length=24)
WARM_UP = DecodeConfig(mode="BEAM", beam_size=4, max_target_length=4)
VALIDATE_EXAMPLES = 4
VOCAB_WORDS = 10_000
RESCORE_TOL = 1e-6  # nats, |teacher-forced re-score - beam log_prob|


@dataclass
class Spec:
    name: str
    family: str  # GNN family
    batch_size: int = 0
    train_count: int = 0
    probe_count: int = 0
    probe_step: int = 0  # the probe batch is scored after this many steps
    decode_count: int = 0
    quality_examples: int = 0  # decodes averaged into the quality guard
    # timed set-ups spread evenly over a run; setup_s is their median. A
    # shared machine's speed drifts over seconds, so more set-ups sample
    # more of the run; a decode (about 4 s) must fit between two of them.
    setup_rounds: int = 15


# why each workload exists is recorded in BENCHMARK.json and README.md
SPECS = {s.name: s for s in [
    Spec("train-small-graphs", family="SAGE", batch_size=10, train_count=80,
         probe_count=20, probe_step=24),
    Spec("train-large-graphs", family="RGCN", batch_size=4, train_count=24,
         probe_count=8, probe_step=12),
    Spec("decode-beam-10k", family="SAGE", decode_count=16,
         quality_examples=3, setup_rounds=5),
]}


@dataclass
class Loop:
    """Timings of one closed loop, in seconds."""
    setup_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    examples: int = 0
    busy_s: float = 0.0  # sum of step times, plus scoring for decodes
    # work unit (train batch or decode item) -> (fastest seconds, examples)
    fastest: dict[int, tuple[float, int]] = field(default_factory=dict)

    def add(self, seconds: float, examples: int, unit: int) -> None:
        self.step_s.append(seconds)
        self.busy_s += seconds
        self.examples += examples
        best = self.fastest.get(unit)
        if best is None or seconds < best[0]:
            self.fastest[unit] = (seconds, examples)

    def fastest_rate(self) -> float:
        """Examples per second with every work unit at its fastest pass.

        The loop cycles over a fixed set of units, each doing the same
        work on every pass, and a shared machine only ever slows a pass
        down. When its speed swings within a run, each unit's fastest
        pass is far steadier from run to run than the median or mean of
        all steps."""
        return (sum(n for _, n in self.fastest.values())
                / sum(s for s, _ in self.fastest.values()))


@dataclass
class Result:
    """What one run measured."""
    loop: Loop = field(default_factory=Loop)
    traced: Loop = field(default_factory=Loop)
    attempted: int = 0
    failed: int = 0
    quality: float = float("nan")  # nats: probe loss, or -decode score
    hyps: list = field(default_factory=list)  # (item, hypothesis)
    notes: dict = field(default_factory=dict)


@contextlib.contextmanager
def phase(tracer, name: str, unit_id: int):
    if tracer is None:
        yield
    else:
        with tracer.root(name, unit_id):
            yield


# -- inputs and set-up -------------------------------------------------------

def make_inputs(spec: Spec, seed: int) -> dict:
    if spec.decode_count:
        corpus = inputs.vocab_corpus(seed, VOCAB_WORDS)
        return {"corpus": corpus, "decode": corpus[:spec.decode_count]}
    make = (inputs.small_graphs if spec.name == "train-small-graphs"
            else inputs.large_graphs)
    examples = make(seed, spec.train_count + spec.probe_count)
    return {"corpus": examples, "train": examples[:spec.train_count],
            "probe": examples[spec.train_count:]}


def setup(spec: Spec, data: dict, seed: int) -> dict:
    """Vocabulary, prepared items (graphs and graph tensors) and model."""
    vocab = D.build_vocabulary(data["corpus"])
    cfg = ModelConfig(vocab_size=len(vocab), d_model=64, num_heads=4,
                      num_encoder_layers=2, num_decoder_layers=2,
                      feedforward_dim=128, variation="GRASAME",
                      gnn=GnnConfig(family=spec.family, in_dim=64, out_dim=64))
    state = {"vocab": vocab}
    for part in ("train", "probe", "decode"):
        if part in data:
            state[part] = training.prepare_items(data[part], vocab, cfg,
                                                 prompt=D.DEFAULT_PROMPT)
    state["model"] = M.Seq2SeqModel(cfg, seed=seed)
    return state


# -- one step of each kind ----------------------------------------------------

def train_step(spec: Spec, state: dict, step: int, result: Result,
               loop: Loop, tracer) -> None:
    """One optimizer step on the next fixed batch; after ``probe_step``
    steps the probe batch is scored, untimed."""
    model = state["model"]
    start = step * spec.batch_size % len(state["train"])
    batch = state["train"][start:start + spec.batch_size]
    t0 = time.perf_counter()
    with phase(tracer, "step", step):
        model.store.zero_grads()
        loss, bd = training.compute_batch_loss(model, batch, OPT.lambda_gr)
        finite = math.isfinite(bd.l_total)
        if finite:
            T.backward(loss)
            model.store.adam_step(OPT.learning_rate, beta1=OPT.beta1,
                                  beta2=OPT.beta2, eps=OPT.adam_eps,
                                  clip_norm=OPT.clip_norm)
    loop.add(time.perf_counter() - t0, len(batch), start)
    result.attempted += 1
    result.failed += not finite
    if step + 1 == spec.probe_step:
        with phase(tracer, "check", step), T.no_grad():
            _, probe = training.compute_batch_loss(model, state["probe"],
                                                   OPT.lambda_gr)
        result.quality = probe.l_total


def rescore(model, item, token_ids: list[int]) -> float:
    """Teacher-forced log-probability of ``token_ids`` (BOS first)."""
    with T.no_grad():
        enc = model.encode(item.inp, item.gt)
        logits = model.decode(token_ids[:-1], enc).data
    m = logits.max(axis=-1, keepdims=True)
    logp = logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
    return float(logp[np.arange(len(token_ids) - 1), token_ids[1:]].sum())


def decode_step(spec: Spec, state: dict, index: int, result: Result,
                loop: Loop, tracer) -> None:
    """One beam decode; the result is re-scored untimed."""
    model = state["model"]
    unit = index % len(state["decode"])
    item = state["decode"][unit]
    t0 = time.perf_counter()
    with phase(tracer, "step", index):
        hyp = decoding.decode_example(model, item.inp, item.gt, DECODE)
    loop.add(time.perf_counter() - t0, 1, unit)
    result.attempted += 1
    with phase(tracer, "check", index):
        ok = abs(rescore(model, item, hyp.token_ids)
                 - hyp.log_prob) <= RESCORE_TOL
    result.failed += not (ok and math.isfinite(hyp.log_prob))
    result.hyps.append((item, hyp))


# -- the closed loop ----------------------------------------------------------

def warm_up(spec: Spec, data: dict, seed: int) -> None:
    """An untimed set-up and one short step, so that first-call costs
    (lazy imports, first allocations, BLAS thread start) fall before the
    timers start."""
    state = setup(spec, data, seed)
    if spec.decode_count:
        item = state["decode"][0]
        decoding.decode_example(state["model"], item.inp, item.gt, WARM_UP)
    else:
        train_step(spec, state, 0, Result(), Loop(), None)
    del state
    gc.collect()


def closed_loop(spec: Spec, data: dict, seed: int, seconds: float,
                rounds: int, at: int, result: Result, loop: Loop,
                tracer=None) -> tuple[int, dict]:
    """Steps for ``seconds`` with ``rounds`` timed set-ups spread over
    them: a fresh state (same seed, so the same model) is set up before
    the first step and again at each ``seconds / rounds`` mark. Re-setups
    wait for the probe step, and the loop for the quality decodes.
    Returns the next step index and the last state."""
    step = decode_step if spec.decode_count else train_step
    minimum = max(spec.probe_step, spec.quality_examples)
    state = None
    done = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if done < rounds and (done == 0 or (
                elapsed >= done * seconds / rounds and at >= spec.probe_step)):
            state = None
            gc.collect()
            t0 = time.perf_counter()
            with phase(tracer, "setup", done):
                state = setup(spec, data, seed)
            loop.setup_s.append(time.perf_counter() - t0)
            done += 1
        elif elapsed >= seconds and done == rounds and at >= minimum:
            return at, state
        step(spec, state, at, result, loop, tracer)
        at += 1


def validate(state: dict, tracer) -> None:
    """Greedy decodes of a few probe examples, scored with BLEU and chrF++,
    as `train` does for its validation set."""
    vocab = state["vocab"]
    with phase(tracer, "validate", 0):
        items = state["probe"][:VALIDATE_EXAMPLES]
        hyps = [decoding.decode_example(state["model"], it.inp, it.gt,
                                        VALIDATE) for it in items]
        cands = [vocab.decode(h.generated()).split() for h in hyps]
        refs = [it.ref_tokens for it in items]
        metrics.corpus_bleu(cands, refs)
        metrics.chrf_pp(cands, refs)


def score(spec: Spec, state: dict, result: Result, loop: Loop,
          tracer=None) -> None:
    """Corpus BLEU and chrF++ of all decodes, timed into ``loop``, and the
    quality guard: mean length-normalized log-prob of the first decodes."""
    vocab = state["vocab"]
    cands = [vocab.decode(h.generated()).split() for _, h in result.hyps]
    refs = [it.ref_tokens for it, _ in result.hyps]
    t0 = time.perf_counter()
    with phase(tracer, "score", 0):
        result.notes["bleu"] = metrics.corpus_bleu(cands, refs)
        result.notes["chrf"] = metrics.chrf_pp(cands, refs)
    loop.busy_s += time.perf_counter() - t0
    first = [h for _, h in result.hyps[:spec.quality_examples]]
    mean = statistics.fmean(h.log_prob / (len(h.token_ids) - 1) for h in first)
    result.notes["decode_score_mean"] = mean
    result.notes["returned_tokens"] = sum(
        len(h.token_ids) - 1 for _, h in result.hyps)
    result.quality = -mean


# -- reference check ----------------------------------------------------------

def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_reference(name: str, seed: int, value: float, reference: dict
                    ) -> tuple[bool, str]:
    """Quality against the recorded per-seed value, or, for a seed not
    recorded, against the band around the recorded median."""
    ref = reference["workloads"][name]
    exact = ref["seeds"].get(str(seed))
    if exact is not None:
        tol = reference["seed_tolerance_rel"] * abs(exact)
        return abs(value - exact) <= tol, f"recorded {exact} +- {tol:.3g}"
    med = statistics.median(ref["seeds"].values())
    tol = ref["band_rel"] * abs(med)
    return abs(value - med) <= tol, f"band {med} +- {tol:.3g}"


# -- one run ------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, traced: bool,
        reference: dict | None) -> tuple[Result, object]:
    """An untimed warm-up, then the closed loop. Traced: the loop
    runs untraced for half the time, then the tracer is installed and one
    set-up plus the other half are traced. Returns the result and the
    tracer (None when untraced)."""
    spec = SPECS[name]
    data = make_inputs(spec, seed)
    result = Result()
    warm_up(spec, data, seed)
    untraced_s = seconds / 2 if traced else seconds
    at, state = closed_loop(spec, data, seed, untraced_s,
                            spec.setup_rounds, 0, result, result.loop)
    tracer = None
    loop = result.loop
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
        state = None
        _, state = closed_loop(spec, data, seed, seconds / 2, 1, at, result,
                               result.traced, tracer)
        loop = result.traced
        if not spec.decode_count:
            validate(state, tracer)
    if spec.decode_count:
        score(spec, state, result, loop, tracer)
    result.attempted += 1  # the quality reference check
    if reference is not None:
        ok, how = check_reference(name, seed, result.quality, reference)
        result.notes["reference"] = how
        result.failed += not ok
    return result, tracer
