"""Multi-task training: text generation plus relation reconstruction.

The total objective is the token-level cross-entropy of the decoder plus
a weighted auxiliary term that asks a linear head on the encoder states
to name the relation type of every labeled forward edge in the token
graph. Batches are processed one example at a time but the losses are
normalized over the whole batch (summed cross-entropy divided by the
batch-wide token and pair counts), so the gradients match what a padded
batched implementation would produce.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .data import (DEFAULT_PROMPT, PAD_ID, Example, TokenizedGraphInput,
                   Vocabulary, atomic_write, encode_target, linearize,
                   tokenize)
from .decoding import DecodeConfig, decode_example
from .gnn import GraphTensors, graph_tensors
from .graph import RelationType, build_graph, reconstruction_targets
from .metrics import corpus_bleu
from .model import ModelConfig, Seq2SeqModel, relation_label_ids

FREEZE_MODES = ("NONE", "FREEZE_BASE")


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 10
    learning_rate: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 1.0
    lambda_gr: float = 0.08
    freeze_mode: str = "NONE"
    disable_gr_loss: bool = False
    seed: int = 123
    eval_every: int = 1
    # optional early stopping on training accuracy; every provided
    # threshold must be met before training halts
    stop_token_accuracy: float | None = None
    stop_gr_accuracy: float | None = None

    def __post_init__(self) -> None:
        self.freeze_mode = self.freeze_mode.upper()
        if self.freeze_mode not in FREEZE_MODES:
            raise ValueError(f"unknown freeze mode {self.freeze_mode!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs, batch_size and eval_every must be >= 1")
        # each check is written so that NaN fails it
        if not self.lambda_gr >= 0.0:
            raise ValueError("lambda_gr must be >= 0")
        if not (self.learning_rate > 0.0 and self.adam_eps > 0.0
                and self.clip_norm > 0.0):
            raise ValueError("learning_rate, adam_eps and clip_norm must be > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        for stop in (self.stop_token_accuracy, self.stop_gr_accuracy):
            if stop is not None and not 0.0 <= stop <= 1.0:
                raise ValueError("stop thresholds must be in [0, 1]")


@dataclass
class TrainItem:
    """Everything the loss needs for one example, precomputed once."""
    inp: TokenizedGraphInput
    gt: GraphTensors | None
    target_ids: list[int]
    gr_pairs: list[tuple[int, int, RelationType]]
    gr_labels: list[int]
    ref_tokens: list[str] = field(default_factory=list)


def prepare_items(examples: list[Example], vocab: Vocabulary,
                  model_config: ModelConfig, *, prompt: str = DEFAULT_PROMPT,
                  bidirectional: bool = True) -> list[TrainItem]:
    needs_gt = model_config.gnn is not None
    items = []
    for ex in examples:
        inp = linearize(ex, prompt, vocab, model_config.max_sequence_length)
        g = build_graph(inp, bidirectional=bidirectional)
        gt = graph_tensors(g) if needs_gt else None
        pairs = reconstruction_targets(g)
        items.append(TrainItem(
            inp=inp, gt=gt,
            target_ids=encode_target(ex.target_text, vocab,
                                     model_config.max_target_length),
            gr_pairs=pairs, gr_labels=relation_label_ids(pairs),
            ref_tokens=tokenize(ex.target_text)))
    return items


@dataclass
class LossBreakdown:
    l_tg: float
    l_gr: float
    l_total: float
    token_accuracy: float
    gr_accuracy: float
    num_tokens: int
    num_pairs: int


def gnn_parameter_names(store: T.ParameterStore) -> list[str]:
    """Names owned by the graph encoder and the relation head."""
    return [n for n in store.names()
            if ".gnn." in n or n.startswith("gr_head.")]


def apply_freeze(model: Seq2SeqModel, mode: str) -> None:
    if mode == "FREEZE_BASE":
        model.store.set_trainable(gnn_parameter_names(model.store))
    else:
        model.store.set_trainable(None)


def compute_batch_loss(model: Seq2SeqModel, items: list[TrainItem],
                       lambda_gr: float, disable_gr_loss: bool = False
                       ) -> tuple[T.Tensor, LossBreakdown]:
    """Forward the batch and assemble the combined loss tensor."""
    tg_terms: list[T.Tensor] = []
    gr_terms: list[T.Tensor] = []
    num_tokens = 0
    num_pairs = 0
    tok_correct = 0
    gr_correct = 0
    for item in items:
        enc = model.encode(item.inp, item.gt)
        prefix = item.target_ids[:-1]
        labels = item.target_ids[1:]
        logits = model.decode(prefix, enc)
        tg_terms.append(T.cross_entropy(logits, labels, ignore_id=PAD_ID,
                                        reduction="sum"))
        num_tokens += len(labels)
        tok_correct += int((logits.data.argmax(axis=-1)
                            == np.asarray(labels)).sum())
        if not disable_gr_loss and item.gr_labels:
            gr_logits = model.reconstruct_relations(enc, item.gr_pairs)
            gr_terms.append(T.cross_entropy(gr_logits, item.gr_labels,
                                            reduction="sum"))
            num_pairs += len(item.gr_labels)
            gr_correct += int((gr_logits.data.argmax(axis=-1)
                               == np.asarray(item.gr_labels)).sum())
    loss = T.scale(_tensor_sum(tg_terms), 1.0 / num_tokens)
    l_tg = float(loss.data)
    l_gr = 0.0
    gr_acc = 0.0
    if gr_terms:
        gr_loss = T.scale(_tensor_sum(gr_terms), 1.0 / num_pairs)
        l_gr = float(gr_loss.data)
        gr_acc = gr_correct / num_pairs
        loss = T.add(loss, T.scale(gr_loss, lambda_gr))
    breakdown = LossBreakdown(
        l_tg=l_tg, l_gr=l_gr, l_total=float(loss.data),
        token_accuracy=tok_correct / num_tokens, gr_accuracy=gr_acc,
        num_tokens=num_tokens, num_pairs=num_pairs)
    return loss, breakdown


def _tensor_sum(terms: list[T.Tensor]) -> T.Tensor:
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return total


def evaluate_bleu(model: Seq2SeqModel, items: list[TrainItem],
                  vocab: Vocabulary,
                  decode_config: DecodeConfig | None = None) -> float:
    """Corpus BLEU of greedy (by default) decodes against the references."""
    cfg = decode_config or DecodeConfig(mode="GREEDY")
    cands = []
    refs = []
    for item in items:
        hyp = decode_example(model, item.inp, item.gt, cfg)
        cands.append(vocab.decode(hyp.generated()).split())
        refs.append(list(item.ref_tokens))
    return corpus_bleu(cands, refs)


def train(model: Seq2SeqModel, items: list[TrainItem], config: TrainConfig,
          vocab: Vocabulary | None = None,
          val_items: list[TrainItem] | None = None,
          log_path: str | None = None,
          checkpoint_path: str | None = None) -> list[dict]:
    """Run the optimization loop and return the per-epoch history.

    Each history record carries the epoch's exact loss breakdown
    (cross-entropy sums divided by epoch-wide counts). When a validation
    set is given, greedy BLEU is measured every ``eval_every`` epochs and
    the best-scoring model state is written to ``checkpoint_path``.
    """
    if not items:
        raise ValueError("no training items")
    if val_items and vocab is None:
        raise ValueError("validation requires the vocabulary")
    apply_freeze(model, config.freeze_mode)
    rng = random.Random(config.seed)
    history: list[dict] = []
    log_file = open(log_path, "w") if log_path else None
    try:
        if log_file:
            preamble = {"total_params": model.store.num_values(),
                        "trainable_params": model.store.num_trainable_values()}
            log_file.write(json.dumps(preamble) + "\n")
        best_bleu = -1.0
        for epoch in range(1, config.epochs + 1):
            order = list(range(len(items)))
            rng.shuffle(order)
            sums = {"tg": 0.0, "gr": 0.0}
            counts = {"tokens": 0, "pairs": 0, "tok_ok": 0.0, "gr_ok": 0.0}
            for start in range(0, len(order), config.batch_size):
                batch = [items[i] for i in order[start:start + config.batch_size]]
                model.store.zero_grads()
                loss, bd = compute_batch_loss(
                    model, batch, config.lambda_gr, config.disable_gr_loss)
                if not math.isfinite(bd.l_total):
                    raise T.NumericsError(
                        f"non-finite loss at epoch {epoch}: {bd.l_total}")
                T.backward(loss)
                model.store.adam_step(
                    config.learning_rate, beta1=config.beta1,
                    beta2=config.beta2, eps=config.adam_eps,
                    clip_norm=config.clip_norm)
                sums["tg"] += bd.l_tg * bd.num_tokens
                sums["gr"] += bd.l_gr * bd.num_pairs
                counts["tokens"] += bd.num_tokens
                counts["pairs"] += bd.num_pairs
                counts["tok_ok"] += bd.token_accuracy * bd.num_tokens
                counts["gr_ok"] += bd.gr_accuracy * bd.num_pairs
            l_tg = sums["tg"] / counts["tokens"]
            l_gr = sums["gr"] / counts["pairs"] if counts["pairs"] else 0.0
            record = {
                "epoch": epoch,
                "l_tg": l_tg,
                "l_gr": l_gr,
                "l_total": l_tg + config.lambda_gr * l_gr,
                "token_accuracy": counts["tok_ok"] / counts["tokens"],
                "gr_accuracy": (counts["gr_ok"] / counts["pairs"]
                                if counts["pairs"] else 0.0),
            }
            if val_items and epoch % config.eval_every == 0:
                record["val_bleu"] = evaluate_bleu(model, val_items, vocab)
                if checkpoint_path and record["val_bleu"] > best_bleu:
                    best_bleu = record["val_bleu"]
                    model.save(checkpoint_path)
            history.append(record)
            if log_file:
                log_file.write(json.dumps(record) + "\n")
            if _stop_now(config, record):
                break
        if checkpoint_path and best_bleu < 0.0:
            # no validation pass ever ran, keep the final state instead
            model.save(checkpoint_path)
    finally:
        if log_file:
            log_file.close()
    return history


def _stop_now(config: TrainConfig, record: dict) -> bool:
    checks = []
    if config.stop_token_accuracy is not None:
        checks.append(record["token_accuracy"] >= config.stop_token_accuracy)
    if config.stop_gr_accuracy is not None:
        checks.append(record["gr_accuracy"] >= config.stop_gr_accuracy)
    return bool(checks) and all(checks)


def sweep_lambda(model_config: ModelConfig, items: list[TrainItem],
                 val_items: list[TrainItem], vocab: Vocabulary,
                 lambdas: list[float], config: TrainConfig,
                 tsv_path: str | None = None,
                 json_path: str | None = None) -> list[tuple[float, float]]:
    """Train one fresh same-seeded model per weight and report val BLEU."""
    results = []
    for lam in lambdas:
        model = Seq2SeqModel(model_config, seed=config.seed)
        cfg = replace(config, lambda_gr=lam)
        train(model, items, cfg)
        results.append((lam, evaluate_bleu(model, val_items, vocab)))
    if tsv_path:
        rows = "".join(f"{lam}\t{bleu:.4f}\n" for lam, bleu in results)
        with atomic_write(tsv_path) as fh:
            fh.write(("lambda\tval_bleu\n" + rows).encode("utf-8"))
    if json_path:
        payload = {"lambda": [lam for lam, _ in results],
                   "val_bleu": [bleu for _, bleu in results]}
        with atomic_write(json_path) as fh:
            fh.write(json.dumps(payload, indent=2).encode("utf-8"))
    return results
