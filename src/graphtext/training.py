"""Multi-task training: text generation plus relation reconstruction.

The total objective is the token-level cross-entropy of the decoder plus
a weighted auxiliary term that asks a linear head on the encoder states
to name the relation type of every labeled forward edge in the token
graph. A batch runs as one packed forward and one backward: the
examples' source tokens form one block of rows and their target tokens
another, with no padding, so the vocabulary head, each cross-entropy and
the relation head are one tape op per batch. The losses are normalized
over the whole batch (summed cross-entropy divided by the batch-wide
token and pair counts).
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .data import (DEFAULT_PROMPT, DataError, Example, TokenizedGraphInput,
                   Vocabulary, atomic_write, encode_target, linearize, tokenize)
from .decoding import DecodeConfig, Hypothesis, decode_example
from .gnn import GraphTensors, graph_tensors
from .graph import HierGraph, build_graph, reconstruction_targets
from .metrics import corpus_bleu
from .model import ModelConfig, Seq2SeqModel

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
    # threshold must be met before training halts, except that
    # stop_gr_accuracy is ignored while disable_gr_loss is set
    stop_token_accuracy: float | None = None
    stop_gr_accuracy: float | None = None

    def __post_init__(self) -> None:
        self.freeze_mode = self.freeze_mode.upper()
        if self.freeze_mode not in FREEZE_MODES:
            raise ValueError(f"unknown freeze mode {self.freeze_mode!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs, batch_size and eval_every must be >= 1")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError("seed must be >= 0")
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
    """Everything the loss needs for one example.

    The token graph is kept as its int edge arrays (None for BASE). Its
    graph tensors, two deduplicated edge lists of about 48 bytes per
    edge, live only while a step runs: a training batch builds one set
    from its items' joined arrays, and ``gt`` builds the item's own afresh
    on each read, for a decode. ``gr_targets`` holds the
    relation-reconstruction targets as :func:`graph.reconstruction_targets`
    returns them, a (3, P) int array of source node, target node and
    label; it is kept for BASE too.
    """
    inp: TokenizedGraphInput
    graph: HierGraph | None
    target_ids: list[int]
    gr_targets: np.ndarray
    ref_tokens: list[str] = field(default_factory=list)

    @property
    def gt(self) -> GraphTensors | None:
        return None if self.graph is None else graph_tensors(self.graph)


def prepare_items(examples: list[Example], vocab: Vocabulary,
                  model_config: ModelConfig, *, prompt: str = DEFAULT_PROMPT,
                  bidirectional: bool = True) -> list[TrainItem]:
    """One item per example; a data error names its 1-based example
    number. Each string is tokenized once: the target's tokens serve both
    ``target_ids`` and ``ref_tokens``."""
    keep_graph = model_config.gnn is not None
    items = []
    for number, ex in enumerate(examples, start=1):
        try:
            inp = linearize(ex, prompt, vocab, model_config.max_sequence_length)
            ref_tokens = tokenize(ex.target_text)
            target_ids = encode_target(ref_tokens, vocab,
                                       model_config.max_target_length)
            g = build_graph(inp, bidirectional=bidirectional)
        except DataError as exc:
            raise DataError(f"example {number}: {exc}") from None
        items.append(TrainItem(
            inp=inp, graph=g if keep_graph else None, target_ids=target_ids,
            gr_targets=reconstruction_targets(g), ref_tokens=ref_tokens))
    return items


@dataclass
class LossBreakdown:
    """Cross-entropy sums and counts of a batch, or of several added up.

    ``l_total`` is the batch's combined loss value; a sum of records
    carries the sum of theirs. Every mean below is a ratio of the sums,
    so adding batch records gives the epoch's exact figures.
    """
    tg_sum: float = 0.0
    gr_sum: float = 0.0
    num_tokens: int = 0
    num_pairs: int = 0
    tok_correct: int = 0
    gr_correct: int = 0
    l_total: float = 0.0

    def __add__(self, other: LossBreakdown) -> LossBreakdown:
        return LossBreakdown(*(getattr(self, f.name) + getattr(other, f.name)
                               for f in fields(self)))

    # the means are sum * (1 / count), the product the loss tensor takes
    @property
    def l_tg(self) -> float:
        return self.tg_sum * (1.0 / self.num_tokens)

    @property
    def l_gr(self) -> float:
        return self.gr_sum * (1.0 / self.num_pairs) if self.num_pairs else 0.0

    @property
    def token_accuracy(self) -> float:
        return self.tok_correct / self.num_tokens

    @property
    def gr_accuracy(self) -> float:
        return self.gr_correct / self.num_pairs if self.num_pairs else 0.0


def gnn_parameter_names(store: T.ParameterStore) -> list[str]:
    """Names owned by the graph encoder and the relation head."""
    return [n for n in store.names()
            if ".gnn." in n or n.startswith("gr_head.")]


def _apply_freeze(model: Seq2SeqModel, mode: str) -> None:
    if mode == "FREEZE_BASE":
        model.store.set_trainable(gnn_parameter_names(model.store))
    else:
        model.store.set_trainable(None)


def _join_graphs(graphs: list[HierGraph], sizes: list[int],
                 first: np.ndarray) -> HierGraph:
    """A packed batch's graphs as one disconnected graph: example i's node
    ids are offset by ``first[i]``, its first row of the packed states."""
    if [g.num_nodes for g in graphs] != sizes:
        raise T.ShapeError(f"graphs of {[g.num_nodes for g in graphs]} nodes"
                           f" for inputs of {sizes} tokens")
    offset = np.repeat(first, [len(g.src) for g in graphs])
    return HierGraph(
        sum(sizes), np.concatenate([g.src for g in graphs]) + offset,
        np.concatenate([g.dst for g in graphs]) + offset,
        np.concatenate([g.rel for g in graphs]),
        np.concatenate([g.reverse for g in graphs]))


def compute_batch_loss(model: Seq2SeqModel, items: list[TrainItem],
                       lambda_gr: float, disable_gr_loss: bool = False
                       ) -> tuple[T.Tensor, LossBreakdown]:
    """Forward the batch, packed, and assemble the combined loss tensor."""
    sizes = [len(item.inp) for item in items]
    first = np.cumsum(sizes) - sizes  # each example's first packed row
    gt = None
    if all(item.graph is not None for item in items):
        gt = graph_tensors(_join_graphs([item.graph for item in items],
                                        sizes, first))
    enc = model.encode([item.inp for item in items], gt)
    logits = model.decode([item.target_ids[:-1] for item in items], enc,
                          enc_lengths=sizes)
    labels = np.concatenate([item.target_ids[1:] for item in items])
    tg_total = T.cross_entropy(logits, labels)
    bd = LossBreakdown(
        tg_sum=float(tg_total.data), num_tokens=len(labels),
        tok_correct=int((logits.data.argmax(axis=-1) == labels).sum()))
    loss = T.scale(tg_total, 1.0 / bd.num_tokens)
    targets = np.concatenate([item.gr_targets for item in items], axis=1)
    if targets.shape[1] and not disable_gr_loss:
        targets[:2] += np.repeat(first, [item.gr_targets.shape[1]
                                         for item in items])
        gr_logits = model.reconstruct_relations(enc, targets[:2])
        gr_total = T.cross_entropy(gr_logits, targets[2])
        bd.gr_sum = float(gr_total.data)
        bd.num_pairs = targets.shape[1]
        bd.gr_correct = int((gr_logits.data.argmax(axis=-1)
                             == targets[2]).sum())
        gr_loss = T.scale(gr_total, 1.0 / bd.num_pairs)
        loss = T.add(loss, T.scale(gr_loss, lambda_gr))
    bd.l_total = float(loss.data)
    return loss, bd


def decode_items(model: Seq2SeqModel, items: list[TrainItem],
                 config: DecodeConfig) -> list[Hypothesis]:
    """Decode every item against its own graph, in order."""
    return [decode_example(model, item.inp, item.gt, config) for item in items]


def evaluate_bleu(model: Seq2SeqModel, items: list[TrainItem],
                  vocab: Vocabulary) -> float:
    """Corpus BLEU of greedy decodes against the references."""
    hyps = decode_items(model, items, DecodeConfig("GREEDY"))
    return corpus_bleu([vocab.decode(h.generated()).split() for h in hyps],
                       [list(item.ref_tokens) for item in items])


def train(model: Seq2SeqModel, items: list[TrainItem], config: TrainConfig,
          vocab: Vocabulary | None = None,
          val_items: list[TrainItem] | None = None,
          log_path: str | None = None,
          checkpoint_path: str | None = None) -> list[dict]:
    """Run the optimization loop and return the per-epoch history.

    Each history record holds the epoch's losses and accuracies as ratios
    of its summed batch counts. When a validation set is given, greedy
    BLEU is measured every ``eval_every`` epochs and the best-scoring
    model state is written to ``checkpoint_path``.
    """
    if not items:
        raise ValueError("no training items")
    if val_items and vocab is None:
        raise ValueError("validation requires the vocabulary")
    _apply_freeze(model, config.freeze_mode)
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
            total = LossBreakdown()
            norms = []
            for start in range(0, len(order), config.batch_size):
                batch = [items[i] for i in order[start:start + config.batch_size]]
                model.store.zero_grads()
                loss, bd = compute_batch_loss(
                    model, batch, config.lambda_gr, config.disable_gr_loss)
                if not math.isfinite(bd.l_total):
                    raise T.NumericsError(
                        f"non-finite loss at epoch {epoch}: {bd.l_total}")
                T.backward(loss)
                norms.append(model.store.adam_step(
                    config.learning_rate, beta1=config.beta1,
                    beta2=config.beta2, eps=config.adam_eps,
                    clip_norm=config.clip_norm))
                total += bd
            record = {
                "epoch": epoch,
                "l_tg": total.l_tg,
                "l_gr": total.l_gr,
                "l_total": total.l_tg + config.lambda_gr * total.l_gr,
                "token_accuracy": total.token_accuracy,
                "gr_accuracy": total.gr_accuracy,
                # pre-clip global gradient norms of the epoch's steps
                "grad_norm_mean": sum(norms) / len(norms),
                "grad_norm_max": max(norms),
            }
            if val_items and epoch % config.eval_every == 0:
                record["val_bleu"] = evaluate_bleu(model, val_items, vocab)
                if checkpoint_path and record["val_bleu"] > best_bleu:
                    best_bleu = record["val_bleu"]
                    model.store.save(checkpoint_path)
            history.append(record)
            if log_file:
                log_file.write(json.dumps(record) + "\n")
            if _stop_now(config, record):
                break
        if checkpoint_path and best_bleu < 0.0:
            # no validation pass ever ran, keep the final state instead
            model.store.save(checkpoint_path)
    finally:
        if log_file:
            log_file.close()
    return history


def _stop_now(config: TrainConfig, record: dict) -> bool:
    checks = []
    if config.stop_token_accuracy is not None:
        checks.append(record["token_accuracy"] >= config.stop_token_accuracy)
    # with the reconstruction loss off no pair is scored, so its accuracy
    # stays 0 and cannot reach a threshold
    if config.stop_gr_accuracy is not None and not config.disable_gr_loss:
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
