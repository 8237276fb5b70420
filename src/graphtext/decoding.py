"""Greedy and beam-search decoding.

The alive prefixes are a (k, t) token array beside a (k,) score array.
Each step makes one call ``step_fn(seqs, parents) -> (k, V)`` for the
next-token log-probs of every alive prefix, where row i of ``seqs``
extends row ``parents[i]`` of the previous call's. ``decode_example``
answers it with one cached model step: a ``model.DecoderCache`` holds
each decoder layer's self-attention keys and values per row, reordered
by ``parents``, and its cross-attention keys and values, projected once
per example, so a step runs one new position per alive prefix.

The scores are added to the (k, V) log-probs; every continuation that
scores at least the slots-th best is kept (``np.partition``, ties at the
threshold included), and those are ordered with one lexsort on (score
descending, parent prefix's lexicographic rank, token id). Alive
prefixes are distinct and equally long, so that is the order of the
whole sequences: equal scores resolve toward smaller ids, and the
selection is the full sort's. A NaN score is a ``NumericsError``. The
best continuations fill the slots; one that ends in the end marker
retires into a finished pool and takes its slot with it. With a single
slot this is greedy argmax decoding. The best finished hypothesis under
length-normalized log-probability wins, again with a lexicographic
tie-break. A hypothesis that reached the length cap instead of the end
marker is ``capped``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import tensor as T
from .data import BOS_ID, EOS_ID, MAX_TARGET_LENGTH, TokenizedGraphInput
from .gnn import GraphTensors
from .model import DecoderCache, Seq2SeqModel

MODES = ("GREEDY", "BEAM")


@dataclass
class DecodeConfig:
    mode: str = "BEAM"
    beam_size: int = 3
    max_target_length: int = MAX_TARGET_LENGTH
    length_penalty: float = 1.0

    def __post_init__(self) -> None:
        self.mode = self.mode.upper()
        if self.mode not in MODES:
            raise ValueError(f"unknown decode mode {self.mode!r}")
        if self.beam_size < 1 or self.max_target_length < 1:
            raise ValueError("beam_size and max_target_length must be >= 1")
        if not math.isfinite(self.length_penalty):
            raise ValueError("length_penalty must be finite")

    @property
    def effective_beam(self) -> int:
        return 1 if self.mode == "GREEDY" else self.beam_size


@dataclass
class Hypothesis:
    token_ids: list[int]  # starts with BOS; ends with EOS unless length-capped
    log_prob: float

    def generated(self) -> list[int]:
        """Tokens after BOS, without the terminating EOS."""
        toks = self.token_ids[1:]
        if toks and toks[-1] == EOS_ID:
            toks = toks[:-1]
        return toks

    def capped(self) -> bool:
        """True when the length cap ended the hypothesis: its last token is
        not the end marker."""
        return self.token_ids[-1] != EOS_ID


def normalized_score(hyp: Hypothesis, length_penalty: float) -> float:
    n = max(len(hyp.token_ids) - 1, 1)  # generated tokens, EOS included
    return hyp.log_prob / (n ** length_penalty)


StepFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def beam_search(step_fn: StepFn, config: DecodeConfig,
                bos_id: int = BOS_ID, eos_id: int = EOS_ID) -> Hypothesis:
    """Run the beam over ``step_fn(seqs, parents) -> (k, V)`` next-token
    log-probs and return the best finished hypothesis. ``seqs`` is the
    (k, t) array of alive prefixes; row i extends row ``parents[i]`` of the
    previous call's ``seqs`` (the first call has one row and parents [0])."""
    seqs = np.array([[bos_id]])  # (k, t) alive prefixes
    scores = np.zeros(1)  # (k,) their log-probs
    parents = np.zeros(1, dtype=np.int64)
    finished: list[Hypothesis] = []
    slots = config.effective_beam
    for _ in range(config.max_target_length - 1):  # budget excludes BOS
        if not len(seqs):
            break
        cand = scores[:, None] + step_fn(seqs, parents)
        flat = cand.ravel()
        if np.isnan(flat).any():
            raise T.NumericsError("beam search: a step scored NaN")
        if slots < flat.size:  # only scores >= the slots-th best can win
            kth = np.partition(flat, -slots)[-slots]
            keep = np.flatnonzero(flat >= kth)
        else:
            keep = np.arange(flat.size)
        # prefixes are distinct and equally long: this is whole-sequence order
        rank = np.argsort(np.lexsort(seqs.T[::-1]))
        parent, tok = np.divmod(keep, cand.shape[1])
        top = np.lexsort((tok, rank[parent], -flat[keep]))[:slots]
        parents, tok = parent[top], tok[top]
        seqs = np.column_stack((seqs[parents], tok))
        scores = flat[keep[top]]
        done = tok == eos_id
        finished += _hypotheses(seqs[done], scores[done])
        slots -= int(done.sum())
        seqs, scores, parents = seqs[~done], scores[~done], parents[~done]
    finished += _hypotheses(seqs, scores)  # length-capped: no EOS at the end
    return min(finished,
               key=lambda h: (-normalized_score(h, config.length_penalty),
                              h.token_ids))


def _hypotheses(seqs: np.ndarray, scores: np.ndarray) -> list[Hypothesis]:
    return [Hypothesis(s, float(x)) for s, x in zip(seqs.tolist(), scores)]


def decode_example(model: Seq2SeqModel, inp: TokenizedGraphInput,
                   gt: GraphTensors | None, config: DecodeConfig) -> Hypothesis:
    """Encode once, then beam-decode with one cached decoder step per beam
    step: each call runs the newest token of every alive prefix."""
    with T.no_grad():
        enc = model.encode(inp, gt)
        cache = DecoderCache(model, enc)

        def step_fn(seqs: np.ndarray, parents: np.ndarray) -> np.ndarray:
            cache.reorder(parents)
            logits = model.decode(seqs[:, -1], enc, cache)
            return T._log_softmax(logits.data[:, -1])

        limit = min(config.max_target_length, model.config.max_target_length)
        return beam_search(step_fn, replace(config, max_target_length=limit))
