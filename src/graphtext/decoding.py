"""Greedy and beam-search decoding.

The alive prefixes are a (k, t) token array beside a (k,) score array.
Each step adds the scores to the stacked (k, V) next-token log-probs and
orders all k*V continuations with one lexsort on (score descending,
parent prefix's lexicographic rank, token id). Alive prefixes are
distinct and equally long, so that is the order of the whole sequences:
equal scores resolve toward smaller ids. The best continuations fill the
slots; one that ends in the end marker retires into a finished pool and
takes its slot with it. With a single slot this is greedy argmax
decoding. The best finished hypothesis under length-normalized
log-probability wins, again with a lexicographic tie-break.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import tensor as T
from .data import BOS_ID, EOS_ID, TokenizedGraphInput
from .gnn import GraphTensors

MODES = ("GREEDY", "BEAM")


@dataclass
class DecodeConfig:
    mode: str = "BEAM"
    beam_size: int = 3
    max_target_length: int = 120
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

    def generated(self, eos_id: int = EOS_ID) -> list[int]:
        """Tokens after BOS, without the terminating EOS."""
        toks = self.token_ids[1:]
        if toks and toks[-1] == eos_id:
            toks = toks[:-1]
        return toks


def normalized_score(hyp: Hypothesis, length_penalty: float) -> float:
    n = max(len(hyp.token_ids) - 1, 1)  # generated tokens, EOS included
    return hyp.log_prob / (n ** length_penalty)


StepFn = Callable[[list[int]], np.ndarray]


def beam_search(step_fn: StepFn, config: DecodeConfig,
                bos_id: int = BOS_ID, eos_id: int = EOS_ID) -> Hypothesis:
    """Run the beam over ``step_fn(prefix) -> log-probs`` and return the
    best finished hypothesis."""
    seqs = np.array([[bos_id]])  # (k, t) alive prefixes
    scores = np.zeros(1)  # (k,) their log-probs
    finished: list[Hypothesis] = []
    slots = config.effective_beam
    for _ in range(config.max_target_length - 1):  # budget excludes BOS
        if not len(seqs):
            break
        cand = scores[:, None] + np.stack([step_fn(s) for s in seqs.tolist()])
        # prefixes are distinct and equally long: this is whole-sequence order
        rank = np.argsort(np.lexsort(seqs.T[::-1]))
        parent, tok = np.divmod(np.arange(cand.size), cand.shape[1])
        top = np.lexsort((tok, rank[parent], -cand.ravel()))[:slots]
        seqs = np.column_stack((seqs[parent[top]], tok[top]))
        scores = cand.ravel()[top]
        done = seqs[:, -1] == eos_id
        finished += _hypotheses(seqs[done], scores[done])
        slots -= int(done.sum())
        seqs, scores = seqs[~done], scores[~done]
    finished += _hypotheses(seqs, scores)  # length-capped: no EOS at the end
    return min(finished,
               key=lambda h: (-normalized_score(h, config.length_penalty),
                              h.token_ids))


def _hypotheses(seqs: np.ndarray, scores: np.ndarray) -> list[Hypothesis]:
    return [Hypothesis(s, float(x)) for s, x in zip(seqs.tolist(), scores)]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max()
    return logits - (m + np.log(np.exp(logits - m).sum()))


def decode_example(model, inp: TokenizedGraphInput,
                   gt: GraphTensors | None, config: DecodeConfig) -> Hypothesis:
    """Encode once, then beam-decode against the cached encoder states."""
    with T.no_grad():
        enc = model.encode(inp, gt)

        def step_fn(prefix: list[int]) -> np.ndarray:
            logits = model.decode(prefix, enc)
            return log_softmax(logits.data[-1])

        limit = min(config.max_target_length, model.config.max_target_length)
        return beam_search(step_fn, replace(config, max_target_length=limit))
