"""Greedy and beam-search decoding.

The beam keeps a frontier of alive prefixes. Each step expands every
alive prefix over the whole vocabulary, keeps the highest-scoring
continuations (ties broken by token sequence, so equal scores resolve
toward smaller ids), and retires any continuation that just produced the
end marker into a finished pool; the frontier shrinks by one slot per
retirement. With a single slot this is exactly greedy argmax decoding.
The best finished hypothesis under length-normalized log-probability
wins, again with a lexicographic tie-break.
"""
from __future__ import annotations

from dataclasses import dataclass
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
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")

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
    beams = [Hypothesis([bos_id], 0.0)]
    finished: list[Hypothesis] = []
    slots = config.effective_beam
    max_new = config.max_target_length - 1  # budget excludes BOS
    for _ in range(max_new):
        if not beams or slots <= 0:
            break
        candidates: list[tuple[float, list[int]]] = []
        for hyp in beams:
            logp = step_fn(hyp.token_ids)
            for tok, lp in enumerate(logp):
                candidates.append((hyp.log_prob + float(lp),
                                   hyp.token_ids + [tok]))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = []
        for score, toks in candidates[:slots]:
            if toks[-1] == eos_id:
                finished.append(Hypothesis(toks, score))
                slots -= 1
            else:
                beams.append(Hypothesis(toks, score))
    finished.extend(beams)  # length-capped: the last token is not EOS
    return min(finished,
               key=lambda h: (-normalized_score(h, config.length_penalty),
                              h.token_ids))


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
        cfg = DecodeConfig(mode=config.mode, beam_size=config.beam_size,
                           max_target_length=limit,
                           length_penalty=config.length_penalty)
        return beam_search(step_fn, cfg)
