"""Corpus-level text generation metrics.

BLEU uses corpus-pooled modified n-gram precisions, orders 1-4, with no
smoothing: if any order has a zero numerator or denominator the score is
0.0. The brevity penalty is exp(1 - r/c) when the candidate corpus is
shorter than the reference corpus.

The chrF++ variant pools per-segment statistics over the corpus: six
character orders (computed on whitespace-stripped text) plus two word
orders. An order contributes only when both sides produced n-grams at
that order; precision and recall are averaged over contributing orders
and blended by a single F-score with beta = 2 (recall-weighted).
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .data import DataError

TokenList = Sequence[str]

CHAR_ORDERS = 6
WORD_ORDERS = 2
CHRF_BETA = 2.0


def _check_corpus(candidates, references) -> None:
    if len(candidates) != len(references):
        raise DataError(
            f"{len(candidates)} candidates vs {len(references)} references")
    if not candidates:
        raise DataError("empty corpus")


def _ngrams(items: Sequence, n: int) -> Counter:
    return Counter(tuple(items[i:i + n]) for i in range(len(items) - n + 1))


def _overlap(cand: Sequence, ref: Sequence, n: int) -> tuple[int, int, int]:
    """Matches of ``cand``'s n-grams in ``ref``, each clipped to its count
    there, then each side's n-gram total."""
    cg = _ngrams(cand, n)
    rg = _ngrams(ref, n)
    return sum((cg & rg).values()), sum(cg.values()), sum(rg.values())


def corpus_bleu(candidates: Sequence[TokenList],
                references: Sequence[TokenList]) -> float:
    """Corpus BLEU in [0, 100], single reference per candidate."""
    _check_corpus(candidates, references)
    matches = [0] * 4
    totals = [0] * 4
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand = list(cand)
        ref = list(ref)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, 5):
            m, t, _ = _overlap(cand, ref, n)
            matches[n - 1] += m
            totals[n - 1] += t
    if any(m == 0 or t == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matches, totals)) / 4.0
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * math.exp(log_precision)


def _pooled_f(candidates, references) -> float:
    # one [matches, cand_total, ref_total] per order, corpus-pooled
    stats = [[0, 0, 0] for _ in range(CHAR_ORDERS + WORD_ORDERS)]
    for cand, ref in zip(candidates, references):
        cand_words = list(cand)
        ref_words = list(ref)
        cand_chars = "".join(" ".join(cand_words).split())
        ref_chars = "".join(" ".join(ref_words).split())
        counts = [_overlap(cand_chars, ref_chars, n)
                  for n in range(1, CHAR_ORDERS + 1)]
        counts += [_overlap(cand_words, ref_words, n)
                   for n in range(1, WORD_ORDERS + 1)]
        stats = [[a + b for a, b in zip(s, c)] for s, c in zip(stats, counts)]
    precisions = []
    recalls = []
    for m, ct, rt in stats:
        if ct > 0 and rt > 0:  # order counts only when both sides have n-grams
            precisions.append(m / ct)
            recalls.append(m / rt)
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    r = sum(recalls) / len(recalls)
    if p == 0.0 and r == 0.0:
        return 0.0
    b2 = CHRF_BETA ** 2
    return (1 + b2) * p * r / (b2 * p + r)


def chrf_pp(candidates: Sequence[TokenList],
            references: Sequence[TokenList]) -> float:
    """chrF++ in [0, 100]: char orders 1-6 plus word orders 1-2, beta=2."""
    _check_corpus(candidates, references)
    return 100.0 * _pooled_f(candidates, references)
