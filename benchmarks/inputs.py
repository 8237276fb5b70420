"""Seeded synthetic knowledge-graph-to-text corpora for the benchmark.

The pattern follows the test corpus: a chain of triples whose entities
are shared (a country is the head of several triples, its capital is the
tail of one and the head of another), so the token graph holds all five
relation types R1-R5. Multi-word entities give the R4 chains.

The seed chooses the words only. The shape of example ``i`` (triple
count and words per entity) depends on ``i`` alone, so every seed gives
the same sequence lengths and graph sizes, and run-to-run differences
in timing come from the machine rather than from the inputs.
"""
from __future__ import annotations

import random

from graphtext.data import Example, Triple

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]  # 85

# (short relation name, long relation name, clause template)
_RELATIONS = [
    ("capital", "has_capital_city", "the capital of {h} is {t}"),
    ("population", "has_total_population_count", "{h} has {t} residents"),
    ("leader", "is_currently_led_by", "{t} leads {h}"),
    ("language", "has_official_spoken_language", "people in {h} speak {t}"),
    ("founder", "was_originally_founded_by", "{h} was founded by {t}"),
    ("currency", "pays_with_national_currency", "{h} pays in {t}"),
    ("anthem", "has_national_anthem_titled", "the anthem of {h} is {t}"),
]

# triple j = (head slot, relation index, tail slot); heads are shared so
# span strings repeat inside an example (R5 edges)
_CHAIN = [(0, 0, 1), (1, 1, 2), (0, 2, 3), (0, 3, 4), (1, 4, 5), (3, 5, 6),
          (4, 6, 7)]


def _word(index: int, syllables: int) -> str:
    parts = []
    for _ in range(syllables):
        index, s = divmod(index, len(_SYLLABLES))
        parts.append(_SYLLABLES[s])
    return "".join(parts).capitalize()


def _word_pool(rng: random.Random, size: int, syllables: int) -> list[str]:
    """``size`` distinct words; ids are sampled without replacement."""
    space = len(_SYLLABLES) ** syllables
    return [_word(i, syllables) for i in rng.sample(range(space), size)]


def _example(words, num_triples: int, words_per_slot, long_relations: bool
             ) -> Example:
    """``words`` yields entity words; ``words_per_slot(s)`` sizes slot s."""
    names = {}
    triples = []
    clauses = []
    for head, rel, tail in _CHAIN[:num_triples]:
        for slot in (head, tail):
            if slot not in names:
                names[slot] = [next(words)
                               for _ in range(words_per_slot(slot))]
        short, long, template = _RELATIONS[rel]
        triples.append(Triple("_".join(names[head]),
                              long if long_relations else short,
                              "_".join(names[tail])))
        clauses.append(template.format(h=" ".join(names[head]),
                                       t=" ".join(names[tail])))
    return Example(triples, " and ".join(clauses) + " .")


def _pool_stream(rng: random.Random, pool: list[str]):
    while True:
        yield rng.choice(pool)


def small_graphs(seed: int, count: int) -> list[Example]:
    """1-3 triples, 1-4 words per entity: 13-35 source tokens and a
    vocabulary of about 300."""
    rng = random.Random(f"small-graphs/{seed}")
    words = _pool_stream(rng, _word_pool(rng, 300, 2))
    return [_example(words, 1 + i % 3, lambda s, i=i: 1 + (i + s) % 4, False)
            for i in range(count)]


def large_graphs(seed: int, count: int) -> list[Example]:
    """5-7 triples with 5-7 word entities and 3-4 word relations:
    98-138 source tokens and 78-112 target tokens."""
    rng = random.Random(f"large-graphs/{seed}")
    words = _pool_stream(rng, _word_pool(rng, 400, 2))
    return [_example(words, 5 + i % 3, lambda s, i=i: 5 + (i + s) % 3, True)
            for i in range(count)]


def vocab_corpus(seed: int, distinct_words: int) -> list[Example]:
    """Three-triple examples that use each of ``distinct_words`` words at
    least once, so the vocabulary is that size plus the template words."""
    rng = random.Random(f"vocab-corpus/{seed}")
    pool = _word_pool(rng, distinct_words, 3)
    per_example = 4 * 3  # four entity slots of three words
    count = -(-distinct_words // per_example)
    stream = iter(pool + rng.sample(pool, count * per_example - len(pool)))
    return [_example(stream, 3, lambda s: 3, False) for _ in range(count)]
