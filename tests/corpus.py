"""Synthetic geography corpus for overfit training runs.

Thirty-two examples built from a small closed vocabulary. Twelve use a
single capital triple, ten chain a population triple off the capital
city, and ten add a leader triple back on the country, so entity
sharing produces same-entity edges both within and across subjects.
The reference text is a fixed clause template per relation, joined
with " and ".

`large_corpus` builds examples the size of the largest graphs trained
on, for memory tests.
"""

import random
import string

from graphtext.data import Example, Triple, normalize_entity

PLACES = ["Albania", "Bolivia", "Canada", "Denmark", "Estonia", "Finland",
          "Ghana", "Hungary", "Iceland", "Jordan", "Kenya", "Laos",
          "New_Zealand", "Costa_Rica", "Sri_Lanka", "Cape_Verde"]
CITIES = ["Tirana", "Sucre", "Ottawa", "Copenhagen", "Tallinn", "Helsinki",
          "Accra", "Budapest", "Reykjavik", "Amman", "Nairobi", "Vientiane",
          "Wellington", "San_Jose", "Colombo", "Praia"]
LEADERS = ["Rama", "Arce", "Trudeau", "Frederiksen", "Kallas", "Orban"]
COUNTS = ["1840000", "2873000", "5600000", "331000", "11500000"]


def clause(t: Triple) -> str:
    h, x = normalize_entity(t.head), normalize_entity(t.tail)
    return {"capital": f"the capital of {h} is {x}",
            "population": f"{h} has {x} residents",
            "leader": f"{x} leads {h}"}[t.relation]


def render_target(triples) -> str:
    return " and ".join(clause(t) for t in triples) + " ."


def build_corpus(seed: int = 77) -> list[Example]:
    """Thirty-two examples with one to three triples each."""
    rng = random.Random(seed)
    out = []
    shapes = [0] * 12 + [1] * 10 + [2] * 10
    for shape in shapes:
        place = rng.choice(PLACES)
        city = rng.choice(CITIES)
        triples = [Triple(place, "capital", city)]
        if shape >= 1:
            triples.append(Triple(city, "population", rng.choice(COUNTS)))
        if shape == 2:
            triples.append(Triple(place, "leader", rng.choice(LEADERS)))
        out.append(Example(triples, render_target(triples)))
    return out


def split_corpus(examples: list[Example], held_out: int = 8,
                 seed: int = 5) -> tuple[list[Example], list[Example]]:
    """Hold out multi-triple examples so the held-out set is never a
    plain one-triple template the model has memorized verbatim."""
    multi = [i for i, ex in enumerate(examples) if len(ex.triples) >= 2]
    test_idx = set(random.Random(seed).sample(multi, held_out))
    train = [ex for i, ex in enumerate(examples) if i not in test_idx]
    test = [ex for i, ex in enumerate(examples) if i in test_idx]
    return train, test


def large_corpus(count: int, seed: int = 3) -> list[Example]:
    """``count`` examples of 5-7 triples with 5-7 word entities and 3-4
    word relations, about 100-140 source tokens each; half the triples
    start at the previous triple's tail, so same-entity edges occur."""
    rng = random.Random(seed)
    pool = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(4, 8)))
            for _ in range(300)]

    def phrase(lo: int, hi: int) -> str:
        return " ".join(rng.choices(pool, k=rng.randint(lo, hi)))

    out = []
    for _ in range(count):
        triples = []
        for _ in range(rng.randint(5, 7)):
            head = (triples[-1].tail if triples and rng.random() < 0.5
                    else phrase(5, 7))
            triples.append(Triple(head, phrase(3, 4), phrase(5, 7)))
        text = " and ".join(f"{t.head} {t.relation} {t.tail}"
                            for t in triples) + " ."
        out.append(Example(triples, text))
    return out
