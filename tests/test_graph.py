import importlib.util
import json
import random
from pathlib import Path

import numpy as np
import pytest

from graphtext import data as D
from graphtext import gnn as N
from graphtext import graph as G
from graphtext import training as TR
from graphtext.model import ModelConfig
from corpus import build_corpus
from oracles import (FORWARD, REVERSE, SPECIAL_KINDS, Edge, annotations_of,
                     dense_views, edge_build_graph, edge_counts_of,
                     edge_graph_tensors, edges_of, forward_edges_of,
                     graph_record_of, reconstruction_targets_of)


def oracle_forward_edges(inp):
    """Independent pairwise rule scan; decides every (i, j) pair from the
    token annotations alone. Returns {(src, dst, relname)}."""
    kinds, tri, span = zip(*annotations_of(inp))
    keys = inp.span_keys
    specials = set(SPECIAL_KINDS)
    n = len(inp)
    edges = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if kinds[i] == "GLOBAL" and kinds[j] in specials:
                edges.add((i, j, "R1"))
            if tri[i] is not None and tri[i] == tri[j]:
                if kinds[i] == "SPECIAL_H" and kinds[j] == "SPECIAL_R":
                    edges.add((i, j, "R2"))
                if kinds[i] == "SPECIAL_R" and kinds[j] == "SPECIAL_T":
                    edges.add((i, j, "R2"))
            if (kinds[i] in specials and kinds[j] == "ENTITY"
                    and span[i] == span[j]):
                edges.add((i, j, "R3"))
            if (kinds[i] == "ENTITY" and kinds[j] == "ENTITY"
                    and span[i] == span[j] and j == i + 1):
                edges.add((i, j, "R4"))
            if (kinds[i] in specials and kinds[j] in specials and i < j
                    and keys[span[i]] == keys[span[j]]):
                edges.add((i, j, "R5"))
    return edges


def forward_set(graph):
    return {(e.src, e.dst, e.rel.value) for e in forward_edges_of(graph)}


def iraq_example():
    return D.Example([D.Triple("Iraq", "language", "Arabic")],
                     "Iraq language is Arabic.")


def monocacy_example():
    monument = "14th_New_Jersey_Volunteer_Infantry_Monument"
    battlefield = "Monocacy_National_Battlefield"
    return D.Example([
        D.Triple(monument, "category", "Historic_districts_in_the_United_States"),
        D.Triple(monument, "district", battlefield),
        D.Triple(monument, "established", '"1907-07-11"'),
        D.Triple(monument, "location", "Frederick_County,_Maryland"),
        D.Triple(monument, "owningOrganisation", "National_Park_Service"),
        D.Triple(battlefield, "nearestCity", "Frederick,_Maryland"),
    ])


def linearized(ex, prompt=D.DEFAULT_PROMPT):
    vocab = D.build_vocabulary([ex])
    return D.linearize(ex, prompt, vocab)


def test_iraq_edge_counts():
    inp = linearized(iraq_example())
    g = G.build_graph(inp, bidirectional=True)
    counts = G.edge_counts(g)
    assert counts["forward"] == {"R1": 3, "R2": 2, "R3": 3, "R4": 0, "R5": 0,
                                 "SELF": 12}
    assert counts["reverse"] == {"R1": 3, "R2": 2, "R3": 3, "R4": 0, "R5": 0,
                                 "SELF": 0}
    assert len(forward_edges_of(g)) == 8
    non_self = [e for e in edges_of(g) if e.rel is not G.RelationType.SELF]
    assert len(non_self) == 16
    self_loops = [e for e in edges_of(g) if e.rel is G.RelationType.SELF]
    assert len(self_loops) == g.num_nodes == 12
    assert forward_set(g) == oracle_forward_edges(inp)


def test_monocacy_same_entity_pairs():
    inp = linearized(monocacy_example())
    g = G.build_graph(inp)
    counts = G.edge_counts(g)
    assert counts["forward"]["R5"] == 11  # C(5,2) + 1
    assert forward_set(g) == oracle_forward_edges(inp)


def test_closed_form_counts_without_sharing():
    k = 4
    ex = D.Example([D.Triple(f"h{i}", f"r{i}", f"t{i}") for i in range(k)])
    g = G.build_graph(linearized(ex))
    counts = G.edge_counts(g)["forward"]
    assert counts == {"R1": 3 * k, "R2": 2 * k, "R3": 3 * k, "R4": 0, "R5": 0,
                      "SELF": g.num_nodes}


def test_prompt_tokens_carry_only_self_loops():
    inp = linearized(iraq_example())
    g = G.build_graph(inp)
    prompt_pos = {i for i, (k, _, _) in enumerate(annotations_of(inp))
                  if k == "PROMPT"}
    for e in edges_of(g):
        if e.src in prompt_pos or e.dst in prompt_pos:
            assert e.rel is G.RelationType.SELF and e.src == e.dst


def random_example(rng):
    words = ["Iraq", "Arabic", "New_York", "big apple", "a-b", "X", "Y y",
             '"Z"', "co_op", "Q,R"]
    def name():
        return " ".join(rng.choice(words) for _ in range(rng.randint(1, 3)))
    k = rng.randint(1, 4)
    return D.Example([D.Triple(name(), name(), name()) for _ in range(k)])


def test_oracle_equivalence_on_random_inputs():
    rng = random.Random(2024)
    for case in range(200):
        ex = random_example(rng)
        prompt = rng.choice(["", D.DEFAULT_PROMPT, "describe :"])
        inp = D.linearize(ex, prompt, D.build_vocabulary([ex]),
                          max_sequence_length=10_000)
        g = G.build_graph(inp, bidirectional=True)
        assert forward_set(g) == oracle_forward_edges(inp), f"case {case}"
        # structural invariants
        quad = [(e.src, e.dst, e.rel, e.dir) for e in edges_of(g)]
        assert len(quad) == len(set(quad))
        for e in forward_edges_of(g):
            assert e.src < e.dst
        rev = {(e.src, e.dst, e.rel.value) for e in edges_of(g)
               if e.dir == REVERSE}
        assert rev == {(d, s, r) for s, d, r in forward_set(g)}
        assert sum(1 for e in edges_of(g)
                   if e.rel is G.RelationType.SELF) == len(inp)


def test_unidirectional_mode():
    inp = linearized(iraq_example())
    g = G.build_graph(inp, bidirectional=False)
    assert all(e.dir == FORWARD for e in edges_of(g))
    assert np.array_equal(G.reconstruction_targets(g),
                          G.reconstruction_targets(
                              G.build_graph(inp, bidirectional=True)))


def test_reconstruction_targets_sorted_and_complete():
    inp = linearized(monocacy_example())
    g = G.build_graph(inp)
    targets = G.reconstruction_targets(g)
    assert targets.shape == (3, len(forward_edges_of(g)))
    columns = [tuple(c) for c in targets.T.tolist()]
    assert columns == sorted(columns)
    assert {(u, v, G.LABEL_RELATIONS[r].value)
            for u, v, r in columns} == forward_set(g)


def test_every_special_has_incoming_r1_and_entities_have_r3():
    inp = linearized(monocacy_example())
    g = G.build_graph(inp)
    r1_dst = [e.dst for e in forward_edges_of(g)
              if e.rel is G.RelationType.R1]
    kinds = [k for k, _, _ in annotations_of(inp)]
    specials = [i for i, k in enumerate(kinds) if k in SPECIAL_KINDS]
    assert sorted(r1_dst) == specials
    r3_dst = {e.dst for e in forward_edges_of(g)
              if e.rel is G.RelationType.R3}
    entities = {i for i, k in enumerate(kinds) if k == "ENTITY"}
    assert entities <= r3_dst


def test_graph_json_roundtrip():
    inp = linearized(iraq_example())
    g = G.build_graph(inp)
    obj = json.loads(json.dumps(G.graph_record(g)))
    assert obj["num_nodes"] == g.num_nodes
    edges = obj["edges"]
    # every edge exactly once, sorted by (src, dst, relation, direction)
    records = edges_of(g)
    assert len(edges) == len(records) == len(set(records))
    assert {Edge(s, d, G.RelationType(r), dd)
            for s, d, r, dd in edges} == set(records)
    order = {r.value: i for i, r in enumerate(G.RelationType)}
    assert edges == sorted(edges, key=lambda e: (e[0], e[1], order[e[2]], e[3]))


def test_r4_multi_token_spans():
    ex = D.Example([D.Triple("New York City", "r", "t")])
    inp = linearized(ex, prompt="")
    g = G.build_graph(inp)
    counts = G.edge_counts(g)["forward"]
    assert counts["R4"] == 2  # New->York, York->City
    assert counts["R3"] == 5  # 3 tokens of the head + 1 + 1
    assert forward_set(g) == oracle_forward_edges(inp)


def benchmark_large_graphs():
    """The benchmark's 32 large-graph examples at seed 1 (its input module
    is only imported)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.large_graphs(1, 32)


def oracle_cases():
    rng = random.Random(2024)
    for _ in range(200):
        ex = random_example(rng)
        prompt = rng.choice(["", D.DEFAULT_PROMPT, "describe :"])
        yield ex, prompt, D.build_vocabulary([ex])
    large = benchmark_large_graphs()
    vocab = D.build_vocabulary(large)
    for ex in large:
        yield ex, D.DEFAULT_PROMPT, vocab


def test_edge_arrays_match_edge_object_oracle():
    """Edges, counts, labels, the JSON record and the graph tensors'
    edge lists, scattered dense, equal those of the graph built edge by
    edge as records."""
    for case, (ex, prompt, vocab) in enumerate(oracle_cases()):
        inp = D.linearize(ex, prompt, vocab, max_sequence_length=10_000)
        for bidirectional in (True, False):
            where = f"case {case}, bidirectional={bidirectional}"
            g = G.build_graph(inp, bidirectional=bidirectional)
            edges = edge_build_graph(inp, bidirectional=bidirectional)
            assert g.num_nodes == len(inp), where
            assert edges_of(g) == edges, where
            assert json.dumps(G.graph_record(g)) == json.dumps(
                graph_record_of(len(inp), edges)), where
            assert json.dumps(G.edge_counts(g)) == json.dumps(
                edge_counts_of(edges)), where
            targets = G.reconstruction_targets(g)
            assert targets.dtype == np.intp, where
            assert [tuple(c) for c in targets.T.tolist()] == \
                reconstruction_targets_of(edges), where
            gt = N.graph_tensors(g)
            ref = edge_graph_tensors(len(inp), edges)
            assert gt.num_nodes == len(inp), where
            views = dense_views(gt)
            for name, want in ref.items():
                got = views[name]
                assert got.dtype == want.dtype, f"{where}: {name}"
                assert np.array_equal(got, want), f"{where}: {name}"


def test_graph_needs_only_the_reserved_vocabulary():
    """A graph reads only marker ids and span keys, so ``build-graph``
    can linearize against the reserved tokens alone."""
    corpus = build_corpus()
    full = D.build_vocabulary(corpus)
    reserved = D.Vocabulary(D.RESERVED_TOKENS)
    for case, ex in enumerate(corpus):
        for bidirectional in (True, False):
            records = [G.graph_record(G.build_graph(
                D.linearize(ex, D.DEFAULT_PROMPT, vocab), bidirectional))
                for vocab in (full, reserved)]
            assert records[0] == records[1], f"case {case}, {bidirectional}"


def hand_built(surface, span_keys):
    """A ``TokenizedGraphInput`` made without ``linearize``; ``w`` is an
    ordinary token."""
    vocab = D.Vocabulary(D.RESERVED_TOKENS + ["w"])
    return D.TokenizedGraphInput(vocab.encode(surface), surface, span_keys)


TRIPLE = ["<H>", "w", "<R>", "w", "<T>", "w"]
KEYS = ["w", "w", "w"]


@pytest.mark.parametrize("surface,span_keys,message", [
    (["<Graph>", "<Graph>", *TRIPLE], KEYS,
     "expected exactly one global marker"),
    (["<H>", "w", "<Graph>", "<R>", "w", "<T>", "w"], KEYS,
     "the first span marker does not follow the global one"),
    (["w", "<Graph>", "w", *TRIPLE], KEYS,
     "the first span marker does not follow the global one"),
    (["<Graph>", "<H>", "w", "<T>", "w", "<R>", "w"], KEYS,
     "span markers must cycle head, relation, tail"),
    (["<Graph>", *TRIPLE, "<H>", "w"], KEYS + ["w"],
     "span markers must cycle head, relation, tail"),
    (["<Graph>", *TRIPLE], KEYS + ["w"], "4 span keys for 3 spans"),
    (["<Graph>", *TRIPLE], KEYS[:2], "2 span keys for 3 spans"),
], ids=["two-globals", "marker-before-global", "token-after-global",
        "out-of-order", "cut-short", "key-too-many", "key-too-few"])
def test_build_graph_rejects_malformed_structure(surface, span_keys, message,
                                                 monkeypatch):
    bad = hand_built(surface, span_keys)
    with pytest.raises(D.DataError) as info:
        G.build_graph(bad)
    assert str(info.value) == message
    monkeypatch.setattr(TR, "linearize", lambda *args: bad)
    vocab = D.build_vocabulary([iraq_example()])
    with pytest.raises(D.DataError) as info:
        TR.prepare_items([iraq_example()], vocab,
                         ModelConfig(vocab_size=len(vocab)))
    assert str(info.value) == f"example 1: {message}"


def test_build_graph_accepts_a_hand_built_input():
    g = G.build_graph(hand_built(["w", "<Graph>", *TRIPLE], KEYS))
    assert G.edge_counts(g)["forward"] == {
        "R1": 3, "R2": 2, "R3": 3, "R4": 0, "R5": 3, "SELF": 8}

