"""Token-level graph over a linearized example, read off its marker ids.

Edge rules, all oriented left to right in the sequence:

* R1: the global marker to every span marker.
* R2: head marker to relation marker, relation marker to tail marker,
  within one triple.
* R3: each span marker to every token of its own span.
* R4: consecutive tokens inside one span.
* R5: every pair of span markers whose normalized span strings match,
  earlier position to later.
* SELF: one loop per node; prompt tokens get only this.

With ``bidirectional`` on, every non-self edge also gets a reversed twin
tagged REVERSE (same base relation). The forward non-self edges double as
the labels for the reconstruction objective.

A graph holds its edges as four parallel arrays, one entry per edge in
build order: ``src``, ``dst``, ``rel`` (the relation's index in
``RelationType`` order) and ``reverse``. The rules append plain ints, and
counts, reconstruction targets and the JSON record are computed from the
arrays. ``HierGraph.edges`` stacks them into one (E, 4) array on request;
only the benchmark's tracer asks, to count the edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import GRAPH_ID, H_ID, R_ID, T_ID, DataError, TokenizedGraphInput


class RelationType(Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"
    SELF = "SELF"


RELATIONS = tuple(RelationType)  # a graph's ``rel`` indexes this
# every relation but SELF; a reconstruction label is its ``rel`` index
LABEL_RELATIONS = RELATIONS[:-1]
_R1, _R2, _R3, _R4, _R5, _SELF = range(len(RELATIONS))
_DIRECTIONS = ("FWD", "REV")  # the record's direction, by ``reverse``


@dataclass(eq=False)
class HierGraph:
    """Edge i runs ``src[i] -> dst[i]`` with relation ``RELATIONS[rel[i]]``;
    ``reverse[i]`` marks the reversed twin of a forward edge."""
    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    rel: np.ndarray
    reverse: np.ndarray

    @property
    def edges(self) -> np.ndarray:
        """(E, 4): row i is edge i's (src, dst, rel, reverse), in build
        order."""
        return np.stack((self.src, self.dst, self.rel, self.reverse), axis=1)


def build_graph(inp: TokenizedGraphInput, bidirectional: bool = True) -> HierGraph:
    """The token graph of ``inp``; a span runs from a head, relation or
    tail marker to the next marker or the end. Raises ``DataError`` unless
    exactly one global marker is directly followed by the first span
    marker (if any) and the span markers cycle head, relation, tail, one
    key each."""
    ids = inp.token_ids
    n = len(ids)
    if ids.count(GRAPH_ID) != 1:
        raise DataError("expected exactly one global marker")
    global_pos = ids.index(GRAPH_ID)
    markers = [i for i, t in enumerate(ids) if H_ID <= t <= T_ID]
    if markers and markers[0] != global_pos + 1:
        raise DataError("the first span marker does not follow the global one")
    if [ids[m] for m in markers] != [H_ID, R_ID, T_ID] * (len(markers) // 3):
        raise DataError("span markers must cycle head, relation, tail")
    keys = inp.span_keys
    if len(keys) != len(markers):
        raise DataError(f"{len(keys)} span keys for {len(markers)} spans")
    spans = [range(m + 1, end) for m, end in zip(markers, markers[1:] + [n])]
    src: list[int] = [global_pos] * len(markers)
    dst: list[int] = list(markers)
    rel: list[int] = [_R1] * len(markers)

    for h, r, t in zip(markers[::3], markers[1::3], markers[2::3]):
        src += (h, r)
        dst += (r, t)
        rel += (_R2, _R2)

    for m, span in zip(markers, spans):
        src += [m] * len(span)
        dst += span
        rel += [_R3] * len(span)

    for span in spans:
        src += span[:-1]
        dst += span[1:]
        rel += [_R4] * (len(span) - 1)

    for i, a in enumerate(markers):
        for j in range(i + 1, len(markers)):
            if keys[i] == keys[j]:
                src.append(a)
                dst.append(markers[j])
                rel.append(_R5)

    forward = np.array((src, dst, rel), dtype=np.intp)
    parts = [forward]
    if bidirectional:  # reversed twins: endpoints swapped, same relation
        parts.append(forward[[1, 0, 2]])
    loops = np.arange(n)
    parts.append(np.stack((loops, loops, np.full(n, _SELF))))
    edges = np.concatenate(parts, axis=1)
    reverse = np.zeros(edges.shape[1], dtype=bool)
    reverse[forward.shape[1]:edges.shape[1] - n] = True
    return HierGraph(n, *edges, reverse=reverse)


def edge_counts(graph: HierGraph) -> dict[str, dict[str, int]]:
    """Per-relation counts, split by direction; together they partition
    the edge list."""
    k = len(RELATIONS)
    counts = np.bincount(graph.reverse * k + graph.rel, minlength=2 * k)
    names = [r.value for r in RELATIONS]
    return {"forward": dict(zip(names, counts[:k].tolist())),
            "reverse": dict(zip(names, counts[k:].tolist()))}


def reconstruction_targets(graph: HierGraph) -> np.ndarray:
    """The forward non-self edges as a (3, P) int array: rows src, dst and
    label (the ``rel`` index, which is the index in LABEL_RELATIONS),
    columns sorted by (src, dst, label)."""
    keep = ~graph.reverse & (graph.rel != _SELF)
    targets = np.stack((graph.src[keep], graph.dst[keep], graph.rel[keep]))
    return targets[:, np.lexsort(targets[::-1])]


def graph_record(graph: HierGraph) -> dict:
    """The graph as plain JSON values, edges sorted by (src, dst,
    relation, direction)."""
    order = np.lexsort((graph.reverse, graph.rel, graph.dst, graph.src))
    names = [r.value for r in RELATIONS]
    return {"num_nodes": graph.num_nodes,
            "edges": [[s, d, names[r], _DIRECTIONS[b]] for s, d, r, b in zip(
                graph.src[order].tolist(), graph.dst[order].tolist(),
                graph.rel[order].tolist(), graph.reverse[order].tolist())]}
