"""Token-level graph over a linearized example.

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
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .data import SPECIAL_KINDS, TokenKind, TokenizedGraphInput


class RelationType(Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"
    SELF = "SELF"


class Direction(Enum):
    FORWARD = "FWD"
    REVERSE = "REV"


LABEL_RELATIONS = (RelationType.R1, RelationType.R2, RelationType.R3,
                   RelationType.R4, RelationType.R5)


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    rel: RelationType
    dir: Direction


@dataclass
class HierGraph:
    num_nodes: int
    edges: list[Edge]

    @property
    def forward_edges(self) -> list[Edge]:
        return [e for e in self.edges
                if e.dir is Direction.FORWARD and e.rel is not RelationType.SELF]


def build_graph(inp: TokenizedGraphInput, bidirectional: bool = True) -> HierGraph:
    inp.validate()
    n = len(inp)
    kinds = inp.kinds
    tri = inp.triple_index
    span = inp.entity_span_id
    fwd: list[tuple[int, int, RelationType]] = []

    global_pos = kinds.index(TokenKind.GLOBAL)
    special_pos = [i for i, k in enumerate(kinds) if k in SPECIAL_KINDS]
    for s in special_pos:
        fwd.append((global_pos, s, RelationType.R1))

    by_triple: dict[int, dict[TokenKind, int]] = {}
    for s in special_pos:
        by_triple.setdefault(tri[s], {})[kinds[s]] = s
    for t in sorted(by_triple):
        trio = by_triple[t]
        fwd.append((trio[TokenKind.SPECIAL_H], trio[TokenKind.SPECIAL_R],
                    RelationType.R2))
        fwd.append((trio[TokenKind.SPECIAL_R], trio[TokenKind.SPECIAL_T],
                    RelationType.R2))

    span_tokens: dict[int, list[int]] = {}
    for i, k in enumerate(kinds):
        if k is TokenKind.ENTITY:
            span_tokens.setdefault(span[i], []).append(i)
    for s in special_pos:
        for q in span_tokens.get(span[s], ()):
            fwd.append((s, q, RelationType.R3))

    for positions in span_tokens.values():
        for a, b in zip(positions, positions[1:]):
            fwd.append((a, b, RelationType.R4))

    keys = inp.span_keys
    for i, a in enumerate(special_pos):
        for b in special_pos[i + 1:]:
            if keys[span[a]] == keys[span[b]]:
                fwd.append((a, b, RelationType.R5))

    edges = [Edge(u, v, r, Direction.FORWARD) for u, v, r in fwd]
    if bidirectional:
        edges.extend(Edge(v, u, r, Direction.REVERSE) for u, v, r in fwd)
    edges.extend(Edge(i, i, RelationType.SELF, Direction.FORWARD)
                 for i in range(n))
    return HierGraph(num_nodes=n, edges=edges)


def edge_counts(graph: HierGraph) -> dict[str, dict[str, int]]:
    """Per-relation counts, split by direction; together they partition
    the edge list."""
    out = {"forward": {r.value: 0 for r in RelationType},
           "reverse": {r.value: 0 for r in RelationType}}
    for e in graph.edges:
        bucket = "forward" if e.dir is Direction.FORWARD else "reverse"
        out[bucket][e.rel.value] += 1
    return out


def reconstruction_targets(graph: HierGraph) -> list[tuple[int, int, RelationType]]:
    """Forward non-self edges with labels, sorted by (src, dst, label)."""
    return sorted(((e.src, e.dst, e.rel) for e in graph.forward_edges),
                  key=lambda t: (t[0], t[1], t[2].value))


def graph_record(graph: HierGraph) -> dict:
    """The graph as plain JSON values, edges sorted by (src, dst,
    relation, direction)."""
    order = {r: i for i, r in enumerate(RelationType)}
    edges = sorted(graph.edges,
                   key=lambda e: (e.src, e.dst, order[e.rel], e.dir.value))
    return {"num_nodes": graph.num_nodes,
            "edges": [[e.src, e.dst, e.rel.value, e.dir.value] for e in edges]}
