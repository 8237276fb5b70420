"""Single-layer GNNs under a shared aggregate/combine split.

Three families: mean-neighborhood (SAGE, with MAX/SUM variants),
attention-weighted (GAT, heads averaged), and relation-typed (RGCN, one
weight per relation bucket, buckets = base relation x direction).

Graphs are small (a few hundred nodes), so neighborhoods are dense
matrices precomputed once per example by :func:`graph_tensors`; a layer
forward is then a handful of matmuls on the tape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .graph import Direction, HierGraph, RelationType

FAMILIES = ("SAGE", "GAT", "RGCN")
SAGE_AGGREGATORS = ("MEAN", "MAX", "SUM")

_REL_ORDER = {r: i for i, r in enumerate(RelationType)}
NUM_RELATION_BUCKETS = 2 * len(RelationType)  # each relation, each direction


@dataclass
class GnnConfig:
    family: str = "SAGE"
    in_dim: int = 64
    out_dim: int = 64
    gat_heads: int = 4
    identity_mode: bool = False
    sage_aggregator: str = "MEAN"

    def __post_init__(self) -> None:
        self.family = self.family.upper()
        self.sage_aggregator = self.sage_aggregator.upper()
        if self.family not in FAMILIES:
            raise ValueError(f"unknown GNN family {self.family!r}")
        if self.sage_aggregator not in SAGE_AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.sage_aggregator!r}")
        if self.in_dim <= 0 or self.out_dim <= 0 or self.gat_heads <= 0:
            raise ValueError("GNN dimensions and head count must be positive")


def bucket_index(rel: RelationType, direction: Direction) -> int:
    return 2 * _REL_ORDER[rel] + (0 if direction is Direction.FORWARD else 1)


@dataclass
class GraphTensors:
    """Dense neighborhood structure shared by all families.

    ``in_mask[v, u]`` is True when an edge u -> v of any type exists;
    self-loops guarantee every row is non-empty. ``bucket_matrices[b]``
    is the per-bucket in-degree-normalized adjacency, or None when the
    bucket has no edges.
    """
    num_nodes: int
    in_mask: np.ndarray
    mean_matrix: T.Tensor
    sum_matrix: T.Tensor
    bucket_matrices: list[T.Tensor | None]


def graph_tensors(graph: HierGraph) -> GraphTensors:
    n = graph.num_nodes
    adj = np.zeros((n, n), dtype=bool)
    buckets = np.zeros((NUM_RELATION_BUCKETS, n, n), dtype=np.float64)
    for e in graph.edges:
        adj[e.dst, e.src] = True
        buckets[bucket_index(e.rel, e.dir), e.dst, e.src] = 1.0
    if not adj.any(axis=1).all():
        raise ValueError("graph has a node with no incoming edge")
    deg = adj.sum(axis=1, keepdims=True).astype(np.float64)
    mats: list[T.Tensor | None] = []
    for b in range(NUM_RELATION_BUCKETS):
        bdeg = buckets[b].sum(axis=1, keepdims=True)
        if bdeg.sum() == 0:
            mats.append(None)
            continue
        normed = np.divide(buckets[b], bdeg, out=np.zeros_like(buckets[b]),
                           where=bdeg > 0)
        mats.append(T.Tensor(normed))
    return GraphTensors(num_nodes=n, in_mask=adj,
                        mean_matrix=T.Tensor(adj / deg),
                        sum_matrix=T.Tensor(adj.astype(np.float64)),
                        bucket_matrices=mats)


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int,
           shape=None) -> np.ndarray:
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=shape or (fan_in, fan_out))


class GnnLayer:
    """One aggregate+combine step; owns its parameters in the store under
    ``{prefix}.*``. Identity mode creates no parameters and is an exact
    bypass."""

    def __init__(self, config: GnnConfig, store: T.ParameterStore,
                 prefix: str, rng: np.random.Generator):
        self.config = config
        self.p: dict[str, T.Tensor] = {}
        if config.identity_mode:
            return
        di, do = config.in_dim, config.out_dim
        if config.family == "SAGE":
            self.p["w_self"] = store.create(f"{prefix}.w_self", xavier(rng, di, do))
            self.p["w_neigh"] = store.create(f"{prefix}.w_neigh", xavier(rng, di, do))
            self.p["b"] = store.create(f"{prefix}.b", np.zeros(do))
        elif config.family == "GAT":
            for h in range(config.gat_heads):
                self.p[f"w{h}"] = store.create(f"{prefix}.w{h}", xavier(rng, di, do))
                self.p[f"a_src{h}"] = store.create(
                    f"{prefix}.a_src{h}", xavier(rng, do, 1, shape=(do, 1)))
                self.p[f"a_dst{h}"] = store.create(
                    f"{prefix}.a_dst{h}", xavier(rng, do, 1, shape=(do, 1)))
        else:  # RGCN
            self.p["w0"] = store.create(f"{prefix}.w0", xavier(rng, di, do))
            for b in range(NUM_RELATION_BUCKETS):
                self.p[f"rel{b}"] = store.create(f"{prefix}.rel{b}",
                                                 xavier(rng, di, do))
            self.p["b"] = store.create(f"{prefix}.b", np.zeros(do))

    # -- aggregate ----------------------------------------------------------

    def aggregate(self, states: T.Tensor, gt: GraphTensors) -> T.Tensor:
        fam = self.config.family
        if fam == "SAGE":
            agg = self.config.sage_aggregator
            if agg == "MEAN":
                return T.matmul(gt.mean_matrix, states)
            if agg == "SUM":
                return T.matmul(gt.sum_matrix, states)
            return T.neighbor_max(states, gt.in_mask)
        if fam == "GAT":
            heads = []
            for h in range(self.config.gat_heads):
                heads.append(self._gat_head(states, gt, h)[0])
            out = heads[0]
            for extra in heads[1:]:
                out = T.add(out, extra)
            return T.scale(out, 1.0 / len(heads))
        # RGCN: per-bucket normalized mean, linearly mapped, summed
        total = None
        for b, mat in enumerate(gt.bucket_matrices):
            if mat is None:
                continue
            term = T.matmul(T.matmul(mat, states), self.p[f"rel{b}"])
            total = term if total is None else T.add(total, term)
        if total is None:
            raise ValueError("graph produced no relation buckets")
        return total

    def _gat_head(self, states: T.Tensor, gt: GraphTensors, h: int):
        proj = T.matmul(states, self.p[f"w{h}"])  # (n, out)
        s_src = T.matmul(self.p[f"a_src{h}"], proj, transpose_a=True,
                         transpose_b=True)  # (1, n)
        s_dst = T.matmul(proj, self.p[f"a_dst{h}"])  # (n, 1)
        # row v, column u: score of edge u -> v
        logits = T.leaky_relu(T.add(s_dst, s_src), 0.2)
        alpha = T.softmax_last_dim(logits, mask=gt.in_mask)
        return T.matmul(alpha, proj), alpha

    def gat_attention_weights(self, states: T.Tensor,
                              gt: GraphTensors) -> list[np.ndarray]:
        """Per-head in-neighborhood attention matrices (diagnostics)."""
        with T.no_grad():
            return [self._gat_head(states, gt, h)[1].data
                    for h in range(self.config.gat_heads)]

    # -- combine ------------------------------------------------------------

    def combine(self, states: T.Tensor, messages: T.Tensor) -> T.Tensor:
        fam = self.config.family
        if fam == "SAGE":
            mixed = T.add(T.matmul(states, self.p["w_self"]),
                          T.matmul(messages, self.p["w_neigh"]))
            return T.relu(T.add(mixed, self.p["b"]))
        if fam == "GAT":
            return T.add(messages, states)
        return T.relu(T.add(T.add(T.matmul(states, self.p["w0"]), messages),
                            self.p["b"]))

    def forward(self, states: T.Tensor, gt: GraphTensors) -> T.Tensor:
        if self.config.identity_mode:
            return states
        return self.combine(states, self.aggregate(states, gt))
