"""Single-layer GNNs under a shared aggregate/combine split.

Three families: mean-neighborhood (SAGE, with MAX/SUM variants),
attention-weighted (GAT, heads averaged), and relation-typed (RGCN).
RGCN is SAGE with one neighbour channel per relation bucket (bucket =
base relation x direction): the per-bucket neighbour means sit side by
side and one weight maps them all, so SAGE and RGCN share one combine.

Graphs are small (a few hundred nodes), so neighborhoods are dense
matrices precomputed once per example by :func:`graph_tensors`; relation
buckets and GAT heads are leading tensor axes, so a layer forward is a
fixed handful of tape ops whatever the bucket or head count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .graph import Direction, HierGraph, RelationType

FAMILIES = ("SAGE", "GAT", "RGCN")
SAGE_AGGREGATORS = ("MEAN", "MAX", "SUM")

_REL_ORDER = {r: i for i, r in enumerate(RelationType)}
# each relation in each direction, except SELF, whose loops are only forward
NUM_RELATION_BUCKETS = 2 * len(RelationType) - 1


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
    b = 2 * _REL_ORDER[rel] + (direction is Direction.REVERSE)
    if b >= NUM_RELATION_BUCKETS:
        raise ValueError(f"no relation bucket for {rel.name} x {direction.name}")
    return b


@dataclass
class GraphTensors:
    """Dense neighborhood structure shared by all families.

    ``in_mask[v, u]`` is True when an edge u -> v of any type exists;
    self-loops guarantee every row is non-empty. ``relations[b]`` is the
    in-degree-normalized adjacency of bucket b, all zeros when the bucket
    has no edges.
    """
    num_nodes: int
    in_mask: np.ndarray
    mean_matrix: T.Tensor
    sum_matrix: T.Tensor
    relations: T.Tensor  # (NUM_RELATION_BUCKETS, n, n)

    @property
    def bucket_matrices(self) -> list[T.Tensor | None]:
        """Per-bucket views of ``relations`` (no copy), None for an empty
        bucket. No layer reads them: the benchmark's tracer counts graph
        bytes through this name, and it can go once the benchmark reads
        ``relations`` instead."""
        return [T.Tensor(m) if m.any() else None for m in self.relations.data]


def graph_tensors(graph: HierGraph) -> GraphTensors:
    n = graph.num_nodes
    adj = np.zeros((n, n), dtype=bool)
    relations = np.zeros((NUM_RELATION_BUCKETS, n, n), dtype=np.float64)
    for e in graph.edges:
        adj[e.dst, e.src] = True
        relations[bucket_index(e.rel, e.dir), e.dst, e.src] = 1.0
    if not adj.any(axis=1).all():
        raise ValueError("graph has a node with no incoming edge")
    deg = adj.sum(axis=1, keepdims=True).astype(np.float64)
    bucket_deg = relations.sum(axis=2, keepdims=True)
    np.divide(relations, bucket_deg, out=relations, where=bucket_deg > 0)
    return GraphTensors(num_nodes=n, in_mask=adj,
                        mean_matrix=T.Tensor(adj / deg),
                        sum_matrix=T.Tensor(adj.astype(np.float64)),
                        relations=T.Tensor(relations))


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
        if config.family == "GAT":
            # drawn head by head, then stacked on a leading head axis
            heads = [(xavier(rng, di, do), xavier(rng, do, 1, shape=(do, 1)),
                      xavier(rng, do, 1, shape=(do, 1)))
                     for _ in range(config.gat_heads)]
            for name, arrays in zip(("w", "a_src", "a_dst"), zip(*heads)):
                self.p[name] = store.create(f"{prefix}.{name}", np.stack(arrays))
            return
        channels = NUM_RELATION_BUCKETS if config.family == "RGCN" else 1
        self.p["w_self"] = store.create(f"{prefix}.w_self", xavier(rng, di, do))
        # RGCN draws one block more than it keeps, so every later parameter
        # initializes as when SELF x REVERSE still had a weight
        drawn = xavier(rng, di, do,
                       shape=(channels + (config.family == "RGCN"), di, do))
        self.p["w_neigh"] = store.create(
            f"{prefix}.w_neigh", drawn[:channels].reshape(channels * di, do))
        self.p["b"] = store.create(f"{prefix}.b", np.zeros(do))

    # -- aggregate ----------------------------------------------------------

    def aggregate(self, states: T.Tensor, gt: GraphTensors) -> T.Tensor:
        fam = self.config.family
        if fam == "GAT":
            return self._gat(states, gt)[0]
        if fam == "RGCN":  # per-bucket neighbour means side by side
            return T.merge_heads(T.matmul(gt.relations, states))
        agg = self.config.sage_aggregator
        if agg == "MEAN":
            return T.matmul(gt.mean_matrix, states)
        if agg == "SUM":
            return T.matmul(gt.sum_matrix, states)
        return T.neighbor_max(states, gt.in_mask)

    def _gat(self, states: T.Tensor, gt: GraphTensors):
        """Head-averaged messages and the (head, n, n) attention weights."""
        proj = T.matmul(states, self.p["w"])  # (h, n, out)
        s_src = T.matmul(self.p["a_src"], proj, transpose_a=True,
                         transpose_b=True)  # (h, 1, n)
        s_dst = T.matmul(proj, self.p["a_dst"])  # (h, n, 1)
        # row v, column u: score of edge u -> v
        logits = T.leaky_relu(T.add(s_dst, s_src), 0.2)
        alpha = T.softmax_last_dim(logits, mask=gt.in_mask)
        heads = T.matmul(alpha, proj)
        return T.scale(T.tsum(heads, axis=0), 1.0 / self.config.gat_heads), alpha

    def gat_attention_weights(self, states: T.Tensor,
                              gt: GraphTensors) -> np.ndarray:
        """(head, n, n) in-neighborhood attention weights (diagnostics)."""
        with T.no_grad():
            return self._gat(states, gt)[1].data

    # -- combine ------------------------------------------------------------

    def combine(self, states: T.Tensor, messages: T.Tensor) -> T.Tensor:
        if self.config.family == "GAT":
            return T.add(messages, states)
        mixed = T.add(T.matmul(states, self.p["w_self"]),
                      T.matmul(messages, self.p["w_neigh"]))
        return T.relu(T.add(mixed, self.p["b"]))

    def forward(self, states: T.Tensor, gt: GraphTensors) -> T.Tensor:
        if self.config.identity_mode:
            return states
        return self.combine(states, self.aggregate(states, gt))
