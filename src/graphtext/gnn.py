"""Single-layer GNNs under a shared aggregate/combine split.

Three families: mean-neighborhood (SAGE, with MAX/SUM variants),
attention-weighted (GAT, heads averaged), and relation-typed (RGCN).
RGCN is SAGE with one neighbour channel per relation bucket (bucket =
base relation x direction): the per-bucket neighbour means sit side by
side and one weight maps them all, so SAGE and RGCN share one combine.

Graphs are small (a few hundred nodes), so neighborhoods are dense
matrices built by :func:`graph_tensors`, which scatters the graph's edge
arrays into them rather than going edge by edge. A prepared training
item keeps only the edge arrays and builds these matrices when a batch
or a decode reads them, so they live for that batch alone. A layer runs
on the packed rows of a batch, one segment of rows per example: SAGE and
RGCN multiply each example's own matrices by its own rows inside one
tape op, GAT's attention weights each example's in-neighbours inside
one tape op, and relation buckets and GAT heads are tensor axes, so a
forward of any family is a fixed handful of tape ops whatever the batch,
bucket or head count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .graph import HierGraph, RelationType

FAMILIES = ("SAGE", "GAT", "RGCN")
SAGE_AGGREGATORS = ("MEAN", "MAX", "SUM")

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


@dataclass
class GraphTensors:
    """Dense neighborhood structure shared by all families.

    ``in_mask[v, u]`` is True when an edge u -> v of any type exists;
    self-loops guarantee every row is non-empty. ``relations[:, b]`` is
    the in-degree-normalized adjacency of bucket b, all zeros when the
    bucket has no edges; node-major, so that row v's buckets sit together.
    """
    num_nodes: int
    in_mask: np.ndarray
    mean_matrix: T.Tensor
    sum_matrix: T.Tensor
    relations: T.Tensor  # (n, NUM_RELATION_BUCKETS, n)

    @property
    def bucket_matrices(self) -> list[T.Tensor | None]:
        """Per-bucket views of ``relations`` (no copy), None for an empty
        bucket. No layer reads them: the benchmark's tracer counts graph
        bytes through this name, and it can go once the benchmark reads
        ``relations`` instead."""
        return [T.Tensor(m) if m.any() else None
                for m in self.relations.data.swapaxes(0, 1)]


def graph_tensors(graph: HierGraph) -> GraphTensors:
    """The dense arrays, scattered from the graph's edge arrays."""
    n = graph.num_nodes
    bucket = 2 * graph.rel + graph.reverse
    if (bucket >= NUM_RELATION_BUCKETS).any():  # only SELF x REVERSE
        raise ValueError("no relation bucket for SELF x REVERSE")
    adj = np.zeros((n, n), dtype=bool)
    adj[graph.dst, graph.src] = True
    if not adj.any(axis=1).all():
        raise ValueError("graph has a node with no incoming edge")
    deg = adj.sum(axis=1, keepdims=True).astype(np.float64)
    # the distinct (node, bucket, neighbour) cells, each 1 / its row's
    # count; sorted by hand, as np.unique imports numpy.ma (1.3 MB)
    cells = np.sort((graph.dst * NUM_RELATION_BUCKETS + bucket) * n
                    + graph.src)
    cells = cells[np.diff(cells, prepend=-1) != 0]
    rows = cells // n
    relations = np.zeros((n, NUM_RELATION_BUCKETS, n), dtype=np.float64)
    relations.reshape(-1)[cells] = 1.0 / np.bincount(rows)[rows]
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

    def aggregate(self, states: T.Tensor,
                  gt: GraphTensors | list[GraphTensors]) -> T.Tensor:
        """Messages for each row of ``states``. ``gt`` is one example's
        graph tensors, or a list of them for a packed batch: one per
        consecutive segment of rows."""
        gts = [gt] if isinstance(gt, GraphTensors) else gt
        fam = self.config.family
        if fam == "GAT":
            return self._gat(states, gts)
        if fam == "RGCN":  # per-bucket neighbour means side by side
            return T.segment_matmul([g.relations.data for g in gts], states)
        agg = self.config.sage_aggregator
        if agg == "MEAN":  # as one-channel stacks
            return T.segment_matmul([g.mean_matrix.data[:, None]
                                     for g in gts], states)
        if agg == "SUM":
            return T.segment_matmul([g.sum_matrix.data[:, None]
                                     for g in gts], states)
        return T.neighbor_max(states, [g.in_mask for g in gts])

    def _gat(self, states: T.Tensor, gts: list[GraphTensors]) -> T.Tensor:
        """Head-averaged messages over in-neighbourhood attention."""
        proj = T.matmul(states, self.p["w"])  # (h, N, out)
        s_src = T.matmul(self.p["a_src"], proj, transpose_a=True,
                         transpose_b=True)  # (h, 1, N)
        s_dst = T.matmul(proj, self.p["a_dst"])  # (h, N, 1)
        heads = T.neighbor_attention(s_dst, s_src, proj,
                                     [g.in_mask for g in gts])
        return T.scale(T.tsum(heads, axis=0), 1.0 / self.config.gat_heads)

    # -- combine ------------------------------------------------------------

    def _combine(self, states: T.Tensor, messages: T.Tensor) -> T.Tensor:
        if self.config.family == "GAT":
            return T.add(messages, states)
        mixed = T.add(T.matmul(states, self.p["w_self"]),
                      T.matmul(messages, self.p["w_neigh"]))
        return T.relu(T.add(mixed, self.p["b"]))

    def forward(self, states: T.Tensor,
                gt: GraphTensors | list[GraphTensors]) -> T.Tensor:
        """One aggregate+combine step over ``states``; ``gt`` as in
        :meth:`aggregate`."""
        if self.config.identity_mode:
            return states
        return self._combine(states, self.aggregate(states, gt))
