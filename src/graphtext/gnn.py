"""Single-layer GNNs under a shared aggregate/combine split.

Three families: mean-neighborhood (SAGE, with MAX/SUM variants),
attention-weighted (GAT, heads averaged), and relation-typed (RGCN).
RGCN is SAGE with one neighbour channel per relation bucket (bucket =
base relation x direction): the per-bucket neighbour means sit side by
side and one weight maps them all, so SAGE and RGCN share one combine.

Neighborhoods are edge lists, built by :func:`graph_tensors` from the
graph's edge arrays: the distinct (source, target) node pairs for SAGE
and GAT, and the distinct (source, target, bucket) cells for RGCN, each
sorted by target and carrying its normalizing weight. A packed batch is
one disconnected graph: training joins its examples' edge arrays, each
example's node ids offset by its first row, and builds the batch's lists
once for every layer of the encoder; a decode builds its one example's.
Each family then aggregates the whole batch in one tape op over the edge
list (a segment sum, a segment max, or GAT's per-node softmax), with
relation buckets and GAT heads as tensor axes, so a forward of any family
is a fixed handful of tape ops whatever the batch, bucket or head count,
and no array has an entry per pair of nodes.
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


@dataclass(eq=False)
class GraphTensors:
    """A graph's neighborhoods as two edge lists, shared by all families.

    ``pairs`` (2, P) holds the distinct (source, target) node pairs joined
    by an edge of any type, sorted by target and then source, and
    ``pair_weight`` is 1 / each target's in-degree; self-loops give every
    node an in-edge and an out-edge. ``cells`` (2, C) holds the distinct
    (source, row) cells, where row = target * NUM_RELATION_BUCKETS +
    bucket, sorted by row and then source, and ``cell_weight`` is 1 / the
    number of cells in each row.
    """
    num_nodes: int
    pairs: np.ndarray
    pair_weight: np.ndarray
    cells: np.ndarray
    cell_weight: np.ndarray

    # Dense views, scattered from the edge lists on each access. No layer
    # reads them: the benchmark's tracer counts graph bytes through these
    # names, and they can go once its counter sums the arrays above
    # instead.

    @property
    def in_mask(self) -> np.ndarray:
        """(n, n): ``in_mask[v, u]`` is True when an edge u -> v exists."""
        mask = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
        mask[self.pairs[1], self.pairs[0]] = True
        return mask

    @property
    def mean_matrix(self) -> T.Tensor:
        """(n, n) in-degree-normalized adjacency."""
        mean = np.zeros((self.num_nodes, self.num_nodes))
        mean[self.pairs[1], self.pairs[0]] = self.pair_weight
        return T.Tensor(mean)

    @property
    def sum_matrix(self) -> T.Tensor:
        """(n, n) adjacency as 0/1 values."""
        return T.Tensor(self.in_mask)

    @property
    def relations(self) -> T.Tensor:
        """(n, NUM_RELATION_BUCKETS, n): ``relations[:, b]`` is bucket b's
        in-degree-normalized adjacency, zeros for an empty bucket."""
        n = self.num_nodes
        dense = np.zeros((n, NUM_RELATION_BUCKETS, n))
        dense.reshape(-1)[self.cells[1] * n + self.cells[0]] = self.cell_weight
        return T.Tensor(dense)

    @property
    def bucket_matrices(self) -> list[T.Tensor | None]:
        """Per-bucket views of ``relations``, None for an empty bucket."""
        return [T.Tensor(m) if m.any() else None
                for m in self.relations.data.swapaxes(0, 1)]


def _distinct_pairs(targets: np.ndarray, sources: np.ndarray,
                    n: int) -> np.ndarray:
    """The distinct (source, target) pairs as a (2, E) array sorted by
    target and then source; sorted by hand, as np.unique imports numpy.ma
    (1.3 MB), which ``test_no_command_imports_numpy_ma`` forbids."""
    keys = np.sort(targets * n + sources)
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    pairs = np.empty((2, len(keys)), dtype=keys.dtype)
    np.divmod(keys, n, out=(pairs[1], pairs[0]))
    return pairs


def graph_tensors(graph: HierGraph) -> GraphTensors:
    """The edge lists, deduplicated from the graph's edge arrays."""
    n = graph.num_nodes
    bucket = 2 * graph.rel + graph.reverse
    if (bucket >= NUM_RELATION_BUCKETS).any():  # only SELF x REVERSE
        raise ValueError("no relation bucket for SELF x REVERSE")
    pairs = _distinct_pairs(graph.dst, graph.src, n)
    degree = np.bincount(pairs[1], minlength=n)
    if not degree.all():
        raise ValueError("graph has a node with no incoming edge")
    cells = _distinct_pairs(graph.dst * NUM_RELATION_BUCKETS + bucket,
                            graph.src, n)
    return GraphTensors(
        num_nodes=n, pairs=pairs, pair_weight=1.0 / degree[pairs[1]],
        cells=cells, cell_weight=1.0 / np.bincount(cells[1])[cells[1]])


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


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
            heads = [(xavier(rng, di, do), xavier(rng, do, 1),
                      xavier(rng, do, 1))
                     for _ in range(config.gat_heads)]
            for name, arrays in zip(("w", "a_src", "a_dst"), zip(*heads)):
                self.p[name] = store.create(f"{prefix}.{name}", np.stack(arrays))
            return
        channels = NUM_RELATION_BUCKETS if config.family == "RGCN" else 1
        self.p["w_self"] = store.create(f"{prefix}.w_self", xavier(rng, di, do))
        # RGCN draws one block more than it keeps, so every later parameter
        # initializes as when SELF x REVERSE still had a weight
        drawn = [xavier(rng, di, do)
                 for _ in range(channels + (config.family == "RGCN"))]
        self.p["w_neigh"] = store.create(
            f"{prefix}.w_neigh", np.concatenate(drawn[:channels]))
        self.p["b"] = store.create(f"{prefix}.b", np.zeros(do))

    # -- aggregate ----------------------------------------------------------

    def aggregate(self, states: T.Tensor, g: GraphTensors) -> T.Tensor:
        """Messages for each row of ``states``. ``g`` is the graph of all
        the rows; a packed batch passes its examples' graphs joined into
        one."""
        if g.num_nodes != states.shape[0]:
            raise T.ShapeError(f"a graph of {g.num_nodes} nodes for"
                               f" {states.shape[0]} rows")
        fam = self.config.family
        if fam == "GAT":
            return self._gat(states, g)
        if fam == "RGCN":  # per-bucket neighbour means side by side
            return T.segment_sum(states, g.cells, g.cell_weight,
                                 channels=NUM_RELATION_BUCKETS)
        agg = self.config.sage_aggregator
        if agg == "MEAN":
            return T.segment_sum(states, g.pairs, g.pair_weight)
        if agg == "SUM":
            return T.segment_sum(states, g.pairs)
        return T.segment_max(states, g.pairs)

    def _gat(self, states: T.Tensor, g: GraphTensors) -> T.Tensor:
        """Head-averaged messages over in-neighbourhood attention."""
        proj = T.matmul(states, self.p["w"])  # (h, N, out)
        s_src = T.matmul(proj, self.p["a_src"])  # (h, N, 1)
        s_dst = T.matmul(proj, self.p["a_dst"])  # (h, N, 1)
        return T.neighbor_attention(s_dst, s_src, proj, g.pairs)

    # -- combine ------------------------------------------------------------

    def _combine(self, states: T.Tensor, messages: T.Tensor) -> T.Tensor:
        if self.config.family == "GAT":
            return T.add(messages, states)
        mixed = T.add(T.matmul(states, self.p["w_self"]),
                      T.matmul(messages, self.p["w_neigh"]))
        return T.relu(T.add(mixed, self.p["b"]))

    def forward(self, states: T.Tensor, g: GraphTensors) -> T.Tensor:
        """One aggregate+combine step over ``states``; ``g`` as in
        :meth:`aggregate`."""
        if self.config.identity_mode:
            return states
        return self._combine(states, self.aggregate(states, g))
