import importlib.util
from pathlib import Path

import numpy as np
import pytest

from graphtext import data as D
from graphtext import gnn as N
from graphtext import graph as G
from graphtext import tensor as T
from oracles import (bucket_index, edge_graph_tensors, finite_difference,
                     loop_gat_messages, mul, pack, recorded_nodes,
                     relative_error, tsum)

TOL = 1e-4


def graph_of(num_nodes, edges):
    """A hand-built graph: the edge arrays of a list of ``Edge``s."""
    return G.HierGraph(
        num_nodes, np.array([e.src for e in edges], dtype=np.intp),
        np.array([e.dst for e in edges], dtype=np.intp),
        np.array([G.RELATIONS.index(e.rel) for e in edges], dtype=np.intp),
        np.array([e.dir is G.Direction.REVERSE for e in edges], dtype=bool))


def tiny_graph():
    """Two nodes, one edge each way, self-loops."""
    edges = [G.Edge(0, 1, G.RelationType.R1, G.Direction.FORWARD),
             G.Edge(1, 0, G.RelationType.R1, G.Direction.REVERSE),
             G.Edge(0, 0, G.RelationType.SELF, G.Direction.FORWARD),
             G.Edge(1, 1, G.RelationType.SELF, G.Direction.FORWARD)]
    return graph_of(2, edges)


def iraq_graph():
    ex = D.Example([D.Triple("Iraq", "language", "Arabic")])
    inp = D.linearize(ex, D.DEFAULT_PROMPT, D.build_vocabulary([ex]))
    return G.build_graph(inp)


def make_layer(family, dim, rng_seed=0, **kw):
    cfg = N.GnnConfig(family=family, in_dim=dim, out_dim=dim, **kw)
    store = T.ParameterStore()
    layer = N.GnnLayer(cfg, store, "enc.0.gnn", np.random.default_rng(rng_seed))
    return layer, store


def test_sage_mean_messages():
    gt = N.graph_tensors(tiny_graph())
    layer, _ = make_layer("SAGE", 1)
    states = T.Tensor([[2.0], [4.0]])
    msgs = layer.aggregate(states, gt)
    assert np.allclose(msgs.data, [[3.0], [3.0]])


def test_sage_sum_and_max_aggregators():
    gt = N.graph_tensors(tiny_graph())
    states = T.Tensor([[2.0], [4.0]])
    layer_sum, _ = make_layer("SAGE", 1, sage_aggregator="SUM")
    assert np.allclose(layer_sum.aggregate(states, gt).data, [[6.0], [6.0]])
    layer_max, _ = make_layer("SAGE", 1, sage_aggregator="MAX")
    assert np.allclose(layer_max.aggregate(states, gt).data, [[4.0], [4.0]])


def test_gat_uniform_logits_reduce_to_mean():
    graph = iraq_graph()
    gt = N.graph_tensors(graph)
    layer, _ = make_layer("GAT", 3, gat_heads=1)
    layer.p["w"].data[0] = np.eye(3)
    layer.p["a_src"].data[:] = 0.0
    layer.p["a_dst"].data[:] = 0.0
    rng = np.random.default_rng(1)
    states = T.Tensor(rng.standard_normal((graph.num_nodes, 3)))
    msgs = layer.aggregate(states, gt)
    assert np.allclose(msgs.data, gt.mean_matrix.data @ states.data, atol=1e-12)


def test_gat_attention_rows_sum_to_one():
    """With identity values, ``neighbor_attention``'s output is its
    head-averaged weights: each row sums to one, and pairs joined by no
    edge, within or across the packed graphs, weigh exactly zero. A row
    with no in-edge, or an edge list of fewer rows, raises."""
    packed = pack([N.graph_tensors(g)
                   for g in (iraq_graph(), all_buckets_graph())])
    rows, heads = packed.num_nodes, 3
    rng = np.random.default_rng(2)
    s_dst = T.Tensor(rng.standard_normal((heads, rows, 1)))
    s_src = T.Tensor(rng.standard_normal((heads, rows, 1)))
    eye = T.Tensor(np.tile(np.eye(rows), (heads, 1, 1)))
    alphas = T.neighbor_attention(s_dst, s_src, eye, packed.pairs).data
    allowed = packed.in_mask
    assert alphas.shape == (rows, rows)
    assert np.allclose(alphas.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(alphas[~allowed] == 0.0)
    assert np.all(alphas[allowed] > 0.0)
    lonely = packed.pairs[:, packed.pairs[1] != 1]  # row 1 loses its in-edges
    with pytest.raises(T.ShapeError):
        T.neighbor_attention(s_dst, s_src, eye, lonely)
    with pytest.raises(T.ShapeError):  # the first graph's rows only
        T.neighbor_attention(s_dst, s_src, eye,
                             N.graph_tensors(iraq_graph()).pairs)


def test_gat_matches_loop_oracle_on_a_packed_batch():
    """GAT's aggregate over two packed graphs equals the edge-by-edge,
    node-by-node, head-by-head re-derivation."""
    graphs = [iraq_graph(), all_buckets_graph()]
    layer, _ = make_layer("GAT", 5, rng_seed=9, gat_heads=3)
    rows = sum(g.num_nodes for g in graphs)
    states = np.random.default_rng(10).standard_normal((rows, 5))
    got = layer.aggregate(T.Tensor(states),
                          pack([N.graph_tensors(g) for g in graphs])).data
    want = loop_gat_messages(states, graphs, *(layer.p[k].data
                                               for k in ("w", "a_src", "a_dst")))
    assert relative_error(got, want) <= 1e-12


def bucket_means(states, graph):
    """Loop-based per-bucket in-neighbour means, (bucket, node, feature);
    zero for a node with no in-edge in the bucket."""
    means = np.zeros((N.NUM_RELATION_BUCKETS,) + states.shape)
    for b in range(N.NUM_RELATION_BUCKETS):
        for v in range(graph.num_nodes):
            nbrs = [e.src for e in graph.edges
                    if e.dst == v and bucket_index(e.rel, e.dir) == b]
            if nbrs:
                means[b, v] = np.mean([states[u] for u in nbrs], axis=0)
    return means


def rgcn_oracle(states, graph, layer):
    """Loop-based re-derivation of the typed message pass: one weight block
    per bucket, applied to that bucket's neighbour mean."""
    d_in = layer.config.in_dim
    w_neigh = layer.p["w_neigh"].data
    msgs = sum(mean @ w_neigh[b * d_in:(b + 1) * d_in]
               for b, mean in enumerate(bucket_means(states, graph)))
    pre = states @ layer.p["w_self"].data + msgs + layer.p["b"].data
    return np.maximum(pre, 0.0)


def test_rgcn_matches_loop_oracle():
    graph = iraq_graph()
    gt = N.graph_tensors(graph)
    layer, _ = make_layer("RGCN", 5, rng_seed=3)
    layer.p["b"].data = np.random.default_rng(4).standard_normal(5) * 0.1
    rng = np.random.default_rng(5)
    states = rng.standard_normal((graph.num_nodes, 5))
    got = layer.forward(T.Tensor(states), gt)
    assert np.allclose(got.data, rgcn_oracle(states, graph, layer), atol=1e-12)


def test_rgcn_identity_weights_sum_bucket_means():
    """Messages are the bucket means side by side, so identity weight
    blocks sum them."""
    graph = tiny_graph()
    gt = N.graph_tensors(graph)
    layer, _ = make_layer("RGCN", 2)
    layer.p["w_neigh"].data = np.tile(np.eye(2), (N.NUM_RELATION_BUCKETS, 1))
    states = np.random.default_rng(6).standard_normal((2, 2))
    msgs = layer.aggregate(T.Tensor(states), gt)
    means = bucket_means(states, graph)
    assert np.allclose(msgs.data, np.concatenate(means, axis=1), atol=1e-12)
    assert np.allclose(msgs.data @ layer.p["w_neigh"].data, means.sum(axis=0),
                       atol=1e-12)


def all_buckets_graph():
    """Shared entities and multi-token spans: every bucket has an edge."""
    ex = D.Example([D.Triple("New Italy", "capital city", "Old Rome"),
                    D.Triple("Old Rome", "population", "2873000")])
    inp = D.linearize(ex, D.DEFAULT_PROMPT, D.build_vocabulary([ex]))
    return G.build_graph(inp)


def duplicate_pair_graph():
    """A relation string equal to an entity string: R2 and R5 then join
    the same markers, so a (source, target) pair carries two relations."""
    ex = D.Example([D.Triple("Rome", "Rome", "Italy")])
    inp = D.linearize(ex, D.DEFAULT_PROMPT, D.build_vocabulary([ex]))
    return G.build_graph(inp)


def dense_messages(states, graph, layer):
    """A family's messages from ``oracles.edge_graph_tensors``' dense
    arrays, filled edge by edge, or GAT's loop re-derivation."""
    if layer.config.family == "GAT":
        return loop_gat_messages(states, [graph], *(
            layer.p[k].data for k in ("w", "a_src", "a_dst")))
    dense = edge_graph_tensors(graph.num_nodes, graph.edges)
    if layer.config.family == "RGCN":
        n = graph.num_nodes
        return (dense["relations"].reshape(-1, n) @ states).reshape(n, -1)
    agg = layer.config.sage_aggregator
    if agg == "MAX":
        return np.where(dense["in_mask"][:, :, None], states[None],
                        -np.inf).max(axis=1)
    return dense["mean_matrix" if agg == "MEAN" else "sum_matrix"] @ states


@pytest.mark.parametrize("family,kw", [
    ("SAGE", {}),
    ("SAGE", {"sage_aggregator": "SUM"}),
    ("SAGE", {"sage_aggregator": "MAX"}),
    ("GAT", {"gat_heads": 3}),
    ("RGCN", {}),
])
def test_duplicate_pairs_match_the_dense_oracle_on_a_packed_batch(family, kw):
    """A pair joined by two relations is one neighbour to SAGE and GAT and
    one in each of its buckets to RGCN: every family's packed edge-list
    path equals the dense oracle of each graph alone."""
    graphs = [iraq_graph(), duplicate_pair_graph(), all_buckets_graph()]
    dup = N.graph_tensors(graphs[1])
    assert len(graphs[1].src) - dup.pairs.shape[1] == 2
    assert dup.cells.shape[1] == len(graphs[1].src)
    assert dup.sum_matrix.data.max() == 1.0
    layer, _ = make_layer(family, 4, rng_seed=17, **kw)
    rows = sum(g.num_nodes for g in graphs)
    states = np.random.default_rng(18).standard_normal((rows, 4))
    got = layer.aggregate(T.Tensor(states),
                          pack([N.graph_tensors(g) for g in graphs])).data
    start = 0
    for graph in graphs:
        part = slice(start, start + graph.num_nodes)
        want = dense_messages(states[part], graph, layer)
        assert relative_error(got[part], want) <= 1e-12, family
        start += graph.num_nodes


@pytest.mark.parametrize("bidirectional", [True, False])
def test_rgcn_tape_size_does_not_grow_with_buckets(bidirectional):
    graph = all_buckets_graph()
    if not bidirectional:
        graph = graph_of(graph.num_nodes, [e for e in graph.edges
                                           if e.dir is G.Direction.FORWARD])
    gt = N.graph_tensors(graph)
    filled = sum(m is not None for m in gt.bucket_matrices)
    assert filled == (N.NUM_RELATION_BUCKETS if bidirectional else 6)
    layer, _ = make_layer("RGCN", 4)
    states = T.Tensor(np.random.default_rng(15).standard_normal(
        (graph.num_nodes, 4)), requires_grad=True)
    assert recorded_nodes(layer.forward(states, gt)) == 6


@pytest.mark.parametrize("heads", [1, 2, 4, 8])
def test_gat_tape_size_does_not_grow_with_heads(heads):
    graph = iraq_graph()
    gt = N.graph_tensors(graph)
    layer, _ = make_layer("GAT", 4, gat_heads=heads)
    states = T.Tensor(np.random.default_rng(16).standard_normal(
        (graph.num_nodes, 4)), requires_grad=True)
    # three matmuls (projection and both scores), neighbor_attention with
    # its head mean, and the combine's add
    assert recorded_nodes(layer.forward(states, gt)) == 5


def test_identity_mode_is_exact_and_parameter_free():
    cfg = N.GnnConfig(family="SAGE", in_dim=4, out_dim=4, identity_mode=True)
    store = T.ParameterStore()
    layer = N.GnnLayer(cfg, store, "enc.0.gnn", np.random.default_rng(0))
    assert store.names() == []
    gt = N.graph_tensors(tiny_graph())
    states = T.Tensor(np.random.default_rng(7).standard_normal((2, 4)))
    assert layer.forward(states, gt) is states


def test_sage_parameter_choice_identity():
    layer, _ = make_layer("SAGE", 3)
    layer.p["w_self"].data = np.eye(3)
    layer.p["w_neigh"].data = np.zeros((3, 3))
    layer.p["b"].data = np.zeros(3)
    gt = N.graph_tensors(tiny_graph())
    states = np.abs(np.random.default_rng(8).standard_normal((2, 3))) + 0.1
    out = layer.forward(T.Tensor(states), gt)
    assert np.array_equal(out.data, states)


@pytest.mark.parametrize("family,kw", [
    ("SAGE", {}),
    ("SAGE", {"sage_aggregator": "SUM"}),
    ("SAGE", {"sage_aggregator": "MAX"}),
    ("GAT", {"gat_heads": 2}),
    ("RGCN", {}),
])
def test_gradients_vs_finite_differences(family, kw):
    graph = iraq_graph()
    gt = N.graph_tensors(graph)
    dim = 3
    layer, store = make_layer(family, dim, rng_seed=9, **kw)
    rng = np.random.default_rng(10)
    states = T.Tensor(rng.standard_normal((graph.num_nodes, dim)),
                      requires_grad=True)
    probe = T.Tensor(rng.standard_normal((graph.num_nodes, dim)))

    def build_loss():
        return tsum(mul(layer.forward(states, gt), probe))

    loss = build_loss()
    T.backward(loss)
    tensors = [states] + [layer.p[k] for k in sorted(layer.p)]
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    numeric = finite_difference(lambda: build_loss().item(),
                                [t.data for t in tensors])
    for name, a, n in zip(["states"] + sorted(layer.p), analytic, numeric):
        assert relative_error(a, n) <= TOL, f"{family} {name}"
    for t in tensors:
        t.zero_grad()


def permute_graph(graph, perm):
    edges = [G.Edge(int(perm[e.src]), int(perm[e.dst]), e.rel, e.dir)
             for e in graph.edges]
    return graph_of(graph.num_nodes, edges)


@pytest.mark.parametrize("family,kw", [("SAGE", {}), ("GAT", {"gat_heads": 2}),
                                       ("RGCN", {})])
def test_permutation_equivariance(family, kw):
    graph = iraq_graph()
    n = graph.num_nodes
    gt = N.graph_tensors(graph)
    layer, _ = make_layer(family, 4, rng_seed=11, **kw)
    rng = np.random.default_rng(12)
    states = rng.standard_normal((n, 4))
    base = layer.forward(T.Tensor(states), gt).data

    perm = rng.permutation(n)
    gt_p = N.graph_tensors(permute_graph(graph, perm))
    permuted_states = np.empty_like(states)
    permuted_states[perm] = states
    out_p = layer.forward(T.Tensor(permuted_states), gt_p).data
    expected = np.empty_like(base)
    expected[perm] = base
    assert np.allclose(out_p, expected, atol=1e-10)


def test_locality_of_perturbation():
    graph = iraq_graph()
    gt = N.graph_tensors(graph)
    layer, _ = make_layer("SAGE", 3, rng_seed=13)
    rng = np.random.default_rng(14)
    states = rng.standard_normal((graph.num_nodes, 3))
    base = layer.forward(T.Tensor(states), gt).data
    u = 6  # a marker token with several out-edges
    bumped = states.copy()
    bumped[u] += 0.5
    out = layer.forward(T.Tensor(bumped), gt).data
    changed = {i for i in range(graph.num_nodes)
               if not np.allclose(out[i], base[i])}
    reachable = {e.dst for e in graph.edges if e.src == u} | {u}
    assert changed <= reachable


def test_graph_tensors_requires_covered_rows():
    edges = [G.Edge(0, 0, G.RelationType.SELF, G.Direction.FORWARD)]
    bad = graph_of(2, edges)  # node 1 has no in-edge
    with pytest.raises(ValueError):
        N.graph_tensors(bad)


def test_self_loops_have_no_reverse_bucket():
    edges = [G.Edge(0, 0, G.RelationType.SELF, G.Direction.FORWARD),
             G.Edge(0, 0, G.RelationType.SELF, G.Direction.REVERSE)]
    with pytest.raises(ValueError):
        N.graph_tensors(graph_of(1, edges))


def test_benchmark_tracer_counts_graph_tensors():
    """The benchmark's tracer reads edge counts and graph-tensor bytes off
    these return values; a GraphTensors change that breaks its counters
    fails here, not only in a traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    build = tracer.wrap("graph.build_graph", G.build_graph)
    tensors = tracer.wrap("gnn.graph_tensors", N.graph_tensors)
    ex = D.Example([D.Triple("Iraq", "language", "Arabic")])
    gt = tensors(build(D.linearize(ex, D.DEFAULT_PROMPT,
                                   D.build_vocabulary([ex]))))
    assert tracer.counts["graph.edges"] > 0
    filled = sum(m is not None for m in gt.bucket_matrices)
    n = gt.num_nodes
    assert tracer.counts["gnn.tensor_bytes"] == n * n * (1 + 8 * (2 + filled))


def test_config_validation():
    with pytest.raises(ValueError):
        N.GnnConfig(family="MLP")
    with pytest.raises(ValueError):
        N.GnnConfig(sage_aggregator="MEDIAN")
    cfg = N.GnnConfig(family="sage", sage_aggregator="sum")
    assert cfg.family == "SAGE" and cfg.sage_aggregator == "SUM"
