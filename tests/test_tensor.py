import ast
import gc
import os
import pathlib
import struct
import subprocess
import sys
import weakref
import zlib

import numpy as np
import pytest

from graphtext import tensor as T
from oracles import (ReferenceAdam, finite_difference, mul,
                     reference_attention, reference_cross_entropy,
                     reference_layer_norm, reference_softmax, relative_error,
                     tsum)

TOL = 1e-4


def leaf(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True)


def fd_check(build_loss, tensors):
    """Compare tape gradients of build_loss() against central differences."""
    loss = build_loss()
    T.backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    numeric = finite_difference(lambda: build_loss().item(),
                                [t.data for t in tensors])
    for a, n in zip(analytic, numeric):
        assert relative_error(a, n) <= TOL
    for t in tensors:
        t.zero_grad()


def test_add_broadcast_grads():
    rng = np.random.default_rng(0)
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4)
    fd_check(lambda: tsum(mul(T.add(a, b), T.add(a, b))), [a, b])


def test_mul_broadcast_grads():
    rng = np.random.default_rng(1)
    a = leaf(rng, 2, 5)
    b = leaf(rng, 1, 5)
    fd_check(lambda: tsum(mul(a, b)), [a, b])


def test_shape_mismatch_raises():
    a = T.Tensor(np.zeros((2, 3)))
    b = T.Tensor(np.zeros((4, 5)))
    with pytest.raises(T.ShapeError):
        T.add(a, b)
    with pytest.raises(T.ShapeError):
        T.matmul(a, b)
    with pytest.raises(T.ShapeError):  # batch dims 2 and 3 do not broadcast
        T.matmul(T.Tensor(np.zeros((2, 4, 3))), T.Tensor(np.zeros((3, 3, 5))))
    with pytest.raises(T.ShapeError):  # 6 columns do not split into 4 heads
        x = T.Tensor(np.zeros((2, 6)))
        T.attention(x, x, x, 4)


@pytest.mark.parametrize("tb", [False, True])
def test_matmul_transpose_grads(tb):
    rng = np.random.default_rng(2)
    a = leaf(rng, 3, 4)
    b = leaf(rng, *( (5, 4) if tb else (4, 5) ))
    w = T.Tensor(rng.standard_normal((3, 5)))
    fd_check(lambda: tsum(mul(T.matmul(a, b, tb), w)), [a, b])


def test_merge_heads_over_leading_axes():
    """With leading axes each slice merges as a 3-D operand does, and the
    gradients match central differences."""
    rng = np.random.default_rng(3)
    b = leaf(rng, 2, 3, 4, 5)
    merged = T.merge_heads(b)
    assert merged.shape == (2, 4, 15)
    for i in range(2):
        assert np.array_equal(merged.data[i],
                              T.merge_heads(T.Tensor(b.data[i])).data)
    w_merge = T.Tensor(rng.standard_normal((2, 4, 15)))
    fd_check(lambda: tsum(mul(T.merge_heads(b), w_merge)), [b])


def test_matmul_folds_leading_axes_against_a_matrix():
    """A (rows, t, d) operand against a 2-D one gives each row's own
    product, and gradients match central differences."""
    rng = np.random.default_rng(4)
    a = leaf(rng, 3, 2, 4)
    b = leaf(rng, 5, 4)
    out = T.matmul(a, b, transpose_b=True)
    for i in range(3):
        assert np.allclose(out.data[i], a.data[i] @ b.data.T, atol=1e-12)
    w = T.Tensor(rng.standard_normal((3, 2, 5)))
    fd_check(lambda: tsum(mul(T.matmul(a, b, transpose_b=True), w)),
             [a, b])


def edges_of(mask, first=0):
    """The (source, target) edge list of a mask whose ``mask[v, u]`` marks
    an edge u -> v, sorted by target, with node ids offset by ``first``."""
    dst, src = np.nonzero(mask)
    return np.stack((src, dst)) + first


def test_packed_ops_match_each_segment_alone():
    """Each segment op on packed rows equals the op run on every segment
    alone, and nothing crosses a segment boundary."""
    rng = np.random.default_rng(11)
    sizes = [3, 1, 4]
    x = T.Tensor(rng.standard_normal((8, 6)))
    bounds = np.cumsum([0] + sizes)
    parts = [x.data[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    masks = [(rng.random((n, n)) > 0.5) | np.eye(n, dtype=bool) for n in sizes]
    weights = [rng.standard_normal(m.sum()) for m in masks]
    edges = np.concatenate([edges_of(m, lo) for m, lo in zip(masks, bounds)],
                           axis=1)
    weight = np.concatenate(weights)
    got = T.segment_sum(x, edges, weight).data
    want = [T.segment_sum(T.Tensor(p), edges_of(m), w).data
            for m, p, w in zip(masks, parts, weights)]
    assert np.array_equal(got, np.concatenate(want))
    dense = [np.zeros(m.shape) for m in masks]
    for d, m, w in zip(dense, masks, weights):
        d[m] = w
    want = np.concatenate([d @ p for d, p in zip(dense, parts)])
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    # two channels: edge e feeds cell 2 * target + channel
    channel = rng.integers(0, 2, len(weight))
    cells = np.stack((edges[0], 2 * edges[1] + channel))
    order = np.argsort(cells[1], kind="stable")
    got = T.segment_sum(x, cells[:, order], weight[order], channels=2).data
    want = np.zeros((8, 2, 6))
    np.add.at(want, (edges[1], channel), weight[:, None] * x.data[edges[0]])
    assert np.allclose(got, want.reshape(8, 12), rtol=0, atol=1e-12)
    got = T.segment_max(x, edges).data
    want = [T.segment_max(T.Tensor(p), edges_of(m)).data
            for m, p in zip(masks, parts)]
    assert np.array_equal(got, np.concatenate(want))
    heads, segs = 2, [(n, n) for n in sizes]
    got = T.attention(x, x, x, heads, segs, causal=True)
    for lo, hi in zip(bounds, bounds[1:]):
        one = T.Tensor(x.data[lo:hi])
        alone = T.attention(one, one, one, heads, [(hi - lo,) * 2],
                            causal=True)
        assert np.allclose(got.data[lo:hi], alone.data, atol=1e-12)
    assert np.array_equal(np.concatenate(parts), x.data)
    vals = T.Tensor(rng.standard_normal((2, 8, 6)))
    s_dst, s_src = (T.Tensor(rng.standard_normal(shape))
                    for shape in ((2, 8, 1), (2, 8, 1)))
    got = T.neighbor_attention(s_dst, s_src, vals, edges).data
    for lo, hi, m in zip(bounds, bounds[1:], masks):
        alone = T.neighbor_attention(
            T.Tensor(s_dst.data[:, lo:hi]), T.Tensor(s_src.data[:, lo:hi]),
            T.Tensor(vals.data[:, lo:hi]), edges_of(m))
        assert np.array_equal(got[lo:hi], alone.data)
    with pytest.raises(T.ShapeError):  # the edges of more rows than x has
        T.segment_sum(T.Tensor(x.data[:4]), edges)
    with pytest.raises(T.ShapeError):  # the last segment's rows uncovered
        T.segment_max(x, edges[:, :-masks[-1].sum()])
    with pytest.raises(T.ShapeError):
        T.neighbor_attention(s_dst, s_src, vals, edges[:, :-masks[-1].sum()])
    with pytest.raises(T.ShapeError):
        T.attention(x, x, x, heads, segs[:2])


def test_attention_broadcasts_leading_axes():
    """Without segments, leading axes of the queries broadcast against
    un-batched keys and values: row i attends as if alone."""
    rng = np.random.default_rng(12)
    q = leaf(rng, 3, 1, 4)
    k, v = leaf(rng, 5, 4), leaf(rng, 5, 4)
    out = T.attention(q, k, v, 2)
    assert out.shape == (3, 1, 4)
    for i in range(3):
        alone = T.attention(T.Tensor(q.data[i]), k, v, 2)
        assert np.allclose(out.data[i], alone.data, atol=1e-12)
    g = T.Tensor(rng.standard_normal((3, 1, 4)))
    fd_check(lambda: tsum(mul(T.attention(q, k, v, 2), g)), [q, k, v])


def test_segment_ops_match_dense_references_and_grads():
    """``segment_sum`` equals the weighted adjacency product with empty
    cells zero, and ``segment_max`` a masked max whose gradient goes to the
    lowest source row on a tie; both pass central differences."""
    rng = np.random.default_rng(12)
    mask = np.array([[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0], [0, 1, 0, 1]],
                    dtype=bool)
    edges = edges_of(mask)
    weight = rng.standard_normal(len(edges[0]))
    x = leaf(rng, 4, 3)
    dense = np.zeros((4, 4))
    dense[mask] = weight
    assert np.allclose(T.segment_sum(x, edges, weight).data, dense @ x.data,
                       rtol=0, atol=1e-12)
    assert np.allclose(T.segment_sum(x, edges).data, mask @ x.data,
                       rtol=0, atol=1e-12)
    # three channels, only channel 1 filled: channels 0 and 2 are zeros
    got = T.segment_sum(x, (edges[0], 3 * edges[1] + 1), weight, channels=3)
    assert got.shape == (4, 9)
    assert np.array_equal(got.data[:, :3], np.zeros((4, 3)))
    assert np.array_equal(got.data[:, 6:], np.zeros((4, 3)))
    assert np.allclose(got.data[:, 3:6], dense @ x.data, rtol=0, atol=1e-12)
    w = T.Tensor(rng.standard_normal((4, 9)))
    fd_check(lambda: tsum(mul(T.segment_sum(
        x, (edges[0], 3 * edges[1] + 1), weight, channels=3), w)), [x])
    # distinct values per column keep the max clear of ties
    x2 = T.Tensor(np.arange(12.0).reshape(4, 3) * 0.5
                  + rng.uniform(0.0, 0.2, (4, 3)), requires_grad=True)
    want = np.where(mask[:, :, None], x2.data[None], -np.inf).max(axis=1)
    assert np.array_equal(T.segment_max(x2, edges).data, want)
    w = T.Tensor(rng.standard_normal((4, 3)))
    fd_check(lambda: tsum(mul(T.segment_max(x2, edges), w)), [x2])
    tied = T.Tensor(np.array([[1.0, 5.0], [3.0, 2.0], [0.0, 5.0], [3.0, 3.0]]),
                    requires_grad=True)
    T.backward(tsum(T.segment_max(tied, edges)))
    # ties: rows 1 and 3 in column 0 for targets 0 and 3, rows 0 and 2
    # in column 1 for target 2; the lowest source row takes each
    assert np.array_equal(tied.grad, [[1.0, 2.0], [3.0, 0.0], [0.0, 1.0],
                                      [0.0, 1.0]])


@pytest.mark.parametrize("op", ["segment_sum", "segment_max",
                                "neighbor_attention"])
def test_edge_ops_reject_bad_edge_lists(op):
    """A node id out of range, edge arrays of unequal length and edges not
    sorted by target raise ``ShapeError``; so does a row with no in-edge,
    for the ops that need every row to have one."""
    rng = np.random.default_rng(13)
    x = T.Tensor(rng.standard_normal((3, 2)))
    scores = (T.Tensor(rng.standard_normal((2, 3, 1))),
              T.Tensor(rng.standard_normal((2, 3, 1))))
    values = T.Tensor(rng.standard_normal((2, 3, 2)))

    def run(edges):
        if op == "neighbor_attention":
            return T.neighbor_attention(*scores, values, edges)
        return getattr(T, op)(x, edges)

    good = np.array([[0, 1, 1, 2], [0, 0, 1, 2]])
    assert run(good).shape == (3, 2)
    bad = [np.array([[0, 3], [0, 1]]),          # source 3 of 3 rows
           np.array([[0, 1], [0, -1]]),         # a negative target
           (np.array([0, 1, 2]), np.array([0, 1])),  # unequal lengths
           np.array([[0, 1, 2], [0, 0, 1, 2]], dtype=object),
           np.array([[1, 0, 2], [1, 0, 2]])]    # not sorted by target
    for edges in bad:
        with pytest.raises(T.ShapeError):
            run(edges)
    no_in_edge = np.array([[0, 1], [0, 2]])  # row 1 has no in-edge
    if op == "segment_sum":  # its row is zero
        assert np.array_equal(run(no_in_edge).data[1], [0.0, 0.0])
    else:
        with pytest.raises(T.ShapeError):
            run(no_in_edge)


@pytest.mark.parametrize("segments,causal,q_shape", [
    ([(2, 2), (3, 3), (4, 4)], True, (9, 8)),   # packed decoder self-attention
    ([(2, 3), (3, 5), (4, 2)], False, (9, 8)),  # packed cross-attention
    (None, False, (3, 1, 8)),                   # broadcast leading axes
])
def test_in_place_attention_is_bit_identical_to_reference(segments, causal,
                                                         q_shape):
    """The softmax and its backward are built in place; the output and
    the gradients equal the out-of-place expressions bit for bit."""
    rng = np.random.default_rng(31)
    k_rows = 9 if segments is None else sum(b for _, b in segments)
    q, k, v = leaf(rng, *q_shape), leaf(rng, k_rows, 8), leaf(rng, k_rows, 8)
    g = rng.standard_normal(q_shape)
    out = T.attention(q, k, v, 2, segments, causal=causal)
    T.backward(tsum(mul(out, T.Tensor(g))))
    ref_out, ref_grads = reference_attention(
        q.data, k.data, v.data, 2, segments, causal, g)
    assert np.array_equal(out.data, ref_out)
    for t, ref in zip((q, k, v), ref_grads):
        assert np.array_equal(t.grad, ref)


@pytest.mark.parametrize("shape", [(1, 64), (4, 1, 64), (13, 64), (250, 64),
                                   (471, 64), (7, 16), (3, 5, 8)])
def test_lean_layer_norm_is_bit_identical_to_reference(shape):
    """Row means are sums then one division, and the steps reuse their
    buffers; the output and all three gradients equal the
    ``ndarray.mean`` expressions bit for bit."""
    rng = np.random.default_rng(35)
    d = shape[-1]
    for offset, spread in [(0.0, 1.0), (3.0, 0.1), (-20.0, 7.0), (1e3, 1e-3)]:
        x = T.Tensor(offset + spread * rng.standard_normal(shape),
                     requires_grad=True)
        gain = T.Tensor(1.0 + rng.standard_normal(d), requires_grad=True)
        bias = leaf(rng, d)
        g = rng.standard_normal(shape)
        out = T.layer_norm(x, gain, bias)
        T.backward(tsum(mul(out, T.Tensor(g))))
        ref_out, ref_grads = reference_layer_norm(x.data, gain.data,
                                                  bias.data, g)
        assert np.array_equal(out.data, ref_out), (offset, spread)
        for t, ref in zip((x, gain, bias), ref_grads):
            assert np.array_equal(t.grad, ref), (offset, spread)


@pytest.mark.parametrize("shape", [(480, 128), (100, 128), (3, 5, 8), (0, 4)])
def test_relu_is_bit_identical_to_masked_select(shape):
    """Forward is ``np.where(a > 0, a, 0.0)`` bit for bit, on signed zeros,
    infinities, NaN and subnormals too; backward passes ``g`` where
    ``a > 0``."""
    rng = np.random.default_rng(36)
    a = rng.standard_normal(shape)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                -5e-324, 2.2e-308, -2.2e-308]
    flat = a.reshape(-1)
    flat[:len(specials)] = specials[:flat.size]
    x = T.Tensor(a, requires_grad=True)
    out = T.relu(x)
    ref = np.where(a > 0, a, 0.0)
    assert out.data.tobytes() == ref.tobytes()
    g = rng.standard_normal(shape)
    T.backward(tsum(mul(out, T.Tensor(g))))
    assert x.grad.tobytes() == (g * (a > 0)).tobytes()
    # np.fmax keeps the sign of -0.0 at some positions of short arrays only
    for n in range(1, 18):
        zeros = np.full(n, -0.0)
        assert T.relu(T.Tensor(zeros)).data.tobytes() == bytes(8 * n)


@pytest.mark.parametrize("ignore_id,reduction", [(None, "mean"), (0, "mean"),
                                                 (0, "sum")])
def test_in_place_cross_entropy_is_bit_identical_to_reference(ignore_id,
                                                              reduction):
    """The op sums over its rows; a caller drops the rows of an ignored
    target before the call and takes a mean as ``scale(sum, 1 / rows)``,
    as training does. Value and gradient match the reference bit for bit."""
    rng = np.random.default_rng(32)
    all_ids = [3, 0, 10, 0, 1, 7]
    keep = [i for i, t in enumerate(all_ids) if t != ignore_id]
    ids = [all_ids[i] for i in keep]
    logits = T.Tensor(rng.standard_normal((6, 11))[keep], requires_grad=True)
    loss = T.cross_entropy(logits, ids)
    g = 1.7
    if reduction == "mean":
        loss = T.scale(loss, 1 / len(ids))
        g *= 1 / len(ids)
    T.backward(T.scale(loss, 1.7))
    ref_sum, ref_grad = reference_cross_entropy(logits.data, ids, g)
    ref_loss = ref_sum * (1 / len(ids)) if reduction == "mean" else ref_sum
    assert np.array_equal(loss.data, ref_loss)
    assert np.array_equal(logits.grad, ref_grad)


_FAULT_PROBE = """
import resource
import numpy as np
from graphtext import tensor as T

def churn():  # a step's worth of 1 MiB arrays, touched, then freed
    arrays = [np.ones(1 << 17) for _ in range(24)]
    del arrays

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(T._HEAP_THRESHOLDS_FIXED, (after - before) / 20)
"""


def _fault_probe(**env) -> tuple[str, float]:
    """(whether the import fixed the heap thresholds, minor faults per
    churn) from a fresh interpreter with ``env`` as its allocator
    settings."""
    child = {k: v for k, v in os.environ.items() if k not in T._MALLOC_ENV}
    child.update(env)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    child["PYTHONPATH"] = src + os.pathsep + child.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=child,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout.split()
    return out[0], float(out[1])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="glibc allocator thresholds")
def test_freed_step_memory_is_reused_without_faults():
    """Importing the engine keeps freed memory mapped: re-allocating 24
    MiB just freed faults in no pages (about 6,100 a churn under glibc's
    dynamic thresholds, which hand the heap top back to the kernel)."""
    fixed, faults = _fault_probe()
    assert fixed == "True"
    assert faults < 100


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="glibc allocator thresholds")
def test_heap_thresholds_leave_user_allocator_settings_alone():
    fixed, _ = _fault_probe(MALLOC_TRIM_THRESHOLD_=str(1 << 20))
    assert fixed == "False"


def test_relu_grads():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.standard_normal((4, 4)) + 0.3, requires_grad=True)
    # keep values away from the kink so finite differences are valid
    x.data[np.abs(x.data) < 0.05] += 0.2
    fd_check(lambda: tsum(T.relu(x)), [x])
    y = T.relu(T.Tensor([[-1.0, 2.0]]))
    assert np.allclose(y.data, [[0.0, 2.0]])


def test_embedding_lookup_duplicate_ids_accumulate():
    rng = np.random.default_rng(5)
    table = leaf(rng, 6, 3)
    ids = [1, 4, 1, 1]
    out = T.embedding_lookup(table, ids)
    assert np.array_equal(out.data, table.data[ids])
    loss = tsum(out)
    T.backward(loss)
    expected = np.zeros((6, 3))
    for i in ids:
        expected[i] += 1.0
    assert np.array_equal(table.grad, expected)
    table.zero_grad()
    w = T.Tensor(rng.standard_normal((4, 3)))
    fd_check(lambda: tsum(mul(T.embedding_lookup(table, ids), w)), [table])
    with pytest.raises(T.ShapeError):
        T.embedding_lookup(table, [6])


def test_embedding_backward_scatters_into_the_parameter_view():
    rng = np.random.default_rng(24)
    store = T.ParameterStore()
    table = store.create("emb", rng.standard_normal((30, 4)))
    store.zero_grads()
    before = rng.standard_normal((30, 4))  # a gradient already accumulated
    table.grad[...] = before
    view = table.grad
    ids = rng.integers(0, 30, size=(5, 16))  # 2-D, with repeated ids
    w = rng.standard_normal((5, 16, 4))
    T.backward(tsum(mul(T.embedding_lookup(table, ids), T.Tensor(w))))
    scattered = np.zeros((30, 4))
    np.add.at(scattered, ids, w)
    assert table.grad is view
    assert np.allclose(table.grad, before + scattered, rtol=0, atol=1e-12)


def test_neighbor_attention_matches_reference_and_grads():
    """Each head's weights are a masked softmax of LeakyReLU scores (slope
    0.2 below zero), the output is the heads' mean, and gradients match
    central differences."""
    rng = np.random.default_rng(6)
    mask = np.array([[1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0], [0, 1, 0, 1]],
                    dtype=bool)
    # source scores of both signs dominate, so each row mixes both
    # branches and every pre-activation is clear of the kink at zero
    s_dst = T.Tensor(rng.uniform(-0.4, 0.4, (2, 4, 1)), requires_grad=True)
    s_src = T.Tensor(rng.uniform(1.0, 1.5, (2, 4, 1)) * [[1], [-1], [1], [-1]],
                     requires_grad=True)
    values = leaf(rng, 2, 4, 3)
    pre = s_dst.data + s_src.data.swapaxes(1, 2)
    logits = np.where(mask, np.where(pre > 0, pre, 0.2 * pre), -np.inf)
    want = (reference_softmax(logits) @ values.data).mean(axis=0)
    got = T.neighbor_attention(s_dst, s_src, values, edges_of(mask))
    assert np.allclose(got.data, want, rtol=0, atol=1e-12)
    w = T.Tensor(rng.standard_normal((4, 3)))
    fd_check(lambda: tsum(mul(T.neighbor_attention(s_dst, s_src, values,
                                                   edges_of(mask)), w)),
             [s_dst, s_src, values])
    with pytest.raises(T.ShapeError):  # scores that do not fit the values
        T.neighbor_attention(s_dst, T.Tensor(s_src.data.swapaxes(1, 2)),
                             values, edges_of(mask))


def test_layer_norm_grads_and_moments():
    rng = np.random.default_rng(8)
    x = leaf(rng, 4, 6)
    gain = T.Tensor(rng.standard_normal(6) + 1.0, requires_grad=True)
    bias = leaf(rng, 6)
    y = T.layer_norm(x, gain, bias)
    ones = T.Tensor(np.ones(6))
    normed = T.layer_norm(x, ones, T.Tensor(np.zeros(6)))
    assert np.allclose(normed.data.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(normed.data.var(axis=-1), 1.0, atol=1e-4)
    w = T.Tensor(rng.standard_normal((4, 6)))
    fd_check(lambda: tsum(mul(T.layer_norm(x, gain, bias), w)), [x, gain, bias])
    assert y.shape == (4, 6)


def test_cross_entropy_value_and_grads():
    rng = np.random.default_rng(10)
    logits = leaf(rng, 5, 7)
    ids = [3, 0, 6, 2, 1]
    # independent value: -log softmax picked per row, summed
    probs = reference_softmax(logits.data)
    expect = -np.log(probs[np.arange(5), ids]).sum()
    got = T.cross_entropy(logits, ids)
    assert abs(got.item() - expect) < 1e-12
    mean = T.scale(T.cross_entropy(logits, ids), 1 / 5)
    assert abs(mean.item() - expect / 5) < 1e-12

    ids_rep = [3, 0, 6, 0, 1]  # a target shared by two rows
    fd_check(lambda: T.cross_entropy(logits, ids_rep), [logits])
    with pytest.raises(T.ShapeError):
        T.cross_entropy(logits, [0, 0, 0, 0])


def test_composite_mlp_grads():
    rng = np.random.default_rng(11)
    x = T.Tensor(rng.standard_normal((3, 4)))
    w1 = leaf(rng, 4, 8)
    b1 = leaf(rng, 8)
    w2 = leaf(rng, 8, 5)
    gain = T.Tensor(np.ones(5), requires_grad=True)
    bias = leaf(rng, 5)

    def loss():
        h = T.relu(T.add(T.matmul(x, w1), b1))
        out = T.layer_norm(T.matmul(h, w2), gain, bias)
        return T.cross_entropy(out, [1, 3, 0])

    fd_check(loss, [w1, b1, w2, gain, bias])


def test_backward_accumulates_on_repeat():
    x = T.Tensor([2.0, 3.0], requires_grad=True)
    loss = tsum(mul(x, x))
    T.backward(loss)
    first = x.grad.copy()
    loss2 = tsum(mul(x, x))
    T.backward(loss2)
    assert np.allclose(x.grad, 2 * first)


def test_second_backward_over_a_spent_tape_raises():
    """Backward spends the tape it walks. Walking it again, from the same
    loss or from a new one built on a spent output, raises before any
    leaf's gradient changes."""
    rng = np.random.default_rng(36)
    x, w = leaf(rng, 3, 4), leaf(rng, 4, 2)
    h = T.matmul(x, w)
    loss = tsum(h)
    T.backward(loss)
    grads = [x.grad.copy(), w.grad.copy()]
    for again in (loss, tsum(T.relu(h))):
        with pytest.raises(RuntimeError, match="already spent"):
            T.backward(again)
        for t, before in zip((x, w), grads):
            assert np.array_equal(t.grad, before)


def test_op_output_no_rule_reads_is_freed_with_its_tensor():
    """Rules keep only the arrays they read. ``add`` reads neither
    operand, so the matmul output it consumed dies with its tensor while
    the sum's tape lives, with no help from the cyclic collector; the
    tape's gradients still match central differences."""
    rng = np.random.default_rng(37)
    x, w, b = leaf(rng, 3, 4), leaf(rng, 4, 5), leaf(rng, 5)
    probe = T.Tensor(rng.standard_normal((3, 5)))
    collecting = gc.isenabled()
    gc.disable()
    try:
        h = T.matmul(x, w)
        value = weakref.ref(h.data)
        y = T.add(h, b)
        del h
        assert value() is None
        T.backward(tsum(mul(y, probe)))
    finally:
        if collecting:
            gc.enable()
    numeric = finite_difference(
        lambda: tsum(mul(T.add(T.matmul(x, w), b), probe)).item(),
        [x.data, w.data, b.data])
    for t, n in zip((x, w, b), numeric):
        assert relative_error(t.grad, n) <= TOL


@pytest.mark.parametrize("reverse", [False, True])
def test_shared_upstream_gradient_is_not_written_in_place(reverse):
    """``add`` hands one gradient array to both parents, which take it
    over; ``u`` and ``w`` then each accumulate a second gradient from their
    product. Adding those into the shared array in place would give each
    parent the other's share too. Both term orders are run, since the tape
    order decides which backward rule runs first."""
    rng = np.random.default_rng(25)
    x, y = leaf(rng, 3, 4), leaf(rng, 3, 4)
    q = T.Tensor(rng.standard_normal((3, 4)))

    def loss():
        u, w = T.scale(x, 1.5), T.scale(y, -0.5)
        terms = [tsum(mul(T.add(u, w), q)), tsum(mul(u, w))]
        return T.add(*(terms[::-1] if reverse else terms))

    fd_check(loss, [x, y])


def test_parameter_zero_grad_fills_its_view():
    store = make_store(np.random.default_rng(26))
    store.zero_grads()
    p = store.get("enc.w")
    view = p.grad
    view[...] = 1.0
    p.zero_grad()
    assert p.grad is view and not view.any()
    T.backward(tsum(mul(p, p)))
    assert p.grad is view and np.allclose(view, 2 * p.data)
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.backward(tsum(x))
    x.zero_grad()
    assert x.grad is None


def test_store_refuses_rebound_arrays_and_late_parameters():
    store = make_store(np.random.default_rng(27))
    store.zero_grads()
    with pytest.raises(RuntimeError):
        store.create("late", np.zeros(2))
    p = store.get("head.b")
    p.grad = np.ones(4)  # detached from the gradient buffer Adam reads
    with pytest.raises(RuntimeError, match="head.b"):
        store.adam_step(lr=0.1)


def test_tensor_data_is_float64():
    f32 = np.linspace(-1, 1, 5, dtype=np.float32)
    for data in (f32, [1, 2, 3], 2.5):
        assert T.Tensor(data).data.dtype == np.float64
    assert np.array_equal(T.Tensor(f32).data, f32.astype(np.float64))


def test_no_grad_records_nothing():
    x = T.Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = mul(x, x)
    assert not y.requires_grad
    assert y._node is None


def test_scale_transpose_mean():
    rng = np.random.default_rng(12)
    a = leaf(rng, 3, 2)
    fd_check(lambda: tsum(T.scale(a, -2.5)), [a])


# ---------------------------------------------------------------------------
# parameter store


def make_store(rng):
    store = T.ParameterStore()
    store.create("enc.w", rng.standard_normal((4, 4)))
    store.create("enc.gnn.w", rng.standard_normal((4, 4)))
    store.create("head.b", rng.standard_normal(4))
    return store


def test_store_duplicate_and_counts():
    rng = np.random.default_rng(13)
    store = make_store(rng)
    with pytest.raises(ValueError):
        store.create("enc.w", np.zeros(1))
    assert store.names() == ["enc.w", "enc.gnn.w", "head.b"]
    assert store.num_values() == 16 + 16 + 4


def test_adam_matches_reference():
    rng = np.random.default_rng(14)
    store = make_store(rng)
    ref_params = [store.get(n).data.copy() for n in store.names()]
    ref = ReferenceAdam([p.shape for p in ref_params], lr=1e-2)
    store.zero_grads()
    for step in range(5):
        grads = [rng.standard_normal(p.shape) for p in ref_params]
        for n, g in zip(store.names(), grads):
            store.get(n).grad[...] = g
        store.adam_step(lr=1e-2)
        store.zero_grads()
        ref.step(ref_params, grads)
    for n, p in zip(store.names(), ref_params):
        assert np.allclose(store.get(n).data, p, atol=1e-12)


def test_freeze_keeps_bits_and_skips_grad():
    rng = np.random.default_rng(15)
    store = make_store(rng)
    store.set_trainable(["enc.gnn.w"])
    frozen_before = {n: store.get(n).data.tobytes()
                     for n in ("enc.w", "head.b")}
    gnn_before = store.get("enc.gnn.w").data.tobytes()
    assert not store.get("enc.w").requires_grad
    assert store.get("enc.gnn.w").requires_grad
    store.zero_grads()
    for _ in range(10):
        for n in store.names():
            store.get(n).grad[...] = np.ones_like(store.get(n).data)
        store.adam_step(lr=0.1)
        store.zero_grads()
    for n, blob in frozen_before.items():
        assert store.get(n).data.tobytes() == blob
    assert store.get("enc.gnn.w").data.tobytes() != gnn_before
    store.set_trainable(None)
    assert store.get("enc.w").requires_grad
    with pytest.raises(KeyError):
        store.set_trainable(["nope"])


def test_clip_norm_scales_update():
    store = T.ParameterStore()
    p = store.create("p", np.zeros(4))
    store.zero_grads()
    p.grad[...] = np.full(4, 3.0)  # norm 6
    norm = store.adam_step(lr=1.0, clip_norm=1.5)
    assert abs(norm - 6.0) < 1e-12
    # after clipping all coordinates share one magnitude; direction -g
    assert np.all(p.data < 0)
    assert np.allclose(p.data, p.data[0])


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(16)
    store = T.ParameterStore()
    store.create("a.w", rng.standard_normal((3, 5)))
    store.create("b.v", rng.standard_normal(7))
    store.create("c.s", np.asarray(rng.standard_normal(())))
    path = str(tmp_path / "model.ckpt")
    before = {n: t.data.tobytes() for n, t in store.items()}
    store.save(path)

    loaded = T.read_checkpoint(path)
    assert list(loaded) == store.names()
    for n, arr in loaded.items():
        assert arr.tobytes() == before[n]
        assert arr.dtype == store.get(n).data.dtype

    store.get("a.w").data += 1.0
    store.load(path)
    for n, t in store.items():
        assert t.data.tobytes() == before[n]


def test_float32_checkpoint_loads_cast_to_float64(tmp_path):
    """A checkpoint of dtype code 0, built by hand in the layout ``save``
    writes, loads with each float32 value cast exactly to float64."""
    rng = np.random.default_rng(21)
    store = make_store(rng)
    values = {n: rng.standard_normal(t.shape).astype(np.float32)
              for n, t in store.items()}
    body = [struct.pack("<II", 2, len(values))]
    for name, arr in values.items():
        body += [struct.pack("<H", len(name)), name.encode("utf-8"),
                 struct.pack(f"<BB{arr.ndim}I", 0, arr.ndim, *arr.shape),
                 arr.astype("<f4").tobytes()]
    blob = b"GRSM" + b"".join(body)
    path = tmp_path / "f32.ckpt"
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
    loaded = T.read_checkpoint(str(path))
    assert [a.dtype for a in loaded.values()] == [np.float32] * len(values)
    store.zero_grads()  # laid out: load writes into the flat buffer
    store.load(str(path))
    for name, arr in values.items():
        got = store.get(name).data
        assert got.dtype == np.float64
        assert np.array_equal(got, arr.astype(np.float64))


def test_interrupted_checkpoint_save_keeps_previous_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(18)
    store = make_store(rng)
    path = tmp_path / "model.ckpt"
    store.save(str(path))
    before = path.read_bytes()
    store.get("enc.w").data += 1.0
    real_pack, calls = T.struct.pack, []

    def pack_then_fail(fmt, *values):
        calls.append(fmt)
        if len(calls) > 4:  # part-way through the first parameter
            raise OSError("disk full")
        return real_pack(fmt, *values)

    monkeypatch.setattr(T.struct, "pack", pack_then_fail)
    with pytest.raises(OSError):
        store.save(str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        T.read_checkpoint(str(bad))

    rng = np.random.default_rng(17)
    store = T.ParameterStore()
    store.create("x", rng.standard_normal(3))
    good = tmp_path / "good.ckpt"
    store.save(str(good))
    good.write_bytes(good.read_bytes() + b"\x01")
    with pytest.raises(ValueError):
        T.read_checkpoint(str(good))

    other = T.ParameterStore()
    other.create("y", rng.standard_normal(3))
    store2 = tmp_path / "s2.ckpt"
    other.save(str(store2))
    with pytest.raises(ValueError):
        store.load(str(store2))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_load_rejects_non_finite_values_and_keeps_the_store(tmp_path, bad):
    rng = np.random.default_rng(19)
    store = make_store(rng)
    names = store.names()
    store.get(names[-1]).data.reshape(-1)[0] = bad
    path = str(tmp_path / "model.ckpt")
    store.save(path)
    fresh = make_store(np.random.default_rng(20))
    before = {n: t.data.tobytes() for n, t in fresh.items()}
    with pytest.raises(T.CheckpointError, match="non-finite"):
        fresh.load(path)
    assert {n: t.data.tobytes() for n, t in fresh.items()} == before


def _names_used(path: pathlib.Path, module: str) -> set[str]:
    """Names the package module at ``path`` uses from ``module``:
    attributes of its ``module`` import and names imported from it; in
    ``module`` itself, names loaded outside their own top-level definition
    and not bound there as a function, argument or variable (an op's
    ``backward`` closure is not :func:`tensor.backward`)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.stem != module:
        aliases, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == module:
                        aliases.add(alias.asname or alias.name)
                    elif (node.module or "").split(".")[-1] == module:
                        used.add(alias.name)
        return used | {node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.value, ast.Name)
                       and node.value.id in aliases}
    used = set()
    for stmt in tree.body:
        inner = list(ast.walk(stmt))[1:]
        local = {n.name for n in inner if isinstance(n, ast.FunctionDef)} | {
            n.arg for n in inner if isinstance(n, ast.arg)} | {
            n.id for n in inner
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        used |= {n.id for n in inner
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                 and n.id not in local and n.id != getattr(stmt, "name", None)}
    return used


def test_every_public_name_is_reached_from_the_package():
    """Code the CLI and the model never name is a candidate for deletion:
    every public module-level function and class of every package module
    is named somewhere in the package outside its own definition."""
    paths = sorted(pathlib.Path(T.__file__).parent.glob("*.py"))
    unreached = {}
    for path in paths:
        public = {node.name for node in ast.parse(
            path.read_text(encoding="utf-8")).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")}
        used = set().union(*(_names_used(p, path.stem) for p in paths))
        unreached[path.stem] = sorted(public - used)
    assert unreached == {path.stem: [] for path in paths}
