"""Dense tensor engine with reverse-mode gradients over a fixed op set.

Every operation run while grad is on records a tape node beside its
output tensor: the backward rule and the nodes of the op's parents, not
the output's value. A rule keeps only the arrays and shapes it reads, so
an output that no rule reads, such as an ``add``'s, is freed as soon as
the caller drops its tensor. Calling :func:`backward` on a scalar loss
walks the recorded graph in reverse topological order and accumulates
gradients into every reachable tensor that has ``requires_grad`` set.
There is no general autodiff: the op vocabulary is exactly what the model
needs, which keeps each backward rule small enough to verify against
finite differences.

An intermediate tensor takes its first incoming gradient array over
rather than copying it, and adds any later one out of place, since an op
may hand the same array to two parents. Parameters live in a
:class:`ParameterStore`, which lays them out in one flat buffer: each
parameter's value and gradient are views into a value and a gradient
buffer, gradients accumulate into those views in place, ``zero_grads`` is
one fill, and Adam updates the trainable ranges in place, chunk by chunk.
Adam evaluates the update in Kingma & Ba's efficient order with the clip
scale folded into the moment coefficients, so it rounds differently from
the textbook expressions; the values it trains agree with theirs to
1e-12. Attention builds its softmax in the one weights array its
backward keeps and reuses its weight gradient in place, cross-entropy
turns its softmax into the logits' gradient in place, and layer norm
reuses its buffers; all three round exactly as the out-of-place
expressions do.

Values are double precision: a tensor casts whatever it is built from to
float64, and checkpoints are written in float64. The checkpoint reader
still parses float32 values, which loading casts.

Memory: while a training step runs, its arrays are held by the rules
that read them and by the tensors the caller still holds. :func:`backward`
drops each rule once it has run, so the saved arrays are freed as the
walk proceeds and none outlive the call; the loss tensor keeps only its
value. A step still builds and frees tens of megabytes. With glibc's
default, dynamic thresholds the allocator hands that memory back to the
kernel and the next step faults every page in again. Importing this
module therefore fixes glibc's mmap threshold at 4 MiB and its trim
threshold at 64 MiB (``mallopt``), so freed step memory stays mapped and
the next step reuses it. This changes no arithmetic. It applies on glibc
only, and not at all when ``MALLOC_MMAP_THRESHOLD_``,
``MALLOC_TRIM_THRESHOLD_`` or ``GLIBC_TUNABLES`` is set: set those
yourself to choose other values.
"""
from __future__ import annotations

import contextlib
import ctypes
import math
import os
import struct
import zlib
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .data import DataError, atomic_write


_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's <malloc.h>
_M_MMAP_THRESHOLD = -3
# Blocks of this size and up keep their own mappings, a 10k-token
# embedding table among them; with them on the heap too (a 32 MiB
# threshold), beam decoding over such a table measured about 10% slower.
_MMAP_THRESHOLD = 4 << 20  # bytes
_TRIM_THRESHOLD = 64 << 20  # bytes of free heap top kept mapped
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
               "GLIBC_TUNABLES")


def _fix_heap_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds so that memory a step frees
    stays mapped for the next step. Both must be set: fixing either one
    turns off the dynamic adjustment of both. Returns whether they were
    set; nothing is done where ``mallopt`` is missing or refuses, or when
    the environment already tunes the allocator."""
    if any(var in os.environ for var in _MALLOC_ENV):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no libc symbol table
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


_HEAP_THRESHOLDS_FIXED = _fix_heap_thresholds()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


class NumericsError(ArithmeticError):
    """Raised when training produces a non-finite loss."""


class CheckpointError(DataError):
    """A checkpoint file that is malformed or does not fit the model."""


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording inside the block (inference fast path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense array plus an optional gradient accumulator.

    ``grad`` matches the value's shape. On a tensor outside a laid-out
    :class:`ParameterStore` it is None until the first accumulation, which
    takes the incoming array over; a later accumulation makes a new sum
    and never writes into it, because an op may hand one array to several
    parents. A laid-out parameter's ``grad`` is a view into its store's
    flat gradient buffer that accumulates in place. A tensor an op makes
    while grad is on links to its tape entry, a :class:`_Node`; a leaf (a
    parameter or an input) is its own entry.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "_flat")
    _parents: tuple = ()  # a leaf has no parents and no backward rule
    _backward = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None
        self._flat = False  # grad is a view into a store's gradient buffer

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accumulate_grad(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self._flat:
            self.grad += g
        elif self.grad is None:
            self.grad = np.asarray(g)
        else:
            self.grad = self.grad + g

    def zero_grad(self) -> None:
        """Drop the gradient, or zero a parameter's view in place."""
        if self._flat:
            self.grad.fill(0)
        else:
            self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    """An op output's entry on the tape, without its value: the backward
    rule ``rule(g, parents)``, the nodes of the op's parents, and the
    gradient flowing in during :func:`backward`. The rule keeps only the
    arrays and shapes it reads. :func:`backward` drops the rule and the
    parent links once the rule has run; ``_parents`` None marks a spent
    node."""

    __slots__ = ("grad", "_parents", "_backward")
    requires_grad = True
    _flat = False
    _accumulate_grad = Tensor._accumulate_grad

    def __init__(self, parents: tuple, backward: Callable) -> None:
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward


def _result(data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray, tuple], None]) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(p._node or p for p in parents), backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# core ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:  # shapes that do not broadcast
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} are incompatible") from None
    sa, sb = a.data.shape, b.data.shape

    def backward(g: np.ndarray, parents: tuple) -> None:
        parents[0]._accumulate_grad(_unbroadcast(g, sa))
        parents[1]._accumulate_grad(_unbroadcast(g, sb))

    return _result(data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    data = a.data * s

    def backward(g: np.ndarray, parents: tuple) -> None:
        parents[0]._accumulate_grad(g * s)

    return _result(data, (a,), backward)


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Matrix product over the last two axes, broadcast over any leading
    axes (numpy ``@``); ``transpose_b`` swaps the right operand's last two
    axes. A 2-D right operand meets the left operand's leading axes folded
    into its rows: one product, and one for its own gradient."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands need rank >= 2, got {a.shape} and {b.shape}")
    am = a.data
    bm = np.swapaxes(b.data, -1, -2) if transpose_b else b.data
    fold = bm.ndim == 2 and am.ndim > 2
    if fold:
        am = am.reshape(-1, am.shape[-1])
    try:
        data = am @ bm
    except ValueError:  # inner or batch dims differ
        raise ShapeError(f"matmul: cannot multiply {a.shape} by {b.shape}") from None
    sa, sb = a.data.shape, b.data.shape
    if fold:
        data = data.reshape(*sa[:-1], data.shape[-1])

    def backward(g: np.ndarray, parents: tuple) -> None:
        a, b = parents
        if fold:
            g = g.reshape(am.shape[0], -1)
        if a.requires_grad:
            ga = g @ np.swapaxes(bm, -1, -2)
            if fold:
                ga = ga.reshape(sa)
            a._accumulate_grad(_unbroadcast(ga, sa))
        if b.requires_grad:
            gb = np.swapaxes(am, -1, -2) @ g
            gb = np.swapaxes(gb, -1, -2) if transpose_b else gb
            b._accumulate_grad(_unbroadcast(gb, sb))

    return _result(data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0
    # np.where(keep, a, 0.0) bit for bit without a per-element select:
    # fmax maps NaN to 0.0, and adding 0.0 turns -0.0 into +0.0
    data = np.fmax(a.data, 0.0)
    data += 0.0

    def backward(g: np.ndarray, parents: tuple) -> None:
        parents[0]._accumulate_grad(g * keep)

    return _result(data, (a,), backward)


def merge_heads(a: Tensor) -> Tensor:
    """(..., k, n, w) -> (..., n, k*w): column block i of the result is
    slice i of ``a``; leading axes are kept. It lays the two ends of node
    pairs side by side."""
    if a.data.ndim < 3:
        raise ShapeError(f"merge_heads: expected at least 3 axes, got {a.shape}")
    *lead, h, n, k = a.shape
    data = a.data.swapaxes(-2, -3).reshape(*lead, n, h * k)

    def backward(g: np.ndarray, parents: tuple) -> None:
        parents[0]._accumulate_grad(
            g.reshape(*lead, n, h, k).swapaxes(-2, -3))

    return _result(data, (a,), backward)


def embedding_lookup(table: Tensor, ids: Sequence) -> Tensor:
    """Row gather for an id array of any shape (the result has shape
    ``ids.shape + (d,)``); the backward scatters into the table's gradient."""
    idx = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding_lookup: index out of range for table with {table.shape[0]} rows")
    data = table.data[idx]
    shape = table.data.shape

    def backward(g: np.ndarray, parents: tuple) -> None:
        (table,) = parents
        if not table.requires_grad:
            return
        if table._flat:
            _scatter_rows(table.grad, idx, g)
        else:
            full = np.zeros(shape)
            _scatter_rows(full, idx, g)
            table._accumulate_grad(full)

    return _result(data, (table,), backward)


def _scatter_rows(dest: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
    """dest[idx[j]] += g[j] for every lookup j, repeated ids included.

    One reduceat over the stably sorted lookups sums the rows of each id,
    and each sum is added to ``dest`` once. It agrees with ``np.add.at``
    to rounding (about 5e-16 relative) at about half its time."""
    ids = idx.reshape(-1)
    if not ids.size:
        return
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = _runs(ids)
    dest[ids[starts]] += np.add.reduceat(g.reshape(ids.size, -1)[order], starts)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of the last axis to zero mean / unit variance
    (variance plus 1e-5), then apply the learned affine transform."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} != ({d},)")
    # each row mean is a sum over the row, then one division: the
    # rounding of ndarray.mean, without its per-call overhead
    mu = np.add.reduce(a.data, -1, keepdims=True) / d
    xhat = a.data - mu
    var = np.add.reduce(xhat ** 2, -1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    gd = gain.data
    data = xhat * gd
    data += bias.data

    def backward(g: np.ndarray, parents: tuple) -> None:
        a, gain, bias = parents
        if gain.requires_grad:
            gain._accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            # d/dx of (x - mu) * inv with mu, inv functions of the row:
            # (gx - mean(gx) - xhat * mean(gx * xhat)) * inv
            gx = g * gd
            prod = gx * xhat
            gx -= np.add.reduce(gx, -1, keepdims=True) / d
            m2 = np.add.reduce(prod, -1, keepdims=True) / d
            gx -= np.multiply(xhat, m2, out=prod)
            gx *= inv
            a._accumulate_grad(gx)

    return _result(data, (a, gain, bias), backward)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, shifted by the row max."""
    m = x.max(axis=-1, keepdims=True)
    return x - (m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True)))


def cross_entropy(logits: Tensor, target_ids: Sequence[int]) -> Tensor:
    """Softmax cross-entropy of each row of ``logits`` against its target
    id, summed over the rows; a mean is ``scale(sum, 1 / rows)``."""
    ids = np.asarray(target_ids, dtype=np.int64)
    if logits.data.ndim != 2 or ids.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} vs {ids.shape[0]} targets")
    logp = _log_softmax(logits.data)
    rows = np.arange(len(ids))
    data = np.asarray((-logp[rows, ids]).sum())

    def backward(g: np.ndarray, parents: tuple) -> None:
        grad = np.exp(logp)  # softmax, turned into the gradient in place
        grad[rows, ids] -= 1.0
        grad *= float(g)
        parents[0]._accumulate_grad(grad)

    return _result(data, (logits,), backward)


def _runs(ids: np.ndarray) -> np.ndarray:
    """The first index of each run of equal values in sorted ``ids``."""
    if not ids.size:
        return ids
    new = np.empty(ids.size, dtype=bool)
    new[0] = True
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    return np.flatnonzero(new)


def _edge_list(edges, cells: int, sources: int, op: str,
               covered: bool = False) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
    """Check an edge list and find its runs. ``edges`` is a (source,
    target) pair of int arrays, or a (2, E) array: edge e runs from source
    row ``src[e]`` (below ``sources``) into cell ``dst[e]`` (below
    ``cells``), and ``dst`` is sorted, so each cell's in-edges are one
    run. Returns both arrays and the first edge of each run. ``covered``
    asks every cell to have an in-edge."""
    try:
        src, dst = (np.asarray(e, dtype=np.intp) for e in edges)
    except (TypeError, ValueError):
        raise ShapeError(f"{op}: edges must be a (source, target) pair of"
                         f" int arrays") from None
    if src.ndim != 1 or src.shape != dst.shape:
        raise ShapeError(f"{op}: edge arrays of shapes {src.shape} and"
                         f" {dst.shape}")
    if src.size > 1 and (dst[1:] < dst[:-1]).any():
        raise ShapeError(f"{op}: edges are not sorted by target")
    if src.size and (min(src.min(), dst[0]) < 0 or src.max() >= sources
                     or dst[-1] >= cells):
        raise ShapeError(f"{op}: a node id is out of range for {sources}"
                         f" rows and {cells} cells")
    starts = _runs(dst)
    if covered and len(starts) != cells:
        raise ShapeError(f"{op}: {cells - len(starts)} rows have no in-edge")
    return src, dst, starts


def _sum_into(rows: np.ndarray, take: np.ndarray, into: np.ndarray,
              starts: np.ndarray, weight: np.ndarray | None,
              cells: int) -> np.ndarray:
    """(cells, d): row c is the sum of ``weight[e] * rows[take[e]]`` over
    the e with ``into[e] == c``, zero where there is none. ``into`` is
    sorted and ``starts`` the first index of each of its runs."""
    gathered = rows[take]
    if weight is not None:
        gathered *= weight[:, None]
    if len(starts) == cells:  # every cell has an entry
        return np.add.reduceat(gathered, starts) if cells else gathered
    out = np.zeros((cells, rows.shape[1]))
    if len(starts):
        out[into[starts]] = np.add.reduceat(gathered, starts)
    return out


def segment_sum(x: Tensor, edges, weight=None, channels: int = 1) -> Tensor:
    """Weighted sums of source rows over an edge list, by target.

    ``x`` is (N, d) and ``edges`` a (source, target) pair of int arrays,
    sorted by target. Edge e adds ``weight[e] * x[src[e]]`` (weight 1
    when ``weight`` is None) to cell ``dst[e]``. Cell ``v * channels + c``
    is channel c of row v, and the result (N, channels * d) holds each
    row's channels side by side; a cell with no in-edge is zero. Backward
    sums each row's share of the gradient over its out-edges, taken in
    source order.
    """
    if x.data.ndim != 2 or channels < 1:
        raise ShapeError(f"segment_sum: need 2-D rows and channels >= 1,"
                         f" got {x.shape} and {channels}")
    rows, d = x.shape
    cells = rows * channels
    src, dst, starts = _edge_list(edges, cells, rows, "segment_sum")
    if weight is not None:
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape != src.shape:
            raise ShapeError(f"segment_sum: weights {weight.shape} for"
                             f" {len(src)} edges")
    data = _sum_into(x.data, src, dst, starts, weight, cells)

    def backward(g: np.ndarray, parents: tuple) -> None:
        order = np.argsort(src, kind="stable")
        by_src = src[order]
        parents[0]._accumulate_grad(_sum_into(
            g.reshape(cells, d), dst[order], by_src, _runs(by_src),
            None if weight is None else weight[order], rows))

    return _result(data.reshape(rows, channels * d), (x,), backward)


def segment_max(x: Tensor, edges) -> Tensor:
    """Each row's elementwise max over the source rows of its in-edges.

    ``x`` is (N, d) and ``edges`` a (source, target) pair of int arrays,
    sorted by target; every row needs an in-edge. Gradient flows to the
    max entry per (row, feature), to the lowest source row on a tie.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"segment_max: need 2-D rows, got {x.shape}")
    rows, d = x.shape
    src, dst, starts = _edge_list(edges, rows, rows, "segment_max",
                                  covered=True)
    gathered = x.data[src]
    data = np.maximum.reduceat(gathered, starts)
    # the lowest source row holding each max (a NaN max is its own)
    hit = (gathered == data[dst]) | np.isnan(gathered)
    arg = np.minimum.reduceat(np.where(hit, src[:, None], rows), starts)

    def backward(g: np.ndarray, parents: tuple) -> None:
        flat = (arg * d + np.arange(d)).reshape(-1)
        parents[0]._accumulate_grad(np.bincount(
            flat, weights=g.reshape(-1), minlength=rows * d).reshape(rows, d))

    return _result(data, (x,), backward)


_LEAKY_SLOPE = 0.2  # GAT's LeakyReLU slope on attention logits


def neighbor_attention(s_dst: Tensor, s_src: Tensor, values: Tensor,
                       edges) -> Tensor:
    """GAT's head-averaged attention over each row's in-edges.

    ``s_dst`` and ``s_src``, both (h, N, 1), are each head's scores of
    a row as an edge's target and as its source, ``values`` is (h, N, d),
    and ``edges`` a (source, target) pair of int arrays, sorted by
    target; every row needs an in-edge. Head h's weight of edge u -> v is
    the softmax over v's in-edges of ``leaky_relu(s_dst[h, v] +
    s_src[h, u])`` (slope 0.2), and head h's output row v is the weighted
    sum of the ``values[h]`` rows of its sources. The result (N, d) is the
    mean of the heads' outputs. Rows joined by no edge never meet.

    Beside its inputs, backward keeps the (h, edges) weights and the signs
    of their pre-activations.
    """
    if values.data.ndim != 3:
        raise ShapeError(
            f"neighbor_attention: values must be 3-D, got {values.shape}")
    h, rows, d = values.shape
    if s_dst.shape != (h, rows, 1) or s_src.shape != (h, rows, 1):
        raise ShapeError(f"neighbor_attention: scores {s_dst.shape} and"
                         f" {s_src.shape} vs values {values.shape}")
    src, dst, starts = _edge_list(edges, rows, rows, "neighbor_attention",
                                  covered=True)
    # each edge's logit, turned into its weight in place
    w = s_dst.data[:, dst, 0] + s_src.data[:, src, 0]  # (h, edges)
    pos = w > 0
    np.multiply(w, _LEAKY_SLOPE, out=w, where=~pos)
    w -= np.maximum.reduceat(w, starts, axis=1)[:, dst]
    np.exp(w, out=w)
    w /= np.add.reduceat(w, starts, axis=1)[:, dst]
    vd = values.data
    heads = np.add.reduceat(w[..., None] * vd[:, src], starts, axis=1)
    data = heads.sum(axis=0) * (1.0 / h)

    def backward(g: np.ndarray, parents: tuple) -> None:
        g_edge = g[dst] * (1.0 / h)  # each edge's share of a head's gradient
        g_values = np.zeros((rows, h * d))  # row-major for the scatter
        _scatter_rows(g_values, src, (w[..., None] * g_edge).swapaxes(0, 1))
        ge = (vd[:, src] * g_edge).sum(axis=-1)  # (h, edges)
        ge -= np.add.reduceat(ge * w, starts, axis=1)[:, dst]  # softmax
        ge *= w
        np.multiply(ge, _LEAKY_SLOPE, out=ge, where=~pos)
        g_src = np.zeros((rows, h))
        _scatter_rows(g_src, src, ge.T)
        s_dst, s_src, values = parents
        s_dst._accumulate_grad(np.add.reduceat(ge, starts, axis=1)[..., None])
        s_src._accumulate_grad(g_src.T[..., None])
        values._accumulate_grad(
            g_values.reshape(rows, h, d).swapaxes(0, 1))

    return _result(data, (s_dst, s_src, values), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int,
              segments: Sequence[tuple[int, int]] | None = None,
              causal: bool = False) -> Tensor:
    """Multi-head scaled dot-product attention as one op.

    Head i is column block i of the (..., rows, d) operands: its weights
    are softmax(q_i k_i^T / sqrt(d / h)) over the key rows, and its output
    is those weights times v_i. With ``segments`` None every query row
    attends every key row, and leading axes broadcast. A list of
    (query rows, key rows) counts cuts 2-D operands into consecutive
    blocks, one per example, and each query block attends its own key
    block only. ``causal`` lets query j of a block see keys 0..j only.

    Beside its inputs, backward keeps only the weights, one
    (..., head, query, key) array per block.
    """
    d = q.shape[-1]
    if (min(q.data.ndim, k.data.ndim) < 2 or num_heads < 1 or d % num_heads
            or k.shape[-1] != d or v.shape != k.shape):
        raise ShapeError(f"attention: queries {q.shape}, keys {k.shape} and"
                         f" values {v.shape} with {num_heads} heads")
    dk = d // num_heads
    factor = 1.0 / math.sqrt(dk)

    def split(x: np.ndarray) -> np.ndarray:  # (..., n, d) -> (..., h, n, dk)
        return x.reshape(*x.shape[:-1], num_heads, dk).swapaxes(-2, -3)

    def merge(x: np.ndarray) -> np.ndarray:  # (..., h, n, dk) -> (..., n, d)
        return x.swapaxes(-2, -3).reshape(*x.shape[:-3], x.shape[-2], d)

    if segments is None:
        blocks = [(slice(None), slice(None))]
    else:
        counts = np.array(segments, dtype=np.int64).reshape(-1, 2)
        nq, nk = (np.concatenate(([0], np.cumsum(c))) for c in counts.T)
        if (not len(counts) or q.data.ndim != 2 or k.data.ndim != 2
                or nq[-1] != q.shape[0] or nk[-1] != k.shape[0]
                or min(np.diff(nk)) < 1):
            raise ShapeError(f"attention: segments {list(segments)} do not cut"
                             f" queries {q.shape} and keys {k.shape}")
        blocks = [(slice(a, b), slice(c, e))
                  for a, b, c, e in zip(nq, nq[1:], nk, nk[1:])]
    if causal:  # True above the diagonal: keys after their query
        longest = ((q.shape[-2], k.shape[-2]) if segments is None
                   else counts.max(axis=0))
        future = ~np.tri(*longest, dtype=bool)
    qd, kd, vd = q.data, k.data, v.data
    weights, outs = [], []
    for qs, ks in blocks:
        # the softmax is built in place in the one array backward keeps
        w = split(qd[..., qs, :]) @ split(kd[..., ks, :]).swapaxes(-1, -2)
        w *= factor
        if causal:
            np.copyto(w, -np.inf, where=future[:w.shape[-2], :w.shape[-1]])
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        weights.append(w)
        outs.append(merge(w @ split(vd[..., ks, :])))
    data = np.concatenate(outs, axis=-2)

    def backward(g: np.ndarray, parents: tuple) -> None:
        grads: tuple[list, list, list] = ([], [], [])
        for (qs, ks), w in zip(blocks, weights):
            gh = split(g[..., qs, :])
            kh = split(kd[..., ks, :])
            gs = gh @ split(vd[..., ks, :]).swapaxes(-1, -2)
            gs -= (gs * w).sum(axis=-1, keepdims=True)  # softmax backward
            gs *= w
            gs *= factor
            grads[0].append(merge(gs @ kh))
            grads[1].append(merge(gs.swapaxes(-1, -2) @ split(qd[..., qs, :])))
            grads[2].append(merge(w.swapaxes(-1, -2) @ gh))
        for t, x, parts in zip(parents, (qd, kd, vd), grads):
            t._accumulate_grad(_unbroadcast(np.concatenate(parts, axis=-2),
                                            x.shape))

    return _result(data, (q, k, v), backward)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into every reachable tensor that has
    ``requires_grad``. The walk spends the tape: each node's gradient is
    freed once consumed and its rule, with the arrays the rule saved, once
    it has run, so only leaves keep a ``.grad`` after the call and nothing
    the forward saved outlives it. A second call that reaches a spent node
    raises ``RuntimeError`` before any gradient changes."""
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    root = loss._node or loss
    order: list[Tensor | _Node] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor | _Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents is None:
            raise RuntimeError("backward: the tape was already spent by an"
                               " earlier backward; run the forward again")
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    root._accumulate_grad(np.ones_like(loss.data))
    for node in reversed(order):
        rule, parents, g = node._backward, node._parents, node.grad
        if rule is not None:  # not a leaf
            node._backward = node._parents = node.grad = None
            if g is not None:
                rule(g, parents)


# ---------------------------------------------------------------------------
# parameters, optimizer, checkpoints

_MAGIC = b"GRSM"
_FORMAT_VERSION = 2  # the reader also accepts 1
_F64_CODE = 1  # the dtype code every saved value carries
_CODE_DTYPES = {0: np.dtype(np.float32), _F64_CODE: np.dtype(np.float64)}


_CHUNK = 32768  # values per in-place Adam chunk


class _FlatGroup:
    """The parameters laid out end to end: their values, gradients and
    Adam moments are four flat buffers, and each parameter holds views of
    its [lo, hi) range of the first two. ``scratch`` is the chunk-sized
    temporary of the in-place Adam update."""

    __slots__ = ("members", "values", "grads", "m", "v", "scratch")

    def __init__(self, members: list[tuple[str, Tensor]]):
        total = sum(t.data.size for _, t in members)
        self.values = np.empty(total)
        self.grads = np.zeros(total)
        self.m = np.zeros(total)
        self.v = np.zeros(total)
        self.scratch = np.empty(min(total, _CHUNK))
        self.members: list[tuple[str, Tensor, int, int]] = []
        lo = 0
        for name, t in members:
            hi = lo + t.data.size
            data = self.values[lo:hi].reshape(t.data.shape)
            data[...] = t.data
            grad = self.grads[lo:hi].reshape(t.data.shape)
            if t.grad is not None:
                grad[...] = t.grad
            t.data, t.grad, t._flat = data, grad, True
            self.members.append((name, t, lo, hi))
            lo = hi


class ParameterStore:
    """Named trainable tensors plus Adam state.

    Names are dotted paths assigned at creation time; iteration order is
    insertion order everywhere, which keeps initialization and checkpoint
    layout deterministic. A subset of names can be marked trainable; the
    rest are frozen: they receive no gradient and Adam never touches them.

    The first :meth:`zero_grads` or :meth:`adam_step` lays the parameters
    out, in creation order, in one flat value buffer; from then on each
    ``data`` is a view into it, each ``grad`` a view into a matching
    gradient buffer, and Adam's two moments are two more flat buffers.
    Gradients accumulate in place into the views, and ``zero_grads`` is
    one fill. Parameters are created before that; write into ``data`` and
    ``grad`` (``[...] =``) rather than rebinding them, which Adam refuses.
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._flat: _FlatGroup | None = None
        self.step_count = 0

    def create(self, name: str, array: np.ndarray) -> Tensor:
        """Add a parameter named ``name`` holding ``array``'s values.

        The store takes ownership: a float64 ``array`` becomes the
        parameter's ``data`` as it is, not a copy, so pass a fresh array
        and do not write to it afterwards."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if self._flat is not None:
            raise RuntimeError(
                f"cannot create {name!r}: the store is already laid out")
        t = Tensor(array, requires_grad=True)
        self._params[name] = t
        return t

    def get(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def num_values(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def zero_grads(self) -> None:
        """Zero every gradient: one fill of the gradient buffer."""
        self._layout().grads.fill(0)

    def _layout(self) -> _FlatGroup:
        """The flat buffers, laid out on first use."""
        if self._flat is None:
            self._flat = _FlatGroup(list(self._params.items()))
        return self._flat

    # -- freezing ----------------------------------------------------------

    def set_trainable(self, names: Iterable[str] | None) -> None:
        """Restrict training to ``names`` (None lifts the restriction).

        A tensor's ``requires_grad`` is its trainable flag: frozen tensors
        have it cleared, so backward skips them entirely and Adam leaves
        them and their moments untouched.
        """
        chosen = set(self._params if names is None else names)
        unknown = chosen - set(self._params)
        if unknown:
            raise KeyError(f"unknown parameter names: {sorted(unknown)}")
        for name, t in self._params.items():
            t.requires_grad = name in chosen

    def trainable_names(self) -> list[str]:
        return [n for n, t in self._params.items() if t.requires_grad]

    def num_trainable_values(self) -> int:
        return sum(self._params[n].data.size for n in self.trainable_names())

    # -- optimizer ----------------------------------------------------------

    def _trainable_ranges(self) -> list[tuple[int, int]]:
        """The [lo, hi) runs of trainable values, neighbours merged."""
        flat = self._layout()
        ranges: list[tuple[int, int]] = []
        for name, t, lo, hi in flat.members:
            if t.data.base is not flat.values or t.grad.base is not flat.grads:
                raise RuntimeError(
                    f"parameter {name!r}: data or grad was rebound; write"
                    " into it with [...] = instead")
            if not t.requires_grad:
                continue
            if ranges and ranges[-1][1] == lo:
                ranges[-1] = (ranges[-1][0], hi)
            else:
                ranges.append((lo, hi))
        return ranges

    def adam_step(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8, clip_norm: float | None = None) -> float:
        """One Adam update over the trainable subset, in place and chunk by
        chunk. Returns the pre-clip global gradient norm."""
        flat = self._layout()
        ranges = self._trainable_ranges()
        sq = 0.0  # no BLAS dot: its rounding varies with the thread count
        for lo, hi in ranges:
            for start in range(lo, hi, _CHUNK):
                g = flat.grads[start:min(start + _CHUNK, hi)]
                b = np.multiply(g, g, out=flat.scratch[:g.size])
                sq += float(np.add.reduce(b))
        norm = sq ** 0.5
        scale_f = 1.0
        if clip_norm is not None and norm > clip_norm > 0:
            scale_f = clip_norm / norm
        self.step_count += 1
        t = self.step_count
        # the clip scale moves into the moment coefficients, and both bias
        # corrections into the step size and epsilon (Kingma & Ba's
        # efficient order): twelve passes over each chunk, one division
        c1 = (1.0 - beta1) * scale_f
        c2 = (1.0 - beta2) * scale_f * scale_f
        step = lr * math.sqrt(1.0 - beta2 ** t) / (1.0 - beta1 ** t)
        eps_hat = eps * math.sqrt(1.0 - beta2 ** t)
        for lo, hi in ranges:
            for start in range(lo, hi, _CHUNK):
                s = slice(start, min(start + _CHUNK, hi))
                b = flat.scratch[:s.stop - s.start]
                g, m, v = flat.grads[s], flat.m[s], flat.v[s]
                m *= beta1  # m = b1 m + (1 - b1) c g, c the clip scale
                m += np.multiply(g, c1, out=b)
                v *= beta2  # v = b2 v + (1 - b2) c^2 g g
                np.multiply(g, c2, out=b)
                v += np.multiply(b, g, out=b)
                np.sqrt(v, out=b)  # p -= step m / (sqrt(v) + eps_hat)
                b += eps_hat
                np.divide(m, b, out=b)
                b *= step
                flat.values[s] -= b
        return norm

    # -- checkpoints ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every parameter to ``path``.

        Layout: magic, format version (u32), parameter count (u32); per
        parameter: name length (u16) + UTF-8 name, dtype code (u8, 0 = f32
        / 1 = f64; always 1 here), rank (u8), dims (u32 each), then the raw
        row-major little-endian values; last, the CRC32 (u32) of every byte
        before it. Version 1 is the same without the CRC32. Round trips are
        bit exact.
        """
        crc = 0
        with atomic_write(path) as fh:
            def put(chunk: bytes) -> None:
                nonlocal crc
                crc = zlib.crc32(chunk, crc)
                fh.write(chunk)

            put(_MAGIC)
            put(struct.pack("<II", _FORMAT_VERSION, len(self._params)))
            for name, t in self._params.items():
                encoded = name.encode("utf-8")
                put(struct.pack("<H", len(encoded)))
                put(encoded)
                put(struct.pack("<BB", _F64_CODE, t.data.ndim))
                for d in t.data.shape:
                    put(struct.pack("<I", d))
                put(t.data.astype("<f8").tobytes())
            fh.write(struct.pack("<I", crc))

    def load(self, path: str) -> None:
        """Copy parameter values from ``path`` into the parameters' arrays
        (float32 values cast to float64); names and shapes must match this
        store exactly and every value must be finite. Nothing is replaced
        unless all of them pass. Optimizer moments are reset."""
        loaded = read_checkpoint(path)
        if list(loaded) != list(self._params):
            raise CheckpointError(
                f"checkpoint {path} parameter names do not match the model")
        for name, arr in loaded.items():
            if arr.shape != self._params[name].data.shape:
                raise CheckpointError(
                    f"checkpoint shape {arr.shape} != model shape"
                    f" {self._params[name].data.shape} for {name!r}")
            if not np.isfinite(arr).all():
                raise CheckpointError(
                    f"checkpoint {path} holds a non-finite value in {name!r}")
        for name, arr in loaded.items():
            self._params[name].data[...] = arr
        if self._flat is not None:
            self._flat.m.fill(0)
            self._flat.v.fill(0)
        self.step_count = 0


def read_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Parse a checkpoint file into an ordered name -> array mapping.

    Any malformed content raises :class:`CheckpointError`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_checkpoint(blob)
    except (struct.error, ValueError) as exc:  # UnicodeDecodeError included
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from None


def _parse_checkpoint(blob: bytes) -> dict[str, np.ndarray]:
    if blob[:4] != _MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    version, count = struct.unpack_from("<II", blob, 4)
    if version not in (1, 2):
        raise ValueError(f"unsupported checkpoint version {version}")
    if version == 2:
        blob, (crc,) = blob[:-4], struct.unpack_from("<I", blob, len(blob) - 4)
        if zlib.crc32(blob) != crc:
            raise ValueError("checksum mismatch")
    off = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off:off + nlen].decode("utf-8")
        off += nlen
        code, rank = struct.unpack_from("<BB", blob, off)
        off += 2
        dims = struct.unpack_from(f"<{rank}I", blob, off) if rank else ()
        off += 4 * rank
        if code not in _CODE_DTYPES:
            raise ValueError(f"unknown dtype code {code} for {name!r}")
        dtype = _CODE_DTYPES[code]
        nbytes = math.prod(dims) * dtype.itemsize
        if off + nbytes > len(blob):
            raise ValueError(f"truncated values for {name!r}")
        arr = np.frombuffer(blob[off:off + nbytes],
                            dtype=dtype.newbyteorder("<")).astype(dtype)
        off += nbytes
        out[name] = arr.reshape(dims)
    if off != len(blob):
        raise ValueError("trailing bytes after last checkpoint parameter")
    return out
