"""Dense tensor engine with reverse-mode gradients over a fixed op set.

Every operation records a backward closure on the output tensor; calling
:func:`backward` on a scalar loss walks the recorded graph in reverse
topological order and accumulates gradients into every reachable tensor
that has ``requires_grad`` set. There is no general autodiff: the op
vocabulary is exactly what the model needs, which keeps each backward
rule small enough to verify against finite differences.

Values are double precision. A tensor built from float32 data keeps that
dtype, and checkpoints record each tensor's dtype, but no model or
training path creates float32 tensors.
"""
from __future__ import annotations

import contextlib
import math
import struct
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .data import DataError, atomic_write


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

    ``grad`` is lazily allocated on first accumulation and always matches
    the value's shape. Tensors created by ops carry the backward closure
    and parent links used by :func:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
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


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are incompatible") from None


# ---------------------------------------------------------------------------
# core ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(g, a.shape))
        b.accumulate_grad(_unbroadcast(g, b.shape))

    return _result(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    _check_broadcast(a, b, "mul")
    data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _result(data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    data = a.data * s

    def backward(g: np.ndarray) -> None:
        a.accumulate_grad(g * s)

    return _result(data, (a,), backward)


def matmul(a: Tensor, b: Tensor, transpose_a: bool = False,
           transpose_b: bool = False) -> Tensor:
    """Matrix product over the last two axes, broadcast over any leading
    axes (numpy ``@``); a transpose flag swaps its operand's last two axes."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands need rank >= 2, got {a.shape} and {b.shape}")
    am = np.swapaxes(a.data, -1, -2) if transpose_a else a.data
    bm = np.swapaxes(b.data, -1, -2) if transpose_b else b.data
    try:
        data = am @ bm
    except ValueError:  # inner or batch dims differ
        raise ShapeError(f"matmul: cannot multiply {am.shape} by {bm.shape}") from None

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            ga = g @ np.swapaxes(bm, -1, -2)
            ga = np.swapaxes(ga, -1, -2) if transpose_a else ga
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(am, -1, -2) @ g
            gb = np.swapaxes(gb, -1, -2) if transpose_b else gb
            b.accumulate_grad(_unbroadcast(gb, b.shape))

    return _result(data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0
    data = np.where(keep, a.data, 0.0)

    def backward(g: np.ndarray) -> None:
        a.accumulate_grad(g * keep)

    return _result(data, (a,), backward)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    pos = a.data > 0
    data = np.where(pos, a.data, slope * a.data)

    def backward(g: np.ndarray) -> None:
        a.accumulate_grad(g * np.where(pos, 1.0, slope))

    return _result(data, (a,), backward)


def split_heads(a: Tensor, num_heads: int) -> Tensor:
    """(n, h*k) -> (h, n, k): column block i of ``a`` becomes head i."""
    if a.data.ndim != 2 or num_heads < 1 or a.shape[1] % num_heads:
        raise ShapeError(f"split_heads: cannot split {a.shape} into {num_heads} heads")
    n, width = a.shape
    data = a.data.reshape(n, num_heads, width // num_heads).transpose(1, 0, 2)

    def backward(g: np.ndarray) -> None:
        a.accumulate_grad(g.transpose(1, 0, 2).reshape(n, width))

    return _result(data, (a,), backward)


def merge_heads(a: Tensor) -> Tensor:
    """(k, n, w) -> (n, k*w): column block i of the result is slice i of
    ``a``. The inverse of :func:`split_heads`; it also lays out relation
    channels and the two ends of node pairs side by side."""
    if a.data.ndim != 3:
        raise ShapeError(f"merge_heads: expected a 3-D operand, got {a.shape}")
    h, n, k = a.shape
    data = a.data.transpose(1, 0, 2).reshape(n, h * k)

    def backward(g: np.ndarray) -> None:
        a.accumulate_grad(g.reshape(n, h, k).transpose(1, 0, 2))

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

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, idx, g)
            table.accumulate_grad(full)

    return _result(data, (table,), backward)


def softmax_last_dim(a: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis.

    ``mask`` (boolean, True = keep, broadcast to the input's shape) gives
    masked positions exactly zero weight; each row must keep one position.
    """
    x = a.data
    if mask is not None:
        try:
            mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        except ValueError:
            raise ShapeError(f"softmax mask {np.shape(mask)} vs input {x.shape}") from None
        if not mask.any(axis=-1).all():
            raise ShapeError("softmax_last_dim: a row has no unmasked position")
        x = np.where(mask, x, -np.inf)
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    if mask is not None:
        e = np.where(mask, e, 0.0)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        dot = (g * y).sum(axis=-1, keepdims=True)
        a.accumulate_grad(y * (g - dot))

    return _result(y, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of the last axis to zero mean / unit variance,
    then apply the learned affine transform."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} != ({d},)")
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def backward(g: np.ndarray) -> None:
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            gx = g * gain.data
            # d/dx of (x - mu) * inv with mu, inv functions of the row
            term = gx - gx.mean(axis=-1, keepdims=True) \
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            a.accumulate_grad(term * inv)

    return _result(data, (a, gain, bias), backward)


def cross_entropy(logits: Tensor, target_ids: Sequence[int],
                  ignore_id: int | None = None,
                  reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy over rows of ``logits``.

    Rows whose target equals ``ignore_id`` contribute nothing; "mean"
    averages over the remaining rows, "sum" just totals them.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    ids = np.asarray(target_ids, dtype=np.int64)
    if logits.data.ndim != 2 or ids.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross_entropy: logits {logits.shape} vs {ids.shape[0]} targets")
    keep = np.ones_like(ids, dtype=bool) if ignore_id is None else ids != ignore_id
    count = int(keep.sum())
    if count == 0:
        raise ShapeError("cross_entropy: every position is ignored")
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    logp = x - lse
    rows = np.arange(len(ids))
    losses = np.where(keep, -logp[rows, np.where(keep, ids, 0)], 0.0)
    total = losses.sum()
    denom = count if reduction == "mean" else 1
    data = np.asarray(total / denom)

    def backward(g: np.ndarray) -> None:
        if not logits.requires_grad:
            return
        probs = np.exp(logp)
        grad = probs.copy()
        grad[rows[keep], ids[keep]] -= 1.0
        grad[~keep] = 0.0
        logits.accumulate_grad(grad * (float(g) / denom))

    return _result(data, (logits,), backward)


def neighbor_max(states: Tensor, in_mask: np.ndarray) -> Tensor:
    """Per-row elementwise max over selected rows of ``states``.

    ``in_mask[v, u]`` selects row u as an input for output row v; every
    output row needs at least one selected input. Gradient flows to the
    argmax entry per (row, feature).
    """
    mask = np.asarray(in_mask, dtype=bool)
    n, d = states.shape
    if mask.shape != (n, n):
        raise ShapeError(f"neighbor_max: mask {mask.shape} != ({n}, {n})")
    if not mask.any(axis=1).all():
        raise ShapeError("neighbor_max: a row selects no inputs")
    expanded = np.where(mask[:, :, None], states.data[None, :, :], -np.inf)
    arg = expanded.argmax(axis=1)  # (n, d): source row per output cell
    data = np.take_along_axis(states.data, arg, axis=0)

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(states.data)
        cols = np.broadcast_to(np.arange(d), (n, d))
        np.add.at(full, (arg, cols), g)
        states.accumulate_grad(full)

    return _result(data, (states,), backward)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum of every entry, or over ``axis`` (which is dropped)."""
    data = np.asarray(a.data.sum(axis=axis))

    def backward(g: np.ndarray) -> None:
        if axis is not None:
            g = np.expand_dims(g, axis)
        a.accumulate_grad(np.broadcast_to(g, a.shape))

    return _result(data, (a,), backward)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into every reachable tensor that has
    ``requires_grad``. Gradients on intermediate nodes are freed once
    consumed, so only leaves keep a ``.grad`` after the call."""
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# parameters, optimizer, checkpoints

_MAGIC = b"GRSM"
_FORMAT_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}


class ParameterStore:
    """Named trainable tensors plus Adam state.

    Names are dotted paths assigned at creation time; iteration order is
    insertion order everywhere, which keeps initialization and checkpoint
    layout deterministic. A subset of names can be marked trainable; the
    rest are frozen: they receive no gradient and Adam never touches them.
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._trainable: set[str] | None = None  # None means every name
        self.step_count = 0

    def create(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(array, copy=True), requires_grad=True)
        self._params[name] = t
        self._m[name] = np.zeros_like(t.data)
        self._v[name] = np.zeros_like(t.data)
        return t

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def get(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def num_values(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    # -- freezing ----------------------------------------------------------

    def set_trainable(self, names: Iterable[str] | None) -> None:
        """Restrict training to ``names`` (None lifts the restriction).

        Frozen tensors get ``requires_grad`` cleared so backward skips
        them entirely; their Adam moments stay untouched as well.
        """
        if names is None:
            self._trainable = None
        else:
            chosen = set(names)
            unknown = chosen - set(self._params)
            if unknown:
                raise KeyError(f"unknown parameter names: {sorted(unknown)}")
            self._trainable = chosen
        for name, t in self._params.items():
            t.requires_grad = self.is_trainable(name)

    def is_trainable(self, name: str) -> bool:
        return self._trainable is None or name in self._trainable

    def trainable_names(self) -> list[str]:
        return [n for n in self._params if self.is_trainable(n)]

    def num_trainable_values(self) -> int:
        return sum(self._params[n].data.size for n in self.trainable_names())

    # -- optimizer ----------------------------------------------------------

    def adam_step(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                  eps: float = 1e-8, clip_norm: float | None = None) -> float:
        """One Adam update over the trainable subset; missing grads are
        treated as zero. Returns the pre-clip global gradient norm."""
        names = self.trainable_names()
        sq = 0.0
        for n in names:
            g = self._params[n].grad
            if g is not None:
                sq += float((g * g).sum())
        norm = sq ** 0.5
        scale_f = 1.0
        if clip_norm is not None and norm > clip_norm > 0:
            scale_f = clip_norm / norm
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for n in names:
            p = self._params[n]
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif scale_f != 1.0:
                g = g * scale_f
            m = self._m[n]
            v = self._v[n]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        return norm

    # -- checkpoints ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Write every parameter to ``path``.

        Layout: magic, format version (u32), parameter count (u32); per
        parameter: name length (u16) + UTF-8 name, dtype code (u8, 0 = f32
        / 1 = f64), rank (u8), dims (u32 each), then the raw row-major
        little-endian values. Round trips are bit exact.
        """
        with atomic_write(path) as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<II", _FORMAT_VERSION, len(self._params)))
            for name, t in self._params.items():
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                arr = np.asarray(t.data, order="C")  # keeps 0-d rank intact
                fh.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
                for d in arr.shape:
                    fh.write(struct.pack("<I", d))
                fh.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())

    def load(self, path: str) -> None:
        """Replace parameter values from ``path``; names and shapes must
        match this store exactly. Optimizer moments are reset."""
        loaded = read_checkpoint(path)
        if list(loaded) != list(self._params):
            raise CheckpointError(
                f"checkpoint {path} parameter names do not match the model")
        for name, arr in loaded.items():
            t = self._params[name]
            if arr.shape != t.data.shape:
                raise CheckpointError(
                    f"checkpoint shape {arr.shape} != model shape {t.data.shape}"
                    f" for {name!r}")
            t.data = arr
            self._m[name] = np.zeros_like(arr)
            self._v[name] = np.zeros_like(arr)
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
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
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
