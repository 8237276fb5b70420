"""Shared reference implementations used to cross-check the library.

Everything in this module is written independently of the package code:
finite differences instead of the tape, a textbook Adam update, and a
direct softmax. Tests compare library output against these.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def finite_difference(f: Callable[[], float], arrays: Sequence[np.ndarray],
                      step: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient of ``f`` w.r.t. each array in place.

    ``f`` must recompute the scalar from the arrays' current contents.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f()
            flat[i] = orig - step
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def sampled_finite_difference(f: Callable[[], float], arr: np.ndarray,
                              coords: Sequence[int],
                              step: float = 1e-5) -> np.ndarray:
    """Central differences at selected flat coordinates only."""
    flat = arr.reshape(-1)
    out = np.zeros(len(coords), dtype=np.float64)
    for k, i in enumerate(coords):
        orig = flat[i]
        flat[i] = orig + step
        hi = f()
        flat[i] = orig - step
        lo = f()
        flat[i] = orig
        out[k] = (hi - lo) / (2.0 * step)
    return out


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Worst-case |a-b| / max(|a|, |b|, floor) over all coordinates."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def reference_softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class ReferenceAdam:
    """Adam written straight from the update equations, for comparison."""

    def __init__(self, shapes, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m[...] = self.b1 * m + (1 - self.b1) * g
            v[...] = self.b2 * v + (1 - self.b2) * g * g
            mhat = m / (1 - self.b1 ** self.t)
            vhat = v / (1 - self.b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def recorded_nodes(out) -> int:
    """Tape nodes reachable from ``out`` that carry a backward rule."""
    recorded, stack = set(), [out]
    while stack:
        node = stack.pop()
        if node._backward is not None and id(node) not in recorded:
            recorded.add(id(node))
            stack.extend(node._parents)
    return len(recorded)
