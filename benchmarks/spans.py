"""In-memory span tracer that wraps the program's public functions.

:func:`install` replaces every public function and method of the layer
modules (``data``, ``graph``, ``gnn``, ``model``, ``tensor``,
``training``, ``decoding``, ``metrics``) with a wrapper that records one
span per call: name, start, end, parent span and the id of the example
or batch being processed. It patches module globals and class
attributes in place, including names other modules imported with
``from ... import``, so nothing under ``src/`` is edited. The patch
lasts for the life of the process.

The benchmark opens its own root spans (``setup``, ``step``, ``check``,
``validate``) with :meth:`Tracer.root`; layer spans nest under them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

from graphtext.data import EOS_ID

LAYERS = ("data", "graph", "gnn", "model", "tensor", "training",
          "decoding", "metrics")

# context-manager factories, not computation
_SKIP = {"tensor.no_grad", "tensor.checked"}
# tensor-module functions that are not tape ops
_NOT_OPS = {"tensor.backward", "tensor.read_checkpoint"}


class Tracer:
    """Spans as parallel lists: ``names``, ``parents`` (index, -1 for a
    root), ``ids``, ``starts``, ``ends`` (``perf_counter`` seconds)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._id = -1

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ids.append(self._id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def root(self, name: str, unit_id: int):
        """A benchmark-level span; layer spans inside it get ``unit_id``."""
        self._id = unit_id
        idx = self._open(name)
        self.starts[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            self.starts[idx] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, idx, args, out)
            return out

        return traced

    def write(self, path: str) -> None:
        """JSON lines: a header with the span names and counters, then one
        ``[name index, start ns, end ns, parent, id]`` row per span, times
        from the first span's start."""
        table = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": list(table),
                                 "fields": ["name", "start_ns", "end_ns",
                                            "parent", "id"],
                                 "counts": dict(self.counts)}) + "\n")
            for name, start, end, parent, unit in zip(
                    self.names, self.starts, self.ends, self.parents,
                    self.ids):
                fh.write(f"[{table[name]},{round((start - t0) * 1e9)},"
                         f"{round((end - t0) * 1e9)},{parent},{unit}]\n")


# -- counters taken at the same boundaries as the spans -----------------------

def _count_edges(tr: Tracer, idx, args, graph) -> None:
    tr.counts["graph.edges"] += len(graph.edges)


def _count_tensor_bytes(tr: Tracer, idx, args, gt) -> None:
    mats = [gt.mean_matrix, gt.sum_matrix,
            *(m for m in gt.bucket_matrices if m is not None)]
    tr.counts["gnn.tensor_bytes"] += gt.in_mask.nbytes + sum(
        m.data.nbytes for m in mats)
    tr.counts["gnn.tensor_sets"] += 1


def _count_positions(tr: Tracer, idx, args, logits) -> None:
    # args: (model, prefix_ids, enc_states, ...)
    if _under(tr, idx, "decoding.beam_search"):
        tr.counts["model.decode_positions"] += len(args[1])
        tr.counts["decoding.candidates"] += logits.shape[-1]


def _count_returned(tr: Tracer, idx, args, hyp) -> None:
    tr.counts["decoding.returned_tokens"] += len(hyp.token_ids) - 1
    tr.counts["decoding.results"] += 1
    tr.counts["decoding.capped"] += int(hyp.token_ids[-1] != EOS_ID)


_COUNTERS = {
    "graph.build_graph": _count_edges,
    "gnn.graph_tensors": _count_tensor_bytes,
    "model.Seq2SeqModel.decode": _count_positions,
    "decoding.decode_example": _count_returned,
}


def _under(tr: Tracer, idx: int, name: str) -> bool:
    p = tr.parents[idx]
    while p >= 0:
        if tr.names[p] == name:
            return True
        p = tr.parents[p]
    return False


# -- installation -------------------------------------------------------------

def _targets(module, layer: str):
    """(qualified name, owner, attribute, function) for each public callable
    defined in ``module``."""
    for attr, obj in list(vars(module).items()):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not attr.startswith("_"):
            yield f"{layer}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for mname, meth in list(vars(obj).items()):
                # constructors such as model init get spans; Tensor's runs
                # inside every op and would only add overhead
                public = not mname.startswith("_") or (
                    mname == "__init__" and not dataclasses.is_dataclass(obj)
                    and obj.__name__ != "Tensor")
                if inspect.isfunction(meth) and public:
                    yield f"{layer}.{obj.__name__}.{mname}", obj, mname, meth


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules for ``tracer``."""
    modules = [importlib.import_module(f"graphtext.{m}") for m in LAYERS]
    replaced = {}
    for layer, module in zip(LAYERS, modules):
        for name, owner, attr, fn in _targets(module, layer):
            if name in _SKIP:
                continue
            wrapped = tracer.wrap(name, fn)
            setattr(owner, attr, wrapped)
            replaced[id(fn)] = wrapped
    # names bound elsewhere by ``from .x import f``
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "graphtext" or mod_name.startswith("graphtext."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and obj is not replaced[id(obj)]:
                    setattr(module, attr, replaced[id(obj)])


# -- summary ------------------------------------------------------------------

def tape_op(name: str) -> bool:
    parts = name.split(".")
    return parts[0] == "tensor" and len(parts) == 2 and name not in _NOT_OPS


class Summary:
    """Durations, self times and root phase of every span."""

    def __init__(self, tr: Tracer) -> None:
        n = len(tr.names)
        self.tr = tr
        self.dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
        self.self_time = list(self.dur)
        self.root = [0] * n
        for i in range(n):
            p = tr.parents[i]
            if p >= 0:
                self.self_time[p] -= self.dur[i]
                self.root[i] = self.root[p]  # parents precede children
            else:
                self.root[i] = i
        self.layer = [name.split(".")[0] for name in tr.names]

    def spans(self, phases):
        """Indices of non-root spans whose root is one of ``phases``."""
        names = self.tr.names
        return [i for i in range(len(names))
                if self.tr.parents[i] >= 0 and names[self.root[i]] in phases]

    def roots(self, phase: str) -> list[int]:
        return [i for i, name in enumerate(self.tr.names)
                if self.tr.parents[i] < 0 and name == phase]

    def total(self, idx, name: str) -> float:
        """Seconds in calls to ``name`` not nested in another such call."""
        names = self.tr.names
        parents = self.tr.parents
        out = 0.0
        for i in idx:
            if names[i] == name and names[parents[i]] != name:
                out += self.dur[i]
        return out

    def layer_times(self, idx) -> dict[str, tuple[float, float]]:
        """layer -> (total seconds, self seconds)."""
        out = {layer: [0.0, 0.0] for layer in LAYERS}
        parents = self.tr.parents
        for i in idx:
            layer = self.layer[i]
            out[layer][1] += self.self_time[i]
            if self.layer[parents[i]] != layer:
                out[layer][0] += self.dur[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def below(self, idx, outer: str, layer: str) -> float:
        """Seconds of ``layer`` spans directly under ``outer`` spans (the
        outermost ``layer`` span below each ``outer`` call)."""
        parents = self.tr.parents
        out = 0.0
        for i in idx:
            if self.layer[i] != layer or self.layer[parents[i]] == layer:
                continue
            if _under(self.tr, i, outer):
                out += self.dur[i]
        return out
