"""Shared reference implementations used to cross-check the library.

Everything in this module is written independently of the package code:
finite differences instead of the tape, a textbook Adam update, and a
direct softmax. The loop beam search that the array one replaced is kept
here too, with the adapter that runs a per-prefix step under the beam's
batched step contract; it shares only the ``Hypothesis`` container and
the length normalization with the package. So is the per-example batch
loss that the packed one replaced, which runs the model one example at a
time, and the out-of-place attention and cross-entropy expressions that
the in-place ops replaced. Tests compare library output against these.
The set-up path's object versions are kept as well: the character-scan
tokenizer; the vocabulary counted and the examples linearized one string
and one token at a time, each string tokenized wherever it is read; and
the token graph built as a list of ``Edge`` objects from per-token
annotations read off the surface strings, with its counts, labels, JSON
record and graph tensors taken edge by edge.
GAT's messages are re-derived edge by edge, node by node and head by
head. So is ``pack``, which joined a batch's per-example edge lists
before a batch built its lists once from its examples' joined edge
arrays.

``mul`` and ``tsum`` are the exception: tape ops that only tests use,
to weight an op's output by a fixed probe and sum it.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from graphtext import tensor as T
from graphtext.data import (BOS_ID, DEFAULT_PROMPT, EOS_ID, GRAPH_TOKEN,
                            HEAD_TOKEN, REL_TOKEN, RESERVED_TOKENS,
                            TAIL_TOKEN, DataError, TokenizedGraphInput,
                            Vocabulary, normalize_entity)
from graphtext.gnn import NUM_RELATION_BUCKETS, GraphTensors
from graphtext.graph import (Direction, Edge, RelationType, build_graph,
                             reconstruction_targets)
from graphtext.decoding import Hypothesis, normalized_score
from graphtext.training import LossBreakdown, TrainItem


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


def mul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """Elementwise product with numpy broadcasting, on the tape."""
    ad, bd = a.data, b.data
    data = ad * bd

    def backward(g: np.ndarray, parents: tuple) -> None:
        parents[0]._accumulate_grad(T._unbroadcast(g * bd, ad.shape))
        parents[1]._accumulate_grad(T._unbroadcast(g * ad, bd.shape))

    return T._result(data, (a, b), backward)


def tsum(a: T.Tensor) -> T.Tensor:
    """Sum of every entry, on the tape."""
    shape = a.data.shape

    def backward(g: np.ndarray, parents: tuple) -> None:
        parents[0]._accumulate_grad(np.broadcast_to(g, shape))

    return T._result(np.asarray(a.data.sum()), (a,), backward)


def reference_attention(q, k, v, num_heads, segments, causal, g):
    """``tensor.attention`` on plain arrays with a fresh array per step of
    the softmax and of its backward. Returns the output and, for the
    upstream gradient ``g``, the gradients of q, k and v (summed over
    broadcast leading axes)."""
    d = q.shape[-1]
    dk = d // num_heads
    factor = 1.0 / math.sqrt(dk)

    def split(x):
        return x.reshape(*x.shape[:-1], num_heads, dk).swapaxes(-2, -3)

    def merge(x):
        return x.swapaxes(-2, -3).reshape(*x.shape[:-3], x.shape[-2], d)

    if segments is None:
        blocks = [(slice(None), slice(None))]
    else:
        nq = np.cumsum([0] + [a for a, _ in segments])
        nk = np.cumsum([0] + [b for _, b in segments])
        blocks = [(slice(a, b), slice(c, e))
                  for a, b, c, e in zip(nq, nq[1:], nk, nk[1:])]
    weights, outs = [], []
    for qs, ks in blocks:
        s = split(q[..., qs, :]) @ split(k[..., ks, :]).swapaxes(-1, -2)
        s *= factor
        if causal:
            s = np.where(np.tri(*s.shape[-2:], dtype=bool), s, -np.inf)
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        w = s / s.sum(axis=-1, keepdims=True)
        weights.append(w)
        outs.append(merge(w @ split(v[..., ks, :])))
    out = np.concatenate(outs, axis=-2)
    grads = ([], [], [])
    for (qs, ks), w in zip(blocks, weights):
        gh = split(g[..., qs, :])
        gw = gh @ split(v[..., ks, :]).swapaxes(-1, -2)
        gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
        gs *= factor
        grads[0].append(merge(gs @ split(k[..., ks, :])))
        grads[1].append(merge(gs.swapaxes(-1, -2) @ split(q[..., qs, :])))
        grads[2].append(merge(w.swapaxes(-1, -2) @ gh))
    full = [np.concatenate(parts, axis=-2) for parts in grads]
    return out, [f.sum(axis=tuple(range(f.ndim - x.ndim)))
                          if f.ndim > x.ndim else f
                          for x, f in zip((q, k, v), full)]


def reference_cross_entropy(x, ids, g):
    """``tensor.cross_entropy`` on plain arrays with a fresh array per
    step of the backward. Returns the summed loss and, for the upstream
    gradient ``g``, the gradient of the logits."""
    ids = np.asarray(ids, dtype=np.int64)
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    logp = x - lse
    rows = np.arange(len(ids))
    losses = -logp[rows, ids]
    probs = np.exp(logp)
    grad = probs.copy()
    grad[rows, ids] -= 1.0
    return losses.sum(), grad * float(g)


def reference_layer_norm(x, gain, bias, g):
    """``tensor.layer_norm`` on plain arrays, every row mean taken with
    ``ndarray.mean`` and a fresh array per step. Returns the output and,
    for the upstream gradient ``g``, the gradients of x, gain and bias."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv
    out = xhat * gain + bias
    gx = g * gain
    term = gx - gx.mean(axis=-1, keepdims=True) \
        - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
    return out, [term * inv, (g * xhat).reshape(-1, d).sum(axis=0),
                 g.reshape(-1, d).sum(axis=0)]


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


def tape_nodes(out) -> list:
    """Tape nodes reachable from ``out`` that carry a backward rule."""
    nodes, seen, stack = [], set(), [out._node or out]
    while stack:
        node = stack.pop()
        if node._backward is not None and id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def recorded_nodes(out) -> int:
    """How many tape nodes reachable from ``out`` carry a backward rule."""
    return len(tape_nodes(out))


def per_prefix_step(step):
    """The beam's step contract, ``step_fn(seqs, parents) -> (k, V)``, from
    a per-prefix ``step(prefix) -> (V,)``: one call per alive prefix,
    stacked in row order."""
    return lambda seqs, parents: np.stack([step(s) for s in seqs.tolist()])


def reference_beam_search(step_fn, config, bos_id: int = BOS_ID,
                          eos_id: int = EOS_ID) -> Hypothesis:
    """The loop beam search: one Python candidate per (beam, token), sorted
    on (-score, token sequence)."""
    beams = [Hypothesis([bos_id], 0.0)]
    finished: list[Hypothesis] = []
    slots = config.effective_beam
    max_new = config.max_target_length - 1  # budget excludes BOS
    for _ in range(max_new):
        if not beams or slots <= 0:
            break
        candidates: list[tuple[float, list[int]]] = []
        for hyp in beams:
            logp = step_fn(hyp.token_ids)
            for tok, lp in enumerate(logp):
                candidates.append((hyp.log_prob + float(lp),
                                   hyp.token_ids + [tok]))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = []
        for score, toks in candidates[:slots]:
            if toks[-1] == eos_id:
                finished.append(Hypothesis(toks, score))
                slots -= 1
            else:
                beams.append(Hypothesis(toks, score))
    finished.extend(beams)  # length-capped: the last token is not EOS
    return min(finished,
               key=lambda h: (-normalized_score(h, config.length_penalty),
                              h.token_ids))


def loop_batch_loss(model, items, lambda_gr: float,
                    disable_gr_loss: bool = False):
    """The batch loss one example at a time: each example is encoded and
    decoded on its own, and the per-example cross-entropy sums are added
    on the tape. Returns (loss tensor, LossBreakdown)."""
    tg_terms, gr_terms = [], []
    bd = LossBreakdown()
    for item in items:
        enc = model.encode(item.inp, item.gt)
        labels = item.target_ids[1:]
        logits = model.decode(item.target_ids[:-1], enc)
        tg_terms.append(T.cross_entropy(logits, labels))
        bd.num_tokens += len(labels)
        bd.tok_correct += int((logits.data.argmax(axis=-1)
                               == np.asarray(labels)).sum())
        ends, gr_labels = item.gr_targets[:2], item.gr_targets[2]
        if not disable_gr_loss and len(gr_labels):
            gr_logits = model.reconstruct_relations(enc, ends)
            gr_terms.append(T.cross_entropy(gr_logits, gr_labels))
            bd.num_pairs += len(gr_labels)
            bd.gr_correct += int((gr_logits.data.argmax(axis=-1)
                                  == gr_labels).sum())
    tg_total = _tape_sum(tg_terms)
    bd.tg_sum = float(tg_total.data)
    loss = T.scale(tg_total, 1.0 / bd.num_tokens)
    if gr_terms:
        gr_total = _tape_sum(gr_terms)
        bd.gr_sum = float(gr_total.data)
        loss = T.add(loss, T.scale(T.scale(gr_total, 1.0 / bd.num_pairs),
                                   lambda_gr))
    bd.l_total = float(loss.data)
    return loss, bd


def _tape_sum(terms):
    total = terms[0]
    for t in terms[1:]:
        total = T.add(total, t)
    return total


# -- set-up path: tokenizer and token graph, one object at a time -----------

_SCAN_PUNCT = set('.,;:!?()[]"\'')


def scan_tokenize(text: str) -> list[str]:
    """The tokenizer as a scan over characters: punctuation marks end the
    current run and stand alone."""
    out: list[str] = []
    for word in text.replace("_", " ").split():
        while (len(word) >= 2 and word[0] == '"' and word[-1] == '"'
               and '"' not in word[1:-1]):
            word = word[1:-1]
        run: list[str] = []
        for ch in word:
            if ch in _SCAN_PUNCT:
                if run:
                    out.append("".join(run))
                    run = []
                out.append(ch)
            else:
                run.append(ch)
        if run:
            out.append("".join(run))
    return out


def per_string_vocabulary(corpus, min_count: int = 1,
                          prompt: str = DEFAULT_PROMPT) -> Vocabulary:
    """The vocabulary with one ``Counter`` update per tokenized string:
    reserved tokens, then prompt tokens, then corpus tokens seen at least
    ``min_count`` times, in first-appearance order."""
    counts: Counter[str] = Counter()
    for ex in corpus:
        for tr in ex.triples:
            counts.update(scan_tokenize(tr.head))
            counts.update(scan_tokenize(tr.relation))
            counts.update(scan_tokenize(tr.tail))
        counts.update(scan_tokenize(ex.target_text))
    toks = list(RESERVED_TOKENS)
    for t in scan_tokenize(prompt):
        if t not in toks:
            toks.append(t)
    for t, count in counts.items():
        if t not in toks and count >= min_count:
            toks.append(t)
    return Vocabulary(toks)


def _unreserved(tokens: list[str], where: str) -> list[str]:
    for tok in tokens:
        if tok in RESERVED_TOKENS:
            raise DataError(f"{where} holds the reserved token {tok!r}")
    return tokens


# each span marker's string and the kind ``annotations_of`` gives it
_MARKER_KINDS = {HEAD_TOKEN: "SPECIAL_H", REL_TOKEN: "SPECIAL_R",
                 TAIL_TOKEN: "SPECIAL_T"}
SPECIAL_KINDS = tuple(_MARKER_KINDS.values())


def emit_linearize(example, prompt: str, vocab: Vocabulary,
                   max_sequence_length: int) -> TokenizedGraphInput:
    """The linearized example built one token at a time, the prompt
    tokenized and checked for every example."""
    if not example.triples:
        raise DataError("example has no triples")
    surface, span_keys = [], []
    for tok in _unreserved(scan_tokenize(prompt), "the prompt"):
        surface.append(tok)
    surface.append(GRAPH_TOKEN)
    for ti, triple in enumerate(example.triples):
        for (marker, kind), text in zip(_MARKER_KINDS.items(),
                                        (triple.head, triple.relation,
                                         triple.tail)):
            span_keys.append(normalize_entity(text))
            surface.append(marker)
            words = scan_tokenize(text)
            if not words:
                raise DataError(
                    f"triple {ti}: {kind} span tokenizes to nothing")
            for w in _unreserved(words, f"triple {ti}"):
                surface.append(w)
    if len(surface) > max_sequence_length:
        raise DataError(
            f"linearized length {len(surface)} exceeds the"
            f" {max_sequence_length}-token limit")
    return TokenizedGraphInput(token_ids=vocab.encode(surface), surface=surface,
                               span_keys=span_keys)


def annotations_of(inp) -> list[tuple[str, int | None, int | None]]:
    """Each token's (kind, triple, span), read from its surface string,
    not its id: PROMPT before the global marker, GLOBAL, a marker's kind,
    or ENTITY for a span's token; spans are numbered in sequence order,
    three to a triple."""
    out = []
    span = None
    for tok in inp.surface:
        if tok == GRAPH_TOKEN:
            out.append(("GLOBAL", None, None))
        elif tok in _MARKER_KINDS:
            span = 0 if span is None else span + 1
            out.append((_MARKER_KINDS[tok], span // 3, span))
        elif span is None:
            out.append(("PROMPT", None, None))
        else:
            out.append(("ENTITY", span // 3, span))
    return out


def per_example_items(examples, vocab: Vocabulary, model_config, *,
                      prompt: str = DEFAULT_PROMPT,
                      bidirectional: bool = True) -> list[TrainItem]:
    """``prepare_items`` example by example, tokenizing the target once
    for its ids and again for its reference tokens."""
    items = []
    for number, ex in enumerate(examples, start=1):
        try:
            inp = emit_linearize(ex, prompt, vocab,
                                 model_config.max_sequence_length)
            words = _unreserved(scan_tokenize(ex.target_text), "the text")
            target_ids = [BOS_ID] + vocab.encode(words) + [EOS_ID]
            if len(target_ids) > model_config.max_target_length:
                raise DataError(
                    f"target length {len(target_ids)} exceeds the"
                    f" {model_config.max_target_length}-token limit")
            g = build_graph(inp, bidirectional=bidirectional)
        except DataError as exc:
            raise DataError(f"example {number}: {exc}") from None
        items.append(TrainItem(
            inp=inp, graph=g if model_config.gnn is not None else None,
            target_ids=target_ids, gr_targets=reconstruction_targets(g),
            ref_tokens=scan_tokenize(ex.target_text)))
    return items


def edge_build_graph(inp, bidirectional: bool = True) -> list[Edge]:
    """The token graph's edges as ``Edge`` objects: forward edges rule by
    rule (R1-R5), then their reversed twins, then one self-loop a node."""
    n = len(inp)
    kinds, tri, span = zip(*annotations_of(inp))
    fwd: list[tuple[int, int, RelationType]] = []

    global_pos = kinds.index("GLOBAL")
    special_pos = [i for i, k in enumerate(kinds) if k in SPECIAL_KINDS]
    for s in special_pos:
        fwd.append((global_pos, s, RelationType.R1))

    by_triple: dict[int, dict[str, int]] = {}
    for s in special_pos:
        by_triple.setdefault(tri[s], {})[kinds[s]] = s
    for t in sorted(by_triple):
        trio = by_triple[t]
        fwd.append((trio["SPECIAL_H"], trio["SPECIAL_R"], RelationType.R2))
        fwd.append((trio["SPECIAL_R"], trio["SPECIAL_T"], RelationType.R2))

    span_tokens: dict[int, list[int]] = {}
    for i, k in enumerate(kinds):
        if k == "ENTITY":
            span_tokens.setdefault(span[i], []).append(i)
    for s in special_pos:
        for q in span_tokens.get(span[s], ()):
            fwd.append((s, q, RelationType.R3))

    for positions in span_tokens.values():
        for a, b in zip(positions, positions[1:]):
            fwd.append((a, b, RelationType.R4))

    keys = inp.span_keys
    for i, a in enumerate(special_pos):
        for b in special_pos[i + 1:]:
            if keys[span[a]] == keys[span[b]]:
                fwd.append((a, b, RelationType.R5))

    edges = [Edge(u, v, r, Direction.FORWARD) for u, v, r in fwd]
    if bidirectional:
        edges.extend(Edge(v, u, r, Direction.REVERSE) for u, v, r in fwd)
    edges.extend(Edge(i, i, RelationType.SELF, Direction.FORWARD)
                 for i in range(n))
    return edges


def _forward_labels(edges: list[Edge]) -> list[Edge]:
    return [e for e in edges
            if e.dir is Direction.FORWARD and e.rel is not RelationType.SELF]


def edge_counts_of(edges: list[Edge]) -> dict[str, dict[str, int]]:
    out = {"forward": {r.value: 0 for r in RelationType},
           "reverse": {r.value: 0 for r in RelationType}}
    for e in edges:
        bucket = "forward" if e.dir is Direction.FORWARD else "reverse"
        out[bucket][e.rel.value] += 1
    return out


def forward_edges_of(graph) -> list[Edge]:
    """A graph's forward non-self edges as ``Edge`` objects, in build
    order."""
    return _forward_labels(graph.edges)


def reconstruction_targets_of(edges: list[Edge]) -> list[tuple[int, int, int]]:
    """(src, dst, label) of each forward non-self edge, sorted; the label
    is the relation's position among R1-R5."""
    labels = [r for r in RelationType if r is not RelationType.SELF]
    return sorted((e.src, e.dst, labels.index(e.rel))
                  for e in _forward_labels(edges))


def graph_record_of(num_nodes: int, edges: list[Edge]) -> dict:
    order = {r: i for i, r in enumerate(RelationType)}
    edges = sorted(edges,
                   key=lambda e: (e.src, e.dst, order[e.rel], e.dir.value))
    return {"num_nodes": num_nodes,
            "edges": [[e.src, e.dst, e.rel.value, e.dir.value] for e in edges]}


def bucket_index(rel: RelationType, direction: Direction) -> int:
    """The relation bucket of an edge type: base relation x direction."""
    return 2 * list(RelationType).index(rel) + (direction is Direction.REVERSE)


def edge_graph_tensors(num_nodes: int, edges: list[Edge]) -> dict:
    """``GraphTensors``' arrays filled edge by edge, then normalized over
    whole rows."""
    n = num_nodes
    adj = np.zeros((n, n), dtype=bool)
    relations = np.zeros((n, 2 * len(RelationType) - 1, n), dtype=np.float64)
    for e in edges:
        adj[e.dst, e.src] = True
        relations[e.dst, bucket_index(e.rel, e.dir), e.src] = 1.0
    deg = adj.sum(axis=1, keepdims=True).astype(np.float64)
    bucket_deg = relations.sum(axis=2, keepdims=True)
    np.divide(relations, bucket_deg, out=relations, where=bucket_deg > 0)
    return {"in_mask": adj, "mean_matrix": adj / deg,
            "sum_matrix": adj.astype(np.float64), "relations": relations}


def pack(gts: Sequence[GraphTensors]) -> GraphTensors:
    """The graphs of a packed batch as one disconnected graph: example i's
    node ids are offset by its first row, the rows of the examples before
    it."""
    if len(gts) == 1:
        return gts[0]
    sizes = [g.num_nodes for g in gts]
    firsts = np.cumsum(sizes) - sizes
    pairs = np.concatenate([g.pairs for g in gts], axis=1)
    pairs += np.repeat(firsts, [g.pairs.shape[1] for g in gts])
    cells = np.concatenate([g.cells for g in gts], axis=1)
    cells += np.repeat(firsts, [g.cells.shape[1] for g in gts]) * np.array(
        [[1], [NUM_RELATION_BUCKETS]])
    return GraphTensors(
        num_nodes=sum(sizes), pairs=pairs,
        pair_weight=np.concatenate([g.pair_weight for g in gts]),
        cells=cells, cell_weight=np.concatenate([g.cell_weight for g in gts]))


def loop_gat_messages(states: np.ndarray, graphs, w: np.ndarray,
                      a_src: np.ndarray, a_dst: np.ndarray) -> np.ndarray:
    """GAT's head-averaged messages over a packed batch, one graph per
    consecutive segment of ``states``' rows: for each node and head, a
    softmax of LeakyReLU (slope 0.2) edge scores over the node's distinct
    in-neighbours, taken edge by edge."""
    heads = w.shape[0]
    out = np.zeros((len(states), w.shape[2]))
    start = 0
    for graph in graphs:
        for v in range(graph.num_nodes):
            nbrs = sorted({int(u) for u, t in zip(graph.src, graph.dst)
                           if t == v})
            for h in range(heads):
                proj = {u: states[start + u] @ w[h] for u in nbrs + [v]}
                scores = []
                for u in nbrs:
                    e = float(proj[v] @ a_dst[h, :, 0]
                              + proj[u] @ a_src[h, :, 0])
                    scores.append(e if e > 0 else 0.2 * e)
                top = max(scores)
                z = [math.exp(e - top) for e in scores]
                for u, zu in zip(nbrs, z):
                    out[start + v] += zu / sum(z) * proj[u] / heads
        start += graph.num_nodes
    return out
