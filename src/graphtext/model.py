"""Encoder-decoder with graph-guided self-attention in the encoder.

Each encoder layer first runs its token states through a single GNN step
over the token graph, then wires the result into multi-head attention
according to the selected variation:

* BASE     - plain attention, no GNN anywhere (and no GNN parameters);
* GRASAME  - queries from the GNN output, keys/values from raw states;
* VAR1     - keys/values from the GNN output, queries from raw states;
* VAR2     - queries, keys, and values all from the GNN output.

The decoder is a standard causal transformer with cross-attention. Both
halves are pre-norm (residual adds wrap layer-normed sublayers) with a
final layer norm; positions use a learned embedding table. Decoding
runs the decoder one position at a time against a ``DecoderCache`` of
the earlier positions' keys and values. A small bilinear head scores
ordered node pairs against the five structural relation labels for the
reconstruction objective.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import TokenizedGraphInput
from .gnn import GnnConfig, GnnLayer, GraphTensors, xavier
from .graph import LABEL_RELATIONS, RelationType

VARIATIONS = ("BASE", "GRASAME", "VAR1", "VAR2")

NUM_EDGE_LABELS = len(LABEL_RELATIONS)
LABEL_INDEX = {rel: i for i, rel in enumerate(LABEL_RELATIONS)}


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    num_heads: int = 4
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2
    feedforward_dim: int = 128
    variation: str = "GRASAME"
    gnn: GnnConfig | None = None
    max_sequence_length: int = 187
    max_target_length: int = 120
    tie_embeddings: bool = True

    def __post_init__(self) -> None:
        self.variation = self.variation.upper()
        if self.variation not in VARIATIONS:
            raise ValueError(f"unknown variation {self.variation!r}")
        if min(self.d_model, self.num_heads, self.feedforward_dim,
               self.max_sequence_length, self.max_target_length) < 1:
            raise ValueError("d_model, num_heads, feedforward_dim and the"
                             " maximum lengths must be >= 1")
        if min(self.num_encoder_layers, self.num_decoder_layers) < 0:
            raise ValueError("layer counts must be >= 0")
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by {self.num_heads} heads")
        if self.variation == "BASE":
            self.gnn = None
        elif self.gnn is None:
            self.gnn = GnnConfig(in_dim=self.d_model, out_dim=self.d_model)
        if self.gnn is not None and (self.gnn.in_dim != self.d_model
                                     or self.gnn.out_dim != self.d_model):
            raise ValueError("GNN dims must equal d_model for the residual path")


def multi_head_attention(q_in: T.Tensor,
                         kv_in: T.Tensor | tuple[T.Tensor, T.Tensor],
                         wq: T.Tensor, wk: T.Tensor, wv: T.Tensor, wo: T.Tensor,
                         num_heads: int, mask: np.ndarray | None = None
                         ) -> tuple[T.Tensor, T.Tensor]:
    """Scaled dot-product attention; heads are column blocks of the merged
    projection matrices, and leading axes of ``q_in`` are a batch.
    ``kv_in`` is the states keys and values are projected from, or the
    (keys, values) pair already projected, (..., head, key, d/h) each, as a
    :class:`DecoderCache` holds them. ``mask`` is (query, key) boolean,
    True = attend, for every head. Returns the output and the
    (..., head, query, key) weights."""
    dk = wq.shape[1] // num_heads
    q = T.split_heads(T.matmul(q_in, wq), num_heads)
    k, v = kv_in if isinstance(kv_in, tuple) else _kv_heads(kv_in, wk, wv,
                                                            num_heads)
    scores = T.scale(T.matmul(q, k, transpose_b=True), 1.0 / math.sqrt(dk))
    alpha = T.softmax_last_dim(scores, mask=mask)
    out = T.matmul(T.merge_heads(T.matmul(alpha, v)), wo)
    return out, alpha


def _kv_heads(states: T.Tensor, wk: T.Tensor, wv: T.Tensor,
              num_heads: int) -> tuple[T.Tensor, T.Tensor]:
    """The keys and values of ``states``, (..., head, position, d/h) each."""
    return (T.split_heads(T.matmul(states, wk), num_heads),
            T.split_heads(T.matmul(states, wv), num_heads))


def _graph_guided_attention(x: T.Tensor, gt: GraphTensors | None,
                            gnn_layer: GnnLayer | None, wq, wk, wv, wo,
                            num_heads: int, variation: str) -> T.Tensor:
    """Route token states (and their GNN update) into attention."""
    if variation == "BASE":
        return multi_head_attention(x, x, wq, wk, wv, wo, num_heads)[0]
    if gt is None or gnn_layer is None:
        raise ValueError(f"variation {variation} requires a token graph")
    xt = gnn_layer.forward(x, gt)
    if variation == "GRASAME":
        q_in, kv_in = xt, x
    elif variation == "VAR1":
        q_in, kv_in = x, xt
    else:  # VAR2
        q_in, kv_in = xt, xt
    return multi_head_attention(q_in, kv_in, wq, wk, wv, wo, num_heads)[0]


class Seq2SeqModel:
    """Owns the parameter store; forward passes build tape graphs on it."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.store = T.ParameterStore()
        rng = np.random.default_rng(seed)
        d = config.d_model
        pos_rows = max(config.max_sequence_length, config.max_target_length)

        def mat(name, fi, fo):
            return self.store.create(name, xavier(rng, fi, fo))

        def vec(name, n, value=0.0):
            return self.store.create(name, np.full(n, value, dtype=np.float64))

        self.emb_tok = self.store.create(
            "emb.tok", rng.normal(0.0, 0.02, size=(config.vocab_size, d)))
        self.emb_pos = self.store.create(
            "emb.pos", rng.normal(0.0, 0.02, size=(pos_rows, d)))

        self.enc_layers = []
        for i in range(config.num_encoder_layers):
            p = f"enc.{i}"
            layer = {
                "ln1_g": vec(f"{p}.ln1.g", d, 1.0), "ln1_b": vec(f"{p}.ln1.b", d),
                "wq": mat(f"{p}.attn.q", d, d), "wk": mat(f"{p}.attn.k", d, d),
                "wv": mat(f"{p}.attn.v", d, d), "wo": mat(f"{p}.attn.o", d, d),
                "gnn": None,
                "ln2_g": vec(f"{p}.ln2.g", d, 1.0), "ln2_b": vec(f"{p}.ln2.b", d),
                "ff_w1": mat(f"{p}.ff.w1", d, config.feedforward_dim),
                "ff_b1": vec(f"{p}.ff.b1", config.feedforward_dim),
                "ff_w2": mat(f"{p}.ff.w2", config.feedforward_dim, d),
                "ff_b2": vec(f"{p}.ff.b2", d),
            }
            if config.variation != "BASE":
                layer["gnn"] = GnnLayer(config.gnn, self.store, f"{p}.gnn", rng)
            self.enc_layers.append(layer)
        self.enc_ln_g = vec("enc.ln.g", d, 1.0)
        self.enc_ln_b = vec("enc.ln.b", d)

        self.dec_layers = []
        for i in range(config.num_decoder_layers):
            p = f"dec.{i}"
            self.dec_layers.append({
                "ln1_g": vec(f"{p}.ln1.g", d, 1.0), "ln1_b": vec(f"{p}.ln1.b", d),
                "sq": mat(f"{p}.self.q", d, d), "sk": mat(f"{p}.self.k", d, d),
                "sv": mat(f"{p}.self.v", d, d), "so": mat(f"{p}.self.o", d, d),
                "ln2_g": vec(f"{p}.ln2.g", d, 1.0), "ln2_b": vec(f"{p}.ln2.b", d),
                "cq": mat(f"{p}.cross.q", d, d), "ck": mat(f"{p}.cross.k", d, d),
                "cv": mat(f"{p}.cross.v", d, d), "co": mat(f"{p}.cross.o", d, d),
                "ln3_g": vec(f"{p}.ln3.g", d, 1.0), "ln3_b": vec(f"{p}.ln3.b", d),
                "ff_w1": mat(f"{p}.ff.w1", d, config.feedforward_dim),
                "ff_b1": vec(f"{p}.ff.b1", config.feedforward_dim),
                "ff_w2": mat(f"{p}.ff.w2", config.feedforward_dim, d),
                "ff_b2": vec(f"{p}.ff.b2", d),
            })
        self.dec_ln_g = vec("dec.ln.g", d, 1.0)
        self.dec_ln_b = vec("dec.ln.b", d)

        self.gr_w = mat("gr_head.W", 2 * d, NUM_EDGE_LABELS)
        self.gr_b = vec("gr_head.b", NUM_EDGE_LABELS)
        self.lm_head = self.emb_tok if config.tie_embeddings else mat(
            "lm_head", config.vocab_size, d)

    # -- forward passes -----------------------------------------------------

    def _embed(self, token_ids, start: int = 0) -> T.Tensor:
        """Token plus position embeddings; positions run along the last
        axis of ``token_ids`` from ``start``."""
        n = np.shape(token_ids)[-1]
        return T.add(T.embedding_lookup(self.emb_tok, token_ids),
                     T.embedding_lookup(self.emb_pos,
                                        list(range(start, start + n))))

    def _feedforward(self, layer, u: T.Tensor) -> T.Tensor:
        hidden = T.relu(T.add(T.matmul(u, layer["ff_w1"]), layer["ff_b1"]))
        return T.add(T.matmul(hidden, layer["ff_w2"]), layer["ff_b2"])

    def encode(self, inp: TokenizedGraphInput | list[int],
               gt: GraphTensors | None) -> T.Tensor:
        """Final encoder states (seq x d_model), ready for the decoder and
        the relation head."""
        token_ids = inp.token_ids if isinstance(inp, TokenizedGraphInput) else inp
        if len(token_ids) > self.config.max_sequence_length:
            raise T.ShapeError(
                f"input length {len(token_ids)} exceeds the model maximum")
        x = self._embed(token_ids)
        for layer in self.enc_layers:
            u = T.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
            x = T.add(x, _graph_guided_attention(
                u, gt, layer["gnn"], layer["wq"], layer["wk"], layer["wv"],
                layer["wo"], self.config.num_heads, self.config.variation))
            u = T.layer_norm(x, layer["ln2_g"], layer["ln2_b"])
            x = T.add(x, self._feedforward(layer, u))
        return T.layer_norm(x, self.enc_ln_g, self.enc_ln_b)

    def decode(self, token_ids, enc_states: T.Tensor,
               cache: DecoderCache | None = None) -> T.Tensor:
        """Teacher-forced logits (prefix_len x vocab) under a causal mask.

        With a ``cache`` (no-grad only), ``token_ids`` holds the next token
        of each cache row, all at the cache's next position. The step
        attends over each row's cached keys and values, appends its own,
        and returns (rows x 1 x vocab) logits.
        """
        if cache is None:
            start, ids = 0, token_ids
        else:  # one sequence of one token per cache row
            if T._GRAD_ENABLED:  # the cache keeps values, not the tape
                raise RuntimeError("a cached decode step runs under T.no_grad()")
            start, ids = cache.length, np.asarray(token_ids)[:, None]
            if len(ids) != cache.rows:
                raise T.ShapeError(
                    f"{len(ids)} next tokens for {cache.rows} cache rows")
        m = start + np.shape(ids)[-1]
        if m > self.config.max_target_length:
            raise T.ShapeError(
                f"target length {m} exceeds the model maximum")
        y = self._embed(ids, start)
        causal = np.tril(np.ones((m, m), dtype=bool)) if cache is None else None
        heads = self.config.num_heads
        for i, layer in enumerate(self.dec_layers):
            u = T.layer_norm(y, layer["ln1_g"], layer["ln1_b"])
            kv = u if cache is None else cache._extend(i, u, layer["sk"],
                                                       layer["sv"])
            att, _ = multi_head_attention(u, kv, layer["sq"], layer["sk"],
                                          layer["sv"], layer["so"], heads,
                                          mask=causal)
            y = T.add(y, att)
            u = T.layer_norm(y, layer["ln2_g"], layer["ln2_b"])
            kv = enc_states if cache is None else cache.cross[i]
            att, _ = multi_head_attention(u, kv, layer["cq"], layer["ck"],
                                          layer["cv"], layer["co"], heads)
            y = T.add(y, att)
            u = T.layer_norm(y, layer["ln3_g"], layer["ln3_b"])
            y = T.add(y, self._feedforward(layer, u))
        if cache is not None:
            cache.length = m
        y = T.layer_norm(y, self.dec_ln_g, self.dec_ln_b)
        return T.matmul(y, self.lm_head, transpose_b=True)

    def reconstruct_relations(self, enc_states: T.Tensor,
                              targets: list[tuple[int, int, RelationType]]
                              ) -> T.Tensor:
        """Logits (num_pairs x 5) for the labeled forward edges."""
        if not targets:
            raise ValueError("no relation targets supplied")
        ends = [[u for u, _, _ in targets], [v for _, v, _ in targets]]
        # (pairs, 2 * d_model): the source state, then the target state
        pair = T.merge_heads(T.embedding_lookup(enc_states, ends))
        return T.add(T.matmul(pair, self.gr_w), self.gr_b)


class DecoderCache:
    """What an incremental decode of one example keeps between steps. Per
    decoder layer: the self-attention keys and values of every position so
    far, one row per live hypothesis, and the cross-attention keys and
    values, projected once from the encoder states. No-grad only: the
    cached arrays carry no tape."""

    def __init__(self, model: Seq2SeqModel, enc_states: T.Tensor):
        heads = model.config.num_heads
        self.num_heads = heads
        self.length = 0  # positions cached in every row
        self.rows = 1
        self.cross = [_kv_heads(enc_states, layer["ck"], layer["cv"], heads)
                      for layer in model.dec_layers]
        empty = np.zeros((1, heads, 0, model.config.d_model // heads))
        self.keys = [empty] * len(model.dec_layers)
        self.values = list(self.keys)

    def reorder(self, parents) -> None:
        """Row i becomes a copy of the current row ``parents[i]``; rows not
        named are dropped."""
        self.rows = len(parents)
        self.keys = [k[parents] for k in self.keys]
        self.values = [v[parents] for v in self.values]

    def _extend(self, i: int, states: T.Tensor, wk: T.Tensor, wv: T.Tensor
                ) -> tuple[T.Tensor, T.Tensor]:
        """Append the keys and values of ``states`` (rows, 1, d) to layer
        ``i`` and return all of that layer's keys and values."""
        k, v = _kv_heads(states, wk, wv, self.num_heads)
        self.keys[i] = np.concatenate((self.keys[i], k.data), axis=-2)
        self.values[i] = np.concatenate((self.values[i], v.data), axis=-2)
        return T.Tensor(self.keys[i]), T.Tensor(self.values[i])


def relation_label_ids(targets: list[tuple[int, int, RelationType]]) -> list[int]:
    return [LABEL_INDEX[rel] for _, _, rel in targets]
