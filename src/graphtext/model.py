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
final layer norm; positions use a learned embedding table. A batch runs
packed: its examples' token rows are concatenated into one block per
side, with no padding, and every row-wise layer is one tape op over the
block; attention and the graph step keep each example to its own rows.
Decoding runs the decoder one position at a time against a
``DecoderCache`` of the earlier positions' keys and values. For the
reconstruction objective, a linear head over each ordered node pair's
concatenated states, ``[h_u; h_v] W + b``, scores the pair against the
five structural relation labels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import MAX_SEQUENCE_LENGTH, MAX_TARGET_LENGTH, TokenizedGraphInput
from .gnn import GnnConfig, GnnLayer, GraphTensors, xavier
from .graph import LABEL_RELATIONS

VARIATIONS = ("BASE", "GRASAME", "VAR1", "VAR2")

NUM_EDGE_LABELS = len(LABEL_RELATIONS)


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
    max_sequence_length: int = MAX_SEQUENCE_LENGTH
    max_target_length: int = MAX_TARGET_LENGTH
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
                         weights: tuple[T.Tensor, T.Tensor, T.Tensor, T.Tensor],
                         num_heads: int,
                         segments: list[tuple[int, int]] | None = None,
                         causal: bool = False) -> T.Tensor:
    """Scaled dot-product attention under the projections ``weights``,
    (query, key, value, output); heads are column blocks of them. ``kv_in``
    is the states keys and values are projected from, or the (keys, values)
    pair already projected, as a :class:`DecoderCache` holds them.
    ``segments`` and ``causal`` are :func:`tensor.attention`'s: None lets
    every query attend every key, with leading axes of ``q_in`` a batch; a
    list of (query rows, key rows) counts keeps each example of a packed
    batch to its own rows."""
    wq, wk, wv, wo = weights
    k, v = kv_in if isinstance(kv_in, tuple) else (T.matmul(kv_in, wk),
                                                   T.matmul(kv_in, wv))
    out = T.attention(T.matmul(q_in, wq), k, v, num_heads, segments, causal)
    return T.matmul(out, wo)


def _graph_guided_attention(x: T.Tensor, graph: GraphTensors | None,
                            gnn_layer: GnnLayer | None, weights,
                            num_heads: int, variation: str,
                            segments: list[tuple[int, int]]) -> T.Tensor:
    """Route token states (and their GNN update over ``graph``, the packed
    batch's graph) into attention."""
    if variation == "BASE":
        return multi_head_attention(x, x, weights, num_heads, segments)
    if gnn_layer is None or graph is None:
        raise ValueError(f"variation {variation} requires a token graph")
    xt = gnn_layer.forward(x, graph)
    if variation == "GRASAME":
        q_in, kv_in = xt, x
    elif variation == "VAR1":
        q_in, kv_in = x, xt
    else:  # VAR2
        q_in, kv_in = xt, xt
    return multi_head_attention(q_in, kv_in, weights, num_heads, segments)


def _pack(inp) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The packed token ids of ``inp``, one input (a TokenizedGraphInput or
    its ids) or a list of them; each row's position, counted from 0 in
    each example; and each example's length."""
    if isinstance(inp, TokenizedGraphInput) or not len(inp) or isinstance(
            inp[0], (int, np.integer)):
        inp = [inp]
    ids = [x.token_ids if isinstance(x, TokenizedGraphInput) else x
           for x in inp]
    lengths = [len(x) for x in ids]
    return (np.concatenate(ids),
            np.concatenate([np.arange(n) for n in lengths]), lengths)


class Seq2SeqModel:
    """Owns the parameter store; forward passes build tape graphs on it."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.store = T.ParameterStore()
        try:
            self._create_parameters(np.random.default_rng(seed))
        except ValueError as exc:
            # numpy refuses an array of 2**63 bytes or more with ValueError
            raise MemoryError(str(exc)) from None

    def _create_parameters(self, rng: np.random.Generator) -> None:
        config = self.config
        d, ff = config.d_model, config.feedforward_dim
        pos_rows = max(config.max_sequence_length, config.max_target_length)

        def mat(name, fi, fo):
            return self.store.create(name, xavier(rng, fi, fo))

        def vec(name, n, value=0.0):
            return self.store.create(name, np.full(n, value, dtype=np.float64))

        def norm(p, key):  # a layer norm's gain and bias
            return {f"{key}_g": vec(f"{p}.{key}.g", d, 1.0),
                    f"{key}_b": vec(f"{p}.{key}.b", d)}

        def attn(p, part, key):  # query, key, value and output projections
            return {key + x: mat(f"{p}.{part}.{x}", d, d) for x in "qkvo"}

        def feedforward(p):
            return {"ff_w1": mat(f"{p}.ff.w1", d, ff),
                    "ff_b1": vec(f"{p}.ff.b1", ff),
                    "ff_w2": mat(f"{p}.ff.w2", ff, d),
                    "ff_b2": vec(f"{p}.ff.b2", d)}

        self.emb_tok = self.store.create(
            "emb.tok", rng.normal(0.0, 0.02, size=(config.vocab_size, d)))
        self.emb_pos = self.store.create(
            "emb.pos", rng.normal(0.0, 0.02, size=(pos_rows, d)))

        self.enc_layers = [{
            **norm(p, "ln1"), **attn(p, "attn", "w"), **norm(p, "ln2"),
            **feedforward(p),
            "gnn": None if config.variation == "BASE"
            else GnnLayer(config.gnn, self.store, f"{p}.gnn", rng)}
            for p in (f"enc.{i}" for i in range(config.num_encoder_layers))]
        self.enc_ln_g, self.enc_ln_b = norm("enc", "ln").values()

        self.dec_layers = [{
            **norm(p, "ln1"), **attn(p, "self", "s"), **norm(p, "ln2"),
            **attn(p, "cross", "c"), **norm(p, "ln3"), **feedforward(p)}
            for p in (f"dec.{i}" for i in range(config.num_decoder_layers))]
        self.dec_ln_g, self.dec_ln_b = norm("dec", "ln").values()

        self.gr_w = mat("gr_head.W", 2 * d, NUM_EDGE_LABELS)
        self.gr_b = vec("gr_head.b", NUM_EDGE_LABELS)
        self.lm_head = self.emb_tok if config.tie_embeddings else mat(
            "lm_head", config.vocab_size, d)

    # -- forward passes -----------------------------------------------------

    def _embed(self, token_ids, positions) -> T.Tensor:
        """Token plus position embeddings; ``positions`` runs along the
        last axis of ``token_ids``."""
        return T.add(T.embedding_lookup(self.emb_tok, token_ids),
                     T.embedding_lookup(self.emb_pos, positions))

    def _feedforward(self, layer, u: T.Tensor) -> T.Tensor:
        hidden = T.relu(T.add(T.matmul(u, layer["ff_w1"]), layer["ff_b1"]))
        return T.add(T.matmul(hidden, layer["ff_w2"]), layer["ff_b2"])

    def encode(self, inp, gt) -> T.Tensor:
        """Final encoder states, one row per input token, ready for the
        decoder and the relation head.

        ``inp`` is one input (a TokenizedGraphInput or its token ids), or a
        list of them: a packed batch whose examples' rows follow one
        another, each attending over its own rows only. ``gt`` is the graph
        tensors of all the rows (None for BASE), reused by every layer: one
        example's graph, or a batch's graphs joined into one.
        """
        ids, positions, lengths = _pack(inp)
        for n in lengths:
            if n > self.config.max_sequence_length:
                raise T.ShapeError(f"input length {n} exceeds the model maximum")
        if gt is not None and gt.num_nodes != sum(lengths):
            raise T.ShapeError(f"a graph of {gt.num_nodes} nodes for inputs"
                               f" of {sum(lengths)} tokens")
        segments = [(n, n) for n in lengths]
        x = self._embed(ids, positions)
        for layer in self.enc_layers:
            u = T.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
            x = T.add(x, _graph_guided_attention(
                u, gt, layer["gnn"],
                (layer["wq"], layer["wk"], layer["wv"], layer["wo"]),
                self.config.num_heads, self.config.variation, segments))
            u = T.layer_norm(x, layer["ln2_g"], layer["ln2_b"])
            x = T.add(x, self._feedforward(layer, u))
        return T.layer_norm(x, self.enc_ln_g, self.enc_ln_b)

    def decode(self, token_ids, enc_states: T.Tensor,
               cache: DecoderCache | None = None,
               enc_lengths: list[int] | None = None) -> T.Tensor:
        """Teacher-forced logits, one row per target position, under a
        causal mask.

        ``token_ids`` is one prefix, which cross-attends every row of
        ``enc_states``, or a list of prefixes: a packed batch whose example
        i cross-attends its own ``enc_lengths[i]`` rows, in order, of the
        states :meth:`encode` returned for the batch.

        With a ``cache`` (no-grad only), ``token_ids`` holds the next token
        of each cache row, all at the cache's next position. The step
        attends over each row's cached keys and values, appends its own,
        and returns (rows x 1 x vocab) logits.
        """
        if cache is None:
            ids, positions, lengths = _pack(token_ids)
            if enc_lengths is None and len(lengths) == 1:
                enc_lengths = [enc_states.shape[0]]
            if enc_lengths is None or len(enc_lengths) != len(lengths):
                raise T.ShapeError(
                    f"{len(lengths)} prefixes need as many encoder lengths")
            m = max(lengths)
            self_segments = [(n, n) for n in lengths]
            cross_segments = list(zip(lengths, enc_lengths))
        else:  # one sequence of one token per cache row
            if T._GRAD_ENABLED:  # the cache keeps values, not the tape
                raise RuntimeError("a cached decode step runs under T.no_grad()")
            ids = np.asarray(token_ids)[:, None]
            if len(ids) != cache.rows:
                raise T.ShapeError(
                    f"{len(ids)} next tokens for {cache.rows} cache rows")
            m = cache.length + 1
            positions = [cache.length]
            self_segments = cross_segments = None
        if m > self.config.max_target_length:
            raise T.ShapeError(
                f"target length {m} exceeds the model maximum")
        y = self._embed(ids, positions)
        heads = self.config.num_heads
        for i, layer in enumerate(self.dec_layers):
            u = T.layer_norm(y, layer["ln1_g"], layer["ln1_b"])
            kv = u if cache is None else cache._extend(i, u, layer["sk"],
                                                       layer["sv"])
            att = multi_head_attention(
                u, kv, (layer["sq"], layer["sk"], layer["sv"], layer["so"]),
                heads, self_segments, causal=cache is None)
            y = T.add(y, att)
            u = T.layer_norm(y, layer["ln2_g"], layer["ln2_b"])
            kv = enc_states if cache is None else cache.cross[i]
            att = multi_head_attention(
                u, kv, (layer["cq"], layer["ck"], layer["cv"], layer["co"]),
                heads, cross_segments)
            y = T.add(y, att)
            u = T.layer_norm(y, layer["ln3_g"], layer["ln3_b"])
            y = T.add(y, self._feedforward(layer, u))
        if cache is not None:
            cache.length = m
        y = T.layer_norm(y, self.dec_ln_g, self.dec_ln_b)
        return T.matmul(y, self.lm_head, transpose_b=True)

    def reconstruct_relations(self, enc_states: T.Tensor,
                              ends: np.ndarray) -> T.Tensor:
        """Relation logits (P x 5) of the ordered node pairs ``ends``, a
        (2, P) int array of source and target rows of ``enc_states``: the
        first two rows of :func:`graph.reconstruction_targets`."""
        if not ends.shape[1]:
            raise ValueError("no relation targets supplied")
        # (pairs, 2 * d_model): the source state, then the target state
        pair = T.merge_heads(T.embedding_lookup(enc_states, ends))
        return T.add(T.matmul(pair, self.gr_w), self.gr_b)


class DecoderCache:
    """What an incremental decode of one example keeps between steps. Per
    decoder layer: the self-attention keys and values of every position so
    far, (row, position, d_model) with one row per live hypothesis, and the
    cross-attention keys and values, projected once from the encoder
    states. No-grad only: the cached arrays carry no tape."""

    def __init__(self, model: Seq2SeqModel, enc_states: T.Tensor):
        self.length = 0  # positions cached in every row
        self.rows = 1
        self.cross = [(T.matmul(enc_states, layer["ck"]),
                       T.matmul(enc_states, layer["cv"]))
                      for layer in model.dec_layers]
        empty = np.zeros((1, 0, model.config.d_model))
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
        k, v = T.matmul(states, wk), T.matmul(states, wv)
        self.keys[i] = np.concatenate((self.keys[i], k.data), axis=-2)
        self.values[i] = np.concatenate((self.values[i], v.data), axis=-2)
        return T.Tensor(self.keys[i]), T.Tensor(self.values[i])
