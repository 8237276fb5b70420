"""One flat run configuration shared by every CLI subcommand.

The JSON config file holds the same field names as RunConfig; unknown
keys are rejected so typos fail loudly. Command-line flags override file
values, and the merged result is written next to the run's outputs so
any run can be reproduced from its own directory.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from .data import (DEFAULT_PROMPT, MAX_SEQUENCE_LENGTH, MAX_TARGET_LENGTH,
                   RESERVED_TOKENS, DataError, atomic_write)
from .decoding import DecodeConfig
from .gnn import GnnConfig
from .model import ModelConfig
from .training import TrainConfig

# sub-config fields whose RunConfig field has another name
_RENAMED = {"family": "gnn_family", "mode": "decode_mode"}


@dataclass
class RunConfig:
    # data handling
    prompt: str = DEFAULT_PROMPT
    vocab_min_count: int = 1
    max_sequence_length: int = MAX_SEQUENCE_LENGTH
    max_target_length: int = MAX_TARGET_LENGTH
    # model shape
    d_model: int = 64
    num_heads: int = 4
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2
    feedforward_dim: int = 128
    variation: str = "GRASAME"
    gnn_family: str = "SAGE"
    sage_aggregator: str = "MEAN"
    gat_heads: int = 4
    tie_embeddings: bool = True
    # optimization
    epochs: int = 10
    batch_size: int = 10
    learning_rate: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 1.0
    lambda_gr: float = 0.08
    freeze_mode: str = "NONE"
    disable_gr_loss: bool = False
    unidirectional_edges: bool = False
    seed: int = 123
    eval_every: int = 1
    stop_token_accuracy: float | None = None
    stop_gr_accuracy: float | None = None
    # decoding
    decode_mode: str = "BEAM"
    beam_size: int = 3
    length_penalty: float = 1.0

    def __post_init__(self) -> None:
        # upper-cased here too so the saved config.json shows what ran
        self.variation = self.variation.upper()
        self.gnn_family = self.gnn_family.upper()
        self.sage_aggregator = self.sage_aggregator.upper()
        self.freeze_mode = self.freeze_mode.upper()
        self.decode_mode = self.decode_mode.upper()
        # each sub-config checks its own fields; the smallest vocabulary
        # stands in for the one the data will give
        self.model_config(len(RESERVED_TOKENS))
        self.train_config()
        self.decode_config()

    def model_config(self, vocab_size: int) -> ModelConfig:
        # ModelConfig drops the GNN config for BASE
        gnn = self._build(GnnConfig, in_dim=self.d_model, out_dim=self.d_model)
        return self._build(ModelConfig, vocab_size=vocab_size, gnn=gnn)

    def train_config(self) -> TrainConfig:
        return self._build(TrainConfig)

    def decode_config(self) -> DecodeConfig:
        return self._build(DecodeConfig)

    def _build(self, cls, **derived):
        """``cls`` from this config's fields of the same names plus
        ``derived``; a field this config does not carry keeps its default."""
        own = {f.name for f in dataclasses.fields(self)}
        values = {f.name: getattr(self, _RENAMED.get(f.name, f.name))
                  for f in dataclasses.fields(cls)
                  if _RENAMED.get(f.name, f.name) in own}
        return cls(**values, **derived)


# the JSON types each annotation admits; Python counts a bool as an int,
# so a bool passes only where the annotation says bool
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool,
               "None": type(None)}


def load_config(path: str | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus overrides."""
    values: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"config is not valid JSON: {exc.msg}") from None
            except UnicodeDecodeError as exc:
                raise DataError(
                    f"{path} is not UTF-8 text: {exc.reason}") from None
        if not isinstance(values, dict):
            raise DataError("config file must hold a JSON object")
    overrides = overrides or {}
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    unknown = sorted((set(values) | set(overrides)) - set(types))
    if unknown:
        raise DataError(f"unknown config keys: {', '.join(unknown)}")
    values.update((k, v) for k, v in overrides.items() if v is not None)
    for key, value in values.items():
        if not any(isinstance(value, _JSON_TYPES[t])
                   and isinstance(value, bool) == (t == "bool")
                   for t in types[key].split(" | ")):
            raise DataError(f"bad config value: {key} must be {types[key]},"
                            f" got {value!r}")
        # json reads NaN, Infinity and ints of any size; no setting takes
        # the first two, and numpy takes no size or count beyond 64 bits
        if isinstance(value, float) and not math.isfinite(value):
            raise DataError(f"bad config value: {key} must be finite,"
                            f" got {value!r}")
        if isinstance(value, int) and not -2 ** 63 <= value < 2 ** 63:
            raise DataError(f"bad config value: {key} must fit in 64 bits")
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad config value: {exc}") from None


def save_config(config: RunConfig, path: str) -> None:
    text = json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True)
    with atomic_write(path) as fh:
        fh.write((text + "\n").encode("utf-8"))
