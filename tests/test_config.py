import dataclasses

import pytest

from graphtext.config import _RENAMED, RunConfig
from graphtext.decoding import DecodeConfig
from graphtext.gnn import GnnConfig
from graphtext.model import ModelConfig
from graphtext.training import TrainConfig

# sub-config fields that RunConfig derives (vocab_size, gnn, in_dim,
# out_dim) or leaves at their defaults (identity_mode)
NOT_RUN_SETTINGS = {"vocab_size", "gnn", "in_dim", "out_dim", "identity_mode"}


def test_default_run_config_builds_default_sub_configs():
    rc = RunConfig()
    assert rc.train_config() == TrainConfig()
    assert rc.decode_config() == DecodeConfig()
    assert rc.model_config(37) == ModelConfig(vocab_size=37)


@pytest.mark.parametrize("cls", [ModelConfig, GnnConfig, TrainConfig,
                                 DecodeConfig])
def test_every_sub_config_field_is_reached_from_run_config(cls):
    settings = {f.name for f in dataclasses.fields(RunConfig)}
    unreached = [f.name for f in dataclasses.fields(cls)
                 if f.name not in NOT_RUN_SETTINGS
                 and _RENAMED.get(f.name, f.name) not in settings]
    assert not unreached
