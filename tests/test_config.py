import ast
import dataclasses
import pathlib

import pytest

import graphtext

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


# The most settable values the package may have. A settable value is a
# field of a config class or a parameter of a public function or public
# method (``__init__`` included; ``self`` and ``cls`` not). Lower this when
# a change removes one; a change that adds one must make the case for it.
MAX_SETTABLE_VALUES = 225
CONFIG_CLASSES = {"RunConfig", "ModelConfig", "GnnConfig", "TrainConfig",
                  "DecodeConfig"}


def _parameter_count(fn: ast.FunctionDef, bound: bool) -> int:
    a = fn.args
    names = a.posonlyargs + a.args + a.kwonlyargs + [
        x for x in (a.vararg, a.kwarg) if x is not None]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    return len(names) - (bound and not static and bool(names))


def settable_values() -> int:
    total = 0
    for path in sorted(pathlib.Path(graphtext.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                total += _parameter_count(node, bound=False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if node.name in CONFIG_CLASSES:
                    total += sum(isinstance(s, ast.AnnAssign)
                                 for s in node.body)
                total += sum(_parameter_count(s, bound=True) for s in node.body
                             if isinstance(s, ast.FunctionDef)
                             and (not s.name.startswith("_")
                                  or s.name == "__init__"))
    return total


def test_settable_values_do_not_grow():
    assert settable_values() <= MAX_SETTABLE_VALUES
