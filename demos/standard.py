"""The standard experiment every demo runs, as library objects.

The acceptance suite's recipe is written once, as the CLI config files
in experiments/standard/. This module reads them through the CLI's
config check and builds them with the CLI's own builders; a seed sets
the dataset's, the engine's and the task's seed, as the test suite's
pipelines do. It is a helper the demos import, not a demo.
"""

import json
from pathlib import Path

from unlearnlab.cli import (
    _build_arch,
    _build_datasets,
    _build_engine_cfg,
    _build_task,
    resolve_config,
)

STANDARD = Path(__file__).resolve().parents[1] / "experiments" / "standard"


def config(name: str, seed: int) -> dict:
    """experiments/standard/<name>.json, resolved, with its seeds set to seed."""
    resolved = resolve_config(json.loads((STANDARD / f"{name}.json").read_text()))
    resolved["dataset"]["synthetic"]["seed"] = resolved["engine"]["seed"] = seed
    if resolved["task"] is not None:
        resolved["task"]["seed"] = seed
    return resolved


def training(seed: int):
    """(train split, test split, architecture, EngineConfig) of train.json."""
    train_cfg = config("train", seed)
    train, test = _build_datasets(train_cfg)
    return train, test, _build_arch(train_cfg, train), _build_engine_cfg(train_cfg, "sample")


def unlearning(name: str, seed: int, train, test):
    """(UnlearnTask, EngineConfig) of class.json or sample.json on a split pair."""
    task_cfg = config(name, seed)
    return _build_task(task_cfg, train, test), _build_engine_cfg(task_cfg, name)
