"""Shared fixtures: the standard experiment pipeline, built once per seed,
and a child-process runner for calls that must not hang the suite.

The acceptance suite and several module tests all need the same trained
models, unlearning tasks, and retrain references. Building them is the
expensive part of the test run, so one lazily-filled Pipeline per seed
is shared across the whole session. The experiment is the one in
experiments/standard/, built by the CLI's own builders.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unlearnlab as ul
from unlearnlab.cli import (
    _build_arch,
    _build_datasets,
    _build_engine_cfg,
    _build_task,
    resolve_config,
)

SEEDS = (0, 1, 2)
STANDARD = Path(__file__).resolve().parents[1] / "experiments" / "standard"
EXPERIMENTS = ("train", "class", "sample")


def standard_config(name: str, seed: int) -> dict:
    """experiments/standard/<name>.json, resolved, with its dataset, engine
    and task seeds set to seed."""
    config = resolve_config(json.loads((STANDARD / f"{name}.json").read_text()))
    config["dataset"]["synthetic"]["seed"] = config["engine"]["seed"] = seed
    if config["task"] is not None:
        config["task"]["seed"] = seed
    return config


class Pipeline:
    """Artifacts for one seed, each built on first access and cached."""

    def __init__(self, seed: int):
        self.seed = seed
        self.configs = {name: standard_config(name, seed) for name in EXPERIMENTS}
        self._cache: dict = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def train_data(self) -> ul.Dataset:
        return self._data()[0]

    @property
    def test_data(self) -> ul.Dataset:
        return self._data()[1]

    def _data(self):
        return self._get("data", lambda: _build_datasets(self.configs["train"]))

    @property
    def arch(self) -> ul.ModelArchitecture:
        return _build_arch(self.configs["train"], self.train_data)

    def engine_config(self, name: str) -> ul.EngineConfig:
        """The EngineConfig the CLI builds from one of EXPERIMENTS: the task's
        loss variant, or for train, which reads no loss, the sample one."""
        task = self.configs[name]["task"]
        return _build_engine_cfg(self.configs[name], task["kind"] if task else "sample")

    def _task(self, name: str) -> ul.UnlearnTask:
        return self._get(
            f"{name}_task", lambda: _build_task(self.configs[name], self.train_data, self.test_data)
        )

    @property
    def class_task(self) -> ul.UnlearnTask:
        return self._task("class")

    @property
    def sample_task(self) -> ul.UnlearnTask:
        return self._task("sample")

    @property
    def base(self):
        """(params, record) from training on the full train split."""
        return self._get(
            "base", lambda: ul.train(self.arch, self.train_data, self.engine_config("train"))
        )

    @property
    def class_retrain(self):
        return self._get(
            "class_retrain",
            lambda: ul.retrain(self.arch, self.class_task, self.engine_config("train")),
        )

    @property
    def sample_retrain(self):
        return self._get(
            "sample_retrain",
            lambda: ul.retrain(self.arch, self.sample_task, self.engine_config("train")),
        )

    @property
    def class_unlearn(self):
        return self._get(
            "class_unlearn",
            lambda: ul.unlearn_contrastive(
                self.base[0], self.class_task, self.engine_config("class")
            ),
        )

    @property
    def sample_unlearn(self):
        return self._get(
            "sample_unlearn",
            lambda: ul.unlearn_contrastive(
                self.base[0], self.sample_task, self.engine_config("sample")
            ),
        )

    @property
    def sample_neggrad(self):
        return self._get(
            "sample_neggrad",
            lambda: ul.unlearn_neggrad(
                self.base[0], self.sample_task, self.engine_config("sample")
            ),
        )


@pytest.fixture(scope="session")
def pipelines() -> dict[int, Pipeline]:
    return {seed: Pipeline(seed) for seed in SEEDS}


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def python_in_child():
    """Run the interpreter on args in a child process with a 60 s limit,
    importing the package from where this process found it. A call that
    once hung then fails by its timeout instead of hanging the suite."""
    package_root = str(Path(ul.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))

    def run(*args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            env={**os.environ, "PYTHONPATH": pythonpath},
            capture_output=True,
            text=True,
            timeout=60,
        )

    return run
