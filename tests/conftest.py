"""Shared fixtures: the standard experiment pipeline, built once per seed,
and a child-process runner for calls that must not hang the suite.

The acceptance suite and several module tests all need the same trained
models, unlearning tasks, and retrain references. Building them is the
expensive part of the test run, so one lazily-filled Pipeline per seed
is shared across the whole session.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unlearnlab as ul

SEEDS = (0, 1, 2)
NUM_CLASSES = 4
DIM = 8
PER_CLASS_TRAIN = 500
PER_CLASS_TEST = 100
# Cluster separation where the base model generalizes imperfectly; a
# model with no train/test gap leaves nothing for unlearning or the
# membership attack to detect.
SPREAD = 0.7
UNLEARN_CLASS = 2
SAMPLE_COUNT = 100

ARCH = ul.ModelArchitecture(
    input_dim=DIM, hidden=(32, 32), embedding_dim=16, num_classes=NUM_CLASSES
)


def train_config(seed: int) -> ul.EngineConfig:
    return ul.EngineConfig(seed=seed, max_epochs=400, learning_rate=0.15, batch_size=32)


def class_unlearn_config(seed: int) -> ul.EngineConfig:
    # The unlearning term sums over up to batch_size anchors while the
    # restore term is a mean, so its weight is scaled well below 1/B.
    return ul.EngineConfig(
        seed=seed,
        batch_size=32,
        learning_rate=0.05,
        remaining_resamples=2,
        loss=ul.LossConfig(variant="class", unlearn_weight=1.0 / 128.0, ce_weight=2.0),
    )


def sample_unlearn_config(seed: int) -> ul.EngineConfig:
    return ul.EngineConfig(
        seed=seed,
        batch_size=32,
        learning_rate=0.05,
        remaining_resamples=1,
        loss=ul.LossConfig(variant="sample", unlearn_weight=1.0 / 32.0, ce_weight=1.0),
    )


class Pipeline:
    """Artifacts for one seed, each built on first access and cached."""

    def __init__(self, seed: int):
        self.seed = seed
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
        return self._get(
            "data",
            lambda: ul.generate_synthetic(
                NUM_CLASSES,
                DIM,
                PER_CLASS_TRAIN,
                PER_CLASS_TEST,
                spread=SPREAD,
                seed=self.seed,
            ),
        )

    @property
    def base(self):
        """(params, record) from training on the full train split."""
        return self._get(
            "base", lambda: ul.train(ARCH, self.train_data, train_config(self.seed))
        )

    @property
    def class_task(self) -> ul.UnlearnTask:
        return self._get(
            "class_task",
            lambda: ul.make_task(
                self.train_data,
                self.test_data,
                ul.TaskSpec(kind="class", class_id=UNLEARN_CLASS),
            ),
        )

    @property
    def sample_task(self) -> ul.UnlearnTask:
        return self._get(
            "sample_task",
            lambda: ul.make_task(
                self.train_data,
                self.test_data,
                ul.TaskSpec(kind="sample", sample_count=SAMPLE_COUNT, seed=self.seed),
            ),
        )

    @property
    def class_retrain(self):
        return self._get(
            "class_retrain",
            lambda: ul.retrain(ARCH, self.class_task, train_config(self.seed)),
        )

    @property
    def sample_retrain(self):
        return self._get(
            "sample_retrain",
            lambda: ul.retrain(ARCH, self.sample_task, train_config(self.seed)),
        )

    @property
    def class_unlearn(self):
        return self._get(
            "class_unlearn",
            lambda: ul.unlearn_contrastive(
                self.base[0], self.class_task, class_unlearn_config(self.seed)
            ),
        )

    @property
    def sample_unlearn(self):
        return self._get(
            "sample_unlearn",
            lambda: ul.unlearn_contrastive(
                self.base[0], self.sample_task, sample_unlearn_config(self.seed)
            ),
        )

    @property
    def sample_neggrad(self):
        return self._get(
            "sample_neggrad",
            lambda: ul.unlearn_neggrad(
                self.base[0], self.sample_task, sample_unlearn_config(self.seed)
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
