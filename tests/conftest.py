"""Shared fixtures: the standard experiment's pipelines, one per seed,
and a child-process runner for calls that must not hang the suite.

The acceptance suite and several module tests all need the same trained
models, unlearning tasks, and retrain references. Building them is the
expensive part of the test run, so one lazily-filled Pipeline per seed
is shared across the whole session. Pipeline is demos/standard.py's, the
one place the experiment of experiments/standard/ is built; the suite
imports that module through the ``pythonpath`` of pyproject.toml's pytest
settings.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unlearnlab as ul
from standard import Pipeline

SEEDS = (0, 1, 2)


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
