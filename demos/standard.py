"""The standard experiment as library objects, built in one place.

The acceptance suite's recipe is written once, as the CLI config files
in experiments/standard/. This module reads them through the CLI's
config check and builds them with the CLI's own builders: ``config``
resolves one file for a seed, and a ``Pipeline`` builds one seed's data,
base model, tasks and runs, each on first access. A seed sets the
dataset's, the engine's and the task's seed.

Every other reader of the recipe in Python goes through this module: the
demos import it from beside them, the test suite through the
``pythonpath`` of pyproject.toml's pytest settings, and
tests/page_faults.py through one ``sys.path`` entry. It is a helper, not
a demo.
"""

import json
from pathlib import Path

import unlearnlab as ul
from unlearnlab.cli import (
    _build_arch,
    _build_datasets,
    _build_engine_cfg,
    _build_task,
    resolve_config,
)

STANDARD = Path(__file__).resolve().parents[1] / "experiments" / "standard"
EXPERIMENTS = ("train", "class", "sample")


def config(name: str, seed: int) -> dict:
    """experiments/standard/<name>.json, resolved, with its dataset, engine
    and task seeds set to seed."""
    resolved = resolve_config(json.loads((STANDARD / f"{name}.json").read_text()))
    resolved["dataset"]["synthetic"]["seed"] = resolved["engine"]["seed"] = seed
    if resolved["task"] is not None:
        resolved["task"]["seed"] = seed
    return resolved


class Pipeline:
    """Artifacts for one seed, each built on first access and cached."""

    def __init__(self, seed: int):
        self.seed = seed
        self.configs = {name: config(name, seed) for name in EXPERIMENTS}
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
