"""The benchmark's workloads, built on unlearnlab's public API only.

Each workload has a set-up, a fixed sequence of ops that makes one
round, and a check of every op's output. A check returns the problems it
found, the op's deterministic facts (checkpoint digests, step counts,
accuracies), which must repeat exactly in every round, and counters
for the per-layer report.

train    one op is one epoch of ``ul.train`` with the test-suite recipe
         (63 SGD steps of batch 32 plus the per-epoch accuracy on 2,000
         rows). Steps are bookkeeping-bound, so tensor, engine and
         update costs show here; the contrastive losses, remaining-batch
         sampling, MIA, CSV, checkpoints and CLI are never touched.
unlearn  contrastive unlearning requests from a 400-epoch base model:
         one per class, and sample requests forgetting 100 and 500
         rows. A request runs one pass per ``unlearn_contrastive`` call
         (see Request), and one op is one such call; a first op
         partitions the data into the task and a last op makes the
         final goal check. How many passes a request takes is
         decided by its termination rule, which depends on the data, the
         base model and the forgotten rows. So that every seed does the
         same work, the requests are the test suite's seed-0 experiment,
         and the workload seed picks only the rows of the 500-row
         request, which runs to its 50-pass cap whichever rows it
         forgets. The set-up runs every request once to learn its pass
         count; a round runs them all from the base model, taking turns
         pass by pass.
audit    one op is one ``eval --reference`` or ``mia`` command run
         through ``cli.main`` in-process on CSV data and checkpoints
         that the set-up wrote with the CLI. No gradient tape: untaped
         forwards over whole 2,000-row views, L-BFGS, CSV parsing,
         checkpoint reads and JSON/CSV writes.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
from functools import partial
from pathlib import Path

import numpy as np

import floor

NUM_CLASSES = 4
DIM = 8
PER_CLASS_TRAIN = 500
PER_CLASS_TEST = 100
SPREAD = 0.7
BATCH_SIZE = 32
TRAIN_LR = 0.15
BASE_EPOCHS = 400
# The unlearn workload's experiment seed (see the module docstring).
EXPERIMENT_SEED = 0
# The engine's default pass cap, which the test-suite configs keep.
MAX_PASSES = 50
# Attack sets are capped per side, as in evaluation.mia_train.
MIA_MAX_PER_SIDE = 1000


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def checkpoint_digest(ul, params, path: Path) -> str:
    ul.save_checkpoint(params, path)
    return sha256_file(path)


def conftest_arch(ul):
    return ul.ModelArchitecture(
        input_dim=DIM, hidden=(32, 32), embedding_dim=16, num_classes=NUM_CLASSES
    )


def synthetic(ul, seed: int):
    return ul.generate_synthetic(
        NUM_CLASSES, DIM, PER_CLASS_TRAIN, PER_CLASS_TEST, spread=SPREAD, seed=seed
    )


def in_unit_interval(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and 0.0 <= x <= 1.0


class Train:
    name = "train"
    setup_repeats = 16
    epochs_per_round = 16

    def __init__(self, ul, seed: int, workdir: Path):
        self.ul, self.seed, self.workdir = ul, seed, workdir
        self.arch = conftest_arch(ul)

    def _config(self, index: int):
        return self.ul.EngineConfig(
            seed=self.seed * 1000 + index,
            max_epochs=1,
            learning_rate=TRAIN_LR,
            batch_size=BATCH_SIZE,
        )

    def setup(self) -> dict:
        self.data, _ = synthetic(self.ul, self.seed)
        # A first epoch pays the process's one-time costs before timing.
        params, _ = self.ul.train(self.arch, self.data, self._config(self.epochs_per_round))
        return {"warmup_sha256": checkpoint_digest(self.ul, params, self.workdir / "warmup.ckpt")}

    def ops(self) -> list:
        # Every epoch does the same work, so they share a label.
        return [
            ("epoch", partial(self.ul.train, self.arch, self.data, self._config(i)))
            for i in range(self.epochs_per_round)
        ]

    def check(self, label: str, result) -> tuple[list, dict, dict]:
        params, record = result
        problems = []
        want_steps = -(-len(self.data) // BATCH_SIZE)
        if record.gradient_steps != want_steps:
            problems.append(f"{label}: {record.gradient_steps} steps, expected {want_steps}")
        row = record.rows[-1] if record.rows else {}
        if not in_unit_interval(row.get("train_accuracy")) or not math.isfinite(row.get("mean_ce", math.nan)):
            problems.append(f"{label}: bad epoch row {row}")
        facts = {
            "sha256": checkpoint_digest(self.ul, params, self.workdir / "epoch.ckpt"),
            "gradient_steps": record.gradient_steps,
        }
        return problems, facts, {}


class Request:
    """One unlearning request, run one pass per ``unlearn_contrastive`` call.

    ``prepare`` partitions the data into the task and builds the views
    a pass reads, which the engine would otherwise build lazily in the
    first pass. Each call has ``max_unlearn_epochs=1`` and
    ``termination_every=2``: it checks the termination condition, as the
    engine does before every pass, and runs one pass unless the
    condition is met. Pass k draws its batch order and remaining batches
    from seed k. ``finish`` makes the check that follows the last pass
    through the public ``check_termination_*`` functions.
    """

    def __init__(self, ul, train, test, base, spec, cfg):
        self.ul, self.train, self.test, self.spec, self.cfg = ul, train, test, spec, cfg
        self.task = None
        self.params = base
        self.passes = 0
        self.steps = 0
        self.met = False

    def prepare(self) -> "Request":
        task = self.ul.make_task(self.train, self.test, self.spec)
        views = [task.unlearn_train, task.remain_train, task.eval_unlearn]
        if task.kind == "sample":
            views.append(task.eval_test)
        self.task = task
        return self

    def run_pass(self):
        cfg = dataclasses.replace(self.cfg, seed=self.passes, max_unlearn_epochs=1, termination_every=2)
        self.params, record = self.ul.unlearn_contrastive(self.params, self.task, cfg)
        self.passes += 1
        self.steps += record.gradient_steps
        return record

    def finish(self) -> "Request":
        ul, task = self.ul, self.task
        if task.kind == "class":
            self.met = ul.check_termination_class(self.params, task.eval_unlearn, task.train.num_classes)
        else:
            self.met = ul.check_termination_sample(self.params, task.eval_unlearn, task.eval_test)
        return self


class Unlearn:
    name = "unlearn"
    setup_repeats = 2

    def __init__(self, ul, seed: int, workdir: Path):
        self.ul, self.seed, self.workdir = ul, seed, workdir
        self.arch = conftest_arch(ul)

    def setup(self) -> dict:
        ul = self.ul
        self.train_ds, self.test_ds = synthetic(ul, EXPERIMENT_SEED)
        self.base, _ = ul.train(
            self.arch,
            self.train_ds,
            ul.EngineConfig(
                seed=EXPERIMENT_SEED, max_epochs=BASE_EPOCHS,
                learning_rate=TRAIN_LR, batch_size=BATCH_SIZE,
            ),
        )
        # Run every request once to learn how many passes it takes, so
        # that a round labels each op by its work before running it.
        self.passes = {label: self._passes(spec, cfg) for label, spec, cfg in self._requests()}
        return {
            "base_sha256": checkpoint_digest(ul, self.base, self.workdir / "base.ckpt"),
            "passes": self.passes,
        }

    def _passes(self, spec, cfg) -> int:
        request = Request(self.ul, self.train_ds, self.test_ds, self.base, spec, cfg)
        request.prepare()
        for k in range(MAX_PASSES):
            if request.run_pass().termination_reason == "condition-met":
                return k
        return MAX_PASSES

    def _requests(self) -> list:
        ul = self.ul
        # The test suite's class and sample unlearning configs.
        class_cfg = ul.EngineConfig(
            seed=EXPERIMENT_SEED, batch_size=BATCH_SIZE, learning_rate=0.05,
            remaining_resamples=2,
            loss=ul.LossConfig(variant="class", unlearn_weight=1.0 / 128.0, ce_weight=2.0),
        )
        sample_cfg = ul.EngineConfig(
            seed=EXPERIMENT_SEED, batch_size=BATCH_SIZE, learning_rate=0.05,
            remaining_resamples=1,
            loss=ul.LossConfig(variant="sample", unlearn_weight=1.0 / 32.0, ce_weight=1.0),
        )
        requests = [
            (f"class{c}", ul.TaskSpec(kind="class", class_id=c), class_cfg)
            for c in range(NUM_CLASSES)
        ]
        requests += [
            ("sample100", ul.TaskSpec(kind="sample", sample_count=100, seed=EXPERIMENT_SEED), sample_cfg),
            ("sample500", ul.TaskSpec(kind="sample", sample_count=500, seed=self.seed), sample_cfg),
        ]
        return requests

    def _request_ops(self, label, spec, cfg):
        request = Request(self.ul, self.train_ds, self.test_ds, self.base, spec, cfg)
        # Ops that do the same work share a label: the passes of one
        # sample request, and those of every class request (500 anchors,
        # 1,500 remaining rows, 100 evaluation rows); likewise the task
        # partitions.
        work = "class" if spec.kind == "class" else label
        yield f"{work}-task", request.prepare
        for _ in range(self.passes[label]):
            yield f"{work}-pass", request.run_pass
        yield f"{label}-done", request.finish

    def ops(self):
        # The requests take turns, one op each, so that every label's
        # repeats spread over the whole round.
        streams = [self._request_ops(*request) for request in self._requests()]
        while streams:
            for stream in list(streams):
                op = next(stream, None)
                if op is None:
                    streams.remove(stream)
                else:
                    yield op

    def check(self, label: str, result) -> tuple[list, dict | None, dict]:
        if label.endswith("-task"):
            spec, task = result.spec, result.task
            forget = PER_CLASS_TRAIN if spec.kind == "class" else spec.sample_count
            if len(task.unlearn_train) != forget or len(task.remain_train) != len(self.train_ds) - forget:
                return [f"{label}: views of {len(task.unlearn_train)} and {len(task.remain_train)} rows"], None, {}
            return [], None, {}
        if label.endswith("-pass"):
            if result.termination_reason != "epoch-cap" or not result.gradient_steps:
                return [f"{label}: ended {result.termination_reason} without its pass"], None, {}
            return [], None, {}
        ul, task, params = self.ul, result.task, result.params
        problems = []
        if result.passes < MAX_PASSES and not result.met:
            problems.append(f"{label}: goal not met after the passes the set-up needed")
        if task.kind == "class":
            retained = ul.accuracy(params, task.remain_test)
            # The library's goal check, repeated with the benchmark's own forward.
            view = task.eval_unlearn
            predicted = floor.predicted_labels([p.data for p in params.as_list()], view.features)
            forget = float(np.mean(predicted == view.labels))
            if result.met and forget > 1.0 / task.train.num_classes:
                problems.append(f"{label}: goal met but forget accuracy {forget} is above chance")
        else:
            retained = ul.accuracy(params, task.test)
        facts = {
            "sha256": checkpoint_digest(ul, params, self.workdir / f"{label}.ckpt"),
            "gradient_steps": result.steps,
            "goal_met": result.met,
            "retained_acc": retained,
        }
        return problems, facts, {}


class Audit:
    name = "audit"
    setup_repeats = 9
    train_epochs = 10
    unlearn_passes = 5
    sample_count = 100

    def __init__(self, ul, seed: int, workdir: Path):
        self.ul, self.seed, self.workdir = ul, seed, workdir
        self.setups = 0

    def _cli(self, *argv) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.ul.cli.main([str(a) for a in argv])

    def _must(self, *argv) -> None:
        code = self._cli(*argv)
        if code != 0:
            raise RuntimeError(f"set-up command {argv[0]} exited {code}")

    def _config(self, data: Path, kind: str) -> dict:
        if kind == "class":
            task = {"kind": "class", "class_id": 2}
            loss = {"unlearn_weight": 1.0 / 128.0, "ce_weight": 2.0}
            resamples = 2
        else:
            task = {"kind": "sample", "count": self.sample_count, "seed": self.seed}
            loss = {"unlearn_weight": 1.0 / 32.0, "ce_weight": 1.0}
            resamples = 1
        return {
            "dataset": {"csv": {"train": str(data / "train.csv"), "test": str(data / "test.csv")}},
            "architecture": {"hidden": [32, 32], "embedding_dim": 16},
            "engine": {
                "batch_size": BATCH_SIZE, "learning_rate": TRAIN_LR,
                "max_epochs": self.train_epochs, "max_unlearn_epochs": self.unlearn_passes,
                "remaining_resamples": resamples, "seed": self.seed,
            },
            "loss": loss,
            "task": task,
        }

    def setup(self) -> dict:
        d = self.workdir / f"setup{self.setups}"
        self.setups += 1
        d.mkdir(parents=True)
        gen = d / "gen.json"
        gen.write_text(json.dumps({"dataset": {"synthetic": {
            "num_classes": NUM_CLASSES, "dim": DIM, "per_class_train": PER_CLASS_TRAIN,
            "per_class_test": PER_CLASS_TEST, "spread": SPREAD, "seed": self.seed,
        }}}))
        self._must("gen-data", "--config", gen, "--out", d / "data")
        self.configs = {}
        for kind in ("class", "sample"):
            self.configs[kind] = d / f"{kind}.json"
            self.configs[kind].write_text(json.dumps(self._config(d / "data", kind)))
        self._must("train", "--config", self.configs["class"], "--out", d / "base")
        for kind in ("class", "sample"):
            self._must(
                "unlearn", "--config", self.configs[kind], "--out", d / kind,
                "--method", "contrastive", "--from", d / "base" / "model.ckpt",
            )
        self.dir = d
        return {
            name: sha256_file(d / name)
            for name in ("data/train.csv", "data/test.csv", "base/model.ckpt",
                         "class/model.ckpt", "sample/model.ckpt")
        }

    def ops(self) -> list:
        d = self.dir
        out = []
        for kind in ("class", "sample"):
            model = d / kind / "model.ckpt"
            out.append((f"eval-{kind}", partial(
                self._cli, "eval", "--config", self.configs[kind], "--out", d / f"eval-{kind}",
                "--model", model, "--reference", d / "base" / "model.ckpt",
            )))
            out.append((f"mia-{kind}", partial(
                self._cli, "mia", "--config", self.configs[kind], "--out", d / f"mia-{kind}",
                "--model", model,
            )))
        return out

    def check(self, label: str, result) -> tuple[list, dict, dict]:
        if result != 0:
            return [f"{label}: exited {result}"], None, {}
        command, kind = label.split("-")
        out_dir = self.dir / label
        forget = PER_CLASS_TRAIN if kind == "class" else self.sample_count
        try:
            problems = (self._check_eval if command == "eval" else self._check_mia)(out_dir, kind, forget)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable artifact ({type(exc).__name__}: {exc})"]
        problems = [f"{label}: {p}" for p in problems]
        artifacts = sorted(p for p in out_dir.iterdir() if p.name != "config.echo.json")
        # The echoed config holds absolute paths, so it is counted but not digested.
        facts = {p.name: sha256_file(p) for p in artifacts}
        written = sum(p.stat().st_size for p in out_dir.iterdir())
        return problems, facts, {"cli.bytes_written": written}

    def _check_eval(self, out_dir: Path, kind: str, forget: int) -> list:
        report = json.loads((out_dir / "eval.json").read_text())
        views = {"unlearn_train", "unlearn_test", "remain_test"} if kind == "class" else {"unlearn_train", "test"}
        problems = []
        for section in ("accuracies", "reference"):
            accs = report[section]
            if set(accs) != views or not all(in_unit_interval(v) for v in accs.values()):
                problems.append(f"{section} {accs} are not accuracies on {sorted(views)}")
        with (out_dir / "geometry.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != forget + 1 or any(len(r) != 4 for r in rows):
            problems.append(f"geometry.csv has {len(rows) - 1} rows, expected {forget}")
        return problems

    def _check_mia(self, out_dir: Path, kind: str, forget: int) -> list:
        report = json.loads((out_dir / "mia.json").read_text())
        train_rows = NUM_CLASSES * PER_CLASS_TRAIN
        test_rows = NUM_CLASSES * PER_CLASS_TEST
        want = min(MIA_MAX_PER_SIDE, (train_rows - forget) // 2, test_rows)
        problems = []
        for key in ("member_rate_unlearn", "member_rate_heldout_members", "validation_accuracy"):
            if not in_unit_interval(report[key]):
                problems.append(f"{key} = {report[key]} is not a finite rate")
        if report["members_size"] != want or report["nonmembers_size"] != want:
            problems.append(f"attack set sizes {report['members_size']}/{report['nonmembers_size']}, expected {want}")
        return problems


WORKLOADS = {w.name: w for w in (Train, Unlearn, Audit)}
