"""Command-line workflow: every subcommand, exit codes, reproducibility."""

import dataclasses
import importlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import standard
import unlearnlab as ul
from composed_ops import datasets_equal
from unlearnlab import cli
from unlearnlab.cli import (
    _build_arch,
    _build_datasets,
    _build_engine_cfg,
    _build_task,
    _write_json,
    main,
    resolve_config,
)
from unlearnlab.data import load_csv
from unlearnlab.errors import DimensionError, ValidationError
from unlearnlab.model import load_checkpoint

BASE_CONFIG = {
    "dataset": {
        "synthetic": {
            "num_classes": 3,
            "dim": 4,
            "per_class_train": 40,
            "per_class_test": 20,
            "spread": 2.0,
            "seed": 1,
        }
    },
    "architecture": {"hidden": [8], "embedding_dim": 6},
    "engine": {
        "batch_size": 16,
        "max_epochs": 15,
        "max_unlearn_epochs": 5,
        "learning_rate": 0.1,
        "seed": 1,
    },
    "loss": {"unlearn_weight": 0.05},
    "task": {"kind": "class", "class_id": 1},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestGenData:
    @pytest.mark.parametrize("spread", ["nan", "inf", "1e308"])
    def test_spread_without_a_finite_distance_is_a_usage_error(self, tmp_path, spread, python_in_child):
        # Such a spread once kept the class placement looping forever, so
        # the command runs in a child process with a time limit.
        out = python_in_child(
            "-m", "unlearnlab", "gen-data", "--classes", "5", "--dim", "2",
            "--spread", spread, "--out", str(tmp_path / "o"),
        )
        assert out.returncode == 2
        assert "error: " in out.stderr and "spread must be positive" in out.stderr
        assert not (tmp_path / "o").exists()

    def test_overflowing_placement_radius_is_a_usage_error(self, tmp_path, python_in_child):
        # 4 * spread is finite, but the placement's starting radius for 100
        # classes in 2 dimensions is not; that too once looped forever.
        out = python_in_child(
            "-m", "unlearnlab", "gen-data", "--classes", "100", "--dim", "2",
            "--spread", "1e307", "--out", str(tmp_path / "o"),
        )
        assert out.returncode == 2
        assert "error: " in out.stderr and "spread too large" in out.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [["--dim", str(2**31)], ["--train-per-class", str(2**59)]])
    def test_an_array_too_big_to_make_is_a_usage_error(self, tmp_path, config_path, capsys, flags):
        out = tmp_path / "o"
        assert run("gen-data", "--config", config_path, "--out", str(out), *flags) == 2
        assert "array is too big" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_dataset_and_manifest(self, tmp_path, config_path):
        out = tmp_path / "data"
        assert run("gen-data", "--config", config_path, "--out", str(out)) == 0
        train = load_csv(out / "train.csv")
        test = load_csv(out / "test.csv")
        want_train, want_test = ul.generate_synthetic(3, 4, 40, 20, spread=2.0, seed=1)
        assert datasets_equal(train, want_train) and datasets_equal(test, want_test)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert (out / "config.echo.json").exists()

    def test_flag_overrides(self, tmp_path, config_path):
        out = tmp_path / "data"
        assert (
            run(
                "gen-data",
                "--config",
                config_path,
                "--out",
                str(out),
                "--classes",
                "2",
                "--dim",
                "5",
            )
            == 0
        )
        train = load_csv(out / "train.csv")
        assert train.num_classes == 2 and train.num_features == 5

    def test_every_flag_reaches_generate_synthetic(self, tmp_path, config_path):
        out = tmp_path / "data"
        flags = ["--classes", "2", "--dim", "3", "--train-per-class", "7"]
        flags += ["--test-per-class", "4", "--spread", "0.5", "--seed", "9"]
        assert run("gen-data", "--config", config_path, "--out", str(out), *flags) == 0
        want_train, want_test = ul.generate_synthetic(
            num_classes=2, dim=3, per_class_train=7, per_class_test=4, spread=0.5, seed=9
        )
        assert datasets_equal(load_csv(out / "train.csv"), want_train)
        assert datasets_equal(load_csv(out / "test.csv"), want_test)


class TestTrain:
    def test_synthetic_training_run(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert run("train", "--config", config_path, "--out", str(out)) == 0
        params = load_checkpoint(out / "model.ckpt")
        assert params.arch.input_dim == 4 and params.arch.num_classes == 3
        record = json.loads((out / "run.json").read_text())
        assert record["method"] == "train"
        assert record["termination_reason"] == "epoch-cap"

    def test_csv_round_trip_training(self, tmp_path, config_path):
        data_dir = tmp_path / "data"
        assert run("gen-data", "--config", config_path, "--out", str(data_dir)) == 0
        cfg = dict(BASE_CONFIG)
        cfg["dataset"] = {
            "csv": {
                "train": str(data_dir / "train.csv"),
                "test": str(data_dir / "test.csv"),
            }
        }
        cfg_path = tmp_path / "csv_config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run("train", "--config", str(cfg_path), "--out", str(out)) == 0
        assert (out / "model.ckpt").exists()

    def test_seed_flag_overrides_engine_seed(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert run("train", "--config", config_path, "--out", str(out), "--seed", "7") == 0
        record = json.loads((out / "run.json").read_text())
        assert record["config"]["seed"] == 7

    def test_rerun_from_echoed_config_is_identical(self, tmp_path, config_path):
        first = tmp_path / "a"
        assert run("train", "--config", config_path, "--out", str(first)) == 0
        second = tmp_path / "b"
        assert (
            run("train", "--config", str(first / "config.echo.json"), "--out", str(second))
            == 0
        )
        assert (first / "model.ckpt").read_bytes() == (second / "model.ckpt").read_bytes()


class TestUnlearn:
    def trained(self, tmp_path, config_path):
        out = tmp_path / "base"
        assert run("train", "--config", config_path, "--out", str(out)) == 0
        return out / "model.ckpt"

    def test_contrastive(self, tmp_path, config_path):
        ckpt = self.trained(tmp_path, config_path)
        out = tmp_path / "unlearned"
        assert (
            run(
                "unlearn",
                "--config",
                config_path,
                "--out",
                str(out),
                "--method",
                "contrastive",
                "--from",
                str(ckpt),
            )
            == 0
        )
        record = json.loads((out / "run.json").read_text())
        assert record["method"] == "contrastive"
        assert record["termination_reason"] in ("condition-met", "epoch-cap")
        assert load_checkpoint(out / "model.ckpt").arch.num_classes == 3

    def test_every_method_runs(self, tmp_path, config_path):
        ckpt = self.trained(tmp_path, config_path)
        for method in ("finetune", "neggrad", "retrain"):
            out = tmp_path / method
            assert (
                run(
                    "unlearn",
                    "--config",
                    config_path,
                    "--out",
                    str(out),
                    "--method",
                    method,
                    "--from",
                    str(ckpt),
                )
                == 0
            )
            assert json.loads((out / "run.json").read_text())["method"] == method

    def test_retrain_warns_about_ignored_checkpoint(self, tmp_path, config_path, capsys):
        ckpt = self.trained(tmp_path, config_path)
        out = tmp_path / "retrained"
        assert (
            run(
                "unlearn",
                "--config",
                config_path,
                "--out",
                str(out),
                "--method",
                "retrain",
                "--from",
                str(ckpt),
            )
            == 0
        )
        assert "retrain ignores the starting checkpoint" in capsys.readouterr().err

    def test_missing_checkpoint_flag_is_usage_error(self, tmp_path, config_path):
        out = tmp_path / "unlearned"
        code = run(
            "unlearn", "--config", config_path, "--out", str(out), "--method", "contrastive"
        )
        assert code == 2


class TestEvalAndMia:
    @pytest.fixture()
    def world(self, tmp_path, config_path):
        base = tmp_path / "base"
        assert run("train", "--config", config_path, "--out", str(base)) == 0
        unlearned = tmp_path / "unlearned"
        assert (
            run(
                "unlearn",
                "--config",
                config_path,
                "--out",
                str(unlearned),
                "--method",
                "contrastive",
                "--from",
                str(base / "model.ckpt"),
            )
            == 0
        )
        retrained = tmp_path / "retrained"
        assert (
            run(
                "unlearn",
                "--config",
                config_path,
                "--out",
                str(retrained),
                "--method",
                "retrain",
            )
            == 0
        )
        return tmp_path

    def test_eval_with_reference(self, world, config_path):
        out = world / "report"
        assert (
            run(
                "eval",
                "--config",
                config_path,
                "--out",
                str(out),
                "--model",
                str(world / "unlearned" / "model.ckpt"),
                "--reference",
                str(world / "retrained" / "model.ckpt"),
            )
            == 0
        )
        report = json.loads((out / "eval.json").read_text())
        assert report["task_kind"] == "class"
        assert set(report["accuracies"]) == {"unlearn_train", "unlearn_test", "remain_test"}
        assert report["deltas"] is not None
        assert (out / "geometry.csv").exists()

    def test_eval_requires_model(self, world, config_path):
        assert run("eval", "--config", config_path, "--out", str(world / "x")) == 2

    def test_mia_report(self, world, config_path):
        out = world / "mia"
        assert (
            run(
                "mia",
                "--config",
                config_path,
                "--out",
                str(out),
                "--model",
                str(world / "unlearned" / "model.ckpt"),
            )
            == 0
        )
        report = json.loads((out / "mia.json").read_text())
        assert 0.0 <= report["member_rate_unlearn"] <= 1.0
        assert report["members_size"] > 0


class TestFailureModes:
    def test_unknown_config_fields_are_listed(self, tmp_path, capsys):
        cfg = dict(BASE_CONFIG)
        cfg["typo_field"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run("train", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert "typo_field" in capsys.readouterr().err

    def test_unlearn_without_task_is_usage_error(self, tmp_path):
        cfg = {k: v for k, v in BASE_CONFIG.items() if k != "task"}
        path = tmp_path / "no_task.json"
        path.write_text(json.dumps(cfg))
        code = run(
            "unlearn", "--config", str(path), "--out", str(tmp_path / "o"),
            "--method", "retrain",
        )
        assert code == 2

    def test_dimension_error_is_an_input_problem(self, tmp_path, monkeypatch, config_path, capsys):
        # No command reaches one (the CLI builds the architecture from the
        # data), but a DimensionError is a ValidationError, so it exits 2.
        def misfit(*args):
            raise DimensionError("model does not fit the data")

        monkeypatch.setattr("unlearnlab.cli.train", misfit)
        assert run("train", "--config", config_path, "--out", str(tmp_path / "o")) == 2
        assert "model does not fit the data" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_garbage_checkpoint_is_reported(self, tmp_path, config_path, capsys):
        bad = tmp_path / "junk.ckpt"
        bad.write_bytes(b"not a checkpoint")
        code = run(
            "eval", "--config", config_path, "--out", str(tmp_path / "o"),
            "--model", str(bad),
        )
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_missing_checkpoint_file_is_reported(self, tmp_path, config_path, capsys):
        code = run(
            "eval", "--config", config_path, "--out", str(tmp_path / "o"),
            "--model", str(tmp_path / "nowhere.ckpt"),
        )
        assert code == 3
        capsys.readouterr()

    def test_non_finite_learning_rate_is_a_usage_error(self, tmp_path, capsys):
        # Python's json reads the non-standard token Infinity as float("inf").
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["engine"]["learning_rate"] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(cfg))
        assert "Infinity" in path.read_text()
        assert run("train", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("engine", "batch_size", "x"),
            ("architecture", "hidden", [32, "y"]),
            ("dataset.synthetic", "dim", [1]),
            ("task", "class_id", "two"),
            ("engine", "max_epochs", 1.7),
            ("loss", "temperature", True),
            ("engine", "seed", None),
        ],
    )
    def test_wrong_type_is_a_usage_error_before_any_write(
        self, tmp_path, capsys, section, field, value
    ):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        target = cfg
        for key in section.split("."):
            target = target[key]
        target[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run("train", "--config", str(path), "--out", str(out)) == 2
        assert f"{section}.{field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, section, value, code",
        [
            (["train"], "architecture.hidden", [0], 2),
            (["train"], "architecture.embedding_dim", 0, 2),
            (["train"], "architecture.activation", "sigmoid", 2),
            (["train"], "dataset.synthetic.dim", 0, 2),
            (["eval", "--model", "junk.ckpt"], None, None, 3),
            (["eval", "--model", "nowhere.ckpt"], None, None, 3),
            (["mia", "--model", "junk.ckpt"], None, None, 3),
            (["mia", "--model", "nowhere.ckpt"], None, None, 3),
            (["unlearn", "--from", "junk.ckpt"], None, None, 3),
            (["unlearn", "--from", "nowhere.ckpt"], None, None, 3),
            (["unlearn", "--method", "retrain"], "task", {"kind": "sample", "index_file": "rows.txt"}, 2),
            (["unlearn", "--method", "retrain"], "task.class_id", 9, 2),
            (["train"], "dataset", {"csv": {"train": "huge.csv", "test": "huge.csv"}}, 2),
            (["train"], "dataset", {"csv": {"train": "long.csv", "test": "long.csv"}}, 2),
            (["gen-data", "--seed", "-1"], None, None, 2),
            (["train", "--seed", "-1"], None, None, 2),
            (["unlearn", "--from", "junk.ckpt", "--seed", "-1"], None, None, 2),
            (["unlearn", "--method", "retrain", "--seed", "-1"], None, None, 2),
            (["eval", "--model", "junk.ckpt", "--seed", "-1"], None, None, 2),
            (["train"], "dataset.synthetic.seed", -1, 2),
            (["train"], "engine.seed", -1.0, 2),
            (["mia", "--model", "junk.ckpt"], "mia", {"split_seed": -1}, 2),
            (["unlearn", "--method", "retrain"], "task", {"kind": "sample", "count": 5, "seed": -3}, 2),
            (["unlearn", "--method", "retrain"], "task", {"kind": "sample", "index_file": "big.txt"}, 2),
            (["gen-data"], "dataset", {"csv": {"train": "ok.csv", "test": "ok.csv"}}, 2),
            (["unlearn", "--from", "junk.ckpt"], "unlearn", {"method": "sgd"}, 2),
            (["train"], "dataset", {"csv": {"train": "overflow.csv", "test": "ok.csv"}}, 2),
            # A task section that mixes kinds: the field was dropped.
            (["unlearn", "--method", "retrain"], "task.count", 5, 2),
            (["unlearn", "--method", "retrain"], "task", {"kind": "sample", "count": 5, "class_id": 1}, 2),
            # A byte that is not UTF-8, in the config, a CSV or an index file,
            # raised a bare UnicodeDecodeError.
            (["train"], "architecture.activation", "r\xe9lu", 2),
            (["train"], "dataset", {"csv": {"train": "latin1.csv", "test": "ok.csv"}}, 2),
            (["unlearn", "--method", "retrain"], "task", {"kind": "sample", "index_file": "latin1.txt"}, 2),
            # An integer past the float range in a float field raised a bare
            # OverflowError.
            *(
                pytest.param(argv, field, 10**400, 2, id=f"{field}-past-the-float-range")
                for argv, field in [
                    (["train"], "engine.learning_rate"),
                    (["unlearn", "--method", "retrain"], "loss.temperature"),
                    (["train"], "dataset.synthetic.spread"),
                ]
            ),
        ],
    )
    def test_bad_input_fails_before_any_write(
        self, tmp_path, monkeypatch, capsys, argv, section, value, code
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.csv").write_text("f0,f1,label\n1.0,2.0,0\n1.5,2.5,1\n")
        (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint")
        (tmp_path / "rows.txt").write_text("0\nx\n")
        (tmp_path / "big.txt").write_text("0\n99999999999999999999\n")
        (tmp_path / "huge.csv").write_text("f0,f1,label\n1.0,2.0,0\n1.0,2.0,99999999999999999999\n")
        (tmp_path / "long.csv").write_text("f0,f1,label\n" + "0" * 200_000 + "1.5,2.0,0\n1.0,2.0,1.0\n")
        # Column f0's train std overflows: it warned, then became zeros.
        (tmp_path / "overflow.csv").write_text("f0,f1,label\n1.7e308,1.0,0\n-1.7e308,2.0,1\n")
        (tmp_path / "latin1.csv").write_bytes(b"f0,f1,label\n1.0,2.0,0\n1.5,2.5,\xff1\n")
        (tmp_path / "latin1.txt").write_bytes(b"0\n\xff1\n")
        cfg = json.loads(json.dumps(BASE_CONFIG))
        if section is not None:
            *parents, field = section.split(".")
            target = cfg
            for key in parents:
                target = target[key]
            target[field] = value
        # Written as Latin-1, a value's "\xe9" is one byte that is not UTF-8.
        Path("bad.json").write_bytes(json.dumps(cfg, ensure_ascii=False).encode("latin-1"))
        assert run(*argv, "--config", "bad.json", "--out", "o") == code
        assert "error" in capsys.readouterr().err
        assert not Path("o").exists()

    @pytest.mark.parametrize(
        "task, problem",
        [
            pytest.param(
                {"kind": "class", "class_id": 1, "count": 5},
                "task.count: only for a sample task without task.index_file",
                id="class-count",
            ),
            pytest.param(
                {"kind": "class", "class_id": 1, "count": 5, "index_file": "missing.txt"},
                "task.count: only for a sample task without task.index_file",
                id="class-count-index",
            ),
            pytest.param(
                {"kind": "sample", "count": 5, "index_file": "missing.txt"},
                "task.count: only for a sample task without task.index_file",
                id="sample-count-index",
            ),
            pytest.param(
                {"kind": "sample", "count": 5, "class_id": 1},
                "task.class_id: only for a class task",
                id="sample-count-class",
            ),
            pytest.param(
                {"kind": "sample", "index_file": "missing.txt", "class_id": 1},
                "task.class_id: only for a class task",
                id="sample-index-class",
            ),
            # An empty path is no index file, as the task is built.
            pytest.param(
                {"kind": "sample", "index_file": ""},
                "task.count or task.index_file: required for a sample task",
                id="sample-empty-index",
            ),
        ],
    )
    def test_a_task_of_the_wrong_fields_is_refused_by_their_config_names(
        self, tmp_path, monkeypatch, capsys, task, problem
    ):
        # Refused while the config is resolved: no dataset is built and the
        # index file, which does not exist, is never opened.
        def unreachable(*args):
            raise AssertionError("reached past resolve_config")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_build_datasets", unreachable)
        monkeypatch.setattr(cli, "_read_index_file", unreachable)
        Path("bad.json").write_text(json.dumps({**BASE_CONFIG, "task": task}))
        assert run("unlearn", "--method", "retrain", "--config", "bad.json", "--out", "o") == 2
        err = capsys.readouterr().err
        assert problem in err and "missing.txt" not in err
        assert not Path("o").exists()
        with pytest.raises(ValidationError) as exc:
            resolve_config({"task": task})
        assert str(exc.value) == f"invalid config: {problem}"

    def test_a_class_index_file_lists_exactly_the_class_rows(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        train_ds, _ = ul.generate_synthetic(**BASE_CONFIG["dataset"]["synthetic"])
        rows = train_ds.class_indices(1)
        task = {"kind": "class", "class_id": 1, "index_file": "rows.txt"}
        Path("run.json").write_text(json.dumps({**BASE_CONFIG, "task": task}))
        for listed, code in ((rows[::-1], 0), (rows[1:], 2), (rows + 1, 2)):
            Path("rows.txt").write_text("".join(f"{i}\n" for i in listed))
            out = f"o{len(listed)}-{listed[0]}"
            assert run("unlearn", "--method", "retrain", "--config", "run.json", "--out", out) == code
            assert Path(out).exists() == (code == 0)
        assert capsys.readouterr().err.count("must be the rows of class 1") == 2

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("engine", "divergence_factor", 10.0),
            ("engine", "anchor_resample_limit", 8),
            ("dataset.csv", "standardize", True),
        ],
    )
    def test_removed_setting_is_an_unknown_field(
        self, tmp_path, monkeypatch, capsys, section, field, value
    ):
        monkeypatch.chdir(tmp_path)
        Path("ok.csv").write_text("f0,f1,label\n1.0,2.0,0\n1.5,2.5,1\n")
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["dataset"] = {"csv": {"train": "ok.csv", "test": "ok.csv"}}
        target = cfg
        for key in section.split("."):
            target = target[key]
        target[field] = value
        Path("old.json").write_text(json.dumps(cfg))
        assert run("train", "--config", "old.json", "--out", "o") == 2
        assert f"{section}.{field}: unknown field" in capsys.readouterr().err
        assert not Path("o").exists()

    @pytest.mark.parametrize(
        "synthetic, engine, argv, code, message",
        [
            # A 4-row test split is too small for the attack.
            ({"num_classes": 2, "per_class_test": 2}, {}, ["mia"], 2,
             "not enough data for the attack"),
            # Forgetting class 1 leaves 20 rows, fewer than one remaining
            # batch: a configuration problem, so exit 2.
            ({"num_classes": 2, "per_class_train": 20}, {"batch_size": 30},
             ["unlearn", "--method", "contrastive"], 2,
             "remaining train view has 20 rows, need >= 30"),
        ],
        ids=["mia-small-test-split", "contrastive-small-remaining-view"],
    )
    def test_failure_after_reading_inputs_writes_nothing(
        self, tmp_path, monkeypatch, capsys, synthetic, engine, argv, code, message
    ):
        monkeypatch.chdir(tmp_path)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["dataset"]["synthetic"].update(synthetic)
        cfg["engine"].update(engine)
        Path("cfg.json").write_text(json.dumps(cfg))
        assert run("train", "--config", "cfg.json", "--out", "base") == 0
        model_flag = "--model" if argv[0] == "mia" else "--from"
        code_got = run(*argv, model_flag, "base/model.ckpt", "--config", "cfg.json", "--out", "o")
        assert code_got == code
        assert f"error: {message}" in capsys.readouterr().err
        assert not Path("o").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "mia"])
    def test_test_split_of_another_width_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # A 1-column test split was broadcast to the train split's 4 columns,
        # and all three commands exited 0; eval reported a test accuracy.
        monkeypatch.chdir(tmp_path)
        train, test = ul.generate_synthetic(3, 4, 40, 20, spread=2.0, seed=1)
        ul.save_csv(train, "train.csv")
        ul.save_csv(test, "test.csv")
        ul.save_csv(ul.Dataset(test.features[:, :1], test.labels, 3), "narrow.csv")
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["dataset"] = {"csv": {"train": "train.csv", "test": "test.csv"}}
        Path("cfg.json").write_text(json.dumps(cfg))
        assert run("train", "--config", "cfg.json", "--out", "base") == 0
        cfg["dataset"]["csv"]["test"] = "narrow.csv"
        Path("narrow.json").write_text(json.dumps(cfg))
        model = [] if command == "train" else ["--model", "base/model.ckpt"]
        assert run(command, *model, "--config", "narrow.json", "--out", "o") == 2
        assert "batch width 1 does not match train width 4" in capsys.readouterr().err
        assert not Path("o").exists()

    def test_empty_out_is_a_usage_error(self, tmp_path, monkeypatch, capsys, config_path):
        # It once fell through to the config's output_dir, out/.
        monkeypatch.chdir(tmp_path)
        assert run("train", "--config", config_path, "--out", "") == 2
        assert "error: --out: must be a non-empty path" in capsys.readouterr().err
        assert not Path("out").exists()

    def test_numbers_take_their_field_type(self, tmp_path, config_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["engine"]["batch_size"] = 16.0
        cfg["dataset"]["synthetic"]["spread"] = 2
        path = tmp_path / "numbers.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run("train", "--config", str(path), "--out", str(out)) == 0
        record = json.loads((out / "run.json").read_text())
        assert record["config"]["batch_size"] == 16
        assert type(record["config"]["batch_size"]) is int
        echo = json.loads((out / "config.echo.json").read_text())
        batch_size, spread = echo["engine"]["batch_size"], echo["dataset"]["synthetic"]["spread"]
        assert (batch_size, type(batch_size)) == (16, int)
        assert (spread, type(spread)) == (2.0, float)
        reference = tmp_path / "ref"
        assert run("train", "--config", config_path, "--out", str(reference)) == 0
        assert (out / "model.ckpt").read_bytes() == (reference / "model.ckpt").read_bytes()

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("train", "--config", str(path), "--out", str(tmp_path / "o")) == 2


def test_import_leaves_scipy_out(python_in_child):
    # Only the membership attack uses scipy, and it imports it when it runs.
    out = python_in_child("-c", "import sys, unlearnlab.cli; print('scipy' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


class TestArtifactFiles:
    """Every artifact is written to a temp file beside it, then moved into
    place: a failed write leaves the old file and no temp file behind."""

    WRITERS = {
        "csv": lambda path: ul.save_csv(ul.generate_synthetic(3, 4, 5, 5)[0], path),
        "checkpoint": lambda path: ul.save_checkpoint(
            ul.init_parameters(ul.ModelArchitecture(4, (3,), 2, 3), seed=0), path
        ),
        "json": lambda path: _write_json(path, {"rows": 15}),
    }

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "artifact"
        path.write_bytes(b"old")

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="no space left"):
            self.WRITERS[writer](path)
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["artifact"]

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_new_file_mode_follows_the_umask(self, tmp_path, writer):
        # The mode an in-place write would create the file with, not the
        # temp file's own 0o600.
        umask = os.umask(0o027)
        try:
            self.WRITERS[writer](tmp_path / "artifact")
        finally:
            os.umask(umask)
        assert stat.S_IMODE(os.stat(tmp_path / "artifact").st_mode) == 0o640
        assert os.listdir(tmp_path) == ["artifact"]


def test_module_entrypoint_reports_version():
    out = subprocess.run(
        [sys.executable, "-m", "unlearnlab", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert ul.__version__ in out.stdout


# The five-command pipeline, run in a fresh interpreter so that OpenBLAS
# reads the thread count from the environment when numpy loads it.
BLAS_PIPELINE = """
import sys
from unlearnlab.cli import main
for argv in (
    ["gen-data", "--out", "data"],
    ["train", "--out", "base"],
    ["unlearn", "--method", "retrain", "--out", "retrained"],
    ["unlearn", "--method", "contrastive", "--from", "base/model.ckpt", "--out", "unlearned"],
    ["eval", "--model", "unlearned/model.ckpt", "--reference", "retrained/model.ckpt", "--out", "eval"],
    ["mia", "--model", "unlearned/model.ckpt", "--out", "mia"],
):
    if main([*argv, "--config", "config.json"]) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def _artifacts(root: Path) -> dict:
    """Every file under root by relative path: its bytes, or for run.json
    the record without its wall-clock duration."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            value = path.read_bytes()
            if path.name == "run.json":
                value = json.loads(value)
                value.pop("duration_seconds")
            files[path.relative_to(root).as_posix()] = value
    return files


def test_artifacts_match_across_blas_thread_counts(tmp_path):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["dataset"]["synthetic"].update(num_classes=4, per_class_train=50)
    cfg["engine"]["max_epochs"] = 20
    # The subprocesses run in their own directories, so they import the
    # package from where this process found it.
    package_root = str(Path(ul.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    runs = {}
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        (root / "config.json").write_text(json.dumps(cfg))
        out = subprocess.run(
            [sys.executable, "-c", BLAS_PIPELINE],
            cwd=root,
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        runs[threads] = _artifacts(root)
    assert {"data/train.csv", "unlearned/model.ckpt", "eval/geometry.csv", "mia/mia.json"} <= set(runs["1"])
    assert runs["1"]["unlearned/run.json"]["gradient_steps"] > 0
    assert runs["1"] == runs["2"]


class TestDefaults:
    @pytest.mark.parametrize("variant", ["class", "sample"])
    def test_cli_and_library_share_engine_defaults(self, variant):
        got = _build_engine_cfg(resolve_config({}), variant)
        assert got == ul.EngineConfig(loss=ul.LossConfig(variant=variant))

    def test_engine_config_dict(self):
        assert ul.EngineConfig().to_dict() == {
            "batch_size": 64,
            "remaining_resamples": 2,
            "learning_rate": 0.05,
            "max_epochs": 60,
            "max_unlearn_epochs": 50,
            "termination_every": 1,
            "seed": 0,
            "loss": {
                "temperature": 0.5,
                "unlearn_weight": 1.0,
                "ce_weight": 1.0,
                "variant": "sample",
            },
        }


def _task_rows(task: ul.UnlearnTask) -> tuple:
    """What a task is: its kind, class and index arrays as lists."""
    rows = (task.unlearn_train_idx, task.eval_unlearn_idx, task.eval_test_idx)
    return (task.kind, task.class_id, *(None if a is None else a.tolist() for a in rows))


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, imported read-only: no bytecode is written
    beside it, and floor.py, which it imports, is found beside it."""
    perfbench = str(standard.STANDARD.parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(perfbench)


class TestStandardExperiment:
    """experiments/standard/ holds the acceptance suite's experiment once.
    The suite's pipelines, the demos and the README read it; the
    benchmark keeps a copy of its own, which must equal it."""

    @pytest.mark.parametrize("name", standard.EXPERIMENTS)
    def test_file_resolves_and_builds_without_training(self, name):
        config = resolve_config(json.loads((standard.STANDARD / f"{name}.json").read_text()))
        train_ds, test_ds = _build_datasets(config)
        assert _build_arch(config, train_ds).input_dim == train_ds.num_features
        kind = name if name != "train" else "sample"
        assert _build_engine_cfg(config, kind).loss.variant == kind
        if name != "train":
            task = _build_task(config, train_ds, test_ds)
            assert task.kind == name and len(task.unlearn_train) > 0

    def test_files_share_their_dataset_and_architecture(self):
        configs = [standard.config(name, 0) for name in standard.EXPERIMENTS]
        for section in ("dataset", "architecture"):
            assert all(c[section] == configs[0][section] for c in configs), section

    def test_benchmark_constants_are_the_files(self, workloads):
        w = workloads
        train = standard.config("train", w.EXPERIMENT_SEED)
        synthetic, engine = train["dataset"]["synthetic"], train["engine"]
        assert (w.NUM_CLASSES, w.DIM, w.PER_CLASS_TRAIN, w.PER_CLASS_TEST, w.SPREAD) == tuple(
            synthetic[k] for k in ("num_classes", "dim", "per_class_train", "per_class_test", "spread")
        )
        assert (w.BATCH_SIZE, w.TRAIN_LR, w.BASE_EPOCHS) == (
            engine["batch_size"], engine["learning_rate"], engine["max_epochs"]
        )
        for name in ("class", "sample"):
            assert w.MAX_PASSES == standard.config(name, 0)["engine"]["max_unlearn_epochs"]
        assert w.conftest_arch(ul) == standard.Pipeline(w.EXPERIMENT_SEED).arch

    def test_benchmark_train_and_unlearn_configs_are_the_files(self, workloads, tmp_path):
        w = workloads
        p = standard.Pipeline(w.EXPERIMENT_SEED)
        # The train workload times one epoch per op, each with its own seed.
        train = w.Train(ul, 0, tmp_path)
        assert train._config(3) == dataclasses.replace(p.engine_config("train"), seed=3, max_epochs=1)
        requests = {label: (spec, cfg) for label, spec, cfg in w.Unlearn(ul, 0, tmp_path)._requests()}
        for name, task in (("class", p.class_task), ("sample", p.sample_task)):
            label = f"class{task.class_id}" if name == "class" else f"sample{len(task.unlearn_train)}"
            spec, cfg = requests[label]
            assert cfg == p.engine_config(name)
            assert _task_rows(ul.make_task(p.train_data, p.test_data, spec)) == _task_rows(task)

    @pytest.mark.parametrize("name", ["class", "sample"])
    def test_benchmark_audit_configs_are_the_files(self, workloads, tmp_path, name):
        w = workloads
        audit = w.Audit(ul, 0, tmp_path)
        got = resolve_config(audit._config(tmp_path, name))
        want = standard.config(name, 0)
        for section in ("architecture", "loss", "task"):
            assert got[section] == want[section], section
        # One config per kind trains the audit's base and unlearns from it,
        # so it takes the train file's learning rate, and its runs are short.
        assert _build_engine_cfg(got, name) == dataclasses.replace(
            standard.Pipeline(0).engine_config(name),
            learning_rate=standard.config("train", 0)["engine"]["learning_rate"],
            max_epochs=audit.train_epochs,
            max_unlearn_epochs=audit.unlearn_passes,
        )
