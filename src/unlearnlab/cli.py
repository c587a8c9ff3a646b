"""Command-line entry points.

Five subcommands cover the full experiment cycle:

    gen-data   synthesize a train/test CSV pair plus a manifest
    train      fit a model on the training split
    unlearn    apply contrastive unlearning or a baseline to a checkpoint
    eval       accuracy report and embedding geometry for a checkpoint
    mia        membership-inference attack report for a checkpoint

Commands read an optional JSON config; command-line flags override it.
Every command reads all its inputs and computes its results, then
writes its fully-resolved configuration (defaults materialized) into the
output directory, so a command that fails writes nothing; re-running
from that echoed file reproduces the outputs bit-exactly apart from
wall-clock fields. Exit codes: 0 success, 2 invalid
configuration or arguments, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

from .data import (
    Dataset,
    TaskSpec,
    UnlearnTask,
    _replacing,
    generate_synthetic,
    load_csv,
    make_task,
    save_csv,
    standardize_pair,
)
from .engine import (
    EngineConfig,
    retrain,
    train,
    unlearn_contrastive,
    unlearn_finetune,
    unlearn_neggrad,
)
from .errors import ParseError, UnlearnLabError, ValidationError
from .evaluation import embedding_geometry, evaluate, run_mia
from .losses import LossConfig
from .model import ModelArchitecture, load_checkpoint, save_checkpoint
from . import __version__

# Each unlearning method's run: retrain starts from the architecture, every
# other method from a starting checkpoint.
_RUNNERS = {
    "contrastive": unlearn_contrastive,
    "retrain": retrain,
    "finetune": unlearn_finetune,
    "neggrad": unlearn_neggrad,
}
METHODS = tuple(_RUNNERS)

_SYNTHETIC_DEFAULTS = {
    "num_classes": 4,
    "dim": 8,
    "per_class_train": 500,
    "per_class_test": 100,
    "spread": 1.0,
    "seed": 0,
}

_CSV_DEFAULTS = {"train": None, "test": None}

# The engine and loss sections are EngineConfig's and LossConfig's fields
# and defaults; the loss variant is no config field, it follows the task.
_ENGINE_DEFAULTS = EngineConfig().to_dict()
_LOSS_DEFAULTS = _ENGINE_DEFAULTS.pop("loss")
del _LOSS_DEFAULTS["variant"]

_DEFAULTS = {
    "dataset": {"synthetic": dict(_SYNTHETIC_DEFAULTS)},
    "architecture": {"hidden": [32, 32], "embedding_dim": 16, "activation": "relu"},
    "engine": _ENGINE_DEFAULTS,
    "loss": _LOSS_DEFAULTS,
    "task": None,
    "unlearn": {"method": "contrastive", "from": None},
    "eval": {"model": None, "reference": None},
    "mia": {"model": None, "split_seed": 0},
    "output_dir": "out",
}

_TASK_DEFAULTS = {"kind": None, "class_id": None, "count": None, "seed": 0, "index_file": None}
_OPTIONAL_INTS = {"task.class_id", "task.count"}
_SEEDS = {"dataset.synthetic.seed", "engine.seed", "task.seed", "mia.split_seed"}
_TYPE_NAMES = {
    int: "an integer", float: "a number", bool: "a boolean", str: "a string", list: "a list"
}


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(loaded, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return loaded


def _typed(value, default, name: str):
    """value as the type of its field's default (see resolve_config), else ValueError."""
    optional = default is None
    if optional:
        if value is None:
            return None
        default = 0 if name in _OPTIONAL_INTS else ""
    kind = type(default)
    if kind is list and isinstance(value, list):
        return [_typed(v, 0, f"{name}[{i}]") for i, v in enumerate(value)]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if name in _SEEDS and number and value < 0:
        raise ValueError(f"{name}: must be a non-negative integer")
    if type(value) is kind or number and (kind is float or kind is int and value.is_integer()):
        try:
            return kind(value)
        except OverflowError:  # an integer past the float range
            raise ValueError(f"{name}: must be a number within the float range") from None
    raise ValueError(f"{name}: must be {_TYPE_NAMES[kind]}" + (" or null" if optional else ""))


def _merge_section(defaults: dict, user, section: str, problems: list[str]) -> dict:
    merged = copy.deepcopy(defaults)
    if user is None:
        return merged
    if not isinstance(user, dict):
        problems.append(f"{section}: must be an object")
        return merged
    for key, value in user.items():
        if key not in defaults:
            problems.append(f"{section}.{key}: unknown field")
            continue
        try:
            merged[key] = _typed(value, defaults[key], f"{section}.{key}")
        except ValueError as exc:
            problems.append(str(exc))
    return merged


def resolve_config(user: dict) -> dict:
    """Materialize defaults and check every field, reporting all problems at once.

    Each value must have its default's type, except that an int field takes
    an integral float and a float field any number (bools are not numbers).
    hidden takes a list of integers. A None default takes a path string or
    null; task.class_id and task.count take an integer or null. Seeds must
    be non-negative. A task section holds its kind's fields only: a count
    on a class task or beside an index_file, and a class_id on a sample
    task, are refused by their config names, before any data is made.
    """
    problems: list[str] = []
    config = copy.deepcopy(_DEFAULTS)
    for key in user:
        if key not in _DEFAULTS:
            problems.append(f"{key}: unknown section")

    dataset = user.get("dataset")
    if dataset is not None:
        if not isinstance(dataset, dict) or set(dataset) - {"synthetic", "csv"}:
            problems.append("dataset: must contain only 'synthetic' or 'csv'")
        elif len(dataset) != 1:
            problems.append("dataset: exactly one of 'synthetic' or 'csv' is required")
        elif "synthetic" in dataset:
            config["dataset"] = {
                "synthetic": _merge_section(
                    _SYNTHETIC_DEFAULTS, dataset["synthetic"], "dataset.synthetic", problems
                )
            }
        else:
            csv_cfg = _merge_section(_CSV_DEFAULTS, dataset["csv"], "dataset.csv", problems)
            if not csv_cfg.get("train") or not csv_cfg.get("test"):
                problems.append("dataset.csv: both 'train' and 'test' paths are required")
            config["dataset"] = {"csv": csv_cfg}

    for section in ("architecture", "engine", "loss", "unlearn", "eval", "mia"):
        config[section] = _merge_section(
            _DEFAULTS[section], user.get(section), section, problems
        )

    if user.get("task") is not None:
        task = config["task"] = _merge_section(_TASK_DEFAULTS, user["task"], "task", problems)
        if task["kind"] not in ("class", "sample"):
            problems.append("task.kind: must be 'class' or 'sample'")
        elif task["kind"] == "class" and task["class_id"] is None:
            problems.append("task.class_id: required for a class task")
        elif task["kind"] == "sample" and task["count"] is None and not task["index_file"]:
            problems.append("task.count or task.index_file: required for a sample task")
        if task["count"] is not None and (task["kind"] == "class" or task["index_file"]):
            problems.append("task.count: only for a sample task without task.index_file")
        if task["kind"] == "sample" and task["class_id"] is not None:
            problems.append("task.class_id: only for a class task")

    if "output_dir" in user:
        if not isinstance(user["output_dir"], str) or not user["output_dir"]:
            problems.append("output_dir: must be a non-empty string")
        else:
            config["output_dir"] = user["output_dir"]

    if problems:
        raise ValidationError("invalid config: " + "; ".join(problems))
    return config


def _resolve_from_args(args, need_task: bool = False) -> dict:
    user = _load_json(args.config) if args.config else {}
    config = resolve_config(user)
    if args.out is not None:
        if not args.out:
            raise ValidationError("--out: must be a non-empty path")
        config["output_dir"] = args.out
    if args.seed is not None:
        if args.seed < 0:
            raise ValidationError("--seed: must be a non-negative integer")
        config["engine"]["seed"] = args.seed
    if need_task and config["task"] is None:
        raise ValidationError("this command requires a 'task' section in the config")
    return config


def _apply_flags(section: dict, args) -> dict:
    """Override each key of section that a flag with that key as its dest was given for."""
    section.update((k, v) for k, v in vars(args).items() if k in section and v is not None)
    return section


def _write_json(path: Path, obj: dict) -> None:
    """Write one JSON artifact atomically: sorted keys, two-space indent,
    final newline."""
    with _replacing(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _echo_config(config: dict) -> Path:
    """Create the output directory, echo the resolved config into it, return it."""
    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.echo.json", config)
    return out_dir


def _write_run(config: dict, params, record) -> Path:
    """Echo the config, then write a run's model.ckpt and run.json; return
    the checkpoint's path."""
    out_dir = _echo_config(config)
    save_checkpoint(params, out_dir / "model.ckpt")
    _write_json(out_dir / "run.json", record.to_dict())
    return out_dir / "model.ckpt"


def _build_datasets(config: dict) -> tuple[Dataset, Dataset]:
    dataset = config["dataset"]
    if "synthetic" in dataset:
        return generate_synthetic(**dataset["synthetic"])
    c = dataset["csv"]
    return standardize_pair(load_csv(c["train"]), load_csv(c["test"]))


def _build_arch(config: dict, train_ds: Dataset) -> ModelArchitecture:
    return ModelArchitecture(
        input_dim=train_ds.num_features,
        num_classes=train_ds.num_classes,
        **config["architecture"],
    )


def _read_index_file(path: str) -> tuple[int, ...]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    indices = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            indices.append(int(line))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    return tuple(indices)


def _build_task(config: dict, train_ds: Dataset, test_ds: Dataset) -> UnlearnTask:
    t = config["task"]
    rows = _read_index_file(t["index_file"]) if t["index_file"] else None
    spec = TaskSpec(t["kind"], t["class_id"], t["count"], rows, t["seed"])
    return make_task(train_ds, test_ds, spec)


def _build_task_and_arch(config: dict) -> tuple[UnlearnTask, ModelArchitecture]:
    """The datasets, then the task, then the architecture of a command on a task."""
    train_ds, test_ds = _build_datasets(config)
    return _build_task(config, train_ds, test_ds), _build_arch(config, train_ds)


def _build_engine_cfg(config: dict, variant: str) -> EngineConfig:
    """EngineConfig from the resolved engine and loss sections."""
    return EngineConfig(loss=LossConfig(variant=variant, **config["loss"]), **config["engine"])


def _load_model_for(arch: ModelArchitecture, path: str):
    params = load_checkpoint(path)
    if params.arch != arch:
        raise ValidationError(f"checkpoint architecture {params.arch} does not match config {arch}")
    return params


def cmd_gen_data(args) -> int:
    config = _resolve_from_args(args)
    if "synthetic" not in config["dataset"]:
        raise ValidationError("gen-data generates synthetic data; dataset.csv is not accepted")
    synth = _apply_flags(config["dataset"]["synthetic"], args)
    train_ds, test_ds = _build_datasets(config)

    out_dir = _echo_config(config)
    save_csv(train_ds, out_dir / "train.csv")
    save_csv(test_ds, out_dir / "test.csv")
    manifest = {
        "command": "gen-data",
        "parameters": synth,
        "files": {"train": "train.csv", "test": "test.csv"},
        "rows": {"train": len(train_ds), "test": len(test_ds)},
    }
    _write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {len(train_ds)} train and {len(test_ds)} test rows to {out_dir}")
    return 0


def cmd_train(args) -> int:
    config = _resolve_from_args(args)
    cfg = _build_engine_cfg(config, variant="sample")
    train_ds, _ = _build_datasets(config)
    arch = _build_arch(config, train_ds)
    params, record = train(arch, train_ds, cfg)

    checkpoint = _write_run(config, params, record)
    last = record.rows[-1] if record.rows else {}
    print(
        f"trained {record.gradient_steps} steps; "
        f"train accuracy {last.get('train_accuracy', float('nan')):.4f}; "
        f"saved {checkpoint}"
    )
    return 0


def cmd_unlearn(args) -> int:
    config = _resolve_from_args(args, need_task=True)
    method = _apply_flags(config["unlearn"], args)["method"]
    if method not in METHODS:
        raise ValidationError(f"unlearn.method must be one of {METHODS}")
    cfg = _build_engine_cfg(config, variant=config["task"]["kind"])
    task, arch = _build_task_and_arch(config)

    if method == "retrain":
        if config["unlearn"]["from"]:
            print("note: retrain ignores the starting checkpoint", file=sys.stderr)
        start = arch
    elif not config["unlearn"]["from"]:
        raise ValidationError(
            f"method {method} requires a starting checkpoint (unlearn.from or --from)"
        )
    else:
        start = _load_model_for(arch, config["unlearn"]["from"])

    params, record = _RUNNERS[method](start, task, cfg)

    checkpoint = _write_run(config, params, record)
    print(
        f"{method}: {record.termination_reason}"
        + (f" ({record.termination_detail})" if record.termination_detail else "")
        + f" after {record.gradient_steps} steps; saved {checkpoint}"
    )
    return 0


def cmd_eval(args) -> int:
    config = _resolve_from_args(args, need_task=True)
    if not _apply_flags(config["eval"], args)["model"]:
        raise ValidationError("eval requires a model checkpoint (eval.model or --model)")

    task, arch = _build_task_and_arch(config)
    params = _load_model_for(arch, config["eval"]["model"])
    reference = None
    if config["eval"]["reference"]:
        reference = _load_model_for(arch, config["eval"]["reference"])

    report = evaluate(params, task, reference)
    geometry = embedding_geometry(params, task)

    out_dir = _echo_config(config)
    _write_json(out_dir / "eval.json", report.to_dict())
    geometry.write_csv(out_dir / "geometry.csv")
    parts = ", ".join(f"{k}={v:.4f}" for k, v in sorted(report.accuracies.items()))
    print(f"eval ({task.kind}): {parts}; wrote {out_dir / 'eval.json'}")
    return 0


def cmd_mia(args) -> int:
    config = _resolve_from_args(args, need_task=True)
    if not _apply_flags(config["mia"], args)["model"]:
        raise ValidationError("mia requires a model checkpoint (mia.model or --model)")

    task, arch = _build_task_and_arch(config)
    params = _load_model_for(arch, config["mia"]["model"])

    report = run_mia(params, task, split_seed=config["mia"]["split_seed"])

    out_dir = _echo_config(config)
    _write_json(out_dir / "mia.json", report.to_dict())
    print(
        f"mia: member rate {report.member_rate_unlearn:.4f} on unlearning samples, "
        f"{report.member_rate_heldout_members:.4f} on held-out members; "
        f"wrote {out_dir / 'mia.json'}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unlearnlab",
        description="Contrastive machine unlearning with verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, summary: str) -> argparse.ArgumentParser:
        """A subcommand that runs fn, with the flags every command takes."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")
        p.set_defaults(fn=fn)
        return p

    p = command("gen-data", cmd_gen_data, "generate a synthetic CSV dataset")
    p.add_argument("--classes", type=int, dest="num_classes", help="number of classes")
    p.add_argument("--dim", type=int, help="feature dimension")
    p.add_argument("--train-per-class", type=int, dest="per_class_train")
    p.add_argument("--test-per-class", type=int, dest="per_class_test")
    p.add_argument("--spread", type=float, help="class separation multiplier")

    command("train", cmd_train, "train a model")

    p = command("unlearn", cmd_unlearn, "unlearn a class or sample set")
    p.add_argument("--method", choices=METHODS, help="unlearning method")
    p.add_argument("--from", dest="from", help="starting checkpoint")

    p = command("eval", cmd_eval, "accuracy report and embedding geometry")
    p.add_argument("--model", help="checkpoint to evaluate")
    p.add_argument("--reference", help="reference checkpoint for deltas")

    p = command("mia", cmd_mia, "membership-inference attack report")
    p.add_argument("--model", help="checkpoint to attack")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UnlearnLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ValidationError, ParseError)) else 3


def entrypoint() -> None:
    sys.exit(main())
