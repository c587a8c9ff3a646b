"""Print a SHA-256 digest of every artifact of a fixed CLI pipeline.

A refactor should leave every artifact byte for byte as it was. This
script runs ``gen-data``, ``train``, then each of the four ``unlearn``
methods on a class task, a sample task drawn by count and a sample task
read from an index file, each unlearned model followed by
``eval --reference <that task's retrain>`` and ``mia``. Every command
runs through ``cli.main`` in one temporary directory, on the
criterion-8 configuration at spread 0.7, where every method takes
steps on every task; the commands after ``gen-data`` read its CSVs.
The whole pipeline then runs a second time under ``wide/``, with hidden
widths 49 and 26, embedding width 18 and batches of 14 rows. At the
first pipeline's widths (8 and 6, under an inner width of 16) no
product's rows depend on its row count, so a change in how rows are
grouped into products keeps its digests. On OpenBLAS 0.3.31 the second
pipeline's widths and batch size do not hide it: there a row of a
product with an inner width of at least 16 and an output width 1, 2 or
3 past a multiple of 8 has other bits in a product of 2 x 14 rows than
in one of 14.
It prints ``sha256  relative/path`` per artifact, sorted by path: 65
lines per pipeline, the first pipeline's first.
``duration_seconds`` is dropped from each ``run.json`` before hashing,
and ``config.echo.json`` is skipped, since it holds absolute paths.

Compare two trees by running it with each tree's ``src`` first on
``PYTHONPATH`` and diffing the two outputs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=../parent/src python tests/artifact_digests.py > a.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/artifact_digests.py > b.txt
    diff a.txt b.txt

pytest does not collect this file; it is a script, not a test.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from unlearnlab import cli

SYNTHETIC = {
    "num_classes": 3,
    "dim": 4,
    "per_class_train": 60,
    "per_class_test": 30,
    "spread": 0.7,
    "seed": 5,
}
BASE_CONFIG = {
    "architecture": {"hidden": [8], "embedding_dim": 6},
    "engine": {
        "batch_size": 16,
        "max_epochs": 25,
        "max_unlearn_epochs": 6,
        "learning_rate": 0.1,
        "seed": 5,
    },
    "loss": {"unlearn_weight": 0.05},
}
# Each pipeline's changes to BASE_CONFIG, by the directory it writes under.
PIPELINES = {
    "": {},
    "wide": {
        "architecture": {"hidden": [49, 26], "embedding_dim": 18},
        "engine": {**BASE_CONFIG["engine"], "batch_size": 14},
    },
}
# Every unlearning method, retrain first: it is the reference of the others.
METHODS = ("retrain", "contrastive", "finetune", "neggrad")
INDEX_FILE_ROWS = (3, 17, 40, 41, 95, 120, 150, 179)


def run(*argv: str) -> None:
    """cli.main(argv), its output swallowed; a nonzero exit stops the script."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


def write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config))
    return str(path)


def pipeline(inputs: Path, out: Path, changes: dict) -> None:
    """Write the configs and the index file to inputs, every artifact to out."""
    inputs.mkdir(parents=True, exist_ok=True)
    data = out / "data"
    gen = write_config(inputs / "gen.json", {"dataset": {"synthetic": SYNTHETIC}})
    run("gen-data", "--config", gen, "--out", str(data))
    index_file = inputs / "indices.txt"
    index_file.write_text("".join(f"{i}\n" for i in INDEX_FILE_ROWS))
    config = {**BASE_CONFIG, **changes, "dataset": {
        "csv": {"train": str(data / "train.csv"), "test": str(data / "test.csv")}
    }}
    tasks = {
        "class": {"kind": "class", "class_id": 1},
        "sample": {"kind": "sample", "count": 20, "seed": 3},
        "sample-index": {"kind": "sample", "index_file": str(index_file)},
    }
    train = write_config(inputs / "train.json", config)
    run("train", "--config", train, "--out", str(out / "base"))
    base = str(out / "base" / "model.ckpt")
    for name, task in tasks.items():
        cfg = write_config(inputs / f"{name}.json", {**config, "task": task})
        reference = str(out / name / "retrain" / "model.ckpt")
        for method in METHODS:
            run_dir = out / name / method
            model = str(run_dir / "model.ckpt")
            run("unlearn", "--config", cfg, "--method", method, "--from", base,
                "--out", str(run_dir))
            run("eval", "--config", cfg, "--model", model, "--reference", reference,
                "--out", str(run_dir / "eval"))
            run("mia", "--config", cfg, "--model", model, "--out", str(run_dir / "mia"))


def digest(path: Path) -> str:
    if path.name != "run.json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    record = json.loads(path.read_text())
    del record["duration_seconds"]
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = Path(tmp, "inputs"), Path(tmp, "out")
        for prefix, changes in PIPELINES.items():
            pipeline(inputs / prefix, out / prefix, changes)
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "config.echo.json":
                print(f"{digest(path)}  {path.relative_to(out).as_posix()}")


if __name__ == "__main__":
    main()
