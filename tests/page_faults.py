"""Print the minor page faults of a training epoch, an accuracy pass and a
contrastive class pass.

The counts are this process's own (``resource.getrusage(RUSAGE_SELF)
.ru_minflt``), on the seed-0 standard experiment's data and architecture,
as ``demos/standard.py``'s ``Pipeline`` builds them from
``experiments/standard/train.json``: first the faults per epoch of a
20-epoch ``train``, which includes each epoch's accuracy over the 2,000
train rows, then the faults per ``accuracy`` call over those rows,
averaged over 200 calls. Last come the faults per pass of contrastive
class unlearning with the recipe of ``experiments/standard/class.json``
(its task and engine settings), from the 20-epoch model, over 10 passes
with the stop check at the start only, so that every run has 10 passes.
A warm-up run of each kind runs first, so that one-time costs stay out.
A pass that keeps an activation past glibc's mmap threshold (128 KiB)
maps it on allocation and unmaps it on free, and its pages fault back
in on every call; that shows here as tens or hundreds of faults per
call. To compare two trees:

    python tests/page_faults.py ../parent/src
    python tests/page_faults.py

The optional argument is the source directory to import ``unlearnlab``
from, ``src`` next to this file's directory by default; ``standard``
comes from this tree's ``demos`` either way. The counts are printed, not
checked: they depend on the C library and its settings.
pytest does not collect this file; it is a script, not a test.
"""
import dataclasses
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EPOCHS = 20
CALLS = 200
PASSES = 10


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(src: Path) -> None:
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "demos"))
    import unlearnlab as ul
    from standard import Pipeline

    pipeline = Pipeline(0)
    data, arch = pipeline.train_data, pipeline.arch
    cfg = dataclasses.replace(pipeline.engine_config("train"), max_epochs=EPOCHS)

    params, _ = ul.train(arch, data, cfg)
    before = minor_faults()
    ul.train(arch, data, cfg)
    print(f"{(minor_faults() - before) / EPOCHS:8.1f}  faults per train epoch")

    before = minor_faults()
    for _ in range(CALLS):
        ul.accuracy(params, data)
    print(f"{(minor_faults() - before) / CALLS:8.1f}  faults per accuracy call ({len(data)} rows)")

    task = pipeline.class_task
    class_cfg = dataclasses.replace(
        pipeline.engine_config("class"), max_unlearn_epochs=PASSES, termination_every=PASSES + 1
    )
    ul.unlearn_contrastive(params, task, class_cfg)
    before = minor_faults()
    _, record = ul.unlearn_contrastive(params, task, class_cfg)
    passes = sum(row["kind"] == "pass" for row in record.rows)
    print(f"{(minor_faults() - before) / passes:8.1f}  faults per contrastive class pass "
          f"({record.gradient_steps / passes:g} steps)")


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT / "src")
