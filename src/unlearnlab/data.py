"""Datasets, unlearning task partitions, and batch iteration.

A dataset is a dense float64 feature matrix with integer labels. An
unlearning task stores one request, the training rows to forget (and
the class, for a class task), and derives the views the engine and the
evaluation harness work with: the unlearning and remaining portions of
the training split, the matching test portions for class tasks, and
the fixed evaluation subsets used by the termination checks.

All randomness flows through numpy Generators seeded from explicit
integers, so every split, batch order, and draw is reproducible.

Every artifact the library writes, the CSVs here, checkpoints and the
CLI's JSON reports, goes through ``_replacing``, so a failed write
leaves the old file in place.
"""
from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    EmptyUnlearnSetError,
    ParseError,
    ValidationError,
    integer_array,
    integer_problems,
    real_array,
    real_or_nan,
)

# Largest evaluation subset used by the sample-task termination check.
EVAL_CAP = 500

# Most float64 values of one array of a block: 128 KiB, glibc's default
# mmap threshold, so that a block's arrays come from the heap and reuse
# its memory instead of faulting fresh pages in. The untaped model passes
# (``model._blocks``) and a contrastive pass's remaining batches
# (``_remaining_blocks``), with what its steps read of them, run in such blocks.
_BLOCK_VALUES = 16_384

# Purpose tags keep RNG streams for different jobs independent even
# when they share a base seed.
TAG_TRAIN_BATCHES = 1
TAG_UNLEARN_BATCHES = 2
TAG_REMAIN_SAMPLER = 3
TAG_TASK_SELECT = 4
TAG_EVAL_SUBSET = 5

# Largest label a CSV row may carry, as labels are stored as int64, and
# largest count generate_synthetic takes.
_LABEL_MAX = np.iinfo(np.int64).max

# What a test split fits, in _check_fits' terms: its train split's sizes.
_SPLITS = ("test split does not fit the train split", "train width", "train class count")


class Dataset:
    """Feature matrix plus labels for a fixed number of classes."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, num_classes: int):
        problems = integer_problems(num_classes=(num_classes, 2))
        features = real_array(features, "features", problems)
        labels = real_array(labels, "labels", problems)
        if features is None or labels is None:
            raise ValidationError("invalid dataset: " + "; ".join(problems))
        features = features.astype(np.float64, order="C")
        # The labels as int64; without a valid class count, still checked whole.
        whole = integer_array(labels, "labels", problems, _LABEL_MAX if problems else num_classes)
        if features.ndim != 2:
            problems.append("features must be a rank-2 array")
        elif features.shape[0] < 1:
            problems.append("dataset must contain at least one sample")
        if labels.ndim != 1 or (features.ndim == 2 and labels.shape[0] != features.shape[0]):
            problems.append("labels must be one per feature row")
        if features.size and not np.all(np.isfinite(features)):
            problems.append("features must be finite")
        if problems:
            raise ValidationError("invalid dataset: " + "; ".join(problems))
        features.flags.writeable = False
        whole.flags.writeable = False
        self.features = features
        self.labels = whole
        self.num_classes = int(num_classes)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        indices = _row_indices(indices, self, "subset")
        return Dataset(self.features[indices], self.labels[indices], self.num_classes)

    def class_indices(self, class_id: int) -> np.ndarray:
        if problems := integer_problems(class_id=(class_id, 0, self.num_classes - 1)):
            raise ValidationError(problems[0])
        return np.flatnonzero(self.labels == class_id)


def _check_fits(
    data: Dataset,
    width: int,
    num_classes: int,
    against=("model does not fit the data", "input_dim", "num_classes"),
) -> None:
    """The one rule that data fits a model, or a test split its train
    split: its width is width and its class count num_classes. against is
    the message's subject and the names of the two sizes, a model's by
    default. A DimensionError names every mismatch."""
    subject, width_name, k_name = against
    problems = []
    if data.num_features != width:
        problems.append(f"batch width {data.num_features} does not match {width_name} {width}")
    if data.num_classes != num_classes:
        problems.append(f"class count {data.num_classes} does not match {k_name} {num_classes}")
    if problems:
        raise DimensionError(f"{subject}: " + "; ".join(problems))


def standardize_pair(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Standardize both splits with the train split's column means and stds.

    The test split must fit the train split (``_check_fits``). Constant
    columns carry no information; they are centred but left unscaled
    instead of dividing by zero. A column of finite values whose train
    mean or std overflows (its std would scale it to zeros), or whose
    test values overflow once centred, is a ValidationError naming the
    column, raised without numpy's overflow warning.
    """
    _check_fits(test, train.num_features, train.num_classes, _SPLITS)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)
        std = np.where(std < 1e-8, 1.0, std)
        scaled = [(d.features - mean) / std for d in (train, test)]
    fine = np.isfinite(std) & np.isfinite(scaled[1]).all(axis=0)
    if not fine.all():
        raise ValidationError(f"cannot standardize column {np.argmin(fine)}: it overflows float64")
    return tuple(Dataset(x, d.labels, d.num_classes) for x, d in zip(scaled, (train, test)))


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """The Euclidean distance, also where its square overflows."""
    d = np.linalg.norm(a - b)
    return math.hypot(*(a - b)) if d == math.inf else d


def _place_means(num_classes: int, dim: int, min_distance: float, rng) -> np.ndarray:
    """Class means with every pairwise distance >= min_distance.

    When the classes fit into the ambient dimension the means are scaled
    columns of a random orthogonal matrix, which meets the distance bound
    exactly. Otherwise fall back to rejection sampling with a growing
    radius, which terminates for any class count while the candidates stay
    finite; one that overflows is a ValidationError. A distance whose
    square overflows (past about 1.3e154) reads inf in ``np.linalg.norm``
    and is recomputed by ``math.hypot``, which scales before squaring, so
    the bound holds at every spread.
    """
    if num_classes <= dim:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        scale = min_distance * 1.15 / np.sqrt(2.0)
        return q[:, :num_classes].T * scale
    radius = min_distance * max(1.0, num_classes ** (1.0 / dim))
    means: list[np.ndarray] = []
    failures = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while len(means) < num_classes:
            candidate = rng.standard_normal(dim) * radius
            if not np.isfinite(candidate).all():
                raise ValidationError(
                    "invalid generator settings: spread too large to place the class means"
                )
            if all(_distance(candidate, m) >= min_distance for m in means):
                means.append(candidate)
                failures = 0
            else:
                failures += 1
                if failures > 200:
                    radius *= 1.5
                    failures = 0
    return np.stack(means)


def generate_synthetic(
    num_classes: int,
    dim: int,
    per_class_train: int,
    per_class_test: int,
    spread: float = 1.0,
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """Gaussian class clusters split into train and test.

    Each class is a unit-variance isotropic Gaussian around its own mean;
    means are placed deterministically from the seed with pairwise
    distance at least 4 * spread, so spread controls how separable the
    classes are. Train and test are drawn independently.
    """
    problems = integer_problems(
        num_classes=(num_classes, 2, _LABEL_MAX),
        dim=(dim, 2, _LABEL_MAX),
        per_class_train=(per_class_train, 1, _LABEL_MAX),
        per_class_test=(per_class_test, 1, _LABEL_MAX),
        seed=(seed, 0),
    )
    # The means are placed 4 * spread apart; NaN, inf or an overflowing
    # product would keep the placement from ever accepting one.
    min_distance = 4.0 * real_or_nan(spread)
    if not 0 < min_distance < math.inf:
        problems.append("spread must be positive and 4 * spread finite")
    if problems:
        raise ValidationError("invalid generator settings: " + "; ".join(problems))
    # numpy refuses a float64 array past np.intp's byte range with a bare
    # ValueError; Python ints count the bytes without wrapping.
    n, d, rows = int(num_classes), int(dim), max(int(per_class_train), int(per_class_test))
    if 8 * max(d * d, n * rows * d) > np.iinfo(np.intp).max:
        raise ValidationError(
            f"invalid generator settings: a {d} x {d} or {n} x {rows} x {d} array is too big"
        )

    rng = np.random.default_rng(seed)
    means = _place_means(num_classes, dim, min_distance, rng)

    def draw(per_class: int) -> tuple[np.ndarray, np.ndarray]:
        feats = np.concatenate(
            [means[k] + rng.standard_normal((per_class, dim)) for k in range(num_classes)]
        )
        labels = np.repeat(np.arange(num_classes), per_class)
        return feats, labels

    train_x, train_y = draw(per_class_train)
    test_x, test_y = draw(per_class_test)
    return (
        Dataset(train_x, train_y, num_classes),
        Dataset(test_x, test_y, num_classes),
    )


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write an "f0,...,f{k-1},label" header and one row per sample.

    Each feature is written as its ``repr``, so it round-trips exactly,
    and the label as a plain integer.
    """
    rows = zip(dataset.features.tolist(), dataset.labels.tolist())
    _write_csv(
        path,
        [f"f{i}" for i in range(dataset.num_features)] + ["label"],
        ([*map(repr, row), str(label)] for row, label in rows),
    )


@contextlib.contextmanager
def _replacing(path: str | Path, mode: str = "w", **open_args):
    """A file to write path's new contents to, all of them or none.

    The file is a temp file in path's directory. When the block ends
    cleanly, ``os.replace`` puts it in path's place; when it raises, the
    temp file is removed and path is left as it was. The new file gets
    the mode an in-place write would create it with, 0o666 & ~umask
    (``mkstemp`` alone gives 0o600).
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with open(fd, mode, **open_args) as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write the header and each row of field strings as one line, through
    ``_replacing``.

    Fields are joined by "," and lines end in "\\r\\n", the csv module's
    default dialect, so for fields that need no quoting (numbers and
    empty fields, never a lone empty one) the bytes are those
    ``csv.writer`` would write.
    """
    with _replacing(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def load_csv(path: str | Path) -> Dataset:
    """Read a dataset written by save_csv; classes = max label + 1.

    The header is checked first, then the body is parsed in one
    ``np.loadtxt`` call. A body that call does not read cleanly goes to
    the line-by-line parser instead, which raises each body error with
    its line number. Both read a save_csv file to the same bits.
    """
    path = Path(path)
    with _open_csv(path) as fh:
        width = _read_header(path, _csv_rows(path, fh))
        table = _read_body(fh, width)
    if table is None:
        return _load_csv_lines(path)
    labels = table["label"]
    return Dataset(table["f"], labels, int(labels.max()) + 1)


def _open_csv(path: Path):
    try:
        return path.open("r", newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _csv_rows(path: Path, fh):
    """(line number, row) for each csv record of fh. A record the csv
    module rejects, such as a field past its size limit, is a ParseError,
    and so is a byte that is not UTF-8 (see _utf8_error).
    """
    reader = csv.reader(fh)
    for lineno in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        except UnicodeDecodeError:
            raise ParseError(f"{path}: {_utf8_error(path)}") from None
        yield lineno, row


def _utf8_error(path: Path) -> str:
    """The first byte of path that is not UTF-8, as "line N: <error>". A
    text file decodes in chunks, so the record being read may sit lines
    before the bad byte; this error path reads the file again to name its
    line."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return f"line {line}: {exc}"


def _read_header(path: Path, rows) -> int:
    """Check the "f0,...,f{k-1},label" header; return the feature width k."""
    try:
        _, header = next(rows)
    except StopIteration:
        raise ParseError(f"{path}: line 1: empty file") from None
    expected = [f"f{i}" for i in range(len(header) - 1)] + ["label"]
    if len(header) < 2 or header != expected:
        raise ParseError(
            f"{path}: line 1: header must be f0,...,f{{k-1}},label, got {header}"
        )
    return len(header) - 1


def _read_body(fh, width: int) -> np.ndarray | None:
    """The rows after the header as one structured array, or None.

    None means the line parser must decide: a field numpy cannot read
    (quotes, a label such as "1.0" or one past int64, a field count that
    changes, a comment or whitespace-only line), no rows at all, or a
    negative label. Warnings count as failures, because numpy 1.23-1.26
    read "1.0" into an integer column with only a DeprecationWarning.
    """
    dtype = np.dtype([("f", np.float64, (width,)), ("label", np.int64)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if table.size == 0 or table["label"].min() < 0:
        return None
    return table


def _load_csv_lines(path: Path) -> Dataset:
    """The line-by-line parser: csv.reader, float() per feature, int() per label."""
    with _open_csv(path) as fh:
        records = _csv_rows(path, fh)
        width = _read_header(path, records)
        rows, labels = [], []
        for lineno, row in records:
            if not row:
                continue
            if len(row) != width + 1:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width + 1} fields, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row[:-1]])
                label = int(row[-1])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if label < 0:
                raise ParseError(f"{path}: line {lineno}: negative label {label}")
            if label > _LABEL_MAX:
                raise ParseError(f"{path}: line {lineno}: label {label} does not fit in int64")
            labels.append(label)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    labels_arr = np.asarray(labels, dtype=np.int64)
    return Dataset(np.asarray(rows), labels_arr, int(labels_arr.max()) + 1)


@dataclass(frozen=True)
class TaskSpec:
    """What to unlearn: one whole class, or a set of training samples."""

    kind: str
    class_id: int | None = None
    sample_count: int | None = None
    sample_indices: tuple[int, ...] | None = None
    seed: int = 0


@dataclass
class Batch:
    """Rows of a dataset view and their indices into that view."""

    features: np.ndarray
    labels: np.ndarray
    indices: np.ndarray


def _row_indices(values, split: Dataset, what: str) -> np.ndarray:
    """values as int64 row indices of split, by ``errors.integer_array``:
    a non-integral value, such as 1.5 or NaN, a bool or a negative index is
    a ValidationError, never a row."""
    return integer_array(values, f"{what} indices", ValidationError, len(split))


class UnlearnTask:
    """Train/test pair partitioned for one unlearning request.

    The task is made here and only here; ``make_task`` only draws a
    sample task's rows. It stores the request: the sorted training rows
    to unlearn, the class of a class task, and the evaluation subsets of
    a sample task. A class task's rows are its class's training rows; a
    caller may pass them, in any order, but no other rows. A sample
    task's evaluation subsets are drawn from the seed's
    ``TAG_EVAL_SUBSET`` stream: up to ``EVAL_CAP`` of its rows and of
    the test rows. The remaining training rows are the complement of the
    unlearning rows, and a class task splits the test rows by class_id,
    so both splits are partitioned by construction. Index arrays refer
    to rows of the full train or test split.

    The constructor holds the test split to the train split
    (``_check_fits``, a DimensionError), the kind to "class" or
    "sample", the seed and a class task's class_id to the integer rule,
    a sample task's class_id to None, and the unlearning indices to
    non-empty, unique, in-range integers (``errors.integer_array``), each
    with a ValidationError, an empty set with an EmptyUnlearnSetError. A
    class with no training rows or no test rows to evaluate termination
    on is an EmptyUnlearnSetError.
    """

    def __init__(
        self,
        train: Dataset,
        test: Dataset,
        kind: str,
        unlearn_train_idx: np.ndarray | None = None,
        class_id: int | None = None,
        seed: int = 0,
    ):
        _check_fits(test, train.num_features, train.num_classes, _SPLITS)
        if not isinstance(kind, str) or kind not in ("class", "sample"):
            raise ValidationError(f"unknown task kind {kind!r}")
        problems = integer_problems(seed=(seed, 0))
        if kind == "class":
            problems += integer_problems(class_id=(class_id, 0, train.num_classes - 1))
        elif class_id is not None:
            problems.append(f"a sample task takes no class_id, got {class_id!r}")
        if problems:
            raise ValidationError("invalid task: " + "; ".join(problems))
        if unlearn_train_idx is not None or kind == "sample":
            idx = np.sort(_row_indices(unlearn_train_idx, train, "unlearning"), axis=None)
            if idx.size == 0:
                raise EmptyUnlearnSetError("unlearning set selects no training samples")
            if np.any(idx[1:] == idx[:-1]):
                raise ValidationError("unlearning indices contain duplicates")
        self.eval_unlearn_idx = self.eval_test_idx = None
        if kind == "class":
            rows = train.class_indices(class_id)
            if rows.size == 0:
                raise EmptyUnlearnSetError(f"class {class_id} has no training samples")
            if test.class_indices(class_id).size == 0:
                raise EmptyUnlearnSetError(
                    f"class {class_id} has no test samples to evaluate termination on"
                )
            if unlearn_train_idx is not None and not np.array_equal(idx, rows):
                raise ValidationError(f"unlearning indices must be the rows of class {class_id}")
            idx = rows
        else:
            rng = np.random.default_rng([seed, TAG_EVAL_SUBSET])
            eval_u = rng.choice(idx, size=min(idx.size, EVAL_CAP), replace=False)
            eval_ts = rng.choice(len(test), size=min(len(test), EVAL_CAP), replace=False)
            self.eval_unlearn_idx, self.eval_test_idx = np.sort(eval_u), np.sort(eval_ts)
        remain = np.ones(len(train), dtype=bool)
        remain[idx] = False
        self.train, self.test, self.kind = train, test, kind
        self.class_id = class_id
        self.unlearn_train_idx = idx
        self.remain_train_idx = np.flatnonzero(remain)

    @cached_property
    def unlearn_train(self) -> Dataset:
        return self.train.subset(self.unlearn_train_idx)

    @cached_property
    def remain_train(self) -> Dataset:
        return self.train.subset(self.remain_train_idx)

    def _test_rows(self, of_class: bool) -> Dataset:
        if self.kind != "class":
            raise ValidationError("sample task has no test-side views")
        return self.test.subset(np.flatnonzero((self.test.labels == self.class_id) == of_class))

    @cached_property
    def unlearn_test(self) -> Dataset:
        """Test rows of the unlearned class (class tasks only)."""
        return self._test_rows(True)

    @cached_property
    def remain_test(self) -> Dataset:
        """Test rows of every other class (class tasks only)."""
        return self._test_rows(False)

    @cached_property
    def eval_unlearn(self) -> Dataset:
        """Unlearning-side evaluation view used by the termination check."""
        if self.kind == "class":
            return self.unlearn_test
        return self.train.subset(self.eval_unlearn_idx)

    @cached_property
    def eval_test(self) -> Dataset:
        """Test-side evaluation view for the sample termination check."""
        if self.kind == "class":
            raise ValidationError("class task termination uses only the unlearning view")
        return self.test.subset(self.eval_test_idx)


def make_task(train: Dataset, test: Dataset, spec: TaskSpec) -> UnlearnTask:
    """Partition a train/test pair according to a task spec.

    The ``UnlearnTask`` constructor holds every task rule and derives a
    class task's rows and a sample task's evaluation subsets. What it
    cannot see is a sample task's ``sample_count``: without explicit
    ``sample_indices``, that many distinct training rows are drawn from
    the seed's ``TAG_TASK_SELECT`` stream. A sample_count that is not an
    integer >= 1 raises EmptyUnlearnSetError, and one past the train size
    a ValidationError; the seed is checked before it seeds the draw. A
    sample_count on a class spec, or beside ``sample_indices``, is a
    ValidationError; the spec's other fields go to the constructor
    whatever the kind, so it refuses a sample spec's class_id and a class
    spec's indices other than the class's rows.
    """
    # A kind that is not a string, an array among them, goes to the
    # constructor's named error unread.
    kind = spec.kind if isinstance(spec.kind, str) else None
    rows = spec.sample_indices
    if spec.sample_count is not None and (kind == "class" or rows is not None):
        raise ValidationError(
            "invalid task: sample_count is for a sample task without sample_indices"
        )
    if kind == "sample" and rows is None:
        if problems := integer_problems(seed=(spec.seed, 0)):
            raise ValidationError("invalid task: " + problems[0])
        if problems := integer_problems(sample_count=(spec.sample_count, 1)):
            raise EmptyUnlearnSetError("invalid task: " + problems[0])
        if spec.sample_count > len(train):
            raise ValidationError(
                f"sample_count {spec.sample_count} exceeds train size {len(train)}"
            )
        rng = np.random.default_rng([spec.seed, TAG_TASK_SELECT])
        rows = rng.choice(len(train), size=spec.sample_count, replace=False)
    return UnlearnTask(train, test, spec.kind, rows, spec.class_id, spec.seed)


def batches(view: Dataset, batch_size: int, seed) -> list[Batch]:
    """Seeded permutation of a view, chunked into batches.

    Only the final chunk may be short, so every row appears exactly once
    per epoch. The seed is an integer >= 0 or a sequence of them, such as
    the engine's [seed, tag, epoch].
    """
    if isinstance(seed, (list, tuple)) or isinstance(seed, np.ndarray) and seed.ndim:
        seeds = {f"seed[{i}]": (s, 0) for i, s in enumerate(seed)}
    else:
        seeds = {"seed": (seed, 0)}
    if problems := integer_problems(batch_size=(batch_size, 1), **seeds):
        raise ValidationError("; ".join(problems))
    return [Batch(*batch) for batch in _batches(view, batch_size, seed)]


def _batches(view: Dataset, batch_size: int, seed) -> list[tuple]:
    """batches' core, without its checks, for the engine, whose batch size
    and seeds its EngineConfig checked: each batch as its (features,
    labels, indices)."""
    order = np.random.default_rng(seed).permutation(len(view))
    # One gather per epoch; each batch is a slice of it.
    features, labels = view.features[order], view.labels[order]
    return [
        (features[s : s + batch_size], labels[s : s + batch_size], order[s : s + batch_size])
        for s in range(0, len(view), batch_size)
    ]


def sample_remaining(task: UnlearnTask, batch_size: int, rng: np.random.Generator) -> Batch:
    """One uniform without-replacement batch from the remaining train view.

    Draws fresh from the supplied generator on every call. An unlearning
    pass draws its remaining batches through ``_remaining_blocks``,
    which makes the same draws, in the same order.
    """
    return next(_remaining_batches(task, batch_size, rng, 1))


def _remaining_batches(
    task: UnlearnTask, batch_size: int, rng: np.random.Generator, planned: int
):
    """Yield remaining batches, each drawn as ``sample_remaining`` draws
    one, for as long as they are asked for: the batches of
    ``_remaining_blocks`` with the width of a feature row."""
    width = task.remain_train.num_features
    for features, labels, idx in _remaining_blocks(task, batch_size, rng, planned, width):
        for j in range(len(idx)):
            yield Batch(features[j], labels[j], idx[j])


def _remaining_blocks(
    task: UnlearnTask, batch_size: int, rng: np.random.Generator, planned: int, width: int
):
    """Yield remaining batches in blocks of (features, labels, indices),
    each batch drawn as ``sample_remaining`` draws one, one ``rng.choice``
    per batch in order, for as long as they are asked for.

    The first planned batches, those a pass is sure to use, come in blocks
    of as many batches as hold at most _BLOCK_VALUES values in an array of
    width values per batch row (at least one), each block's rows gathered
    by one index; later ones come one at a time, so no batch is drawn that
    is not asked for. The batch-size rule runs when the first block is
    asked for.
    """
    remain = task.remain_train
    # The count rule runs only where the plain test fails.
    if type(batch_size) is not int or not 1 <= batch_size <= len(remain):
        if problems := integer_problems(batch_size=(batch_size, 1)):
            raise ValidationError(problems[0])
        if batch_size > len(remain):
            raise ConfigurationError(
                f"remaining train view has {len(remain)} rows, need >= {batch_size}"
            )
    rows = len(remain)
    per_block = max(1, _BLOCK_VALUES // (batch_size * width))
    while True:
        count = max(1, min(per_block, planned))
        planned -= count
        idx = np.array([rng.choice(rows, size=batch_size, replace=False) for _ in range(count)])
        yield remain.features[idx], remain.labels[idx], idx
