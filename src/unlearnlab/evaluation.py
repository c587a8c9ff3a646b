"""Accuracy reports, embedding geometry, and the membership attack.

Two complementary checks of whether unlearning worked:

Accuracy goals compare the unlearned model against a model retrained
without the forgotten data on the relevant views.

The membership-inference attack asks whether the forgotten samples
still look like training members; run_mia is the whole protocol.
Members are drawn from the remaining train split, non-members from the
test split, balanced. The attack features (attack_features) are each
sample's softmax probabilities sorted in descending order, which makes
the attack blind to a sample's class. fit_attack_model fits a binary
logistic AttackModel on them, which calls a sample a member only when
its score is strictly above one half. Unlearning succeeded to the
extent that the forgotten samples' member rate falls below that of
held-out true members.

Embedding geometry gives a direct view: the cosine similarity of each
forgotten sample's embedding to its own class's remaining centroid
should fall as it is pushed out of the cluster.

accuracy, attack_features and embedding_geometry run the model on
fixed blocks of a split's rows (``model._blocks``), so that no
activation grows past glibc's mmap threshold and each pass reuses the
heap instead of faulting fresh pages in; training's per-epoch accuracy
is such a pass. accuracy counts each block's hits, attack_features and
embedding_geometry write each block into one array of the whole split,
and the softmax, sorting and centroids then run on that array. The
blocks are deterministic; every value has the bits of one pass over the
whole split where no layer's rows depend on the product's row count, as
in the standard recipe (see ``model._blocks``), and a pass that fails
raises that pass's error. Each of the three holds one ``np.errstate``
around its whole blocked pass, the rule of ``tensor``: the cores set
none, and the blocks' generator may not hold one across its yields.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, UnlearnTask, _check_fits, _write_csv
from .errors import ValidationError, integer_array, integer_problems, real_array
from .model import ModelParameters, _blocks, _untaped
from .tensor import NORM_EPSILON


def accuracy(params: ModelParameters, dataset: Dataset) -> float:
    """Fraction of samples whose predicted label (``predict_labels``)
    matches the label."""
    _check_fits(dataset, params.arch.input_dim, params.arch.num_classes)
    # The hit count over the row count: the float np.mean of the hits gives.
    with np.errstate(over="ignore", invalid="ignore"):  # the cores' finite checks pick the error
        hits = sum(
            int(np.count_nonzero(np.argmax(logits, axis=1) == dataset.labels[rows]))
            for rows, logits in _blocks(params, dataset.features)
        )
    return hits / len(dataset)


@dataclass
class EvaluationReport:
    """Accuracies per view, optionally with a reference model's next to them."""

    task_kind: str
    accuracies: dict[str, float]
    reference: dict[str, float] | None = None
    deltas: dict[str, float] | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(
    params: ModelParameters,
    task: UnlearnTask,
    reference: ModelParameters | None = None,
) -> EvaluationReport:
    """Accuracies on the views that matter for the task kind.

    Class tasks report the unlearning class's train and test views and
    the remaining test view; sample tasks report the unlearning samples
    and the full test split. With a reference model the report carries
    its accuracies and the (model - reference) deltas.
    """
    if task.kind == "class":
        views = {
            "unlearn_train": task.unlearn_train,
            "unlearn_test": task.unlearn_test,
            "remain_test": task.remain_test,
        }
    else:
        views = {
            "unlearn_train": task.unlearn_train,
            "test": task.test,
        }
    accs = {name: accuracy(params, view) for name, view in views.items()}
    ref_accs = deltas = None
    if reference is not None:
        ref_accs = {name: accuracy(reference, view) for name, view in views.items()}
        deltas = {name: accs[name] - ref_accs[name] for name in views}
    return EvaluationReport(
        task_kind=task.kind, accuracies=accs, reference=ref_accs, deltas=deltas
    )


@dataclass
class GeometryReport:
    """Where the forgotten samples sit relative to the remaining classes.

    One row per unlearning sample: cosine similarity to its own class's
    remaining-train centroid (None when that centroid is absent or
    degenerate) and the maximum similarity over other classes' centroids.
    Centroids are plain means of unit embeddings; a class whose
    embeddings cancel to the zero vector is flagged degenerate.
    """

    rows: list[dict] = field(default_factory=list)
    absent_classes: list[int] = field(default_factory=list)
    degenerate_classes: list[int] = field(default_factory=list)
    mean_own_similarity: float | None = None
    mean_max_other_similarity: float | None = None

    def write_csv(self, path: str | Path) -> None:
        """One line per row; a similarity of None is an empty field."""
        columns = ("own_class_similarity", "max_other_similarity")
        _write_csv(
            path,
            ["sample_index", "label", *columns],
            (
                [str(row["sample_index"]), str(row["label"])]
                + ["" if row[c] is None else repr(row[c]) for c in columns]
                for row in self.rows
            ),
        )


def embedding_geometry(params: ModelParameters, task: UnlearnTask) -> GeometryReport:
    """Centroid similarities for every unlearning sample (see GeometryReport).

    Each centroid's similarities are one stacked product of every row,
    (1 x d) @ (d x 1), which numpy computes as np.dot of the two vectors;
    ``Z @ centroid`` goes through gemv, which may round differently.
    """
    _check_fits(task.train, params.arch.input_dim, params.arch.num_classes)
    remain, unlearn = task.remain_train, task.unlearn_train
    with np.errstate(over="ignore", invalid="ignore"):  # the cores' finite checks pick the error
        remain_z = _untaped(params, remain.features, head=False)
        unlearn_z = _untaped(params, unlearn.features, head=False)

    centroids: dict[int, np.ndarray] = {}
    report = GeometryReport()
    for c in range(task.train.num_classes):
        rows = remain_z[remain.labels == c]
        if rows.shape[0] == 0:
            report.absent_classes.append(c)
            continue
        centroid = rows.mean(axis=0)
        norm = np.linalg.norm(centroid)
        if norm <= NORM_EPSILON:
            report.degenerate_classes.append(c)
        else:
            centroids[c] = centroid / norm

    # One column per class with a centroid, in class order, then one of
    # -inf, the column of every class without one (-inf marks no value). A
    # row's own column is masked out of its maximum, which np.argmax takes
    # at the first of equal values, as max over the classes in order would.
    rows = np.arange(len(unlearn))
    sims = np.full((len(rows), len(centroids) + 1), -math.inf)
    column_of = np.full(task.train.num_classes, len(centroids))
    for j, (c, centroid) in enumerate(centroids.items()):
        sims[:, j] = np.matmul(unlearn_z[:, None, :], centroid[:, None])[:, 0, 0]
        column_of[c] = j
    own_column = column_of[unlearn.labels]
    own = sims[rows, own_column].tolist()
    sims[rows, own_column] = -math.inf
    other = sims[rows, np.argmax(sims, axis=1)].tolist()
    for index, label, own_sim, other_sim in zip(
        task.unlearn_train_idx.tolist(), unlearn.labels.tolist(), own, other
    ):
        report.rows.append(
            {
                "sample_index": index,
                "label": label,
                "own_class_similarity": None if own_sim == -math.inf else own_sim,
                "max_other_similarity": None if other_sim == -math.inf else other_sim,
            }
        )

    def mean_of(column: str) -> float | None:
        values = [row[column] for row in report.rows if row[column] is not None]
        return float(np.mean(values)) if values else None

    report.mean_own_similarity = mean_of("own_class_similarity")
    report.mean_max_other_similarity = mean_of("max_other_similarity")
    return report


def attack_features(params: ModelParameters, dataset: Dataset) -> np.ndarray:
    """Softmax probability vectors sorted in descending order per row.

    A logit more than the float range below its row's largest shifts to
    -inf, so its probability is exactly 0.0, as the float64 softmax gives.
    """
    _check_fits(dataset, params.arch.input_dim, params.arch.num_classes)
    with np.errstate(over="ignore", invalid="ignore"):  # the cores' finite checks pick the error
        logits = _untaped(params, dataset.features)
        shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    return np.sort(probs, axis=1)[:, ::-1]


# Per-side cap on the attack training sets, and the attack's ridge weight.
MIA_MAX_PER_SIDE = 1000
ATTACK_L2 = 1e-3


@dataclass
class AttackModel:
    """Binary logistic membership classifier over sorted softmax vectors."""

    weights: np.ndarray
    bias: float

    def member_scores(self, features: np.ndarray) -> np.ndarray:
        from scipy.special import expit

        return expit(features @ self.weights + self.bias)

    def predict_member(self, features: np.ndarray) -> np.ndarray:
        """Member only when the score is strictly above one half."""
        return self.member_scores(features) > 0.5


def fit_attack_model(features: np.ndarray, labels: np.ndarray) -> AttackModel:
    """Fit the logistic attack by minimizing log-loss plus an ATTACK_L2 ridge.

    The ridge term keeps the optimum finite on separable data; the zero
    start and deterministic L-BFGS-B make refits bit-identical. Features
    go through ``errors.real_array`` and labels, 0 (non-member) or 1
    (member), through ``errors.integer_array``. Empty or non-finite
    features raise ValidationError: the fit would otherwise stop at its
    zero start, an attack that calls nothing a member. So does a fit that
    L-BFGS-B does not report as a success, such as one on finite features
    of about 1e20, whose first line search fails at that start.
    """
    # scipy is imported here, not with the module, so that only the
    # commands that run the attack pay for its import.
    from scipy.optimize import minimize
    from scipy.special import expit

    features = real_array(features, "attack features", ValidationError)
    labels = integer_array(labels, "attack labels", ValidationError, 2)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ValidationError("attack features must be rank 2 with one label per row")
    if features.shape[0] == 0:
        raise ValidationError("attack features must have at least one row")
    if not np.isfinite(features).all():
        raise ValidationError("attack features must be finite")
    signs = 2.0 * labels - 1.0

    def objective(w):
        scores = features @ w[:-1] + w[-1]
        margins = signs * scores
        loss = np.mean(np.logaddexp(0.0, -margins)) + 0.5 * ATTACK_L2 * np.dot(w[:-1], w[:-1])
        p = expit(-margins)
        grad_scores = -(signs * p) / labels.size
        grad_w = features.T @ grad_scores + ATTACK_L2 * w[:-1]
        grad_b = grad_scores.sum()
        return loss, np.concatenate([grad_w, [grad_b]])

    start = np.zeros(features.shape[1] + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        result = minimize(objective, start, jac=True, method="L-BFGS-B")
    if not result.success:
        raise ValidationError("the attack fit failed: L-BFGS-B did not report success")
    return AttackModel(weights=result.x[:-1].copy(), bias=float(result.x[-1]))


@dataclass
class MiaReport:
    """Member-prediction rates the unlearning claim rests on."""

    member_rate_unlearn: float
    member_rate_heldout_members: float
    validation_accuracy: float
    members_size: int
    nonmembers_size: int

    def to_dict(self) -> dict:
        return asdict(self)


def run_mia(params: ModelParameters, task: UnlearnTask, split_seed: int = 0) -> MiaReport:
    """The whole attack protocol: draw the sets, fit the attack, rate the samples.

    Members come from the remaining train split, non-members from the
    test split, m = min(1000, available) per side. A further m remaining
    samples are reserved as held-out members, and 20% of the attack set
    is held out to measure validation accuracy. The report gives the
    fraction of the unlearning samples and of the held-out members that
    the attack calls members. Deterministic in split_seed, which must be
    a non-negative integer.
    """
    if problems := integer_problems(split_seed=(split_seed, 0)):
        raise ValidationError(problems[0])
    remain = task.remain_train
    test = task.test
    m = min(MIA_MAX_PER_SIDE, len(remain) // 2, len(test))
    if m < 5:
        raise ValidationError(
            f"not enough data for the attack: {len(remain)} remaining, {len(test)} test"
        )
    rng = np.random.default_rng(split_seed)
    remain_order = rng.permutation(len(remain))
    members = remain.subset(remain_order[:m])
    nonmembers = test.subset(rng.permutation(len(test))[:m])
    features = np.concatenate([attack_features(params, d) for d in (members, nonmembers)])
    labels = np.concatenate([np.ones(m), np.zeros(m)])

    order = rng.permutation(2 * m)
    n_val = max(1, int(0.2 * 2 * m))
    val_idx, fit_idx = order[:n_val], order[n_val:]
    attack = fit_attack_model(features[fit_idx], labels[fit_idx])
    val_hits = attack.predict_member(features[val_idx]) == (labels[val_idx] == 1.0)
    rate_unlearn, rate_heldout = (
        float(np.mean(attack.predict_member(attack_features(params, samples))))
        for samples in (task.unlearn_train, remain.subset(remain_order[m : 2 * m]))
    )
    return MiaReport(
        member_rate_unlearn=rate_unlearn,
        member_rate_heldout_members=rate_heldout,
        validation_accuracy=float(np.mean(val_hits)),
        members_size=m,
        nonmembers_size=m,
    )
