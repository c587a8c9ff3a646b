"""Training, contrastive unlearning, and the reference baselines.

The unlearning loop walks the samples to forget in seeded epoch
permutations. For each unlearning batch it repeats a fixed number of
times: draw a fresh remaining batch, build contrast sets, take one
gradient step on the combined objective (unlearning term plus
cross-entropy on the remaining batch). After each pass the termination
condition for the task kind is evaluated:

    class task:  accuracy on the unlearning class's test view has
                 dropped to chance (1 / num_classes) or below;
    sample task: accuracy on the unlearning evaluation view is at or
                 below accuracy on the test evaluation view.

Baselines share the same termination checks so their records compare
like for like: retraining from scratch on the remaining data, plain
fine-tuning on the remaining data, and gradient ascent on the
unlearning data (with a divergence guard).

Every batch a step sees is drawn from a Dataset, which checked its
rows and labels when it was made, and ``_check_compat`` matches the
model to the data once per run. So the steps call the cores of
``encode``, ``head_logits``, ``build_contrast_sets`` and
``cross_entropy_loss`` directly, without copying or re-checking the
batch.

Each run updates one private working copy of its starting parameters
in place (``ModelParameters._working_copy``): the caller's parameters
are never written, and the run returns a frozen snapshot of the copy.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import (
    TAG_REMAIN_SAMPLER,
    TAG_TRAIN_BATCHES,
    TAG_UNLEARN_BATCHES,
    Dataset,
    UnlearnTask,
    batches,
    sample_remaining,
)
from .errors import (
    DivergenceError,
    NonFiniteError,
    NoValidAnchorError,
    UnlearnableConfigurationError,
    ValidationError,
    integer_problems,
    plain_number,
    real_or_nan,
)
from .evaluation import accuracy
from .losses import (
    LossConfig,
    _contrast_sets,
    _cross_entropy,
    class_unlearn_loss,
    combined_loss,
    cross_entropy_loss,
    sample_unlearn_loss,
)
from .model import (
    ModelArchitecture,
    ModelParameters,
    _encode,
    _head_logits,
    forward,
    init_parameters,
)
from .tensor import GradTape, as_tensor

# Safety limits, not tuning knobs: neggrad's guard caps cross-entropy at
# DIVERGENCE_FACTOR * ln(num_classes), and a contrastive step draws at most
# ANCHOR_RESAMPLE_LIMIT remaining batches in search of a usable anchor.
DIVERGENCE_FACTOR = 10.0
ANCHOR_RESAMPLE_LIMIT = 8


@dataclass(frozen=True)
class EngineConfig:
    """Optimization settings shared by training and unlearning runs.

    remaining_resamples is how many fresh remaining batches each
    unlearning batch is contrasted against per pass (capped at 4; more
    buys little and slows the pass). The neggrad divergence cap and the
    anchor redraw limit are the module constants DIVERGENCE_FACTOR and
    ANCHOR_RESAMPLE_LIMIT, not settings.
    """

    batch_size: int = 64
    remaining_resamples: int = 2
    learning_rate: float = 0.05
    max_epochs: int = 60
    max_unlearn_epochs: int = 50
    termination_every: int = 1
    seed: int = 0
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        counts = dict(
            batch_size=(self.batch_size, 2),
            remaining_resamples=(self.remaining_resamples, 1, 4),
            max_epochs=(self.max_epochs, 0),
            max_unlearn_epochs=(self.max_unlearn_epochs, 0),
            termination_every=(self.termination_every, 1),
            seed=(self.seed, 0),
        )
        problems = integer_problems(**counts)
        if not 0 < real_or_nan(self.learning_rate) < math.inf:
            problems.append(
                f"learning_rate must be a positive finite number, got {self.learning_rate!r}"
            )
        if problems:
            raise ValidationError("invalid engine config: " + "; ".join(problems))
        # Plain ints and a Python learning rate, so that to_dict is JSON, as
        # ModelArchitecture's sizes are.
        for name in counts:
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "learning_rate", plain_number(self.learning_rate))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunRecord:
    """What one run did: per-epoch metric rows and how it stopped.

    termination_reason is "condition-met", "epoch-cap", or "error";
    termination_detail says which error when the reason is "error".
    """

    method: str
    config: dict
    rows: list[dict] = field(default_factory=list)
    duration_seconds: float = 0.0
    termination_reason: str = "epoch-cap"
    termination_detail: str | None = None
    gradient_steps: int = 0
    batches_processed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _class_termination(
    params: ModelParameters, eval_view: Dataset, num_classes: int
) -> tuple[bool, dict]:
    acc = accuracy(params, eval_view)
    threshold = 1.0 / num_classes
    return acc <= threshold, {"unlearn_test_accuracy": acc, "chance_level": threshold}


def _sample_termination(
    params: ModelParameters, unlearn_eval: Dataset, test_eval: Dataset
) -> tuple[bool, dict]:
    acc_u = accuracy(params, unlearn_eval)
    acc_t = accuracy(params, test_eval)
    return acc_u <= acc_t, {"unlearn_eval_accuracy": acc_u, "test_eval_accuracy": acc_t}


def check_termination_class(
    params: ModelParameters, eval_view: Dataset, num_classes: int
) -> bool:
    """True once unlearning-class accuracy is at or below chance."""
    return _class_termination(params, eval_view, num_classes)[0]


def check_termination_sample(
    params: ModelParameters, unlearn_eval: Dataset, test_eval: Dataset
) -> bool:
    """True once unlearning accuracy is at or below test accuracy."""
    return _sample_termination(params, unlearn_eval, test_eval)[0]


def _termination_metrics(params: ModelParameters, task: UnlearnTask) -> tuple[bool, dict]:
    """The check the unlearning loop runs: the rule above for the task's
    kind, plus the accuracies it compared, for the evaluation row."""
    if task.kind == "class":
        return _class_termination(params, task.eval_unlearn, task.train.num_classes)
    return _sample_termination(params, task.eval_unlearn, task.eval_test)


def _diverged(exc: NonFiniteError, epoch: int, b_index: int | None = None) -> DivergenceError:
    where = f"epoch {epoch}" if b_index is None else f"epoch {epoch}, batch {b_index}"
    return DivergenceError(f"non-finite loss at {where}: {exc}", epoch=epoch, batch=b_index)


def _sgd_step(
    params: ModelParameters, objective, lr: float, epoch: int, b_index: int, sign: float = -1.0
) -> tuple:
    """One taped SGD step on objective(params) -> (loss, *terms), in place
    on a run's working copy; sign -1.0 descends, +1.0 ascends. Returns
    the tensors. A non-finite loss, gradient or update raises
    DivergenceError and leaves params as they were.

    The step reads the tape's raw adjoints and updates all parameters as
    one flat buffer, elementwise, so its bits are those of a per-array
    ``p + sign * lr * g``. The update's one finite check, before it is
    written, also covers the gradients: lr is positive and finite, so a
    non-finite gradient gives a non-finite update.
    """
    try:
        with GradTape() as tape:
            out = objective(params)
        update = np.concatenate(tape._replay(out[0], params.as_list()), axis=None)
        update *= sign * lr
        update += params._flat
        params._overwrite(update)
    except NonFiniteError as exc:
        raise _diverged(exc, epoch, b_index) from exc
    return out


def _ce_pass(view: Dataset, tag: int, cfg: EngineConfig, ascend: bool = False):
    """run_pass(params, epoch, record): one epoch of SGD on mean
    cross-entropy over view's seeded batches, then its pass row. A
    non-finite step raises DivergenceError, except in ascent (neggrad),
    which ends the pass there and records "non-finite-loss".
    """
    sign = 1.0 if ascend else -1.0

    def run_pass(params: ModelParameters, epoch: int, record: RunRecord) -> None:
        losses = []
        for b_index, batch in enumerate(batches(view, cfg.batch_size, [cfg.seed, tag, epoch])):
            try:
                (loss,) = _sgd_step(
                    params,
                    lambda p: (
                        _cross_entropy(_head_logits(p, _encode(p, batch.features)), batch.labels),
                    ),
                    cfg.learning_rate,
                    epoch,
                    b_index,
                    sign,
                )
            except DivergenceError:
                if not ascend:
                    raise
                record.termination_detail = "non-finite-loss"
                break
            losses.append(loss.item())
            record.gradient_steps += 1
            record.batches_processed += 1
        record.rows.append(
            {
                "kind": "pass",
                "epoch": epoch,
                "mean_ce": float(np.mean(losses)) if losses else 0.0,
            }
        )

    return run_pass


def _check_compat(params: ModelParameters, data: Dataset) -> None:
    problems = []
    if params.arch.input_dim != data.num_features:
        problems.append(
            f"model input_dim {params.arch.input_dim} != feature width {data.num_features}"
        )
    if params.arch.num_classes != data.num_classes:
        problems.append(
            f"model num_classes {params.arch.num_classes} != dataset classes {data.num_classes}"
        )
    if problems:
        raise ValidationError("model does not fit the data: " + "; ".join(problems))


def train(
    arch: ModelArchitecture, data: Dataset, cfg: EngineConfig
) -> tuple[ModelParameters, RunRecord]:
    """Train a fresh model with SGD on cross-entropy.

    Deterministic in the seed: initialization and every epoch's batch
    order derive from it, so two calls with equal arguments produce
    bit-identical parameters. Parameters that overflow a step or the
    per-epoch accuracy raise DivergenceError.
    """
    params = init_parameters(arch, cfg.seed)._working_copy()
    _check_compat(params, data)
    record = RunRecord(method="train", config=cfg.to_dict())
    run_pass = _ce_pass(data, TAG_TRAIN_BATCHES, cfg)
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # the ops check finiteness
        for epoch in range(cfg.max_epochs):
            run_pass(params, epoch, record)
            try:
                record.rows[-1]["train_accuracy"] = accuracy(params, data)
            except NonFiniteError as exc:
                raise _diverged(exc, epoch) from exc
    record.duration_seconds = time.perf_counter() - start
    return params._snapshot(), record


def retrain(
    arch: ModelArchitecture, task: UnlearnTask, cfg: EngineConfig
) -> tuple[ModelParameters, RunRecord]:
    """Train from scratch on the remaining data only (the gold standard)."""
    params, record = train(arch, task.remain_train, cfg)
    record.method = "retrain"
    return params, record


def _unlearn_loop(
    params: ModelParameters,
    task: UnlearnTask,
    cfg: EngineConfig,
    method: str,
    run_pass,
    extra_halt=None,
) -> tuple[ModelParameters, RunRecord]:
    """Shared skeleton: evaluate, maybe stop, otherwise run one pass.

    run_pass(params, epoch, record) executes one pass over the relevant
    data, in place on the run's working copy of params. extra_halt(params)
    -> str | None may force an error stop (the gradient-ascent divergence
    guard); it is consulted at the same cadence as the termination
    condition. Parameters that overflow
    the evaluation are such a stop, "non-finite-loss", in a run with a
    guard, and raise DivergenceError in one without.
    """
    params = params._working_copy()
    record = RunRecord(method=method, config=cfg.to_dict())
    start = time.perf_counter()
    if cfg.max_unlearn_epochs == 0:
        record.duration_seconds = time.perf_counter() - start
        return params._snapshot(), record
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_unlearn_epochs + 1):
            if epoch % cfg.termination_every == 0:
                try:
                    met, metrics = _termination_metrics(params, task)
                    detail = None if met or extra_halt is None else extra_halt(params)
                except NonFiniteError as exc:
                    if extra_halt is None:
                        raise _diverged(exc, epoch) from exc
                    met, metrics, detail = False, {}, "non-finite-loss"
                row = {"kind": "evaluation", "epoch": epoch, "condition_met": bool(met), **metrics}
                if detail is not None:
                    row["halt"] = record.termination_detail = detail
                record.rows.append(row)
                if met:
                    record.termination_reason = "condition-met"
                    break
                if detail is not None:
                    record.termination_reason = "error"
                    break
            if epoch == cfg.max_unlearn_epochs:
                record.termination_reason = "epoch-cap"
                break
            run_pass(params, epoch, record)
            if record.termination_detail is not None:
                record.termination_reason = "error"
                break
    record.duration_seconds = time.perf_counter() - start
    return params._snapshot(), record


def unlearn_contrastive(
    params: ModelParameters, task: UnlearnTask, cfg: EngineConfig
) -> tuple[ModelParameters, RunRecord]:
    """Contrastive unlearning as described in the module docstring.

    A remaining batch that leaves every anchor without its required
    contrast sets is redrawn up to ANCHOR_RESAMPLE_LIMIT times; if a
    whole pass finishes without a single usable anchor the task is
    reported unlearnable.
    """
    _check_compat(params, task.train)
    if cfg.loss.variant != task.kind:
        raise ValidationError(
            f"loss variant {cfg.loss.variant!r} does not match task kind {task.kind!r}"
        )
    unlearn_term = sample_unlearn_loss if task.kind == "sample" else class_unlearn_loss
    remain_rng = np.random.default_rng([cfg.seed, TAG_REMAIN_SAMPLER])

    def objective(params: ModelParameters, ub, rb) -> tuple:
        z_r = _encode(params, rb.features)
        if cfg.loss.unlearn_weight > 0:
            z_u = _encode(params, ub.features)
            sets = _contrast_sets(ub.labels, z_u, rb.labels, z_r)
            ul = unlearn_term(sets, cfg.loss.temperature)
        else:
            ul = as_tensor(0.0)
        if cfg.loss.ce_weight > 0:
            ce = _cross_entropy(_head_logits(params, z_r), rb.labels)
        else:
            ce = as_tensor(0.0)
        return combined_loss(ul, ce, cfg.loss), ul, ce

    def run_pass(params: ModelParameters, epoch: int, record: RunRecord) -> None:
        ul_losses, ce_losses, skipped = [], [], 0
        unlearn_batches = batches(
            task.unlearn_train, cfg.batch_size, [cfg.seed, TAG_UNLEARN_BATCHES, epoch]
        )
        for b_index, ub in enumerate(unlearn_batches):
            record.batches_processed += 1
            for _ in range(cfg.remaining_resamples):
                for _ in range(ANCHOR_RESAMPLE_LIMIT):
                    rb = sample_remaining(task, cfg.batch_size, remain_rng)
                    try:
                        _, ul, ce = _sgd_step(
                            params,
                            lambda p: objective(p, ub, rb),
                            cfg.learning_rate,
                            epoch,
                            b_index,
                        )
                    except NoValidAnchorError:
                        continue
                    record.gradient_steps += 1
                    ul_losses.append(ul.item())
                    ce_losses.append(ce.item())
                    break
                else:
                    skipped += 1
        if cfg.loss.unlearn_weight > 0 and not ul_losses:
            raise UnlearnableConfigurationError(
                f"epoch {epoch}: no remaining batch yielded a usable anchor"
            )
        record.rows.append(
            {
                "kind": "pass",
                "epoch": epoch,
                "mean_unlearn_loss": float(np.mean(ul_losses)) if ul_losses else 0.0,
                "mean_ce": float(np.mean(ce_losses)) if ce_losses else 0.0,
                "skipped_steps": skipped,
            }
        )

    return _unlearn_loop(params, task, cfg, "contrastive", run_pass)


def unlearn_finetune(
    params: ModelParameters, task: UnlearnTask, cfg: EngineConfig
) -> tuple[ModelParameters, RunRecord]:
    """Keep training on the remaining data and hope the rest fades.

    Uses the same termination checks and epoch cap as contrastive
    unlearning so the records are comparable.
    """
    _check_compat(params, task.train)
    run_pass = _ce_pass(task.remain_train, TAG_TRAIN_BATCHES, cfg)
    return _unlearn_loop(params, task, cfg, "finetune", run_pass)


def unlearn_neggrad(
    params: ModelParameters, task: UnlearnTask, cfg: EngineConfig
) -> tuple[ModelParameters, RunRecord]:
    """Gradient ascent on the unlearning samples' cross-entropy.

    Ascent can run away, so a guard halts the run (reason "error") once
    mean cross-entropy on the unlearning evaluation view exceeds
    DIVERGENCE_FACTOR * ln(num_classes). A non-finite step is recorded
    the same way rather than raised: blowing up is this baseline's
    known failure mode, not a caller bug.
    """
    _check_compat(params, task.train)
    ce_cap = DIVERGENCE_FACTOR * float(np.log(task.train.num_classes))

    def extra_halt(params: ModelParameters) -> str | None:
        view = task.eval_unlearn
        if cross_entropy_loss(forward(params, view.features), view.labels).item() > ce_cap:
            return "divergence-guard"
        return None

    run_pass = _ce_pass(task.unlearn_train, TAG_UNLEARN_BATCHES, cfg, ascend=True)
    return _unlearn_loop(params, task, cfg, "neggrad", run_pass, extra_halt=extra_halt)
