"""Training, contrastive unlearning, and the reference baselines.

The unlearning loop walks the samples to forget in seeded epoch
permutations. For each unlearning batch it repeats a fixed number of
times: draw a fresh remaining batch and take one gradient step on the
combined objective (unlearning term plus cross-entropy on the remaining
batch), whose label-only terms the pass's plan worked out. After each
pass the termination condition for the task kind is evaluated:

    class task:  accuracy on the unlearning class's test view has
                 dropped to chance (1 / num_classes) or below;
    sample task: accuracy on the unlearning evaluation view is at or
                 below accuracy on the test evaluation view.

Baselines share the same termination checks so their records compare
like for like: retraining from scratch on the remaining data, plain
fine-tuning on the remaining data, and gradient ascent on the
unlearning data (with a divergence guard).

Every batch a step sees is drawn from a Dataset that each run first
holds to ``data._check_fits``, so the steps call the cores of
``encode``, ``head_logits``, ``cross_entropy_loss``, the contrastive
losses and ``combined_loss`` directly (see ``model`` and ``losses``),
and each pass batches its view through the core of ``batches``: the
EngineConfig has checked the batch size, the seed and the temperature,
and each run holds the one ``np.errstate`` its cores run under (the rule
of ``tensor``). A step's objective is ``_ce_objective`` or
``_contrastive_objective``, and its losses are read as ``float(t.data)``.

A contrastive pass is planned in one place, ``_contrastive_steps``,
so that its steps do only the arithmetic that depends on the parameters.
It reads the task kind's label-only terms function and core from the
variant table of ``losses``, ``_UNLEARN_TERMS``.

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
    _BLOCK_VALUES,
    TAG_REMAIN_SAMPLER,
    TAG_TRAIN_BATCHES,
    TAG_UNLEARN_BATCHES,
    Dataset,
    UnlearnTask,
    _batches,
    _check_fits,
    _remaining_draws,
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
from .losses import _UNLEARN_TERMS, LossConfig, _combined, _cross_entropy, _positive_masks
from .model import (
    ModelArchitecture,
    ModelParameters,
    _encode,
    _head_logits,
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
        if not isinstance(self.loss, LossConfig):
            problems.append(f"loss must be a LossConfig, got {self.loss!r}")
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

    The step reads the tape's raw adjoints for the parameters' cached
    leaf tuple and updates all parameters as one flat buffer,
    elementwise, so its bits are those of a per-array
    ``p + sign * lr * g``. The update's one finite check, before it is
    written, also covers the gradients: lr is positive and finite, so a
    non-finite gradient gives a non-finite update.
    """
    try:
        with GradTape() as tape:
            out = objective(params)
        update = np.concatenate(tape._replay(out[0], params._leaves), axis=None)
        update *= sign * lr
        update += params._flat
        params._overwrite(update)
    except NonFiniteError as exc:
        raise _diverged(exc, epoch, b_index) from exc
    return out


def _ce_objective(params: ModelParameters, features: np.ndarray, labels: np.ndarray) -> tuple:
    """A cross-entropy step's objective: (mean cross-entropy,)."""
    return (_cross_entropy(_head_logits(params, _encode(params, features)), labels),)


def _contrastive_objective(
    params: ModelParameters, uf, rf, rl, stacked, terms, loss: LossConfig, unlearn_term
) -> tuple:
    """A contrastive step's objective on a forgotten batch (features uf)
    and a remaining batch (rf, labels rl): (combined loss, unlearning term,
    cross-entropy). stacked is the two batches as one (remaining,
    forgotten) stack, which is encoded in one pass, or None when their rows
    differ; terms are the step's label-only terms (see ``_contrastive_steps``)."""
    if loss.unlearn_weight <= 0:
        z_r, term = _encode(params, rf), as_tensor(0.0)
    else:
        if stacked is not None:
            z_r, z_u = _encode(params, stacked)
        else:
            z_r, z_u = _encode(params, rf), _encode(params, uf)
        term = unlearn_term(z_u, z_r, terms, loss.temperature)
    if loss.ce_weight > 0:
        ce = _cross_entropy(_head_logits(params, z_r), rl)
    else:
        ce = as_tensor(0.0)
    return _combined(term, ce, loss), term, ce


def _step_inputs(uf, ul, rf, rl, label_terms) -> tuple:
    """What n steps read of their batches alone: their (remaining,
    forgotten) feature stacks, or None each where the two batches' rows
    differ, and ``label_terms`` of their contrast masks. uf is the steps'
    forgotten features (n arrays), ul their (n, u) labels, rf and rl the
    remaining batches' (n, B, K) features and (n, B) labels."""
    positive = _positive_masks(ul, rl)
    terms = label_terms(positive, ~positive)
    if ul.shape[-1] != rl.shape[-1]:
        return [None] * len(terms), terms
    stacked = np.empty((len(rl), 2) + rf.shape[1:])
    stacked[:, 0], stacked[:, 1] = rf, uf
    return stacked, terms


def _contrastive_steps(task: UnlearnTask, forgotten: list, cfg: EngineConfig, rng, label_terms):
    """The plan of a contrastive pass: yield its remaining batches, each
    with what its step reads, (features, labels, slot, stacked, terms).

    Each of the pass's forgotten batches, ``forgotten``, takes
    remaining_resamples slots in order, so slot j is planned for forgotten
    batch j // remaining_resamples, and every slot takes at least one
    remaining batch. So the pass's first len(forgotten) x
    remaining_resamples batches are planned: each comes with its forgotten
    batch's index as its slot, and with the stack and label-only terms of
    ``_step_inputs``, worked out for a whole block of planned steps at once.
    A block holds the steps of full forgotten batches or those of the short
    last one, never both, and as many as keep each of its arrays within
    ``_BLOCK_VALUES`` values (at least one): a step's stack holds 2 x
    batch_size rows of features, its masks batch_size rows of batch_size.
    Each block draws its batches (``data._remaining_draws``) when its first
    step asks for one, so the batch-size rule and its errors come at the
    first ``next``. An anchor redraw takes the next batch; the pass works
    out its own ``_step_inputs`` for one that lands on another forgotten
    batch's slot, and for each batch past the plan, drawn one at a time
    with slot -1 and None. So the batches are ``sample_remaining``'s draws,
    in order, and the pass draws none it does not use.
    """
    size, resamples = cfg.batch_size, cfg.remaining_resamples
    per_block = max(1, _BLOCK_VALUES // (size * max(2 * task.train.num_features, size)))
    full = sum(len(labels) == size for _, labels, _ in forgotten) * resamples
    planned = len(forgotten) * resamples
    bounds = [*range(0, full, per_block), *range(full, planned, per_block), planned]
    for k, end in zip(bounds, bounds[1:]):
        slots = [j // resamples for j in range(k, end)]
        rf, rl, _ = _remaining_draws(task, size, rng, end - k)
        uf = [forgotten[b][0] for b in slots]
        ul = np.array([forgotten[b][1] for b in slots])
        yield from zip(rf, rl, slots, *_step_inputs(uf, ul, rf, rl, label_terms))
    while True:
        rf, rl, _ = _remaining_draws(task, size, rng, 1)
        yield rf[0], rl[0], -1, None, None


def _ce_pass(view: Dataset, tag: int, cfg: EngineConfig, sign: float = -1.0):
    """run_pass(params, epoch, record): one epoch of SGD on mean
    cross-entropy over view's seeded batches, then its pass row; sign
    -1.0 descends, +1.0 ascends (neggrad). A non-finite step raises
    DivergenceError, after the row of the steps taken before it.
    """

    def run_pass(params: ModelParameters, epoch: int, record: RunRecord) -> None:
        losses = []
        try:
            for b_index, (features, labels, _) in enumerate(
                _batches(view, cfg.batch_size, [cfg.seed, tag, epoch])
            ):
                (loss,) = _sgd_step(
                    params,
                    lambda p: _ce_objective(p, features, labels),
                    cfg.learning_rate,
                    epoch,
                    b_index,
                    sign,
                )
                losses.append(float(loss.data))
                record.gradient_steps += 1
                record.batches_processed += 1
        finally:
            record.rows.append(
                {
                    "kind": "pass",
                    "epoch": epoch,
                    "mean_ce": float(np.mean(losses)) if losses else 0.0,
                }
            )

    return run_pass


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
    _check_fits(data, params.arch.input_dim, params.arch.num_classes)
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
    guard=None,
) -> tuple[ModelParameters, RunRecord]:
    """The one place an unlearning run is checked and stopped.

    The task's train split must fit the model. Then, for each epoch up to
    max_unlearn_epochs: evaluate (every termination_every epochs), maybe
    stop, otherwise run one pass. run_pass(params, epoch, record) runs a
    pass in place on the run's working copy of params. The run stops with
    reason "condition-met" once the task's condition holds, and "error"
    once guard(params) -> str | None (the gradient-ascent divergence
    guard, consulted at each unmet evaluation) returns a detail. In a
    guarded run, parameters that overflow the evaluation or a pass are
    such a stop, detail "non-finite-loss"; without a guard they raise
    DivergenceError. Otherwise the run ends at the cap, "epoch-cap", after
    the cap's last pass, which an evaluation follows only when the cap is a
    multiple of termination_every; a zero cap runs nothing.
    """
    _check_fits(task.train, params.arch.input_dim, params.arch.num_classes)
    params = params._working_copy()
    record = RunRecord(method=method, config=cfg.to_dict())
    cap = cfg.max_unlearn_epochs
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cap + 1 if cap else 0):
            if epoch % cfg.termination_every == 0:
                try:
                    met, metrics = _termination_metrics(params, task)
                    detail = None if met or guard is None else guard(params)
                except NonFiniteError as exc:
                    if guard is None:
                        raise _diverged(exc, epoch) from exc
                    met, metrics, detail = False, {}, "non-finite-loss"
                row = {"kind": "evaluation", "epoch": epoch, "condition_met": bool(met), **metrics}
                if detail is not None:
                    row["halt"] = detail
                record.rows.append(row)
                if met:
                    record.termination_reason = "condition-met"
                    break
                if detail is not None:
                    record.termination_reason, record.termination_detail = "error", detail
                    break
            if epoch == cap:
                break
            try:
                run_pass(params, epoch, record)
            except DivergenceError:
                if guard is None:
                    raise
                record.termination_reason, record.termination_detail = "error", "non-finite-loss"
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
    if cfg.loss.variant != task.kind:
        raise ValidationError(
            f"loss variant {cfg.loss.variant!r} does not match task kind {task.kind!r}"
        )
    label_terms, unlearn_term = _UNLEARN_TERMS[task.kind]
    remain_rng = np.random.default_rng([cfg.seed, TAG_REMAIN_SAMPLER])
    loss = cfg.loss

    def run_pass(params: ModelParameters, epoch: int, record: RunRecord) -> None:
        ul_losses, ce_losses, skipped = [], [], 0
        unlearn_batches = _batches(
            task.unlearn_train, cfg.batch_size, [cfg.seed, TAG_UNLEARN_BATCHES, epoch]
        )
        steps = _contrastive_steps(task, unlearn_batches, cfg, remain_rng, label_terms)
        for b_index, (uf, ul, _) in enumerate(unlearn_batches):
            record.batches_processed += 1
            for _ in range(cfg.remaining_resamples):
                for _ in range(ANCHOR_RESAMPLE_LIMIT):
                    rf, rl, slot, stacked, terms = next(steps)
                    if slot != b_index:  # a redraw moved it off its planned slot
                        (stacked,), (terms,) = _step_inputs(
                            [uf], ul[None], rf[None], rl[None], label_terms
                        )
                    try:
                        _, term, ce = _sgd_step(
                            params,
                            lambda p: _contrastive_objective(
                                p, uf, rf, rl, stacked, terms, loss, unlearn_term
                            ),
                            cfg.learning_rate,
                            epoch,
                            b_index,
                        )
                    except NoValidAnchorError:
                        continue
                    record.gradient_steps += 1
                    ul_losses.append(float(term.data))
                    ce_losses.append(float(ce.data))
                    break
                else:
                    skipped += 1
        if not ul_losses:
            raise UnlearnableConfigurationError(
                f"epoch {epoch}: no remaining batch yielded a usable anchor"
            )
        record.rows.append(
            {
                "kind": "pass",
                "epoch": epoch,
                "mean_unlearn_loss": float(np.mean(ul_losses)),
                "mean_ce": float(np.mean(ce_losses)),
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
    ce_cap = DIVERGENCE_FACTOR * float(np.log(task.train.num_classes))

    def guard(params: ModelParameters) -> str | None:
        view = task.eval_unlearn
        logits = _head_logits(params, _encode(params, view.features))
        if _cross_entropy(logits, view.labels).item() > ce_cap:
            return "divergence-guard"
        return None

    run_pass = _ce_pass(task.unlearn_train, TAG_UNLEARN_BATCHES, cfg, sign=1.0)
    return _unlearn_loop(params, task, cfg, "neggrad", run_pass, guard=guard)
