"""Contrastive unlearning losses and the cross-entropy restore term.

Unlearning inverts the usual contrastive recipe. Each sample to forget
acts as an anchor; remaining-batch samples that share its label are its
positives and all others are its negatives. The loss rewards moving the
anchor's embedding toward negatives and away from positives, which is a
softmax over the positive similarities for each negative term:

    sample variant: for anchor i, average over negatives a of
        -log( exp(s_ia / t) / sum over positives p of exp(s_ip / t) )

    class variant: positives are empty by construction, so the
        denominator degenerates to the negative count itself:
        -log( exp(s_ia / t) / |N_i| )

where s_xy is the cosine similarity of unit embeddings and t is the
temperature. Anchors missing the sets their variant needs are excluded
from the sum; exclusion is exact, never a NaN.

The restore term is plain softmax cross-entropy on remaining samples,
computed with max-subtraction for stability. The combined objective is
a weighted sum of the two.

Each loss, the combined objective included, is recorded as one tape
entry with a hand-written backward. Forward and backward run the numpy
expressions of the same loss composed from the primitive tensor ops of
``tests/composed_ops.py``, in the same order, so values and gradients
are bit-identical to the composed version, while constants such as the
row max, the labels, the masks and the weights get no adjoint.
A value the composed ops would have rejected as non-finite still raises
NonFiniteError: an intermediate array through
``tensor._require_finite``, the one check for computed arrays, and the
value through ``tensor._fresh``; the sample loss's positive sums have
their own bound, since their log needs them positive as well as finite.
Matrix products go through ``tensor._dot``, as the layers' do;
``combined_loss`` adds its two weighted terms as Python floats, which
give the IEEE results of the 0-d array ops in fewer numpy calls; and
where a composed sum would turn a -0.0 into 0.0 (the cross-entropy
adjoint off the label), the fused backward does too, so the bits match
to the sign of every zero. A temperature passed to a loss is checked by
``LossConfig``'s rule, with its message.

Each public loss checks its inputs and then calls its core:
``build_contrast_sets`` calls ``_contrast_sets``, ``cross_entropy_loss``
``_cross_entropy``, the two contrastive losses ``_sample_unlearn``
and ``_class_unlearn``, and ``combined_loss`` ``_combined``. A
contrastive core takes the anchor and remaining embeddings and its
step's label-only terms, which depend on the labels alone: whether any
anchor is valid, the float masks, the negatives' per-anchor
coefficients, and the sample loss's valid anchors and pad or the class
loss's constant. ``_sample_terms`` and ``_class_terms`` work them out for
S steps at once from (S, anchors, remaining) masks, which
``_positive_masks`` builds from labels for any leading axes; the public
losses call them on their sets' masks with a leading axis of 1, and the
engine once per block of planned steps. So a step's core does only the
arithmetic that depends on the embeddings, and it raises
NoValidAnchorError before any of it. The engine calls the cores
directly: its labels come from a Dataset whose class count
``data._check_fits`` matched to the model's, its embeddings from the
encoder, which makes them unit-norm, its combined terms from the cores,
which make them scalars, and its temperature from a ``LossConfig``,
which checked it. The cores never set numpy's error state (the rule of
``tensor``): the public losses run them under an ``np.errstate`` that
silences numpy's overflow warnings, as the engine's runs do, so finite
inputs that overflow, such as a tiny temperature, reach the checks
without a warning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (
    ContractError,
    NoValidAnchorError,
    NonFiniteError,
    ValidationError,
    integer_array,
    plain_number,
    real_or_nan,
)
from .tensor import Tensor

VARIANTS = ("sample", "class")


def _temperature_problems(temperature) -> list[str]:
    """The temperature rule of LossConfig and of every loss that takes a
    temperature directly: a problem unless it is a positive finite number."""
    if 0 < real_or_nan(temperature) < math.inf:
        return []
    return [f"temperature must be a positive finite number, got {temperature!r}"]


@dataclass(frozen=True)
class LossConfig:
    """Temperature, term weights, and which unlearning variant to use."""

    temperature: float = 0.5
    unlearn_weight: float = 1.0
    ce_weight: float = 1.0
    variant: str = "sample"

    def __post_init__(self):
        problems = _temperature_problems(self.temperature)
        weights = {"unlearn_weight": self.unlearn_weight, "ce_weight": self.ce_weight}
        for name, value in weights.items():
            if not 0 <= real_or_nan(value) < math.inf:
                problems.append(f"{name} must be a finite number >= 0, got {value!r}")
        if sum(map(real_or_nan, weights.values())) <= 0:
            problems.append("at least one term weight must be positive")
        if not isinstance(self.variant, str) or self.variant not in VARIANTS:
            problems.append(f"variant must be one of {VARIANTS}")
        if problems:
            raise ValidationError("invalid loss config: " + "; ".join(problems))
        for name in ("temperature", "unlearn_weight", "ce_weight"):
            object.__setattr__(self, name, plain_number(getattr(self, name)))


@dataclass(slots=True)
class ContrastSets:
    """Anchor embeddings plus per-anchor positive/negative membership.

    Masks are boolean (anchors x remaining); an anchor's positive row
    marks remaining samples with its label, the negative row marks all
    others, so the two rows partition the remaining batch.
    """

    anchor_embeddings: Tensor
    remaining_embeddings: Tensor
    positive_mask: np.ndarray
    negative_mask: np.ndarray

    # The ufunc reductions directly; the ndarray methods add Python wrappers.
    @property
    def positive_counts(self) -> np.ndarray:
        return np.add.reduce(self.positive_mask, axis=1)

    @property
    def negative_counts(self) -> np.ndarray:
        return np.add.reduce(self.negative_mask, axis=1)


def build_contrast_sets(
    anchor_labels: np.ndarray,
    anchor_embeddings: Tensor,
    remaining_labels: np.ndarray,
    remaining_embeddings: Tensor,
) -> ContrastSets:
    """Label-equality masks pairing each anchor with the remaining batch."""
    anchor_labels = integer_array(anchor_labels, "anchor labels", ContractError)
    remaining_labels = integer_array(remaining_labels, "remaining labels", ContractError)
    anchor_embeddings = T.as_tensor(anchor_embeddings)
    remaining_embeddings = T.as_tensor(remaining_embeddings)
    if anchor_embeddings.ndim != 2 or remaining_embeddings.ndim != 2:
        raise ContractError("embeddings must be rank-2 batches")
    if anchor_labels.shape != anchor_embeddings.shape[:1]:
        raise ContractError("one label per anchor row is required")
    if remaining_labels.shape != remaining_embeddings.shape[:1]:
        raise ContractError("one label per remaining row is required")
    if anchor_embeddings.shape[1] != remaining_embeddings.shape[1]:
        raise ContractError("anchor and remaining embeddings disagree on width")
    with np.errstate(over="ignore"):  # an overflowed norm fails the check
        for name, emb in (("anchor", anchor_embeddings), ("remaining", remaining_embeddings)):
            norms = np.linalg.norm(emb.data, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise ContractError(f"{name} embeddings must be unit-norm")
    return _contrast_sets(anchor_labels, anchor_embeddings, remaining_labels, remaining_embeddings)


def _contrast_sets(
    anchor_labels: np.ndarray,
    anchor_embeddings: Tensor,
    remaining_labels: np.ndarray,
    remaining_embeddings: Tensor,
) -> ContrastSets:
    """build_contrast_sets' core, without its checks (see the module docstring)."""
    positive = _positive_masks(anchor_labels, remaining_labels)
    return ContrastSets(
        anchor_embeddings=anchor_embeddings,
        remaining_embeddings=remaining_embeddings,
        positive_mask=positive,
        negative_mask=~positive,
    )


def _positive_masks(anchor_labels: np.ndarray, remaining_labels: np.ndarray) -> np.ndarray:
    """Which remaining rows share each anchor's label: (..., anchors,
    remaining) from (..., anchors) and (..., remaining) labels."""
    return anchor_labels[..., :, None] == remaining_labels[..., None, :]


def _counts(mask: np.ndarray) -> np.ndarray:
    """The entries of each row of a float 0/1 mask, exactly: every partial
    sum of its product with ones is a whole number. The product takes a
    fraction of the time of an add.reduce over rows this short."""
    return mask @ np.ones(mask.shape[-1])


def _sample_terms(positive: np.ndarray, negative: np.ndarray) -> list[tuple]:
    """The sample loss's label-only terms of S steps, from their (S,
    anchors, remaining) masks: per step, whether any anchor is valid, the
    float masks, the valid anchors as floats, the positive sums' pad and
    the negatives' per-anchor coefficients."""
    positive, negative = positive.astype(np.float64), negative.astype(np.float64)
    n_neg = _counts(negative)
    valid = (_counts(positive) >= 1) & (n_neg >= 1)
    valid_f = valid.astype(np.float64)
    return list(
        zip(
            np.logical_or.reduce(valid, axis=1).tolist(),
            positive,
            negative,
            valid_f,
            # Pads invalid rows so the log stays finite; their term is zeroed.
            1.0 - valid_f,
            np.where(valid, -1.0 / np.maximum(n_neg, 1), 0.0),
        )
    )


def _class_terms(positive: np.ndarray, negative: np.ndarray) -> list[tuple]:
    """The class loss's label-only terms of S steps, from their (S,
    anchors, remaining) masks, of which it reads only the negatives: per
    step, whether any anchor is valid, the float negative mask, the
    per-anchor coefficients and the constant, the sum over valid anchors
    of log |N_i|."""
    negative = negative.astype(np.float64)
    n_neg = _counts(negative)
    valid = n_neg >= 1
    logs = np.log(np.maximum(n_neg, 1))
    # A row's sum is the sum of that row alone; a row with an invalid anchor
    # sums its valid anchors' logs alone, as their own array, since a zero
    # in their place could regroup the pairwise sum.
    constant = np.add.reduce(logs, axis=1)
    if not np.logical_and.reduce(valid, axis=None):
        for i in np.flatnonzero(~np.logical_and.reduce(valid, axis=1)):
            constant[i] = np.add.reduce(logs[i][valid[i]])
    return list(
        zip(
            np.logical_or.reduce(valid, axis=1).tolist(),
            negative,
            np.where(valid, -1.0 / np.maximum(n_neg, 1), 0.0),
            constant.tolist(),
        )
    )


def _similarities(a: np.ndarray, r: np.ndarray, temperature: float) -> np.ndarray:
    """Scaled similarities s = (a @ r.T) / t, checked: a tiny t overflows them."""
    s = T._dot(a, r.T) * (1.0 / temperature)
    return T._require_finite(s, "scaled similarities is not finite")


def _record_contrastive(
    value, a: Tensor, r: Tensor, temperature: float, similarity_adjoint, name: str
) -> Tensor:
    """Tape a contrastive loss as one entry over both embedding batches.

    similarity_adjoint(g) maps the loss's adjoint g onto the scaled
    similarities s; the entry's backward carries it through the scaling
    and the product to the anchor and remaining embeddings.
    """
    out = T._fresh(value, name)
    a_data, r_data, inv_t = a.data, r.data, 1.0 / temperature

    def backward(g):
        g_s = similarity_adjoint(g) * inv_t
        # (a.T @ g_s).T is the product the composed transpose and matmul
        # formed; g_s.T @ a can differ from it in the last bits where BLAS
        # picks another kernel, as OpenBLAS does for large shapes.
        return (T._dot(g_s, r_data), T._dot(a_data.T, g_s).T)

    T._record(out, (a, r), backward)
    return out


def _set_terms(label_terms, sets: ContrastSets) -> tuple:
    """The label-only terms of the one step sets describes."""
    (terms,) = label_terms(sets.positive_mask[None], sets.negative_mask[None])
    return terms


def sample_unlearn_loss(sets: ContrastSets, temperature: float) -> Tensor:
    """Sample-variant unlearning loss summed over valid anchors.

    Valid anchors have at least one positive and one negative; the rest
    contribute exactly zero. Raises when no anchor is valid so the
    caller can resample the remaining batch.
    """
    if problems := _temperature_problems(temperature):
        raise ValidationError(problems[0])
    terms = _set_terms(_sample_terms, sets)
    with np.errstate(over="ignore", invalid="ignore"):  # the core's finite checks pick the error
        return _sample_unlearn(
            sets.anchor_embeddings, sets.remaining_embeddings, terms, temperature
        )


def _sample_unlearn(a: Tensor, r: Tensor, terms: tuple, temperature: float) -> Tensor:
    """sample_unlearn_loss' core on anchor and remaining embeddings and
    one step's ``_sample_terms``, without the temperature rule and errstate."""
    any_valid, positive, negative, valid_f, pad, neg_coeff = terms
    if not any_valid:
        raise NoValidAnchorError("every anchor lacks a positive or a negative")

    s = _similarities(a.data, r.data, temperature)
    # Per anchor i: -(1/|N_i|) sum_a s_ia + log(sum_p exp(s_ip)).
    neg_sum = np.add.reduce(s * negative, axis=1)
    exp_s = T._require_finite(np.exp(s), "exp of the scaled similarities is not finite")
    pos_den = np.add.reduce(exp_s * positive, axis=1) + pad
    # A sum of finite non-negative terms lies in [0, inf], so its log is
    # finite exactly where it is positive and finite. Checked before the
    # log, which then never takes a zero and raises no divide warning.
    if not (np.minimum.reduce(pos_den) > 0.0 and np.maximum.reduce(pos_den) < math.inf):
        raise NonFiniteError("log of the positive sum is not finite")
    log_den = np.log(pos_den)
    # A sum over the negatives can still overflow; it stays infinite (or
    # turns NaN) through the rest, so the final value's check catches it.
    value = np.add.reduce(neg_sum * neg_coeff + log_den * valid_f)

    def similarity_adjoint(g):
        g_den = (g * valid_f) / pos_den
        return g_den[:, None] * positive * exp_s + (g * neg_coeff)[:, None] * negative

    return _record_contrastive(value, a, r, temperature, similarity_adjoint, "sample_unlearn_loss")


def class_unlearn_loss(sets: ContrastSets, temperature: float) -> Tensor:
    """Class-variant unlearning loss summed over valid anchors.

    Only a negative set is required; the positive-sum denominator is
    replaced by the negative count.
    """
    if problems := _temperature_problems(temperature):
        raise ValidationError(problems[0])
    terms = _set_terms(_class_terms, sets)
    with np.errstate(over="ignore", invalid="ignore"):  # the core's finite checks pick the error
        return _class_unlearn(sets.anchor_embeddings, sets.remaining_embeddings, terms, temperature)


def _class_unlearn(a: Tensor, r: Tensor, terms: tuple, temperature: float) -> Tensor:
    """class_unlearn_loss' core on anchor and remaining embeddings and one
    step's ``_class_terms``, without the temperature rule and errstate."""
    any_valid, negative, neg_coeff, constant = terms
    if not any_valid:
        raise NoValidAnchorError("every anchor lacks a negative")

    s = _similarities(a.data, r.data, temperature)
    # Per anchor i: -(1/|N_i|) sum_a s_ia + log(|N_i|).
    neg_sum = np.add.reduce(s * negative, axis=1)
    # Only the sums can overflow past the similarities; an infinite sum
    # stays non-finite through the rest, so the final value's check catches it.
    value = np.add.reduce(neg_sum * neg_coeff) + constant

    def similarity_adjoint(g):
        return (g * neg_coeff)[:, None] * negative

    return _record_contrastive(value, a, r, temperature, similarity_adjoint, "class_unlearn_loss")


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over a batch of logits."""
    logits = T.as_tensor(logits)
    if logits.ndim != 2:
        raise ContractError(f"logits must be rank 2, got shape {logits.shape}")
    batch, num_classes = logits.shape
    if batch == 0:
        raise ContractError("cross-entropy of an empty batch")
    labels = integer_array(labels, "labels", ContractError, num_classes)
    if labels.shape != (batch,):
        raise ContractError("one label per logits row is required")
    with np.errstate(over="ignore"):  # the core's finite check picks the error
        return _cross_entropy(logits, labels)


def _cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """cross_entropy_loss' core, without its checks (see the module docstring)."""
    batch = logits.shape[0]
    # Subtracting the row max leaves the loss value unchanged and keeps
    # every exponent at or below zero, but the difference of two finite
    # logits can overflow. Past it, exp lies in [0, 1], the row sums in
    # [1, num_classes] and each row's log_norm - picked is finite; only
    # the batch sum can overflow, into the checked final value.
    # The ufunc reductions directly; the ndarray methods add Python wrappers.
    row_max = np.maximum.reduce(logits.data, axis=1, keepdims=True)
    shifted = T._require_finite(logits.data - row_max, "shifted logits is not finite")
    e = np.exp(shifted)
    sum_exp = np.add.reduce(e, axis=1)
    log_norm = np.log(sum_exp)
    # The composed ops multiply by a one-hot matrix and sum (forward) or add
    # (backward). Adding the exact zeros off the label changes no bit, so
    # indexing the label entry gives the same values; the backward's one
    # exception, a signed zero, is spelled out there.
    rows = np.arange(batch)
    picked = shifted[rows, labels]
    inv_batch = 1.0 / batch
    out = T._fresh(np.add.reduce(log_norm - picked) * inv_batch, "cross_entropy_loss")

    def backward(g):
        # As a Python float: the same IEEE product as on the 0-d array.
        g = float(g) * inv_batch
        grad = (g / sum_exp)[:, None] * e
        # Off the label the composed ops add (-g) * 0.0. That is -0.0, which
        # changes no bit, unless g is negative or -0.0: then it is +0.0, which
        # turns a -0.0 entry (an exp that underflowed, or g = -0.0) into 0.0.
        if math.copysign(1.0, g) < 0.0:
            grad += 0.0
        grad[rows, labels] -= g
        return (grad,)

    T._record(out, (logits,), backward)
    return out


def combined_loss(unlearn: Tensor, ce: Tensor, cfg: LossConfig) -> Tensor:
    """Weighted sum of the unlearning and cross-entropy terms."""
    unlearn, ce = T.as_tensor(unlearn), T.as_tensor(ce)
    if unlearn.shape != () or ce.shape != ():
        raise ContractError(f"combined_loss of non-scalar terms {unlearn.shape} and {ce.shape}")
    return _combined(unlearn, ce, cfg)


def _combined(unlearn: Tensor, ce: Tensor, cfg: LossConfig) -> Tensor:
    """combined_loss' core, without its conversions and check, for two
    scalar Tensors."""
    uw, cw = cfg.unlearn_weight, cfg.ce_weight
    # As Python floats: the same IEEE products and sum as on 0-d arrays.
    out = T._fresh(float(unlearn.data) * uw + float(ce.data) * cw, "combined_loss")
    T._record(out, (unlearn, ce), lambda g: (g * uw, g * cw))
    return out
