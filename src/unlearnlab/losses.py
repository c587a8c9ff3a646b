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
NonFiniteError. Matrix products go through ``tensor._dot``, as the
layers' do; ``combined_loss`` adds its two weighted terms as Python
floats, which give the IEEE results of the 0-d array ops in fewer numpy
calls; and where a composed sum would turn a -0.0 into 0.0 (the
cross-entropy adjoint off the label), the fused backward does too, so
the bits match to the sign of every zero. A temperature passed to a
loss is checked by ``LossConfig``'s rule, with its message.

``build_contrast_sets`` and ``cross_entropy_loss`` check their inputs
and then call their cores, ``_contrast_sets`` and ``_cross_entropy``,
which the engine calls directly: its labels come from a Dataset whose
class count it matched to the model's, and its embeddings from the
encoder, which makes them unit-norm.
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
    plain_number,
    real_or_nan,
)
from .tensor import Tensor

VARIANTS = ("sample", "class")


@dataclass(frozen=True)
class LossConfig:
    """Temperature, term weights, and which unlearning variant to use."""

    temperature: float = 0.5
    unlearn_weight: float = 1.0
    ce_weight: float = 1.0
    variant: str = "sample"

    def __post_init__(self):
        problems = []
        if not 0 < real_or_nan(self.temperature) < math.inf:
            problems.append(
                f"temperature must be a positive finite number, got {self.temperature!r}"
            )
        weights = {"unlearn_weight": self.unlearn_weight, "ce_weight": self.ce_weight}
        for name, value in weights.items():
            if not 0 <= real_or_nan(value) < math.inf:
                problems.append(f"{name} must be a finite number >= 0, got {value!r}")
        if sum(map(real_or_nan, weights.values())) <= 0:
            problems.append("at least one term weight must be positive")
        if self.variant not in VARIANTS:
            problems.append(f"variant must be one of {VARIANTS}")
        if problems:
            raise ValidationError("invalid loss config: " + "; ".join(problems))
        for name in ("temperature", "unlearn_weight", "ce_weight"):
            object.__setattr__(self, name, plain_number(getattr(self, name)))


@dataclass
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
    anchor_labels = np.asarray(anchor_labels, dtype=np.int64)
    remaining_labels = np.asarray(remaining_labels, dtype=np.int64)
    anchor_embeddings = T.as_tensor(anchor_embeddings)
    remaining_embeddings = T.as_tensor(remaining_embeddings)
    if anchor_embeddings.ndim != 2 or remaining_embeddings.ndim != 2:
        raise ContractError("embeddings must be rank-2 batches")
    if anchor_embeddings.shape[0] != anchor_labels.shape[0]:
        raise ContractError("one label per anchor row is required")
    if remaining_embeddings.shape[0] != remaining_labels.shape[0]:
        raise ContractError("one label per remaining row is required")
    if anchor_embeddings.shape[1] != remaining_embeddings.shape[1]:
        raise ContractError("anchor and remaining embeddings disagree on width")
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
    positive = anchor_labels[:, None] == remaining_labels[None, :]
    return ContrastSets(
        anchor_embeddings=anchor_embeddings,
        remaining_embeddings=remaining_embeddings,
        positive_mask=positive,
        negative_mask=~positive,
    )


def _check_temperature(temperature) -> None:
    """LossConfig's temperature rule, for a temperature passed directly."""
    if not 0 < real_or_nan(temperature) < math.inf:
        raise ValidationError(f"temperature must be a positive finite number, got {temperature!r}")


def _require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not T._all_finite(arr):
        raise NonFiniteError(f"{what} is not finite")
    return arr


def _similarities(sets: ContrastSets, temperature: float) -> np.ndarray:
    """Scaled similarities s = (a @ r.T) / t, checked: a tiny t overflows them."""
    a, r = sets.anchor_embeddings.data, sets.remaining_embeddings.data
    s = T._dot(a, r.T) * (1.0 / temperature)
    return _require_finite(s, "scaled similarities")


def _record_contrastive(
    value, sets: ContrastSets, temperature: float, similarity_adjoint, name: str
) -> Tensor:
    """Tape a contrastive loss as one entry over both embedding batches.

    similarity_adjoint(g) maps the loss's adjoint g onto the scaled
    similarities s; the entry's backward carries it through the scaling
    and the product to the anchor and remaining embeddings.
    """
    out = T._fresh(value, name)
    a, r = sets.anchor_embeddings, sets.remaining_embeddings
    a_data, r_data, inv_t = a.data, r.data, 1.0 / temperature

    def backward(g):
        g_s = similarity_adjoint(g) * inv_t
        # (a.T @ g_s).T is the product the composed transpose and matmul
        # formed; g_s.T @ a can differ from it in the last bits where BLAS
        # picks another kernel, as OpenBLAS does for large shapes.
        return (T._dot(g_s, r_data), T._dot(a_data.T, g_s).T)

    T._record(out, (a, r), backward)
    return out


def sample_unlearn_loss(sets: ContrastSets, temperature: float) -> Tensor:
    """Sample-variant unlearning loss summed over valid anchors.

    Valid anchors have at least one positive and one negative; the rest
    contribute exactly zero. Raises when no anchor is valid so the
    caller can resample the remaining batch.
    """
    _check_temperature(temperature)
    n_pos = sets.positive_counts
    n_neg = sets.negative_counts
    valid = (n_pos >= 1) & (n_neg >= 1)
    if not np.logical_or.reduce(valid):
        raise NoValidAnchorError("every anchor lacks a positive or a negative")

    s = _similarities(sets, temperature)
    positive = sets.positive_mask.astype(np.float64)
    negative = sets.negative_mask.astype(np.float64)
    valid_f = valid.astype(np.float64)
    # Per anchor i: -(1/|N_i|) sum_a s_ia + log(sum_p exp(s_ip)).
    neg_sum = np.add.reduce(s * negative, axis=1)
    exp_s = _require_finite(np.exp(s), "exp of the scaled similarities")
    # Pad invalid rows so the log stays finite; their term is zeroed below.
    pos_den = np.add.reduce(exp_s * positive, axis=1) + (1.0 - valid_f)
    # A sum of finite non-negative terms lies in [0, inf], so its log is
    # finite exactly where it is positive and finite. Checked before the
    # log, which then never takes a zero and raises no divide warning.
    if not (np.minimum.reduce(pos_den) > 0.0 and np.maximum.reduce(pos_den) < math.inf):
        raise NonFiniteError("log of the positive sum is not finite")
    log_den = np.log(pos_den)
    neg_coeff = np.where(valid, -1.0 / np.maximum(n_neg, 1), 0.0)
    # A sum over the negatives can still overflow; it stays infinite (or
    # turns NaN) through the rest, so the final value's check catches it.
    value = np.add.reduce(neg_sum * neg_coeff + log_den * valid_f)

    def similarity_adjoint(g):
        g_den = (g * valid_f) / pos_den
        return g_den[:, None] * positive * exp_s + (g * neg_coeff)[:, None] * negative

    return _record_contrastive(value, sets, temperature, similarity_adjoint, "sample_unlearn_loss")


def class_unlearn_loss(sets: ContrastSets, temperature: float) -> Tensor:
    """Class-variant unlearning loss summed over valid anchors.

    Only a negative set is required; the positive-sum denominator is
    replaced by the negative count.
    """
    _check_temperature(temperature)
    n_neg = sets.negative_counts
    valid = n_neg >= 1
    if not np.logical_or.reduce(valid):
        raise NoValidAnchorError("every anchor lacks a negative")

    s = _similarities(sets, temperature)
    negative = sets.negative_mask.astype(np.float64)
    # Per anchor i: -(1/|N_i|) sum_a s_ia + log(|N_i|).
    neg_sum = np.add.reduce(s * negative, axis=1)
    neg_coeff = np.where(valid, -1.0 / np.maximum(n_neg, 1), 0.0)
    constant = float(np.add.reduce(np.log(n_neg[valid])))
    # Only the sums can overflow past the similarities; an infinite sum
    # stays non-finite through the rest, so the final value's check catches it.
    value = np.add.reduce(neg_sum * neg_coeff) + constant

    def similarity_adjoint(g):
        return (g * neg_coeff)[:, None] * negative

    return _record_contrastive(value, sets, temperature, similarity_adjoint, "class_unlearn_loss")


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over a batch of logits."""
    logits = T.as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ContractError(f"logits must be rank 2, got shape {logits.shape}")
    batch, num_classes = logits.shape
    if batch == 0:
        raise ContractError("cross-entropy of an empty batch")
    if labels.shape != (batch,):
        raise ContractError("one label per logits row is required")
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= num_classes:
        raise ContractError(f"labels must lie in [0, {num_classes})")
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
    shifted = _require_finite(
        logits.data - np.maximum.reduce(logits.data, axis=1, keepdims=True), "shifted logits"
    )
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
    uw, cw = cfg.unlearn_weight, cfg.ce_weight
    # As Python floats: the same IEEE products and sum as on 0-d arrays.
    out = T._fresh(float(unlearn.data) * uw + float(ce.data) * cw, "combined_loss")
    T._record(out, (unlearn, ce), lambda g: (g * uw, g * cw))
    return out
