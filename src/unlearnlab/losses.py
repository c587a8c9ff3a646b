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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, NoValidAnchorError, ValidationError
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
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            problems.append("temperature must be positive and finite")
        if not (math.isfinite(self.unlearn_weight) and math.isfinite(self.ce_weight)):
            problems.append("term weights must be finite")
        elif self.unlearn_weight < 0 or self.ce_weight < 0:
            problems.append("term weights must be non-negative")
        if self.unlearn_weight + self.ce_weight <= 0:
            problems.append("at least one term weight must be positive")
        if self.variant not in VARIANTS:
            problems.append(f"variant must be one of {VARIANTS}")
        if problems:
            raise ValidationError("invalid loss config: " + "; ".join(problems), problems)


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

    @property
    def positive_counts(self) -> np.ndarray:
        return self.positive_mask.sum(axis=1)

    @property
    def negative_counts(self) -> np.ndarray:
        return self.negative_mask.sum(axis=1)


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
    positive = anchor_labels[:, None] == remaining_labels[None, :]
    return ContrastSets(
        anchor_embeddings=anchor_embeddings,
        remaining_embeddings=remaining_embeddings,
        positive_mask=positive,
        negative_mask=~positive,
    )


def _similarities(sets: ContrastSets, temperature: float) -> Tensor:
    return T.multiply(
        T.matmul(sets.anchor_embeddings, T.transpose(sets.remaining_embeddings)),
        1.0 / temperature,
    )


def sample_unlearn_loss(sets: ContrastSets, temperature: float) -> Tensor:
    """Sample-variant unlearning loss summed over valid anchors.

    Valid anchors have at least one positive and one negative; the rest
    contribute exactly zero. Raises when no anchor is valid so the
    caller can resample the remaining batch.
    """
    if not temperature > 0:
        raise ValidationError("temperature must be positive")
    n_pos = sets.positive_counts
    n_neg = sets.negative_counts
    valid = (n_pos >= 1) & (n_neg >= 1)
    if not valid.any():
        raise NoValidAnchorError("every anchor lacks a positive or a negative")

    s = _similarities(sets, temperature)
    # Per anchor i: -(1/|N_i|) sum_a s_ia + log(sum_p exp(s_ip)).
    neg_sum = T.reduce_sum(T.multiply(s, sets.negative_mask.astype(np.float64)), axis=1)
    pos_den = T.reduce_sum(T.multiply(T.exp(s), sets.positive_mask.astype(np.float64)), axis=1)
    # Pad invalid rows so the log stays finite; their term is zeroed below.
    pos_den = T.add(pos_den, (~valid).astype(np.float64))
    neg_coeff = np.where(valid, -1.0 / np.maximum(n_neg, 1), 0.0)
    per_anchor = T.add(
        T.multiply(neg_sum, neg_coeff),
        T.multiply(T.log(pos_den), valid.astype(np.float64)),
    )
    return T.reduce_sum(per_anchor)


def class_unlearn_loss(sets: ContrastSets, temperature: float) -> Tensor:
    """Class-variant unlearning loss summed over valid anchors.

    Only a negative set is required; the positive-sum denominator is
    replaced by the negative count.
    """
    if not temperature > 0:
        raise ValidationError("temperature must be positive")
    n_neg = sets.negative_counts
    valid = n_neg >= 1
    if not valid.any():
        raise NoValidAnchorError("every anchor lacks a negative")

    s = _similarities(sets, temperature)
    # Per anchor i: -(1/|N_i|) sum_a s_ia + log(|N_i|).
    neg_sum = T.reduce_sum(T.multiply(s, sets.negative_mask.astype(np.float64)), axis=1)
    neg_coeff = np.where(valid, -1.0 / np.maximum(n_neg, 1), 0.0)
    constant = float(np.sum(np.log(n_neg[valid])))
    return T.add(T.reduce_sum(T.multiply(neg_sum, neg_coeff)), constant)


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over a batch of logits."""
    logits = T.as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2:
        raise ContractError(f"logits must be rank 2, got shape {logits.shape}")
    batch, num_classes = logits.shape
    if labels.shape != (batch,):
        raise ContractError("one label per logits row is required")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractError(f"labels must lie in [0, {num_classes})")

    # Subtracting the detached row max leaves the loss value unchanged
    # and keeps every exponent at or below zero.
    shifted = T.subtract(logits, logits.data.max(axis=1, keepdims=True))
    log_norm = T.log(T.reduce_sum(T.exp(shifted), axis=1))
    onehot = np.zeros((batch, num_classes))
    onehot[np.arange(batch), labels] = 1.0
    picked = T.reduce_sum(T.multiply(shifted, onehot), axis=1)
    return T.multiply(T.reduce_sum(T.subtract(log_norm, picked)), 1.0 / batch)


def combined_loss(unlearn: Tensor, ce: Tensor, cfg: LossConfig) -> Tensor:
    """Weighted sum of the unlearning and cross-entropy terms."""
    return T.add(
        T.multiply(T.as_tensor(unlearn), cfg.unlearn_weight),
        T.multiply(T.as_tensor(ce), cfg.ce_weight),
    )
