"""Unlearning losses against hand-computed values and a naive oracle.

The batched implementations are checked against a literal double loop
over anchors and remaining samples, written here independently of the
library code.
"""

import math

import numpy as np
import pytest

from unlearnlab.errors import ContractError, NoValidAnchorError, ValidationError
from unlearnlab.losses import (
    LossConfig,
    build_contrast_sets,
    class_unlearn_loss,
    combined_loss,
    cross_entropy_loss,
    sample_unlearn_loss,
)
from unlearnlab.tensor import (
    GradTape,
    as_tensor,
    finite_difference_gradient,
    gradient_relative_error,
    l2_normalize,
)


def unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def naive_sample_loss(anchor_emb, anchor_lab, rem_emb, rem_lab, tau):
    """Literal per-anchor double loop; anchors missing a positive or a
    negative contribute nothing."""
    total = 0.0
    for ai, la in zip(anchor_emb, anchor_lab):
        pos = [j for j, lr in enumerate(rem_lab) if lr == la]
        neg = [j for j, lr in enumerate(rem_lab) if lr != la]
        if not pos or not neg:
            continue
        neg_term = -sum(float(ai @ rem_emb[j]) / tau for j in neg) / len(neg)
        pos_term = math.log(sum(math.exp(float(ai @ rem_emb[j]) / tau) for j in pos))
        total += neg_term + pos_term
    return total


def naive_class_loss(anchor_emb, anchor_lab, rem_emb, rem_lab, tau):
    """Same shape as the sample loss but positives never enter."""
    total = 0.0
    for ai, la in zip(anchor_emb, anchor_lab):
        neg = [j for j, lr in enumerate(rem_lab) if lr != la]
        if not neg:
            continue
        neg_term = -sum(float(ai @ rem_emb[j]) / tau for j in neg) / len(neg)
        total += neg_term + math.log(len(neg))
    return total


def sets_of(anchor_emb, anchor_lab, rem_emb, rem_lab):
    return build_contrast_sets(
        np.asarray(anchor_lab),
        as_tensor(anchor_emb),
        np.asarray(rem_lab),
        as_tensor(rem_emb),
    )


class TestFrozenValues:
    def test_single_pair_each_side(self):
        # Anchor [1,0]; positive [0,1] (similarity 0); negative [1,0]
        # (similarity 1). Loss = -1 + log(exp 0) = -1.
        sets = sets_of([[1.0, 0.0]], [0], [[0.0, 1.0], [1.0, 0.0]], [0, 1])
        assert sample_unlearn_loss(sets, 1.0).item() == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_everything_is_zero(self):
        sets = sets_of([[1.0, 0.0]], [0], [[0.0, 1.0], [0.0, -1.0]], [0, 1])
        assert sample_unlearn_loss(sets, 1.0).item() == pytest.approx(0.0, abs=1e-12)

    def test_two_orthogonal_positives_give_log_two(self):
        sets = sets_of(
            [[1.0, 0.0]], [0], [[0.0, 1.0], [0.0, -1.0], [0.0, 1.0]], [0, 0, 1]
        )
        assert sample_unlearn_loss(sets, 1.0).item() == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_class_loss_single_negative(self):
        # -mean similarity to negatives + log(count): -(-1) + log 1 = 1.
        sets = sets_of([[1.0, 0.0]], [0], [[-1.0, 0.0]], [1])
        assert class_unlearn_loss(sets, 1.0).item() == pytest.approx(1.0, abs=1e-12)

    def test_one_pos_one_neg_reduces_to_similarity_gap(self):
        # With a single positive and negative the loss collapses to
        # (s_pos - s_neg) / temperature.
        a, b = 0.3, 1.2
        sets = sets_of(
            [[1.0, 0.0]],
            [0],
            [[math.cos(a), math.sin(a)], [math.cos(b), math.sin(b)]],
            [0, 1],
        )
        expected = (math.cos(a) - math.cos(b)) / 0.5
        assert sample_unlearn_loss(sets, 0.5).item() == pytest.approx(expected, abs=1e-12)


class TestOracleEquivalence:
    def random_batch(self, rng):
        while True:
            n_classes = int(rng.integers(2, 5))
            n_anchor = int(rng.integers(1, 9))
            n_remain = int(rng.integers(2, 9))
            d = int(rng.integers(2, 6))
            a_lab = rng.integers(0, n_classes, size=n_anchor)
            r_lab = rng.integers(0, n_classes, size=n_remain)
            a_emb = unit_rows(rng, n_anchor, d)
            r_emb = unit_rows(rng, n_remain, d)
            has_sample = any(
                (r_lab == la).any() and (r_lab != la).any() for la in a_lab
            )
            has_class = any((r_lab != la).any() for la in a_lab)
            if has_sample and has_class:
                return a_emb, a_lab, r_emb, r_lab, float(rng.uniform(0.2, 2.0))

    def test_batched_equals_double_loop(self, rng):
        worst = 0.0
        for _ in range(25):
            a_emb, a_lab, r_emb, r_lab, tau = self.random_batch(rng)
            sets = sets_of(a_emb, a_lab, r_emb, r_lab)
            got_s = sample_unlearn_loss(sets, tau).item()
            got_c = class_unlearn_loss(sets, tau).item()
            want_s = naive_sample_loss(a_emb, a_lab, r_emb, r_lab, tau)
            want_c = naive_class_loss(a_emb, a_lab, r_emb, r_lab, tau)
            worst = max(worst, abs(got_s - want_s), abs(got_c - want_c))
        assert worst <= 1e-9

    def test_remaining_order_is_irrelevant(self, rng):
        a_emb, a_lab, r_emb, r_lab, tau = self.random_batch(rng)
        perm = rng.permutation(len(r_lab))
        base = sample_unlearn_loss(sets_of(a_emb, a_lab, r_emb, r_lab), tau).item()
        shuf = sample_unlearn_loss(
            sets_of(a_emb, a_lab, r_emb[perm], r_lab[perm]), tau
        ).item()
        assert shuf == pytest.approx(base, abs=1e-12)

    def test_invalid_anchor_contributes_nothing(self):
        valid = ([[1.0, 0.0]], [0])
        rem = ([[0.0, 1.0], [-1.0, 0.0]], [0, 1])
        alone = sample_unlearn_loss(sets_of(*valid, *rem), 1.0).item()
        # Second anchor's class 2 has no positives in the remaining batch.
        both = sample_unlearn_loss(
            sets_of([[1.0, 0.0], [0.0, 1.0]], [0, 2], *rem), 1.0
        ).item()
        assert both == pytest.approx(alone, abs=1e-12)


class TestValidity:
    def test_sample_needs_a_positive_and_a_negative(self):
        no_neg = sets_of([[1.0, 0.0]], [0], [[0.0, 1.0]], [0])
        with pytest.raises(NoValidAnchorError):
            sample_unlearn_loss(no_neg, 1.0)
        no_pos = sets_of([[1.0, 0.0]], [0], [[0.0, 1.0]], [1])
        with pytest.raises(NoValidAnchorError):
            sample_unlearn_loss(no_pos, 1.0)

    def test_class_needs_only_a_negative(self):
        no_pos = sets_of([[1.0, 0.0]], [0], [[0.0, 1.0]], [1])
        assert class_unlearn_loss(no_pos, 1.0).item() == pytest.approx(0.0, abs=1e-12)
        no_neg = sets_of([[1.0, 0.0]], [0], [[0.0, 1.0]], [0])
        with pytest.raises(NoValidAnchorError):
            class_unlearn_loss(no_neg, 1.0)

    def test_counts(self):
        sets = sets_of(
            [[1.0, 0.0], [0.0, 1.0]],
            [0, 1],
            [[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]],
            [0, 0, 1],
        )
        assert np.array_equal(sets.positive_counts, [2, 1])
        assert np.array_equal(sets.negative_counts, [1, 2])


class TestContracts:
    def test_non_unit_embeddings_rejected(self):
        with pytest.raises(ContractError):
            sets_of([[2.0, 0.0]], [0], [[0.0, 1.0]], [1])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ContractError):
            sets_of([[1.0, 0.0]], [0], [[0.0, 1.0, 0.0]], [1])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ContractError):
            sets_of([[1.0, 0.0]], [0, 1], [[0.0, 1.0]], [1])


class TestGradients:
    def test_single_pair_anchor_gradient_is_p_minus_n(self):
        p = np.array([0.0, 1.0])
        n = np.array([-1.0, 0.0])
        anchor = as_tensor([[1.0, 0.0]])
        with GradTape() as tape:
            sets = build_contrast_sets(
                np.array([0]), anchor, np.array([0, 1]), as_tensor([p, n])
            )
            loss = sample_unlearn_loss(sets, 1.0)
        (ga,) = tape.gradient(loss, [anchor])
        assert np.allclose(ga.data[0], p - n, atol=1e-12)

    def test_descent_pushes_from_positives_toward_negatives(self, rng):
        # The defining property: one gradient step on the anchor lowers
        # positive similarity and raises negative similarity.
        a_emb = unit_rows(rng, 3, 4)
        r_emb = unit_rows(rng, 6, 4)
        a_lab = np.array([0, 1, 0])
        r_lab = np.array([0, 0, 1, 1, 0, 1])
        anchor = as_tensor(a_emb)
        with GradTape() as tape:
            sets = build_contrast_sets(a_lab, anchor, r_lab, as_tensor(r_emb))
            loss = sample_unlearn_loss(sets, 0.5)
        (ga,) = tape.gradient(loss, [anchor])
        stepped = a_emb - 0.01 * ga.data
        for i, la in enumerate(a_lab):
            pos = r_emb[r_lab == la]
            neg = r_emb[r_lab != la]
            assert (stepped[i] @ pos.T).mean() < (a_emb[i] @ pos.T).mean()
            assert (stepped[i] @ neg.T).mean() > (a_emb[i] @ neg.T).mean()

    def test_sample_loss_gradient_vs_finite_differences(self, rng):
        a_lab = np.array([0, 1])
        r_lab = np.array([0, 0, 1, 1])
        r_emb = unit_rows(rng, 4, 3)
        raw0 = rng.standard_normal((2, 3))

        def value(raw):
            # Normalize inside so the unit-norm contract holds at every
            # probe point of the finite-difference stencil.
            unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            sets = sets_of(unit, a_lab, r_emb, r_lab)
            return sample_unlearn_loss(sets, 0.7).item()

        raw = as_tensor(raw0)
        with GradTape() as tape:
            sets = build_contrast_sets(
                a_lab, l2_normalize(raw), r_lab, as_tensor(r_emb)
            )
            loss = sample_unlearn_loss(sets, 0.7)
        (g,) = tape.gradient(loss, [raw])
        fd = finite_difference_gradient(value, raw0)
        assert gradient_relative_error(g.data, fd) < 1e-6


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert cross_entropy_loss(as_tensor([[0.0, 0.0]]), np.array([0])).item() == (
            pytest.approx(math.log(2.0), abs=1e-12)
        )

    def test_extreme_logits_are_stable(self):
        # Shift-invariance keeps exp() in range even at logit 1000.
        easy = cross_entropy_loss(as_tensor([[1000.0, 0.0]]), np.array([0])).item()
        hard = cross_entropy_loss(as_tensor([[1000.0, 0.0]]), np.array([1])).item()
        assert easy == pytest.approx(0.0, abs=1e-12)
        assert hard == pytest.approx(1000.0, abs=1e-9)

    def test_mean_over_rows(self):
        logits = as_tensor([[0.0, 0.0], [1000.0, 0.0]])
        got = cross_entropy_loss(logits, np.array([0, 0])).item()
        assert got == pytest.approx(math.log(2.0) / 2.0, abs=1e-12)

    def test_gradient_vs_finite_differences(self, rng):
        labels = np.array([0, 2, 1])
        x0 = rng.standard_normal((3, 3))
        logits = as_tensor(x0)
        with GradTape() as tape:
            loss = cross_entropy_loss(logits, labels)
        (g,) = tape.gradient(loss, [logits])
        fd = finite_difference_gradient(
            lambda v: cross_entropy_loss(as_tensor(v), labels).item(), x0
        )
        assert gradient_relative_error(g.data, fd) < 1e-6


class TestCombined:
    def test_weighted_sum(self):
        cfg = LossConfig(unlearn_weight=2.0, ce_weight=3.0)
        got = combined_loss(as_tensor(1.5), as_tensor(-0.5), cfg).item()
        assert got == pytest.approx(2.0 * 1.5 + 3.0 * (-0.5), abs=1e-12)

    def test_zero_weight_drops_term(self):
        cfg = LossConfig(unlearn_weight=0.0, ce_weight=1.0)
        got = combined_loss(as_tensor(123.0), as_tensor(0.25), cfg).item()
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            LossConfig(temperature=0.0)
        with pytest.raises(ValidationError):
            LossConfig(unlearn_weight=-0.1)
        with pytest.raises(ValidationError):
            LossConfig(unlearn_weight=0.0, ce_weight=0.0)
        with pytest.raises(ValidationError):
            LossConfig(variant="other")
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValidationError):
                LossConfig(temperature=bad)
            with pytest.raises(ValidationError):
                LossConfig(unlearn_weight=bad)
            with pytest.raises(ValidationError):
                LossConfig(ce_weight=bad)
