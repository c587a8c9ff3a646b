"""Unlearning losses against hand-computed values and a naive oracle.

The batched implementations are checked against a literal double loop
over anchors and remaining samples, written here independently of the
library code. Each loss is one tape entry; its values and gradients are
also checked bit for bit against the same loss composed from the public
tensor ops.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unlearnlab.errors import (
    ContractError,
    NonFiniteError,
    NoValidAnchorError,
    ValidationError,
)
from unlearnlab.losses import (
    LossConfig,
    _contrast_sets,
    build_contrast_sets,
    class_unlearn_loss,
    combined_loss,
    cross_entropy_loss,
    sample_unlearn_loss,
)
from composed_ops import (
    add,
    bits_equal,
    exp,
    finite_difference_gradient,
    gradient_relative_error,
    l2_normalize,
    log,
    matmul,
    multiply,
    recorded_ids,
    reduce_sum,
    subtract,
    transpose,
)
from unlearnlab.tensor import GradTape, as_tensor


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


def composed_similarities(sets, tau):
    return multiply(
        matmul(sets.anchor_embeddings, transpose(sets.remaining_embeddings)), 1.0 / tau
    )


def composed_sample_loss(sets, tau):
    """The sample loss built from public tensor ops, one tape entry each."""
    n_neg = sets.negative_counts
    valid = (sets.positive_counts >= 1) & (n_neg >= 1)
    s = composed_similarities(sets, tau)
    neg_sum = reduce_sum(multiply(s, sets.negative_mask.astype(np.float64)), axis=1)
    pos_den = reduce_sum(multiply(exp(s), sets.positive_mask.astype(np.float64)), axis=1)
    pos_den = add(pos_den, (~valid).astype(np.float64))
    neg_coeff = np.where(valid, -1.0 / np.maximum(n_neg, 1), 0.0)
    per_anchor = add(
        multiply(neg_sum, neg_coeff),
        multiply(log(pos_den), valid.astype(np.float64)),
    )
    return reduce_sum(per_anchor)


def composed_class_loss(sets, tau):
    """The class loss built from public tensor ops, one tape entry each."""
    n_neg = sets.negative_counts
    valid = n_neg >= 1
    s = composed_similarities(sets, tau)
    neg_sum = reduce_sum(multiply(s, sets.negative_mask.astype(np.float64)), axis=1)
    neg_coeff = np.where(valid, -1.0 / np.maximum(n_neg, 1), 0.0)
    constant = float(np.sum(np.log(n_neg[valid])))
    return add(reduce_sum(multiply(neg_sum, neg_coeff)), constant)


def composed_cross_entropy(logits, labels):
    """The cross-entropy built from public tensor ops, one tape entry each."""
    batch, num_classes = logits.shape
    shifted = subtract(logits, logits.data.max(axis=1, keepdims=True))
    log_norm = log(reduce_sum(exp(shifted), axis=1))
    onehot = np.zeros((batch, num_classes))
    onehot[np.arange(batch), labels] = 1.0
    picked = reduce_sum(multiply(shifted, onehot), axis=1)
    return multiply(reduce_sum(subtract(log_norm, picked)), 1.0 / batch)


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

    # Reordering the remaining batch, or padding the anchors with excluded
    # rows, changes how the loss sums are associated, so the value and the
    # gradients may move in their last bits: equal within this tolerance,
    # not bit for bit.
    TOLERANCE = {"rtol": 1e-12, "atol": 1e-12}
    VARIANTS = {"sample": sample_unlearn_loss, "class": class_unlearn_loss}

    @staticmethod
    def value_and_gradients(loss_fn, a_emb, a_lab, r_emb, r_lab, tau):
        anchor, remaining = as_tensor(a_emb), as_tensor(r_emb)
        with GradTape() as tape:
            out = loss_fn(sets_of(anchor, a_lab, remaining, r_lab), tau)
        g_anchor, g_remaining = tape.gradient(out, [anchor, remaining])
        return out.item(), g_anchor.data, g_remaining.data

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["sample", "class"]),
        n_classes=st.integers(2, 4),
        n_anchor=st.integers(1, 8),
        n_remain=st.integers(2, 12),
        dim=st.integers(2, 5),
        tau=st.floats(0.1, 2.0),
    )
    def test_remaining_order_is_irrelevant(
        self, seed, variant, n_classes, n_anchor, n_remain, dim, tau
    ):
        rng = np.random.default_rng(seed)
        a_lab = rng.integers(0, n_classes, size=n_anchor)
        r_lab = rng.integers(0, n_classes, size=n_remain)
        # One anchor with a positive and a negative keeps both variants valid.
        r_lab[:2] = a_lab[0], (a_lab[0] + 1) % n_classes
        a_emb, r_emb = unit_rows(rng, n_anchor, dim), unit_rows(rng, n_remain, dim)
        perm = rng.permutation(n_remain)
        loss_fn = self.VARIANTS[variant]
        value, g_anchor, g_remaining = self.value_and_gradients(
            loss_fn, a_emb, a_lab, r_emb, r_lab, tau
        )
        p_value, p_anchor, p_remaining = self.value_and_gradients(
            loss_fn, a_emb, a_lab, r_emb[perm], r_lab[perm], tau
        )
        np.testing.assert_allclose(p_value, value, **self.TOLERANCE)
        np.testing.assert_allclose(p_anchor, g_anchor, **self.TOLERANCE)
        # The remaining rows' gradients move with their rows.
        np.testing.assert_allclose(p_remaining, g_remaining[perm], **self.TOLERANCE)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["sample", "class"]),
        n_classes=st.integers(2, 4),
        n_anchor=st.integers(1, 8),
        n_inserted=st.integers(1, 6),
        n_remain=st.integers(2, 12),
        dim=st.integers(2, 5),
        tau=st.floats(0.1, 2.0),
    )
    def test_invalid_anchor_contributes_nothing(
        self, seed, variant, n_classes, n_anchor, n_inserted, n_remain, dim, tau
    ):
        rng = np.random.default_rng(seed)
        a_lab = rng.integers(0, n_classes, size=n_anchor)
        if variant == "sample":
            # Label n_classes is absent from the remaining batch: no positive.
            r_lab = rng.integers(0, n_classes, size=n_remain)
            r_lab[:2] = a_lab[0], (a_lab[0] + 1) % n_classes
            invalid_label = n_classes
        else:
            # A one-label remaining batch leaves anchors of that label no negative.
            r_lab = np.zeros(n_remain, dtype=np.int64)
            a_lab[0] = 1
            invalid_label = 0
        a_emb, r_emb = unit_rows(rng, n_anchor, dim), unit_rows(rng, n_remain, dim)
        total = n_anchor + n_inserted
        inserted = np.zeros(total, dtype=bool)
        inserted[rng.choice(total, size=n_inserted, replace=False)] = True
        big_emb = np.empty((total, dim))
        big_emb[~inserted], big_emb[inserted] = a_emb, unit_rows(rng, n_inserted, dim)
        big_lab = np.full(total, invalid_label)
        big_lab[~inserted] = a_lab
        loss_fn = self.VARIANTS[variant]
        value, g_anchor, g_remaining = self.value_and_gradients(
            loss_fn, a_emb, a_lab, r_emb, r_lab, tau
        )
        b_value, b_anchor, b_remaining = self.value_and_gradients(
            loss_fn, big_emb, big_lab, r_emb, r_lab, tau
        )
        assert np.all(b_anchor[inserted] == 0.0)
        np.testing.assert_allclose(b_value, value, **self.TOLERANCE)
        np.testing.assert_allclose(b_anchor[~inserted], g_anchor, **self.TOLERANCE)
        np.testing.assert_allclose(b_remaining, g_remaining, **self.TOLERANCE)


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

    def test_engine_core_builds_the_public_masks(self, rng):
        # The engine calls _contrast_sets on the encoder's unit-norm rows
        # without the public checks; the sets are the same.
        a_emb, r_emb = as_tensor(unit_rows(rng, 5, 3)), as_tensor(unit_rows(rng, 9, 3))
        a_lab, r_lab = rng.integers(0, 3, 5), rng.integers(0, 3, 9)
        public = build_contrast_sets(a_lab, a_emb, r_lab, r_emb)
        core = _contrast_sets(a_lab, a_emb, r_lab, r_emb)
        assert core.anchor_embeddings is public.anchor_embeddings
        assert core.remaining_embeddings is public.remaining_embeddings
        assert np.array_equal(core.positive_mask, public.positive_mask)
        assert np.array_equal(core.negative_mask, public.negative_mask)


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

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            cross_entropy_loss(np.zeros((0, 3)), np.zeros(0, int))

    @pytest.mark.parametrize("label", [-1, 3])
    def test_labels_out_of_range_rejected(self, label):
        # The engine's core skips this check on Dataset labels; the public
        # loss keeps it.
        with pytest.raises(ContractError):
            cross_entropy_loss(np.zeros((2, 3)), np.array([0, label]))

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


class TestFusedLosses:
    """Each loss is one tape entry whose arithmetic is the composed ops'."""

    @staticmethod
    def run_contrastive(loss_fn, case, weight):
        a_emb, a_lab, r_emb, r_lab, tau = case
        anchor, remaining = as_tensor(a_emb), as_tensor(r_emb)
        with GradTape() as tape:
            sets = build_contrast_sets(a_lab, anchor, r_lab, remaining)
            out = multiply(loss_fn(sets, tau), weight)
        return [out.data] + [g.data for g in tape.gradient(out, [anchor, remaining])]

    @staticmethod
    def run_cross_entropy(loss_fn, x0, labels, weight):
        logits = as_tensor(x0)
        with GradTape() as tape:
            out = multiply(loss_fn(logits, labels), weight)
        (g,) = tape.gradient(out, [logits])
        return [out.data, g.data]

    @settings(max_examples=120, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_classes=st.integers(1, 4),
        n_anchor=st.integers(1, 6),
        n_remain=st.integers(1, 8),
        dim=st.integers(2, 5),
        tau=st.floats(0.05, 2.0),
        weight=st.floats(-3.0, 3.0),
        labels=st.data(),
    )
    def test_contrastive_bit_identical_to_composed(
        self, seed, n_classes, n_anchor, n_remain, dim, tau, weight, labels
    ):
        # Small label ranges draw anchors with no positive, no negative or
        # neither among the remaining batch.
        label = st.integers(0, n_classes - 1)
        a_lab = np.array(labels.draw(st.lists(label, min_size=n_anchor, max_size=n_anchor)))
        r_lab = np.array(labels.draw(st.lists(label, min_size=n_remain, max_size=n_remain)))
        rng = np.random.default_rng(seed)
        case = (unit_rows(rng, n_anchor, dim), a_lab, unit_rows(rng, n_remain, dim), r_lab, tau)
        has_pos = (a_lab[:, None] == r_lab[None, :]).any(axis=1)
        has_neg = (a_lab[:, None] != r_lab[None, :]).any(axis=1)
        for fused, composed, any_valid in (
            (sample_unlearn_loss, composed_sample_loss, (has_pos & has_neg).any()),
            (class_unlearn_loss, composed_class_loss, has_neg.any()),
        ):
            if not any_valid:
                with pytest.raises(NoValidAnchorError):
                    self.run_contrastive(fused, case, weight)
                continue
            got = self.run_contrastive(fused, case, weight)
            want = self.run_contrastive(composed, case, weight)
            for g, w in zip(got, want):
                assert bits_equal(g, w)

    @settings(max_examples=120, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 6),
        n_classes=st.integers(1, 5),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 1e4]),
        weight=st.floats(-3.0, 3.0),
        labels=st.data(),
    )
    def test_cross_entropy_bit_identical_to_composed(
        self, seed, batch, n_classes, scale, weight, labels
    ):
        label = st.integers(0, n_classes - 1)
        y = np.array(labels.draw(st.lists(label, min_size=batch, max_size=batch)))
        x0 = np.random.default_rng(seed).standard_normal((batch, n_classes)) * scale
        got = self.run_cross_entropy(cross_entropy_loss, x0, y, weight)
        want = self.run_cross_entropy(composed_cross_entropy, x0, y, weight)
        for g, w in zip(got, want):
            assert bits_equal(g, w)

    @settings(max_examples=120, deadline=None, database=None)
    @given(
        terms=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
        weights=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2),
    )
    def test_combined_bit_identical_to_composed(self, terms, weights):
        assume(sum(weights) > 0)
        cfg = LossConfig(unlearn_weight=weights[0], ce_weight=weights[1])

        def run(combine):
            unlearn, ce = as_tensor(terms[0]), as_tensor(terms[1])
            with GradTape() as tape:
                out = combine(unlearn, ce)
            return [out.data] + [g.data for g in tape.gradient(out, [unlearn, ce])]

        got = run(lambda u, ce: combined_loss(u, ce, cfg))
        want = run(lambda u, ce: add(multiply(u, weights[0]), multiply(ce, weights[1])))
        for g, w in zip(got, want):
            assert bits_equal(g, w)

    def test_one_anchor_with_underflowing_products_bit_identical_to_composed(self):
        # One anchor makes the remaining embeddings' adjoint a.T @ g_s a
        # product over an inner width of 1; subnormal weights make its
        # products underflow to zeros whose sign np.dot keeps and @ does not.
        rng = np.random.default_rng(0)
        case = (unit_rows(rng, 1, 3), np.array([0]), unit_rows(rng, 6, 3), np.arange(6) % 2, 0.5)
        for fused, composed in (
            (sample_unlearn_loss, composed_sample_loss),
            (class_unlearn_loss, composed_class_loss),
        ):
            for weight in (-5e-324, 5e-324, -1e-323):
                got = self.run_contrastive(fused, case, weight)
                want = self.run_contrastive(composed, case, weight)
                for g, w in zip(got, want):
                    assert bits_equal(g, w)

    @pytest.mark.parametrize("weight", [-0.0, -1.0, 0.0, 1.0])
    def test_cross_entropy_signed_zero_adjoints_bit_identical_to_composed(self, weight):
        # An exp that underflows to 0.0 (the -1e4 logit) or g = -0.0 makes
        # the off-label adjoint a zero whose sign the composed sum sets.
        x0 = np.array([[0.0, -1e4, 0.5], [2.0, 1.0, -1e4]])
        labels = np.array([0, 1])
        got = self.run_cross_entropy(cross_entropy_loss, x0, labels, weight)
        want = self.run_cross_entropy(composed_cross_entropy, x0, labels, weight)
        for g, w in zip(got, want):
            assert bits_equal(g, w)

    def test_combined_overflow_rejected(self):
        cfg = LossConfig(unlearn_weight=10.0)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                combined_loss(as_tensor(1e308), as_tensor(0.0), cfg)

    def test_one_tape_entry_per_loss(self, rng):
        a_emb, r_emb = unit_rows(rng, 3, 4), unit_rows(rng, 5, 4)
        for loss_fn in (sample_unlearn_loss, class_unlearn_loss):
            with GradTape() as tape:
                sets = sets_of(a_emb, [0, 1, 2], r_emb, [0, 1, 1, 2, 0])
                loss = loss_fn(sets, 0.5)
            assert len(tape) == 1 and recorded_ids(tape) == [loss.tid]
        logits = as_tensor(rng.standard_normal((4, 3)))
        with GradTape() as tape:
            loss = cross_entropy_loss(logits, np.array([0, 2, 1, 1]))
        assert len(tape) == 1 and recorded_ids(tape) == [loss.tid]
        with GradTape() as tape:
            loss = combined_loss(as_tensor(1.5), as_tensor(-0.5), LossConfig())
        assert len(tape) == 1 and recorded_ids(tape) == [loss.tid]

    def test_shifted_logit_overflow_rejected(self):
        # Both logits are finite; their difference is not.
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                cross_entropy_loss(as_tensor([[-1e308, 1e308]]), np.array([0]))

    def test_exp_overflow_rejected(self):
        # At t = 1e-3 a similarity of 1 scales to 1000, past exp's range.
        sets = sets_of([[1.0, 0.0]], [0], [[1.0, 0.0], [0.0, 1.0]], [0, 1])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                sample_unlearn_loss(sets, 1e-3)

    def test_positive_sum_underflow_rejected(self):
        # At t = 1e-3 the one positive's similarity of -1 scales to -1000,
        # whose exp underflows to 0.0, so the log of its sum would be -inf.
        sets = sets_of([[1.0, 0.0]], [0], [[-1.0, 0.0], [0.0, 1.0]], [0, 1])
        with pytest.raises(NonFiniteError, match="log of the positive sum"):
            sample_unlearn_loss(sets, 1e-3)

    def test_similarity_overflow_rejected(self):
        sets = sets_of([[1.0, 0.0]], [0], [[1.0, 0.0], [0.0, 1.0]], [0, 1])
        with np.errstate(over="ignore", invalid="ignore"):
            for loss_fn in (sample_unlearn_loss, class_unlearn_loss):
                with pytest.raises(NonFiniteError):
                    loss_fn(sets, 1e-310)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1.0, None, "0.5", True])
    def test_temperature_must_be_positive_and_finite(self, bad):
        # The rule and the message of LossConfig's temperature: a string,
        # None or a bool is not a number.
        sets = sets_of([[1.0, 0.0]], [0], [[0.0, 1.0], [1.0, 0.0]], [0, 1])
        for loss_fn in (sample_unlearn_loss, class_unlearn_loss):
            with pytest.raises(ValidationError, match=r"^temperature must be a positive finite"):
                loss_fn(sets, bad)

    def test_temperature_takes_any_real_number(self):
        sets = sets_of([[1.0, 0.0]], [0], [[0.0, 1.0], [1.0, 0.0]], [0, 1])
        for loss_fn in (sample_unlearn_loss, class_unlearn_loss):
            want = loss_fn(sets, 1.0).data
            for t in (1, np.float32(1.0), np.int64(1)):
                assert bits_equal(loss_fn(sets, t).data, want)

    def test_combined_rejects_non_scalar_terms(self):
        with pytest.raises(ContractError, match="non-scalar"):
            combined_loss(as_tensor([1.0, 2.0]), as_tensor(0.5), LossConfig())
