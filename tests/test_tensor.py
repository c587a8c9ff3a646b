"""Autodiff core: forward values, exact gradients, tape mechanics."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import unlearnlab as ul
from unlearnlab import tensor as tensor_module
from unlearnlab.errors import (
    ContractError,
    DegenerateEmbeddingError,
    DimensionError,
    DivergenceError,
    NonFiniteError,
    UnlearnLabError,
    ValidationError,
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
    mean,
    multiply,
    recorded_ids,
    reduce_sum,
    relu,
    subtract,
    tanh,
    transpose,
)
from unlearnlab.losses import (
    build_contrast_sets,
    class_unlearn_loss,
    cross_entropy_loss,
    sample_unlearn_loss,
)
from unlearnlab.model import ModelArchitecture, init_parameters
from unlearnlab.tensor import (
    NORM_EPSILON,
    GradTape,
    Tensor,
    _encoder,
    _layer_adjoint,
    _row_norms,
    as_tensor,
    dense,
)


class TestForward:
    def test_matmul_known_product(self):
        a = as_tensor([[1.0, 2.0], [3.0, 4.0]])
        b = as_tensor([[5.0, 6.0], [7.0, 8.0]])
        # [[1*5+2*7, 1*6+2*8], [3*5+4*7, 3*6+4*8]]
        assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_identity(self, rng):
        a = as_tensor(rng.standard_normal((3, 5)))
        assert np.array_equal(matmul(a, np.eye(5)).data, a.data)

    def test_matmul_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError) as exc:
            matmul(np.ones((2, 3)), np.ones((4, 2)))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(DimensionError):
            matmul(np.ones(3), np.ones((3, 2)))

    def test_elementwise_against_numpy(self, rng):
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((4, 3))
        assert np.array_equal(add(x, y).data, x + y)
        assert np.array_equal(subtract(x, y).data, x - y)
        assert np.array_equal(multiply(x, y).data, x * y)
        assert np.array_equal(relu(x).data, np.maximum(x, 0.0))
        assert np.array_equal(tanh(x).data, np.tanh(x))
        assert np.array_equal(exp(x).data, np.exp(x))
        pos = np.abs(x) + 0.5
        assert np.array_equal(log(pos).data, np.log(pos))

    def test_broadcasting_matches_numpy(self, rng):
        x = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        assert np.array_equal(add(x, b).data, x + b)
        assert np.array_equal(multiply(x, 2.0).data, x * 2.0)

    def test_reductions(self, rng):
        x = rng.standard_normal((3, 4))
        assert reduce_sum(x).item() == pytest.approx(x.sum(), abs=1e-12)
        assert np.allclose(reduce_sum(x, axis=0).data, x.sum(axis=0))
        assert np.allclose(reduce_sum(x, axis=1).data, x.sum(axis=1))
        assert mean(x).item() == pytest.approx(x.mean(), abs=1e-12)

    def test_transpose(self, rng):
        x = rng.standard_normal((2, 5))
        assert np.array_equal(transpose(x).data, x.T)

    def test_l2_normalize_vector(self):
        # encode only passes rank-2 batches, so a vector is a shape error.
        with pytest.raises(DimensionError):
            l2_normalize([3.0, 4.0])

    def test_l2_normalize_rows(self, rng):
        x = rng.standard_normal((6, 4))
        z = l2_normalize(x)
        assert np.allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-12)

    def test_l2_normalize_zero_row_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            l2_normalize([[1.0, 0.0], [0.0, 0.0]])

    def test_l2_normalize_overflow_rejected(self):
        # Squared norms overflow float64; silently returning zeros here
        # would let a diverging run keep going with garbage embeddings.
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                l2_normalize(np.full((2, 3), 1e200))

    def test_non_finite_construction_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])

    @pytest.mark.parametrize("values", [["1.5"], [True, False]], ids=["string", "bool"])
    def test_only_real_numbers_construct_a_tensor(self, values):
        # Both were taken as numbers, "1.5" as 1.5 and the bools as 1.0 and 0.0.
        with pytest.raises(ValidationError, match="tensor values must be an array of real"):
            Tensor(values)

    def test_non_finite_op_result_rejected(self):
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError):
                exp(as_tensor([1000.0]))

    def test_tensors_are_read_only(self):
        t = as_tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_construction_copies_and_leaves_caller_array_writable(self):
        arr = np.array([1.0, 2.0])
        t = Tensor(arr)
        assert arr.flags.writeable
        assert not np.shares_memory(arr, t.data)
        arr[0] = 5.0
        assert t.data[0] == 1.0
        assert as_tensor(arr).data[0] == 5.0 and arr.flags.writeable

    def test_op_and_gradient_results_are_read_only(self, rng):
        x = as_tensor(rng.standard_normal((3, 2)))
        results = [
            matmul(x, transpose(x)),
            transpose(x),
            add(x, 1.0),
            subtract(x, 1.0),
            multiply(x, 2.0),
            relu(x),
            tanh(x),
            exp(x),
            log(add(multiply(x, x), 1.0)),
            reduce_sum(x),
            reduce_sum(x, axis=0),
            l2_normalize(x),
            dense(x, np.ones((2, 4)), np.zeros(4), "relu"),
        ]
        with GradTape() as tape:
            out = reduce_sum(multiply(x, x))
        results += tape.gradient(out, [x, as_tensor(1.0)])
        for t in results:
            assert isinstance(t.data, np.ndarray)
            assert not t.data.flags.writeable
        assert reduce_sum(x).shape == ()

    def test_item_requires_scalar(self):
        with pytest.raises(ContractError):
            as_tensor([1.0, 2.0]).item()


class TestGradients:
    def test_product_gradient_is_exact(self, rng):
        x = as_tensor(rng.standard_normal(5))
        y = rng.standard_normal(5)
        with GradTape() as tape:
            out = reduce_sum(multiply(x, y))
        (gx,) = tape.gradient(out, [x])
        assert np.array_equal(gx.data, y)

    def test_matmul_gradient_is_exact(self, rng):
        a = as_tensor(rng.standard_normal((3, 4)))
        b = rng.standard_normal((4, 2))
        with GradTape() as tape:
            out = reduce_sum(matmul(a, b))
        (ga,) = tape.gradient(out, [a])
        assert np.allclose(ga.data, np.ones((3, 2)) @ b.T, atol=1e-15)

    def test_relu_gradient_masks_negatives(self):
        x = as_tensor([-2.0, -0.5, 0.5, 3.0])
        with GradTape() as tape:
            out = reduce_sum(relu(x))
        (gx,) = tape.gradient(out, [x])
        assert np.array_equal(gx.data, [0.0, 0.0, 1.0, 1.0])

    def test_reuse_accumulates(self, rng):
        x = as_tensor(rng.standard_normal(4))
        with GradTape() as tape:
            out = reduce_sum(add(multiply(x, x), x))  # sum(x^2 + x)
        (gx,) = tape.gradient(out, [x])
        assert np.allclose(gx.data, 2.0 * x.data + 1.0, atol=1e-15)

    def test_constant_inputs_get_zeros(self, rng):
        x = as_tensor(rng.standard_normal(3))
        unused = as_tensor(rng.standard_normal(7))
        with GradTape() as tape:
            out = reduce_sum(multiply(x, 2.0))
        gx, gu = tape.gradient(out, [x, unused])
        assert np.array_equal(gx.data, np.full(3, 2.0))
        assert np.array_equal(gu.data, np.zeros(7))

    def test_gradient_requires_scalar_output(self, rng):
        x = as_tensor(rng.standard_normal((2, 2)))
        with GradTape() as tape:
            out = multiply(x, 3.0)
        with pytest.raises(ContractError):
            tape.gradient(out, [x])

    def test_broadcast_gradient_collapses(self, rng):
        x = rng.standard_normal((5, 3))
        b = as_tensor(rng.standard_normal(3))
        with GradTape() as tape:
            out = reduce_sum(add(x, b))
        (gb,) = tape.gradient(out, [b])
        assert np.array_equal(gb.data, np.full(3, 5.0))

    def test_l2_normalize_gradient_vs_finite_differences(self, rng):
        x0 = rng.standard_normal((3, 4))
        w = rng.standard_normal((3, 4))

        def f(v):
            return float(np.sum(l2_normalize(as_tensor(v)).data * w))

        xt = as_tensor(x0)
        with GradTape() as tape:
            out = reduce_sum(multiply(l2_normalize(xt), w))
        (gx,) = tape.gradient(out, [xt])
        fd = finite_difference_gradient(f, x0)
        assert gradient_relative_error(gx.data, fd) < 1e-6

    def test_smooth_op_chain_vs_finite_differences(self, rng):
        # One composite touching every smooth op: exp, log, tanh, matmul,
        # reductions, broadcasting.
        x0 = rng.standard_normal((4, 3)) * 0.5
        m = rng.standard_normal((3, 3))

        def build(v):
            h = matmul(v, m)
            h = tanh(h)
            h = log(add(exp(h), 1.0))
            return mean(multiply(h, h))

        xt = as_tensor(x0)
        with GradTape() as tape:
            out = build(xt)
        (gx,) = tape.gradient(out, [xt])
        fd = finite_difference_gradient(lambda v: build(as_tensor(v)).item(), x0)
        assert gradient_relative_error(gx.data, fd) < 1e-6

    def test_gradient_is_deterministic(self, rng):
        x0 = rng.standard_normal((3, 3))

        def run():
            xt = as_tensor(x0)
            with GradTape() as tape:
                out = reduce_sum(tanh(matmul(xt, x0.T)))
            return tape.gradient(out, [xt])[0].data

        assert np.array_equal(run(), run())


ACTIVATIONS = (None, "relu", "tanh")
APPLY = {None: lambda t: t, "relu": relu, "tanh": tanh}


def _dense_case(seed, batch, fan_in, fan_out):
    r = np.random.default_rng(seed)
    return (
        r.standard_normal((batch, fan_in)),
        r.standard_normal((fan_in, fan_out)),
        r.standard_normal(fan_out),
        r.standard_normal((batch, fan_out)),
    )


class TestDense:
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 5),
        fan_in=st.integers(1, 5),
        fan_out=st.integers(1, 5),
        activation=st.sampled_from(ACTIVATIONS),
    )
    def test_gradients_vs_finite_differences(self, seed, batch, fan_in, fan_out, activation):
        x0, w0, b0, r = _dense_case(seed, batch, fan_in, fan_out)
        if activation == "relu":
            # Finite differences are wrong across the kink.
            assume(np.min(np.abs(x0 @ w0 + b0)) > 1e-3)

        def f(x, w, b):
            return float(np.sum(dense(x, w, b, activation).data * r))

        xt, wt, bt = as_tensor(x0), as_tensor(w0), as_tensor(b0)
        with GradTape() as tape:
            out = reduce_sum(multiply(dense(xt, wt, bt, activation), r))
        gx, gw, gb = tape.gradient(out, [xt, wt, bt])
        fds = (
            finite_difference_gradient(lambda v: f(v, w0, b0), x0),
            finite_difference_gradient(lambda v: f(x0, v, b0), w0),
            finite_difference_gradient(lambda v: f(x0, w0, v), b0),
        )
        # A relative error alone fails on random draws whose gradient
        # entries nearly cancel; finite differences are good to ~1e-10 here.
        for analytic, fd in zip((gx, gw, gb), fds):
            np.testing.assert_allclose(analytic.data, fd, rtol=1e-6, atol=1e-8)

    @staticmethod
    def fused_and_composed(case, activation):
        """Output and leaf gradients of dense and of its composed ops."""
        x0, w0, b0, r = case

        def run(layer):
            xt, wt, bt = as_tensor(x0), as_tensor(w0), as_tensor(b0)
            with GradTape() as tape:
                h = layer(xt, wt, bt)
                out = reduce_sum(multiply(h, r))
            return [h.data] + [g.data for g in tape.gradient(out, [xt, wt, bt])]

        fused = run(lambda x, w, b: dense(x, w, b, activation))
        composed = run(lambda x, w, b: APPLY[activation](add(matmul(x, w), b)))
        return fused, composed

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_bit_identical_to_composed_ops(self, activation):
        fused, composed = self.fused_and_composed(_dense_case(7, 6, 5, 3), activation)
        for got, want in zip(fused, composed):
            assert bits_equal(got, want)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_one_row_batch_bit_identical_to_composed_ops(self, activation):
        fused, composed = self.fused_and_composed(_dense_case(7, 1, 5, 3), activation)
        for got, want in zip(fused, composed):
            assert bits_equal(got, want)

    @pytest.mark.parametrize("batch", [6, 1])
    def test_relu_with_dead_units_bit_identical_to_composed_ops(self, batch):
        # Units 0 and 2 are dead for every row, unit 1 for some, and every
        # upstream adjoint is negative, so the composed mask makes -0.0s.
        x0, w0, _, r = _dense_case(5, batch, 5, 3)
        b0 = np.array([-50.0, 0.0, -50.0])
        x0[0] = 0.0  # a pre-activation of exactly 0.0 in unit 1
        fused, composed = self.fused_and_composed((x0, w0, b0, -np.abs(r)), "relu")
        assert not np.any(fused[0][:, [0, 2]])
        for got, want in zip(fused, composed):
            assert bits_equal(got, want)

    def test_underflowing_products_bit_identical_to_composed_ops(self):
        # A one-row batch makes the weight gradient x.T @ g a product over
        # an inner width of 1. At these scales each of its products
        # underflows to a zero whose sign np.dot keeps and @ does not.
        x0, w0, b0, r = _dense_case(3, 1, 4, 3)
        fused, composed = self.fused_and_composed((x0 * 1e-170, w0, b0, r * 1e-170), None)
        assert not fused[2].any() and np.signbit(composed[2]).sum() == 0
        for got, want in zip(fused, composed):
            assert bits_equal(got, want)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_layer_adjoint_bit_identical_to_composed_activation(self, activation):
        # The adjoint of the pre-activation, which the leaf gradients see
        # only through products and sums that turn -0.0 into 0.0: dead
        # units (negative, -0.0 and 0.0 pre-activations) under negative
        # upstream adjoints give -0.0 in the composed relu's g * mask.
        rng = np.random.default_rng(2)
        pre = rng.standard_normal((4, 6))
        pre[0, :3] = [-0.0, 0.0, 5e-324]
        up = rng.standard_normal((4, 6))
        up[:, :3] = -1.0
        leaf = as_tensor(pre)
        with GradTape() as tape:
            out = reduce_sum(multiply(APPLY[activation](leaf), up))
        (want,) = tape.gradient(out, [leaf])
        act = {None: lambda v: v, "relu": lambda v: np.maximum(v, 0.0), "tanh": np.tanh}
        got = _layer_adjoint(up, act[activation](pre.copy()), activation)
        if activation == "relu":
            assert np.signbit(want.data[0, :2]).all()
        assert bits_equal(got, want.data)

    def test_one_tape_entry_per_call(self, rng):
        x = as_tensor(rng.standard_normal((4, 3)))
        with GradTape() as tape:
            h = dense(x, rng.standard_normal((3, 2)), np.zeros(2), "relu")
        assert len(tape) == 1 and recorded_ids(tape) == [h.tid]

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            dense(np.ones((2, 3)), np.ones((4, 2)), np.zeros(2))
        with pytest.raises(DimensionError):
            dense(np.ones((2, 3)), np.ones((3, 2)), np.zeros(3))
        with pytest.raises(DimensionError):
            dense(np.ones(3), np.ones((3, 2)), np.zeros(2))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ContractError):
            dense(np.ones((2, 3)), np.ones((3, 2)), np.zeros(2), "sigmoid")

    def test_array_activation_is_named(self):
        # Its membership test raised a bare "truth value is ambiguous".
        with pytest.raises(ContractError, match="unknown activation"):
            dense(np.ones((2, 3)), np.ones((3, 2)), np.zeros(2), np.array(["relu", "tanh"]))

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_overflow_rejected(self, activation):
        # tanh maps the overflowed pre-activation to a finite 1.0, so the
        # check has to see the pre-activation.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError):
                dense(np.full((2, 3), 1e200), np.full((3, 2), 1e200), np.zeros(2), activation)
        # A non-finite x is rejected on the way in, like a non-finite w or b.
        with pytest.raises(NonFiniteError):
            dense(np.full((2, 3), np.nan), np.ones((3, 2)), np.zeros(2), activation)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_overflow_raises_no_warning(self, activation):
        # The product of finite inputs overflows; that once warned before the
        # NonFiniteError, and raised the warning under warnings-as-errors.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="dense produced non-finite values"):
                dense(np.full((1, 2), 1e308), np.full((2, 2), 1e308), np.zeros(2), activation)


def _encoder_case(seed, hidden, batch=6, fan_in=5, width=3):
    """Random encoder weights [w0, b0, ..., w_emb, b_emb], a batch and a
    downstream weighting of the embedding."""
    r = np.random.default_rng(seed)
    dims = [fan_in, *hidden, width]
    weights = []
    for rows, cols in zip(dims[:-1], dims[1:]):
        weights += [as_tensor(r.standard_normal((rows, cols))), as_tensor(r.standard_normal(cols))]
    return r.standard_normal((batch, fan_in)), weights, r.standard_normal((batch, width))


def _composed_encoder(x, weights, activation):
    """The oracle: a dense per layer, then the composed l2_normalize."""
    h = x
    for i in range(len(weights) // 2 - 1):
        h = dense(h, weights[2 * i], weights[2 * i + 1], activation)
    return l2_normalize(dense(h, weights[-2], weights[-1]))


class TestEncoder:
    # The encoder takes only an array batch; "x_kind" names that form.
    @pytest.mark.parametrize("x_kind", ["array"])
    @pytest.mark.parametrize("hidden", [(4,), (4, 3), (6, 2, 5)])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_bit_identical_to_composed_ops(self, activation, hidden, x_kind):
        self.check_bit_identical(_encoder_case(11, hidden), activation, len(hidden))

    @pytest.mark.parametrize("hidden", [(4,), (6, 2, 5)])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_one_row_batch_bit_identical_to_composed_ops(self, activation, hidden):
        self.check_bit_identical(_encoder_case(11, hidden, batch=1), activation, len(hidden))

    def test_dead_relu_units_bit_identical_to_composed_ops(self):
        # Half the first layer's units are dead for every row, and the
        # downstream weighting is negative.
        x0, weights, r = _encoder_case(4, (6, 3))
        b0 = weights[1].data.copy()
        b0[::2] = -50.0
        weights[1] = as_tensor(b0)
        self.check_bit_identical((x0, weights, -np.abs(r)), "relu", 2)

    @staticmethod
    def check_bit_identical(case, activation, n_hidden):
        x0, weights, r = case

        def run(encoder):
            with GradTape() as tape:
                z = encoder(x0.copy(), weights, activation)
                out = reduce_sum(multiply(z, r))
            return len(tape), [z.data] + [g.data for g in tape.gradient(out, weights)]

        fused_entries, fused = run(_encoder)
        composed_entries, composed = run(_composed_encoder)
        assert fused_entries == 3 and composed_entries == n_hidden + 4
        assert len(fused) == len(composed)
        for got, want in zip(fused, composed):
            assert bits_equal(got, want)

    # x rows of zeros map to a zero embedding, rows of ones to a finite one
    # whose norm overflows; both in one batch must report the overflow.
    @pytest.mark.parametrize(
        "rows",
        [[0.0], [1.0], [0.0, 1.0], [1.0, 0.0]],
        ids=["zero-row", "infinite-norm-row", "zero-then-infinite", "infinite-then-zero"],
    )
    def test_norm_bounds_fail_like_the_composed_encoder(self, rows):
        layers = (np.eye(5), np.zeros(5), np.full((5, 3), 1e200), np.zeros(3))
        weights = [as_tensor(w) for w in layers]
        x = np.repeat(np.array(rows)[:, None], 5, axis=1)
        errors = []
        with np.errstate(over="ignore"):
            for encoder in (_encoder, _composed_encoder):
                with pytest.raises((NonFiniteError, DegenerateEmbeddingError)) as exc:
                    encoder(x, weights, "relu")
                errors.append((type(exc.value), str(exc.value)))
        want = NonFiniteError if 1.0 in rows else DegenerateEmbeddingError
        assert errors[0] == errors[1] and errors[0][0] is want

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([[3.0, 4.0], [np.nan, 0.0]], NonFiniteError),
            ([[3.0, 4.0], [1e200, 0.0]], NonFiniteError),
            ([[3.0, 4.0], [0.0, 0.0]], DegenerateEmbeddingError),
            ([[3.0, 4.0], [1e-13, 0.0]], DegenerateEmbeddingError),
            ([[0.0, 0.0], [1e200, 1.0]], NonFiniteError),
            ([[np.nan, 1.0], [0.0, 0.0]], NonFiniteError),
        ],
        ids=["nan-row", "infinite-norm-row", "zero-row", "near-zero-row",
             "zero-and-infinite-norm-rows", "nan-and-zero-rows"],
    )
    def test_row_norm_bounds(self, rows, error):
        # A NaN row never reaches the norms from the encoder, whose layers
        # reject it first; the bounds still must not pass it.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error):
                _row_norms(np.array(rows))

    @pytest.mark.parametrize(
        "rows", [[[3.0, 4.0], [0.0, 2 * NORM_EPSILON]], np.zeros((0, 2))], ids=["two", "none"]
    )
    def test_row_norms_within_bounds(self, rows):
        v = np.array(rows)
        assert bits_equal(_row_norms(v), np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True)))

    def test_empty_batch_encodes_to_no_rows(self):
        _, weights, _ = _encoder_case(3, (4,))
        assert _encoder(np.zeros((0, 5)), weights, "relu").shape == (0, 3)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_untaped_values_match_taped(self, activation):
        x0, weights, _ = _encoder_case(3, (4, 3))
        with GradTape():
            taped = _encoder(x0, weights, activation).data
        assert np.array_equal(_encoder(x0, weights, activation).data, taped)


# Widths 49, 26 and 18 leave 1, 2 and 2 over a multiple of 8, past an
# inner width of 16: on OpenBLAS a 2-d product's rows then depend on its
# row count, so a stack concatenated into one (2B, K) batch would change
# bits where the per-part products of a (2, B, K) stack do not.
STACK_ARCH = ModelArchitecture(4, (49, 26), 18, 3)


def _stack_case(activation, batch, seed=5):
    """Encoder weights of STACK_ARCH, a remaining and a forgotten batch of
    `batch` rows, and a downstream weighting of each part's embedding."""
    arch = ModelArchitecture(4, STACK_ARCH.hidden, STACK_ARCH.embedding_dim, 3, activation)
    weights = init_parameters(arch, seed).as_list()[:-2]
    r = np.random.default_rng(seed)
    x_r, x_u = r.standard_normal((2, batch, 4))
    return x_r, x_u, weights, r.standard_normal((2, batch, arch.embedding_dim))


def _weighted_sum(parts, downstream):
    """sum over the used parts of sum(z * r), composed; None skips a part."""
    terms = [reduce_sum(multiply(z, r)) for z, r in zip(parts, downstream) if z is not None]
    return terms[0] if len(terms) == 1 else add(terms[0], terms[1])


class TestEncoderStack:
    """A (2, B, K) stack is one tape entry whose values and gradients are
    those of one entry per part, bit for bit."""

    @staticmethod
    def taped(encode, weights, downstream):
        with GradTape() as tape:
            parts = encode()
            entries = len(tape)
            out = _weighted_sum(parts, downstream)
        return entries, parts, tape.gradient(out, weights)

    @pytest.mark.parametrize("batch", [2, 3, 16, 32])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_bit_identical_to_one_entry_per_part(self, activation, batch):
        x_r, x_u, weights, down = _stack_case(activation, batch)
        stack_entries, stacked, stack_grads = self.taped(
            lambda: _encoder(np.stack((x_r, x_u)), weights, activation), weights, down
        )
        part_entries, parts, part_grads = self.taped(
            lambda: [_encoder(x, weights, activation) for x in (x_r, x_u)], weights, down
        )
        assert (stack_entries, part_entries) == (1, 2)
        assert [z.shape for z in stacked] == [(batch, STACK_ARCH.embedding_dim)] * 2
        for got, want in zip(stacked + stack_grads, parts + part_grads):
            assert bits_equal(got.data, want.data)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_gradient_vs_finite_differences(self, activation):
        x_r, x_u, weights, down = _stack_case(activation, 3)
        stack = np.stack((x_r, x_u))
        _, _, grads = self.taped(lambda: _encoder(stack, weights, activation), weights, down)
        # The first layer's weight and the embedding's bias, one at each end.
        for k in (0, len(weights) - 1):
            def f(v, k=k):
                changed = weights[:k] + [as_tensor(v)] + weights[k + 1:]
                return _weighted_sum(_encoder(stack, changed, activation), down).item()

            fd = finite_difference_gradient(f, weights[k].data)
            assert gradient_relative_error(grads[k].data, fd) < 1e-6

    @pytest.mark.parametrize("used", [0, 1], ids=["remaining-only", "forgotten-only"])
    def test_unused_part_adds_nothing(self, used):
        x_r, x_u, weights, down = _stack_case("relu", 16)
        _, _, stack_grads = self.taped(
            lambda: [z if p == used else None
                     for p, z in enumerate(_encoder(np.stack((x_r, x_u)), weights, "relu"))],
            weights, down,
        )

        def encode_alone():
            parts = [None, None]
            parts[used] = _encoder((x_r, x_u)[used], weights, "relu")
            return parts

        _, _, part_grads = self.taped(encode_alone, weights, down)
        for got, want in zip(stack_grads, part_grads):
            assert bits_equal(got.data, want.data)

    # As in TestEncoder: a row of zeros embeds to the zero vector, a row of
    # ones to a finite one whose norm overflows. The stack checks every
    # norm for overflow before any for zero, so without its rerun a zero
    # row in part 0 and an overflow in part 1 would raise NonFiniteError.
    @pytest.mark.parametrize(
        "first, second, error",
        [(0.0, 1.0, DegenerateEmbeddingError), (1.0, 0.0, NonFiniteError)],
        ids=["zero-then-overflow", "overflow-then-zero"],
    )
    def test_failing_stack_raises_the_first_failing_part_error(self, first, second, error):
        layers = (np.eye(5), np.zeros(5), np.full((5, 3), 1e200), np.zeros(3))
        weights = [as_tensor(w) for w in layers]
        parts = [np.full((2, 5), first), np.full((2, 5), second)]
        # The core sets no errstate; its callers do (see the tensor module).
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error) as by_part:
                for x in parts:
                    _encoder(x, weights, "relu")
            with pytest.raises(error) as stacked:
                _encoder(np.stack(parts), weights, "relu")
        assert stacked.value.args == by_part.value.args


class TestTape:
    def test_only_one_active_tape(self):
        with GradTape():
            with pytest.raises(ContractError):
                with GradTape():
                    pass

    def test_records_in_execution_order(self):
        x = as_tensor([1.0, 2.0])
        with GradTape() as tape:
            a = multiply(x, 2.0)
            b = add(a, 1.0)
            c = reduce_sum(b)
        assert recorded_ids(tape) == [a.tid, b.tid, c.tid]

    def test_ops_outside_tape_not_recorded(self):
        x = as_tensor([1.0])
        multiply(x, 2.0)
        with GradTape() as tape:
            y = multiply(x, 3.0)
        assert len(tape) == 1 and recorded_ids(tape) == [y.tid]

    def test_intermediate_gradient_matches_a_fresh_leaf(self, rng):
        x = as_tensor(rng.standard_normal((5, 3)))
        w = as_tensor(rng.standard_normal((3, 4)))
        b = as_tensor(rng.standard_normal(4))
        labels = np.array([0, 1, 2, 3, 0])
        with GradTape() as tape:
            h = dense(x, w, b, "relu")
            loss = cross_entropy_loss(h, labels)
        g_x, g_h, g_w = tape.gradient(loss, [x, h, w])
        leaf_x, leaf_w = tape.gradient(loss, [x, w])
        with GradTape() as leaf_tape:
            leaf = as_tensor(h.data)
            leaf_loss = cross_entropy_loss(leaf, labels)
        (want,) = leaf_tape.gradient(leaf_loss, [leaf])
        assert np.any(want.data != 0.0)
        assert np.array_equal(g_h.data, want.data)
        assert np.array_equal(g_x.data, leaf_x.data) and np.array_equal(g_w.data, leaf_w.data)


    def test_gradient_is_the_checked_raw_replay(self, rng):
        # The engine reads the raw adjoints; the public gradient must return
        # exactly their bits, read-only, for leaves, intermediates and an
        # input the output does not depend on.
        x = as_tensor(rng.standard_normal((4, 3)))
        w = as_tensor(rng.standard_normal((3, 2)))
        b = as_tensor(rng.standard_normal(2))
        unused = as_tensor(rng.standard_normal(5))
        with GradTape() as tape:
            h = dense(x, w, b, "tanh")
            out = cross_entropy_loss(l2_normalize(h), np.array([0, 1, 1, 0]))
        inputs = [x, w, b, h, unused]
        raw = tape._replay(out, inputs)
        public = tape.gradient(out, inputs)
        assert len(raw) == len(public) == len(inputs)
        for r, g, inp in zip(raw, public, inputs):
            assert g.shape == np.shape(r) == inp.shape
            assert g.data.dtype == np.float64
            assert g.data.tobytes() == np.asarray(r).tobytes()
            assert not g.data.flags.writeable
        assert not public[-1].data.any()

    def test_gradient_checks_what_the_raw_replay_does_not(self):
        # Finite forward values, overflowing adjoint: weights of 1e160 in
        # both layers multiply the input's adjoint past the float range.
        x = as_tensor(np.full((2, 3), 1e-200))
        w1 = as_tensor(np.full((3, 3), 1e160))
        w2 = as_tensor(np.tile([1e160, -1e160], (3, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            with GradTape() as tape:
                h = dense(x, w1, np.zeros(3))
                out = cross_entropy_loss(dense(h, w2, np.zeros(2)), np.array([1, 1]))
            (raw,) = tape._replay(out, [x])
            assert not np.isfinite(raw).all()
            with pytest.raises(NonFiniteError):
                tape.gradient(out, [x])

    def test_shared_replay_seed_stays_read_only_and_one(self, rng, python_in_child):
        # Every replay starts from one shared 0-d 1.0, and the gradient of an
        # output with respect to itself is that seed: no caller may write it.
        # It is read-only from import on, before any gradient wraps it (in a
        # child, since a gradient in an earlier test freezes it too).
        child = python_in_child(
            "-c",
            "from unlearnlab.tensor import _SEED; "
            "print(_SEED.flags.writeable, _SEED.shape, _SEED.tobytes().hex())",
        )
        assert child.stdout.split() == ["False", "()", np.float64(1.0).tobytes().hex()]
        x = as_tensor(rng.standard_normal((3, 2)))
        for _ in range(3):
            with GradTape() as tape:
                y = cross_entropy_loss(x, np.array([0, 1, 1]))
            (g_y,) = tape.gradient(y, [y])
            (g_again,) = tape.gradient(y, [y])
            for g in (g_y, g_again):
                assert g.shape == () and g.data.tobytes() == np.float64(1.0).tobytes()
                assert not g.data.flags.writeable
                with pytest.raises(ValueError):
                    g.data[()] = 2.0
            (g_x,) = tape.gradient(y, [x])
            assert np.any(g_x.data != 0.0)
        assert tensor_module._SEED.tobytes() == np.float64(1.0).tobytes()
        assert not tensor_module._SEED.flags.writeable


class TestNumericHelpers:
    def test_finite_difference_on_quadratic(self):
        # f(x) = sum(x^2) has exact derivative 2x; central differences
        # are exact for quadratics up to rounding.
        x = np.array([1.0, -2.0, 3.0])
        fd = finite_difference_gradient(lambda v: float(np.sum(v**2)), x)
        assert np.allclose(fd, 2 * x, atol=1e-9)

    def test_relative_error_floor(self):
        # Both gradients tiny: the floored denominator keeps the error small.
        assert gradient_relative_error(np.zeros(3), np.full(3, 1e-12)) < 1e-3
        assert gradient_relative_error(np.ones(3), np.ones(3)) == 0.0



def _encode_with(last_weight):
    """The encoder on one row through an identity hidden layer and the
    given embedding weight, under the errstate its callers hold."""
    weights = [Tensor(np.eye(2)), Tensor(np.zeros(2)), Tensor(last_weight), Tensor(np.zeros(2))]
    with np.errstate(over="ignore", invalid="ignore"):
        return _encoder(np.ones((1, 2)), weights, "relu")


def _sets():
    unit = np.array([[1.0, 0.0]])
    return build_contrast_sets([0], unit, [0, 1], np.concatenate([unit, unit]))


def _parameters():
    return init_parameters(ModelArchitecture(2, (2,), 2, 2), 0)


def _nan_update():
    params = _parameters()._working_copy()
    params._overwrite(np.full(params._flat.size, np.nan))


class TestFiniteRule:
    """Every error of tensor._require_finite's sites, and of the norm
    bounds beside it, with its type and message."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(
                lambda: Tensor([1.0, np.inf]),
                NonFiniteError, "tensor constructed with non-finite entries", id="tensor",
            ),
            pytest.param(
                lambda: dense([[1e200]], [[1e200]], [0.0]),
                NonFiniteError, "dense produced non-finite values", id="dense",
            ),
            pytest.param(
                lambda: _encode_with(np.full((2, 2), 1e308)),
                NonFiniteError, "dense produced non-finite values", id="encoder-layer",
            ),
            pytest.param(
                lambda: _encode_with(1e200 * np.eye(2)),
                NonFiniteError, "l2_normalize: norm overflowed", id="encoder-norm",
            ),
            pytest.param(
                lambda: _encode_with(np.zeros((2, 2))),
                DegenerateEmbeddingError, "l2_normalize: row with (near-)zero norm",
                id="encoder-zero-norm",
            ),
            pytest.param(
                lambda: _parameters().replace([np.full((2, 2), np.inf), np.zeros(2)] * 3),
                NonFiniteError, "tensor constructed with non-finite entries", id="replace",
            ),
            pytest.param(
                _nan_update, NonFiniteError, "parameter update has non-finite entries", id="update",
            ),
            pytest.param(
                lambda: class_unlearn_loss(_sets(), 1e-310),
                NonFiniteError, "scaled similarities is not finite", id="similarities",
            ),
            pytest.param(
                lambda: sample_unlearn_loss(_sets(), 1e-300),
                NonFiniteError, "exp of the scaled similarities is not finite",
                id="exp-similarities",
            ),
            pytest.param(
                lambda: cross_entropy_loss([[1.7e308, -1.7e308]], [0]),
                NonFiniteError, "shifted logits is not finite", id="shifted-logits",
            ),
        ],
    )
    def test_each_site_raises_its_own_error(self, call, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnlearnLabError) as exc:
                call()
        assert type(exc.value) is error and exc.value.args == (message,)


def _overflowing_model():
    """The encoder of TestEncoderStack's failing stack (an identity hidden
    layer, embedding weights of 1e200) under a head: any row of ones
    embeds to a finite row whose norm overflows."""
    params = init_parameters(ModelArchitecture(5, (5,), 3, 2), 0)
    layers = (np.eye(5), np.zeros(5), np.full((5, 3), 1e200), np.zeros(3), np.ones((3, 2)), np.zeros(2))
    return params.replace(list(layers))


def _ones_task():
    ones = ul.Dataset(np.ones((6, 5)), [0, 1] * 3, 2)
    return ul.make_task(ones, ones, ul.TaskSpec(kind="sample", sample_indices=(0, 1)))


def _remaining_rows_overflow():
    """A trained model and a sample task whose remaining train rows are
    scaled by 1e200: the epoch-0 evaluation, on the forgotten and test
    rows, stays finite and unmet, and the first step's encoding overflows."""
    train, test = ul.generate_synthetic(2, 2, 50, 50, spread=0.8, seed=1)
    params, _ = ul.train(
        ModelArchitecture(2, (8,), 4, 2), train,
        ul.EngineConfig(seed=1, max_epochs=60, learning_rate=0.1, batch_size=16),
    )
    task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=10, seed=2))
    scale = np.full(len(train), 1e200)
    scale[task.unlearn_train_idx] = 1.0
    huge = ul.Dataset(train.features * scale[:, None], train.labels, 2)
    spec = ul.TaskSpec(kind="sample", sample_indices=tuple(task.unlearn_train_idx), seed=2)
    return params, ul.make_task(huge, test, spec)


def _contrastive_overflow():
    params, task = _remaining_rows_overflow()
    cfg = ul.EngineConfig(seed=0, batch_size=8, max_unlearn_epochs=2, loss=ul.LossConfig())
    return ul.unlearn_contrastive(params, task, cfg)


class TestErrstateRule:
    """The cores set no errstate; every public entry and engine run holds
    one. A finite input that overflows raises the library's error, with no
    numpy warning, and leaves numpy's error state as it found it."""

    @pytest.mark.parametrize(
        "call, error",
        [
            pytest.param(lambda: ul.encode(_overflowing_model(), np.ones((2, 5))),
                         NonFiniteError, id="encode"),
            pytest.param(lambda: ul.head_logits(_overflowing_model(), np.full((2, 3), 1e308)),
                         NonFiniteError, id="head_logits"),
            pytest.param(lambda: ul.accuracy(_overflowing_model(), _ones_task().train),
                         NonFiniteError, id="accuracy"),
            pytest.param(lambda: ul.attack_features(_overflowing_model(), _ones_task().train),
                         NonFiniteError, id="attack_features"),
            pytest.param(lambda: ul.embedding_geometry(_overflowing_model(), _ones_task()),
                         NonFiniteError, id="embedding_geometry"),
            pytest.param(lambda: sample_unlearn_loss(_sets(), 1e-300),
                         NonFiniteError, id="sample_unlearn_loss"),
            pytest.param(lambda: class_unlearn_loss(_sets(), 1e-310),
                         NonFiniteError, id="class_unlearn_loss"),
            pytest.param(
                lambda: ul.train(
                    ModelArchitecture(5, (5,), 3, 2),
                    ul.Dataset(np.full((6, 5), 1e200), [0, 1] * 3, 2),
                    ul.EngineConfig(max_epochs=1),
                ),
                DivergenceError, id="train",
            ),
            pytest.param(
                lambda: ul.unlearn_contrastive(
                    _overflowing_model(), _ones_task(),
                    ul.EngineConfig(batch_size=2, loss=ul.LossConfig()),
                ),
                DivergenceError, id="unlearn_contrastive-evaluation",
            ),
            pytest.param(_contrastive_overflow, (DivergenceError, "epoch 0, batch 0"),
                         id="unlearn_contrastive-step"),
        ],
    )
    def test_overflow_raises_the_library_error_without_a_warning(self, call, error):
        error, where = error if isinstance(error, tuple) else (error, None)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=where) as exc:
                call()
        assert np.geterr() == before
        if error is DivergenceError:
            assert isinstance(exc.value.__cause__, NonFiniteError)
