"""Model construction, forward pass, and the checkpoint container."""

import copy
import pickle
import struct
import warnings

import numpy as np
import pytest

from unlearnlab.errors import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    DegenerateEmbeddingError,
    DimensionError,
    NonFiniteError,
    ValidationError,
)
from composed_ops import l2_normalize, multiply, params_equal, reduce_sum
from unlearnlab.model import (
    ModelArchitecture,
    _encode,
    encode,
    forward,
    head_logits,
    init_parameters,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
)
from unlearnlab.data import Dataset
from unlearnlab.evaluation import accuracy, attack_features
from unlearnlab.tensor import GradTape, Tensor, dense

ARCH = ModelArchitecture(input_dim=5, hidden=(7, 6), embedding_dim=4, num_classes=3)


def constant_params(arch, emb_bias, head_bias=None):
    """All-zero weights so every input maps to normalize(emb_bias)."""
    params = init_parameters(arch, seed=0)
    new = []
    for name, t in zip(params.names(), params.as_list()):
        if name == "emb.b":
            new.append(np.asarray(emb_bias, dtype=np.float64))
        elif name == "head.b" and head_bias is not None:
            new.append(np.asarray(head_bias, dtype=np.float64))
        else:
            new.append(np.zeros(t.shape))
    return params.replace(new)


class TestArchitecture:
    def test_layer_dims_chain(self):
        assert list(ARCH.parameter_shapes.items()) == [
            ("enc0.w", (5, 7)),
            ("enc0.b", (7,)),
            ("enc1.w", (7, 6)),
            ("enc1.b", (6,)),
            ("emb.w", (6, 4)),
            ("emb.b", (4,)),
            ("head.w", (4, 3)),
            ("head.b", (3,)),
        ]

    def test_dict_round_trip(self):
        assert ModelArchitecture.from_dict(ARCH.to_dict()) == ARCH

    def test_rejects_bad_settings(self):
        for hidden in ((), None):
            with pytest.raises(ValidationError, match="hidden layer"):
                ModelArchitecture(input_dim=5, hidden=hidden, embedding_dim=4, num_classes=3)
        with pytest.raises(ValidationError):
            ModelArchitecture(input_dim=5, hidden=(7,), embedding_dim=4, num_classes=1)
        with pytest.raises(ValidationError) as exc:
            ModelArchitecture(
                input_dim=5, hidden=(7,), embedding_dim=4, num_classes=3, activation="gelu"
            )
        assert "gelu" in str(exc.value)

    def test_array_activation_is_named(self):
        # Its membership test raised a bare "truth value is ambiguous".
        with pytest.raises(ValidationError, match="unknown activation"):
            ModelArchitecture(5, (7,), 4, 3, activation=np.array(["relu", "tanh"]))


class TestInit:
    def test_shapes_and_zero_biases(self):
        params = init_parameters(ARCH, seed=3)
        assert params.names() == list(ARCH.parameter_shapes)
        for name, shape in ARCH.parameter_shapes.items():
            assert params.tensors[name].shape == shape
            if name.endswith(".b"):
                assert np.array_equal(params.tensors[name].data, np.zeros(shape))

    @pytest.mark.parametrize("hidden", [(7, 6), (3,), (2, 5, 4)])
    def test_matches_numpy_oracle_as_views_of_flat(self, hidden):
        # The oracle draws each layer's weight matrix in layer order from
        # one generator, the biases are zeros; init fills one buffer.
        arch = ModelArchitecture(input_dim=5, hidden=hidden, embedding_dim=4, num_classes=3)
        params = init_parameters(arch, seed=11)
        rng = np.random.default_rng(11)
        widths = (5, *hidden, 4, 3)
        want = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            s = np.sqrt(6.0 / (fan_in + fan_out))
            want += [rng.uniform(-s, s, size=(fan_in, fan_out)), np.zeros(fan_out)]
        assert not params._flat.flags.writeable
        assert len(params.as_list()) == len(want)
        for got, expected in zip(params.as_list(), want):
            assert got.data.tobytes() == expected.tobytes()
            assert got.data.shape == expected.shape
            assert not got.data.flags.writeable
            assert np.shares_memory(got.data, params._flat)

    def test_deterministic_in_seed(self):
        assert params_equal(init_parameters(ARCH, seed=9), init_parameters(ARCH, seed=9))
        assert not params_equal(init_parameters(ARCH, seed=9), init_parameters(ARCH, seed=10))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            init_parameters(ARCH, seed=-1)

    def test_weights_are_uniform_in_expected_range(self):
        # 100x100 layer gives 1e4 draws, enough to pin the first two
        # moments of U(-s, s) tightly.
        arch = ModelArchitecture(input_dim=100, hidden=(100,), embedding_dim=4, num_classes=3)
        w = init_parameters(arch, seed=0).tensors["enc0.w"].data
        s = np.sqrt(6.0 / (100 + 100))
        assert np.abs(w).max() <= s
        assert np.abs(w).max() > 0.99 * s
        assert abs(w.mean()) < 4 * s / np.sqrt(3 * w.size)
        expected_std = s / np.sqrt(3.0)
        assert abs(w.std() - expected_std) < 0.05 * expected_std

    def test_replace_copies_caller_arrays(self):
        params = init_parameters(ARCH, seed=0)
        values = [np.ones(t.shape) for t in params.as_list()]
        new = params.replace(values)
        for arr, t in zip(values, new.as_list()):
            assert arr.flags.writeable and not np.shares_memory(arr, t.data)
            assert not t.data.flags.writeable

    def test_replace_rejects_wrong_shape(self):
        params = init_parameters(ARCH, seed=0)
        values = [t.data for t in params.as_list()]
        values[0] = np.zeros((2, 2))
        with pytest.raises(DimensionError):
            params.replace(values)

    def test_replace_rejects_wrong_count(self):
        params = init_parameters(ARCH, seed=0)
        values = [t.data for t in params.as_list()]
        for wrong in (values[:-1], values + [np.zeros(3)], []):
            with pytest.raises(DimensionError):
                params.replace(wrong)

    @pytest.mark.parametrize("dtype", [str, bool], ids=["string", "bool"])
    def test_replace_takes_only_real_number_arrays(self, dtype):
        # Strings were a bare TypeError, and bools were taken as 0.0 and 1.0.
        params = init_parameters(ARCH, seed=0)
        values = [np.ones(t.shape, dtype=dtype) for t in params.as_list()]
        with pytest.raises(ValidationError, match="parameter enc0.w must be an array of real"):
            params.replace(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_replace_rejects_non_finite_values(self, bad):
        params = init_parameters(ARCH, seed=0)
        values = [t.data.copy() for t in params.as_list()]
        values[3][1] = bad
        with pytest.raises(NonFiniteError):
            params.replace(values)

    def test_replace_keeps_bits_and_leaves_no_alias(self):
        params = init_parameters(ARCH, seed=0)
        values = [np.array(t.data) for t in params.as_list()]
        values[1][0] = -0.0
        values[2][0, 0] = 5e-324
        new = params.replace(values)
        assert new.names() == params.names()
        for arr, t in zip(values, new.as_list()):
            assert t.shape == arr.shape and t.data.tobytes() == arr.tobytes()
        values[0][0, 0] = 7.0
        assert new.as_list()[0].data[0, 0] != 7.0
        with pytest.raises(ValueError):
            new.as_list()[0].data[0, 0] = 7.0


class TestForwardPass:
    def test_zero_weights_give_constant_embedding(self, rng):
        bias = np.array([3.0, 0.0, 4.0, 0.0])
        params = constant_params(ARCH, emb_bias=bias)
        z = encode(params, rng.standard_normal((6, 5))).data
        assert np.allclose(z, np.tile([0.6, 0.0, 0.8, 0.0], (6, 1)), atol=1e-15)

    def test_zero_embedding_is_rejected(self, rng):
        params = constant_params(ARCH, emb_bias=np.zeros(4))
        with pytest.raises(DegenerateEmbeddingError):
            encode(params, rng.standard_normal((2, 5)))

    def test_array_batch_is_not_on_the_tape(self, rng):
        params = init_parameters(ARCH, seed=1)
        with GradTape() as tape:
            z = encode(params, rng.standard_normal((3, 5)))
        # One entry whose inputs are exactly the encoder's parameters: the
        # batch is not among them, and the backward returns no adjoint for it.
        (entry,) = tape._entries
        encoder = tuple(t.tid for n, t in params.tensors.items() if not n.startswith("head."))
        assert entry[0] == z.tid and entry[1] == encoder
        assert len(entry[2](np.ones(z.shape))) == len(encoder)

    def test_tensor_batch_is_refused(self, rng):
        # The batch is an array of features, never a taped value.
        params = init_parameters(ARCH, seed=1)
        with pytest.raises(ValidationError):
            encode(params, Tensor(rng.standard_normal((3, 5))))

    @pytest.mark.parametrize(
        "batch",
        [[["1"] * 5], np.ones((2, 5), dtype=bool), np.ones((2, 5), dtype=complex), "a"],
        ids=["numeric-strings", "bool", "complex", "string"],
    )
    def test_only_real_number_batches_are_encoded(self, batch):
        # Numeric strings and bools were encoded as numbers, a complex batch
        # lost its imaginary part with a ComplexWarning, and "a" was a bare
        # ValueError.
        params = init_parameters(ARCH, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="batch must be an array of real numbers"):
                encode(params, batch)

    def test_head_takes_only_real_number_embeddings(self):
        params = init_parameters(ARCH, seed=1)
        with pytest.raises(ValidationError, match="must be an array of real numbers"):
            head_logits(params, [["0.1"] * 4])

    def test_non_finite_batch_is_rejected(self):
        params = init_parameters(ARCH, seed=1)
        with pytest.raises(NonFiniteError):
            encode(params, np.full((2, 5), np.inf))

    def test_embeddings_are_unit_norm(self, rng):
        params = init_parameters(ARCH, seed=1)
        z = encode(params, rng.standard_normal((8, 5))).data
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)

    def test_head_bias_decides_prediction(self, rng):
        params = constant_params(ARCH, emb_bias=np.ones(4), head_bias=[0.0, 2.0, 1.0])
        labels = predict_labels(params, rng.standard_normal((5, 5)))
        assert np.array_equal(labels, np.ones(5, dtype=np.int64))

    def test_ties_break_to_lowest_index(self, rng):
        params = constant_params(ARCH, emb_bias=np.ones(4), head_bias=np.zeros(3))
        labels = predict_labels(params, rng.standard_normal((4, 5)))
        assert np.array_equal(labels, np.zeros(4, dtype=np.int64))

    def test_forward_composes_encode_and_head(self, rng):
        params = init_parameters(ARCH, seed=2)
        x = rng.standard_normal((3, 5))
        assert np.array_equal(
            forward(params, x).data, head_logits(params, encode(params, x)).data
        )

    def test_predict_matches_argmax(self, rng):
        params = init_parameters(ARCH, seed=2)
        x = rng.standard_normal((10, 5))
        assert np.array_equal(
            predict_labels(params, x), np.argmax(forward(params, x).data, axis=1)
        )


def composed_encode(params, x):
    """The encoder as the composed oracle: a dense per layer, then l2_normalize."""
    p = params.tensors
    h = x
    for i in range(len(params.arch.hidden)):
        h = dense(h, p[f"enc{i}.w"], p[f"enc{i}.b"], params.arch.activation)
    return l2_normalize(dense(h, p["emb.w"], p["emb.b"]))


def with_first_weights(arch, value):
    """Seeded parameters whose first layer's weights all equal value."""
    params = init_parameters(arch, seed=1)
    values = [t.data for t in params.as_list()]
    values[0] = np.full(values[0].shape, value)
    return params.replace(values)


TANH_ARCH = ModelArchitecture(input_dim=5, hidden=(7, 6), embedding_dim=4, num_classes=3, activation="tanh")

# case: (parameters, the value filling a (2, 5) batch)
ENCODER_FAILURES = {
    "nan-batch": (lambda: init_parameters(ARCH, seed=1), np.nan),
    "relu-pre-activation-to-minus-inf": (lambda: with_first_weights(ARCH, -1e200), 1e200),
    "tanh-overflow": (lambda: with_first_weights(TANH_ARCH, 1e200), 1e200),
    "zero-norm-row": (lambda: constant_params(ARCH, emb_bias=np.zeros(4)), 1.0),
    "norm-overflow": (lambda: constant_params(ARCH, emb_bias=np.full(4, 1e200)), 1.0),
}


class TestEncoderErrors:
    """encode and the engine's _encode fail like the composed encoder:
    same error type and message."""

    @pytest.mark.parametrize("case", sorted(ENCODER_FAILURES))
    def test_same_error_as_composed(self, case):
        make_params, fill = ENCODER_FAILURES[case]
        params, x = make_params(), np.full((2, 5), fill)
        # _encode takes only the finite rows of a checked Dataset.
        paths = [encode, composed_encode] + ([_encode] if np.isfinite(fill) else [])
        errors = []
        with np.errstate(over="ignore", invalid="ignore"):
            for path in paths:
                with pytest.raises((NonFiniteError, DegenerateEmbeddingError)) as exc:
                    path(params, x)
                errors.append((type(exc.value), str(exc.value)))
        assert errors[1:] == errors[:1] * (len(errors) - 1)

    @pytest.mark.parametrize("fill", [1e154, 1e300, -1e300])
    def test_finite_rows_whose_squares_overflow_raise_no_warning(self, fill):
        # Their squared row norms overflow; that once warned before the
        # NonFiniteError, and raised the warning under warnings-as-errors.
        params = init_parameters(ModelArchitecture(4, (6,), 3, 3), seed=0)
        rows = np.full((2, 4), fill)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="norm overflowed"):
                encode(params, rows)
            with pytest.raises(NonFiniteError, match="norm overflowed"):
                accuracy(params, Dataset(rows, [0, 1], 3))

    def test_finite_rows_whose_layer_overflows_raise_no_warning(self):
        # Their first layer's product overflows; that once warned before the
        # NonFiniteError, and raised the warning under warnings-as-errors.
        params = init_parameters(ModelArchitecture(4, (6,), 3, 3), seed=0)
        rows = np.full((1, 4), 1.7e308)
        data = Dataset(rows, [0], 3)
        calls = [
            lambda: encode(params, rows),
            lambda: forward(params, rows),
            lambda: predict_labels(params, rows),
            lambda: accuracy(params, data),
            lambda: attack_features(params, data),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(NonFiniteError, match="dense produced non-finite values"):
                    call()

    def test_encode_copies_a_writable_batch(self, rng):
        params = init_parameters(ARCH, seed=1)
        x = rng.standard_normal((3, 5))
        r = rng.standard_normal((3, 4))

        def gradients(mutate):
            batch = x.copy()
            with GradTape() as tape:
                out = reduce_sum(multiply(encode(params, batch), r))
            if mutate:
                batch[...] = 0.0
            assert batch.flags.writeable
            return [g.data for g in tape.gradient(out, params.as_list()[:-2])]

        for got, want in zip(gradients(True), gradients(False)):
            assert np.array_equal(got, want)


class TestPickle:
    @staticmethod
    def params_with_caches(seed=3):
        params = init_parameters(ARCH, seed=seed)
        params.arch.parameter_shapes, params.arch._parameter_layout, params._flat
        return params

    def test_architecture_round_trip(self):
        arch = self.params_with_caches().arch
        for copied in (pickle.loads(pickle.dumps(arch)), copy.deepcopy(arch)):
            assert copied == arch
            assert copied.parameter_shapes == arch.parameter_shapes

    @pytest.mark.parametrize("how", ["pickle", "deepcopy", "copy"])
    def test_round_trip_gives_bit_exact_read_only_views(self, how):
        params = self.params_with_caches()
        copier = {
            "pickle": lambda p: pickle.loads(pickle.dumps(p)),
            "deepcopy": copy.deepcopy,
            "copy": copy.copy,
        }[how]
        copied = copier(params)
        assert copied.arch == params.arch and copied.names() == params.names()
        assert copied._flat is not params._flat
        for want, got in zip(params.as_list(), copied.as_list()):
            assert got.data.tobytes() == want.data.tobytes()
            assert not got.data.flags.writeable
            assert np.shares_memory(got.data, copied._flat)

    def test_tampered_non_finite_payload_is_rejected(self):
        params = self.params_with_caches()
        blob = pickle.dumps(params)
        value = params.tensors["enc0.w"].data[0, 0].tobytes()
        assert blob.count(value) == 1
        tampered = blob.replace(value, np.float64(np.nan).tobytes())
        with pytest.raises(NonFiniteError):
            pickle.loads(tampered)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_parameters(ARCH, seed=7)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == ARCH
        assert params_equal(loaded, params)

    def test_numpy_integer_sizes_save_as_the_int_built_model(self, tmp_path):
        # The architecture stores numpy sizes as ints; a stored np.int64
        # once made the JSON header unwritable.
        plain = ModelArchitecture(8, (32,), 16, 4)
        arch = ModelArchitecture(np.int64(8), (32,), 16, 4)
        assert arch == plain and type(arch.input_dim) is int
        for name, a in (("np", arch), ("int", plain)):
            save_checkpoint(init_parameters(a, seed=1), tmp_path / f"{name}.ckpt")
        assert (tmp_path / "np.ckpt").read_bytes() == (tmp_path / "int.ckpt").read_bytes()
        loaded = load_checkpoint(tmp_path / "np.ckpt")
        assert loaded.arch == plain
        assert params_equal(loaded, init_parameters(plain, seed=1))

    def test_round_trip_gives_bit_exact_read_only_views(self, tmp_path, rng):
        params = init_parameters(ARCH, seed=7)
        values = [rng.standard_normal(t.shape) * 1e150 for t in params.as_list()]
        values[1][0], values[1][1] = -0.0, 5e-324
        params = params.replace(values)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.names() == params.names()
        for want, got in zip(params.as_list(), loaded.as_list()):
            assert got.shape == want.shape and got.data.dtype == np.float64
            assert got.data.tobytes() == want.data.tobytes()
            assert not got.data.flags.writeable
            with pytest.raises(ValueError):
                got.data[...] = 0.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_parameters(ARCH, seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_parameters(ARCH, seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 999)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_parameters(ARCH, seed=0), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_parameters(ARCH, seed=0), path)
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack("<I", blob[8:12])[0]
        blob[12 + header_len + 10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_every_bit_flip_and_truncation_is_rejected(self, tmp_path, activation):
        # Covers the header as well as the payload: a flip in the
        # "activation" key must not load a tanh model as relu, and a flip
        # in a manifest key must not escape as a bare KeyError.
        arch = ModelArchitecture(
            input_dim=2, hidden=(2,), embedding_dim=2, num_classes=2, activation=activation
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_parameters(arch, seed=0), path)
        blob = path.read_bytes()
        damaged = [blob[:n] for n in range(len(blob))]
        for i in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[i] ^= 1 << bit
                damaged.append(bytes(flipped))
        for data in damaged:
            path.write_bytes(data)
            with pytest.raises((CheckpointFormatError, CheckpointIntegrityError)):
                load_checkpoint(path)

    def test_not_a_checkpoint_at_all(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"ab")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


class TestParameters:
    def test_equals_is_bitwise(self):
        a = init_parameters(ARCH, seed=4)
        values = [t.data.copy() for t in a.as_list()]
        values[2][0, 0] = np.nextafter(values[2][0, 0], np.inf)  # one ulp
        assert not params_equal(a, a.replace(values))

    @pytest.mark.parametrize(
        "how", ["from_flat", "working_copy", "snapshot", "replace", "pickle", "deepcopy"]
    )
    def test_leaf_tuple_holds_the_views_of_its_own_buffer(self, how):
        # The leaf tuple a step hands the tape is cached per instance: it must
        # be the instance's own tensors, read-only views of its own buffer.
        base = init_parameters(ARCH, seed=5)
        params = {
            "from_flat": lambda: base,
            "working_copy": base._working_copy,
            "snapshot": lambda: base._working_copy()._snapshot(),
            "replace": lambda: base.replace([t.data * 2.0 for t in base.as_list()]),
            "pickle": lambda: pickle.loads(pickle.dumps(base)),
            "deepcopy": lambda: copy.deepcopy(base),
        }[how]()
        layout = ARCH._parameter_layout
        assert type(params._leaves) is tuple and len(params._leaves) == len(layout)
        for leaf, (name, start, stop, shape), tensor in zip(
            params._leaves, layout, params.tensors.values()
        ):
            assert leaf is params.tensors[name] is tensor
            assert not leaf.data.flags.writeable
            assert np.shares_memory(leaf.data, params._flat)
            assert leaf.data.tobytes() == params._flat[start:stop].reshape(shape).tobytes()
        if how != "from_flat":
            assert not np.shares_memory(params._flat, base._flat)

    def test_working_copy_leaves_follow_each_overwrite(self):
        params = init_parameters(ARCH, seed=5)._working_copy()
        leaves = params._leaves
        update = params._flat * 3.0
        params._overwrite(update)
        assert params._leaves is leaves
        for leaf, (_, start, stop, shape) in zip(leaves, ARCH._parameter_layout):
            assert np.array_equal(leaf.data, update[start:stop].reshape(shape))

    def test_as_list_is_a_fresh_list_in_layout_order(self):
        params = init_parameters(ARCH, seed=5)
        first, second = params.as_list(), params.as_list()
        assert type(first) is list and first is not second
        assert [t.shape for t in first] == [shape for *_, shape in ARCH._parameter_layout]
        assert all(a is b for a, b in zip(first, params.tensors.values()))
        first.clear()
        assert len(params.as_list()) == len(ARCH._parameter_layout)
