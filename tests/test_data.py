"""Synthetic data, CSV handling, task partitions, and batch plumbing."""

import csv
import hashlib
import io
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composed_ops import datasets_equal
from unlearnlab.data import (
    _BLOCK_VALUES,
    EVAL_CAP,
    Dataset,
    TaskSpec,
    UnlearnTask,
    _load_csv_lines,
    _place_means,
    _remaining_batches,
    batches,
    generate_synthetic,
    load_csv,
    make_task,
    sample_remaining,
    save_csv,
    standardize_pair,
)
from unlearnlab.errors import (
    ConfigurationError,
    DimensionError,
    EmptyUnlearnSetError,
    ParseError,
    ValidationError,
)


# Features that stress the round trip: signed zero, the smallest
# subnormal, the largest finite values and integral floats.
CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1.0, -3.0, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
)

# Edits of one field or one line of a valid file. A field edit's "{}"
# is the field's own text, a line edit's "{}" the whole line; "<drop>"
# drops the line's last field.
FIELD_EDITS = ['"{}"', "1.0", "+1", " 1", "1 ", "1_0", "99999999999999999999",
               "-1", "1e0", "", "nan", "inf", "x", "0x1"]
LINE_EDITS = ["", "   ", "# comment", "{},", "<drop>"]


@st.composite
def mutated_csv(draw):
    width = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    rows = [
        [repr(draw(CSV_FLOATS)) for _ in range(width)] + [str(draw(st.integers(0, 3)))]
        for _ in range(n)
    ]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, width))
    lines = [",".join(r) for r in rows]
    kind = draw(st.sampled_from(["none", "field", "line", "insert"]))
    if kind == "field":
        rows[i][j] = draw(st.sampled_from(FIELD_EDITS)).format(rows[i][j])
        lines[i] = ",".join(rows[i])
    elif kind == "line":
        edit = draw(st.sampled_from(LINE_EDITS))
        lines[i] = ",".join(rows[i][:-1]) if edit == "<drop>" else edit.format(lines[i])
    elif kind == "insert":
        lines.insert(i, draw(st.sampled_from(["", "   ", "# comment"])))
    header = ",".join([f"f{k}" for k in range(width)] + ["label"])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header] + lines) + draw(st.sampled_from(["", newline]))


def _outcome(loader, path):
    try:
        d = loader(path)
    except Exception as exc:  # the comparison is the point: any type, any message
        return type(exc), str(exc)
    return d.features.tobytes(), d.features.shape, d.labels.tobytes(), d.num_classes


class TestGeneration:
    def test_deterministic_in_seed(self):
        a_tr, a_ts = generate_synthetic(3, 4, 20, 10, seed=5)
        b_tr, b_ts = generate_synthetic(3, 4, 20, 10, seed=5)
        assert datasets_equal(a_tr, b_tr) and datasets_equal(a_ts, b_ts)
        c_tr, _ = generate_synthetic(3, 4, 20, 10, seed=6)
        assert not datasets_equal(a_tr, c_tr)

    def test_counts_and_labels(self):
        train, test = generate_synthetic(4, 8, 50, 10, seed=0)
        assert train.features.shape == (200, 8) and test.features.shape == (40, 8)
        assert train.num_classes == test.num_classes == 4
        for k in range(4):
            assert (train.labels == k).sum() == 50
            assert (test.labels == k).sum() == 10

    @pytest.mark.parametrize(
        "sizes",
        [{"dim": 2**62}, {"dim": 2**31}, {"per_class_train": 2**59}, {"dim": np.int64(2**31)}],
        ids=["dim-2**62", "dim-2**31", "per-class-train-2**59", "numpy-dim-2**31"],
    )
    def test_an_array_past_the_byte_range_is_refused_before_any_draw(self, sizes):
        # Each needs a float64 array of more than np.intp's maximum bytes
        # (numpy's own refusal is a bare ValueError): the dim x dim draw of
        # the means, or a split's num_classes x per_class x dim features.
        args = {"num_classes": 4, "dim": 8, "per_class_train": 10, "per_class_test": 10, **sizes}
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"invalid generator settings: .* too big"):
                generate_synthetic(**args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("num_classes,dim", [(4, 8), (6, 2)])
    def test_placed_means_respect_min_distance(self, num_classes, dim, rng):
        # Covers both placements: orthogonal columns when the classes fit
        # into the ambient dimension, rejection sampling when they do not.
        means = _place_means(num_classes, dim, min_distance=4.0, rng=rng)
        for i in range(num_classes):
            for j in range(i + 1, num_classes):
                assert np.linalg.norm(means[i] - means[j]) >= 4.0

    @pytest.mark.parametrize("spread", [0.5, 1.0])
    def test_empirical_class_separation(self, spread):
        train, _ = generate_synthetic(4, 8, 500, 1, spread=spread, seed=1)
        centers = np.stack(
            [train.features[train.labels == k].mean(axis=0) for k in range(4)]
        )
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(centers[i] - centers[j]) >= 4.0 * spread

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_spread_is_linearly_learnable(self, seed):
        # Least-squares one-hot regression is an independent yardstick:
        # the clusters must be separable enough for even a linear model
        # to clear 95% test accuracy at spread 1.
        train, test = generate_synthetic(4, 8, 500, 100, spread=1.0, seed=seed)
        x = np.hstack([train.features, np.ones((len(train), 1))])
        onehot = np.eye(4)[train.labels]
        w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
        x_ts = np.hstack([test.features, np.ones((len(test), 1))])
        acc = np.mean(np.argmax(x_ts @ w, axis=1) == test.labels)
        assert acc >= 0.95

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            generate_synthetic(3, 4, 10, 10, seed=-1)

    def test_rejects_bad_settings(self):
        with pytest.raises(ValidationError):
            generate_synthetic(1, 4, 10, 10)
        with pytest.raises(ValidationError):
            generate_synthetic(3, 4, 10, 10, spread=0.0)
        with pytest.raises(ValidationError):
            generate_synthetic(3, 4, 0, 10)

    @pytest.mark.parametrize("field", ["dim", "per_class_train", "per_class_test"])
    def test_count_past_int64_rejected(self, field):
        # Each was a bare ValueError from numpy's allocation.
        settings = dict(num_classes=3, dim=2, per_class_train=4, per_class_test=2, seed=0)
        with pytest.raises(ValidationError, match=f"{field} must be an integer in "):
            generate_synthetic(**{**settings, field: 2**63})

    @pytest.mark.parametrize("spread", [float("nan"), float("inf"), 1e308])
    def test_spread_without_a_finite_distance_rejected(self, spread):
        # Rejected before any draw. With more classes than dimensions the
        # placement's rejection loop never accepted a candidate at these
        # spreads; test_cli runs that case in a child process with a timeout.
        with pytest.raises(ValidationError, match="spread must be positive"):
            generate_synthetic(3, 4, 10, 10, spread=spread)

    def test_overflowing_placement_radius_rejected(self, python_in_child):
        # 4 * spread is finite, but with 100 classes in 2 dimensions the
        # placement's starting radius, 4 * spread * 10, is not. The loop
        # once drew inf - inf differences forever, so the call runs in a
        # child process with a time limit.
        out = python_in_child(
            "-c",
            "from unlearnlab.data import generate_synthetic\n"
            "from unlearnlab.errors import ValidationError\n"
            "try:\n"
            "    generate_synthetic(100, 2, 5, 5, spread=1e307)\n"
            "except ValidationError as exc:\n"
            "    print(exc)\n",
        )
        assert out.returncode == 0, out.stderr
        assert "spread too large to place the class means" in out.stdout

    @pytest.mark.parametrize("spread", [1e150, 1e160, 1e200, 4e306])
    def test_huge_spread_places_the_means_without_a_warning(self, spread):
        # With more classes than dimensions, the distance between two
        # candidates past about 1e154 overflowed in np.linalg.norm with a
        # RuntimeWarning; at 4e306 the candidates themselves overflowed.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if spread > 1e300:
                with pytest.raises(ValidationError, match="spread too large"):
                    generate_synthetic(100, 2, 5, 5, spread=spread)
            else:
                train, test = generate_synthetic(100, 2, 5, 5, spread=spread)
                assert np.isfinite(train.features).all() and np.isfinite(test.features).all()

    @pytest.mark.parametrize("spread", [1e150, 1e155, 1e160, 1e200])
    def test_huge_spread_keeps_the_means_apart(self, spread):
        # Past about 1.3e154 the square of a distance overflows, so
        # np.linalg.norm reads inf; such a distance was taken as far enough,
        # and at 1e155 and beyond 16 pairs ended up 0.48 x min_distance apart.
        min_distance = 4.0 * spread
        means = _place_means(100, 2, min_distance, np.random.default_rng(0))
        for i in range(100):
            for j in range(i + 1, 100):
                assert math.hypot(*(means[i] - means[j])) >= min_distance

    def test_spread_without_overflowing_distances_draws_the_same_data(self):
        # At 1e150 no distance overflows, so the data are those the
        # placement drew before overflowing distances were recomputed.
        train, test = generate_synthetic(100, 2, 5, 5, spread=1e150)
        digest = hashlib.sha256(train.features.tobytes() + test.features.tobytes())
        assert digest.hexdigest()[:16] == "5967f5177b71c98c"


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        train, _ = generate_synthetic(3, 5, 20, 5, seed=2)
        path = tmp_path / "train.csv"
        save_csv(train, path)
        assert path.read_text().splitlines()[0] == "f0,f1,f2,f3,f4,label"
        loaded = load_csv(path)
        assert datasets_equal(loaded, train)

    def test_bad_float_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\nx,2.0,1\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert "line 3" in str(exc.value)

    def test_bad_label_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,2.0,-1\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert "line 3" in str(exc.value)

    def test_field_past_csv_limit_reports_line_number(self, tmp_path):
        # np.loadtxt reads a number with 200,000 leading zeros; the csv
        # module refuses the field. The float label on line 3 sends the
        # body to the line parser, which must name the line, not crash.
        path = tmp_path / "long.csv"
        path.write_text("f0,f1,label\n" + "0" * 200_000 + "1.5,2.0,0\n1.0,2.0,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)
        path.write_text("f0," + "f" * 200_000 + ",label\n1.0,2.0,0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, line",
        [(b"f0,f\xff1,label\n1.0,2.0,0\n", 1), (b"f0,f1,label\n1.0,2.0,0\n1.5,2.5,\xff1\n", 3)],
        ids=["header", "body"],
    )
    def test_byte_not_utf8_reports_line_number(self, tmp_path, text, line):
        # Both bytes sit in the first chunk the file decodes, so both fail
        # while line 1 is read; the error must name the byte's own line.
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        with pytest.raises(ParseError, match=f"line {line}: 'utf-8' codec can't decode byte 0xff"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,0\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert "line 2" in str(exc.value)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1.0,2.0,0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_label_past_int64_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,2.0,99999999999999999999\n")
        with pytest.raises(ParseError, match="line 3: label 99999999999999999999"):
            load_csv(path)

    def test_largest_int64_label_is_read(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(f"f0,label\n1.0,0\n2.0,{2**63 - 1}\n")
        assert load_csv(path).labels.tolist() == [0, 2**63 - 1]

    def test_float_label_rejected(self, tmp_path):
        # numpy 1.23-1.26 read "1.0" into an integer column, warning only.
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,2.0,1.0\n")
        with pytest.raises(ParseError, match="line 3: invalid literal for int"):
            load_csv(path)

    def test_comment_line_rejected(self, tmp_path):
        # np.loadtxt would skip it by default; the format has no comments.
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n# note\n")
        with pytest.raises(ParseError, match="line 3: expected 3 fields, got 1"):
            load_csv(path)

    def test_one_row_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("f0,label\n-0.0,3\n")
        got = load_csv(path)
        assert got.features.shape == (1, 1) and got.labels.tolist() == [3]
        assert np.signbit(got.features[0, 0]) and got.num_classes == 4

    def test_blank_lines_skipped_and_line_endings_mixed(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_bytes(b"f0,label\r\n\r\n1.5,0\n\n2.5,1\r3.5,0")
        got = load_csv(path)
        assert got.features[:, 0].tolist() == [1.5, 2.5, 3.5]
        assert got.labels.tolist() == [0, 1, 0]

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        width, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        row = st.lists(CSV_FLOATS, min_size=width, max_size=width)
        features = data.draw(st.lists(row, min_size=n, max_size=n))
        # load_csv counts max label + 1 classes, and a Dataset needs two.
        labels = data.draw(
            st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(lambda ls: max(ls) >= 1)
        )
        dataset = Dataset(np.array(features), np.array(labels), max(labels) + 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            save_csv(dataset, path)
            loaded = load_csv(path)
        assert loaded.features.tobytes() == dataset.features.tobytes()
        assert loaded.labels.tobytes() == dataset.labels.tobytes()
        assert loaded.num_classes == dataset.num_classes

    @settings(max_examples=300, deadline=None, database=None)
    @given(mutated_csv())
    def test_matches_line_parser(self, text):
        # The line parser is the oracle: the fast path must give the same
        # Dataset, or the same error type and message, on every file.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_bytes(text.encode())
            assert _outcome(load_csv, path) == _outcome(_load_csv_lines, path)

    def test_save_matches_csv_writer(self, tmp_path):
        train, _ = generate_synthetic(3, 2, 4, 1, seed=3)
        path = tmp_path / "d.csv"
        save_csv(train, path)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["f0", "f1", "label"])
        for row, label in zip(train.features, train.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
        assert path.read_bytes() == want.getvalue().encode()


class TestStandardizer:
    def test_zero_mean_unit_std(self, rng):
        x = rng.standard_normal((200, 3)) * [2.0, 5.0, 0.1] + [1.0, -4.0, 0.0]
        ds = Dataset(x, np.zeros(200, dtype=int), 2)
        out, _ = standardize_pair(ds, ds)
        assert np.allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.features.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_is_centred_not_scaled(self):
        x = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        ds = Dataset(x, np.zeros(10, dtype=int), 2)
        out, shifted = standardize_pair(ds, Dataset(x + 1.0, np.zeros(10, dtype=int), 2))
        assert np.allclose(out.features[:, 0], 0.0)
        assert np.allclose(shifted.features[:, 0], 1.0)

    def test_pair_uses_train_statistics(self, rng):
        train, test = generate_synthetic(3, 4, 100, 30, seed=3)
        s_train, s_test = standardize_pair(train, test)
        assert np.allclose(s_train.features.mean(axis=0), 0.0, atol=1e-12)
        mean, std = train.features.mean(axis=0), train.features.std(axis=0)
        assert np.array_equal(s_test.features, (test.features - mean) / std)
        assert np.array_equal(s_train.labels, train.labels)

    @pytest.mark.parametrize(
        "train, test, column",
        [
            # The std overflows: the column was scaled to zeros.
            ([[1.7e308, 1.0], [-1.7e308, 2.0]], [[0.0, 1.0]], 0),
            # The mean overflows: finite features were "features must be finite".
            ([[1.0, 1.7e308], [2.0, 1.7e308]], [[0.0, 1.0]], 1),
            # The statistics are finite, but a test value overflows once centred.
            ([[1.0, -8e307], [2.0, -8e307]], [[0.0, 1e308]], 1),
        ],
        ids=["std", "mean", "test-value"],
    )
    def test_overflowing_column_is_named_without_a_warning(self, train, test, column):
        pair = Dataset(np.array(train), [0, 1], 2), Dataset(np.array(test), [0], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"cannot standardize column {column}:"):
                standardize_pair(*pair)


class TestSplitsFit:
    # A test split of another width was standardized by broadcasting, and
    # make_task compared the splits with a check of its own.
    TRAIN = Dataset(np.arange(12.0).reshape(3, 4), [0, 1, 2], 3)

    @pytest.mark.parametrize(
        "test, message",
        [
            (Dataset(np.zeros((2, 1)), [0, 1], 3), "batch width 1 does not match train width 4"),
            (
                Dataset(np.zeros((2, 4)), [0, 1], 2),
                "class count 2 does not match train class count 3",
            ),
            (
                Dataset(np.zeros((2, 1)), [0, 1], 2),
                "batch width 1 does not match train width 4; "
                "class count 2 does not match train class count 3",
            ),
        ],
        ids=["width", "class-count", "both"],
    )
    @pytest.mark.parametrize(
        "entry",
        [standardize_pair, lambda train, test: make_task(train, test, TaskSpec("class", 0))],
        ids=["standardize_pair", "make_task"],
    )
    def test_test_split_must_fit_the_train_split(self, entry, test, message):
        with pytest.raises(DimensionError) as info:
            entry(self.TRAIN, test)
        assert str(info.value) == "test split does not fit the train split: " + message


class TestDataset:
    def test_validation(self, rng):
        with pytest.raises(ValidationError):
            Dataset(rng.standard_normal(5), np.zeros(5, dtype=int), 2)
        with pytest.raises(ValidationError):
            Dataset(rng.standard_normal((5, 2)), np.array([0, 1, 2, 0, 1]), 2)
        bad = rng.standard_normal((3, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValidationError):
            Dataset(bad, np.zeros(3, dtype=int), 2)

    @pytest.mark.parametrize(
        "labels, num_classes, match",
        [
            ([0.5, 1.7, 1.0], 2, "labels must be integers"),
            ([0.0, float("nan"), 1.0], 2, "labels must be integers"),
            ([0.0, float("inf"), 1.0], 2, "labels must be integers"),
            ([0, 1, 1], 2.7, "num_classes must be an integer"),
        ],
    )
    def test_non_integral_labels_and_class_count_rejected(self, labels, num_classes, match):
        # Checked before the int64 cast, which truncated them (and warned
        # on NaN) without a word.
        with pytest.raises(ValidationError, match=match):
            Dataset(np.zeros((3, 2)), labels, num_classes)

    @pytest.mark.parametrize("label", [1e30, -1e30])
    def test_whole_float_label_past_int64_rejected_before_the_cast(self, label):
        # The int64 cast of such a label warns; the range check comes first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"labels must lie in \[0, 2\)"):
                Dataset(np.zeros((2, 2)), [0.0, label], 2)

    @pytest.mark.parametrize(
        "features, labels, name",
        [
            (np.zeros((2, 2)), np.array(["a", "b"]), "labels"),
            (np.zeros((2, 2)), None, "labels"),
            (np.zeros((2, 2)), [2**70, 0], "labels"),
            (np.zeros((2, 2)), ["1", "0"], "labels"),
            (np.zeros((2, 2)), [True, False], "labels"),
            ([[1.0, 2.0], [1.0]], [0, 1], "features"),
            (np.array([[1 + 1j, 0.0], [0.0, 0.0]]), [0, 1], "features"),
        ],
        ids=["str-labels", "none-labels", "object-labels", "numeric-str-labels",
             "bool-labels", "ragged-features", "complex-features"],
    )
    def test_only_real_number_arrays_accepted(self, features, labels, name):
        # Each was a bare numpy error, a ComplexWarning (the imaginary part
        # dropped outside a warnings filter) or, for "1" and True, accepted.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"{name} must be an array of real numbers"):
                Dataset(features, labels, 2)

    def test_integral_float_labels_accepted(self):
        ds = Dataset(np.zeros((3, 2)), [0.0, 1.0, 1.0], np.int64(2))
        assert ds.labels.dtype == np.int64 and np.array_equal(ds.labels, [0, 1, 1])

    @pytest.mark.parametrize(
        "indices, match",
        [
            ([1.9], "subset indices must be integers"),
            ([True, False], "subset indices must be integers"),
            (["a"], "subset indices must be integers"),
            ([-1], r"subset indices must lie in \[0, 6\)"),
            ([10**6], r"subset indices must lie in \[0, 6\)"),
        ],
        ids=["fraction", "bool", "string", "negative", "past-the-end"],
    )
    def test_subset_takes_only_row_indices(self, indices, match):
        # 1.9 gave row 1, -1 the last row and the bools rows 1 and 0; "a"
        # and 10**6 were a bare ValueError and IndexError.
        ds = Dataset(np.zeros((6, 2)), [0, 1, 0, 1, 1, 0], 2)
        with pytest.raises(ValidationError, match=match):
            ds.subset(indices)

    @pytest.mark.parametrize("class_id", ["a", 9, 1.0, -1, True])
    def test_class_indices_takes_a_class(self, class_id):
        # "a" and 9 gave no rows, and 1.0 and True the rows of class 1.
        ds = Dataset(np.zeros((6, 2)), [0, 1, 0, 1, 1, 0], 2)
        with pytest.raises(ValidationError, match=r"class_id must be an integer in \[0, 1\]"):
            ds.class_indices(class_id)

    def test_subset_and_class_indices(self, rng):
        ds = Dataset(rng.standard_normal((6, 2)), np.array([0, 1, 0, 1, 1, 0]), 2)
        assert np.array_equal(ds.class_indices(1), [1, 3, 4])
        sub = ds.subset(np.array([1, 3]))
        assert np.array_equal(sub.features, ds.features[[1, 3]])
        assert np.array_equal(sub.labels, [1, 1])


class TestClassTask:
    def test_partition_and_views(self):
        train, test = generate_synthetic(4, 4, 30, 10, seed=4)
        task = make_task(train, test, TaskSpec(kind="class", class_id=2))
        assert task.kind == "class" and task.class_id == 2
        merged = np.sort(np.concatenate([task.unlearn_train_idx, task.remain_train_idx]))
        assert np.array_equal(merged, np.arange(len(train)))
        assert np.all(task.unlearn_train.labels == 2)
        assert np.all(task.remain_train.labels != 2)
        assert np.all(task.unlearn_test.labels == 2)
        # Termination for class tasks evaluates the unlearning-class test view.
        assert datasets_equal(task.eval_unlearn, task.unlearn_test)

    def test_class_without_test_rows_is_rejected(self, rng):
        train = Dataset(rng.standard_normal((9, 2)), np.array([0, 1, 2] * 3), 3)
        test = Dataset(rng.standard_normal((4, 2)), np.array([0, 1, 0, 1]), 3)
        with pytest.raises(EmptyUnlearnSetError):
            make_task(train, test, TaskSpec(kind="class", class_id=2))

    def test_unknown_class_rejected(self):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        with pytest.raises(ValidationError):
            make_task(train, test, TaskSpec(kind="class", class_id=7))

    def test_constructor_derives_the_class_rows(self):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        rows = train.class_indices(1)
        for given in (None, rows, rows[::-1]):
            task = UnlearnTask(train, test, "class", given, class_id=1)
            assert np.array_equal(task.unlearn_train_idx, rows)

    def test_rows_other_than_the_class_rows_rejected(self):
        # They were taken: [0, 1] with class_id=2 forgot two rows of class 0
        # and retrained on every row of class 2.
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        rows = train.class_indices(1)
        for bad in (rows[:-1], np.append(rows, train.class_indices(2)[0]), train.class_indices(0)):
            with pytest.raises(ValidationError, match="unlearning indices must be the rows of class 1"):
                UnlearnTask(train, test, "class", bad, class_id=1)

    def test_class_without_rows_is_refused_at_construction(self, rng):
        # A class with no test rows was taken, and unlearning then failed on
        # an empty termination view.
        train = Dataset(rng.standard_normal((9, 2)), np.array([0, 1, 2] * 3), 3)
        test = Dataset(rng.standard_normal((4, 2)), np.array([0, 1, 0, 1]), 3)
        with pytest.raises(EmptyUnlearnSetError, match="class 2 has no test samples"):
            UnlearnTask(train, test, "class", train.class_indices(2), class_id=2)
        with pytest.raises(EmptyUnlearnSetError, match="class 2 has no training samples"):
            UnlearnTask(test, train, "class", class_id=2)


class TestSampleTask:
    def test_seeded_selection_is_deterministic(self):
        train, test = generate_synthetic(3, 4, 50, 20, seed=0)
        spec = TaskSpec(kind="sample", sample_count=25, seed=11)
        a = make_task(train, test, spec)
        b = make_task(train, test, spec)
        assert np.array_equal(a.unlearn_train_idx, b.unlearn_train_idx)
        c = make_task(train, test, TaskSpec(kind="sample", sample_count=25, seed=12))
        assert not np.array_equal(a.unlearn_train_idx, c.unlearn_train_idx)

    def test_partition_and_eval_views(self):
        train, test = generate_synthetic(3, 4, 50, 20, seed=0)
        task = make_task(train, test, TaskSpec(kind="sample", sample_count=25, seed=1))
        merged = np.sort(np.concatenate([task.unlearn_train_idx, task.remain_train_idx]))
        assert np.array_equal(merged, np.arange(len(train)))
        assert len(task.eval_unlearn) == 25  # below the cap: all of them
        assert len(task.eval_test) == min(len(test), EVAL_CAP)
        assert set(task.eval_unlearn_idx) <= set(task.unlearn_train_idx)

    def test_eval_cap_is_applied(self):
        train, test = generate_synthetic(2, 2, 300, 300, seed=0)
        task = make_task(train, test, TaskSpec(kind="sample", sample_count=550, seed=0))
        assert len(task.eval_unlearn) == EVAL_CAP
        assert len(task.eval_test) == EVAL_CAP

    def test_explicit_indices(self):
        train, test = generate_synthetic(3, 4, 20, 10, seed=0)
        task = make_task(
            train, test, TaskSpec(kind="sample", sample_indices=(5, 1, 9))
        )
        assert np.array_equal(task.unlearn_train_idx, [1, 5, 9])

    def test_duplicate_indices_rejected(self):
        train, test = generate_synthetic(3, 4, 20, 10, seed=0)
        with pytest.raises(ValidationError):
            make_task(train, test, TaskSpec(kind="sample", sample_indices=(1, 1, 2)))

    def test_out_of_range_indices_rejected(self):
        train, test = generate_synthetic(3, 4, 20, 10, seed=0)
        with pytest.raises(ValidationError):
            make_task(train, test, TaskSpec(kind="sample", sample_indices=(0, 60)))

    def test_count_larger_than_train_rejected(self):
        train, test = generate_synthetic(3, 4, 20, 10, seed=0)
        with pytest.raises(ValidationError):
            make_task(train, test, TaskSpec(kind="sample", sample_count=61))

    def test_empty_selection_rejected(self):
        train, test = generate_synthetic(3, 4, 20, 10, seed=0)
        with pytest.raises(EmptyUnlearnSetError):
            make_task(train, test, TaskSpec(kind="sample", sample_count=0))

    @pytest.mark.parametrize(
        "spec",
        [
            *[TaskSpec(kind="class", class_id=c, seed=c) for c in range(4)],
            TaskSpec(kind="sample", sample_count=25, seed=1),
            TaskSpec(kind="sample", sample_count=650, seed=2),
            TaskSpec(kind="sample", sample_indices=(700, 5, 1, 9), seed=3),
            TaskSpec(kind="sample", sample_indices=np.array(3)),
        ],
        ids=["class0", "class1", "class2", "class3", "count-25", "count-650", "explicit", "rank-0"],
    )
    def test_make_task_is_the_constructor(self, spec):
        # make_task only draws a count's rows; the constructor, given the
        # same rows and the spec's other fields, makes the same task,
        # evaluation subsets included (650 rows and 600 test rows are both
        # past EVAL_CAP).
        train, test = generate_synthetic(4, 3, 200, 150, seed=1)
        task = make_task(train, test, spec)
        rows = task.unlearn_train_idx if spec.sample_count else spec.sample_indices
        built = UnlearnTask(train, test, spec.kind, rows, spec.class_id, spec.seed)
        assert (built.kind, built.class_id) == (task.kind, task.class_id)
        for name in ("unlearn_train_idx", "remain_train_idx", "eval_unlearn_idx", "eval_test_idx"):
            want, got = getattr(task, name), getattr(built, name)
            assert got is want is None or got.tobytes() == want.tobytes()
        if spec.kind == "sample":
            assert len(task.eval_unlearn_idx) == min(len(task.unlearn_train_idx), EVAL_CAP)
            assert len(task.eval_test_idx) == min(len(test), EVAL_CAP)

    def test_sample_task_has_no_test_partition(self):
        train, test = generate_synthetic(3, 4, 20, 10, seed=0)
        task = make_task(train, test, TaskSpec(kind="sample", sample_count=5))
        with pytest.raises(ValidationError):
            task.unlearn_test


class TestTaskValidation:
    def test_non_partition_rejected(self):
        # Duplicate or out-of-range unlearning rows cannot form a partition
        # with their complement, so the constructor refuses them.
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        for bad in ([0, 1, 1], [0, len(train)], [-1, 2]):
            with pytest.raises(ValidationError):
                UnlearnTask(train, test, "sample", np.array(bad))

    def test_remaining_rows_are_the_sorted_complement(self):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        task = UnlearnTask(train, test, "sample", [7, 0, 3])
        assert task.unlearn_train_idx.tolist() == [0, 3, 7]
        assert task.remain_train_idx.tolist() == [i for i in range(len(train)) if i not in (0, 3, 7)]
        assert datasets_equal(task.remain_train, train.subset(task.remain_train_idx))

    def test_empty_unlearning_set_rejected(self):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        with pytest.raises(EmptyUnlearnSetError):
            UnlearnTask(train, test, "sample", [])
        with pytest.raises(EmptyUnlearnSetError):
            make_task(train, test, TaskSpec(kind="sample", sample_indices=()))

    def test_class_task_test_views_follow_class_id(self):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        task = UnlearnTask(train, test, "class", train.class_indices(1), class_id=1)
        assert datasets_equal(task.unlearn_test, test.subset(test.class_indices(1)))
        assert datasets_equal(task.remain_test, test.subset(np.flatnonzero(test.labels != 1)))

    @pytest.mark.parametrize("big", [2**63, 10**20, -(2**63) - 1])
    def test_index_past_int64_rejected(self, big):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        with pytest.raises(ValidationError):
            UnlearnTask(train, test, "sample", [0, big])
        with pytest.raises(ValidationError):
            make_task(train, test, TaskSpec(kind="sample", sample_indices=(0, big)))

    def test_non_integral_indices_rejected(self):
        # A non-integral index is an error, never truncated to a row (1.7 to 1).
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        for unlearn in ([1.7, 2.2], [1, np.nan]):
            with pytest.raises(ValidationError, match="integers"):
                UnlearnTask(train, test, "sample", unlearn)
        with pytest.raises(ValidationError, match="integers"):
            make_task(train, test, TaskSpec(kind="sample", sample_indices=(1.9, 3.5)))

    @pytest.mark.parametrize("bad", ["a", None])
    def test_non_numeric_explicit_indices_rejected(self, bad):
        # Checked before the sort, which raised a bare TypeError on them.
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        with pytest.raises(ValidationError, match="unlearning indices must be integers"):
            make_task(train, test, TaskSpec(kind="sample", sample_indices=(bad, 1)))

    def test_negative_task_seed_rejected(self):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        for spec in (
            TaskSpec(kind="sample", sample_count=3, seed=-3),
            TaskSpec(kind="class", class_id=0, seed=-1),
        ):
            with pytest.raises(ValidationError, match="seed"):
                make_task(train, test, spec)

    @pytest.mark.parametrize(
        "build, match",
        [
            # Each was taken: the class task forgot all of class 1, the
            # sample task forgot rows 0 and 1, and the sample task stored None.
            (
                lambda tr, te: make_task(
                    tr, te, TaskSpec(kind="class", class_id=1, sample_indices=(0, 1), sample_count=5)
                ),
                "sample_count is for a sample task without sample_indices",
            ),
            (
                lambda tr, te: make_task(tr, te, TaskSpec(kind="class", class_id=1, sample_count=5)),
                "sample_count is for a sample task without sample_indices",
            ),
            (
                lambda tr, te: make_task(tr, te, TaskSpec(kind="class", class_id=1, sample_indices=(0, 1))),
                "unlearning indices must be the rows of class 1",
            ),
            (
                lambda tr, te: make_task(tr, te, TaskSpec(kind="sample", sample_count=3, sample_indices=(0, 1))),
                "sample_count is for a sample task without sample_indices",
            ),
            (
                lambda tr, te: make_task(tr, te, TaskSpec(kind="sample", sample_count=3, class_id="a")),
                "a sample task takes no class_id, got 'a'",
            ),
            (
                lambda tr, te: UnlearnTask(tr, te, "sample", [0, 1], class_id=7),
                "a sample task takes no class_id, got 7",
            ),
        ],
        ids=["class-indices-count", "class-count", "class-indices", "sample-count-indices",
             "spec-sample-class-id", "sample-class-id"],
    )
    def test_a_field_of_the_other_kind_is_refused(self, build, match):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                build(train, test)

    def test_array_kind_is_named(self):
        # Its comparison with "class" raised a bare "truth value is ambiguous".
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        with pytest.raises(ValidationError, match="unknown task kind"):
            make_task(train, test, TaskSpec(kind=np.array(["class", "sample"])))

    def test_rank_0_explicit_index_is_one_row(self):
        # np.sort of it was a bare AxisError; UnlearnTask took it already.
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        task = make_task(train, test, TaskSpec(kind="sample", sample_indices=np.array(3)))
        assert task.unlearn_train_idx.tolist() == [3]

    @pytest.mark.parametrize("class_id", ["a", 3, -1, 1.0, True])
    def test_class_id_follows_the_integer_rule(self, class_id):
        # The constructor once took any class_id: a task for class "a"
        # held every test row in remain_test and none in unlearn_test.
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        with pytest.raises(ValidationError, match=r"class_id must be an integer in \[0, 2\]"):
            UnlearnTask(train, test, "class", [0, 1], class_id=class_id)

    @pytest.mark.parametrize(
        "width, classes, message",
        [(3, 3, "batch width 3 does not match train width 4"),
         (4, 4, "class count 4 does not match train class count 3")],
        ids=["narrower", "more-classes"],
    )
    def test_test_split_must_fit_the_train_split(self, width, classes, message):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        other = Dataset(test.features[:, :width], test.labels, classes)
        with pytest.raises(DimensionError, match=message):
            UnlearnTask(train, other, "sample", [0])

    def test_incomplete_request_rejected(self):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        with pytest.raises(ValidationError):
            UnlearnTask(train, test, "class", [0])  # no class_id
        with pytest.raises(ValidationError):
            UnlearnTask(train, test, "subset", [0])


class TestBatches:
    def test_epoch_covers_every_row_once(self):
        train, _ = generate_synthetic(3, 4, 11, 5, seed=0)
        got = batches(train, batch_size=8, seed=[0, 1, 0])
        sizes = [len(b.labels) for b in got]
        assert sizes == [8, 8, 8, 8, 1]
        union = np.sort(np.concatenate([b.indices for b in got]))
        assert np.array_equal(union, np.arange(len(train)))

    def test_deterministic_in_seed(self):
        train, _ = generate_synthetic(3, 4, 10, 5, seed=0)
        a = batches(train, 8, seed=[3, 1, 7])
        b = batches(train, 8, seed=[3, 1, 7])
        assert all(np.array_equal(x.indices, y.indices) for x, y in zip(a, b))
        c = batches(train, 8, seed=[3, 1, 8])
        assert not all(np.array_equal(x.indices, y.indices) for x, y in zip(a, c))

    def test_batch_rows_match_view(self):
        train, _ = generate_synthetic(3, 4, 10, 5, seed=0)
        b = batches(train, 8, seed=0)[0]
        assert np.array_equal(b.features, train.features[b.indices])
        assert np.array_equal(b.labels, train.labels[b.indices])

    def test_batch_size_validated(self):
        train, _ = generate_synthetic(3, 4, 10, 5, seed=0)
        with pytest.raises(ValidationError):
            batches(train, 0, seed=0)

    def test_rank_0_array_seed_is_named(self):
        # It was iterated as a sequence of seeds: a bare TypeError.
        train, _ = generate_synthetic(3, 4, 10, 5, seed=0)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            batches(train, 4, seed=np.array(0))


class TestSampleRemaining:
    def test_fresh_draws_without_replacement(self):
        train, test = generate_synthetic(3, 4, 30, 10, seed=0)
        task = make_task(train, test, TaskSpec(kind="sample", sample_count=10, seed=0))
        rng = np.random.default_rng(0)
        a = sample_remaining(task, 16, rng)
        b = sample_remaining(task, 16, rng)
        assert np.unique(a.indices).size == 16
        assert not np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("batch_size", [2.5, -1, 0, True, "4"])
    def test_batch_size_follows_the_count_rule(self, batch_size):
        # 2.5 was a bare TypeError, -1 a bare ValueError and 0 an empty batch.
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        task = make_task(train, test, TaskSpec(kind="sample", sample_count=5, seed=0))
        with pytest.raises(ValidationError, match="batch_size must be an integer >= 1"):
            sample_remaining(task, batch_size, np.random.default_rng(0))

    def test_numpy_batch_size_draws_as_an_int(self):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        task = make_task(train, test, TaskSpec(kind="sample", sample_count=5, seed=0))
        a = sample_remaining(task, np.int64(8), np.random.default_rng(0))
        b = sample_remaining(task, 8, np.random.default_rng(0))
        assert np.array_equal(a.indices, b.indices)

    def test_batch_larger_than_remaining_rejected(self):
        train, test = generate_synthetic(3, 4, 10, 5, seed=0)
        task = make_task(train, test, TaskSpec(kind="sample", sample_count=25, seed=0))
        with pytest.raises(ConfigurationError):
            sample_remaining(task, 16, np.random.default_rng(0))


class TestRemainingBatches:
    """A pass's remaining batches: sample_remaining's draws, the planned
    ones gathered in blocks of at most _BLOCK_VALUES feature values."""

    @staticmethod
    def task(width):
        train, test = generate_synthetic(3, width, 20, 2, seed=0)
        return make_task(train, test, TaskSpec(kind="sample", sample_count=5, seed=0))

    @pytest.mark.parametrize("planned", [0, 1, 5, 8])
    def test_draw_for_draw_those_of_sample_remaining(self, planned):
        # Width 512 and batches of 16 fill a block with 2 batches, so 5
        # planned batches come in blocks of 2, 2 and 1, then one at a time.
        task = self.task(512)
        pass_rng, one_rng = np.random.default_rng(4), np.random.default_rng(4)
        draws = _remaining_batches(task, 16, pass_rng, planned)
        for _ in range(8):
            got, want = next(draws), sample_remaining(task, 16, one_rng)
            for name in ("features", "labels", "indices"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        # Nothing was drawn that was not asked for.
        assert pass_rng.bit_generator.state == one_rng.bit_generator.state

    @pytest.mark.parametrize(
        "width, batch_size, per_block", [(4, 16, 256), (512, 16, 2), (512, 40, 1)]
    )
    def test_blocks_hold_at_most_block_values(self, width, batch_size, per_block):
        task = self.task(width)
        planned = 2 * per_block + 1
        draws = _remaining_batches(task, batch_size, np.random.default_rng(0), planned)
        blocks = {}
        for _ in range(planned + 2):
            block = next(draws).features
            while block.base is not None:  # the array the block's rows were gathered into
                block = block.base
            blocks.setdefault(id(block), block)
        sizes = [block.shape[0] for block in blocks.values()]
        assert sizes == [per_block, per_block, 1, 1, 1]
        assert all(b.size <= _BLOCK_VALUES or b.shape[0] == 1 for b in blocks.values())

    def test_errors_wait_for_the_first_batch(self):
        task = self.task(4)
        draws = _remaining_batches(task, 56, np.random.default_rng(0), 3)
        with pytest.raises(ConfigurationError, match="remaining train view has 55 rows, need >= 56"):
            next(draws)
