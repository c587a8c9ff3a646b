"""Accuracy reports, embedding geometry, and the membership attack."""

import csv
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import unlearnlab as ul
from unlearnlab import evaluation
from unlearnlab.errors import DimensionError, NonFiniteError, ValidationError
from unlearnlab.evaluation import (
    AttackModel,
    accuracy,
    attack_features,
    embedding_geometry,
    evaluate,
    fit_attack_model,
    run_mia,
)
from unlearnlab.model import _BLOCK_VALUES

ARCH3 = ul.ModelArchitecture(input_dim=4, hidden=(8,), embedding_dim=4, num_classes=3)


def small_world(seed=0):
    train, test = ul.generate_synthetic(3, 4, 60, 20, spread=1.0, seed=seed)
    params, _ = ul.train(
        ARCH3, train, ul.EngineConfig(seed=seed, max_epochs=30, batch_size=16)
    )
    return train, test, params


def whole(public, params, x):
    """public(params, x).data: the public encode or forward of all rows."""
    return public(params, x).data


def per_block(public, params, x):
    """public(params, rows).data on each block ``model._blocks`` makes, the
    ceil(n / arch._block_rows) blocks as even as they go, concatenated."""
    n = x.shape[0]
    k = -(-n // params.arch._block_rows)
    return np.concatenate([public(params, x[n * i // k : n * (i + 1) // k]).data for i in range(k)])


def geometry_oracle(params, task, run=whole):
    """The similarities of embedding_geometry from the public encode of each
    view, run on all its rows at once or per block, one np.dot per sample
    and centroid, as reprs: repr tells every float apart, -0.0 from 0.0 too."""
    remain_z = run(ul.encode, params, task.remain_train.features)
    centroids = {}
    for c in range(task.train.num_classes):
        rows = remain_z[task.remain_train.labels == c]
        if rows.shape[0]:
            mean = rows.mean(axis=0)
            centroids[c] = mean / np.linalg.norm(mean)
    want = []
    for z, label in zip(run(ul.encode, params, task.unlearn_train.features),
                        task.unlearn_train.labels):
        sims = {c: float(np.dot(z, centroid)) for c, centroid in centroids.items()}
        own = sims.pop(int(label), None)
        want.append((repr(own), repr(max(sims.values(), default=None))))
    return want


def geometry_columns(report):
    columns = ("own_class_similarity", "max_other_similarity")
    return [tuple(repr(row[c]) for c in columns) for row in report.rows]


def attack_features_oracle(params, dataset, run=whole):
    """attack_features from the public forward of the split, run on all its
    rows at once or per block."""
    logits = run(ul.forward, params, dataset.features)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    return np.sort(probs, axis=1)[:, ::-1]


class TestAccuracy:
    def test_matches_naive_count(self, rng):
        train, _, params = small_world()
        got = accuracy(params, train)
        preds = ul.predict_labels(params, train.features)
        correct = sum(1 for p, y in zip(preds, train.labels) if p == y)
        assert got == correct / len(train)

    @pytest.mark.parametrize(
        "spec, views",
        [
            (
                ul.TaskSpec(kind="class", class_id=1),
                ["train", "test", "unlearn_train", "remain_train", "unlearn_test", "remain_test"],
            ),
            (
                ul.TaskSpec(kind="sample", sample_count=15),
                ["unlearn_train", "remain_train", "eval_unlearn", "eval_test"],
            ),
        ],
    )
    def test_equals_the_mean_of_predict_labels_on_task_views(self, spec, views):
        train, test, params = small_world()
        task = ul.make_task(train, test, spec)
        for name in views:
            view = getattr(task, name)
            want = float(np.mean(ul.predict_labels(params, view.features) == view.labels))
            assert accuracy(params, view) == want, name

    def test_width_mismatch_is_a_dimension_error(self):
        _, _, params = small_world()
        narrow = ul.Dataset(np.zeros((3, 3)), [0, 1, 2], 3)
        with pytest.raises(DimensionError, match="batch width 3 does not match input_dim 4"):
            accuracy(params, narrow)


class TestFitRule:
    """Every entry that runs a model on a Dataset refuses one that does not
    fit it, by ``model._check_fits``: a DimensionError, which is a
    ValidationError, naming each mismatch."""

    @staticmethod
    def four_class_task():
        train, test = ul.generate_synthetic(4, 4, 50, 20, seed=0)
        return ul.make_task(train, test, ul.TaskSpec(kind="class", class_id=3))

    def test_dimension_error_is_a_validation_error(self):
        assert issubclass(DimensionError, ValidationError)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda p, task: accuracy(p, task.test),
            lambda p, task: attack_features(p, task.test),
            evaluate,
            embedding_geometry,
            run_mia,
        ],
        ids=["accuracy", "attack_features", "evaluate", "embedding_geometry", "run_mia"],
    )
    def test_class_count_mismatch_is_refused(self, entry):
        # A 3-class model on 4-class data: the rows fit, the labels do not.
        params = ul.init_parameters(ARCH3, seed=0)
        message = "class count 4 does not match num_classes 3"
        with pytest.raises(DimensionError, match=message) as exc:
            entry(params, self.four_class_task())
        assert isinstance(exc.value, ValidationError)

    def test_every_mismatch_is_named(self):
        arch = ul.ModelArchitecture(input_dim=5, hidden=(8,), embedding_dim=4, num_classes=3)
        params = ul.init_parameters(arch, seed=0)
        with pytest.raises(DimensionError) as exc:
            accuracy(params, self.four_class_task().test)
        assert str(exc.value) == (
            "model does not fit the data: batch width 4 does not match input_dim 5; "
            "class count 4 does not match num_classes 3"
        )


class TestEvaluate:
    def test_class_task_views_and_deltas(self):
        train, test, params = small_world()
        task = ul.make_task(train, test, ul.TaskSpec(kind="class", class_id=1))
        reference = ul.init_parameters(ARCH3, seed=9)
        report = evaluate(params, task, reference=reference)
        assert report.task_kind == "class"
        assert set(report.accuracies) == {"unlearn_train", "unlearn_test", "remain_test"}
        for name in report.accuracies:
            assert report.deltas[name] == pytest.approx(
                report.accuracies[name] - report.reference[name], abs=1e-15
            )

    def test_sample_task_views(self):
        train, test, params = small_world()
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=15))
        report = evaluate(params, task)
        assert set(report.accuracies) == {"unlearn_train", "test"}
        assert report.reference is None and report.deltas is None


class TestGeometry:
    def test_row_structure_on_sample_task(self, tmp_path):
        train, test, params = small_world()
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=15))
        report = embedding_geometry(params, task)
        assert len(report.rows) == 15
        for row in report.rows:
            assert -1.0 - 1e-9 <= row["own_class_similarity"] <= 1.0 + 1e-9
            assert -1.0 - 1e-9 <= row["max_other_similarity"] <= 1.0 + 1e-9
        assert report.absent_classes == [] and report.degenerate_classes == []
        # Oracle: one np.dot per sample and centroid; the own class is
        # left out of the maximum over the others.
        remain_z = ul.encode(params, task.remain_train.features).data
        centroids = []
        for c in range(3):
            mean = remain_z[task.remain_train.labels == c].mean(axis=0)
            centroids.append(mean / np.linalg.norm(mean))
        unlearn_z = ul.encode(params, task.unlearn_train.features).data
        for row, z in zip(report.rows, unlearn_z):
            sims = [float(np.dot(z, centroid)) for centroid in centroids]
            assert row["own_class_similarity"] == sims.pop(row["label"])
            assert row["max_other_similarity"] == max(sims)
        own = [row["own_class_similarity"] for row in report.rows]
        assert report.mean_own_similarity == float(np.mean(own))
        out = tmp_path / "geometry.csv"
        report.write_csv(out)
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_index", "label", "own_class_similarity", "max_other_similarity"]
        assert len(rows) == 16

    @pytest.mark.parametrize(
        "spec",
        [ul.TaskSpec(kind="class", class_id=1), ul.TaskSpec(kind="sample", sample_count=15)],
        ids=["class", "sample"],
    )
    def test_similarities_bit_identical_to_the_public_encode(self, spec):
        train, test, params = small_world()
        task = ul.make_task(train, test, spec)
        assert geometry_columns(embedding_geometry(params, task)) == geometry_oracle(params, task)

    @pytest.mark.parametrize("count", [1, ARCH3._block_rows + 1], ids=["one-row", "past-a-block"])
    def test_similarities_bit_identical_for_any_forgotten_count(self, count):
        # Each centroid's column is one stacked (1 x d) @ (d x 1) product;
        # a one-row set and one past a block must keep np.dot's bits too.
        _, test, params = small_world()
        train, _ = ul.generate_synthetic(3, 4, ARCH3._block_rows // 3 + 100, 1, spread=1.0, seed=1)
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=count))
        assert set(task.remain_train.labels.tolist()) == {0, 1, 2}
        assert geometry_columns(embedding_geometry(params, task)) == geometry_oracle(params, task)

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        train, test, params = small_world()
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=15))
        report = embedding_geometry(params, task)
        out = tmp_path / "geometry.csv"
        report.write_csv(out)
        old = out.read_bytes()
        # The second row fails after the header and the first row are written.
        del report.rows[1]["label"]
        with pytest.raises(KeyError):
            report.write_csv(out)
        assert out.read_bytes() == old
        assert os.listdir(tmp_path) == ["geometry.csv"]

    def test_absent_and_degenerate_centroids(self, tmp_path):
        # Hand-built embedding map: tanh encoder sends x=+2 and x=-2 to
        # opposite unit embeddings, so the remaining class-0 centroid
        # cancels to zero (degenerate), and class 1 has no remaining rows
        # at all (absent). Every similarity is then undefined.
        arch = ul.ModelArchitecture(
            input_dim=1, hidden=(1,), embedding_dim=2, num_classes=2, activation="tanh"
        )
        params = ul.init_parameters(arch, seed=0)
        values = dict(zip(params.names(), [t.data for t in params.as_list()]))
        values["enc0.w"] = np.array([[1.0]])
        values["enc0.b"] = np.zeros(1)
        values["emb.w"] = np.array([[1.0, 0.0]])
        values["emb.b"] = np.zeros(2)
        params = params.replace([values[n] for n in params.names()])

        train = ul.Dataset(np.array([[2.0], [-2.0], [1.0]]), np.array([0, 0, 1]), 2)
        test = ul.Dataset(np.array([[1.0], [-1.0]]), np.array([0, 1]), 2)
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_indices=(2,)))

        report = embedding_geometry(params, task)
        assert report.absent_classes == [1]
        assert report.degenerate_classes == [0]
        (row,) = report.rows
        assert row["sample_index"] == 2 and row["label"] == 1
        assert row["own_class_similarity"] is None
        assert row["max_other_similarity"] is None
        assert report.mean_own_similarity is None

        out = tmp_path / "geometry.csv"
        report.write_csv(out)
        assert out.read_text().splitlines()[1] == "2,1,,"

    def test_max_other_keeps_the_first_of_equal_values(self, monkeypatch, tmp_path):
        # A forgotten class-0 row whose similarities to classes 1 and 2 are
        # -0.0 and then 0.0: its maximum is the first in class order, -0.0,
        # as Python's max gives, where np.max gives 0.0. numpy's products sum
        # from +0.0, so no encoded row has a similarity of -0.0: here the
        # embeddings are the features, and their product with a one-hot
        # centroid is the entry it marks, a -0.0 included.
        class Picked(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                inputs = [np.asarray(x) for x in inputs]
                if ufunc is np.matmul:
                    z, centroid = inputs
                    return z[..., np.argmax(centroid)][..., None]
                return getattr(ufunc, method)(*inputs, **kwargs)

        features = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, -0.0, 0.0]])
        train = ul.Dataset(features, np.array([1, 2, 0]), 3)
        task = ul.make_task(train, train, ul.TaskSpec(kind="class", class_id=0))
        params = ul.init_parameters(ul.ModelArchitecture(3, (4,), 3, 3), seed=0)
        monkeypatch.setattr(evaluation, "_untaped", lambda params, x, head=True: x.view(Picked))
        report = embedding_geometry(params, task)
        (row,) = report.rows
        assert report.absent_classes == [0]
        assert row["own_class_similarity"] is None
        assert repr(row["max_other_similarity"]) == "-0.0"
        out = tmp_path / "geometry.csv"
        report.write_csv(out)
        assert out.read_text().splitlines()[1] == "2,0,,-0.0"


class TestAttackFeatures:
    def test_rows_are_sorted_probabilities(self):
        train, _, params = small_world()
        feats = attack_features(params, train)
        assert feats.shape == (len(train), train.num_classes)
        assert np.allclose(feats.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diff(feats, axis=1) <= 1e-15)
        assert np.all(feats >= 0)

    def test_invariant_to_head_permutation(self):
        # Relabeling the classes permutes the softmax but not the sorted
        # confidence profile the attack sees.
        train, _, params = small_world()
        perm = np.array([2, 0, 1])
        values = dict(zip(params.names(), [t.data for t in params.as_list()]))
        values["head.w"] = values["head.w"][:, perm]
        values["head.b"] = values["head.b"][perm]
        permuted = params.replace([values[n] for n in params.names()])
        assert np.allclose(
            attack_features(params, train), attack_features(permuted, train), atol=1e-12
        )

    def test_bit_identical_to_the_public_forward(self):
        # The Dataset's rows go through the cores; the public forward copies
        # and checks them first, to the same bits.
        train, _, params = small_world()
        want = attack_features_oracle(params, train)
        got = attack_features(params, train)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


    def test_logits_past_the_float_range_give_exact_zeros(self):
        # Head biases of +1e308 and -1e308: the shift of the far class
        # overflowed with a warning; its probability is exactly 0.0.
        train, _, params = small_world()
        values = {n: t.data.copy() for n, t in zip(params.names(), params.as_list())}
        values["head.w"][:] = 0.0
        values["head.b"][:] = [1e308, -1e308, 0.0]
        far = params.replace([values[n] for n in params.names()])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = attack_features(far, train)
        assert np.array_equal(got, np.tile([1.0, 0.0, 0.0], (len(train), 1)))


# Two architectures whose widest layers give blocks of 512 and 256 rows.
BLOCK_ARCHS = {
    512: ul.ModelArchitecture(input_dim=8, hidden=(32, 32), embedding_dim=16, num_classes=4),
    256: ul.ModelArchitecture(
        input_dim=4, hidden=(64,), embedding_dim=8, num_classes=3, activation="tanh"
    ),
}


def random_split(arch, n, seed=0):
    features = np.random.default_rng(seed).normal(size=(n, arch.input_dim))
    return ul.Dataset(features, np.arange(n) % arch.num_classes, arch.num_classes)


# Widths 49, 26 and 18 past an inner width of 16: on OpenBLAS 0.3.31 a
# product's rows then depend on its row count, and the blocks' logits
# differ from one pass over a split of more than one block.
COUNT_DEPENDENT_ARCH = ul.ModelArchitecture(
    input_dim=4, hidden=(49, 26), embedding_dim=18, num_classes=3
)


class TestRowBlocks:
    """accuracy, attack_features and embedding_geometry encode a split in
    blocks of rows. Each value has the bits of the public pass over its
    block; where no layer's rows depend on the product's row count, as in
    BLOCK_ARCHS, those are the bits of one pass over the whole split. A
    failing pass raises the whole pass's error."""

    @staticmethod
    def check_bits(arch, n, run):
        params = ul.init_parameters(arch, seed=1)
        data = random_split(arch, n)
        want = float(np.mean(np.argmax(run(ul.forward, params, data.features), axis=1) == data.labels))
        got = accuracy(params, data)
        assert type(got) is float and got == want
        want = attack_features_oracle(params, data, run)
        assert attack_features(params, data).tobytes() == want.tobytes()
        # Geometry encodes the n remaining rows and the n forgotten ones.
        train = random_split(arch, 2 * n, seed=2)
        task = ul.make_task(
            train, random_split(arch, 5, seed=3),
            ul.TaskSpec(kind="sample", sample_indices=tuple(range(n, 2 * n))),
        )
        assert geometry_columns(embedding_geometry(params, task)) == geometry_oracle(params, task, run)

    @pytest.mark.parametrize("r", sorted(BLOCK_ARCHS))
    @pytest.mark.parametrize(
        "size", [lambda r: 1, lambda r: r - 1, lambda r: r, lambda r: r + 1, lambda r: 2 * r + 3],
        ids=["1", "r-1", "r", "r+1", "2r+3"],
    )
    def test_bit_identical_to_the_whole_pass(self, r, size):
        assert BLOCK_ARCHS[r]._block_rows == r
        self.check_bits(BLOCK_ARCHS[r], size(r), whole)

    @pytest.mark.parametrize(
        "size", [lambda r: r + 1, lambda r: 2 * r + 3, lambda r: 3 * r - 1],
        ids=["r+1", "2r+3", "3r-1"],
    )
    def test_bit_identical_to_the_public_pass_per_block(self, size):
        arch = COUNT_DEPENDENT_ARCH
        self.check_bits(arch, size(arch._block_rows), per_block)

    @pytest.mark.parametrize(
        "evaluate_split",
        [
            accuracy,
            attack_features,
            lambda params, data: embedding_geometry(
                params, ul.make_task(data, data, ul.TaskSpec(kind="sample", sample_indices=(1,)))
            ),
        ],
        ids=["accuracy", "attack_features", "embedding_geometry"],
    )
    def test_a_failing_block_raises_the_whole_pass_error(self, evaluate_split):
        # Row 0, all zeros, meets zero biases and embeds to the zero vector,
        # in the first block; the last row's squared norm overflows, in the
        # third. The whole pass checks every row's layers and norms for
        # finiteness before any norm for zero, so it raises NonFiniteError.
        # embedding_geometry meets both rows in the remaining train view.
        arch = BLOCK_ARCHS[512]
        params = ul.init_parameters(arch, seed=1)
        features = np.random.default_rng(0).normal(size=(2 * 512 + 3, arch.input_dim))
        features[0] = 0.0
        features[-1] = 1e300
        data = ul.Dataset(features, np.arange(len(features)) % 4, 4)
        with pytest.raises(NonFiniteError) as whole:
            ul.forward(params, data.features)
        with pytest.raises(NonFiniteError, match=re.escape(str(whole.value))):
            evaluate_split(params, data)

    @pytest.mark.parametrize("evaluate_split", [accuracy, attack_features])
    def test_memory_is_bounded_by_the_block(self, evaluate_split):
        # A block holds at most 8 arrays of _BLOCK_VALUES float64 values at
        # once (the layers, the squared and unit embeddings, the norms and
        # the logits). attack_features also keeps at most 5 arrays of the
        # whole split's logits; one pass over all 20,000 rows held several
        # of its 5 MB activations at once.
        arch = BLOCK_ARCHS[512]
        params = ul.init_parameters(arch, seed=1)
        data = random_split(arch, 20_000)
        bound = 8 * _BLOCK_VALUES * 8
        if evaluate_split is attack_features:
            bound += 5 * len(data) * arch.num_classes * 8
        evaluate_split(params, data)
        tracemalloc.start()
        try:
            evaluate_split(params, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestAttackModel:
    def test_indifferent_attack_names_no_members(self):
        train, _, params = small_world()
        attack = AttackModel(weights=np.zeros(3), bias=0.0)
        # Scores sit exactly at 0.5 and membership needs a strict majority.
        assert not attack.predict_member(attack_features(params, train)).any()

    def test_separable_features_are_learned(self, rng):
        # Members concentrated on one class, non-members diffuse.
        members = rng.dirichlet([20.0, 1.0, 1.0], size=100)
        nonmembers = rng.dirichlet([4.0, 3.0, 3.0], size=100)
        feats = np.sort(np.vstack([members, nonmembers]), axis=1)[:, ::-1]
        labels = np.concatenate([np.ones(100), np.zeros(100)])
        order = rng.permutation(200)
        fit_idx, val_idx = order[:160], order[160:]
        attack = fit_attack_model(feats[fit_idx], labels[fit_idx])
        val_acc = np.mean(attack.predict_member(feats[val_idx]) == labels[val_idx])
        assert val_acc >= 0.9

    @pytest.mark.parametrize(
        "features, labels",
        [
            (np.zeros((0, 3)), np.zeros(0)),
            (np.array([[0.5, np.nan, 0.5], [0.2, 0.3, 0.5]]), np.array([1.0, 0.0])),
            (np.array([[0.5, 0.5, 0.0], [np.inf, 0.3, 0.5]]), np.array([1.0, 0.0])),
            (np.array([["0.5", "0.5"], ["0.2", "0.3"]]), np.array([1.0, 0.0])),
        ],
        ids=["no-rows", "nan-feature", "inf-feature", "string-features"],
    )
    def test_unfittable_features_are_rejected(self, features, labels):
        # Both used to end in a RuntimeWarning and the zero-start model.
        with pytest.raises(ValidationError, match="attack features"):
            fit_attack_model(features, labels)

    @pytest.mark.parametrize("scale", [1e20, 1e160])
    def test_a_fit_that_fails_is_refused(self, scale):
        # L-BFGS-B stopped "ABNORMAL" at its zero start, an attack that calls
        # nothing a member; at 1e160 numpy also warned in logaddexp.
        features = np.array([[scale, 0.0], [-scale, 1.0]] * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="the attack fit failed"):
                fit_attack_model(features, [1, 0] * 5)

    @pytest.mark.parametrize(
        "labels, match",
        [
            (["1", "0"], "attack labels must be integers"),
            ([True, False], "attack labels must be integers"),
            ([1.0, 0.5], "attack labels must be integers"),
            ([1, 2], r"attack labels must lie in \[0, 2\)"),
        ],
        ids=["string", "bool", "fraction", "two"],
    )
    def test_labels_must_be_zero_or_one(self, labels, match):
        # The attack fitted on the strings and the bools as on 1 and 0.
        with pytest.raises(ValidationError, match=match):
            fit_attack_model(np.eye(2), labels)

    def test_no_signal_means_chance_accuracy(self, rng):
        # Two halves of the same test split: nothing to learn, accuracy
        # should hover at chance.
        _, test, params = small_world()
        feats = attack_features(params, test)
        half = len(test) // 2
        labels = np.concatenate([np.ones(half), np.zeros(half)])
        order = rng.permutation(2 * half)
        fit_idx, val_idx = order[:48], order[48:]
        attack = fit_attack_model(feats[fit_idx], labels[fit_idx])
        val_acc = np.mean(attack.predict_member(feats[val_idx]) == labels[val_idx])
        assert 0.3 <= val_acc <= 0.7


class TestMiaProtocol:
    def test_sizes_and_determinism(self):
        train, test = ul.generate_synthetic(3, 4, 200, 50, spread=1.0, seed=0)
        params, _ = ul.train(
            ARCH3, train, ul.EngineConfig(seed=0, max_epochs=20, batch_size=32)
        )
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=30))
        report = run_mia(params, task, split_seed=4)
        # m = min(cap, half the remaining rows, all test rows).
        assert report.members_size == min(1000, (600 - 30) // 2, 150) == 150
        assert report.nonmembers_size == 150
        # The held-out member rate counts members among m held-out rows.
        held = report.member_rate_heldout_members * 150
        assert 0 < held < 150 and held == pytest.approx(round(held), abs=1e-9)
        assert 0.0 <= report.validation_accuracy <= 1.0
        assert run_mia(params, task, split_seed=4) == report

    def test_report_fields(self):
        train, test = ul.generate_synthetic(3, 4, 200, 50, spread=1.0, seed=0)
        params, _ = ul.train(
            ARCH3, train, ul.EngineConfig(seed=0, max_epochs=20, batch_size=32)
        )
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=30))
        report = run_mia(params, task, split_seed=0)
        d = report.to_dict()
        assert set(d) == {
            "member_rate_unlearn",
            "member_rate_heldout_members",
            "validation_accuracy",
            "members_size",
            "nonmembers_size",
        }
        assert 0.0 <= d["member_rate_unlearn"] <= 1.0
        assert 0.0 <= d["member_rate_heldout_members"] <= 1.0

    def test_too_small_for_an_attack(self, rng):
        train = ul.Dataset(rng.standard_normal((8, 4)), np.tile([0, 1], 4), 2)
        test = ul.Dataset(rng.standard_normal((4, 4)), np.tile([0, 1], 2), 2)
        arch = ul.ModelArchitecture(input_dim=4, hidden=(4,), embedding_dim=3, num_classes=2)
        params = ul.init_parameters(arch, seed=0)
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=2))
        with pytest.raises(ValidationError):
            run_mia(params, task)

    def test_negative_split_seed_rejected(self):
        train, test, params = small_world()
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=15))
        with pytest.raises(ValidationError, match="split_seed"):
            run_mia(params, task, split_seed=-1)
