"""Training loop, unlearning loop semantics, and termination predicates."""

import sys
import warnings

import numpy as np
import pytest

import unlearnlab as ul
from unlearnlab import engine, losses
from unlearnlab.data import TAG_REMAIN_SAMPLER, TAG_TRAIN_BATCHES, TAG_UNLEARN_BATCHES
from unlearnlab.engine import (
    _termination_metrics,
    check_termination_class,
    check_termination_sample,
)
from unlearnlab.errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
    NonFiniteError,
    NoValidAnchorError,
    UnlearnableConfigurationError,
    ValidationError,
)
from composed_ops import add, l2_normalize, matmul, params_equal, relu

SMALL_ARCH = ul.ModelArchitecture(input_dim=2, hidden=(8,), embedding_dim=4, num_classes=2)


def small_setup(seed=0, spread=3.0):
    train, test = ul.generate_synthetic(2, 2, 50, 20, spread=spread, seed=seed)
    cfg = ul.EngineConfig(seed=seed, max_epochs=50, learning_rate=0.1, batch_size=16)
    return train, test, cfg


def harder_setup():
    """Trained model with a train/test gap, so the sample termination
    condition starts unmet (at spread 3 every accuracy is 1.0 and the
    condition holds trivially before the first pass)."""
    train, test = ul.generate_synthetic(2, 2, 50, 50, spread=0.8, seed=1)
    cfg = ul.EngineConfig(seed=1, max_epochs=60, learning_rate=0.1, batch_size=16)
    params, _ = ul.train(SMALL_ARCH, train, cfg)
    task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=10, seed=2))
    return params, task


def impossible_task():
    """Sample task whose termination can never fire for a model stuck on
    class 0: the unlearning rows all carry class 0, the test split never
    does."""
    rng = np.random.default_rng(3)
    train = ul.Dataset(rng.standard_normal((40, 2)), np.array([0] * 10 + [1] * 30), 2)
    test = ul.Dataset(rng.standard_normal((20, 2)), np.ones(20, dtype=int), 2)
    task = ul.make_task(
        train, test, ul.TaskSpec(kind="sample", sample_indices=tuple(range(10)))
    )
    return constant_model(SMALL_ARCH, predicted_class=0), task


def constant_model(arch, predicted_class):
    """Zero weights, so the head bias alone decides every prediction."""
    params = ul.init_parameters(arch, seed=0)
    head_bias = np.zeros(arch.num_classes)
    head_bias[predicted_class] = 1.0
    new = []
    for name, t in zip(params.names(), params.as_list()):
        if name == "emb.b":
            new.append(np.ones(t.shape))
        elif name == "head.b":
            new.append(head_bias)
        else:
            new.append(np.zeros(t.shape))
    return params.replace(new)


def perceptron_separable(features, labels, max_passes=1000):
    """Certificate that the data is linearly separable: the perceptron
    converges on separable data and only on separable data."""
    x = np.hstack([features, np.ones((len(features), 1))])
    y = np.where(labels == 1, 1.0, -1.0)
    w = np.zeros(x.shape[1])
    for _ in range(max_passes):
        mistakes = 0
        for xi, yi in zip(x, y):
            if yi * (xi @ w) <= 0:
                w += yi * xi
                mistakes += 1
        if mistakes == 0:
            return True
    return False


def reference_ce_passes(params, view, tag, cfg, passes, ascend=False):
    """SGD on cross-entropy from public primitives: seeded batches, the
    taped forward, tape.gradient and ModelParameters.replace."""
    for epoch in range(passes):
        for batch in ul.batches(view, cfg.batch_size, [cfg.seed, tag, epoch]):
            with ul.GradTape() as tape:
                loss = ul.cross_entropy_loss(ul.forward(params, batch.features), batch.labels)
            grads = tape.gradient(loss, params.as_list())
            if ascend:
                new = [w.data + cfg.learning_rate * g.data for w, g in zip(params.as_list(), grads)]
            else:
                new = [w.data - cfg.learning_rate * g.data for w, g in zip(params.as_list(), grads)]
            params = params.replace(new)
    return params


# Widths 49, 26 and 18 (test_tensor's STACK_ARCH) leave 1, 2 and 2 over a
# multiple of 8, past an inner width of 16: on OpenBLAS a product's rows
# then depend on its row count, so a change in how a step groups rows into
# products changes bits here, where the narrow widths above cannot show it.
WIDE_ARCH = ul.ModelArchitecture(input_dim=4, hidden=(49, 26), embedding_dim=18, num_classes=3)


def wide_setup():
    """WIDE_ARCH trained for 30 epochs on 3 classes of 30 train rows (10
    test rows each), with the train and test splits."""
    train, test = ul.generate_synthetic(3, 4, 30, 10, spread=0.8, seed=6)
    params, _ = ul.train(WIDE_ARCH, train, ul.EngineConfig(seed=6, max_epochs=30, batch_size=16))
    return params, train, test


def assert_same_parameters(want, got):
    assert want.names() == got.names()
    for w, g in zip(want.as_list(), got.as_list()):
        assert np.array_equal(w.data, g.data)


class TestTrain:
    def test_fits_separable_data(self):
        train, test, cfg = small_setup()
        assert perceptron_separable(train.features, train.labels)
        params, record = ul.train(SMALL_ARCH, train, cfg)
        acc = ul.accuracy(params, train)
        assert acc >= 0.99
        assert record.method == "train"
        assert record.termination_reason == "epoch-cap"

    def test_loss_decreases(self):
        train, _, cfg = small_setup()
        _, record = ul.train(SMALL_ARCH, train, cfg)
        rows = [r for r in record.rows if r["kind"] == "pass"]
        assert rows[-1]["mean_ce"] < rows[0]["mean_ce"]
        assert all("train_accuracy" in r for r in rows)

    def test_deterministic(self):
        train, _, cfg = small_setup()
        a, rec_a = ul.train(SMALL_ARCH, train, cfg)
        b, rec_b = ul.train(SMALL_ARCH, train, cfg)
        assert params_equal(a, b)
        assert rec_a.rows == rec_b.rows

    def test_step_bookkeeping(self):
        train, _, _ = small_setup()
        cfg = ul.EngineConfig(seed=0, max_epochs=7, learning_rate=0.1, batch_size=16)
        _, record = ul.train(SMALL_ARCH, train, cfg)
        per_epoch = int(np.ceil(len(train) / 16))
        assert record.gradient_steps == 7 * per_epoch
        assert record.batches_processed == 7 * per_epoch

    def test_incompatible_data_rejected(self):
        train, _, cfg = small_setup()
        wrong = ul.ModelArchitecture(input_dim=5, hidden=(8,), embedding_dim=4, num_classes=2)
        with pytest.raises(ValidationError):
            ul.train(wrong, train, cfg)

    def test_fit_error_is_the_shared_dimension_error(self):
        train, _, cfg = small_setup()
        wrong = ul.ModelArchitecture(input_dim=5, hidden=(8,), embedding_dim=4, num_classes=3)
        with pytest.raises(DimensionError) as exc:
            ul.train(wrong, train, cfg)
        assert isinstance(exc.value, ValidationError)
        assert str(exc.value) == (
            "model does not fit the data: batch width 2 does not match input_dim 5; "
            "class count 2 does not match num_classes 3"
        )

    def test_divergence_is_reported(self):
        train, _, _ = small_setup()
        cfg = ul.EngineConfig(seed=0, max_epochs=3, learning_rate=1e160, batch_size=16)
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError):
                ul.train(SMALL_ARCH, train, cfg)

    def test_overflowing_accuracy_is_a_divergence(self):
        # With one batch per epoch the step itself stays finite; the
        # per-epoch accuracy is the first forward that overflows.
        train, _ = ul.generate_synthetic(3, 2, 5, 5, spread=3.0, seed=0)
        arch = ul.ModelArchitecture(input_dim=2, hidden=(8,), embedding_dim=4, num_classes=3)
        cfg = ul.EngineConfig(seed=0, max_epochs=3, learning_rate=1e200, batch_size=32)
        with pytest.raises(DivergenceError) as exc:
            ul.train(arch, train, cfg)
        assert exc.value.epoch == 0 and exc.value.batch is None

    def test_matches_reference_loop_of_public_primitives(self):
        # The engine's fast paths must change no bit of the result. This
        # loop runs the same SGD from public primitives: a separate
        # matmul, add and relu per layer, the public tape.gradient and
        # ModelParameters.replace.
        arch = ul.ModelArchitecture(input_dim=3, hidden=(6, 5), embedding_dim=4, num_classes=3)
        train, _ = ul.generate_synthetic(3, 3, 30, 5, spread=1.0, seed=4)
        cfg = ul.EngineConfig(seed=4, max_epochs=2, learning_rate=0.2, batch_size=16)
        engine_params, _ = ul.train(arch, train, cfg)

        params = ul.init_parameters(arch, cfg.seed)
        for epoch in range(cfg.max_epochs):
            for batch in ul.batches(train, cfg.batch_size, [cfg.seed, TAG_TRAIN_BATCHES, epoch]):
                p = params.tensors
                with ul.GradTape() as tape:
                    h = batch.features
                    for i in range(len(arch.hidden)):
                        h = relu(add(matmul(h, p[f"enc{i}.w"]), p[f"enc{i}.b"]))
                    z = l2_normalize(add(matmul(h, p["emb.w"]), p["emb.b"]))
                    logits = add(matmul(z, p["head.w"]), p["head.b"])
                    loss = ul.cross_entropy_loss(logits, batch.labels)
                grads = tape.gradient(loss, params.as_list())
                params = params.replace(
                    [w.data - cfg.learning_rate * g.data for w, g in zip(params.as_list(), grads)]
                )
        assert params.names() == engine_params.names()
        for want, got in zip(params.as_list(), engine_params.as_list()):
            assert np.array_equal(want.data, got.data)

    def test_matches_reference_loop_on_wide_widths(self):
        # Batches of 7 rows (the last of 6) on WIDE_ARCH, where a change in
        # how a step groups rows into products would change bits.
        train, _ = ul.generate_synthetic(3, 4, 30, 10, spread=0.8, seed=6)
        cfg = ul.EngineConfig(seed=6, max_epochs=2, learning_rate=0.05, batch_size=7)
        engine_params, record = ul.train(WIDE_ARCH, train, cfg)
        assert record.gradient_steps == 2 * 13
        start = ul.init_parameters(WIDE_ARCH, cfg.seed)
        want = reference_ce_passes(start, train, TAG_TRAIN_BATCHES, cfg, cfg.max_epochs)
        assert_same_parameters(want, engine_params)

    def test_non_finite_update_is_a_divergence(self, monkeypatch):
        # An update that overflows is reported like a non-finite loss, in
        # every gradient-descent run, not raised as a bare NonFiniteError.
        params, task = harder_setup()
        train, _, cfg = small_setup()
        unlearn_cfg = ul.EngineConfig(
            seed=0, batch_size=16, max_unlearn_epochs=1, loss=ul.LossConfig(variant="sample")
        )

        def overflowing_update(params, flat):
            raise NonFiniteError("update overflowed")

        # Every step writes its update to the run's working copy here.
        monkeypatch.setattr(ul.ModelParameters, "_overwrite", overflowing_update)
        runs = (
            lambda: ul.train(SMALL_ARCH, train, cfg),
            lambda: ul.unlearn_finetune(params, task, unlearn_cfg),
            lambda: ul.unlearn_contrastive(params, task, unlearn_cfg),
        )
        for run in runs:
            with pytest.raises(DivergenceError) as exc:
                run()
            assert exc.value.epoch == 0 and exc.value.batch == 0

    @pytest.mark.parametrize("run", ["train", "finetune", "contrastive"])
    def test_overflowing_update_is_a_divergence(self, run):
        # No hook: on features of size 1e-6 the bias gradients are large, so
        # the first update overflows at this learning rate while the first
        # forward stays finite. The update's own check is what fires.
        train, test, _ = small_setup()
        tiny = ul.Dataset(train.features * 1e-6, train.labels, 2)
        tiny_test = ul.Dataset(test.features * 1e-6, test.labels, 2)
        task = ul.make_task(tiny, tiny_test, ul.TaskSpec(kind="sample", sample_count=10, seed=2))
        params = ul.init_parameters(SMALL_ARCH, seed=0)
        cfg = ul.EngineConfig(
            seed=0, batch_size=16, learning_rate=1e306, max_epochs=3, max_unlearn_epochs=3
        )
        runs = {
            "train": lambda: ul.train(SMALL_ARCH, tiny, cfg),
            "finetune": lambda: ul.unlearn_finetune(params, task, cfg),
            "contrastive": lambda: ul.unlearn_contrastive(params, task, cfg),
        }
        with pytest.raises(DivergenceError, match="non-finite entries") as exc:
            runs[run]()
        assert exc.value.epoch == 0 and exc.value.batch == 0
        assert isinstance(exc.value.__cause__, NonFiniteError)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ul.EngineConfig(batch_size=1)
        with pytest.raises(ValidationError):
            ul.EngineConfig(remaining_resamples=5)
        with pytest.raises(ValidationError):
            ul.EngineConfig(termination_every=0)
        with pytest.raises(ValidationError):
            ul.EngineConfig(learning_rate=0.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValidationError):
                ul.EngineConfig(learning_rate=bad)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            ul.EngineConfig(seed=-1)

    def test_loss_must_be_a_loss_config(self):
        # None was accepted, and a contrastive run then raised AttributeError.
        with pytest.raises(ValidationError, match="loss must be a LossConfig, got None"):
            ul.EngineConfig(loss=None)

    @pytest.mark.parametrize(
        "field",
        ["batch_size", "remaining_resamples", "max_epochs", "max_unlearn_epochs",
         "termination_every", "seed"],
    )
    def test_non_integer_count_rejected(self, field):
        # A float count used to fail later, inside train or numpy's
        # SeedSequence, with a bare TypeError.
        good = getattr(ul.EngineConfig(), field)
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            ul.EngineConfig(**{field: good + 0.5})
        assert getattr(ul.EngineConfig(**{field: np.int64(good)}), field) == good


class TestTapeSize:
    """Tape entries per step with two hidden layers: one per encoder pass
    (every layer and the row normalisation), the head's dense, one per
    loss and one for the sum. A contrastive step encodes a forgotten batch
    of the remaining batch's rows with it, in one stacked pass."""

    ARCH = ul.ModelArchitecture(input_dim=2, hidden=(8, 8), embedding_dim=4, num_classes=2)

    @staticmethod
    def recorded_sizes(monkeypatch):
        sizes = []
        replay = ul.GradTape._replay

        def counting(self, output, inputs):
            sizes.append(len(self))
            return replay(self, output, inputs)

        monkeypatch.setattr(ul.GradTape, "_replay", counting)
        return sizes

    def test_train_step(self, monkeypatch):
        train, _, _ = small_setup()
        cfg = ul.EngineConfig(seed=0, max_epochs=2, learning_rate=0.1, batch_size=16)
        sizes = self.recorded_sizes(monkeypatch)
        _, record = ul.train(self.ARCH, train, cfg)
        assert len(sizes) == record.gradient_steps > 0
        assert set(sizes) == {3}

    @pytest.mark.parametrize("kind", ["class", "sample"])
    def test_contrastive_step(self, monkeypatch, kind):
        train, test = ul.generate_synthetic(2, 2, 50, 50, spread=0.8, seed=1)
        cfg = ul.EngineConfig(seed=1, max_epochs=60, learning_rate=0.1, batch_size=16)
        params, _ = ul.train(self.ARCH, train, cfg)
        if kind == "class":
            spec = ul.TaskSpec(kind="class", class_id=0)
        else:
            spec = ul.TaskSpec(kind="sample", sample_count=20, seed=3)
        task = ul.make_task(train, test, spec)
        ucfg = ul.EngineConfig(
            seed=0,
            batch_size=16,
            max_unlearn_epochs=1,
            loss=ul.LossConfig(variant=kind, unlearn_weight=0.5, ce_weight=1.0),
        )
        sizes = self.recorded_sizes(monkeypatch)
        _, record = ul.unlearn_contrastive(params, task, ucfg)
        # One pass; the last forgotten batch is short (50 and 20 rows).
        unlearn_batches = ul.batches(task.unlearn_train, 16, [0, TAG_UNLEARN_BATCHES, 0])
        want = [5 if len(b.labels) == 16 else 6 for b in unlearn_batches for _ in range(2)]
        assert sizes == want and set(want) == {5, 6}
        assert record.gradient_steps == len(want)


class TestRetrain:
    def test_equals_training_on_remaining_rows(self):
        train, test, cfg = small_setup()
        task = ul.make_task(train, test, ul.TaskSpec(kind="class", class_id=0))
        direct, _ = ul.train(SMALL_ARCH, task.remain_train, cfg)
        via_task, record = ul.retrain(SMALL_ARCH, task, cfg)
        assert params_equal(via_task, direct)
        assert record.method == "retrain"


class TestTerminationPredicates:
    ARCH4 = ul.ModelArchitecture(input_dim=2, hidden=(4,), embedding_dim=3, num_classes=4)

    def view(self, labels, num_classes):
        rng = np.random.default_rng(0)
        labels = np.asarray(labels)
        return ul.Dataset(rng.standard_normal((len(labels), 2)), labels, num_classes)

    def test_class_boundary_is_inclusive(self):
        model = constant_model(self.ARCH4, predicted_class=1)
        # 2 of 8 rows carry the predicted label: accuracy exactly 1/4.
        at = self.view([1, 1, 0, 0, 2, 2, 3, 3], 4)
        above = self.view([1, 1, 1, 0, 2, 2, 3, 3], 4)
        below = self.view([1, 0, 0, 0, 2, 2, 3, 3], 4)
        assert check_termination_class(model, at, 4) is True
        assert check_termination_class(model, above, 4) is False
        assert check_termination_class(model, below, 4) is True

    def test_class_boundary_with_non_representable_threshold(self):
        # 1/3 is not an exact float; both sides compute it the same way,
        # so equality still holds exactly.
        arch = ul.ModelArchitecture(input_dim=2, hidden=(4,), embedding_dim=3, num_classes=3)
        model = constant_model(arch, predicted_class=0)
        at = self.view([0, 1, 2], 3)
        assert check_termination_class(model, at, 3) is True
        assert check_termination_class(model, self.view([0, 0, 1], 3), 3) is False

    def test_sample_boundary_is_inclusive(self):
        model = constant_model(self.ARCH4, predicted_class=1)
        half = self.view([1, 0, 1, 0], 4)  # accuracy 1/2
        quarter = self.view([1, 0, 0, 0], 4)  # accuracy 1/4
        assert check_termination_sample(model, half, half) is True
        assert check_termination_sample(model, half, quarter) is False
        assert check_termination_sample(model, quarter, half) is True

    def test_loop_runs_the_public_rule(self):
        # The unlearning loop's check is the rule criterion 7 tests, and
        # its evaluation row carries the accuracies that rule compared.
        model = constant_model(self.ARCH4, predicted_class=1)
        train = self.view([0, 1, 2, 3] * 3, 4)
        test = self.view([1, 0, 1, 0, 1, 2, 3, 3], 4)  # accuracy 3/8
        for class_id in (1, 2):
            task = ul.make_task(train, test, ul.TaskSpec(kind="class", class_id=class_id))
            met, metrics = _termination_metrics(model, task)
            assert met is check_termination_class(model, task.eval_unlearn, 4)
            assert metrics == {"unlearn_test_accuracy": float(class_id == 1), "chance_level": 0.25}
        for rows, want in (((1, 5), False), ((0, 1, 2, 3), True)):
            task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_indices=rows))
            met, metrics = _termination_metrics(model, task)
            assert met is want
            assert met is check_termination_sample(model, task.eval_unlearn, task.eval_test)
            assert metrics["test_eval_accuracy"] == 3 / 8


class TestUnlearnLoop:
    @pytest.mark.parametrize(
        "run", [ul.unlearn_contrastive, ul.unlearn_finetune, ul.unlearn_neggrad]
    )
    def test_a_model_of_another_class_count_is_refused(self, run):
        train, test, cfg = small_setup()
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=5))
        arch = ul.ModelArchitecture(input_dim=2, hidden=(8,), embedding_dim=4, num_classes=3)
        with pytest.raises(DimensionError, match="class count 2 does not match num_classes 3"):
            run(ul.init_parameters(arch, seed=0), task, cfg)

    def test_zero_epoch_cap_is_a_no_op(self):
        model, task = impossible_task()
        cfg = ul.EngineConfig(seed=0, batch_size=4, max_unlearn_epochs=0, learning_rate=1e-12)
        out, record = ul.unlearn_finetune(model, task, cfg)
        assert params_equal(out, model)
        assert record.termination_reason == "epoch-cap"
        assert record.rows == [] and record.gradient_steps == 0

    def test_cadence_and_epoch_cap(self):
        model, task = impossible_task()
        # Tiny steps keep the constant model constant, so the condition
        # stays unmet and the cap must fire.
        cfg = ul.EngineConfig(
            seed=0,
            batch_size=4,
            max_unlearn_epochs=7,
            termination_every=3,
            learning_rate=1e-12,
        )
        _, record = ul.unlearn_finetune(model, task, cfg)
        evals = [r for r in record.rows if r["kind"] == "evaluation"]
        passes = [r for r in record.rows if r["kind"] == "pass"]
        assert [r["epoch"] for r in evals] == [0, 3, 6]
        assert all(r["condition_met"] is False for r in evals)
        assert [r["epoch"] for r in passes] == list(range(7))
        assert record.termination_reason == "epoch-cap"

    def test_one_pass_call_evaluates_once(self):
        # A cap of 1 and a check every 2 epochs, as the benchmark's unlearn
        # workload calls a contrastive run pass by pass: the check before the
        # pass, the pass, and no check after it.
        params, task = harder_setup()
        cfg = ul.EngineConfig(
            seed=0, batch_size=4, max_unlearn_epochs=1, termination_every=2,
            loss=ul.LossConfig(variant="sample", unlearn_weight=0.05),
        )
        _, record = ul.unlearn_contrastive(params, task, cfg)
        assert [(r["kind"], r["epoch"]) for r in record.rows] == [("evaluation", 0), ("pass", 0)]
        assert record.rows[0]["condition_met"] is False
        assert record.termination_reason == "epoch-cap"
        assert record.gradient_steps > 0

    def test_met_condition_stops_before_any_pass(self):
        model, task = impossible_task()
        # Predicting class 1 scores 0 on the unlearning rows and 1.0 on
        # the test rows, so the condition holds at epoch 0.
        already_done = constant_model(SMALL_ARCH, predicted_class=1)
        cfg = ul.EngineConfig(seed=0, batch_size=4, max_unlearn_epochs=9)
        out, record = ul.unlearn_finetune(already_done, task, cfg)
        assert record.termination_reason == "condition-met"
        assert record.gradient_steps == 0
        assert params_equal(out, already_done)


class TestContrastive:
    def trained_small(self, seed=0):
        train, test, cfg = small_setup(seed=seed)
        params, _ = ul.train(SMALL_ARCH, train, cfg)
        task = ul.make_task(
            train, test, ul.TaskSpec(kind="sample", sample_count=10, seed=seed)
        )
        return params, task

    def test_step_count_per_pass(self):
        params, task = self.trained_small()
        cfg = ul.EngineConfig(
            seed=0,
            batch_size=4,
            learning_rate=0.02,
            remaining_resamples=2,
            max_unlearn_epochs=3,
            loss=ul.LossConfig(variant="sample", unlearn_weight=0.05),
        )
        _, record = ul.unlearn_contrastive(params, task, cfg)
        n_pass = sum(1 for r in record.rows if r["kind"] == "pass")
        unlearn_batches = int(np.ceil(len(task.unlearn_train) / cfg.batch_size))
        assert record.batches_processed == n_pass * unlearn_batches
        assert record.gradient_steps == n_pass * unlearn_batches * cfg.remaining_resamples

    @staticmethod
    def reference_loop(params, task, cfg, passes):
        """The engine's passes from public primitives: an encode per batch,
        the public contrast sets, losses, head and sum, tape.gradient and
        ModelParameters.replace, with sample_remaining's draws and the
        anchor redraws. Returns the parameters, the step count and each
        pass's count of remaining batches drawn."""
        unlearn_term = ul.class_unlearn_loss if task.kind == "class" else ul.sample_unlearn_loss
        remain_rng = np.random.default_rng([cfg.seed, TAG_REMAIN_SAMPLER])
        steps, draws = 0, []
        for epoch in range(passes):
            draws.append(0)
            for ub in ul.batches(task.unlearn_train, cfg.batch_size, [cfg.seed, TAG_UNLEARN_BATCHES, epoch]):
                for _ in range(cfg.remaining_resamples):
                    for _ in range(engine.ANCHOR_RESAMPLE_LIMIT):
                        rb = ul.sample_remaining(task, cfg.batch_size, remain_rng)
                        draws[-1] += 1
                        try:
                            with ul.GradTape() as tape:
                                z_r = ul.encode(params, rb.features)
                                z_u = ul.encode(params, ub.features)
                                sets = ul.build_contrast_sets(ub.labels, z_u, rb.labels, z_r)
                                term = unlearn_term(sets, cfg.loss.temperature)
                                ce = ul.cross_entropy_loss(ul.head_logits(params, z_r), rb.labels)
                                loss = ul.combined_loss(term, ce, cfg.loss)
                        except NoValidAnchorError:
                            continue
                        grads = tape.gradient(loss, params.as_list())
                        params = params.replace(
                            [w.data - cfg.learning_rate * g.data for w, g in zip(params.as_list(), grads)]
                        )
                        steps += 1
                        break
        return params, steps, draws

    @pytest.mark.parametrize("kind", ["class", "sample"])
    def test_matches_reference_loop_of_public_primitives(self, kind):
        # The engine's fast paths, its stacked encoder pass and its drawing
        # of a pass's remaining batches ahead among them, must change no bit
        # of the result. Forgotten batches of 7 rows: 30 class rows and 20
        # sampled ones leave a short last batch, so both the stacked and the
        # one-batch step run. With WIDE_ARCH's widths, on OpenBLAS 0.3.31, a
        # product of 2 x 7 rows rounds rows differently from one of 7, so a
        # (2B, K) concatenation would fail here.
        params, train, test = wide_setup()
        if kind == "class":
            spec = ul.TaskSpec(kind="class", class_id=1)
        else:
            spec = ul.TaskSpec(kind="sample", sample_count=20, seed=13)
        task = ul.make_task(train, test, spec)
        cfg = ul.EngineConfig(
            seed=6, batch_size=7, learning_rate=0.05, remaining_resamples=2, max_unlearn_epochs=2,
            loss=ul.LossConfig(variant=kind, unlearn_weight=0.5),
        )
        out, record = ul.unlearn_contrastive(params, task, cfg)
        passes = sum(r["kind"] == "pass" for r in record.rows)
        assert passes == 2 and len(task.unlearn_train) % cfg.batch_size != 0

        want, steps, _ = self.reference_loop(params, task, cfg, passes)
        assert steps == record.gradient_steps > 0
        assert_same_parameters(want, out)

    def test_redraws_past_the_planned_batches_match_the_reference_loop(self):
        # The 28 forgotten rows are class 1, and only 2 of the 62 remaining
        # rows are: about 4 in 5 remaining batches of 7 hold no positive, so
        # the sample variant redraws often, past the 4 x 2 batches a pass
        # draws ahead, and some slots use up ANCHOR_RESAMPLE_LIMIT draws.
        params, train, test = wide_setup()
        forgotten = tuple(train.class_indices(1)[:28])
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_indices=forgotten))
        cfg = ul.EngineConfig(
            seed=7, batch_size=7, learning_rate=0.05, remaining_resamples=2, max_unlearn_epochs=2,
            loss=ul.LossConfig(variant="sample", unlearn_weight=0.5),
        )
        out, record = ul.unlearn_contrastive(params, task, cfg)
        passes = [r for r in record.rows if r["kind"] == "pass"]
        assert len(passes) == 2 and sum(r["skipped_steps"] for r in passes) > 0

        want, steps, draws = self.reference_loop(params, task, cfg, len(passes))
        planned = 4 * cfg.remaining_resamples
        assert steps == record.gradient_steps > 0
        assert max(draws) > planned
        assert_same_parameters(want, out)

    def test_deterministic(self):
        params, task = self.trained_small()
        cfg = ul.EngineConfig(
            seed=7,
            batch_size=4,
            learning_rate=0.02,
            max_unlearn_epochs=2,
            loss=ul.LossConfig(variant="sample", unlearn_weight=0.05),
        )
        a, rec_a = ul.unlearn_contrastive(params, task, cfg)
        b, rec_b = ul.unlearn_contrastive(params, task, cfg)
        assert params_equal(a, b)
        assert rec_a.rows == rec_b.rows

    def test_variant_must_match_task(self):
        params, task = self.trained_small()
        cfg = ul.EngineConfig(loss=ul.LossConfig(variant="class"))
        with pytest.raises(ValidationError):
            ul.unlearn_contrastive(params, task, cfg)

    def test_zero_unlearn_weight_is_pure_restoration(self):
        params, task = impossible_task()
        before = ul.accuracy(params, task.remain_train)
        cfg = ul.EngineConfig(
            seed=0,
            batch_size=8,
            learning_rate=0.05,
            max_unlearn_epochs=3,
            loss=ul.LossConfig(variant="sample", unlearn_weight=0.0, ce_weight=1.0),
        )
        out, record = ul.unlearn_contrastive(params, task, cfg)
        passes = [r for r in record.rows if r["kind"] == "pass"]
        assert passes and all(r["mean_unlearn_loss"] == 0.0 for r in passes)
        assert not params_equal(out, params)  # steps were taken
        assert ul.accuracy(out, task.remain_train) >= before

    def test_unlearnable_when_anchors_have_no_positives(self):
        # Unlearning every class-0 row leaves no positives anywhere, so
        # the sample variant cannot form a single valid anchor.
        rng = np.random.default_rng(1)
        train = ul.Dataset(
            rng.standard_normal((90, 2)), np.repeat([0, 1, 2], 30), 3
        )
        test = ul.Dataset(rng.standard_normal((30, 2)), np.tile([0, 1, 2], 10), 3)
        task = ul.make_task(
            train, test, ul.TaskSpec(kind="sample", sample_indices=tuple(range(30)))
        )
        arch = ul.ModelArchitecture(input_dim=2, hidden=(8,), embedding_dim=4, num_classes=3)
        start = constant_model(arch, predicted_class=0)
        cfg = ul.EngineConfig(
            seed=0,
            batch_size=8,
            max_unlearn_epochs=2,
            loss=ul.LossConfig(variant="sample"),
        )
        with pytest.raises(UnlearnableConfigurationError):
            ul.unlearn_contrastive(start, task, cfg)


class TestStepTerms:
    """The label-only terms and the stack a contrastive step reads, worked
    out per block of planned steps, are the public path's bit for bit."""

    @staticmethod
    def recorded_steps(monkeypatch, task, cfg, params):
        """Run one contrastive pass and return each step's (forgotten
        labels, remaining labels, forgotten features, remaining features,
        stack, terms) as the objective received them."""
        forgotten, steps = [], []
        real_batches, real_objective = engine._batches, engine._contrastive_objective

        def batches(view, size, seed):
            out = real_batches(view, size, seed)
            forgotten.extend(out)
            return out

        def objective(p, uf, rf, rl, stacked, terms, loss, unlearn_term):
            (ul_,) = [labels for features, labels, _ in forgotten if features is uf]
            steps.append((ul_, rl, uf, rf, stacked, terms))
            return real_objective(p, uf, rf, rl, stacked, terms, loss, unlearn_term)

        monkeypatch.setattr(engine, "_batches", batches)
        monkeypatch.setattr(engine, "_contrastive_objective", objective)
        _, record = ul.unlearn_contrastive(params, task, cfg)
        assert [r["kind"] for r in record.rows].count("pass") == 1
        return steps

    @staticmethod
    def assert_public_terms(kind, steps):
        label_terms = losses._UNLEARN_TERMS[kind][0]
        for ul_, rl, uf, rf, stacked, terms in steps:
            unit = np.ones((len(ul_), 1)), np.ones((len(rl), 1))
            sets = ul.build_contrast_sets(ul_, unit[0], rl, unit[1])
            (want,) = label_terms(sets.positive_mask[None], sets.negative_mask[None])
            assert len(terms) == len(want)
            for got, w in zip(terms, want):
                got, w = np.asarray(got), np.asarray(w)
                assert got.dtype == w.dtype and got.shape == w.shape
                assert got.tobytes() == w.tobytes()
            if len(uf) == len(rf):
                assert stacked.dtype == np.float64
                assert np.array_equal(stacked, np.array((rf, uf)))
            else:
                assert stacked is None

    @staticmethod
    def short_batch_pass(kind):
        """A one-pass run on wide_setup in batches of 7 rows, which leave a
        short last forgotten batch (30 class rows, 20 sampled ones):
        (params, task, cfg)."""
        params, train, test = wide_setup()
        if kind == "class":
            spec = ul.TaskSpec(kind="class", class_id=1)
        else:
            spec = ul.TaskSpec(kind="sample", sample_count=20, seed=13)
        cfg = ul.EngineConfig(
            seed=6, batch_size=7, remaining_resamples=2, max_unlearn_epochs=1,
            loss=ul.LossConfig(variant=kind, unlearn_weight=0.5),
        )
        return params, ul.make_task(train, test, spec), cfg

    @pytest.mark.parametrize("kind", ["class", "sample"])
    @pytest.mark.parametrize("block_values", [None, 3 * 7 * 8])
    def test_planned_terms_are_the_public_ones(self, monkeypatch, kind, block_values):
        # The short batch's steps make a block of their own. At 168 values a
        # block holds 3 steps (a mask batch is 7 x 7, a stack 2 x 7 x 4), so
        # the steps on full batches span 3 or 2 blocks.
        params, task, cfg = self.short_batch_pass(kind)
        if block_values is not None:
            monkeypatch.setattr(engine, "_BLOCK_VALUES", block_values)
        steps = self.recorded_steps(monkeypatch, task, cfg, params)
        self.assert_public_terms(kind, steps)
        full = sum(len(uf) == 7 for _, _, uf, *_ in steps)
        assert 0 < full < len(steps)
        blocks = {id(stacked.base) for *_, stacked, _ in steps if stacked is not None}
        assert len(blocks) == (1 if block_values is None else -(-full // 3))

    def test_redrawn_terms_are_the_public_ones(self, monkeypatch):
        # test_redraws_past_the_planned_batches_match_the_reference_loop's
        # task: redraws move planned batches off their slots and run past
        # the 4 x 2 planned ones.
        params, train, test = wide_setup()
        forgotten = tuple(train.class_indices(1)[:28])
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_indices=forgotten))
        cfg = ul.EngineConfig(
            seed=7, batch_size=7, remaining_resamples=2, max_unlearn_epochs=1,
            loss=ul.LossConfig(variant="sample", unlearn_weight=0.5),
        )
        steps = self.recorded_steps(monkeypatch, task, cfg, params)
        self.assert_public_terms("sample", steps)
        assert len(steps) > 4 * cfg.remaining_resamples
        assert all(len(uf) == 7 for _, _, uf, *_ in steps)

    @pytest.mark.parametrize("kind", ["class", "sample"])
    def test_large_pass_is_planned_in_blocks(self, kind):
        # Batches of 32 rows of width 8: a block holds 16 steps, whose mask
        # batches are 16 x 32 x 32 values and stacks 16 x 2 x 32 x 8. 300
        # class rows make 9 full forgotten batches and a short one of 12, so
        # 4 resamples plan 36 steps on full batches, in blocks of 16, 16 and
        # 4, and the short batch's 4 steps in a block of their own.
        train, test = ul.generate_synthetic(4, 8, 300, 10, seed=0)
        task = ul.make_task(train, test, ul.TaskSpec(kind="class", class_id=0))
        cfg = ul.EngineConfig(seed=0, batch_size=32, remaining_resamples=4)
        label_terms = engine._UNLEARN_TERMS[kind][0]
        forgotten = engine._batches(task.unlearn_train, 32, [0, TAG_UNLEARN_BATCHES, 0])
        rng = np.random.default_rng(0)
        plan = engine._contrastive_steps(task, forgotten, cfg, rng, label_terms)
        steps = [next(plan) for _ in range(len(forgotten) * cfg.remaining_resamples)]
        assert [slot for _, _, slot, _, _ in steps] == [j // 4 for j in range(40)]
        # A planned step's stack and term arrays are rows of its block's.
        stacks = {id(s.base): s.base for _, _, _, s, _ in steps[:36]}
        assert [block.shape[0] for block in stacks.values()] == [16, 16, 4]
        short = {
            id(t.base): t.base
            for *_, terms in steps[36:] for t in terms if isinstance(t, np.ndarray)
        }
        assert all(s is None for _, _, _, s, _ in steps[36:])
        assert short and all(block.shape[:2] == (4, 12) for block in short.values())
        arrays = list(stacks.values()) + list(short.values()) + [
            t.base for *_, terms in steps[:36] for t in terms if isinstance(t, np.ndarray)
        ]
        assert max(a.size for a in arrays) <= engine._BLOCK_VALUES

    @pytest.mark.parametrize("kind", ["class", "sample"])
    def test_a_pass_without_redraws_is_planned_whole(self, monkeypatch, kind):
        # Every slot takes one batch, so the pass works out no step's inputs
        # itself, the short batch's included.
        params, task, cfg = self.short_batch_pass(kind)
        callers, drawn = [], []
        step_inputs, draws = engine._step_inputs, engine._remaining_draws

        def recorded_step_inputs(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return step_inputs(*args)

        def recorded_draws(task, size, rng, count):
            drawn.append(count)
            return draws(task, size, rng, count)

        monkeypatch.setattr(engine, "_step_inputs", recorded_step_inputs)
        monkeypatch.setattr(engine, "_remaining_draws", recorded_draws)
        _, record = ul.unlearn_contrastive(params, task, cfg)
        slots = 2 * -(-len(task.unlearn_train) // 7)
        assert sum(drawn) == record.gradient_steps == slots
        assert callers == ["_contrastive_steps"] * 2

    @pytest.mark.parametrize(
        "width, batch_size, per_block", [(4, 16, 64), (512, 16, 1), (512, 40, 1)]
    )
    def test_blocks_hold_at_most_block_values(self, width, batch_size, per_block):
        # A step's stack holds 2 x batch_size rows of width values and its
        # masks batch_size rows of batch_size, so 2 blocks and 1 step more
        # come in blocks of per_block, per_block and 1.
        n = 2 * per_block + 1
        per_class = -(-(n + 1) * batch_size // 3)
        train, test = ul.generate_synthetic(3, width, per_class, 2, seed=0)
        spec = ul.TaskSpec(kind="sample", sample_count=n * batch_size, seed=0)
        task = ul.make_task(train, test, spec)
        cfg = ul.EngineConfig(batch_size=batch_size, remaining_resamples=1)
        forgotten = engine._batches(task.unlearn_train, batch_size, [0, TAG_UNLEARN_BATCHES, 0])
        rng = np.random.default_rng(0)
        plan = engine._contrastive_steps(task, forgotten, cfg, rng, losses._sample_terms)
        blocks = {}
        for _ in range(n):
            rf, rl, _, stacked, terms = next(plan)
            arrays = [rf, rl, stacked, *terms[1:]]
            for i, a in enumerate(arrays):
                while a.base is not None:  # the array the block's rows are in
                    a = a.base
                arrays[i] = a
            blocks.setdefault(id(arrays[2]), arrays)
        sizes = [arrays[2].shape[0] for arrays in blocks.values()]
        assert sizes == [per_block, per_block, 1]
        for arrays in blocks.values():
            assert arrays[2].shape[0] == 1 or max(a.size for a in arrays) <= engine._BLOCK_VALUES

    def test_errors_wait_for_the_first_batch(self):
        train, test = ul.generate_synthetic(3, 4, 20, 2, seed=0)
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=5, seed=0))
        cfg = ul.EngineConfig(batch_size=56)
        forgotten = engine._batches(task.unlearn_train, 56, [0, TAG_UNLEARN_BATCHES, 0])
        rng = np.random.default_rng(0)
        plan = engine._contrastive_steps(task, forgotten, cfg, rng, losses._sample_terms)
        with pytest.raises(ConfigurationError, match="remaining train view has 55 rows, need >= 56"):
            next(plan)


class TestFinetune:
    def test_descends_on_remaining_data(self):
        train, test, cfg = small_setup()
        params, _ = ul.train(
            SMALL_ARCH, train, ul.EngineConfig(seed=0, max_epochs=5, batch_size=16)
        )
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=10))
        fcfg = ul.EngineConfig(seed=0, batch_size=16, max_unlearn_epochs=5, learning_rate=0.05)
        _, record = ul.unlearn_finetune(params, task, fcfg)
        passes = [r for r in record.rows if r["kind"] == "pass"]
        if len(passes) >= 2:
            assert passes[-1]["mean_ce"] < passes[0]["mean_ce"]
        per_pass = int(np.ceil(len(task.remain_train) / fcfg.batch_size))
        assert record.gradient_steps == len(passes) * per_pass

    def test_matches_reference_loop_of_public_primitives(self):
        params, task = harder_setup()
        fcfg = ul.EngineConfig(seed=3, batch_size=16, max_unlearn_epochs=3, learning_rate=0.05)
        out, record = ul.unlearn_finetune(params, task, fcfg)
        passes = sum(r["kind"] == "pass" for r in record.rows)
        assert passes == 3
        want = reference_ce_passes(params, task.remain_train, TAG_TRAIN_BATCHES, fcfg, passes)
        assert_same_parameters(want, out)

    def test_matches_reference_loop_on_wide_widths(self):
        # Remaining batches of 7 rows on WIDE_ARCH (see TestTrain).
        params, train, test = wide_setup()
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=20, seed=13))
        fcfg = ul.EngineConfig(seed=6, batch_size=7, max_unlearn_epochs=2, learning_rate=0.05)
        out, record = ul.unlearn_finetune(params, task, fcfg)
        passes = sum(r["kind"] == "pass" for r in record.rows)
        assert passes == 2 and record.gradient_steps == 2 * 10
        want = reference_ce_passes(params, task.remain_train, TAG_TRAIN_BATCHES, fcfg, passes)
        assert_same_parameters(want, out)

    def test_divergence_is_reported(self):
        # A constant-start model would have zero encoder gradients and
        # never overflow; the start must be a genuinely trained model.
        params, task = harder_setup()
        cfg = ul.EngineConfig(seed=0, batch_size=16, learning_rate=1e160, max_unlearn_epochs=3)
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError):
                ul.unlearn_finetune(params, task, cfg)


class TestNegGrad:
    def test_ascent_reduces_unlearning_accuracy(self):
        params, task = harder_setup()
        before = ul.accuracy(params, task.unlearn_train)
        ncfg = ul.EngineConfig(seed=0, batch_size=8, learning_rate=0.2, max_unlearn_epochs=10)
        out, record = ul.unlearn_neggrad(params, task, ncfg)
        assert ul.accuracy(out, task.unlearn_train) < before
        assert record.method == "neggrad"

    def test_divergence_guard_halts_the_run(self, monkeypatch):
        params, task = harder_setup()
        # An absurdly low cap trips the guard on the already-trained model.
        monkeypatch.setattr(engine, "DIVERGENCE_FACTOR", 1e-6)
        ncfg = ul.EngineConfig(seed=0, batch_size=8, learning_rate=0.2)
        _, record = ul.unlearn_neggrad(params, task, ncfg)
        assert record.termination_reason == "error"
        assert record.termination_detail == "divergence-guard"

    def test_non_finite_ascent_is_recorded_not_raised(self):
        params, task = harder_setup()
        ncfg = ul.EngineConfig(seed=0, batch_size=8, learning_rate=1e160, max_unlearn_epochs=5)
        with np.errstate(over="ignore"):
            out, record = ul.unlearn_neggrad(params, task, ncfg)
        assert record.termination_reason == "error"
        assert record.termination_detail == "non-finite-loss"

    def test_overflowing_first_update_returns_the_starting_parameters(self):
        # On features of size 1e-6 the first forward stays finite and the
        # first update overflows (as in test_overflowing_update_is_a_divergence).
        # The update is checked before it is written, so the run ends on the
        # parameters it started from.
        train, test, _ = small_setup()
        tiny = ul.Dataset(train.features * 1e-6, train.labels, 2)
        tiny_test = ul.Dataset(test.features * 1e-6, test.labels, 2)
        task = ul.make_task(tiny, tiny_test, ul.TaskSpec(kind="sample", sample_count=10, seed=2))
        params = ul.init_parameters(SMALL_ARCH, seed=0)
        ncfg = ul.EngineConfig(seed=0, batch_size=16, learning_rate=1e306, max_unlearn_epochs=3)
        out, record = ul.unlearn_neggrad(params, task, ncfg)
        assert record.gradient_steps == 0 and record.rows[-1]["kind"] == "pass"
        assert record.termination_detail == "non-finite-loss"
        assert_same_parameters(params, out)

    def test_overflowing_evaluation_is_recorded_not_raised(self):
        # One batch holds all 20 unlearning rows, so the ascent step stays
        # finite and the termination evaluation is the first to overflow.
        params, task = harder_setup()
        task = ul.make_task(task.train, task.test, ul.TaskSpec(kind="sample", sample_count=20))
        ncfg = ul.EngineConfig(seed=0, batch_size=32, learning_rate=1e100, max_unlearn_epochs=5)
        out, record = ul.unlearn_neggrad(params, task, ncfg)
        want = reference_ce_passes(
            params, task.unlearn_train, TAG_UNLEARN_BATCHES, ncfg, 1, ascend=True
        )
        assert_same_parameters(want, out)
        assert record.gradient_steps == 1
        assert record.rows[-1]["kind"] == "evaluation" and record.rows[-1]["epoch"] == 1
        assert record.rows[-1]["halt"] == "non-finite-loss"
        assert record.termination_reason == "error"
        assert record.termination_detail == "non-finite-loss"

    def test_matches_reference_loop_of_public_primitives(self):
        params, task = harder_setup()
        ncfg = ul.EngineConfig(seed=3, batch_size=4, max_unlearn_epochs=2, learning_rate=0.01)
        out, record = ul.unlearn_neggrad(params, task, ncfg)
        passes = sum(r["kind"] == "pass" for r in record.rows)
        assert passes == 2
        want = reference_ce_passes(
            params, task.unlearn_train, TAG_UNLEARN_BATCHES, ncfg, passes, ascend=True
        )
        assert_same_parameters(want, out)

    def test_matches_reference_loop_on_wide_widths(self):
        # Forgotten batches of 7, 7 and 6 rows on WIDE_ARCH (see TestTrain).
        params, train, test = wide_setup()
        task = ul.make_task(train, test, ul.TaskSpec(kind="sample", sample_count=20, seed=13))
        ncfg = ul.EngineConfig(seed=6, batch_size=7, max_unlearn_epochs=2, learning_rate=0.05)
        out, record = ul.unlearn_neggrad(params, task, ncfg)
        passes = sum(r["kind"] == "pass" for r in record.rows)
        assert passes == 2 and record.gradient_steps == 2 * 3
        want = reference_ce_passes(
            params, task.unlearn_train, TAG_UNLEARN_BATCHES, ncfg, passes, ascend=True
        )
        assert_same_parameters(want, out)

    def test_overflowing_update_keeps_last_good_parameters(self, monkeypatch):
        params, task = harder_setup()
        ncfg = ul.EngineConfig(seed=0, batch_size=4, learning_rate=0.01, max_unlearn_epochs=5)
        overwrite = ul.ModelParameters._overwrite
        good = []

        def overflows_on_third_update(params, flat):
            if len(good) == 2:
                raise NonFiniteError("update overflowed")
            overwrite(params, flat)
            good.append(params._snapshot())

        monkeypatch.setattr(ul.ModelParameters, "_overwrite", overflows_on_third_update)
        out, record = ul.unlearn_neggrad(params, task, ncfg)
        assert_same_parameters(good[-1], out)
        assert record.gradient_steps == 2
        assert record.rows[-1]["kind"] == "pass" and record.rows[-1]["epoch"] == 0
        assert record.rows[-1]["mean_ce"] > 0
        assert record.termination_reason == "error"
        assert record.termination_detail == "non-finite-loss"


def test_overflowing_runs_emit_no_runtime_warning():
    # The ops check finiteness themselves, so numpy's overflow warnings
    # are silenced inside the run loops; the outcomes stay the same.
    params, task = harder_setup()
    fcfg = ul.EngineConfig(seed=0, batch_size=16, learning_rate=1e160, max_unlearn_epochs=3)
    ncfg = ul.EngineConfig(seed=0, batch_size=8, learning_rate=1e160, max_unlearn_epochs=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            ul.unlearn_finetune(params, task, fcfg)
        _, record = ul.unlearn_neggrad(params, task, ncfg)
    assert record.termination_reason == "error"
    assert record.termination_detail == "non-finite-loss"


class TestRunOwnership:
    """Each run updates a private working copy of its starting parameters
    and returns a frozen snapshot of it."""

    @staticmethod
    def runs():
        params, task = harder_setup()
        cfg = ul.EngineConfig(
            seed=0, batch_size=16, learning_rate=0.1, max_epochs=2, max_unlearn_epochs=2
        )
        contrastive_cfg = ul.EngineConfig(
            seed=0, batch_size=16, learning_rate=0.1, max_unlearn_epochs=2,
            loss=ul.LossConfig(variant="sample"),
        )
        zero_cfg = ul.EngineConfig(seed=0, batch_size=16, max_unlearn_epochs=0)
        return params, {
            "train": lambda: ul.train(SMALL_ARCH, task.train, cfg),
            "retrain": lambda: ul.retrain(SMALL_ARCH, task, cfg),
            "contrastive": lambda: ul.unlearn_contrastive(params, task, contrastive_cfg),
            "finetune": lambda: ul.unlearn_finetune(params, task, cfg),
            "neggrad": lambda: ul.unlearn_neggrad(params, task, cfg),
            "finetune-no-epochs": lambda: ul.unlearn_finetune(params, task, zero_cfg),
        }

    @pytest.mark.parametrize(
        "run", ["train", "retrain", "contrastive", "finetune", "neggrad", "finetune-no-epochs"]
    )
    def test_run_leaves_its_input_and_returns_an_unshared_frozen_copy(self, run):
        params, runs = self.runs()
        before = params._flat.tobytes()
        out, record = runs[run]()
        again, _ = runs[run]()
        if run != "finetune-no-epochs":
            assert record.gradient_steps > 0
        # The caller's parameters: same bytes, still read-only views of one buffer.
        assert params._flat.tobytes() == before
        assert not params._flat.flags.writeable
        assert all(
            not t.data.flags.writeable and np.shares_memory(t.data, params._flat)
            for t in params.as_list()
        )
        # The result: read-only, and its own memory.
        assert not out._flat.flags.writeable
        assert all(not t.data.flags.writeable for t in out.as_list())
        assert not np.shares_memory(out._flat, params._flat)
        assert not np.shares_memory(out._flat, again._flat)
        assert params_equal(out, again)
