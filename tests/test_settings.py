"""One rule for every count and seed, and one for every real-valued setting.

Each entry point that takes a count or a seed rejects a bool, a float
(even a whole one), a string, None and a value below its minimum with a
ValidationError that names the field, and takes numpy integers as it
takes ints; a seed sequence is checked entry by entry.
"""

import json
import re

import numpy as np
import pytest

import unlearnlab as ul
from unlearnlab.data import batches
from unlearnlab.errors import ValidationError

TRAIN, TEST = ul.generate_synthetic(3, 4, 10, 5, seed=0)
ARCH = ul.ModelArchitecture(input_dim=4, hidden=(6,), embedding_dim=3, num_classes=3)
PARAMS = ul.init_parameters(ARCH, seed=0)
TASK = ul.make_task(TRAIN, TEST, ul.TaskSpec(kind="sample", sample_count=3))
SYNTHETIC = dict(num_classes=3, dim=2, per_class_train=4, per_class_test=2, seed=0)

# (entry point, field as the message names it, minimum, a valid value,
# the call with the field set to a value)
CASES = [
    *[
        ("EngineConfig", name, minimum, valid, lambda v, name=name: ul.EngineConfig(**{name: v}))
        for name, minimum, valid in (
            ("batch_size", 2, 16),
            ("remaining_resamples", 1, 2),
            ("max_epochs", 0, 3),
            ("max_unlearn_epochs", 0, 3),
            ("termination_every", 1, 2),
            ("seed", 0, 5),
        )
    ],
    ("ModelArchitecture", "input_dim", 1, 8, lambda v: ul.ModelArchitecture(v, (4,), 3, 2)),
    ("ModelArchitecture", "hidden[1]", 1, 8, lambda v: ul.ModelArchitecture(2, (4, v), 3, 2)),
    ("ModelArchitecture", "embedding_dim", 1, 8, lambda v: ul.ModelArchitecture(2, (4,), v, 2)),
    ("ModelArchitecture", "num_classes", 2, 3, lambda v: ul.ModelArchitecture(2, (4,), 3, v)),
    ("init_parameters", "seed", 0, 4, lambda v: ul.init_parameters(ARCH, v)),
    ("Dataset", "num_classes", 2, 3, lambda v: ul.Dataset(np.zeros((3, 2)), [0, 1, 1], v)),
    *[
        ("generate_synthetic", name, minimum, valid,
         lambda v, name=name: ul.generate_synthetic(**{**SYNTHETIC, name: v}))
        for name, minimum, valid in (
            ("num_classes", 2, 3),
            ("dim", 2, 3),
            ("per_class_train", 1, 2),
            ("per_class_test", 1, 2),
            ("seed", 0, 7),
        )
    ],
    ("make_task", "seed", 0, 3,
     lambda v: ul.make_task(TRAIN, TEST, ul.TaskSpec(kind="sample", sample_count=3, seed=v))),
    ("make_task", "class_id", 0, 2,
     lambda v: ul.make_task(TRAIN, TEST, ul.TaskSpec(kind="class", class_id=v))),
    ("make_task", "sample_count", 1, 3,
     lambda v: ul.make_task(TRAIN, TEST, ul.TaskSpec(kind="sample", sample_count=v))),
    ("batches", "batch_size", 1, 4, lambda v: batches(TRAIN, v, 0)),
    ("batches", "seed", 0, 3, lambda v: batches(TRAIN, 4, v)),
    # A sequence of seeds, as the engine passes [seed, tag, epoch].
    ("batches", "seed[1]", 0, 3, lambda v: batches(TRAIN, 4, [0, v, 1])),
    ("run_mia", "split_seed", 0, 1, lambda v: ul.run_mia(PARAMS, TASK, split_seed=v)),
]
IDS = [f"{entry}-{field}" for entry, field, *_ in CASES]


@pytest.mark.parametrize("entry, field, minimum, valid, call", CASES, ids=IDS)
@pytest.mark.parametrize("kind", ["bool", "float", "whole-float", "string", "none", "below"])
def test_non_integer_or_small_value_is_named(entry, field, minimum, valid, call, kind):
    bad = {
        "bool": True, "float": 2.5, "whole-float": float(valid), "string": "3", "none": None,
        "below": minimum - 1,
    }[kind]
    with pytest.raises(ValidationError, match=re.escape(field) + " must be an integer"):
        call(bad)


@pytest.mark.parametrize("entry, field, minimum, valid, call", CASES, ids=IDS)
def test_numpy_integer_is_taken_as_an_int(entry, field, minimum, valid, call):
    call(np.int64(valid))
    call(np.int32(valid))


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: ul.EngineConfig(remaining_resamples=5), "remaining_resamples"),
        (lambda: ul.make_task(TRAIN, TEST, ul.TaskSpec(kind="class", class_id=3)), "class_id"),
    ],
)
def test_value_above_its_maximum_is_named(call, field):
    with pytest.raises(ValidationError, match=f"{field} must be an integer in "):
        call()


def test_engine_config_with_numpy_counts_dumps_to_json():
    counts = dict(
        batch_size=16, remaining_resamples=2, max_epochs=3, max_unlearn_epochs=4,
        termination_every=2, seed=5,
    )
    cfg = ul.EngineConfig(**{name: np.int64(v) for name, v in counts.items()})
    assert json.dumps(cfg.to_dict()) == json.dumps(ul.EngineConfig(**counts).to_dict())
    assert all(type(getattr(cfg, name)) is int for name in counts)


def test_numpy_real_settings_dump_to_json_as_python_numbers():
    cfg = ul.EngineConfig(
        learning_rate=np.float32(0.5),
        loss=ul.LossConfig(
            temperature=np.float32(0.25), unlearn_weight=np.int64(1), ce_weight=np.float64(2.0)
        ),
    )
    assert json.loads(json.dumps(cfg.to_dict()))["loss"] == {
        "temperature": 0.25, "unlearn_weight": 1, "ce_weight": 2.0, "variant": "sample",
    }
    assert type(cfg.learning_rate) is float and type(cfg.loss.unlearn_weight) is int
    assert type(cfg.loss.temperature) is float and type(cfg.loss.ce_weight) is float
    # Python numbers stay as given, so an int setting still reads as an int.
    given = ul.EngineConfig(learning_rate=1, loss=ul.LossConfig(temperature=2, ce_weight=0.5))
    assert (given.learning_rate, given.loss.temperature, given.loss.ce_weight) == (1, 2, 0.5)
    assert type(given.learning_rate) is int and type(given.loss.temperature) is int


def test_every_bad_count_is_listed():
    with pytest.raises(ValidationError) as info:
        ul.EngineConfig(batch_size="x", seed=None, max_epochs=-1)
    assert all(name in str(info.value) for name in ("batch_size", "seed", "max_epochs"))


@pytest.mark.parametrize("field", ["learning_rate", "temperature", "unlearn_weight", "ce_weight"])
@pytest.mark.parametrize(
    "value", ["0.1", None, True, 10**400], ids=["string", "none", "bool", "huge-int"]
)
def test_non_number_real_setting_is_named_with_the_others(field, value):
    # A second bad setting shows the field is listed with the rest, not
    # raised alone as the bare TypeError of math.isfinite.
    if field == "learning_rate":
        build, other = lambda: ul.EngineConfig(batch_size=1, learning_rate=value), "batch_size"
    else:
        build, other = lambda: ul.LossConfig(variant="none", **{field: value}), "variant"
    with pytest.raises(ValidationError) as info:
        build()
    assert field in str(info.value) and other in str(info.value)


def test_real_settings_take_any_real_number():
    cfg = ul.EngineConfig(
        learning_rate=np.float32(0.5),
        loss=ul.LossConfig(temperature=1, unlearn_weight=np.int64(0), ce_weight=np.float64(2.0)),
    )
    assert cfg.learning_rate == 0.5 and cfg.loss.temperature == 1
