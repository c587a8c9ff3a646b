"""Acceptance suite: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines. The expensive artifacts (trained models, retrain references,
unlearned models) come from the session-scoped pipelines fixture and are
shared across criteria.
"""

import json
import math
import time

import numpy as np

import unlearnlab as ul
from composed_ops import add, finite_difference_gradient, gradient_relative_error, multiply
from conftest import SEEDS
from unlearnlab.cli import main as cli_main
from unlearnlab.engine import check_termination_class, check_termination_sample
from unlearnlab.losses import (
    build_contrast_sets,
    class_unlearn_loss,
    cross_entropy_loss,
    sample_unlearn_loss,
)
from unlearnlab.model import encode, head_logits, init_parameters
from unlearnlab.tensor import GradTape


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}{suffix}")


# -- criterion 1: analytic gradients match central finite differences -----


def _flatten(arrays) -> np.ndarray:
    return np.concatenate([np.asarray(a).reshape(-1) for a in arrays])


def _unflatten(flat, params):
    out, pos = [], 0
    for t in params.as_list():
        out.append(flat[pos : pos + t.size].reshape(t.shape))
        pos += t.size
    return out


def _objective(kind, params, ax, ay, rx, ry, tau, uw, cw):
    """One training objective as a function of the model parameters,
    mirroring what a contrastive unlearning step optimizes."""
    z_r = encode(params, rx)
    if kind == "ce":
        return cross_entropy_loss(head_logits(params, z_r), ry)
    z_a = encode(params, ax)
    sets = build_contrast_sets(ay, z_a, ry, z_r)
    if kind == "sample":
        return sample_unlearn_loss(sets, tau)
    if kind == "class":
        return class_unlearn_loss(sets, tau)
    unlearn = sample_unlearn_loss(sets, tau)
    ce = cross_entropy_loss(head_logits(params, z_r), ry)
    return add(multiply(unlearn, uw), multiply(ce, cw))


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    instances = 0
    for kind in ("sample", "class", "ce", "combined"):
        for _ in range(6):
            num_classes = int(rng.integers(2, 4))
            # tanh keeps every objective smooth, which a central
            # difference at step 1e-5 requires; relu's kink gradient is
            # pinned down by the unit tests instead.
            arch = ul.ModelArchitecture(
                input_dim=int(rng.integers(2, 5)),
                hidden=(int(rng.integers(3, 6)),),
                embedding_dim=int(rng.integers(3, 5)),
                num_classes=num_classes,
                activation="tanh",
            )
            params = init_parameters(arch, seed=int(rng.integers(10_000)))
            n_anchor = int(rng.integers(2, 7))
            n_remain = int(rng.integers(num_classes, 8))
            ax = rng.standard_normal((n_anchor, arch.input_dim))
            rx = rng.standard_normal((n_remain, arch.input_dim))
            ay = rng.integers(0, num_classes, size=n_anchor)
            # Every class appears in the remaining batch, so each anchor
            # has both positives and negatives.
            ry = np.concatenate(
                [np.arange(num_classes), rng.integers(0, num_classes, n_remain - num_classes)]
            )
            tau = float(rng.uniform(0.3, 1.5))
            uw = float(rng.uniform(0.25, 2.0))
            cw = float(rng.uniform(0.25, 2.0))

            with GradTape() as tape:
                loss = _objective(kind, params, ax, ay, rx, ry, tau, uw, cw)
            analytic = _flatten([g.data for g in tape.gradient(loss, params.as_list())])

            theta0 = _flatten([t.data for t in params.as_list()])

            def value(theta):
                probe = params.replace(_unflatten(theta, params))
                return _objective(kind, probe, ax, ay, rx, ry, tau, uw, cw).item()

            numeric = finite_difference_gradient(value, theta0, step=1e-5)
            worst = max(worst, gradient_relative_error(analytic, numeric))
            instances += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and instances >= 20 and elapsed < 10.0
    report(
        1,
        "gradient correctness",
        ok,
        f"max relative error {worst:.2e} over {instances} instances in {elapsed:.1f}s",
    )
    assert worst <= 1e-4
    assert instances >= 20
    assert elapsed < 10.0


# -- criterion 2: batched losses equal the naive double loop --------------


def _naive_losses(a_emb, a_lab, r_emb, r_lab, tau):
    total_s, total_c = 0.0, 0.0
    for ai, la in zip(a_emb, a_lab):
        pos = [j for j, lr in enumerate(r_lab) if lr == la]
        neg = [j for j, lr in enumerate(r_lab) if lr != la]
        if neg:
            neg_term = -sum(float(ai @ r_emb[j]) / tau for j in neg) / len(neg)
            total_c += neg_term + math.log(len(neg))
            if pos:
                total_s += neg_term + math.log(
                    sum(math.exp(float(ai @ r_emb[j]) / tau) for j in pos)
                )
    return total_s, total_c


def test_criterion_2_loss_oracle_equivalence():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst = 0.0
    done = 0
    while done < 100:
        n_classes = int(rng.integers(2, 5))
        n_anchor = int(rng.integers(1, 9))
        n_remain = int(rng.integers(2, 9))
        d = int(rng.integers(2, 8))
        a_lab = rng.integers(0, n_classes, size=n_anchor)
        r_lab = rng.integers(0, n_classes, size=n_remain)
        valid_s = any((r_lab == la).any() and (r_lab != la).any() for la in a_lab)
        valid_c = any((r_lab != la).any() for la in a_lab)
        if not (valid_s and valid_c):
            continue
        a_emb = rng.standard_normal((n_anchor, d))
        a_emb /= np.linalg.norm(a_emb, axis=1, keepdims=True)
        r_emb = rng.standard_normal((n_remain, d))
        r_emb /= np.linalg.norm(r_emb, axis=1, keepdims=True)
        tau = float(rng.uniform(0.2, 2.0))
        sets = build_contrast_sets(a_lab, a_emb, r_lab, r_emb)
        got_s = sample_unlearn_loss(sets, tau).item()
        got_c = class_unlearn_loss(sets, tau).item()
        want_s, want_c = _naive_losses(a_emb, a_lab, r_emb, r_lab, tau)
        worst = max(worst, abs(got_s - want_s), abs(got_c - want_c))
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(2, "loss oracle equivalence", ok, f"max |diff| {worst:.2e} on 100 batches in {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


# -- criterion 3: class unlearning accuracy profile ------------------------


def test_criterion_3_class_unlearning(pipelines):
    details = []
    ok = True
    for seed in SEEDS:
        p = pipelines[seed]
        model, record = p.class_unlearn
        reference, _ = p.class_retrain
        task = p.class_task
        u_ts = ul.accuracy(model, task.unlearn_test)
        u_tr = ul.accuracy(model, task.unlearn_train)
        r_ts = ul.accuracy(model, task.remain_test)
        floor = ul.accuracy(reference, task.remain_test) - 0.05
        seed_ok = (
            u_ts <= 0.25
            and u_tr <= 0.25
            and r_ts >= floor
            and record.duration_seconds < 120.0
        )
        ok = ok and seed_ok
        details.append(
            f"seed {seed}: u_ts {u_ts:.3f} u_tr {u_tr:.3f} r_ts {r_ts:.3f} floor {floor:.3f} "
            f"in {record.duration_seconds:.1f}s"
        )
    report(3, f"class unlearning (class {task.class_id})", ok, "; ".join(details))
    assert ok, details


# -- criterion 4: sample unlearning accuracy profile -----------------------


def test_criterion_4_sample_unlearning(pipelines):
    details = []
    ok = True
    for seed in SEEDS:
        p = pipelines[seed]
        model, record = p.sample_unlearn
        reference, _ = p.sample_retrain
        task = p.sample_task
        acc_u = ul.accuracy(model, task.unlearn_train)
        acc_ts = ul.accuracy(model, task.test)
        floor = ul.accuracy(reference, task.test) - 0.05
        gap = abs(acc_u - acc_ts)
        seed_ok = gap <= 0.05 and acc_ts >= floor and record.duration_seconds < 120.0
        ok = ok and seed_ok
        details.append(
            f"seed {seed}: |u-ts| {gap:.3f} ts {acc_ts:.3f} floor {floor:.3f} "
            f"in {record.duration_seconds:.1f}s"
        )
    report(4, "sample unlearning", ok, "; ".join(details))
    assert ok, details


# -- criterion 5: contrastive unlearning beats retraining on wall-clock ---


def test_criterion_5_timeliness(pipelines):
    details = []
    ok = True
    for seed in SEEDS:
        p = pipelines[seed]
        pairs = {
            "class": (p.class_unlearn[1], p.class_retrain[1]),
            "sample": (p.sample_unlearn[1], p.sample_retrain[1]),
        }
        for kind, (unlearn_rec, retrain_rec) in pairs.items():
            ok = ok and unlearn_rec.duration_seconds < retrain_rec.duration_seconds
            details.append(
                f"seed {seed} {kind}: {unlearn_rec.duration_seconds:.2f}s vs "
                f"retrain {retrain_rec.duration_seconds:.2f}s"
            )
    report(5, "timeliness vs retrain", ok, "; ".join(details))
    assert ok, details


# -- criterion 6: membership-inference gap ---------------------------------


def test_criterion_6_mia_gap(pipelines):
    start = time.perf_counter()
    details = []
    seeds_ok = 0
    for seed in SEEDS:
        p = pipelines[seed]
        contrastive_model, _ = p.sample_unlearn
        neggrad_model, _ = p.sample_neggrad
        task = p.sample_task
        mia_c = ul.run_mia(contrastive_model, task, split_seed=seed)
        mia_n = ul.run_mia(neggrad_model, task, split_seed=seed)
        gap_c = mia_c.member_rate_heldout_members - mia_c.member_rate_unlearn
        gap_n = mia_n.member_rate_heldout_members - mia_n.member_rate_unlearn
        hit = gap_c >= 0.10 and gap_c > gap_n
        seeds_ok += int(hit)
        details.append(f"seed {seed}: gap {gap_c:+.3f} vs neggrad {gap_n:+.3f}")
    elapsed = time.perf_counter() - start
    ok = seeds_ok >= 2 and elapsed < 180.0
    report(6, "membership-inference gap", ok, f"{seeds_ok}/3 seeds; {'; '.join(details)}; {elapsed:.1f}s")
    assert seeds_ok >= 2, details
    assert elapsed < 180.0


# -- criterion 7: termination predicates at their boundaries ---------------


def _constant_model(arch, predicted_class):
    params = init_parameters(arch, seed=0)
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


def _view(labels, num_classes):
    rng = np.random.default_rng(0)
    labels = np.asarray(labels)
    return ul.Dataset(rng.standard_normal((len(labels), 2)), labels, num_classes)


def test_criterion_7_termination_boundaries():
    arch4 = ul.ModelArchitecture(input_dim=2, hidden=(4,), embedding_dim=3, num_classes=4)
    model4 = _constant_model(arch4, predicted_class=1)
    cases = []
    # Accuracy exactly 1/C terminates (inclusive), one row above does not.
    cases.append(check_termination_class(model4, _view([1, 1, 0, 0, 2, 2, 3, 3], 4), 4) is True)
    cases.append(check_termination_class(model4, _view([1, 1, 1, 0, 2, 2, 3, 3], 4), 4) is False)
    cases.append(check_termination_class(model4, _view([1, 0, 0, 0, 2, 2, 3, 3], 4), 4) is True)
    cases.append(check_termination_class(model4, _view([0, 2, 3, 0], 4), 4) is True)

    # 1/3 is not exactly representable; both sides round identically.
    arch3 = ul.ModelArchitecture(input_dim=2, hidden=(4,), embedding_dim=3, num_classes=3)
    model3 = _constant_model(arch3, predicted_class=0)
    cases.append(check_termination_class(model3, _view([0, 1, 2], 3), 3) is True)
    cases.append(check_termination_class(model3, _view([0, 0, 1], 3), 3) is False)

    # Sample rule: unlearning accuracy at or below test accuracy.
    half = _view([1, 0, 1, 0], 4)
    quarter = _view([1, 0, 0, 0], 4)
    cases.append(check_termination_sample(model4, half, half) is True)
    cases.append(check_termination_sample(model4, half, quarter) is False)
    cases.append(check_termination_sample(model4, quarter, half) is True)

    ok = all(cases)
    report(7, "termination boundary cases", ok, f"{sum(cases)}/{len(cases)} exact")
    assert ok, cases


# -- criterion 8: every command reproduces bit-exactly from its echo -------


def _cli(*argv):
    assert cli_main(list(argv)) == 0


def _run_json_without_timing(path):
    record = json.loads(path.read_text())
    record.pop("duration_seconds")
    return record


def test_criterion_8_cli_determinism(tmp_path):
    config = {
        "dataset": {
            "synthetic": {
                "num_classes": 3,
                "dim": 4,
                "per_class_train": 60,
                "per_class_test": 30,
                "spread": 1.5,
                "seed": 5,
            }
        },
        "architecture": {"hidden": [8], "embedding_dim": 6},
        "engine": {
            "batch_size": 16,
            "max_epochs": 25,
            "max_unlearn_epochs": 6,
            "learning_rate": 0.1,
            "seed": 5,
        },
        "loss": {"unlearn_weight": 0.05},
        "task": {"kind": "class", "class_id": 1},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    a = tmp_path / "a"
    _cli("gen-data", "--config", str(cfg_path), "--out", str(a / "data"))
    _cli("train", "--config", str(cfg_path), "--out", str(a / "base"))
    _cli(
        "unlearn",
        "--config",
        str(cfg_path),
        "--out",
        str(a / "unlearned"),
        "--method",
        "contrastive",
        "--from",
        str(a / "base" / "model.ckpt"),
    )
    _cli(
        "eval",
        "--config",
        str(cfg_path),
        "--out",
        str(a / "report"),
        "--model",
        str(a / "unlearned" / "model.ckpt"),
    )
    _cli(
        "mia",
        "--config",
        str(cfg_path),
        "--out",
        str(a / "mia"),
        "--model",
        str(a / "unlearned" / "model.ckpt"),
    )

    b = tmp_path / "b"
    checks = []
    _cli("gen-data", "--config", str(a / "data" / "config.echo.json"), "--out", str(b / "data"))
    checks.append(
        ("gen-data", (a / "data" / "train.csv").read_bytes() == (b / "data" / "train.csv").read_bytes()
         and (a / "data" / "test.csv").read_bytes() == (b / "data" / "test.csv").read_bytes())
    )
    _cli("train", "--config", str(a / "base" / "config.echo.json"), "--out", str(b / "base"))
    checks.append(
        ("train", (a / "base" / "model.ckpt").read_bytes() == (b / "base" / "model.ckpt").read_bytes()
         and _run_json_without_timing(a / "base" / "run.json")
         == _run_json_without_timing(b / "base" / "run.json"))
    )
    _cli(
        "unlearn",
        "--config",
        str(a / "unlearned" / "config.echo.json"),
        "--out",
        str(b / "unlearned"),
    )
    checks.append(
        ("unlearn",
         (a / "unlearned" / "model.ckpt").read_bytes() == (b / "unlearned" / "model.ckpt").read_bytes()
         and _run_json_without_timing(a / "unlearned" / "run.json")
         == _run_json_without_timing(b / "unlearned" / "run.json"))
    )
    _cli("eval", "--config", str(a / "report" / "config.echo.json"), "--out", str(b / "report"))
    checks.append(
        ("eval", (a / "report" / "eval.json").read_bytes() == (b / "report" / "eval.json").read_bytes()
         and (a / "report" / "geometry.csv").read_bytes() == (b / "report" / "geometry.csv").read_bytes())
    )
    _cli("mia", "--config", str(a / "mia" / "config.echo.json"), "--out", str(b / "mia"))
    checks.append(
        ("mia", (a / "mia" / "mia.json").read_bytes() == (b / "mia" / "mia.json").read_bytes())
    )

    ok = all(match for _, match in checks)
    detail = ", ".join(f"{name} {'=' if match else '!='}" for name, match in checks)
    report(8, "bit-exact reruns from echoed configs", ok, detail)
    assert ok, checks


# -- criterion 9: unlearning moves embeddings off their class centroid ----


def test_criterion_9_geometry_direction(pipelines):
    details = []
    ok = True
    for seed in SEEDS:
        p = pipelines[seed]
        task = p.sample_task
        before = ul.embedding_geometry(p.base[0], task).mean_own_similarity
        after = ul.embedding_geometry(p.sample_unlearn[0], task).mean_own_similarity
        ok = ok and after < before
        details.append(f"seed {seed}: own-class cosine {before:.3f} -> {after:.3f}")
    report(9, "embedding geometry direction", ok, "; ".join(details))
    assert ok, details
