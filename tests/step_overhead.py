"""Print what a training step and the two contrastive steps cost in the
library against the same steps written inline in numpy.

The steps run on the seed-0 standard experiment's data and architecture
(8 -> 32 -> 32 -> 16 -> 4, relu, batches of 32), as ``demos/standard.py``'s
``Pipeline`` builds them from ``experiments/standard/``: the training
step with ``train.json``'s settings on the train split's first epoch of
batches, the class contrastive step with ``class.json``'s settings on the
class task, and the sample contrastive step with ``sample.json``'s on the
sample task. A contrastive step takes the planned steps of a task's full
forgotten batches in its first passes, as the engine's pass plans them
(``engine._contrastive_steps``): each pair of batches as one stacked
encoder pass, with its label-only terms worked out for the whole block.

The library's step is ``engine._sgd_step`` on the engine's own objective
(``engine._ce_objective``, ``engine._contrastive_objective``). The inline
step makes the same numpy calls in the same order, with the same finite
checks at the same sites, and reads the same stacks and label-only
terms, but keeps no tape, no Tensor and no helper functions: it is the
floor the library's step can be compared with.
Unlike ``perfbench/floor.py``, which skips the checks and rounds
differently, it must give the library's update bit for bit, and the
script raises ``AssertionError`` after the first step on which it does
not. From the same starting parameters, the two take STEPS steps each,
interleaved, and each side's parameters are compared byte for byte after
every step.

It prints each side's 10th percentile of the whole step and of its taped
forward (the objective under a ``GradTape``, or the inline forward) in
microseconds, and the share of the library's step that the inline step
does not spend, its bookkeeping. To compare two trees:

    python tests/step_overhead.py ../parent/src
    python tests/step_overhead.py

The optional argument is the source directory to import ``unlearnlab``
from, ``src`` next to this file's directory by default; ``standard``
comes from this tree's ``demos`` either way. Set OPENBLAS_NUM_THREADS=1
as CI does. The times are printed, not checked: they depend on the
machine and its load. pytest does not collect this file; it is a script,
not a test.
"""
import itertools
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
STEPS = 3000
NORM_EPSILON = 1e-12


def check(arr) -> None:
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise FloatingPointError("non-finite values")


def encoder(x, ws):
    """Unit-norm embeddings of a (B, K) batch or a (P, B, K) stack, with the
    norms and every layer's input, for the backward."""
    dot = np.dot if x.ndim == 2 else np.matmul
    hidden = [x]
    for i in range(0, len(ws) - 2, 2):
        out = dot(hidden[-1], ws[i])
        out += ws[i + 1]
        check(out)
        np.maximum(out, 0.0, out=out)
        hidden.append(out)
    emb = dot(hidden[-1], ws[-2])
    emb += ws[-1]
    check(emb)
    norms = np.sqrt(np.add.reduce(emb * emb, axis=-1, keepdims=True))
    if not (
        np.maximum.reduce(norms, axis=None, initial=0.0) < math.inf
        and np.minimum.reduce(norms, axis=None, initial=math.inf) > NORM_EPSILON
    ):
        raise FloatingPointError("norm out of bounds")
    return emb / norms, norms, hidden


def encoder_backward(g, z, norms, hidden, ws):
    """The encoder's weight adjoints, in the order of ws; a stack's keep
    their part axis."""
    dot = np.dot if g.ndim == 2 else np.matmul
    inner = np.add.reduce(z * g, axis=-1, keepdims=True)
    g = (g - z * inner) / norms
    grads = []
    for i in range(len(ws) - 2, -1, -2):
        if i < len(ws) - 2:
            g = dot(g, ws[i + 2].T) * np.sign(hidden[i // 2 + 1])
        grads += [np.add.reduce(g, axis=-2), dot(hidden[i // 2].swapaxes(-1, -2), g)]
    grads.reverse()
    return grads


def head_ce(z, labels, wh, bh):
    """Head logits and mean cross-entropy, with what the backward needs."""
    logits = np.dot(z, wh)
    logits += bh
    check(logits)
    row_max = np.maximum.reduce(logits, axis=1, keepdims=True)
    shifted = logits - row_max
    check(shifted)
    e = np.exp(shifted)
    sum_exp = np.add.reduce(e, axis=1)
    log_norm = np.log(sum_exp)
    rows = np.arange(logits.shape[0])
    inv_batch = 1.0 / logits.shape[0]
    ce = np.add.reduce(log_norm - shifted[rows, labels]) * inv_batch
    if not math.isfinite(ce):
        raise FloatingPointError("non-finite loss")
    return ce, (e, sum_exp, rows, inv_batch)


def head_ce_backward(g, z, labels, wh, saved):
    """Adjoints of the embeddings, the head weight and the head bias from
    the cross-entropy's adjoint g."""
    e, sum_exp, rows, inv_batch = saved
    g = g * inv_batch
    grad = (g / sum_exp)[:, None] * e
    if math.copysign(1.0, g) < 0.0:
        grad += 0.0
    grad[rows, labels] -= g
    return np.dot(grad, wh.T), np.dot(z.T, grad), np.add.reduce(grad, axis=0)


def update(flat, grads, lr) -> None:
    step = np.concatenate(grads, axis=None)
    step *= -lr
    step += flat
    check(step)
    flat[...] = step


def train_forward(ws, features, labels):
    z, norms, hidden = encoder(features, ws[:-2])
    ce, saved = head_ce(z, labels, ws[-2], ws[-1])
    return z, norms, hidden, saved


def train_step(flat, ws, features, labels, lr) -> None:
    z, norms, hidden, saved = train_forward(ws, features, labels)
    g_z, g_wh, g_bh = head_ce_backward(1.0, z, labels, ws[-2], saved)
    grads = encoder_backward(g_z, z, norms, hidden, ws[:-2])
    update(flat, grads + [g_wh, g_bh], lr)


def class_term(s, terms):
    """The class loss's value from the scaled similarities s, and its
    adjoint on s for the loss's adjoint g, before the scaling."""
    any_valid, negative, neg_coeff, constant = terms
    if not any_valid:
        raise ValueError("no valid anchor")
    neg_sum = np.add.reduce(s * negative, axis=1)
    term = np.add.reduce(neg_sum * neg_coeff) + constant
    return term, lambda g: (g * neg_coeff)[:, None] * negative


def sample_term(s, terms):
    """The sample loss's value and adjoint, as class_term's."""
    any_valid, positive, negative, valid_f, pad, neg_coeff = terms
    if not any_valid:
        raise ValueError("no valid anchor")
    neg_sum = np.add.reduce(s * negative, axis=1)
    exp_s = np.exp(s)
    check(exp_s)
    pos_den = np.add.reduce(exp_s * positive, axis=1) + pad
    if not (np.minimum.reduce(pos_den) > 0.0 and np.maximum.reduce(pos_den) < math.inf):
        raise FloatingPointError("log of the positive sum is not finite")
    term = np.add.reduce(neg_sum * neg_coeff + np.log(pos_den) * valid_f)

    def adjoint(g):
        g_den = (g * valid_f) / pos_den
        return g_den[:, None] * positive * exp_s + (g * neg_coeff)[:, None] * negative

    return term, adjoint


def contrastive_forward(ws, stacked, rl, terms, loss, unlearn_term):
    z, norms, hidden = encoder(stacked, ws[:-2])
    z_r, z_u = z[0], z[1]
    inv_t = 1.0 / loss.temperature
    s = np.dot(z_u, z_r.T) * inv_t
    check(s)
    term, adjoint = unlearn_term(s, terms)
    if not math.isfinite(term):
        raise FloatingPointError("non-finite loss")
    ce, saved = head_ce(z_r, rl, ws[-2], ws[-1])
    value = float(term) * loss.unlearn_weight + float(ce) * loss.ce_weight
    if not math.isfinite(value):
        raise FloatingPointError("non-finite loss")
    return z, norms, hidden, saved, adjoint, inv_t


def contrastive_step(flat, ws, stacked, rl, terms, loss, unlearn_term, lr) -> None:
    z, norms, hidden, saved, adjoint, inv_t = contrastive_forward(
        ws, stacked, rl, terms, loss, unlearn_term
    )
    z_r, z_u = z[0], z[1]
    g_zr, g_wh, g_bh = head_ce_backward(loss.ce_weight, z_r, rl, ws[-2], saved)
    g_s = adjoint(loss.unlearn_weight) * inv_t
    g_zu = np.dot(g_s, z_r)
    g_zr = g_zr + np.dot(z_u.T, g_s).T
    grads = encoder_backward(np.array([g_zr, g_zu]), z, norms, hidden, ws[:-2])
    update(flat, [g[0] + g[1] for g in grads] + [g_wh, g_bh], lr)


def p10_us(times) -> float:
    return float(np.percentile(times, 10)) / 1e3


def compare(name, library_step, library_forward, inline_step, inline_forward, equal) -> None:
    """Interleave the two sides' steps, check their bits after each, and
    print the 10th percentiles."""
    lib, lib_fwd, inl, inl_fwd = [], [], [], []
    clock = time.perf_counter_ns
    for i in range(STEPS):
        t0 = clock()
        library_forward(i)
        t1 = clock()
        library_step(i)
        t2 = clock()
        inline_forward(i)
        t3 = clock()
        inline_step(i)
        t4 = clock()
        lib_fwd.append(t1 - t0)
        lib.append(t2 - t1)
        inl_fwd.append(t3 - t2)
        inl.append(t4 - t3)
        if not equal():
            raise AssertionError(f"{name}: the inline update differs from the library's at step {i}")
    step, inline = p10_us(lib), p10_us(inl)
    print(f"{name:>6} step  library {step:6.1f} us (forward {p10_us(lib_fwd):5.1f})  "
          f"inline {inline:6.1f} us (forward {p10_us(inl_fwd):5.1f})  "
          f"bookkeeping {1 - inline / step:5.1%}")


def main(src: Path) -> None:
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "demos"))
    import unlearnlab as ul
    from unlearnlab import engine
    from standard import Pipeline

    pipeline = Pipeline(0)
    arch = pipeline.arch
    if arch.activation != "relu":
        raise AssertionError(f"the inline steps are written for relu, not {arch.activation}")
    start = ul.init_parameters(arch, 0)

    def sides():
        params = start._working_copy()
        flat = start._flat.copy()
        ws = [flat[a:b].reshape(shape) for _, a, b, shape in arch._parameter_layout]
        return params, flat, ws, lambda: params._flat.tobytes() == flat.tobytes()

    cfg = pipeline.engine_config("train")
    train_batches = [(b.features, b.labels) for b in ul.batches(pipeline.train_data, 32, [0, 1, 0])]
    params, flat, ws, equal = sides()

    def batch(i):
        return train_batches[i % len(train_batches)]

    with np.errstate(over="ignore", invalid="ignore"):
        compare(
            "train",
            lambda i: engine._sgd_step(
                params, lambda p: engine._ce_objective(p, *batch(i)), cfg.learning_rate, 0, 0
            ),
            lambda i: _taped(ul, lambda: engine._ce_objective(params, *batch(i))),
            lambda i: train_step(flat, ws, *batch(i), cfg.learning_rate),
            lambda i: train_forward(ws, *batch(i)),
            equal,
        )

    for name, inline_term in (("class", class_term), ("sample", sample_term)):
        cfg = pipeline.engine_config(name)
        steps = planned_steps(engine, getattr(pipeline, f"{name}_task"), cfg)
        unlearn_term = engine._UNLEARN_TERMS[name][1]
        params, flat, ws, equal = sides()

        def step(i):
            return steps[i % len(steps)]

        def inline(i):
            _, _, rl, stacked, terms = step(i)
            return stacked, rl, terms

        def objective(p, i):
            return engine._contrastive_objective(p, *step(i), cfg.loss, unlearn_term)

        with np.errstate(over="ignore", invalid="ignore"):
            compare(
                name,
                lambda i: engine._sgd_step(
                    params, lambda p: objective(p, i), cfg.learning_rate, 0, 0
                ),
                lambda i: _taped(ul, lambda: objective(params, i)),
                lambda i: contrastive_step(
                    flat, ws, *inline(i), cfg.loss, inline_term, cfg.learning_rate
                ),
                lambda i: contrastive_forward(ws, *inline(i), cfg.loss, inline_term),
                equal,
            )


def planned_steps(engine, task, cfg, count=30) -> list:
    """The first count planned steps on full forgotten batches with a valid
    anchor, as (forgotten features, remaining features, remaining labels,
    stack, terms), from as many of the engine's passes as it takes."""
    rng = np.random.default_rng([cfg.seed, engine.TAG_REMAIN_SAMPLER])
    label_terms = engine._UNLEARN_TERMS[task.kind][0]
    steps = []
    for epoch in itertools.count():
        forgotten = engine._batches(
            task.unlearn_train, cfg.batch_size, [cfg.seed, engine.TAG_UNLEARN_BATCHES, epoch]
        )
        planned = len(forgotten) * cfg.remaining_resamples
        plan = engine._contrastive_steps(task, forgotten, cfg, rng, label_terms)
        for rf, rl, slot, stacked, terms in itertools.islice(plan, planned):
            if slot >= 0 and terms[0]:
                steps.append((forgotten[slot][0], rf, rl, stacked, terms))
        if len(steps) >= count:
            return steps[:count]


def _taped(ul, forward):
    with ul.GradTape():
        forward()


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT / "src")
