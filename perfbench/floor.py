"""Pure-numpy floor for one training step.

A hand-written forward and backward pass for the `train` workload's
step (batch 32, architecture 8 -> 32 -> 32 -> 16 -> 4, ReLU, unit-norm
embedding, linear head, mean softmax cross-entropy) followed by the SGD
update. It is what the step would cost with no tape, no per-op checks
and no tensor objects, so the engine's per-step time can be quoted
against it. Before it is timed, its gradients are checked against
``GradTape.gradient`` on the same batch.

The same step, on fixed random inputs and without the library, is also
the reference kernel that the untraced runs time beside every op to
gauge how fast the machine is running (see ``reference_kernel``).
"""
from __future__ import annotations

import time

import numpy as np


def _forward_backward(params: list[np.ndarray], x: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
    """Gradients of mean cross-entropy for an MLP with two hidden layers."""
    w0, b0, w1, b1, we, be, wh, bh = params
    a0 = x @ w0 + b0
    h0 = np.maximum(a0, 0.0)
    a1 = h0 @ w1 + b1
    h1 = np.maximum(a1, 0.0)
    e = h1 @ we + be
    norms = np.linalg.norm(e, axis=1, keepdims=True)
    z = e / norms
    logits = z @ wh + bh
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(labels)), labels] -= 1.0
    g_logits = p / len(labels)

    g_wh = z.T @ g_logits
    g_bh = g_logits.sum(axis=0)
    g_z = g_logits @ wh.T
    g_e = (g_z - z * np.sum(z * g_z, axis=1, keepdims=True)) / norms
    g_we = h1.T @ g_e
    g_be = g_e.sum(axis=0)
    g_a1 = (g_e @ we.T) * (a1 > 0.0)
    g_w1 = h0.T @ g_a1
    g_b1 = g_a1.sum(axis=0)
    g_a0 = (g_a1 @ w1.T) * (a0 > 0.0)
    g_w0 = x.T @ g_a0
    g_b0 = g_a0.sum(axis=0)
    return [g_w0, g_b0, g_w1, g_b1, g_we, g_be, g_wh, g_bh]


# Fastest time of ``reference_kernel()`` on the 2-vCPU Intel Xeon
# (2.1 GHz) virtual machine this benchmark was defined on. End-to-end
# op times are reported at this speed (see run.py).
REFERENCE_S = 4.5e-3
REFERENCE_SIZES = (8, 32, 32, 16, 4)
REFERENCE_STEPS = 64


def reference_kernel():
    """A fixed forward and backward pass over 64 batches of 32 rows.

    Its inputs come from a constant seed and it calls no unlearnlab
    code, so its work is the same in every run and on every commit.
    """
    rng = np.random.default_rng(0)
    params = []
    for fan_in, fan_out in zip(REFERENCE_SIZES, REFERENCE_SIZES[1:]):
        params += [rng.normal(0.0, fan_in ** -0.5, (fan_in, fan_out)), np.zeros(fan_out)]
    features = rng.normal(size=(REFERENCE_STEPS, 32, REFERENCE_SIZES[0]))
    labels = rng.integers(0, REFERENCE_SIZES[-1], size=(REFERENCE_STEPS, 32))

    def run() -> None:
        for x, y in zip(features, labels):
            _forward_backward(params, x, y)

    return run


def predicted_labels(params: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Class predictions of the same MLP, computed without the library."""
    w0, b0, w1, b1, we, be, wh, bh = params
    h = np.maximum(x @ w0 + b0, 0.0)
    h = np.maximum(h @ w1 + b1, 0.0)
    e = h @ we + be
    z = e / np.linalg.norm(e, axis=1, keepdims=True)
    return np.argmax(z @ wh + bh, axis=1)


def check_gradients(ul, arch, data, seed: int) -> bool:
    """True when the floor's gradients match the tape's on one batch."""
    params = ul.init_parameters(arch, seed)
    batch = ul.batches(data, 32, [seed, 0])[0]
    with ul.GradTape() as tape:
        loss = ul.cross_entropy_loss(ul.forward(params, batch.features), batch.labels)
    want = tape.gradient(loss, params.as_list())
    got = _forward_backward([p.data for p in params.as_list()], batch.features, batch.labels)
    return all(np.allclose(g, w.data) for g, w in zip(got, want))


def step_us(ul, arch, data, seed: int, lr: float, epochs: int) -> float:
    """Median microseconds per floor step over `epochs` timed epochs."""
    params = [np.array(p.data) for p in ul.init_parameters(arch, seed).as_list()]
    per_step = []
    for epoch in range(epochs):
        epoch_batches = ul.batches(data, 32, [seed, epoch])
        start = time.perf_counter()
        for batch in epoch_batches:
            grads = _forward_backward(params, batch.features, batch.labels)
            for p, g in zip(params, grads):
                p -= lr * g
        per_step.append((time.perf_counter() - start) / len(epoch_batches))
    return float(np.median(per_step)) * 1e6
