"""The test suite's oracles: composed tensor ops, finite differences and
bit-exact equality of arrays, models and datasets.

The library runs only fused ops (``tensor.dense``, the encoder and the
losses), each one tape entry with a hand-written backward. The composed
ops here, ``l2_normalize`` of a batch's rows among them, are the
primitives those fused ops are written to equal bit for bit, kept with
their own tests. Each records one tape entry on the active
``GradTape`` through the same helpers the library's ops use, and checks
its result for finiteness once. ``finite_difference_gradient`` is the
independent oracle every analytic gradient is checked against, and
``recorded_ids`` reads which tensors a tape recorded.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from unlearnlab.data import Dataset
from unlearnlab.errors import DegenerateEmbeddingError, DimensionError
from unlearnlab.model import ModelParameters
from unlearnlab.tensor import (
    NORM_EPSILON,
    GradTape,
    Tensor,
    _fresh,
    _record,
    _require_finite,
    _wrap,
    as_tensor,
)


def recorded_ids(tape: GradTape) -> list[int]:
    """Output tensor ids in recording order."""
    return [out_tid for out_tid, _, _ in tape._entries]


def params_equal(a: ModelParameters, b: ModelParameters) -> bool:
    """Bit-exact equality of architecture and every tensor."""
    if a.arch != b.arch or a.names() != b.names():
        return False
    return all(np.array_equal(a.tensors[n].data, b.tensors[n].data) for n in a.names())


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes: unlike ``np.array_equal``, -0.0 and 0.0
    differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (
        a.num_classes == b.num_classes
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
    )


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function.

    The independent oracle for gradient checks: evaluates f twice per
    coordinate and never touches the tape.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = out.reshape(-1)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] += step
        xm[i] -= step
        fp = f(xp.reshape(x.shape))
        fm = f(xm.reshape(x.shape))
        flat[i] = (fp - fm) / (2.0 * step)
    return out


def gradient_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise relative error, denominator floored at 1e-8."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, width in enumerate(shape):
        if width == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError as exc:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}") from exc
    out = _fresh(out_data, "add")
    a_shape, b_shape = a.shape, b.shape
    _record(out, (a, b), lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))
    return out


def multiply(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError as exc:
        raise DimensionError(f"multiply: incompatible shapes {a.shape} and {b.shape}") from exc
    out = _fresh(out_data, "multiply")
    a_data, b_data, a_shape, b_shape = a.data, b.data, a.shape, b.shape
    _record(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b_data, a_shape), _unbroadcast(g * a_data, b_shape)),
    )
    return out


def matmul(a, b) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = _fresh(a.data @ b.data, "matmul")
    a_data, b_data = a.data, b.data
    _record(out, (a, b), lambda g: (g @ b_data.T, a_data.T @ g))
    return out


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"transpose: rank-2 tensor required, got shape {a.shape}")
    out = _fresh(a.data.T, "transpose")
    _record(out, (a,), lambda g: (g.T,))
    return out


def subtract(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out_data = a.data - b.data
    except ValueError as exc:
        raise DimensionError(f"subtract: incompatible shapes {a.shape} and {b.shape}") from exc
    out = _fresh(out_data, "subtract")
    a_shape, b_shape = a.shape, b.shape
    _record(out, (a, b), lambda g: (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)))
    return out


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = _fresh(np.maximum(a.data, 0.0), "relu")
    mask = a.data > 0.0
    _record(out, (a,), lambda g: (g * mask,))
    return out


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)
    out = _fresh(out_data, "tanh")
    _record(out, (a,), lambda g: (g * (1.0 - out_data * out_data),))
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)
    out = _fresh(out_data, "exp")
    _record(out, (a,), lambda g: (g * out_data,))
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(a.data)
    out = _fresh(out_data, "log")
    a_data = a.data
    _record(out, (a,), lambda g: (g / a_data,))
    return out


def reduce_sum(a, axis: int | None = None) -> Tensor:
    """Sum over one axis, or over all entries when axis is None."""
    a = as_tensor(a)
    if axis is None:
        out = _fresh(a.data.sum(), "reduce_sum")
        a_shape = a.shape
        _record(out, (a,), lambda g: (np.broadcast_to(g, a_shape).copy(),))
        return out
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"reduce_sum: axis {axis} out of range for shape {a.shape}")
    out = _fresh(a.data.sum(axis=axis), "reduce_sum")
    a_shape, ax = a.shape, axis % a.ndim

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, ax), a_shape).copy(),)

    _record(out, (a,), backward)
    return out


def mean(a) -> Tensor:
    """Arithmetic mean over all entries."""
    a = as_tensor(a)
    return multiply(reduce_sum(a), 1.0 / a.size)


def l2_normalize(a) -> Tensor:
    """Scale each row of a matrix to unit Euclidean norm."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"l2_normalize: rank-2 tensor required, got {a.shape}")
    # np.linalg.norm's own expression for real rows, without its wrapper.
    norms = np.sqrt(np.add.reduce(a.data * a.data, axis=1, keepdims=True))
    _require_finite(norms, "l2_normalize: norm overflowed")
    if np.logical_or.reduce(norms <= NORM_EPSILON, axis=None):
        raise DegenerateEmbeddingError("l2_normalize: row with (near-)zero norm")
    # A finite row over a finite norm above NORM_EPSILON is finite.
    out_data = a.data / norms
    out = _wrap(out_data)

    def backward(g):
        # For z = v / |v|: dv = (g - z (z.g)) / |v|, applied per row.
        inner = np.add.reduce(out_data * g, axis=1, keepdims=True)
        return ((g - out_data * inner) / norms,)

    _record(out, (a,), backward)
    return out
