"""Composed tensor ops: the oracle the library's fused ops are checked against.

The library runs only fused ops (``tensor.dense`` and the losses), each
one tape entry with a hand-written backward. These are the primitives
those fused ops are written to equal bit for bit, kept here with their
own tests. Each records one tape entry on the active ``GradTape``
through the same helpers the library's ops use, and checks its result
for finiteness once.
"""
from __future__ import annotations

import numpy as np

from unlearnlab.errors import DimensionError
from unlearnlab.tensor import Tensor, _fresh, _record, _unbroadcast, as_tensor, multiply


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
