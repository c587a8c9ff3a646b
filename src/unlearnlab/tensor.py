"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations record themselves on an explicit gradient tape while one is
active. ``GradTape.gradient`` is the one way into replay: it runs the
tape in exact reverse order and accumulates adjoints. The module holds
only the ops the library runs: ``dense`` and ``l2_normalize``.
``dense``, one layer ``act(x @ w + b)``, and the losses in ``losses``
are fused: each records one tape entry whose hand-written backward
repeats the arithmetic of the same computation composed from primitive
ops, so both give bit-identical results. The primitives, and the
central finite-difference oracle every analytic gradient is checked
against, are the test suite's oracles, in ``tests/composed_ops.py``.

All values are 64-bit floats. Every operation checks its result for
finiteness exactly once, so NaN or overflow surfaces at the op that
produced it rather than epochs later. An op's result is a fresh array,
so it is wrapped without a copy; only the public ``Tensor(...)`` and
``as_tensor(...)`` copy, which keeps a caller's array writable and
unshared.
"""
from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateEmbeddingError,
    DimensionError,
    NonFiniteError,
)

# Row norms at or below this are treated as zero vectors.
NORM_EPSILON = 1e-12

# Nonlinearities that dense() can apply after its affine map.
ACTIVATIONS = ("relu", "tanh")

_tensor_ids = itertools.count()
_active_tape: "GradTape | None" = None


class Tensor:
    """Immutable dense float64 array participating in autodiff.

    Wraps a read-only numpy array. Tensors are written once by the
    operation that produced them; updates (such as SGD steps) build new
    tensors instead of mutating. The constructor copies and checks
    ``values``; operations wrap their fresh results without a copy.
    """

    __slots__ = ("data", "tid")

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64)
        if not _all_finite(arr):
            raise NonFiniteError("tensor constructed with non-finite entries")
        arr.flags.writeable = False
        self.data = arr
        self.tid = next(_tensor_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _all_finite(arr: np.ndarray) -> bool:
    # The ufunc reduction directly; np.all and ndarray.all add Python wrappers.
    return bool(np.logical_and.reduce(np.isfinite(arr), axis=None))


def _wrap(arr: np.ndarray) -> Tensor:
    """Freeze an array no caller can write through and wrap it, without a copy.

    Op results are fresh arrays, or views of read-only op inputs.
    """
    arr.flags.writeable = False
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.tid = next(_tensor_ids)
    return out


def _fresh(arr, op: str) -> Tensor:
    """An op's freshly computed result after its one finite check.

    A full reduction yields a numpy scalar; it becomes a 0-d array.
    """
    if type(arr) is not np.ndarray:
        arr = np.asarray(arr)
    if not _all_finite(arr):
        raise NonFiniteError(f"{op} produced non-finite values")
    return _wrap(arr)


def as_tensor(values) -> Tensor:
    """Wrap array-like input as a Tensor; Tensors pass through unchanged."""
    if isinstance(values, Tensor):
        return values
    return Tensor(values)


class GradTape:
    """Records primitive operations for later reverse-mode replay.

    Use as a context manager. Only one tape may be active at a time;
    the training loop is single-threaded per step by design.
    """

    def __init__(self):
        self._entries: list[tuple[int, tuple[int, ...], Callable]] = []

    def __enter__(self) -> "GradTape":
        global _active_tape
        if _active_tape is not None:
            raise ContractError("a gradient tape is already active")
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active_tape
        _active_tape = None
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def gradient(self, output: Tensor, inputs: Sequence[Tensor]) -> list[Tensor]:
        """Gradients of a scalar output with respect to each input.

        An input may be a leaf or an intermediate result. Inputs that did
        not participate in producing the output get an exact zero
        gradient of their own shape. Each gradient is checked
        for finiteness once and returned read-only, without a copy.
        """
        if output.shape != ():
            raise ContractError(f"gradient of non-scalar output with shape {output.shape}")
        adjoints: dict[int, np.ndarray] = {output.tid: np.ones(())}
        for out_tid, in_tids, backward in reversed(self._entries):
            g_out = adjoints.get(out_tid)
            if g_out is None:
                continue
            for tid, g_in in zip(in_tids, backward(g_out)):
                if tid in adjoints:
                    adjoints[tid] = adjoints[tid] + g_in
                else:
                    adjoints[tid] = g_in
        out = []
        for inp in inputs:
            g = adjoints.get(inp.tid)
            if g is None:
                g = np.zeros(inp.shape)
            if g.shape != inp.shape:
                g = np.broadcast_to(g, inp.shape)
            out.append(_fresh(g, "gradient"))
        return out


def _record(out: Tensor, inputs: Sequence[Tensor], backward: Callable) -> None:
    if _active_tape is not None:
        _active_tape._entries.append(
            (out.tid, tuple(t.tid for t in inputs), backward)
        )


def dense(x, w, b, activation: str | None = None) -> Tensor:
    """One layer, act(x @ w + b), recorded as a single tape entry.

    x is (B, fan_in), w is (fan_in, fan_out) and b is (fan_out,);
    activation is one of ACTIVATIONS or None. Forward and backward do
    the arithmetic of matmul, add and the activation in that order, so
    the results are bit-identical to composing those ops. An x that
    arrives as an array is a constant: it is copied and checked like
    any array input, but the tape records only w and b, so replay
    skips its adjoint.
    """
    x_taped = isinstance(x, Tensor)
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"dense: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    if activation is not None and activation not in ACTIVATIONS:
        raise ContractError(f"dense: unknown activation {activation!r}")
    pre = x.data @ w.data
    pre += b.data
    # Both activations map finite values to finite values, so the op's one
    # check is on the pre-activation (tanh would turn an overflow into 1).
    if not _all_finite(pre):
        raise NonFiniteError("dense produced non-finite values")
    if activation == "relu":
        mask = pre > 0.0
        out_data = np.maximum(pre, 0.0)
    elif activation == "tanh":
        out_data = np.tanh(pre)
    else:
        out_data = pre
    out = _wrap(out_data)
    x_data, w_data = x.data, w.data

    def backward(g):
        if activation == "relu":
            g = g * mask
        elif activation == "tanh":
            g = g * (1.0 - out_data * out_data)
        grads = (x_data.T @ g, g.sum(axis=0))
        return (g @ w_data.T, *grads) if x_taped else grads

    _record(out, (x, w, b) if x_taped else (w, b), backward)
    return out


def l2_normalize(a) -> Tensor:
    """Scale each row of a matrix to unit Euclidean norm."""
    a = as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"l2_normalize: rank-2 tensor required, got {a.shape}")
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms)):
        # Without this check an overflowed norm silently maps the row to zeros.
        raise NonFiniteError("l2_normalize: norm overflowed")
    if np.any(norms <= NORM_EPSILON):
        raise DegenerateEmbeddingError("l2_normalize: row with (near-)zero norm")
    out_data = a.data / norms
    out = _fresh(out_data, "l2_normalize")

    def backward(g):
        # For z = v / |v|: dv = (g - z (z.g)) / |v|, applied per row.
        inner = np.sum(out_data * g, axis=1, keepdims=True)
        return ((g - out_data * inner) / norms,)

    _record(out, (a,), backward)
    return out
