"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations record themselves on an explicit gradient tape while one is
active. ``GradTape._replay`` is the one replay: it runs the tape in
exact reverse order and accumulates adjoints, starting from one shared
read-only 0-d 1.0 (``_SEED``). It has two callers: the
public ``gradient``, which wraps and checks each adjoint, and the
engine's SGD step, which reads the raw arrays and checks only its
update (non-finite whenever a gradient is, since the learning rate is
positive and finite). The module holds only the ops the library runs:
``dense``, one layer ``act(x @ w + b)`` (the classifier's head), and
``_encoder``, the whole encoder (every layer, then each row scaled to
unit norm), over one batch or over a stack of batches of equal rows.
Both, and the losses in ``losses``, are fused: each records
one tape entry whose hand-written backward repeats the arithmetic of
the same computation composed from primitive ops, so both give
bit-identical results, to the sign of every zero. They share one
layer's arithmetic (``_layer`` and ``_layer_adjoint``). The primitives,
``l2_normalize`` among them, and the central finite-difference oracle
every analytic gradient is checked against, are the test suite's
oracles, in ``tests/composed_ops.py``.

A step is bound by the count and cost of its numpy calls, not by its
arithmetic, so the fused ops spend as few calls as give the composed
bits: every matrix product is ``_dot`` (np.dot, which skips the ufunc
dispatch of ``@``, but ``@`` over an inner width of 1, where the two
differ in the sign of a zero), the relu adjoint multiplies by the sign
of the output rather than a cast boolean mask, and the row norms are
bounded by one max and one min reduction (``_row_norms``). A
contrastive step encodes its remaining and forgotten batches as one
(2, B, K) stack: one entry, whose products are one gemm per part
(``@``) and whose reductions run along each part's own axes, so each
part keeps the bits of its own pass. A (2B, K) concatenation would not:
on OpenBLAS 0.3.31 a product's rows depend on its row count once its
inner width is at least 16 and its output width is 1, 2 or 3 past a
multiple of 8. The stack saves the second pass's per-layer calls; each
output part gets its own Tensor, and ``_replay`` hands the entry's
backward the list of the parts' adjoints.

All values are 64-bit floats, and every Tensor holds finite values.
Each op checks finiteness once, at the first place its arithmetic can
overflow, so NaN or overflow surfaces at the op that produced it rather
than epochs later: every layer checks its pre-activation, the encoder
its row norms (a finite row over a norm above NORM_EPSILON has entries
of magnitude at most 1, so its output needs no second check), and the
losses their intermediate sums. ``_require_finite(arr, message)`` is the
one check for computed arrays, here and in ``model`` and ``losses``: it
counts the finite entries and raises NonFiniteError with its site's
message unless all are. A loss value or a gradient goes through
``_fresh``, which checks a single value by ``math.isfinite``, cheaper
than the array check, before it makes the value a 0-d array.

A finite input can still overflow; those checks then pick the error,
and numpy's overflow and invalid warnings are silenced by one rule for
the whole library: cores (``_encoder``, ``_dense``, the losses' cores)
never set numpy's error state, while every public entry that runs one
(``dense``, ``model.encode``, ``accuracy``, the public losses and the
rest) and every engine run holds one ``np.errstate`` around it. No
errstate spans a ``yield``: numpy's error state is a context variable,
so a generator that held one would run its caller under it between
items.

An op's result is a fresh array, so it is wrapped without a copy; only
the public ``Tensor(...)`` and ``as_tensor(...)`` copy, which keeps a
caller's array writable and unshared; ``dense`` takes ``x`` through
``as_tensor``, as it takes ``w`` and ``b``, checks the shapes and the
activation, then calls its core ``_dense``, which ``model._head_logits``
calls directly. ``_encoder`` takes only an array batch its caller has
checked (see ``model``) and tapes it as a constant. It runs one way,
taped or not: it keeps every layer's input for its backward, and
``_record`` does nothing while no tape is active.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateEmbeddingError,
    DimensionError,
    NonFiniteError,
    ValidationError,
    real_array,
)

# Row norms at or below this are treated as zero vectors.
NORM_EPSILON = 1e-12

# Nonlinearities that dense() can apply after its affine map.
ACTIVATIONS = ("relu", "tanh")

_tensor_ids = itertools.count()
_active_tape: "GradTape | None" = None

# The adjoint every replay starts from, shared: no backward writes to the
# adjoint it is given, and a gradient of the output itself is read-only.
_SEED = np.ones(())
_SEED.setflags(write=False)


class Tensor:
    """Immutable dense float64 array participating in autodiff.

    Wraps a read-only numpy array. An op's result is written once, by
    the op that produced it. The one exception is the parameters of an
    engine run: read-only views of the run's private buffer, which its
    SGD step overwrites between steps, so they keep their ids across a
    run. The constructor copies and checks ``values``; operations wrap
    their fresh results without a copy.
    """

    __slots__ = ("data", "tid")

    def __init__(self, values):
        arr = _checked_copy(values)
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


def _require_finite(arr: np.ndarray, message: str) -> np.ndarray:
    """arr, after the one finite check for computed arrays: NonFiniteError
    with message unless every entry is finite."""
    # Counting the finite entries costs less than np.all or a logical_and
    # reduction over them, and gives the same answer.
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteError(message)
    return arr


def _checked_copy(values, name: str = "tensor values") -> np.ndarray:
    """A fresh float64 copy of array-like input, checked by
    ``errors.real_array`` and for finiteness."""
    arr = real_array(values, name, ValidationError).astype(np.float64)
    return _require_finite(arr, "tensor constructed with non-finite entries")


def _wrap(arr: np.ndarray) -> Tensor:
    """Freeze an array no caller can write through and wrap it, without a copy.

    Op results are fresh arrays, or views of read-only op inputs.
    """
    arr.setflags(write=False)  # cheaper than setting arr.flags.writeable
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.tid = next(_tensor_ids)
    return out


def _fresh(value, op: str) -> Tensor:
    """An op's freshly computed result after its one finite check.

    A single value, such as a loss (a Python float or the numpy scalar of
    a full reduction), is checked by ``math.isfinite``, which costs less
    than the array check and gives the same answer, and then becomes a
    0-d array.
    """
    if type(value) is np.ndarray:
        return _wrap(_require_finite(value, f"{op} produced non-finite values"))
    if not math.isfinite(value):
        raise NonFiniteError(f"{op} produced non-finite values")
    return _wrap(np.array(value))


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

    def _replay(self, output: Tensor, inputs: Sequence[Tensor]) -> list[np.ndarray]:
        """Raw adjoint arrays of a scalar output, one per input, unchecked.

        Runs the tape in exact reverse order. Every op's backward returns
        each input's adjoint in that input's shape. An entry with several
        outputs (an encoder stack's parts) gets the list of their adjoints,
        None for a part nothing used, and runs if any part has one. An
        input may be a leaf or an intermediate result; one that did not
        participate in producing the output gets an exact zero adjoint of
        its own shape.
        """
        if output.shape != ():
            raise ContractError(f"gradient of non-scalar output with shape {output.shape}")
        adjoints: dict[int, np.ndarray] = {output.tid: _SEED}
        for out_tid, in_tids, backward in reversed(self._entries):
            g_out = adjoints.get(out_tid)
            if g_out is None:
                if type(out_tid) is not tuple:
                    continue
                # A stack's parts: their adjoints, None where unused.
                g_out = [adjoints.get(tid) for tid in out_tid]
                if all(g is None for g in g_out):
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
            out.append(g)
        return out

    def gradient(self, output: Tensor, inputs: Sequence[Tensor]) -> list[Tensor]:
        """Gradients of a scalar output with respect to each input.

        The adjoints of ``_replay``, each checked for finiteness once and
        returned read-only, without a copy.
        """
        return [_fresh(g, "gradient") for g in self._replay(output, inputs)]


def _record(out, inputs: Sequence[Tensor], backward: Callable) -> None:
    """Tape one entry: out is a Tensor, or the list of a stack's part
    Tensors, whose entry's backward takes the list of their adjoints."""
    if _active_tape is not None:
        out_tid = out.tid if type(out) is Tensor else tuple([t.tid for t in out])
        _active_tape._entries.append((out_tid, tuple([t.tid for t in inputs]), backward))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product a @ b, computed by np.dot, which skips the ufunc
    dispatch of ``@``: on 32 x 32 float64 it takes 1.4-2.0 us against
    2.9-3.4 us (2-vCPU Xeon VM, numpy 2.4, OpenBLAS 0.3.31, one thread).

    The two give the same bits, with one exception that stays with ``@``:
    over an inner width of 1, np.dot keeps the sign of a zero product (one
    that underflowed, or a 1 x 1 product of a zero) where ``@`` adds it to
    +0.0.

    A stack a of shape (P, B, K) also goes through ``@``, which multiplies
    each part by its own gemm (np.dot would not): every part's product has
    the bits of the part's own 2-d product.
    """
    return np.dot(a, b) if a.ndim == 2 and a.shape[1] != 1 else a @ b


def _layer(h: np.ndarray, w: np.ndarray, b: np.ndarray, activation) -> np.ndarray:
    """Forward arithmetic of one layer, act(h @ w + b), as a fresh array.

    The one finite check is on the pre-activation: both activations map
    finite values to finite values (and tanh would turn an overflow into
    1). The activation runs in place on the fresh pre-activation.
    """
    out = _dot(h, w)
    out += b
    _require_finite(out, "dense produced non-finite values")
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "tanh":
        np.tanh(out, out=out)
    return out


def _layer_adjoint(g: np.ndarray, out: np.ndarray, activation) -> np.ndarray:
    """The adjoint of a layer's pre-activation from that of its output.

    A relu output is positive exactly where its finite pre-activation
    is, and np.sign maps it to 1.0 there and to +0.0 elsewhere (-0.0
    included): the composed relu's mask as floats, so the products are
    the same, signed zeros included, without casting a boolean mask.
    """
    if activation == "relu":
        return g * np.sign(out)
    if activation == "tanh":
        return g * (1.0 - out * out)
    return g


def dense(x, w, b, activation: str | None = None) -> Tensor:
    """One layer, act(x @ w + b), recorded as a single tape entry.

    x is (B, fan_in), w is (fan_in, fan_out) and b is (fan_out,);
    activation is one of ACTIVATIONS or None. Forward and backward do
    the arithmetic of matmul, add and the activation in that order, so
    the results are bit-identical to composing those ops.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"dense: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    if activation is not None and not (isinstance(activation, str) and activation in ACTIVATIONS):
        raise ContractError(f"dense: unknown activation {activation!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # the core's finite check picks the error
        return _dense(x, w, b, activation)


def _dense(x: Tensor, w: Tensor, b: Tensor, activation) -> Tensor:
    """dense's core, without its conversions and checks: the caller
    guarantees Tensors of matching shapes and a known activation."""
    x_data, w_data = x.data, w.data
    out_data = _layer(x_data, w_data, b.data, activation)
    out = _wrap(out_data)

    def backward(g):
        g = _layer_adjoint(g, out_data, activation)
        return _dot(g, w_data.T), _dot(x_data.T, g), np.add.reduce(g, axis=0)

    _record(out, (x, w, b), backward)
    return out


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The row norms of a batch (or of each part of a stack), as a column,
    within their bounds.

    NonFiniteError if a norm is not finite (unchecked, an overflowed norm
    would silently map its row to zeros), else DegenerateEmbeddingError if
    one is at or below NORM_EPSILON.
    """
    # np.linalg.norm's own expression for real rows, without its wrapper.
    # A finite row's squares may overflow; the bounds below then pick the
    # error (the caller's errstate silences numpy's warning).
    norms = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    # Both bounds in two reductions: NaN fails both comparisons, and the
    # initial values pass an empty batch. Only a batch that fails them runs
    # the finite check, which picks the error: overflow first.
    if not (
        np.maximum.reduce(norms, axis=None, initial=0.0) < math.inf
        and np.minimum.reduce(norms, axis=None, initial=math.inf) > NORM_EPSILON
    ):
        _require_finite(norms, "l2_normalize: norm overflowed")
        raise DegenerateEmbeddingError("l2_normalize: row with (near-)zero norm")
    return norms


def _encoder(x: np.ndarray, weights: Sequence[Tensor], activation: str):
    """The whole encoder as one tape entry: unit-norm rows of its embedding.

    weights is [w0, b0, w1, b1, ..., w_emb, b_emb]: every pair but the
    last is a hidden layer act(h @ w + b), the last is the embedding
    layer h @ w + b, and each row of its output is scaled to unit norm.
    Forward and backward do the arithmetic of ``dense`` per layer and of
    the row normalisation, in the order the composed entries would, so
    values and gradients are bit-identical to composing them.

    x is a (B, K) batch, which returns one Tensor, or a (P, B, K) stack of
    P batches of B rows, which returns a list of P Tensors, one per part,
    from the same single entry. A stack's products go through ``@`` per
    part (see ``_dot``) and its reductions run along each part's own rows
    or columns, so every part's values and adjoints have the bits of the
    part's own pass. The entry's weight adjoints are the parts' in part
    order, summed, as a replay sums those of one entry per part; a part
    with no adjoint adds nothing. A stack that fails reruns its parts one
    by one, first to last, to raise the error of the first failing part's
    own pass: the stack checks all parts at each layer before the next,
    and every norm for overflow before any for zero.

    The caller guarantees the shapes, and that x is a finite float64
    batch no one writes to: it is used without a copy and taped as a
    constant, so the tape records only the weights. It also holds the
    errstate that silences numpy's overflow and invalid warnings (see the
    module docstring).
    """
    hidden = [x]  # every layer's input
    # A finite batch's products and squared norms may overflow; each layer's
    # finite check and the norms' bounds then pick the error, under the
    # caller's errstate.
    try:
        for i in range(0, len(weights) - 2, 2):
            hidden.append(_layer(hidden[-1], weights[i].data, weights[i + 1].data, activation))
        emb = _layer(hidden[-1], weights[-2].data, weights[-1].data, None)
        norms = _row_norms(emb)
    except (NonFiniteError, DegenerateEmbeddingError):
        if x.ndim == 3:  # on the error path only
            for part in x:
                _encoder(part, weights, activation)
        raise
    # A finite row over a finite norm above NORM_EPSILON is finite.
    z = emb / norms

    def adjoints(g, z=z, norms=norms, hidden=hidden):
        # A batch's backward; a stack's passes the arrays of its used parts.
        # For z = v / |v|: dv = (g - z (z.g)) / |v|, applied per row.
        inner = np.add.reduce(z * g, axis=-1, keepdims=True)
        g = (g - z * inner) / norms
        # Adjoints of the layers last to first, each bias before its
        # weight, reversed at the end into the order of weights.
        grads = []
        for i in range(len(weights) - 2, -1, -2):
            if i < len(weights) - 2:
                g = _layer_adjoint(_dot(g, weights[i + 2].data.T), hidden[i // 2 + 1], activation)
            grads += [np.add.reduce(g, axis=-2), _dot(hidden[i // 2].swapaxes(-1, -2), g)]
        grads.reverse()
        return grads

    if x.ndim == 2:
        out = _wrap(z)
        _record(out, weights, adjoints)
        return out

    def stack_backward(gs):
        used = [p for p, g in enumerate(gs) if g is not None]
        if len(used) == len(gs):
            grads = adjoints(np.array(gs))
        else:  # a part no output used adds nothing
            grads = adjoints(np.array([gs[p] for p in used]), z[used], norms[used],
                             [h[used] for h in hidden])
        # Each weight's part adjoints summed in part order, the sum a replay
        # forms over one entry per part. np.add.reduce would start from +0.0,
        # which turns a -0.0 that every part shares into 0.0.
        sums = [g[0] for g in grads]
        for p in range(1, len(used)):
            sums = [s + g[p] for s, g in zip(sums, grads)]
        return sums

    out = [_wrap(part) for part in z]
    _record(out, weights, stack_backward)
    return out
