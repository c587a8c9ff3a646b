"""Encoder-plus-head classifier and its checkpoint container.

The model is a multilayer perceptron encoder whose final embedding is
scaled to unit Euclidean norm, followed by a linear classification head.
Normalized embeddings make dot products equal cosine similarities, which
is what the contrastive losses operate on. One encoder pass is one tape
entry (``tensor._encoder``), over one batch or over a stack of batches
of equal rows, such as a contrastive step's remaining and forgotten
batches.

A model meets data in one of two ways. A raw array goes through the
public ``encode``, ``head_logits``, ``forward`` and ``predict_labels``,
which check that it is an array of real numbers
(``errors.real_array``), its shape and finiteness, and copy it. A
Dataset goes through ``data._check_fits``, the one rule that its width
and class count are the model's (a ``DimensionError`` naming each
mismatch), and then its rows go straight to the cores ``_encode`` and
``_head_logits``, with no copy and no second check: the Dataset checked
and froze them when it was made, and its labels lie below its class
count, so below the model's. Every library entry that runs a model on a
Dataset (the engine's runs, ``accuracy``, ``attack_features`` and
``embedding_geometry``) calls ``_check_fits`` and then the cores; a
train and a test split meet through the same rule.

The three untaped passes over a Dataset (``accuracy``,
``attack_features`` and ``embedding_geometry``) run the cores on blocks
of rows through ``_blocks``, not on the whole split at once. A layer of
32 over 2,000 rows is 512 KB, past glibc's mmap threshold of 128 KiB, so
a whole-split pass mapped each activation on allocation and unmapped it
on free, and every later pass faulted its pages back in: about 340 minor
faults per epoch of the standard training, whose per-epoch accuracy is
such a pass. Every activation of a block stays within that threshold
(``_BLOCK_VALUES``), so the blocks reuse the heap's memory. The blocks
are deterministic: each row has the bits of the public pass over its
block. Those are the whole pass's bits wherever no layer's rows depend
on the product's row count, as in the standard recipe, but not for
every architecture (see ``_blocks``). A pass that fails raises the
whole pass's error. Taped steps and neggrad's guard keep one pass.
``encode`` and ``head_logits``, like every public entry that runs a core,
run it under the ``np.errstate`` of ``tensor``'s rule; the cores set
none.

Checkpoints are a self-describing binary container: magic bytes, format
version, a JSON header with the architecture and tensor manifest, then
little-endian float64 payloads and a CRC of the payload bytes. The
header must be exactly the one its architecture writes. Saving and
loading round-trips bit-exactly.

Parameters are read-only views of one flat float64 buffer, in the
architecture's parameter order. ``ModelParameters._from_flat`` is the
constructor of every parameters a caller sees: it takes a fresh buffer,
checks it for finiteness once (``tensor._require_finite``, the one check
for computed arrays) and freezes it. ``init_parameters`` draws the
weights into a zeroed buffer; ``replace`` owes its caller a copy and
makes it in its one concatenation; ``load_checkpoint`` passes the
payload; an engine run passes a copy of its working buffer when it
returns (``_snapshot``). That working copy (``_working_copy``) is the
one writable buffer: its views are read-only, and the run's SGD step
writes each update into it through ``_overwrite``, after the update's
one finite check by the same helper, so the views persist across the
run's steps. ``_views``, which every way in goes through, also keeps
the tensors as a tuple in layout order (``_leaves``): the tape's leaves
for a step, and the weights ``_encode`` and ``_head_logits`` read.
Parameters pickle and copy as their architecture plus a copy of that
buffer, and come back through ``_from_flat``.
"""
from __future__ import annotations

import functools
import json
import math
import struct
import types
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import _BLOCK_VALUES, Dataset, _replacing
from .errors import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    DegenerateEmbeddingError,
    DimensionError,
    NonFiniteError,
    ValidationError,
    integer_problems,
    real_array,
)
from .tensor import ACTIVATIONS, Tensor

_MAGIC = b"ULCK"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelArchitecture:
    """Static shape description of the classifier.

    input_dim: feature count per sample.
    hidden: widths of the hidden layers, at least one.
    embedding_dim: dimension of the normalized embedding.
    num_classes: number of output classes.
    activation: nonlinearity applied after each hidden layer.
    """

    input_dim: int
    hidden: tuple[int, ...]
    embedding_dim: int
    num_classes: int
    activation: str = "relu"

    def __post_init__(self):
        hidden = tuple(self.hidden) if np.iterable(self.hidden) else ()
        problems = integer_problems(
            input_dim=(self.input_dim, 1),
            **{f"hidden[{i}]": (h, 1) for i, h in enumerate(hidden)},
            embedding_dim=(self.embedding_dim, 1),
            num_classes=(self.num_classes, 2),
        )
        if not hidden:
            problems.append("at least one hidden layer is required")
        if not isinstance(self.activation, str) or self.activation not in ACTIVATIONS:
            problems.append(f"unknown activation {self.activation!r}")
        if problems:
            raise ValidationError("invalid architecture: " + "; ".join(problems))
        # Plain ints, so that to_dict is JSON and equal sizes compare equal.
        for name in ("input_dim", "embedding_dim", "num_classes"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "hidden", tuple(map(int, hidden)))

    @functools.cached_property
    def _parameter_layout(self) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
        """(name, start, stop, shape) of every parameter in the flat buffer.

        Layers run enc0, enc1, ..., emb, head; each contributes its weight
        "<layer>.w" of shape (fan_in, fan_out), then its bias "<layer>.b".
        """
        widths = (self.input_dim, *self.hidden, self.embedding_dim, self.num_classes)
        layers = [f"enc{i}" for i in range(len(self.hidden))] + ["emb", "head"]
        layout, start = [], 0
        for layer, fan_in, fan_out in zip(layers, widths, widths[1:]):
            for name, shape in ((f"{layer}.w", (fan_in, fan_out)), (f"{layer}.b", (fan_out,))):
                stop = start + math.prod(shape)
                layout.append((name, start, stop, shape))
                start = stop
        return tuple(layout)

    @functools.cached_property
    def _block_rows(self) -> int:
        """Most rows of a block of ``_blocks``: _BLOCK_VALUES over the widest
        layer, so that every activation of a block fits in _BLOCK_VALUES,
        and at least 3, so that only a one-row split makes a one-row block."""
        return max(3, _BLOCK_VALUES // max(*self.hidden, self.embedding_dim, self.num_classes))

    @property
    def parameter_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of every parameter tensor, keyed by name, in layout order."""
        return {name: shape for name, _, _, shape in self._parameter_layout}

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden": list(self.hidden),
            "embedding_dim": self.embedding_dim,
            "num_classes": self.num_classes,
            "activation": self.activation,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelArchitecture":
        return ModelArchitecture(**d)


class ModelParameters:
    """Named parameter tensors for one architecture.

    Tensors are keyed "<layer>.w" / "<layer>.b" and kept in a fixed
    order so gradient lists and SGD updates line up positionally. They
    are read-only views of ``_flat``, one buffer laid out as the
    architecture's ``_parameter_layout``, and the mapping and the
    ``_leaves`` tuple of the same tensors are read-only too, so neither
    goes stale. ``_from_flat`` builds every instance a caller sees,
    ``_working_copy`` an engine run's own; ``replace`` is the checking
    way in from caller arrays.
    """

    def names(self) -> list[str]:
        return list(self.tensors)

    def as_list(self) -> list[Tensor]:
        return list(self._leaves)

    @classmethod
    def _from_flat(cls, arch: ModelArchitecture, flat: np.ndarray) -> "ModelParameters":
        """Parameters as read-only views of flat, a fresh 1-d float64 buffer
        laid out as arch._parameter_layout, after one finite check."""
        T._require_finite(flat, "tensor constructed with non-finite entries")
        flat.flags.writeable = False
        return cls._views(arch, flat)

    @classmethod
    def _views(cls, arch: ModelArchitecture, flat: np.ndarray) -> "ModelParameters":
        """Parameters as read-only views of flat, unchecked; flat itself
        stays as writable as it was."""
        params = cls.__new__(cls)
        params.arch = arch
        params._flat = flat
        layout = arch._parameter_layout
        # The tensors in layout order, kept as the tape's leaves for a step.
        params._leaves = tuple([T._wrap(flat[a:b].reshape(shape)) for _, a, b, shape in layout])
        params.tensors = types.MappingProxyType(
            {name: t for (name, _, _, _), t in zip(layout, params._leaves)}
        )
        return params

    def _working_copy(self) -> "ModelParameters":
        """Parameters over a private, writable copy of the buffer, for one
        engine run to update in place through ``_overwrite``. Its tensors
        are read-only views that persist across the run's steps; the run
        hands out only ``_snapshot``s of it."""
        return ModelParameters._views(self.arch, self._flat.copy())

    def _overwrite(self, flat: np.ndarray) -> None:
        """Write flat into a working copy's buffer after one finite check,
        so that a non-finite update leaves the parameters as they were."""
        self._flat[...] = T._require_finite(flat, "parameter update has non-finite entries")

    def _snapshot(self) -> "ModelParameters":
        """Frozen parameters over a fresh copy of the buffer."""
        return ModelParameters._from_flat(self.arch, self._flat.copy())

    def __reduce__(self):
        # Pickled and copied as the architecture plus a copy of the flat
        # values, rebuilt through _from_flat: its finite check also covers
        # a tampered payload, and the views come back read-only.
        return ModelParameters._from_flat, (self.arch, self._flat.copy())

    def replace(self, new_values: list[np.ndarray]) -> "ModelParameters":
        """New parameters with the same names, in positional order.

        The values are copied, so the caller's arrays stay writable and
        unshared.
        """
        layout = self.arch._parameter_layout
        if len(new_values) != len(layout):
            raise DimensionError(
                f"replace: got {len(new_values)} arrays for {len(layout)} parameters"
            )
        values = []
        for (name, _, _, shape), value in zip(layout, new_values):
            value = real_array(value, f"parameter {name}", ValidationError)
            if value.shape != shape:
                raise DimensionError(f"parameter {name}: shape {value.shape}, expected {shape}")
            values.append(value)
        return ModelParameters._from_flat(
            self.arch, np.concatenate(values, axis=None, dtype=np.float64)
        )


def init_parameters(arch: ModelArchitecture, seed: int) -> ModelParameters:
    """Deterministic initialization.

    Weights are uniform on (-s, s) with s = sqrt(6 / (fan_in + fan_out));
    biases start at zero. The draw order is fixed by layer order, so one
    seed always yields the same parameters. The seed must be an integer >= 0.
    """
    if problems := integer_problems(seed=(seed, 0)):
        raise ValidationError(problems[0])
    rng = np.random.default_rng(seed)
    layout = arch._parameter_layout
    flat = np.zeros(layout[-1][2])
    # Weights are the even entries of the layout; biases stay zero.
    for _, start, stop, (fan_in, fan_out) in layout[::2]:
        s = np.sqrt(6.0 / (fan_in + fan_out))
        flat[start:stop] = rng.uniform(-s, s, size=stop - start)
    return ModelParameters._from_flat(arch, flat)


def encode(params: ModelParameters, x) -> Tensor:
    """Unit-norm embeddings for an array batch, shape (B, embedding_dim).

    The batch is checked, copied and then taped as a constant, so the
    tape holds no adjoint for it.
    """
    x = T._checked_copy(x, "batch")
    if x.ndim != 2:
        raise DimensionError(f"expected a batch of rank 2, got shape {x.shape}")
    if x.shape[1] != params.arch.input_dim:
        raise DimensionError(
            f"batch width {x.shape[1]} does not match input_dim {params.arch.input_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # the core's finite checks pick the error
        return _encode(params, x)


def _encode(params: ModelParameters, x: np.ndarray):
    """encode's core, one tape entry, without encode's copy and checks,
    for the rows of a Dataset that passed ``_check_fits``: a Tensor for a
    (B, K) batch, one per part for a (P, B, K) stack (see ``tensor._encoder``)."""
    return T._encoder(x, params._leaves[:-2], params.arch.activation)


def head_logits(params: ModelParameters, z) -> Tensor:
    """Class logits from embeddings, shape (B, num_classes)."""
    z = T.as_tensor(z)
    if z.ndim != 2 or z.shape[1] != params.arch.embedding_dim:
        raise DimensionError(
            f"embedding batch shape {z.shape} does not match embedding_dim "
            f"{params.arch.embedding_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # the core's finite check picks the error
        return _head_logits(params, z)


def _head_logits(params: ModelParameters, z: Tensor) -> Tensor:
    """head_logits' core, one tape entry, without its conversion and check,
    for the output of ``_encode``."""
    return T._dense(z, params._leaves[-2], params._leaves[-1], None)


def _blocks(params: ModelParameters, x: np.ndarray, head: bool = True):
    """Yield (rows, values) for each block of an untaped pass over x, the
    rows of a Dataset that passed ``_check_fits``: the block's slice of x
    and its head logits, or without head its embeddings, computed by the
    cores on a view of those rows.

    The k = ceil(n / arch._block_rows) blocks share the n rows as evenly
    as they go. As _block_rows is at least 3, no block has one row unless
    n is 1: numpy multiplies a one-row matrix as a vector, which may round
    differently (a fixed 512-row block would leave one row of a 513-row
    split). Each row's values have the bits of the public pass over its
    block. They are the whole pass's bits where a row's products depend
    on that row alone, as for the standard architecture. They are not
    for every architecture: on OpenBLAS 0.3.31 a product's rows can
    depend on its row count once its inner width is at least 16 and its
    output width is 1, 2 or 3 past a multiple of 8, as with hidden
    (49, 26) and embedding width 18.

    The whole pass checks every row at each layer before the next, and
    every norm for overflow before any for zero, so a block's error may
    not be the one it raises first; when a block fails, the whole pass
    runs to raise its error. Without head, only the encoder can fail,
    so the whole pass raises before it reaches the head.

    It sets no errstate, which would span its yields: its callers hold
    one around the whole loop, as they do around any core.
    """
    n = x.shape[0]
    k = -(-n // params.arch._block_rows)
    try:
        for i in range(k):
            rows = slice(n * i // k, n * (i + 1) // k)
            z = _encode(params, x[rows])
            yield rows, (_head_logits(params, z) if head else z).data
    except (NonFiniteError, DegenerateEmbeddingError):
        _head_logits(params, _encode(params, x))
        raise


def _untaped(params: ModelParameters, x: np.ndarray, head: bool = True) -> np.ndarray:
    """All rows of ``_blocks``, each block written into one array."""
    arch = params.arch
    out = np.empty((x.shape[0], arch.num_classes if head else arch.embedding_dim))
    for rows, values in _blocks(params, x, head):
        out[rows] = values
    return out


def forward(params: ModelParameters, x) -> Tensor:
    """Logits for a batch of raw features."""
    return head_logits(params, encode(params, x))


def predict_labels(params: ModelParameters, x) -> np.ndarray:
    """Predicted class per row; ties break to the lowest class index."""
    logits = forward(params, x).data
    return np.argmax(logits, axis=1)


def _header_bytes(arch: ModelArchitecture) -> bytes:
    """The JSON header of a checkpoint of this architecture: the format
    version, the architecture and the manifest of tensor names and shapes.
    """
    header = {
        "format_version": _FORMAT_VERSION,
        "architecture": arch.to_dict(),
        "tensors": [
            {"name": n, "shape": list(shape)} for n, shape in arch.parameter_shapes.items()
        ],
    }
    return json.dumps(header, sort_keys=True).encode("utf-8")


def save_checkpoint(params: ModelParameters, path: str | Path) -> None:
    """Write the container described in the module docstring, atomically
    (see ``data._replacing``)."""
    header_bytes = _header_bytes(params.arch)
    payload = params._flat.astype("<f8").tobytes()
    blob = (
        _MAGIC
        + struct.pack("<II", _FORMAT_VERSION, len(header_bytes))
        + header_bytes
        + payload
        + struct.pack("<I", zlib.crc32(payload))
    )
    with _replacing(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path: str | Path) -> ModelParameters:
    """Read a checkpoint; the inverse of save_checkpoint, bit-exact.

    The header must be byte for byte the one save_checkpoint writes for
    the architecture it names, so a damaged key, version or manifest
    raises CheckpointIntegrityError like a damaged payload does.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != _MAGIC:
        raise CheckpointFormatError(f"{path}: not a model checkpoint")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != _FORMAT_VERSION:
        raise CheckpointFormatError(f"{path}: unsupported format version {version}")
    if len(blob) < 12 + header_len:
        raise CheckpointIntegrityError(f"{path}: truncated header")
    header_bytes = blob[12 : 12 + header_len]
    try:
        header = json.loads(header_bytes.decode("utf-8"))
        arch = ModelArchitecture.from_dict(header["architecture"])
    except (ValueError, KeyError, TypeError, OverflowError, ValidationError) as exc:
        raise CheckpointIntegrityError(f"{path}: malformed header ({exc})") from exc
    if header_bytes != _header_bytes(arch):
        raise CheckpointIntegrityError(f"{path}: header does not match its architecture")

    payload_len = 8 * arch._parameter_layout[-1][2]
    expected_len = 12 + header_len + payload_len + 4
    if len(blob) != expected_len:
        raise CheckpointIntegrityError(
            f"{path}: expected {expected_len} bytes, found {len(blob)}"
        )
    payload = blob[12 + header_len : 12 + header_len + payload_len]
    (crc_stored,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != crc_stored:
        raise CheckpointIntegrityError(f"{path}: payload checksum mismatch")

    # On a little-endian machine the conversion is a no-op, so the views
    # share the payload bytes instead of copying them.
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64, copy=False)
    return ModelParameters._from_flat(arch, flat)
