"""Framework-neutral float32 tensors, NPY v1.0 I/O, and contiguous blocking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.lib.format as _npy

from .errors import FormatError, UnsupportedDtypeError

_F4 = np.dtype("<f4")


@dataclass(frozen=True)
class Tensor:
    """A named, shaped container of finite float32 values (row-major)."""

    name: str
    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=_F4)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"tensor {self.name!r} contains NaN or Inf")
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def unrolled(self) -> np.ndarray:
        """Row-major flat view used for block partitioning."""
        return self.data.reshape(-1)


@dataclass(frozen=True)
class BlockView:
    """One contiguous block of a layer's unrolled weight vector."""

    layer: str
    block_index: int
    start: int
    length: int

    @property
    def stop(self) -> int:
        return self.start + self.length


def partition_blocks(t: Tensor, block_size: int) -> list[BlockView]:
    """Split the unrolled tensor into ceil(len/N) contiguous blocks.

    All blocks have length ``block_size`` except possibly the last, which
    holds the remainder.
    """
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    n = t.size
    blocks = []
    for k, start in enumerate(range(0, n, block_size)):
        blocks.append(BlockView(t.name, k, start, min(block_size, n - start)))
    return blocks


def block_lengths(size: int, block_size: int) -> np.ndarray:
    """Lengths of the ``partition_blocks`` blocks of a ``size``-weight tensor."""
    starts = np.arange(0, size, block_size, dtype=np.int64)
    return np.minimum(block_size, size - starts)


def load_tensor(path, name: str | None = None) -> Tensor:
    """Read one NPY v1.0 file holding a little-endian float32 array.

    Anything other than ``descr='<f4', fortran_order=False`` is rejected so
    that the on-disk bit pattern and the in-memory row-major layout always
    agree.
    """
    path = str(path)
    with open(path, "rb") as fp:
        try:
            version = _npy.read_magic(fp)
        except ValueError as exc:
            raise FormatError(f"{path}: not an NPY file ({exc})") from exc
        if version != (1, 0):
            raise FormatError(f"{path}: unsupported NPY version {version}")
        try:
            shape, fortran_order, dtype = _npy.read_array_header_1_0(fp)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed NPY header ({exc})") from exc
        if dtype != _F4:
            raise UnsupportedDtypeError(
                f"{path}: dtype {dtype.str!r} is not little-endian float32"
            )
        if fortran_order:
            raise FormatError(f"{path}: fortran_order=True is not supported")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        payload = fp.read(count * 4)
        if len(payload) != count * 4:
            raise FormatError(f"{path}: truncated payload")
    data = np.frombuffer(payload, dtype=_F4).reshape(shape)
    return Tensor(name if name is not None else path, data)


def save_tensor(t: Tensor, path) -> None:
    """Write ``t`` as a canonical NPY v1.0 file (bit-exact round trip)."""
    header = {"descr": "<f4", "fortran_order": False, "shape": tuple(t.shape)}
    with open(str(path), "wb") as fp:
        _npy.write_array_header_1_0(fp, header)
        fp.write(t.data.tobytes())
