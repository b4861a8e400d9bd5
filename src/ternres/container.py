"""Serialization of quantized models.

One file holds a little magic header, a JSON index and a binary blob. Per
layer the blob holds the layer's ``alphas`` as consecutive little-endian
float32 values, then its sign rows, 2 bits per weight (little-endian within
a byte: 00 zero, 01 plus one, 10 minus one, 11 reserved and rejected on
read), each level's row padded to whole bytes. Both sections are
block-major, each block's base level first; the index gives each block's
level count and the offsets of its scales and sign rows in the blob. Writing
is fully deterministic: identical models produce identical bytes.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError
from .residual import QuantizedLayer, QuantizedModel, level_index
from .tensors import block_lengths

MAGIC = b"TRQ0"
FORMAT_VERSION = 1

_SIGN_OF_CODE = np.array([0, 1, -1, 0], dtype=np.int8)
_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


def pack_signs(signs: np.ndarray) -> bytes:
    """Pack {-1,0,+1} rows, 4 weights per byte, first weight in low bits.

    ``signs`` is one vector or an ``(L, n)`` matrix; each row is padded to
    whole bytes and the packed rows follow each other.
    """
    signs = np.asarray(signs, dtype=np.int8)
    *rows, n = signs.shape
    codes = np.zeros((*rows, -(-n // 4) * 4), dtype=np.uint8)
    codes[..., :n] = np.where(signs == 1, 1, np.where(signs == -1, 2, 0))
    quads = codes.reshape(*rows, codes.shape[-1] // 4, 4) << _SHIFTS
    return np.bitwise_or.reduce(quads, axis=-1).tobytes()


def unpack_signs(payload, length: int) -> np.ndarray:
    """Inverse of pack_signs; rejects the reserved code 11.

    ``payload`` is the bytes of one row, giving a vector, or a uint8
    ``(L, (length+3)//4)`` matrix of packed rows, giving an int8 ``(L,
    length)`` matrix.
    """
    packed = payload if isinstance(payload, np.ndarray) else np.frombuffer(payload, np.uint8)
    if packed.shape[-1] != (length + 3) // 4:
        raise FormatError(
            f"sign payload holds {packed.shape[-1]} bytes, expected {(length + 3) // 4}"
        )
    codes = (packed[..., None] >> _SHIFTS) & 0b11
    codes = codes.reshape(*packed.shape[:-1], 4 * packed.shape[-1])[..., :length]
    if np.any(codes == 3):
        raise FormatError("sign payload uses the reserved code 0b11")
    return _SIGN_OF_CODE[codes]


def _layer_index_and_blob(layer: QuantizedLayer, blob: bytearray) -> dict:
    starts = layer.level_starts()
    scale_offsets = len(blob) + 4 * starts
    blob.extend(layer.alphas.astype("<f4").tobytes())
    # Blocks before the tail are full, so a block's sign rows start at its
    # first level times the packed width of a full row.
    sign_offsets = len(blob) + (layer.block_size + 3) // 4 * starts
    full, tail = divmod(layer.num_weights, layer.block_size)
    full_rows = int(layer.counts[:full].sum())
    blob.extend(pack_signs(layer.signs[:full_rows, :layer.block_size]))
    blob.extend(pack_signs(layer.signs[full_rows:, :tail]))
    return {
        "name": layer.layer,
        "shape": list(layer.shape),
        "N": layer.block_size,
        "delta": layer.delta,
        "epsilon_sq": layer.epsilon_sq,
        "source_norm_sq": layer.source_norm_sq,
        "exhausted": layer.exhausted,
        "levels_per_block": layer.levels_per_block(),
        "scale_offsets": scale_offsets.tolist(),
        "sign_offsets": sign_offsets.tolist(),
    }


def save_quantized(model: QuantizedModel, path) -> None:
    blob = bytearray()
    layers = [_layer_index_and_blob(l, blob) for l in model.layers]
    index = {
        "format_version": FORMAT_VERSION,
        "manifest": model.manifest_doc,
        "provenance": model.provenance,
        "layers": layers,
    }
    encoded = json.dumps(index, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(str(path), "wb") as fp:
        fp.write(MAGIC)
        fp.write(struct.pack("<I", len(encoded)))
        fp.write(encoded)
        fp.write(bytes(blob))


def _read_layer(entry: dict, blob: np.ndarray) -> QuantizedLayer:
    name = entry["name"]
    shape = tuple(int(d) for d in entry["shape"])
    block_size = int(entry["N"])
    if block_size < 1:
        raise FormatError(f"layer {name!r}: block size N must be >= 1, got {block_size}")
    size = int(np.prod(shape, dtype=np.int64))
    lengths = block_lengths(size, block_size)
    num_blocks = len(lengths)
    counts = np.asarray(entry["levels_per_block"], dtype=np.int64)
    scale_offsets = np.asarray(entry["scale_offsets"], dtype=np.int64)
    sign_offsets = np.asarray(entry["sign_offsets"], dtype=np.int64)
    if not (counts.shape == scale_offsets.shape == sign_offsets.shape == (num_blocks,)):
        raise FormatError(f"layer {name!r}: index does not match {num_blocks} blocks")
    if np.any(counts < 1) or np.any(scale_offsets < 0) or np.any(sign_offsets < 0):
        raise FormatError(f"layer {name!r}: level counts must be >= 1 and offsets >= 0")
    row_bytes = (lengths + 3) // 4
    if np.any(scale_offsets + 4 * counts > len(blob)):
        raise FormatError(f"layer {name!r}: truncated scale payload")
    if np.any(sign_offsets + row_bytes * counts > len(blob)):
        raise FormatError(f"layer {name!r}: truncated sign payload")

    owner, depth = level_index(counts)
    scale_at = scale_offsets[owner] + 4 * depth
    alphas = blob[scale_at[:, None] + np.arange(4)].view("<f4").reshape(-1)
    sign_at = sign_offsets[owner] + row_bytes[owner] * depth
    signs = np.zeros((len(owner), min(block_size, size)), dtype=np.int8)
    full, tail = divmod(size, block_size)
    full_rows = int(counts[:full].sum())
    for rows, n in ((slice(None, full_rows), block_size), (slice(full_rows, None), tail)):
        at = sign_at[rows]
        if at.size:
            signs[rows, :n] = unpack_signs(blob[at[:, None] + np.arange((n + 3) // 4)], n)
    if not np.all(np.isfinite(alphas) & (alphas >= 0)) or np.any(
            (alphas == 0) == signs.any(axis=1)):
        raise FormatError(
            f"layer {name!r}: inconsistent level (alpha must be finite and >= 0, "
            f"and zero exactly when all signs are zero)")

    numbers = [float(entry[key]) for key in ("delta", "epsilon_sq", "source_norm_sq")]
    if not np.all(np.isfinite(numbers)):
        raise FormatError(
            f"layer {name!r}: delta, epsilon_sq and source_norm_sq must be finite")

    return QuantizedLayer(
        name, shape, block_size, counts.astype(np.int32), alphas.astype(np.float32),
        signs, *numbers, exhausted=bool(entry.get("exhausted", False)))


def load_quantized(path) -> QuantizedModel:
    path = str(path)
    with open(path, "rb") as fp:
        raw = fp.read()
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: not a quantized container")
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated header")
    (json_len,) = struct.unpack("<I", raw[4:8])
    if len(raw) < 8 + json_len:
        raise FormatError(f"{path}: truncated index")
    try:
        index = json.loads(raw[8 : 8 + json_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad index ({exc})") from exc
    version = index.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: format_version {version!r}, expected {FORMAT_VERSION}")
    blob = np.frombuffer(raw, dtype=np.uint8, offset=8 + json_len)
    try:
        layers = tuple(_read_layer(entry, blob) for entry in index["layers"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed layer index ({exc})") from exc
    return QuantizedModel(
        manifest_doc=index.get("manifest") or {},
        layers=layers,
        provenance=index.get("provenance") or {},
    )
