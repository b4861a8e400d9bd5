"""Serialization of quantized models.

One file holds a little magic header, a JSON index and a binary blob. Per
layer the blob holds the layer's ``alphas`` as consecutive little-endian
float32 values, then its sign rows, 2 bits per weight in two bit planes: bit
0 set for plus one, bit 1 for minus one, both set reserved and rejected on
read. numpy packs them in its little bit order, so weight i of a row holds
bits ``2*(i%4)`` and ``2*(i%4)+1`` of the row's byte ``i//4``; each row is
padded to whole bytes, and padding bits are ignored on read. Both sections are
block-major, each block's base level first, and each layer starts where the
previous one ends. The index stores each block's level count and the blob
offsets of its scales and sign rows, which must be the ones ``_layout``
derives from the counts; no byte may follow the last layer. Writing is
fully deterministic: identical models produce identical bytes.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import FormatError
from .manifest import are_ints, is_count, is_number, manifest_from_dict
from .residual import QuantizedLayer, QuantizedModel

MAGIC = b"TRQ0"
FORMAT_VERSION = 1


def pack_signs(signs: np.ndarray) -> bytes:
    """Pack {-1,0,+1} rows, 4 weights per byte, first weight in low bits.

    ``signs`` is one vector or an ``(L, n)`` matrix; each row is padded to
    whole bytes and the packed rows follow each other.
    """
    signs = np.asarray(signs, dtype=np.int8)
    *rows, n = signs.shape
    planes = np.stack((signs == 1, signs == -1), axis=-1).reshape(*rows, 2 * n)
    return np.packbits(planes, axis=-1, bitorder="little").tobytes()


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
    bits = np.unpackbits(packed, axis=-1, count=2 * length, bitorder="little").view(np.int8)
    plus, minus = bits[..., 0::2], bits[..., 1::2]
    if np.any(plus & minus):
        raise FormatError("sign payload uses the reserved code 0b11")
    return plus - minus


def _layout(counts, block_size: int, size: int, start: int):
    """The v1 layout of one layer whose payload starts at blob offset ``start``.

    Returns each block's scale offset and sign-row offset, the number of sign
    rows of full blocks and the offset where the layer's payload ends.
    """
    level_starts = np.cumsum(counts) - counts
    num_levels = int(counts.sum())
    full, tail = divmod(size, block_size)
    full_rows = int(counts[:full].sum())
    row_bytes = (block_size + 3) // 4
    signs_at = start + 4 * num_levels
    end = signs_at + row_bytes * full_rows + (tail + 3) // 4 * (num_levels - full_rows)
    # Only the last block can be short, so all rows before a block are full rows.
    return start + 4 * level_starts, signs_at + row_bytes * level_starts, full_rows, end


def _layer_index_and_blob(layer: QuantizedLayer, blob: bytearray) -> dict:
    scale_offsets, sign_offsets, full_rows, _ = _layout(
        layer.counts, layer.block_size, layer.num_weights, len(blob))
    blob.extend(layer.alphas.astype("<f4").tobytes())
    blob.extend(pack_signs(layer.signs[:full_rows, :layer.block_size]))
    blob.extend(pack_signs(layer.signs[full_rows:, :layer.num_weights % layer.block_size]))
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


def _read_layer(entry: dict, blob: np.ndarray, start: int) -> tuple[QuantizedLayer, int]:
    """One layer whose payload starts at ``start``, and where its payload ends."""
    name, exhausted = entry["name"], entry.get("exhausted", False)
    if not (isinstance(name, str) and isinstance(exhausted, bool)):
        raise FormatError(f"layer {name!r} (exhausted {exhausted!r}): the name must "
                          f"be a string and exhausted true or false")
    shape, block_size, levels = entry["shape"], entry["N"], entry["levels_per_block"]
    if not (is_count(block_size) and are_ints(shape) and min(shape, default=1) >= 1):
        raise FormatError(f"layer {name!r}: N and every dimension must be integers >= 1, "
                          f"got N={block_size!r}, shape {shape!r}")
    shape = tuple(shape)
    size = math.prod(shape)
    num_blocks = -(-size // block_size)
    counts = np.asarray(levels, dtype=np.int64)
    # No block holds more levels than the blob has bytes, so no sum overflows.
    if not are_ints(levels) or counts.shape != (num_blocks,) or np.any(
            (counts < 1) | (counts > len(blob))):
        raise FormatError(f"layer {name!r}: levels_per_block must hold {num_blocks} "
                          f"integer counts from 1 to the blob size")
    scale_offsets, sign_offsets, full_rows, end = _layout(counts, block_size, size, start)
    offsets = entry["scale_offsets"], entry["sign_offsets"]
    if not (all(map(are_ints, offsets))
            and offsets == (scale_offsets.tolist(), sign_offsets.tolist())):
        raise FormatError(
            f"layer {name!r}: scale_offsets and sign_offsets differ from the v1 layout")
    if end > len(blob):
        raise FormatError(f"layer {name!r}: truncated payload")

    num_levels = int(counts.sum())
    alphas = blob[start:start + 4 * num_levels].view("<f4")
    packed = blob[start + 4 * num_levels:end]
    split = full_rows * ((block_size + 3) // 4)
    signs = np.zeros((num_levels, min(block_size, size)), dtype=np.int8)
    for rows, n, part in ((slice(None, full_rows), block_size, packed[:split]),
                          (slice(full_rows, None), size % block_size, packed[split:])):
        if part.size:
            signs[rows, :n] = unpack_signs(part.reshape(-1, (n + 3) // 4), n)
    if not np.all(np.isfinite(alphas) & ~np.signbit(alphas)) or np.any(
            (alphas == 0) == signs.any(axis=1)):
        raise FormatError(
            f"layer {name!r}: inconsistent level (alpha must be finite with no sign "
            f"bit, and zero exactly when all signs are zero)")

    numbers = [entry[key] for key in ("delta", "epsilon_sq", "source_norm_sq")]
    if not (all(map(is_number, numbers)) and np.all(np.isfinite(numbers))):
        raise FormatError(
            f"layer {name!r}: delta, epsilon_sq and source_norm_sq must be finite numbers")

    return QuantizedLayer(
        name, shape, block_size, counts.astype(np.int32), alphas.astype(np.float32),
        signs, *map(float, numbers), exhausted=exhausted), end


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
    if not isinstance(index, dict):
        raise FormatError(f"{path}: bad index (not a JSON object)")
    version = index.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: format_version {version!r}, expected {FORMAT_VERSION}")
    manifest_doc, provenance = index.get("manifest", {}), index.get("provenance", {})
    if not (isinstance(manifest_doc, dict) and isinstance(provenance, dict)):
        raise FormatError(f"{path}: manifest and provenance must be JSON objects")
    if manifest_doc:
        try:
            manifest_from_dict(manifest_doc)
        except FormatError as exc:
            raise FormatError(f"{path}: bad stored manifest ({exc})") from exc
    blob = np.frombuffer(raw, dtype=np.uint8, offset=8 + json_len)
    layers, end = [], 0
    try:
        for entry in index["layers"]:
            layer, end = _read_layer(entry, blob, end)
            layers.append(layer)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed layer index ({exc})") from exc
    if end != len(blob):
        raise FormatError(f"{path}: the blob is {len(blob)} bytes but its layers end at {end}")
    return QuantizedModel(manifest_doc, tuple(layers), provenance)
