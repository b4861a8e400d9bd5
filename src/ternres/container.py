"""Serialization of quantized models.

One file holds a little header, a JSON index and a binary blob. Per layer
the blob holds the layer's ``alphas`` as consecutive little-endian float32
values, then its sign rows at 2 bits per weight: weight i of a row owns bits
``2*(i%4)`` (set for plus one) and ``2*(i%4)+1`` (set for minus one) of the
row's byte ``i//4``; both set is the reserved code ``0b11``, rejected on
read. Each row is padded to whole bytes, and padding bits are ignored on
read. The reader decodes a packed byte at a time through ``_DECODE``, whose
256 words hold the four int8 signs of every byte value, and checks the
payload on the packed bytes. Both sections are block-major, each block's
base level first, and each layer starts where the previous one ends; no
byte may follow the last layer.

The writer makes format 2 only: the magic ``TRQ2``, the u32 length and the
u32 CRC32 (``zlib``) of the index, then the index and the blob. The index
stores each block's level count and the CRC32 of each layer's payload; the
payload's place in the blob is the one ``_sign_runs`` derives from the counts.
The reader checks the index CRC before it parses the index, and a layer's
CRC before it decodes that layer. It reads format 2 only. Writing is fully
deterministic: identical models produce identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .errors import FormatError
from .manifest import are_ints, is_count, is_number, manifest_from_dict
from .residual import QuantizedLayer, QuantizedModel

MAGIC = b"TRQ2"
FORMAT_VERSION = 2
CHUNK_BYTES = 256 << 10  # pack_signs' uint32 work words stay near this size


def pack_signs(signs: np.ndarray) -> bytes:
    """Pack {-1,0,+1} rows, 4 weights per byte, first weight in low bits.

    ``signs`` is one vector or an ``(L, n)`` matrix; each row is padded to
    whole bytes and the packed rows follow each other. Rows are packed in
    chunks whose uint32 work words hold about ``CHUNK_BYTES``.
    """
    signs = np.asarray(signs, dtype=np.int8)
    n = signs.shape[-1]
    signs = signs.reshape(math.prod(signs.shape[:-1]), n)
    out = np.empty((len(signs), (n + 3) // 4), np.uint8)
    step = max(1, CHUNK_BYTES // max(1, 4 * out.shape[1]))
    # One little-endian word per output byte, weight j of it in byte j; the
    # padding bytes of each word stay zero from here on.
    words = np.zeros((min(step, len(signs)), out.shape[1]), "<u4")
    code = np.empty_like(words)
    for at in range(0, len(signs), step):
        rows = signs[at:at + step]
        w, c = words[:len(rows)], code[:len(rows)]
        w.view(np.int8)[:, :n] = rows
        # Byte j becomes its 2-bit code: 1 (0x01) stays 0b01, -1 (0xFF) turns 0b10.
        np.right_shift(w, 1, out=c)
        c &= 0x01010101
        w &= 0x03030303
        c ^= w
        # Move the code of byte j to bits 2j and 2j+1 of the low byte.
        c |= c >> 6
        c |= c >> 12
        out[at:at + len(rows)] = c
    return out.tobytes()


# Word b holds the four int8 signs of packed byte b, weight 0 in its lowest
# byte; the reserved code decodes to 0 but never gets past _checked_rows.
_DECODE = np.array([0, 1, -1, 0], np.int8)[
    (np.arange(256)[:, None] >> np.arange(0, 8, 2)) & 3].view("<i4").ravel()


def _checked_rows(packed: np.ndarray, length: int) -> np.ndarray:
    """Packed rows of ``length`` weights with their padding bits cleared;
    raises ``FormatError`` on the reserved code."""
    if length % 4:
        mask = np.full(packed.shape[-1], 0xFF, np.uint8)
        mask[-1] >>= 8 - 2 * (length % 4)
        packed = packed & mask
    if np.any(packed & (packed >> 1) & 0x55):
        raise FormatError("sign payload uses the reserved code 0b11")
    return packed


def _nonzero_rows(packed: np.ndarray) -> np.ndarray:
    """Whether each packed row has a set bit. Rows of whole uint64 words are
    ORed one word column at a time, since numpy reduces short rows slowly."""
    if packed.shape[-1] % 8 or not packed.flags.c_contiguous:
        return packed.any(axis=1)
    words = packed.view("<u8")
    acc = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        acc |= words[:, j]
    return acc != 0


def _decode_into(out: np.ndarray, packed: np.ndarray) -> None:
    """Write the signs of checked packed rows into the int8 rows ``out``."""
    if out.shape[-1] % 4 == 0 and out.flags.c_contiguous:
        # A uint8 index never wraps; mode="raise" would buffer ``out``.
        np.take(_DECODE, packed, out=out.view("<i4"), mode="wrap")
    else:
        out[...] = np.take(_DECODE, packed, mode="wrap").view(np.int8)[..., :out.shape[-1]]


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
    signs = np.empty(packed.shape[:-1] + (length,), np.int8)
    _decode_into(signs, _checked_rows(packed, length))
    return signs


def _sign_runs(counts, block_size: int, size: int) -> list[tuple[int, int]]:
    """A layer's sign rows in blob order, as ``(rows, width)`` runs: the full
    blocks' rows, ``block_size`` weights wide, then the tail block's rows.

    Only the last block can be short, so the full blocks' rows come first.
    An empty run is left out.
    """
    full_rows = int(counts[:size // block_size].sum())
    runs = ((full_rows, block_size), (int(counts.sum()) - full_rows, size % block_size))
    return [(rows, width) for rows, width in runs if rows]


def _layer_index_and_payload(layer: QuantizedLayer) -> tuple[dict, list[bytes]]:
    payload, at = [layer.alphas.astype("<f4").tobytes()], 0
    for rows, width in _sign_runs(layer.counts, layer.block_size, layer.num_weights):
        payload.append(pack_signs(layer.signs[at:at + rows, :width]))
        at += rows
    crc = 0
    for part in payload:
        crc = zlib.crc32(part, crc)
    return {
        "name": layer.layer,
        "shape": list(layer.shape),
        "N": layer.block_size,
        "delta": layer.delta,
        "epsilon_sq": layer.epsilon_sq,
        "source_norm_sq": layer.source_norm_sq,
        "exhausted": layer.exhausted,
        "levels_per_block": layer.levels_per_block(),
        "crc32": crc,
    }, payload


def save_quantized(model: QuantizedModel, path) -> None:
    layers, blob = [], []
    for layer in model.layers:
        entry, payload = _layer_index_and_payload(layer)
        layers.append(entry)
        blob += payload
    index = {
        "format_version": FORMAT_VERSION,
        "manifest": model.manifest_doc,
        "provenance": model.provenance,
        "layers": layers,
    }
    encoded = json.dumps(index, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(str(path), "wb") as fp:
        fp.write(MAGIC + struct.pack("<II", len(encoded), zlib.crc32(encoded)))
        fp.write(encoded)
        fp.writelines(blob)


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
    runs = _sign_runs(counts, block_size, size)
    signs_at = start + 4 * int(counts.sum())
    end = signs_at + sum(rows * ((width + 3) // 4) for rows, width in runs)
    if end > len(blob):
        raise FormatError(f"layer {name!r}: truncated payload")
    crc = entry["crc32"]
    if not (is_count(crc, 0) and crc < 1 << 32):
        raise FormatError(f"layer {name!r}: crc32 must be an integer from 0 to "
                          f"2**32 - 1, got {crc!r}")
    if zlib.crc32(blob[start:end]) != crc:
        raise FormatError(f"layer {name!r}: the payload fails its CRC32")

    alphas = blob[start:signs_at].view("<f4")
    signs = np.zeros((len(alphas), min(block_size, size)), dtype=np.int8)
    nonzero = np.zeros(len(alphas), dtype=bool)
    at, row = signs_at, 0
    for rows, width in runs:
        part = blob[at:at + rows * ((width + 3) // 4)]
        packed = _checked_rows(part.reshape(rows, -1), width)
        nonzero[row:row + rows] = _nonzero_rows(packed)
        _decode_into(signs[row:row + rows, :width], packed)
        at, row = at + part.size, row + rows
    if not np.all(np.isfinite(alphas) & ~np.signbit(alphas)) or np.any(
            (alphas == 0) == nonzero):
        raise FormatError(
            f"layer {name!r}: inconsistent level (alpha must be finite with no sign "
            f"bit, and zero exactly when all signs are zero)")

    numbers = [entry[key] for key in ("delta", "epsilon_sq", "source_norm_sq")]
    if not (all(map(is_number, numbers)) and np.all(np.isfinite(numbers))):
        raise FormatError(
            f"layer {name!r}: delta, epsilon_sq and source_norm_sq must be finite numbers")
    delta, epsilon_sq, source_norm_sq = map(float, numbers)
    if not (delta >= 0.0 and source_norm_sq >= 0.0 and 0.0 < epsilon_sq <= 1.0):
        raise FormatError(
            f"layer {name!r}: delta {delta!r} and source_norm_sq {source_norm_sq!r} must "
            f"be non-negative and epsilon_sq {epsilon_sq!r} in (0, 1]")
    # A source with no energy converts to alpha-0 base levels and delta 0.
    if source_norm_sq == 0.0 and (delta != 0.0 or np.any(alphas)):
        raise FormatError(f"layer {name!r}: source_norm_sq 0 beside nonzero alphas "
                          f"or delta {delta!r}")

    return QuantizedLayer(
        name, shape, block_size, counts.astype(np.int32), alphas.astype(np.float32),
        signs, delta, epsilon_sq, source_norm_sq, exhausted=exhausted), end


def load_quantized(path) -> QuantizedModel:
    path = str(path)
    with open(path, "rb") as fp:
        raw = fp.read()
    if raw[:4] != MAGIC:
        if raw[:4] == MAGIC[:3] + b"0":  # format 1's magic
            raise FormatError(f"{path}: a format 1 container; format 1 is no longer "
                              f"read (the README says how to convert it to format 2)")
        raise FormatError(f"{path}: not a quantized container")
    index_at = 12  # after the magic, the index length and the index CRC32
    if len(raw) < index_at:
        raise FormatError(f"{path}: truncated header")
    json_len, index_crc = struct.unpack_from("<II", raw, 4)
    if len(raw) < index_at + json_len:
        raise FormatError(f"{path}: truncated index")
    encoded = raw[index_at:index_at + json_len]
    if index_crc != zlib.crc32(encoded):
        raise FormatError(f"{path}: the index fails its CRC32")
    try:
        index = json.loads(encoded.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad index ({exc})") from exc
    if not isinstance(index, dict):
        raise FormatError(f"{path}: bad index (not a JSON object)")
    stored = index.get("format_version")
    if type(stored) is not int or stored != FORMAT_VERSION:
        raise FormatError(f"{path}: format_version {stored!r}, expected {FORMAT_VERSION}")
    manifest_doc, provenance = index.get("manifest", {}), index.get("provenance", {})
    if not (isinstance(manifest_doc, dict) and isinstance(provenance, dict)):
        raise FormatError(f"{path}: manifest and provenance must be JSON objects")
    if manifest_doc:
        try:
            manifest_from_dict(manifest_doc)
        except FormatError as exc:
            raise FormatError(f"{path}: bad stored manifest ({exc})") from exc
    blob = np.frombuffer(raw, dtype=np.uint8, offset=index_at + json_len)
    layers, end = [], 0
    try:
        for entry in index["layers"]:
            layer, end = _read_layer(entry, blob, end)
            layers.append(layer)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed layer index ({exc})") from exc
    if end != len(blob):
        raise FormatError(f"{path}: the blob is {len(blob)} bytes but its layers end at {end}")
    try:
        return QuantizedModel(manifest_doc, tuple(layers), provenance)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
