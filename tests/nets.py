"""Toy network builders shared by the test modules."""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from ternres import LayerDecl, ModelManifest, Tensor, save_tensor
from ternres.container import MAGIC
from ternres.manifest import are_ints

Weights = dict[str, tuple[Tensor, Tensor | None]]


def mlp_net(rng, in_dim=48, hidden=32, out_dim=8) -> tuple[ModelManifest, Weights]:
    layers = (
        LayerDecl("fc1", "fc", weight_ref="fc1.w.npy", bias_ref="fc1.b.npy"),
        LayerDecl("relu1", "relu"),
        LayerDecl("fc2", "fc", weight_ref="fc2.w.npy"),
    )
    manifest = ModelManifest(layers, input_shape=(in_dim,))
    weights = {
        "fc1": (
            Tensor("fc1", rng.normal(size=(hidden, in_dim)).astype(np.float32)),
            Tensor("fc1.b", rng.normal(size=(hidden,)).astype(np.float32)),
        ),
        "fc2": (
            Tensor("fc2", rng.normal(size=(out_dim, hidden)).astype(np.float32)),
            None,
        ),
    }
    return manifest, weights


def conv_net(rng, in_ch=2, img=8, mid_ch=4, out_dim=6) -> tuple[ModelManifest, Weights]:
    layers = (
        LayerDecl("conv1", "conv2d", weight_ref="conv1.w.npy", bias_ref="conv1.b.npy",
                  hyperparams={"stride": 1, "pad": 1}),
        LayerDecl("bn1", "bn_scale", weight_ref="bn1.a.npy", bias_ref="bn1.b.npy"),
        LayerDecl("relu1", "relu"),
        LayerDecl("pool1", "maxpool", hyperparams={"window": 2, "stride": 2}),
        LayerDecl("conv2", "conv2d", weight_ref="conv2.w.npy",
                  hyperparams={"stride": 1, "pad": 0}),
        LayerDecl("relu2", "relu"),
        LayerDecl("pool2", "avgpool", hyperparams={"window": 2, "stride": 1}),
        LayerDecl("fc1", "fc", weight_ref="fc1.w.npy", bias_ref="fc1.b.npy"),
    )
    manifest = ModelManifest(layers, input_shape=(in_ch, img, img))
    half = img // 2
    fc_in = mid_ch * (half - 3) * (half - 3)
    weights = {
        "conv1": (
            Tensor("conv1", rng.normal(size=(mid_ch, in_ch, 3, 3)).astype(np.float32)),
            Tensor("conv1.b", rng.normal(scale=0.2, size=(mid_ch,)).astype(np.float32)),
        ),
        "bn1": (
            Tensor("bn1", rng.uniform(0.5, 1.5, size=(mid_ch,)).astype(np.float32)),
            Tensor("bn1.b", rng.normal(scale=0.1, size=(mid_ch,)).astype(np.float32)),
        ),
        "conv2": (
            Tensor("conv2", rng.normal(size=(mid_ch, mid_ch, 3, 3)).astype(np.float32)),
            None,
        ),
        "fc1": (
            Tensor("fc1", rng.normal(size=(out_dim, fc_in)).astype(np.float32)),
            Tensor("fc1.b", rng.normal(scale=0.2, size=(out_dim,)).astype(np.float32)),
        ),
    }
    return manifest, weights


def random_net(rng) -> tuple[ModelManifest, Weights]:
    if rng.integers(2) == 0:
        return mlp_net(rng, in_dim=int(rng.integers(16, 64)),
                       hidden=int(rng.integers(8, 40)),
                       out_dim=int(rng.integers(3, 10)))
    return conv_net(rng, in_ch=int(rng.integers(1, 4)), img=8,
                    mid_ch=int(rng.integers(2, 6)),
                    out_dim=int(rng.integers(3, 10)))


def exact_ternary_array(rng, shape, block_size: int, scale_choices=(0.5, 1.0, 2.0)):
    """Every contiguous block lives in {-c, 0, +c} for one block-local c."""
    flat = np.zeros(int(np.prod(shape)), dtype=np.float32)
    for start in range(0, flat.size, block_size):
        length = min(block_size, flat.size - start)
        c = np.float32(rng.choice(scale_choices))
        signs = rng.choice([-1, 0, 1], size=length)
        if not signs.any():
            signs[rng.integers(length)] = 1
        flat[start:start + length] = c * signs.astype(np.float32)
    return flat.reshape(shape)


def exact_ternary_net(rng, block_size: int) -> tuple[ModelManifest, Weights]:
    """A conv/fc net whose every weight block is exactly ternary."""
    manifest, weights = conv_net(rng)
    exact = {}
    for name, (w, b) in weights.items():
        exact[name] = (
            Tensor(name, exact_ternary_array(rng, w.shape, block_size)),
            b,
        )
    return manifest, exact


def write_net(manifest: ModelManifest, weights: Weights, directory) -> str:
    """Materialize a net as NPY files plus a JSON manifest; returns its path."""
    directory = str(directory)
    os.makedirs(directory, exist_ok=True)
    doc: dict = {"layers": []}
    if manifest.input_shape is not None:
        doc["input_shape"] = list(manifest.input_shape)
    for layer in manifest.layers:
        raw: dict = {"name": layer.name, "kind": layer.kind}
        raw.update(layer.hyperparams)
        if layer.weight_ref is not None:
            w, b = weights[layer.name]
            raw["weight"] = f"{layer.name}.w.npy"
            save_tensor(w, os.path.join(directory, raw["weight"]))
            if b is not None:
                raw["bias"] = f"{layer.name}.b.npy"
                save_tensor(b, os.path.join(directory, raw["bias"]))
        doc["layers"].append(raw)
    path = os.path.join(directory, "net.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
    return path


def split_container(raw: bytes) -> tuple[bytes, bytes, bytes]:
    """The magic, the index bytes and the blob of a container."""
    (json_len,) = struct.unpack_from("<I", raw, 4)
    return raw[:4], raw[12:12 + json_len], raw[12 + json_len:]


def join_container(encoded: bytes, blob: bytes) -> bytes:
    """A container of the index bytes ``encoded`` and ``blob``, its header
    carrying the CRC32 of ``encoded``."""
    return MAGIC + struct.pack("<II", len(encoded), zlib.crc32(encoded)) + encoded + blob


def _payload_end(entry: dict, start: int) -> int:
    """Where a layer's payload ends when it starts at blob offset ``start``:
    4 bytes per scale, then per level one sign row of ``(n + 3) // 4`` bytes
    for its block of n weights. It takes Python integers, so any integer
    N >= 1, shape and counts give an end."""
    block, counts = entry["N"], entry["levels_per_block"]
    size = math.prod(entry["shape"])
    full_rows = sum(counts[:size // block])
    tail_rows = sum(counts) - full_rows
    return (start + 4 * sum(counts) + (block + 3) // 4 * full_rows
            + (size % block + 3) // 4 * tail_rows)


def with_spans(layers: list[dict]) -> list[dict]:
    """Each layer entry with its payload's blob span as ``span``; the entries
    are edited in place."""
    start = 0
    for entry in layers:
        entry["span"] = start, _payload_end(entry, start)
        start = entry["span"][1]
    return layers


def _take_layer_crcs(layers: list[dict], blob, keep=frozenset()) -> None:
    """Set each layer entry's ``crc32`` to the CRC32 of the span of ``blob``
    that the entries give it, except the entries numbered in ``keep``. It
    stops at the first entry whose N, shape or counts are not JSON integers,
    N >= 1: the reader rejects that entry before it reads a CRC."""
    start = 0
    for i, entry in enumerate(layers):
        shape, counts = entry["shape"], entry["levels_per_block"]
        if not (type(shape) is list and type(counts) is list
                and are_ints([entry["N"], *shape, *counts]) and entry["N"] >= 1):
            return
        end = _payload_end(entry, start)
        if i not in keep:
            entry["crc32"] = zlib.crc32(blob[start:end])
        start = end


def rewrite_index(path, edit) -> None:
    """Replace a saved container's JSON index by ``edit(index)``; keep its
    blob. Each layer entry whose ``crc32`` the edit left alone gets the CRC32
    of the span the edited index gives it, and the header the CRC32 of the
    new index, so the reader gets past both to the edit."""
    _, encoded, blob = split_container(path.read_bytes())
    before = json.loads(encoded)["layers"]
    index = edit(json.loads(encoded))
    edited = {i for i, (entry, old) in enumerate(zip(index["layers"], before))
              if json.dumps(entry.get("crc32")) != json.dumps(old["crc32"])}
    _take_layer_crcs(index["layers"], blob, edited)
    path.write_bytes(join_container(json.dumps(index).encode("utf-8"), blob))


def rewrite_blob(path, edit) -> None:
    """Edit a saved container's blob in place by ``edit(blob, layers)``,
    where ``blob`` is a bytearray and ``layers`` the index entries with their
    payload spans (``with_spans``). Every layer CRC32 and the index CRC32
    are recomputed, so the reader decodes the edited payload."""
    _, encoded, blob = split_container(path.read_bytes())
    index = json.loads(encoded)
    damaged = bytearray(blob)
    edit(damaged, with_spans([dict(entry) for entry in index["layers"]]))
    _take_layer_crcs(index["layers"], damaged)
    path.write_bytes(join_container(json.dumps(index).encode("utf-8"), bytes(damaged)))
