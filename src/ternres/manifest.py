"""Model manifests: layer declarations, tensor loading, shape propagation."""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass, field

from .errors import FormatError
from .tensors import Tensor, load_tensor

LAYER_KINDS = ("fc", "conv2d", "relu", "maxpool", "avgpool", "bn_scale")

# Kinds that carry a weight tensor and therefore get quantized.
PARAMETRIC_KINDS = ("fc", "conv2d", "bn_scale")


@dataclass(frozen=True)
class LayerDecl:
    name: str
    kind: str
    weight_ref: str | None = None
    bias_ref: str | None = None
    hyperparams: dict[str, int] = field(default_factory=dict)

    def hp(self, key: str, default: int | None = None) -> int:
        value = self.hyperparams.get(key, default)
        if value is None:
            raise ValueError(f"layer {self.name!r}: missing hyperparameter {key!r}")
        return int(value)


@dataclass(frozen=True)
class ModelManifest:
    layers: tuple[LayerDecl, ...]
    input_shape: tuple[int, ...] | None = None
    base_dir: str = "."

    def __post_init__(self):
        seen = set()
        for layer in self.layers:
            if layer.kind not in LAYER_KINDS:
                raise ValueError(f"layer {layer.name!r}: unknown kind {layer.kind!r}")
            if layer.name in seen:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            seen.add(layer.name)
            has_weight = layer.weight_ref is not None
            if has_weight != (layer.kind in PARAMETRIC_KINDS):
                raise ValueError(
                    f"layer {layer.name!r} ({layer.kind}): weight_ref must be "
                    f"present iff the kind is parametric"
                )

    def parametric_layers(self) -> list[LayerDecl]:
        return [l for l in self.layers if l.kind in PARAMETRIC_KINDS]


_HP_KEYS = ("stride", "pad", "window")


def _string(raw: dict, key: str) -> str:
    value = raw[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {value!r}")
    return value


def manifest_from_dict(doc: dict, base_dir: str = ".") -> ModelManifest:
    """Parse a manifest document; a field of the wrong type, or layers that
    break the ``ModelManifest`` rules, are a ``FormatError``."""
    try:
        layers = tuple(
            LayerDecl(
                name=_string(raw, "name"),
                kind=_string(raw, "kind"),
                weight_ref=_string(raw, "weight") if "weight" in raw else None,
                bias_ref=_string(raw, "bias") if "bias" in raw else None,
                hyperparams={k: operator.index(raw[k]) for k in _HP_KEYS if k in raw},
            )
            for raw in doc["layers"]
        )
        input_shape = doc.get("input_shape")
        input_shape = tuple(operator.index(d) for d in input_shape) if input_shape else None
    except (AttributeError, KeyError, TypeError) as exc:
        raise FormatError(f"manifest: malformed layers or input_shape ({exc})") from exc
    try:
        return ModelManifest(layers=layers, input_shape=input_shape, base_dir=base_dir)
    except ValueError as exc:
        raise FormatError(f"manifest: {exc}") from exc


def manifest_to_dict(manifest: ModelManifest) -> dict:
    doc: dict = {"layers": []}
    if manifest.input_shape is not None:
        doc["input_shape"] = list(manifest.input_shape)
    for layer in manifest.layers:
        raw: dict = {"name": layer.name, "kind": layer.kind}
        if layer.weight_ref is not None:
            raw["weight"] = layer.weight_ref
        if layer.bias_ref is not None:
            raw["bias"] = layer.bias_ref
        raw.update(layer.hyperparams)
        doc["layers"].append(raw)
    return doc


def load_manifest(path) -> ModelManifest:
    path = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    return manifest_from_dict(doc, base_dir=os.path.dirname(path) or ".")


def save_manifest(manifest: ModelManifest, path) -> None:
    with open(str(path), "w", encoding="utf-8") as fp:
        json.dump(manifest_to_dict(manifest), fp, indent=2, sort_keys=True)
        fp.write("\n")


def _check_weight_shape(layer: LayerDecl, weight: Tensor, bias: Tensor | None):
    if layer.kind == "fc" and weight.data.ndim != 2:
        raise ValueError(f"layer {layer.name!r}: fc weight must be 2-D, got {weight.shape}")
    if layer.kind == "conv2d" and weight.data.ndim != 4:
        raise ValueError(f"layer {layer.name!r}: conv2d weight must be 4-D, got {weight.shape}")
    if layer.kind == "bn_scale":
        if weight.data.ndim != 1:
            raise ValueError(f"layer {layer.name!r}: bn_scale weight must be 1-D")
        if bias is not None and bias.shape != weight.shape:
            raise ValueError(f"layer {layer.name!r}: bn_scale bias shape mismatch")
    if layer.kind == "fc" and bias is not None and bias.shape != (weight.shape[0],):
        raise ValueError(f"layer {layer.name!r}: fc bias must have shape (out,)")
    if layer.kind == "conv2d" and bias is not None and bias.shape != (weight.shape[0],):
        raise ValueError(f"layer {layer.name!r}: conv2d bias must have shape (C_out,)")


def load_weights(manifest: ModelManifest) -> dict[str, tuple[Tensor, Tensor | None]]:
    """Load every referenced tensor, validating shapes against layer kinds.

    Returns ``{layer_name: (weight, bias_or_None)}`` for parametric layers.
    """
    out: dict[str, tuple[Tensor, Tensor | None]] = {}
    for layer in manifest.parametric_layers():
        wpath = os.path.join(manifest.base_dir, layer.weight_ref)
        weight = load_tensor(wpath, name=layer.name)
        bias = None
        if layer.bias_ref is not None:
            bpath = os.path.join(manifest.base_dir, layer.bias_ref)
            bias = load_tensor(bpath, name=f"{layer.name}.bias")
        _check_weight_shape(layer, weight, bias)
        out[layer.name] = (weight, bias)
    return out


def output_shape(layer: LayerDecl, in_shape: tuple[int, ...],
                 weight_shape: tuple[int, ...] | None) -> tuple[int, ...]:
    """Shape of one layer's output for a single (batchless) sample."""
    if layer.kind == "fc":
        out_dim, in_dim = weight_shape
        flat = 1
        for d in in_shape:
            flat *= d
        if flat != in_dim:
            raise ValueError(
                f"layer {layer.name!r}: fc expects {in_dim} inputs, got shape {in_shape}"
            )
        return (out_dim,)
    if layer.kind == "conv2d":
        c_out, c_in, kh, kw = weight_shape
        if len(in_shape) != 3 or in_shape[0] != c_in:
            raise ValueError(
                f"layer {layer.name!r}: conv2d expects (C={c_in},H,W), got {in_shape}"
            )
        stride = layer.hp("stride", 1)
        pad = layer.hp("pad", 0)
        h = (in_shape[1] + 2 * pad - kh) // stride + 1
        w = (in_shape[2] + 2 * pad - kw) // stride + 1
        if h < 1 or w < 1:
            raise ValueError(f"layer {layer.name!r}: kernel larger than padded input")
        return (c_out, h, w)
    if layer.kind in ("maxpool", "avgpool"):
        window = layer.hp("window")
        stride = layer.hp("stride", window)
        if len(in_shape) != 3:
            raise ValueError(f"layer {layer.name!r}: pooling expects (C,H,W), got {in_shape}")
        h = (in_shape[1] - window) // stride + 1
        w = (in_shape[2] - window) // stride + 1
        if h < 1 or w < 1:
            raise ValueError(f"layer {layer.name!r}: pooling window larger than input")
        return (in_shape[0], h, w)
    if layer.kind == "bn_scale":
        (channels,) = weight_shape
        if in_shape[0] != channels:
            raise ValueError(
                f"layer {layer.name!r}: bn_scale over {channels} channels cannot "
                f"apply to shape {in_shape}"
            )
        return in_shape
    return in_shape  # relu


def resolve_shapes(
    manifest: ModelManifest, weight_shapes: dict[str, tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Per-layer output shapes for one sample; raises if not resolvable."""
    if manifest.input_shape is None:
        raise ValueError("input shape is required to resolve layer shapes")
    shapes = []
    cur = tuple(manifest.input_shape)
    for layer in manifest.layers:
        if layer.kind in PARAMETRIC_KINDS and layer.name not in weight_shapes:
            raise ValueError(f"layer {layer.name!r}: no weight shape to resolve")
        cur = output_shape(layer, cur, weight_shapes.get(layer.name))
        shapes.append(cur)
    return shapes
