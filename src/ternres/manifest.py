"""Model manifests: layer declarations and tensor loading. Layer output
shapes come from the simulator's own layers (``simulate.resolve_shapes``)."""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field

from .errors import FormatError
from .tensors import Tensor, load_tensor

LAYER_KINDS = ("fc", "conv2d", "relu", "maxpool", "avgpool", "bn_scale")

# Kinds that carry a weight tensor and therefore get quantized, with the rank
# of that weight. A bias, when present, holds one value per output channel.
_WEIGHT_RANK = {"fc": 2, "conv2d": 4, "bn_scale": 1}
PARAMETRIC_KINDS = tuple(_WEIGHT_RANK)


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
            for key, value in layer.hyperparams.items():
                _check_at_least(f"layer {layer.name!r}: {key}", value, 0 if key == "pad" else 1)
        for dim in self.input_shape or ():
            _check_at_least("every input_shape entry", dim, 1)

    def parametric_layers(self) -> list[LayerDecl]:
        return [l for l in self.layers if l.kind in PARAMETRIC_KINDS]


def _check_at_least(what: str, value, low: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")


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
                hyperparams={k: raw[k] for k in _HP_KEYS if k in raw},
            )
            for raw in doc["layers"]
        )
        input_shape = doc.get("input_shape")
        input_shape = tuple(input_shape) if input_shape else None
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


def _check_weight_shape(layer: LayerDecl, weight_shape: tuple[int, ...],
                        bias_shape: tuple[int, ...] | None = None):
    rank = _WEIGHT_RANK[layer.kind]
    if len(weight_shape) != rank:
        raise ValueError(
            f"layer {layer.name!r}: {layer.kind} weight must be {rank}-D, got {weight_shape}")
    if bias_shape is not None and bias_shape != weight_shape[:1]:
        raise ValueError(
            f"layer {layer.name!r}: {layer.kind} bias must have shape "
            f"{weight_shape[:1]}, got {bias_shape}")


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
        _check_weight_shape(layer, weight.shape, None if bias is None else bias.shape)
        out[layer.name] = (weight, bias)
    return out
