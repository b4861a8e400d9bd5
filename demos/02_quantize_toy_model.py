"""Convert a small conv net to stacked ternary form, end to end.

Builds a toy model on disk (NPY weights + JSON manifest), converts it with
a depth-graded tolerance schedule (earlier layers tighter, because their
perturbations are amplified the most), and writes the quantized container
plus a cost report.
"""

import json
import os
import tempfile

import numpy as np

from ternres import (
    Tensor,
    convert_model,
    flops_per_layer,
    load_manifest,
    load_quantized,
    load_weights,
    make_schedule,
    reconstruct,
    save_quantized,
    save_tensor,
)

rng = np.random.default_rng(7)
workdir = tempfile.mkdtemp(prefix="ternres_demo_")
print("working in", workdir)

# -- a tiny conv net: conv(3x3) -> bn+scale -> relu -> maxpool -> fc -------
tensors = {
    "conv1.w": rng.normal(size=(8, 3, 3, 3)).astype(np.float32),
    "conv1.b": rng.normal(scale=0.1, size=(8,)).astype(np.float32),
    "bn1.a": rng.uniform(0.6, 1.4, size=(8,)).astype(np.float32),
    "bn1.b": rng.normal(scale=0.1, size=(8,)).astype(np.float32),
    "fc1.w": rng.normal(size=(10, 8 * 7 * 7)).astype(np.float32),
    "fc1.b": rng.normal(scale=0.1, size=(10,)).astype(np.float32),
}
for name, arr in tensors.items():
    save_tensor(Tensor(name, arr), os.path.join(workdir, f"{name}.npy"))

manifest_doc = {
    "input_shape": [3, 16, 16],
    "layers": [
        {"name": "conv1", "kind": "conv2d", "weight": "conv1.w.npy",
         "bias": "conv1.b.npy", "stride": 1, "pad": 0},
        {"name": "bn1", "kind": "bn_scale", "weight": "bn1.a.npy",
         "bias": "bn1.b.npy"},
        {"name": "relu1", "kind": "relu"},
        {"name": "pool1", "kind": "maxpool", "window": 2, "stride": 2},
        {"name": "fc1", "kind": "fc", "weight": "fc1.w.npy", "bias": "fc1.b.npy"},
    ],
}
manifest_path = os.path.join(workdir, "net.json")
with open(manifest_path, "w") as fp:
    json.dump(manifest_doc, fp, indent=2)

# -- convert under a depth-graded schedule ---------------------------------
manifest = load_manifest(manifest_path)
weights = load_weights(manifest)
shapes = {n: weights[n][0].shape for n in weights}
print("\nmultiplies per layer:", flops_per_layer(manifest, shapes))

schedule = make_schedule(manifest, "depth_graded", lo=0.005, hi=0.04)
for layer in manifest.parametric_layers():
    print(f"  tolerance^2 for {layer.name}: {schedule.epsilon_sq[layer.name]:.4f}")

model, report = convert_model(manifest, weights, block_size=64, schedule=schedule)
print("\n" + report.to_text())

# -- persist and reload -----------------------------------------------------
container = os.path.join(workdir, "net.tq")
save_quantized(model, container)
back = load_quantized(container)
for a, b in zip(model.layers, back.layers):
    assert np.array_equal(reconstruct(a).data, reconstruct(b).data)
print(f"\ncontainer {os.path.getsize(container)} bytes; reconstruction "
      f"round-trips bitwise")
fp32_bytes = sum(t.nbytes for t in tensors.values())
print(f"fp32 weights were {fp32_bytes} bytes; "
      f"ternary payload is ~{report.total.model_size_bits // 8} bytes of signs+scales")
