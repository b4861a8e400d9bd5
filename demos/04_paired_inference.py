"""Paired FP32/quantized inference: perturbation traces and safety margins.

Runs the same input through the reference model and its ternary-residual
version, measuring per layer how much the activations drift (delta), how
much 8-bit activation rounding adds (gamma), and how far the weights moved
(epsilon). Ends with the classification-safety margin check.
"""

import numpy as np

from ternres import (
    LayerDecl,
    ModelManifest,
    Tensor,
    convert_model,
    forward,
    forward_quantized,
    make_schedule,
    margin_check,
    quantize_activations,
)

rng = np.random.default_rng(3)

manifest = ModelManifest(
    (
        LayerDecl("conv1", "conv2d", weight_ref="w", bias_ref="b",
                  hyperparams={"stride": 1, "pad": 1}),
        LayerDecl("relu1", "relu"),
        LayerDecl("pool1", "avgpool", hyperparams={"window": 2, "stride": 2}),
        LayerDecl("fc1", "fc", weight_ref="w"),
    ),
    input_shape=(2, 8, 8),
)
weights = {
    "conv1": (
        Tensor("conv1", rng.normal(size=(4, 2, 3, 3)).astype(np.float32)),
        Tensor("conv1.b", rng.normal(scale=0.1, size=(4,)).astype(np.float32)),
    ),
    "fc1": (
        Tensor("fc1", rng.normal(size=(5, 64)).astype(np.float32)),
        None,
    ),
}
x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)

# 8-bit dynamic fixed point: a power-of-two step covering the value range
q, exponent = quantize_activations(x)
print(f"activation grid for the input: step 2^{exponent}, "
      f"max |x - x_hat| = {np.max(np.abs(x - q)):.5f}")

schedule = make_schedule(manifest, "uniform", epsilon_sq=0.02)
model, _ = convert_model(manifest, weights, block_size=32, schedule=schedule)

print("\nper-layer relative perturbations (weights ternary, activations 8-bit):")
print(f"{'layer':<8} {'kind':<8} {'delta':>10} {'gamma':>10} {'epsilon':>10}")
_, logits, trace = forward_quantized(manifest, weights, model, x, act_quant=True)
for e in trace.entries:
    print(f"{e.name:<8} {e.kind:<8} {e.delta:>10.5f} {e.gamma:>10.5f} "
          f"{e.epsilon:>10.5f}")

# the quantized run recomputes every parametric layer two ways (dense
# reconstruction vs per-level accumulation) and insists they agree, so the
# trace above already certifies the decomposition identity.

clean = forward(manifest, weights, x)[-1][0]
moved = float(np.linalg.norm(clean - logits[0]))
gap = np.sort(clean)[-1] - np.sort(clean)[-2]
print(f"\nclean logits:     {np.round(clean, 3)}")
print(f"quantized logits: {np.round(logits[0], 3)}")
print(f"score gap {gap:.3f} vs measured l2 drift {moved:.3f}: "
      f"{margin_check(clean, moved)}")
print("(safe = no perturbation of that size can change the top-1 class:")
print(" a drop a on the leader and rise b elsewhere obey a+b <= sqrt(2)*delta)")
