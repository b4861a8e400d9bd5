"""Golden digests: pinned `.tq` bytes and delta sequences of small conversions.

Any change to conversion, downgrade, scale snapping or the container layout
that moves a single stored bit changes a digest here. The models are small
(a few thousand weights) so that no BLAS threading can reorder a sum.
"""

import hashlib

import numpy as np
import pytest

from ternres import (
    QuantizedModel,
    Tensor,
    convert_model,
    downgrade,
    flops_per_layer,
    make_schedule,
    quantize_scales_8bit,
    save_quantized,
    ternary_residual,
)

from nets import conv_net, mlp_net


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(model: QuantizedModel, path) -> tuple[str, str]:
    """(SHA-256 of the saved container, SHA-256 of every layer's deltas)."""
    save_quantized(model, path)
    seqs = b"".join(
        l.layer.encode() + np.asarray(l.delta_sequence, dtype="<f8").tobytes()
        for l in model.layers)
    return _sha(path.read_bytes()), _sha(seqs)


def _conv_uniform():
    manifest, weights = conv_net(np.random.default_rng(0))
    schedule = make_schedule(manifest, "uniform", epsilon_sq=0.01)
    return convert_model(manifest, weights, 16, schedule)[0], weights


def _uniform():
    return _conv_uniform()[0]


def _depth_graded():
    manifest, weights = mlp_net(np.random.default_rng(1))
    schedule = make_schedule(manifest, "depth_graded", lo=0.004, hi=0.05)
    return convert_model(manifest, weights, 16, schedule)[0]


def _compute_aware():
    manifest, weights = conv_net(np.random.default_rng(2))
    shapes = {n: weights[n][0].shape for n in weights}
    schedule = make_schedule(manifest, "compute_aware", lo=0.004, hi=0.05,
                             flops=flops_per_layer(manifest, shapes))
    return convert_model(manifest, weights, 16, schedule)[0]


def _scales_8bit():
    model, weights = _conv_uniform()
    return quantize_scales_8bit(model, {n: weights[n][0] for n in weights})


def _downgrade():
    model, _ = _conv_uniform()
    return downgrade(model, keep_levels=(model.num_levels + model.num_blocks) // 2)


def _layers(*specs):
    rng = np.random.default_rng(3)
    layers = []
    for name, n, block, eps_sq in specs:
        t = Tensor(name, rng.normal(size=n).astype(np.float32))
        layers.append(ternary_residual(t, block, epsilon_sq=eps_sq))
    return QuantizedModel({}, tuple(layers), {})


def _ragged():
    # N % 4 != 0 and N does not divide the size: 1003 = 100*10 + 3, 500 = 83*6 + 2.
    return _layers(("a", 1003, 10, 0.01), ("b", 500, 6, 0.005))


def _short():
    # The whole tensor is shorter than one block.
    return _layers(("a", 37, 64, 0.01), ("b", 3, 64, 0.001))


GOLDEN = {
    "uniform": (
        _uniform,
        "f3fe99e538c02ab3880ed1d8fc6e70c6b52f9207d44ce3daa8060cc41a284282",
        "a493647b97186663dcf0ca8b660b874837f0821539e6ff3d5a06dd4bb0f4e494"),
    "depth_graded": (
        _depth_graded,
        "bed5f5db669a5925ed49c36cad8e549d0c6d94ca5920b33cdab5ecc4cc649959",
        "4ddf7874c85f85df3b8bd7733340d9105f560eb9579b77539d1cf8371fa2a31b"),
    "compute_aware": (
        _compute_aware,
        "94ac327ffa3fc253851097b34ba72cee4512b6e59686243832b65f47817cc889",
        "8c2486084301ff6a9ae572500b487e3b3923d0a57168431c4c0e3285be80ca94"),
    # Scale snapping and downgrade clear the delta sequence; the stored
    # deltas are in the container bytes.
    "quantize_scales_8bit": (
        _scales_8bit,
        "f2ba9afb6d0101e30dfcc64fe18ef52f146dde8bc5bece3cc729e84306d48a61",
        "c90ba8fc46a7abdf2de5387bf7886e2a77b5d883daf11792882be8f3bf5062ca"),
    "downgrade": (
        _downgrade,
        "8b23e647e7444de439ef8f54fe1d9ffe7ebf2aad695c9230bbdf0c4b4e6872b3",
        "c90ba8fc46a7abdf2de5387bf7886e2a77b5d883daf11792882be8f3bf5062ca"),
    "ragged_tail": (
        _ragged,
        "05715586a657f829032d5029f26bf517299c5640a6a9803e3b2d635b696665a5",
        "37816222bdbae97ffe10f97836d27672acf68b3cc209dc7046179ebaf958e18a"),
    "shorter_than_n": (
        _short,
        "f4fd30a03551062c24ce23f70ed3e4c32411dcf7535a101d1a7db592daf70e0d",
        "a7260130105dad7ab914a83a6e13640c670e41d96705007e7337aefa3d53959b"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(case, tmp_path):
    build, tq_sha, deltas_sha = GOLDEN[case]
    assert _digests(build(), tmp_path / "m.tq") == (tq_sha, deltas_sha)
