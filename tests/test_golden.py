"""Golden digests: pinned `.tq` bytes, delta sequences and `--trace` CSV
bytes of small conversions.

Any change to conversion, downgrade, scale snapping or the container layout
that moves a single stored bit changes a digest here. The `.tq` digests are
of the format 2 files the writer makes, which `test_golden_files.py` keeps
checked in. The models are small (a few thousand weights) so that no BLAS
threading can reorder a sum.
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
from ternres.residual import write_trace_csv

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
        "1d9aad957c2c32b0d0110e5d407d87347ca25e48e00926d4b2750e3af6c663bc",
        "a493647b97186663dcf0ca8b660b874837f0821539e6ff3d5a06dd4bb0f4e494"),
    "depth_graded": (
        _depth_graded,
        "8871dd47a85e447502d7a1564ba5d4ad2fa9f7e2638cc0664d7d3987cf50d90a",
        "4ddf7874c85f85df3b8bd7733340d9105f560eb9579b77539d1cf8371fa2a31b"),
    "compute_aware": (
        _compute_aware,
        "a5fca7d18b89e2e70b2832edf9f7519e3cd178f54e22f8b4aaa879c0369a3051",
        "8c2486084301ff6a9ae572500b487e3b3923d0a57168431c4c0e3285be80ca94"),
    # Scale snapping and downgrade clear the delta sequence; the stored
    # deltas are in the container bytes.
    "quantize_scales_8bit": (
        _scales_8bit,
        "05889cf3df360b3e682ac6d7ff8a9d2eab94c104813aedcf862f660b98fa2ab8",
        "c90ba8fc46a7abdf2de5387bf7886e2a77b5d883daf11792882be8f3bf5062ca"),
    "downgrade": (
        _downgrade,
        "350731683a95279ba6354ed3afda829150d735eba4a8f76238a17201451f01fc",
        "c90ba8fc46a7abdf2de5387bf7886e2a77b5d883daf11792882be8f3bf5062ca"),
    "ragged_tail": (
        _ragged,
        "f374bf58d9e4c8b7b78d95ffca7035e91912e0bb2c3a1bb42f9ffb1b8551d871",
        "37816222bdbae97ffe10f97836d27672acf68b3cc209dc7046179ebaf958e18a"),
    "shorter_than_n": (
        _short,
        "7d1e5680184f69724fa387f0fee81275e91eefdda27ba50d1def10a90d1a7d99",
        "a7260130105dad7ab914a83a6e13640c670e41d96705007e7337aefa3d53959b"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(case, tmp_path):
    build, tq_sha, deltas_sha = GOLDEN[case]
    assert _digests(build(), tmp_path / "m.tq") == (tq_sha, deltas_sha)


# SHA-256 of the greedy log that ``quantize --trace`` writes.
TRACE_CSV = {
    "uniform": "66983bdf8c15ae4e8a8b04d7c2c374685c12d060be030f84fd7474571efc89e6",
    "depth_graded": "af1ee7ec6a6e041c4702c8dac934a8cbce02817ff919b7024e8abdede1f43be2",
}


@pytest.mark.parametrize("case", sorted(TRACE_CSV))
def test_trace_csv_digest(case, tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(list(GOLDEN[case][0]().layers), path)
    assert _sha(path.read_bytes()) == TRACE_CSV[case]
