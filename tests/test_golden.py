"""Golden digests: pinned `.tq` bytes, delta sequences and `--trace` CSV
bytes of small conversions.

Any change to conversion, downgrade, scale snapping or the container layout
that moves a single stored bit changes a digest here. The `.tq` digests are
of the format 2 files the writer makes, which `test_golden_files.py` keeps
checked in. The models are small (a few thousand weights) so that no BLAS
threading can reorder a sum.
"""

import hashlib
import math

import numpy as np
import pytest

from ternres import (
    ConvergenceError,
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


RANDOM_MODELS = "2bca1f1e83f39dce5a7247b951ecff1a7ab2c07540713b9d9c6499f9890fbdb1"


def _random_layer(rng, name):
    """A seeded layer of at most 4,096 weights and the settings to convert it."""
    rows = int(rng.integers(1, 65)) if rng.random() < 0.5 else 1
    shape = (rows, int(rng.integers(1, 4096 // rows + 1)))
    if rows == 1 and rng.random() < 0.5:
        shape = shape[1:]
    kind = rng.choice(["normal", "student_t", "decades", "sparse", "few_values", "zero"],
                      p=[0.3, 0.15, 0.1, 0.15, 0.15, 0.15])
    if kind == "normal":
        data = rng.normal(size=shape)
    elif kind == "decades":  # blocks too small to move delta stall it
        data = rng.normal(size=shape) * 10.0 ** rng.uniform(-12, 0, size=shape)
    elif kind == "student_t":  # heavy tails push blocks to r_max
        data = rng.standard_t(2, size=shape)
    elif kind == "sparse":  # all-zero blocks fit levels of scale 0
        data = rng.normal(size=shape) * (rng.random(shape) < 0.1)
    elif kind == "few_values":  # residuals that reach exactly 0
        data = rng.integers(-3, 4, size=shape).astype(np.float64)
    else:
        data = np.zeros(shape)
    # Now and then float32 subnormals, at the bottom of the scales' range.
    scale = 1e-42 if rng.random() < 0.05 else 10.0 ** rng.uniform(-3, 3)
    data = (data * scale).astype(np.float32)
    block = int(rng.choice([1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 100, 1000]))
    # Now and then a tolerance past float32's reach, which ends in a stall,
    # a zero residual or ConvergenceError.
    low = -300 if rng.random() < 0.1 else -6
    eps_sq = float(10.0 ** rng.uniform(low, math.log10(0.3)))
    return Tensor(name, data), block, eps_sq, int(rng.integers(1, 17))


def _random_models_digest(count: int, path) -> str:
    """SHA-256 over ``count`` seeded random models: each converted layer's
    greedy log and each model's saved bytes, 30% of them with snapped scales
    and 40% downgraded to a budget between their base and full level counts,
    and the message of each conversion that raises ConvergenceError."""
    rng = np.random.default_rng(39)
    digest = hashlib.sha256()
    for _ in range(count):
        layers, weights = [], {}
        for j in range(int(rng.integers(1, 4))):
            t, block, eps_sq, r_max = _random_layer(rng, f"l{j}")
            try:
                layer = ternary_residual(t, block, epsilon_sq=eps_sq, r_max=r_max)
            except ConvergenceError as exc:
                digest.update(str(exc).encode())
                continue
            for part in (layer.trace.blocks, layer.trace.e_before, layer.trace.deltas):
                digest.update(part.tobytes())
            layers.append(layer)
            weights[t.name] = t
        model = QuantizedModel({}, tuple(layers), {})
        if rng.random() < 0.3:
            model = quantize_scales_8bit(model, weights)
        if rng.random() < 0.4:
            keep = int(rng.integers(model.num_blocks, model.num_levels + 1))
            model = downgrade(model, keep_levels=keep)
        save_quantized(model, path)
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_random_models_digest(tmp_path):
    """200 seeded random models, N from 1 to 1000 with ragged tails, heavy
    tails, sparse and all-zero layers, eps^2 from 1e-6 to 0.3 and r_max from
    1 to 16, hash to the pinned digest."""
    assert _random_models_digest(200, tmp_path / "m.tq") == RANDOM_MODELS
