"""Inference simulator: reference forward, paired passes, bounds, margins."""

import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal

from ternres import (
    LayerDecl,
    ModelManifest,
    QuantizedModel,
    Tensor,
    convert_model,
    forward,
    forward_quantized,
    make_schedule,
    margin_check,
    quantize_activations,
    reconstruct,
    ternary_residual,
)
import ternres.simulate as simulate
from ternres.errors import DecompositionError
from ternres.residual import QuantizedLayer, fixed_point_exponent, level_index
from ternres.simulate import (
    avgpool_bound,
    layer_lemma_checks,
    matmul_bound,
    maxpool_bound,
    relu_bound,
)
from ternres.tensors import partition_blocks

from nets import conv_net, exact_ternary_net, mlp_net, random_net


def reference_forward(manifest, weights, x):
    """Straightforward float64 reimplementation, independent of the engine
    (scipy correlation for convolutions, explicit loops elsewhere)."""
    cur = np.asarray(x, dtype=np.float64)
    outs = []
    for layer in manifest.layers:
        if layer.kind == "fc":
            w = weights[layer.name][0].data.astype(np.float64)
            b = weights[layer.name][1]
            flat = cur.reshape(cur.shape[0], -1)
            cur = flat @ w.T + (b.data.astype(np.float64) if b is not None else 0.0)
        elif layer.kind == "conv2d":
            w = weights[layer.name][0].data.astype(np.float64)
            b = weights[layer.name][1]
            stride = layer.hp("stride", 1)
            pad = layer.hp("pad", 0)
            xp = np.pad(cur, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
            bsz, _, H, W = xp.shape
            co, ci, kh, kw = w.shape
            oh = (H - kh) // stride + 1
            ow = (W - kw) // stride + 1
            y = np.zeros((bsz, co, oh, ow))
            for bi in range(bsz):
                for o in range(co):
                    acc = np.zeros((H - kh + 1, W - kw + 1))
                    for c in range(ci):
                        acc += signal.correlate(xp[bi, c], w[o, c], mode="valid")
                    y[bi, o] = acc[::stride, ::stride]
                    if b is not None:
                        y[bi, o] += float(b.data[o])
            cur = y
        elif layer.kind == "relu":
            cur = np.maximum(cur, 0.0)
        elif layer.kind in ("maxpool", "avgpool"):
            window = layer.hp("window")
            stride = layer.hp("stride", window)
            bsz, C, H, W = cur.shape
            oh = (H - window) // stride + 1
            ow = (W - window) // stride + 1
            y = np.zeros((bsz, C, oh, ow))
            for i in range(oh):
                for j in range(ow):
                    patch = cur[:, :, i * stride : i * stride + window,
                                j * stride : j * stride + window]
                    if layer.kind == "maxpool":
                        y[:, :, i, j] = patch.max(axis=(2, 3))
                    else:
                        y[:, :, i, j] = patch.mean(axis=(2, 3))
            cur = y
        elif layer.kind == "bn_scale":
            a = weights[layer.name][0].data.astype(np.float64)
            b = weights[layer.name][1]
            shape = (1, a.size) + (1,) * (cur.ndim - 2)
            cur = cur * a.reshape(shape)
            if b is not None:
                cur = cur + b.data.astype(np.float64).reshape(shape)
        outs.append(cur)
    return outs


class TestForward:
    @pytest.mark.parametrize("window, stride", [(1, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
    def test_maxpool_is_the_exact_window_max(self, window, stride):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(2, 3, 7, 8)).astype(np.float32)
        out = simulate._maxpool(x, window, stride)
        expected = simulate._pool_windows(x, window, stride).max(axis=-1)
        assert out.dtype == np.float32 and out.tobytes() == expected.tobytes()
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_avgpool_is_a_float32_running_sum(self, window, stride):
        # Taps add to 0 in window order and divide once; under 8 taps that is
        # numpy's order for mean, so a window of -0.0 also averages to +0.0.
        rng = np.random.default_rng(window * 10 + stride)
        x = rng.normal(size=(2, 3, 9, 10)).astype(np.float32)
        x[rng.random(x.shape) < 0.3] = -0.0
        oh, ow = (9 - window) // stride + 1, (10 - window) // stride + 1
        expected = np.empty((2, 3, oh, ow), dtype=np.float32)
        for i in range(oh):
            for j in range(ow):
                acc = np.zeros((2, 3), dtype=np.float32)
                for u in range(window):
                    for v in range(window):
                        acc = acc + x[:, :, i * stride + u, j * stride + v]
                expected[:, :, i, j] = acc / np.float32(window * window)
        out = simulate._avgpool(x, window, stride)
        assert out.dtype == np.float32 and out.tobytes() == expected.tobytes()
        assert not np.shares_memory(out, x)
        if window * window < 8:
            mean = simulate._pool_windows(x, window, stride).mean(axis=-1, dtype=np.float32)
            assert out.tobytes() == mean.tobytes()

    def test_identity_fc(self):
        manifest = ModelManifest(
            (LayerDecl("fc", "fc", weight_ref="w"),), input_shape=(4,))
        weights = {"fc": (Tensor("fc", np.eye(4, dtype=np.float32)), None)}
        x = np.arange(8, dtype=np.float32).reshape(2, 4)
        acts = forward(manifest, weights, x)
        assert np.array_equal(acts[-1], x)

    def test_1x1_conv_equals_fc_on_channels(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 5, 1, 1)).astype(np.float32)
        conv_manifest = ModelManifest(
            (LayerDecl("c", "conv2d", weight_ref="w",
                       hyperparams={"stride": 1, "pad": 0}),),
            input_shape=(5, 1, 1))
        fc_manifest = ModelManifest(
            (LayerDecl("f", "fc", weight_ref="w"),), input_shape=(5,))
        x = rng.normal(size=(4, 5, 1, 1)).astype(np.float32)
        conv_out = forward(conv_manifest, {"c": (Tensor("c", w), None)}, x)[-1]
        fc_out = forward(
            fc_manifest, {"f": (Tensor("f", w.reshape(3, 5)), None)},
            x.reshape(4, 5))[-1]
        assert conv_out.reshape(4, 3) == pytest.approx(fc_out, rel=1e-6)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            manifest, weights = random_net(rng)
            x = rng.normal(size=(2,) + manifest.input_shape).astype(np.float32)
            fast = forward(manifest, weights, x)
            slow = reference_forward(manifest, weights, x)
            for a, b in zip(fast, slow):
                assert np.linalg.norm(a.astype(np.float64) - b) <= (
                    1e-5 * max(np.linalg.norm(b), 1e-12)
                )

    def test_shape_mismatch_rejected(self):
        manifest, weights = mlp_net(np.random.default_rng(2))
        with pytest.raises(ValueError):
            forward(manifest, weights, np.zeros((1, 7), dtype=np.float32))


class TestShapeResolution:
    @pytest.mark.parametrize("make_net", [mlp_net, conv_net])
    def test_empty_batch_runs_every_layer(self, make_net):
        manifest, weights = make_net(np.random.default_rng(3))
        x = np.zeros((0,) + manifest.input_shape, dtype=np.float32)
        acts = forward(manifest, weights, x)
        assert len(acts) == len(manifest.layers)
        assert all(a.shape[0] == 0 and a.dtype == np.float32 for a in acts)

    @pytest.mark.parametrize("make_net", [mlp_net, conv_net])
    def test_shapes_are_the_shapes_inference_produces(self, make_net):
        rng = np.random.default_rng(4)
        manifest, weights = make_net(rng)
        x = rng.normal(size=(2,) + manifest.input_shape).astype(np.float32)
        shapes = simulate.resolve_shapes(
            manifest, {n: w.shape for n, (w, _) in weights.items()})
        assert shapes == [a.shape[1:] for a in forward(manifest, weights, x)]

    def test_fc_mismatch_names_the_layer(self):
        manifest = ModelManifest(
            (LayerDecl("fc", "fc", weight_ref="w"),), input_shape=(7,))
        weights = {"fc": (Tensor("fc", np.zeros((5, 24), dtype=np.float32)), None)}
        with pytest.raises(ValueError, match="layer 'fc'.*expects"):
            simulate.resolve_shapes(manifest, {"fc": (5, 24)})
        with pytest.raises(ValueError, match="layer 'fc'.*expects"):
            forward(manifest, weights, np.zeros((1, 7), dtype=np.float32))


def _single_conv(rng, c_in, c_out, k, stride, pad, h, w):
    manifest = ModelManifest(
        (LayerDecl("conv", "conv2d", weight_ref="conv.w.npy", bias_ref="conv.b.npy",
                   hyperparams={"stride": stride, "pad": pad}),),
        input_shape=(c_in, h, w))
    weights = {"conv": (
        Tensor("conv", rng.normal(size=(c_out, c_in, k, k)).astype(np.float32)),
        Tensor("conv.b", rng.normal(size=(c_out,)).astype(np.float32)),
    )}
    return manifest, weights


# (kernel, stride, pad, H, W): strides 1-3, pads 0-2, 1x1 to 5x5 kernels,
# non-square inputs whose sizes the stride does not divide.
CONV_SHAPES = [
    (3, 2, 1, 9, 7),
    (1, 1, 0, 5, 8),
    (1, 2, 0, 6, 5),
    (5, 1, 2, 6, 9),
    (5, 2, 2, 11, 6),
    (5, 3, 0, 7, 12),
    (3, 2, 2, 4, 10),
]


@pytest.mark.parametrize("k, stride, pad, h, w", CONV_SHAPES)
def test_conv_shapes_match_reference(k, stride, pad, h, w):
    rng = np.random.default_rng(k * 100 + stride * 10 + pad)
    manifest, weights = _single_conv(rng, 3, 5, k, stride, pad, h, w)
    x = rng.normal(size=(2,) + manifest.input_shape).astype(np.float32)
    fast = forward(manifest, weights, x)[-1]
    slow = reference_forward(manifest, weights, x)[-1]
    assert fast.shape == slow.shape == (2, 5, (h + 2 * pad - k) // stride + 1,
                                        (w + 2 * pad - k) // stride + 1)
    assert np.linalg.norm(fast - slow) <= 1e-5 * np.linalg.norm(slow)

    # The stacked quantized product matches the reference on the same shape.
    model = _convert(manifest, weights, 16, 0.01)
    _, logits, _ = forward_quantized(manifest, weights, model, x)
    dense = {"conv": (reconstruct(model.layers[0]), weights["conv"][1])}
    slow_q = reference_forward(manifest, dense, x)[-1]
    assert np.linalg.norm(logits - slow_q) <= 1e-5 * np.linalg.norm(slow_q)


class TestActivationQuantization:
    def test_zero_tensor_is_fixed_point(self):
        x = np.zeros((3, 3), dtype=np.float32)
        q, exponent = quantize_activations(x)
        assert np.array_equal(q, x)
        assert exponent == 0

    def test_127_is_exact_at_exponent_zero(self):
        q, exponent = quantize_activations(np.array([127.0], dtype=np.float32))
        assert exponent == 0
        assert q.tolist() == [127.0]

    def test_elementwise_error_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            scale = 10.0 ** rng.uniform(-6, 6)
            x = (scale * rng.normal(size=int(rng.integers(1, 200)))).astype(np.float32)
            q, exponent = quantize_activations(x)
            step = 2.0 ** exponent
            assert float(np.max(np.abs(x.astype(np.float64) - q))) <= step / 2 + 1e-18
            # exponent is the smallest that covers the range
            peak = float(np.max(np.abs(x)))
            assert peak <= 127.0 * step
            if exponent > -140:  # above float32 denormal floor
                assert peak > 127.0 * step / 2

    def test_non_finite_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                quantize_activations(np.array([1.0, bad, -2.0], dtype=np.float32))

    def test_tiny_peak_comes_back_unchanged(self):
        # 2^e underflows in float32 below e = -149; there every float32 is
        # a whole multiple of the step, so nothing may change.
        x = np.array([0.0, 1e-44, -3e-45], dtype=np.float32)
        q, exponent = quantize_activations(x)
        assert exponent == -149
        assert q.tobytes() == x.tobytes()

    def test_peak_beyond_the_float32_grid_rejected(self):
        edge = np.float32(127 * 2.0 ** 121)
        q, exponent = quantize_activations(np.array([edge, -1.0], dtype=np.float32))
        assert exponent == 121 and q[0] == edge
        for peak in (np.nextafter(edge, np.float32(np.inf)), np.finfo(np.float32).max):
            with pytest.raises(ValueError, match="beyond 127"):
                quantize_activations(np.array([1.0, -peak], dtype=np.float32))

    @given(hnp.arrays(np.float32, st.tuples(st.integers(1, 2), st.integers(1, 3),
                                            st.integers(2, 5), st.integers(2, 5)),
                      elements=st.one_of(
                          st.sampled_from([0.0, -0.0, 1e-45, -1e-45, 127 * 2.0 ** 121, -3e38]),
                          st.floats(width=32, allow_nan=False, allow_infinity=False))))
    @settings(max_examples=300, deadline=None)
    def test_relu_and_maxpool_keep_the_grid(self, x):
        # A paired pass with act-quant does not re-quantize these outputs.
        # Peaks beyond 127 * 2^121 are rejected, as the test above checks.
        assume(float(np.max(np.abs(x))) <= 127 * 2.0 ** 121)
        q, _ = quantize_activations(x)
        for y in (simulate._relu(q), simulate._maxpool(q, 2, 1), simulate._maxpool(q, 2, 2)):
            assert quantize_activations(y)[0].tobytes() == y.tobytes()


def _convert(manifest, weights, block, eps_sq):
    schedule = make_schedule(manifest, "uniform", epsilon_sq=eps_sq)
    model, _ = convert_model(manifest, weights, block, schedule)
    return model


class TestForwardQuantized:
    def test_zero_noise_identity(self):
        rng = np.random.default_rng(4)
        manifest, weights = exact_ternary_net(rng, block_size=16)
        model = _convert(manifest, weights, 16, 0.25)
        for l in model.layers:
            assert np.array_equal(reconstruct(l).data, weights[l.layer][0].data)
        x = rng.normal(size=(2,) + manifest.input_shape).astype(np.float32)
        _, logits, trace = forward_quantized(manifest, weights, model, x,
                                             act_quant=False)
        assert all(e.delta == 0.0 for e in trace.entries)
        assert np.array_equal(logits, forward(manifest, weights, x)[-1])

    def test_the_input_entry_reads_zero_beside_a_nan_input(self):
        # Entry 0 is the input both sides share, so its delta and gamma are 0
        # by construction, also where the input's norm is NaN.
        rng = np.random.default_rng(4)
        manifest, weights = mlp_net(rng)
        model = _convert(manifest, weights, 16, 0.05)
        x = rng.normal(size=(2, 48)).astype(np.float32)
        x[0, 0] = np.nan
        _, _, trace = forward_quantized(manifest, weights, model, x)
        assert trace.to_rows()[0] == {"layer": 0, "name": "input", "kind": "input",
                                      "delta": 0.0, "gamma": 0.0, "epsilon": 0.0}
        assert all(np.isnan(e.delta) for e in trace.entries[1:])

    def test_act_quant_only_gamma_bound(self):
        # FP32 weights via an exactly-representable fixture: all measured
        # perturbation comes from activation rounding, and each gamma obeys
        # the grid bound 2^e * sqrt(len) / ||X||.
        rng = np.random.default_rng(5)
        manifest, weights = exact_ternary_net(rng, block_size=16)
        model = _convert(manifest, weights, 16, 0.25)
        x = rng.normal(size=(2,) + manifest.input_shape).astype(np.float32)
        clean = forward(manifest, weights, x)
        _, _, trace = forward_quantized(manifest, weights, model, x, act_quant=True)
        refs = [x] + clean[:-1]
        from ternres import quantize_activations as qa

        # replay the quantized pass's inputs to recover each exponent
        _, _, trace_off = forward_quantized(manifest, weights, model, x,
                                            act_quant=False)
        assert trace_off.final_delta == 0.0
        for e in trace.entries[:-1]:
            ref = refs[e.index]
            norm = np.linalg.norm(ref.astype(np.float64))
            # bound with the worst exponent the pass could have used: the
            # one covering the clean activation range of this layer
            _, exponent = qa(ref)
            bound = 2.0 ** exponent * np.sqrt(ref.size) / norm
            assert e.gamma <= bound * (1 + 1e-6) + 1e-12

    def test_epsilon_matches_conversion_delta(self):
        rng = np.random.default_rng(6)
        manifest, weights = conv_net(rng)
        model = _convert(manifest, weights, 16, 0.01)
        x = rng.normal(size=(1,) + manifest.input_shape).astype(np.float32)
        _, _, trace = forward_quantized(manifest, weights, model, x)
        by_name = {l.layer: l for l in model.layers}
        for e in trace.entries:
            if e.name in by_name:
                assert e.epsilon == pytest.approx(
                    np.sqrt(by_name[e.name].delta), rel=1e-6)
            else:
                assert e.epsilon == 0.0

    def test_decomposed_path_agrees_on_random_nets(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            manifest, weights = random_net(rng)
            model = _convert(manifest, weights, 16, 0.02)
            x = rng.normal(size=(2,) + manifest.input_shape).astype(np.float32)
            # forward_quantized raises if the two paths disagree
            forward_quantized(manifest, weights, model, x,
                              act_quant=bool(rng.integers(2)))

    def test_decomposed_path_explicit_recomputation(self):
        # Rebuild the per-level accumulation independently for an fc layer
        # and compare against the dense reconstructed product.
        rng = np.random.default_rng(8)
        w = Tensor("fc", rng.normal(size=(6, 40)).astype(np.float32))
        qlayer = ternary_residual(w, 16, epsilon_sq=0.01)
        x = rng.normal(size=(3, 40)).astype(np.float32)
        dense = x @ reconstruct(qlayer).data.T.astype(np.float32)
        starts = qlayer.level_starts()
        acc = np.zeros_like(dense)
        for t in range(int(qlayer.counts.max())):
            level_w = np.zeros(240, dtype=np.float32)
            for k, b in enumerate(partition_blocks(w, 16)):
                if t < qlayer.counts[k]:
                    row = starts[k] + t
                    level_w[b.start:b.stop] = qlayer.alphas[row] * qlayer.signs[row, :b.length]
            acc += x @ level_w.reshape(6, 40).T
        rel = np.linalg.norm(dense - acc) / np.linalg.norm(dense)
        assert rel <= 1e-5

    def test_stacked_levels_zero_fill_missing_depths(self):
        # Blocks of 4, 4 and a ragged tail of 2 with 1, 3 and 2 levels: a
        # level in the wrong depth slot, or a slot left unfilled, changes the
        # summed per-level products and trips the decomposition check.
        rng = np.random.default_rng(15)
        counts = np.array([1, 3, 2], dtype=np.int32)
        alphas = (rng.random(6) + 0.01).astype(np.float32)
        signs = rng.integers(-1, 2, size=(6, 4)).astype(np.int8)
        signs[4:, 2:] = 0
        qlayer = QuantizedLayer("fc", (2, 5), 4, counts, alphas, signs, 0.0, 0.01, 1.0)
        manifest = ModelManifest((LayerDecl("fc", "fc", weight_ref="fc.w.npy"),),
                                 input_shape=(5,))
        w = Tensor("fc", rng.normal(size=(2, 5)).astype(np.float32))
        x = rng.normal(size=(3, 5)).astype(np.float32)
        _, logits, _ = forward_quantized(manifest, {"fc": (w, None)},
                                         QuantizedModel({}, (qlayer,)), x)
        expected = x.astype(np.float64) @ reconstruct(qlayer).data.astype(np.float64).T
        assert np.allclose(logits, expected, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("make_net", [mlp_net, conv_net])
    def test_perturbed_dense_weight_fails_decomposition_check(self, monkeypatch, make_net):
        # The dense and per-level products must come from separate weights:
        # one changed dense weight has to trip the check.
        rng = np.random.default_rng(16)
        manifest, weights = make_net(rng)
        model = _convert(manifest, weights, 16, 0.01)
        x = rng.normal(size=(2,) + manifest.input_shape).astype(np.float32)
        forward_quantized(manifest, weights, model, x)

        def perturbed(qlayer):
            w = reconstruct(qlayer)
            w.data.reshape(-1)[0] += np.float32(1.0)
            return w

        monkeypatch.setattr(simulate, "reconstruct", perturbed)
        with pytest.raises(RuntimeError, match="deviates"):
            forward_quantized(manifest, weights, model, x)

    @pytest.mark.parametrize("make_net", [mlp_net, conv_net])
    def test_one_stacked_pass_per_quantized_layer(self, monkeypatch, make_net):
        # Every parametric kind: each sample goes once through the source
        # weights (the clean pass) and once through the stacked
        # (1+R)*c_out-output weights, in however many chunks; not 1+R
        # passes, and no other weight array is applied to the layer.
        rng = np.random.default_rng(17)
        manifest, weights = make_net(rng)
        model = _convert(manifest, weights, 16, 0.001)
        assert all(int(l.counts.max()) > 1 for l in model.layers)
        samples = {}
        apply_layer = simulate.apply_layer

        def counted(layer, weight, bias, x):
            if weight is not None:
                source = weight is weights[layer.name][0].data
                key = (layer.name, "source" if source else weight.shape)
                samples[key] = samples.get(key, 0) + len(x)
            return apply_layer(layer, weight, bias, x)

        monkeypatch.setattr(simulate, "apply_layer", counted)
        monkeypatch.setattr(simulate, "CHUNK_BYTES", 1)  # one image per conv chunk
        x = rng.normal(size=(3,) + manifest.input_shape).astype(np.float32)
        forward_quantized(manifest, weights, model, x, act_quant=True)
        expected = {}
        for l in model.layers:
            w = weights[l.layer][0].data
            stacked = ((1 + int(l.counts.max())) * w.shape[0],) + w.shape[1:]
            expected[(l.layer, "source")] = expected[(l.layer, stacked)] = len(x)
        assert samples == expected

    def test_grid_outputs_are_not_quantized_again(self, monkeypatch):
        # conv1 bn1 relu1 pool1(max) conv2 relu2 pool2(avg) fc1: the inputs
        # of pool1 (after relu1), conv2 (after the maxpool) and pool2 (after
        # relu2) are on their grid already, so 5 of 8 layers quantize.
        rng = np.random.default_rng(18)
        manifest, weights = conv_net(rng)
        model = _convert(manifest, weights, 16, 0.01)
        x = rng.normal(size=(2,) + manifest.input_shape).astype(np.float32)
        calls = []
        quantize = simulate.quantize_activations

        def counted(a):
            calls.append(a.shape)
            return quantize(a)

        monkeypatch.setattr(simulate, "quantize_activations", counted)
        forward_quantized(manifest, weights, model, x, act_quant=True)
        assert len(manifest.layers) == 8
        assert len(calls) == 5

    def test_misaligned_model_rejected(self):
        rng = np.random.default_rng(9)
        manifest, weights = mlp_net(rng)
        model = _convert(manifest, weights, 16, 0.05)
        other = Tensor("fc1", rng.normal(size=(4, 4)).astype(np.float32))
        bad_layer = ternary_residual(other, 16, epsilon_sq=0.05)
        bad = QuantizedModel({}, (bad_layer,) + model.layers[1:], {})
        x = rng.normal(size=(1, 48)).astype(np.float32)
        with pytest.raises(ValueError, match="does not match"):
            forward_quantized(manifest, weights, bad, x)

    def test_quantized_layers_without_a_manifest_layer_rejected(self):
        # A quantized layer that names no parametric layer would never be
        # applied, and the trace would show the activation noise alone.
        rng = np.random.default_rng(11)
        manifest, weights = mlp_net(rng)
        model = _convert(manifest, weights, 16, 0.05)
        fc1, fc2 = model.layers
        x = rng.normal(size=(2, 48)).astype(np.float32)
        stray = QuantizedModel({}, (replace(fc1, layer="hidden"), fc2,
                                    replace(fc1, layer="relu1")), {})
        with pytest.raises(ValueError, match="no parametric manifest layer: 'hidden', "
                                             "'relu1'$"):
            forward_quantized(manifest, weights, stray, x, act_quant=True)
        # A model that covers only some of the layers is valid.
        _, _, trace = forward_quantized(manifest, weights, QuantizedModel({}, (fc2,), {}), x)
        assert [e.epsilon > 0 for e in trace.entries] == [False, False, False, True]

    def test_a_layer_name_given_twice_is_rejected_before_the_helper_starts(self):
        # The pass applies one quantized layer per name, so the other one of
        # two same-named layers would leave no mark on the trace. Such a
        # model cannot be built, so no pass ever sees one.
        rng = np.random.default_rng(12)
        manifest, weights = mlp_net(rng)
        model = _convert(manifest, weights, 16, 0.05)
        coarse = _convert(manifest, weights, 16, 0.5).layer("fc1")
        with pytest.raises(ValueError, match="^layer 'fc1' is stored twice$"):
            QuantizedModel({}, model.layers + (coarse,), {})

    def test_trace_export(self, tmp_path):
        rng = np.random.default_rng(10)
        manifest, weights = mlp_net(rng)
        model = _convert(manifest, weights, 16, 0.05)
        x = rng.normal(size=(1, 48)).astype(np.float32)
        _, _, trace = forward_quantized(manifest, weights, model, x, act_quant=True)
        trace.to_csv(tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().strip().splitlines()
        assert lines[0] == "layer,name,kind,delta,gamma,epsilon"
        assert len(lines) == len(trace.entries) + 1
        doc = trace.to_json()
        assert '"trace"' in doc


# ---------------------------------------------------------------------------
# reference paired pass: one-piece im2col and float64 copies for every norm
# ---------------------------------------------------------------------------


def im2col_conv(w, b, x, stride, pad):
    """Convolution as one batched product over every image's patch matrix."""
    c_out, c_in, kh, kw = w.shape
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(x.shape[0], c_in * kh * kw, oh * ow)
    y = (w.reshape(c_out, -1) @ cols).reshape(x.shape[0], c_out, oh, ow)
    if b is not None:
        y = y + b.reshape(1, c_out, 1, 1)
    return y


def reference_apply(layer, w, b, x):
    if layer.kind == "conv2d":
        return im2col_conv(w, b, x, layer.hp("stride", 1), layer.hp("pad", 0))
    return simulate.apply_layer(layer, w, b, x)


def reference_rel_norm(diff, ref):
    d = float(np.linalg.norm(diff.astype(np.float64).reshape(-1)))
    r = float(np.linalg.norm(ref.astype(np.float64).reshape(-1)))
    if r == 0.0:
        return 0.0 if d == 0.0 else np.inf
    return d / r


def reference_quantize(x):
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    if peak == 0.0:
        return x.copy()
    step = np.float32(2.0 ** fixed_point_exponent(peak))
    return np.clip(np.round(x / step), -128, 127) * step


def reference_stacked(layer, qlayer, dense_w, b, x):
    """Dense outputs of the stacked dense-plus-levels product."""
    depths = int(qlayer.counts.max(initial=0))
    owner, depth = level_index(qlayer.counts)
    blocked = np.zeros((1 + depths, qlayer.num_blocks, qlayer.signs.shape[1]),
                       dtype=np.float32)
    blocked[1 + depth, owner] = qlayer.alphas[:, None] * qlayer.signs
    stacked = blocked.reshape(1 + depths, -1)[:, :dense_w.size]
    stacked[0] = dense_w.reshape(-1)
    if layer.kind == "bn_scale":
        x = np.concatenate([x] * (1 + depths), axis=1)
    out = reference_apply(layer, stacked.reshape((-1,) + dense_w.shape[1:]), None, x)
    y = out[:, :dense_w.shape[0]]
    if b is not None:
        y = y + b.reshape((1, -1) + (1,) * (y.ndim - 2))
    return np.ascontiguousarray(y)


def reference_paired(manifest, weights, qmodel, x, act_quant):
    """Trace rows, clean logits and quantized logits of a paired pass."""
    def arrays(layer):
        if layer.weight_ref is None:
            return None, None
        w, b = weights[layer.name]
        return w.data, None if b is None else b.data

    clean, cur = [], x
    for layer in manifest.layers:
        cur = reference_apply(layer, *arrays(layer), cur)
        clean.append(cur)
    qlayers = {l.layer: l for l in qmodel.layers}
    rows = [{"layer": 0, "name": "input", "kind": "input",
             "delta": 0.0, "gamma": 0.0, "epsilon": 0.0}]
    cur = x
    for li, layer in enumerate(manifest.layers):
        x_in = cur
        if act_quant:
            x_in = reference_quantize(cur)
            rows[li]["gamma"] = reference_rel_norm(cur - x_in, x if li == 0 else clean[li - 1])
        w, b = arrays(layer)
        epsilon = 0.0
        if layer.name in qlayers:
            dense_w = reconstruct(qlayers[layer.name]).data
            cur = reference_stacked(layer, qlayers[layer.name], dense_w, b, x_in)
            epsilon = reference_rel_norm(w - dense_w, w)
        else:
            cur = reference_apply(layer, w, b, x_in)
        rows.append({"layer": li + 1, "name": layer.name, "kind": layer.kind,
                     "delta": reference_rel_norm(clean[li] - cur, clean[li]),
                     "gamma": 0.0, "epsilon": epsilon})
    return rows, clean[-1], cur


def _strided_net(rng, pad):
    """A stride-2 conv on a 9x7 input, then relu and fc."""
    oh, ow = (9 + 2 * pad - 3) // 2 + 1, (7 + 2 * pad - 3) // 2 + 1
    manifest = ModelManifest((
        LayerDecl("conv", "conv2d", weight_ref="conv.w.npy", bias_ref="conv.b.npy",
                  hyperparams={"stride": 2, "pad": pad}),
        LayerDecl("relu", "relu"),
        LayerDecl("fc", "fc", weight_ref="fc.w.npy"),
    ), input_shape=(3, 9, 7))
    weights = {
        "conv": (Tensor("conv", rng.normal(size=(4, 3, 3, 3)).astype(np.float32)),
                 Tensor("conv.b", rng.normal(size=(4,)).astype(np.float32))),
        "fc": (Tensor("fc", rng.normal(size=(5, 4 * oh * ow)).astype(np.float32)), None),
    }
    return manifest, weights


def _widening_conv_net(rng):
    """conv 3->4, relu, conv 4->32, relu, maxpool 4 and fc on a 16x16 input:
    the last conv's output dwarfs its input and every work array."""
    conv = {"stride": 1, "pad": 1}
    manifest = ModelManifest((
        LayerDecl("conv1", "conv2d", weight_ref="conv1.w.npy", bias_ref="conv1.b.npy",
                  hyperparams=conv),
        LayerDecl("relu1", "relu"),
        LayerDecl("conv2", "conv2d", weight_ref="conv2.w.npy", bias_ref="conv2.b.npy",
                  hyperparams=conv),
        LayerDecl("relu2", "relu"),
        LayerDecl("pool", "maxpool", hyperparams={"window": 4}),
        LayerDecl("fc", "fc", weight_ref="fc.w.npy"),
    ), input_shape=(3, 16, 16))
    weights = {
        "conv1": (Tensor("conv1", rng.normal(size=(4, 3, 3, 3)).astype(np.float32)),
                  Tensor("conv1.b", rng.normal(size=(4,)).astype(np.float32))),
        "conv2": (Tensor("conv2", rng.normal(size=(32, 4, 3, 3)).astype(np.float32)),
                  Tensor("conv2.b", rng.normal(size=(32,)).astype(np.float32))),
        "fc": (Tensor("fc", rng.normal(size=(5, 32 * 4 * 4)).astype(np.float32)), None),
    }
    return manifest, weights


PAIRED_NETS = {
    "mlp": lambda seed: mlp_net(np.random.default_rng(seed)),
    "conv": lambda seed: conv_net(np.random.default_rng(seed)),
    "random": lambda seed: random_net(np.random.default_rng(seed)),
    "stride2-pad0": lambda seed: _strided_net(np.random.default_rng(seed), 0),
    "stride2-pad1": lambda seed: _strided_net(np.random.default_rng(seed), 1),
}


def _chunk_bytes_for(manifest, weights, model, samples):
    """A ``CHUNK_BYTES`` that puts ``samples`` samples in each chunk of the
    first layer's stacked product, by ``simulate._batch_step``'s own rule.
    Its bytes per sample are 2^62 over the step it returns for a
    ``CHUNK_BYTES`` of 2^62, exactly while their square stays below 2^62.
    An fc product ignores this and runs whole."""
    first = manifest.layers[0]
    w = weights[first.name][0].data
    depths = int(model.layer(first.name).counts.max())
    stacked = np.empty(((1 + depths) * w.shape[0],) + w.shape[1:], dtype=np.float32)
    shape = simulate.resolve_shapes(
        manifest, {n: t.shape for n, (t, _) in weights.items()})[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "CHUNK_BYTES", 1 << 62)
        return samples * ((1 << 62) // simulate._batch_step(stacked, shape))


def _spy_chunks(monkeypatch, hold=None, fail_on_helper=False):
    """Records (bias, start, samples, on the calling thread) per finished
    chunk of a stacked product. The calling thread's first chunk of the
    layer whose bias is ``hold`` waits 0.3 s, so the helper, done with the
    clean pass, claims that layer's chunks still open."""
    ran = []
    finish = simulate._finish_stacked

    def spied(y, s, out, bias):
        on_main = threading.current_thread() is threading.main_thread()
        first = not any(b is bias and main for b, _, _, main in ran)
        ran.append((bias, s, len(out), on_main))
        if on_main and hold is not None and bias is hold and first:
            time.sleep(0.3)
        if fail_on_helper and not on_main:
            raise RuntimeError("chunk failed on the helper")
        return finish(y, s, out, bias)

    monkeypatch.setattr(simulate, "_finish_stacked", spied)
    return ran


def _first_layer_chunks(ran, manifest, weights):
    """(start, samples) of each finished chunk of the first layer, in order
    of start; the first layer of every net here has a bias."""
    bias = weights[manifest.layers[0].name][1].data
    return sorted((s, n) for b, s, n, _ in ran if b is bias)


class TestChunkedPasses:
    CHUNK = 4

    @pytest.mark.parametrize("act_quant", [False, True], ids=["plain", "act-quant"])
    @pytest.mark.parametrize("net", sorted(PAIRED_NETS))
    def test_trace_and_logits_match_the_reference_bit_for_bit(self, monkeypatch, net,
                                                             act_quant):
        # A conv first layer runs CHUNK samples per chunk; an fc product,
        # the first layer of mlp and of some random nets, runs whole.
        ran = _spy_chunks(monkeypatch)
        for seed in range(3):
            manifest, weights = PAIRED_NETS[net](seed)
            model = _convert(manifest, weights, 16, 0.01)
            monkeypatch.setattr(simulate, "CHUNK_BYTES",
                                _chunk_bytes_for(manifest, weights, model, self.CHUNK))
            rng = np.random.default_rng(100 + seed)
            for batch in (1, self.CHUNK - 1, self.CHUNK, self.CHUNK + 1):
                x = rng.normal(size=(batch,) + manifest.input_shape).astype(np.float32)
                ran.clear()
                _, logits, trace = forward_quantized(manifest, weights, model, x,
                                                     act_quant=act_quant)
                step = self.CHUNK if manifest.layers[0].kind == "conv2d" else batch
                assert _first_layer_chunks(ran, manifest, weights) == [
                    (s, min(step, batch - s)) for s in range(0, batch, step)]
                rows, clean_logits, q_logits = reference_paired(
                    manifest, weights, model, x, act_quant)
                assert trace.to_rows() == rows
                assert trace.logits.tobytes() == clean_logits.tobytes()
                assert logits.tobytes() == trace.logits_quantized.tobytes()
                assert logits.tobytes() == q_logits.tobytes()

    def test_full_size_chunk_boundary_matches_the_reference(self, monkeypatch):
        # At the default CHUNK_BYTES, conv1's stacked product runs one full
        # chunk and one of a single sample.
        manifest, weights = conv_net(np.random.default_rng(19))
        model = _convert(manifest, weights, 16, 0.01)
        chunk = simulate.CHUNK_BYTES // _chunk_bytes_for(manifest, weights, model, 1)
        x = np.random.default_rng(20).normal(
            size=(chunk + 1,) + manifest.input_shape).astype(np.float32)
        ran = _spy_chunks(monkeypatch)
        _, logits, trace = forward_quantized(manifest, weights, model, x, act_quant=True)
        assert _first_layer_chunks(ran, manifest, weights) == [(0, chunk), (chunk, 1)]
        rows, clean_logits, q_logits = reference_paired(manifest, weights, model, x, True)
        assert trace.to_rows() == rows
        assert trace.logits.tobytes() == clean_logits.tobytes()
        assert logits.tobytes() == q_logits.tobytes()

    @pytest.mark.parametrize("k, stride, pad, h, w", CONV_SHAPES)
    def test_conv2d_equals_one_piece_im2col(self, monkeypatch, k, stride, pad, h, w):
        rng = np.random.default_rng(k * 100 + stride * 10 + pad)
        weight = rng.normal(size=(5, 3, k, k)).astype(np.float32)
        bias = rng.normal(size=(5,)).astype(np.float32)
        oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        monkeypatch.setattr(simulate, "CHUNK_BYTES", self.CHUNK * 3 * k * k * oh * ow * 4)
        for batch in (1, self.CHUNK - 1, self.CHUNK, self.CHUNK + 1, 3 * self.CHUNK + 2):
            x = rng.normal(size=(batch, 3, h, w)).astype(np.float32)
            for b in (bias, None):
                out = simulate._conv2d(weight, b, x, stride, pad)
                expected = im2col_conv(weight, b, x, stride, pad)
                assert out.dtype == np.float32 and out.flags.c_contiguous
                assert out.tobytes() == expected.tobytes()

    def test_conv2d_full_size_chunk_boundary(self):
        rng = np.random.default_rng(21)
        weight = rng.normal(size=(5, 3, 3, 3)).astype(np.float32)
        bias = rng.normal(size=(5,)).astype(np.float32)
        chunk = simulate.CHUNK_BYTES // (3 * 3 * 3 * 5 * 4 * 4)  # 9x7 input, stride 2, pad 1
        x = rng.normal(size=(chunk + 1, 3, 9, 7)).astype(np.float32)
        out = simulate._conv2d(weight, bias, x, 2, 1)
        assert out.shape == (chunk + 1, 5, 5, 4)
        assert out.tobytes() == im2col_conv(weight, bias, x, 2, 1).tobytes()

    @pytest.mark.parametrize("net", ["mlp", "stride2-pad1"])
    def test_decomposition_check_sees_the_last_chunk(self, monkeypatch, net):
        # Only the first layer is quantized and only the last sample is
        # nonzero, so a perturbed dense weight shows in the last chunk alone.
        # The conv runs two samples per chunk, three chunks; mlp's fc
        # product runs whole, so its one check must see the last sample.
        manifest, weights = PAIRED_NETS[net](22)
        model = _convert(manifest, weights, 16, 0.01)
        first = model.layers[0].layer
        model = QuantizedModel({}, model.layers[:1])
        monkeypatch.setattr(simulate, "CHUNK_BYTES",
                            _chunk_bytes_for(manifest, weights, model, 2))
        x = np.zeros((5,) + manifest.input_shape, dtype=np.float32)
        x[-1] = np.random.default_rng(23).normal(size=manifest.input_shape)
        ran = _spy_chunks(monkeypatch)
        forward_quantized(manifest, weights, model, x)
        expected = [(0, 5)] if net == "mlp" else [(0, 2), (2, 2), (4, 1)]
        assert _first_layer_chunks(ran, manifest, weights) == expected

        def perturbed(qlayer):
            w = reconstruct(qlayer)
            w.data.reshape(-1)[0] += np.float32(1.0)
            return w

        monkeypatch.setattr(simulate, "reconstruct", perturbed)
        with pytest.raises(RuntimeError, match=f"layer '{first}'.*deviates"):
            forward_quantized(manifest, weights, model, x)


class TestHelperThread:
    """A paired pass runs its clean side on a helper thread of its own."""

    @staticmethod
    def _mlp(seed):
        manifest, weights = mlp_net(np.random.default_rng(seed))
        model = _convert(manifest, weights, 16, 0.01)
        x = np.random.default_rng(seed + 1).normal(size=(3, 48)).astype(np.float32)
        return manifest, weights, model, x

    @pytest.mark.parametrize("act_quant", [False, True], ids=["plain", "act-quant"])
    def test_clean_error_wins_when_both_sides_fail(self, monkeypatch, act_quant):
        # The quantized side fails its decomposition check at fc1; the clean
        # pass rejects fc2's weight later. The clean pass used to run first,
        # so its error is the one raised.
        manifest, weights, model, x = self._mlp(30)
        monkeypatch.setattr(simulate, "DECOMPOSITION_RTOL", -1.0)
        with pytest.raises(RuntimeError, match="layer 'fc1'.*deviates"):
            forward_quantized(manifest, weights, model, x, act_quant=act_quant)
        bad = Tensor("fc2", np.ones((8, 31), dtype=np.float32))
        weights = {**weights, "fc2": (bad, None)}
        with pytest.raises(ValueError, match="layer 'fc2': fc expects 31 inputs"):
            forward(manifest, weights, x)
        with pytest.raises(ValueError, match="layer 'fc2': fc expects 31 inputs"):
            forward_quantized(manifest, weights, model, x, act_quant=act_quant)

    @pytest.mark.parametrize("outcome", ["return", "clean-error", "decomposition-error"])
    def test_no_thread_outlives_the_call(self, monkeypatch, outcome):
        manifest, weights, model, x = self._mlp(31)
        if outcome != "return":
            monkeypatch.setattr(simulate, "DECOMPOSITION_RTOL", -1.0)
        if outcome == "clean-error":
            weights = {**weights, "fc2": (Tensor("fc2", np.ones((8, 31), np.float32)), None)}
        expected = {"return": None, "clean-error": ValueError,
                    "decomposition-error": RuntimeError}[outcome]
        before = threading.active_count()
        for act_quant in (False, True):
            if expected is None:
                forward_quantized(manifest, weights, model, x, act_quant=act_quant)
            else:
                with pytest.raises(expected):
                    forward_quantized(manifest, weights, model, x, act_quant=act_quant)
            assert threading.active_count() == before

    @pytest.mark.parametrize("act_quant", [False, True], ids=["plain", "act-quant"])
    @pytest.mark.parametrize("net", ["mlp", "conv"])
    def test_an_empty_batch_gives_empty_logits_and_zero_perturbations(self, net, act_quant):
        # No chunk task, a 0/0 decomposition check and norms of zero-size
        # arrays: every delta and gamma is 0, and the helper is gone.
        manifest, weights = PAIRED_NETS[net](40)
        model = _convert(manifest, weights, 16, 0.01)
        x = np.zeros((0,) + manifest.input_shape, dtype=np.float32)
        before = threading.active_count()
        _, logits, trace = forward_quantized(manifest, weights, model, x, act_quant=act_quant)
        assert threading.active_count() == before
        classes = weights[manifest.layers[-1].name][0].shape[0]
        assert logits.shape == trace.logits.shape == (0, classes)
        rows = trace.to_rows()
        assert len(rows) == len(manifest.layers) + 1
        assert all(row["delta"] == 0.0 and row["gamma"] == 0.0 for row in rows)

    def test_concurrent_calls_match_serial_calls(self):
        # Two calls at once on different inputs: each gets the trace rows
        # and logit bytes of a serial call, so no scratch state is shared.
        manifest, weights = conv_net(np.random.default_rng(32))
        model = _convert(manifest, weights, 16, 0.01)
        rng = np.random.default_rng(33)
        inputs = [rng.normal(size=(5,) + manifest.input_shape).astype(np.float32)
                  for _ in range(2)]

        def digest(x):
            _, logits, trace = forward_quantized(manifest, weights, model, x,
                                                 act_quant=True)
            return trace.to_rows(), logits.tobytes(), trace.logits.tobytes()

        serial = [digest(x) for x in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to meet any shared state
        try:
            for _ in range(5):
                start = threading.Barrier(2, timeout=60)
                results, errors = [None, None], []

                def run(i):
                    try:
                        start.wait()
                        results[i] = digest(inputs[i])
                    except BaseException as exc:  # reported by the assert below
                        errors.append(exc)

                threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert results == serial
        finally:
            sys.setswitchinterval(interval)


class TestChecksOnTheHelper:
    """The decomposition checks, whose chunks the helper thread may run."""

    @pytest.mark.parametrize("act_quant", [False, True], ids=["plain", "act-quant"])
    def test_earlier_check_error_wins_over_a_later_quantized_error(self, monkeypatch,
                                                                   act_quant):
        # fc1 fails its check, which runs on the helper; the quantized fc2
        # does not fit its weight, which the calling thread finds later. The
        # clean pass is valid. A serial pass stopped at fc1's check.
        manifest, weights, model, x = TestHelperThread._mlp(34)
        other = Tensor("fc2", np.ones((8, 31), dtype=np.float32))
        model = QuantizedModel({}, (model.layer("fc1"),
                                    ternary_residual(other, 16, epsilon_sq=0.05)))
        monkeypatch.setattr(simulate, "DECOMPOSITION_RTOL", 1.0)
        with pytest.raises(ValueError, match="layer 'fc2': quantized shape"):
            forward_quantized(manifest, weights, model, x, act_quant=act_quant)
        monkeypatch.setattr(simulate, "DECOMPOSITION_RTOL", -1.0)
        with pytest.raises(RuntimeError, match="layer 'fc1'.*deviates"):
            forward_quantized(manifest, weights, model, x, act_quant=act_quant)

    def test_a_slow_clean_pass_leaves_the_memory_peak_unchanged(self, monkeypatch):
        # A clean pass held back 0.3 s leaves the helper behind the whole
        # quantized side. No stacked product may wait for it, so the peak is
        # that of a pass on time, and at most the quantized activations plus
        # the clean side's own peak: the larger of the clean pass's and of
        # its activations plus one float64 norm copy of the largest. One
        # image per chunk keeps the transients small beside the activations,
        # as at full size; the slack covers numpy's cast buffers and Python
        # objects.
        manifest, weights = _widening_conv_net(np.random.default_rng(35))
        model = _convert(manifest, weights, 16, 0.01)
        x = np.random.default_rng(36).normal(size=(64,) + manifest.input_shape).astype(
            np.float32)
        monkeypatch.setattr(simulate, "CHUNK_BYTES", 1)
        slack = forward(manifest, weights, x)[-3].nbytes // 4

        def slow_clean(*args):
            time.sleep(0.3)
            return forward(*args)

        def peak(run):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                out = run()
                return tracemalloc.get_traced_memory()[1] - start, out
            finally:
                tracemalloc.stop()

        on_time, _ = peak(lambda: forward_quantized(manifest, weights, model, x))
        forward_peak, clean = peak(lambda: forward(manifest, weights, x))
        largest = max(a.size for a in [x] + clean)
        clean_peak = max(forward_peak, sum(a.nbytes for a in clean) + 8 * largest)
        monkeypatch.setattr(simulate, "forward", slow_clean)
        held_back, (acts, _, _) = peak(lambda: forward_quantized(manifest, weights, model, x))
        assert abs(held_back - on_time) <= slack
        assert held_back <= sum(a.nbytes for a in acts) + clean_peak + slack


class TestSharedChunks:
    """Either thread of a paired pass computes and finishes a chunk of a
    stacked product, for every quantized layer kind."""

    @staticmethod
    def _spy(monkeypatch, hold, fail_on_helper=False):
        monkeypatch.setattr(simulate, "CHUNK_BYTES", 1)  # one image per chunk
        return _spy_chunks(monkeypatch, hold, fail_on_helper)

    @staticmethod
    def _net(seed):
        manifest, weights = conv_net(np.random.default_rng(seed))
        model = _convert(manifest, weights, 16, 0.01)
        x = np.random.default_rng(seed + 1).normal(size=(6,) + manifest.input_shape).astype(
            np.float32)
        return manifest, weights, model, x

    @pytest.mark.parametrize("act_quant", [False, True], ids=["plain", "act-quant"])
    def test_chunks_the_helper_computes_match_the_reference_bit_for_bit(self, monkeypatch,
                                                                       act_quant):
        manifest, weights, model, x = self._net(37)
        ran = self._spy(monkeypatch, weights["conv1"][1].data)
        _, logits, trace = forward_quantized(manifest, weights, model, x, act_quant=act_quant)
        assert any(not on_main for *_, on_main in ran)
        rows, clean_logits, q_logits = reference_paired(manifest, weights, model, x, act_quant)
        assert trace.to_rows() == rows
        assert trace.logits.tobytes() == clean_logits.tobytes()
        assert logits.tobytes() == q_logits.tobytes()

    def test_bn_scale_chunks_are_shared_and_fc_stays_whole(self, monkeypatch):
        # bn_scale is finished once per image, partly on the helper; fc is
        # finished once over the whole batch, whose bits a row split can change.
        manifest, weights, model, x = self._net(41)
        bn, fc = weights["bn1"][1].data, weights["fc1"][1].data
        ran = self._spy(monkeypatch, bn)
        forward_quantized(manifest, weights, model, x, act_quant=True)
        bn_chunks = [(s, n, on_main) for b, s, n, on_main in ran if b is bn]
        assert sorted((s, n) for s, n, _ in bn_chunks) == [(s, 1) for s in range(len(x))]
        assert any(not on_main for *_, on_main in bn_chunks)
        assert [(s, n) for b, s, n, _ in ran if b is fc] == [(0, len(x))]

    def test_a_chunk_that_fails_on_the_helper_fails_the_pass(self, monkeypatch):
        manifest, weights, model, x = self._net(39)
        ran = self._spy(monkeypatch, weights["conv1"][1].data, fail_on_helper=True)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed on the helper"):
            forward_quantized(manifest, weights, model, x)
        assert any(not on_main for *_, on_main in ran)
        assert threading.active_count() == before


def _bn_scale_net(rng):
    manifest = ModelManifest(
        (LayerDecl("bn", "bn_scale", weight_ref="bn.a.npy", bias_ref="bn.b.npy"),),
        input_shape=(6, 5, 5))
    return manifest, {"bn": (
        Tensor("bn", rng.uniform(0.5, 1.5, size=(6,)).astype(np.float32)),
        Tensor("bn.b", rng.normal(scale=0.1, size=(6,)).astype(np.float32)))}


CHECK_NETS = {"conv": conv_net, "mlp": mlp_net, "bn_scale": _bn_scale_net}


class TestDecompositionCheck:
    @staticmethod
    def _scaled_dense(factor):
        def scaled(qlayer):
            w = reconstruct(qlayer)
            w.data[...] *= np.float32(factor)
            return w
        return scaled

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("net", sorted(CHECK_NETS))
    def test_a_planted_mismatch_fails_at_every_scale(self, monkeypatch, net, bias):
        # Scaling the input and every bias by 2^k scales every activation by
        # exactly 2^k, so the relative check reads the same. At 2^70 float32
        # squares overflow and at 2^-70 they lose their bits, so every chunk
        # takes its two sums again in float64.
        rng = np.random.default_rng(61)
        manifest, weights = CHECK_NETS[net](rng)
        model = _convert(manifest, weights, 16, 0.01)
        x = rng.normal(size=(3,) + manifest.input_shape).astype(np.float32)
        first = manifest.layers[0].name
        finish, sq_norm = simulate._finish_stacked, simulate._sq_norm
        chunks, fallbacks = [], []

        def spied_finish(*args):
            chunks.append(1)
            return finish(*args)

        def spied_sq_norm(*args):
            if sys._getframe(1).f_code is finish.__code__:
                fallbacks.append(1)
            return sq_norm(*args)

        monkeypatch.setattr(simulate, "_finish_stacked", spied_finish)
        monkeypatch.setattr(simulate, "_sq_norm", spied_sq_norm)
        rels = []
        for k in (0, 70, -70):
            scale = np.float32(2.0 ** k)
            scaled = {name: (w, Tensor(b.name, b.data * scale) if bias and b else None)
                      for name, (w, b) in weights.items()}
            monkeypatch.setattr(simulate, "reconstruct", self._scaled_dense(1 + 5e-6))
            chunks.clear()
            fallbacks.clear()
            forward_quantized(manifest, scaled, model, x * scale)
            assert chunks and len(fallbacks) == (2 * len(chunks) if k else 0)
            monkeypatch.setattr(simulate, "reconstruct", self._scaled_dense(1 + 2e-5))
            with pytest.raises(DecompositionError, match=f"layer '{first}'.*deviates") as err:
                forward_quantized(manifest, scaled, model, x * scale)
            rels.append(float(str(err.value).split(" by ")[1].split()[0]))
        assert rels[0] > simulate.DECOMPOSITION_RTOL
        assert rels[1:] == pytest.approx(rels[:1] * 2, rel=1e-2)


class TestMarginCheck:
    def test_gap_one_delta_half_is_safe(self):
        assert margin_check(np.array([1.0, 0.0]), 0.5) == "safe"

    def test_zero_delta_always_safe(self):
        assert margin_check(np.array([0.3, 0.3]), 0.0) == "safe"

    def test_boundary_is_unsafe(self):
        gap = np.sqrt(2.0) * 0.5
        assert margin_check(np.array([gap, 0.0]), 0.5) == "unsafe"

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            margin_check(np.array([1.0]), 0.1)

    def test_negative_delta_rejected(self):
        for delta in (-0.1, float("nan")):
            with pytest.raises(ValueError, match=f"non-negative, got {delta}"):
                margin_check(np.array([1.0, 0.0]), delta)

    def test_randomized_falsification(self):
        # When the check says safe, no perturbation on the l2 ball may flip
        # the argmax - including the structured worst case that trades the
        # leader down and the runner-up up.
        rng = np.random.default_rng(11)
        flips = 0
        for _ in range(200):
            y = rng.normal(size=6)
            delta = float(rng.uniform(0.01, 1.0))
            if margin_check(y, delta) != "safe":
                continue
            top = int(np.argmax(y))
            u = rng.normal(size=(500, 6))
            u *= delta / np.linalg.norm(u, axis=1, keepdims=True)
            perturbed = y[None, :] + u
            flips += int(np.any(np.argmax(perturbed, axis=1) != top))
            runner = int(np.argsort(-y)[1])
            for gamma in np.linspace(0.0, 1.0, 11):
                adv = y.copy()
                adv[top] -= gamma * delta
                adv[runner] += np.sqrt(1 - gamma**2) * delta
                flips += int(np.argmax(adv) != top)
        assert flips == 0


class TestLemmaBounds:
    def test_identical_inputs_hold_with_zero(self):
        x = np.random.default_rng(12).normal(size=(1, 2, 6, 6)).astype(np.float32)
        assert relu_bound(x, x).measured == 0.0
        assert maxpool_bound(x, x, 2, 2).measured == 0.0
        assert avgpool_bound(x, x, 2, 2).measured == 0.0

    def test_all_negative_relu_difference_is_zero(self):
        rng = np.random.default_rng(13)
        x = -np.abs(rng.normal(size=(1, 8))).astype(np.float32) - 0.1
        xh = -np.abs(rng.normal(size=(1, 8))).astype(np.float32) - 0.1
        check = relu_bound(x, xh)
        assert check.measured == 0.0
        assert check.ok

    def test_random_trials_no_violations(self):
        rng = np.random.default_rng(14)
        violations = 0
        for _ in range(300):
            x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
            noise = rng.normal(scale=10.0 ** rng.uniform(-4, 0.5), size=x.shape)
            xh = (x + noise).astype(np.float32)
            w = rng.normal(size=(4, 72)).astype(np.float32)
            wh = (w + rng.normal(scale=0.1, size=w.shape)).astype(np.float32)
            checks = [
                relu_bound(x, xh),
                maxpool_bound(x, xh, 2, 2),
                maxpool_bound(x, xh, 3, 1),
                avgpool_bound(x, xh, 2, 2),
                matmul_bound(w, wh, x.reshape(1, -1), xh.reshape(1, -1)),
            ]
            violations += sum(0 if c.ok else 1 for c in checks)
        assert violations == 0

    def test_layer_checks_on_measured_pair(self):
        rng = np.random.default_rng(15)
        manifest, weights = conv_net(rng)
        model = _convert(manifest, weights, 16, 0.01)
        x = rng.normal(size=(2,) + manifest.input_shape).astype(np.float32)
        clean = forward(manifest, weights, x)
        q_acts, _, _ = forward_quantized(manifest, weights, model, x, act_quant=True)
        checks = layer_lemma_checks(
            manifest, weights,
            [x] + clean[:-1], [x] + q_acts[:-1],
            {l.layer: reconstruct(l).data for l in model.layers},
        )
        assert checks  # the net exercises relu, both pools, and fc
        assert all(c.ok for c in checks)


class TestBudgetTightening:
    def test_tighter_budgets_reduce_final_delta(self):
        rng = np.random.default_rng(0)
        manifest, weights = conv_net(rng)
        x = rng.normal(size=(4,) + manifest.input_shape).astype(np.float32)
        finals = []
        levels = []
        for eps in (0.3, 0.1, 0.03, 0.01):
            model = _convert(manifest, weights, 16, eps * eps)
            _, _, trace = forward_quantized(manifest, weights, model, x)
            finals.append(trace.final_delta)
            levels.append(model.num_levels)
        assert all(a > b for a, b in zip(finals, finals[1:]))
        assert all(a <= b for a, b in zip(levels, levels[1:]))


@pytest.mark.parametrize("layer, weight, x, match", [
    (LayerDecl("c", "conv2d", "c.w"), np.ones((2, 3, 3, 3)), np.ones((1, 2, 5, 5)),
     r"'c': conv2d expects \(B,3,H,W\), got \(1, 2, 5, 5\)"),
    (LayerDecl("c", "conv2d", "c.w"), np.ones((2, 3, 3, 3)), np.ones((1, 3, 2, 5)),
     "'c': conv2d kernel larger than padded input"),
    (LayerDecl("p", "maxpool", hyperparams={"window": 2}), None, np.ones((1, 3, 4)),
     r"'p': pooling expects \(B,C,H,W\), got \(1, 3, 4\)"),
    (LayerDecl("b", "bn_scale", "b.a"), np.ones(3), np.ones((1, 4, 2, 2)),
     r"'b': bn_scale over 3 channels cannot apply to \(1, 4, 2, 2\)"),
    (LayerDecl("s", "softmax"), None, np.ones((1, 4)), "'s': unknown layer kind 'softmax'"),
], ids=["conv-channels", "conv-kernel", "pool-rank", "bn-channels", "unknown-kind"])
def test_layer_shape_errors_name_the_layer(layer, weight, x, match):
    weight = None if weight is None else weight.astype(np.float32)
    with pytest.raises(ValueError, match=f"^layer {match}$"):
        simulate.apply_layer(layer, weight, None, x.astype(np.float32))
