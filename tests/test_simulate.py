"""Inference simulator: reference forward, paired passes, bounds, margins."""

import numpy as np
import pytest
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
        rng = np.random.default_rng(17)
        manifest, weights = make_net(rng)
        model = _convert(manifest, weights, 16, 0.001)
        assert all(int(l.counts.max()) > 1 for l in model.layers)
        calls = {}
        apply_layer = simulate.apply_layer

        def counted(layer, *args):
            calls[layer.name] = calls.get(layer.name, 0) + 1
            return apply_layer(layer, *args)

        monkeypatch.setattr(simulate, "apply_layer", counted)
        x = rng.normal(size=(2,) + manifest.input_shape).astype(np.float32)
        forward_quantized(manifest, weights, model, x, act_quant=True)
        # Every parametric kind: one clean pass and one stacked
        # dense-plus-levels pass, not 1+R.
        expected = {l.layer: 2 for l in model.layers}
        assert {name: calls[name] for name in expected} == expected

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


PAIRED_NETS = {
    "mlp": lambda seed: mlp_net(np.random.default_rng(seed)),
    "conv": lambda seed: conv_net(np.random.default_rng(seed)),
    "random": lambda seed: random_net(np.random.default_rng(seed)),
    "stride2-pad0": lambda seed: _strided_net(np.random.default_rng(seed), 0),
    "stride2-pad1": lambda seed: _strided_net(np.random.default_rng(seed), 1),
}


def _chunk_bytes_for(manifest, weights, samples):
    """A ``CHUNK_BYTES`` that puts ``samples`` samples in each chunk of the
    first layer: its im2col patches for a conv, its float64 check rows for
    an fc."""
    first = manifest.layers[0]
    w = weights[first.name][0].data
    if first.kind == "conv2d":
        shape = simulate.resolve_shapes(
            manifest, {n: t.shape for n, (t, _) in weights.items()})[0]
        return samples * (w.size // w.shape[0]) * shape[1] * shape[2] * 4
    return samples * w.shape[0] * 8


class TestChunkedPasses:
    CHUNK = 4

    @pytest.mark.parametrize("act_quant", [False, True], ids=["plain", "act-quant"])
    @pytest.mark.parametrize("net", sorted(PAIRED_NETS))
    def test_trace_and_logits_match_the_reference_bit_for_bit(self, monkeypatch, net,
                                                             act_quant):
        for seed in range(3):
            manifest, weights = PAIRED_NETS[net](seed)
            model = _convert(manifest, weights, 16, 0.01)
            monkeypatch.setattr(simulate, "CHUNK_BYTES",
                                _chunk_bytes_for(manifest, weights, self.CHUNK))
            rng = np.random.default_rng(100 + seed)
            for batch in (1, self.CHUNK - 1, self.CHUNK, self.CHUNK + 1):
                x = rng.normal(size=(batch,) + manifest.input_shape).astype(np.float32)
                _, logits, trace = forward_quantized(manifest, weights, model, x,
                                                     act_quant=act_quant)
                rows, clean_logits, q_logits = reference_paired(
                    manifest, weights, model, x, act_quant)
                assert trace.to_rows() == rows
                assert trace.logits.tobytes() == clean_logits.tobytes()
                assert logits.tobytes() == trace.logits_quantized.tobytes()
                assert logits.tobytes() == q_logits.tobytes()

    def test_full_size_chunk_boundary_matches_the_reference(self):
        manifest, weights = conv_net(np.random.default_rng(19))
        model = _convert(manifest, weights, 16, 0.01)
        chunk = simulate.CHUNK_BYTES // _chunk_bytes_for(manifest, weights, 1)
        x = np.random.default_rng(20).normal(
            size=(chunk + 1,) + manifest.input_shape).astype(np.float32)
        _, logits, trace = forward_quantized(manifest, weights, model, x, act_quant=True)
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
        manifest, weights = PAIRED_NETS[net](22)
        model = _convert(manifest, weights, 16, 0.01)
        first = model.layers[0].layer
        model = QuantizedModel({}, model.layers[:1])
        # Two samples of the check's float64 rows per chunk: three chunks.
        shape = simulate.resolve_shapes(
            manifest, {n: t.shape for n, (t, _) in weights.items()})[0]
        monkeypatch.setattr(simulate, "CHUNK_BYTES", 2 * int(np.prod(shape)) * 8)
        x = np.zeros((5,) + manifest.input_shape, dtype=np.float32)
        x[-1] = np.random.default_rng(23).normal(size=manifest.input_shape)
        forward_quantized(manifest, weights, model, x)

        def perturbed(qlayer):
            w = reconstruct(qlayer)
            w.data.reshape(-1)[0] += np.float32(1.0)
            return w

        monkeypatch.setattr(simulate, "reconstruct", perturbed)
        with pytest.raises(RuntimeError, match=f"layer '{first}'.*deviates"):
            forward_quantized(manifest, weights, model, x)


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
