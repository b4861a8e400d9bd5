"""Toy forward-pass engine running paired FP32/quantized inference.

The engine supports fully-connected, 2-D convolution through im2col (the
flat kernel times each image's patch matrix), ReLU, max/avg pooling, and
folded batch-norm+scale (an affine ``a*y + b`` per channel). A paired run
measures, per layer, the relative output perturbation, the
activation-quantization perturbation, and the weight perturbation, and
cross-checks that accumulating the per-level ternary contributions matches
a dense multiply with the reconstructed weights. For every parametric layer
both sides come from one product whose outputs stack the dense weights and,
per depth, every block's level at that depth; bn_scale, which scales each
channel by its own weight, sees its input repeated once per slot.

Everything computes in float32 (the toolkit's native precision) while norms
and ratios accumulate in float64. Work arrays stay near ``CHUNK_BYTES``: a
convolution builds its patch matrices a batch chunk at a time and writes
each chunk's product into one output, and the decomposition check sums its
squares a chunk at a time over the one stacked output. A paired run takes
every trace norm through one float64 scratch buffer, with the same bits as
``np.linalg.norm`` of a float64 copy.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .manifest import PARAMETRIC_KINDS, LayerDecl, ModelManifest, _check_weight_shape
from .residual import QuantizedLayer, QuantizedModel, reconstruct
from .residual import fixed_point_exponent, level_index, snap_8bit
from .tensors import Tensor

DECOMPOSITION_RTOL = 1e-5
CHUNK_BYTES = 4 << 20  # batch-chunked work arrays stay near this size


def quantize_activations(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Round ``x`` onto an 8-bit grid whose step covers the value range.

    Dynamic fixed point: returns the rounded values and the exponent e of the
    power-of-two step, the smallest integer with ``max|x| <= 127 * 2^e``, so
    every element is off by at most ``2^(e-1)``.
    """
    x = np.asarray(x, dtype=np.float32)
    peak = float(max(x.max(), -x.min())) if x.size else 0.0
    if not math.isfinite(peak):
        raise ValueError("cannot quantize non-finite activations")
    if peak == 0.0:
        return x.copy(), 0
    e = fixed_point_exponent(peak)
    return snap_8bit(x, e), e


# ---------------------------------------------------------------------------
# layer primitives (batch-first, float32)
# ---------------------------------------------------------------------------


def _fc(w: np.ndarray, b: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    flat = x.reshape(x.shape[0], math.prod(x.shape[1:]))
    if flat.shape[1] != w.shape[1]:
        raise ValueError(f"fc expects {w.shape[1]} inputs, got {flat.shape[1]}")
    y = flat @ w.T
    if b is not None:
        y = y + b
    return y.astype(np.float32, copy=False)


def _batch_step(sample_bytes: int) -> int:
    """Samples per batch chunk whose work arrays hold about ``CHUNK_BYTES``."""
    return max(1, CHUNK_BYTES // max(1, sample_bytes))


def _conv2d(w: np.ndarray, b: np.ndarray | None, x: np.ndarray,
            stride: int, pad: int) -> np.ndarray:
    """im2col convolution: the flat kernel times each image's patch matrix,
    built a batch chunk at a time and written into one output."""
    if x.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d expects (B,{w.shape[1]},H,W), got {x.shape}")
    c_out, c_in, kh, kw = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError("conv2d kernel larger than padded input")
    # Windows are (B, C, OH, OW, kh, kw); each image's (C*kh*kw, OH*OW) patch
    # matrix has its rows ordered like the columns of ``w.reshape(c_out, -1)``,
    # so the product comes out in (B, c_out, OH*OW) order. matmul runs one
    # GEMM per image, so chunking the batch leaves every output bit as is.
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    patches = windows.transpose(0, 1, 4, 5, 2, 3)
    rows, cols = c_in * kh * kw, oh * ow
    flat_w = w.reshape(c_out, rows)
    y = np.empty((x.shape[0], c_out, cols), dtype=np.result_type(w, x))
    step = _batch_step(rows * cols * x.itemsize)
    for s in range(0, x.shape[0], step):
        np.matmul(flat_w, patches[s:s + step].reshape(-1, rows, cols), out=y[s:s + step])
    y = y.reshape(x.shape[0], c_out, oh, ow)
    if b is not None:
        y += b.reshape(1, c_out, 1, 1)
    return y.astype(np.float32, copy=False)


def _pool_taps(x: np.ndarray, window: int, stride: int) -> list[np.ndarray]:
    """One strided (B, C, OH, OW) view per tap of the pooling window."""
    if x.ndim != 4:
        raise ValueError(f"pooling expects (B,C,H,W), got {x.shape}")
    oh = (x.shape[2] - window) // stride + 1
    ow = (x.shape[3] - window) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError("pooling window larger than input")
    return [x[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride]
            for u in range(window) for v in range(window)]


def _pool_windows(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    """(B, C, OH, OW, window*window) array of the pooling regions."""
    return np.stack(_pool_taps(x, window, stride), axis=-1)


def _maxpool(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    taps = _pool_taps(x, window, stride)
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    return out


def _avgpool(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    return _pool_windows(x, window, stride).mean(axis=-1, dtype=np.float32)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, np.float32(0.0))


def _bn_scale(a: np.ndarray, b: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    if x.ndim < 2 or x.shape[1] != a.shape[0]:
        raise ValueError(f"bn_scale over {a.shape[0]} channels cannot apply to {x.shape}")
    shape = (1, a.shape[0]) + (1,) * (x.ndim - 2)
    y = x * a.reshape(shape)
    if b is not None:
        y = y + b.reshape(shape)
    return y.astype(np.float32, copy=False)


def apply_layer(layer: LayerDecl, weight: np.ndarray | None,
                bias: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """One layer over a batch; these are the only layer shape rules, and a
    shape error names the layer."""
    if layer.kind in ("maxpool", "avgpool"):
        window = layer.hp("window")  # its error names the layer already
    try:
        if layer.kind == "fc":
            return _fc(weight, bias, x)
        if layer.kind == "conv2d":
            return _conv2d(weight, bias, x, layer.hp("stride", 1), layer.hp("pad", 0))
        if layer.kind == "relu":
            return _relu(x)
        if layer.kind == "maxpool":
            return _maxpool(x, window, layer.hp("stride", window))
        if layer.kind == "avgpool":
            return _avgpool(x, window, layer.hp("stride", window))
        if layer.kind == "bn_scale":
            return _bn_scale(weight, bias, x)
    except ValueError as exc:
        raise ValueError(f"layer {layer.name!r}: {exc}") from exc
    raise ValueError(f"layer {layer.name!r}: unknown layer kind {layer.kind!r}")


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def _as_batch(x) -> np.ndarray:
    arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float32)
    return arr.astype(np.float32, copy=False)


def forward(
    manifest: ModelManifest,
    weights: dict[str, tuple[Tensor, Tensor | None]],
    x,
) -> list[np.ndarray]:
    """Reference FP32 pass over batch-first input; returns every layer's output."""
    cur = _as_batch(x)
    acts = []
    for layer in manifest.layers:
        w, b = _weight_arrays(weights, layer)
        cur = apply_layer(layer, w, b, cur)
        acts.append(cur)
    return acts


def resolve_shapes(
    manifest: ModelManifest, weight_shapes: dict[str, tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Per-layer output shapes for one sample; raises if not resolvable.

    Every layer runs on an empty batch with zero weights of the given shapes.
    """
    if manifest.input_shape is None:
        raise ValueError("input shape is required to resolve layer shapes")
    cur = np.zeros((0, *manifest.input_shape), dtype=np.float32)
    shapes = []
    for layer in manifest.layers:
        weight = None
        if layer.kind in PARAMETRIC_KINDS:
            if layer.name not in weight_shapes:
                raise ValueError(f"layer {layer.name!r}: no weight shape to resolve")
            _check_weight_shape(layer, weight_shapes[layer.name])
            weight = np.zeros(weight_shapes[layer.name], dtype=np.float32)
        cur = apply_layer(layer, weight, None, cur)
        shapes.append(cur.shape[1:])
    return shapes


def _weight_arrays(weights, layer: LayerDecl):
    if layer.weight_ref is None:
        return None, None
    w, b = weights[layer.name]
    return w.data, None if b is None else b.data


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return num / den


def _sq_norm64(buf: np.ndarray, a: np.ndarray, b: np.ndarray | None = None) -> float:
    """``||a - b||^2`` (or ``||a||^2``) as ``np.linalg.norm`` forms it for
    ``(a - b).astype(np.float64)``: the difference is rounded in float32 and
    written to the float64 scratch ``buf``, then one ddot sums the squares."""
    out = buf[:a.size].reshape(a.shape)
    if b is None:
        np.copyto(out, a)
    else:
        np.subtract(a, b, out=out, dtype=np.float32)
    flat = out.reshape(-1)
    return float(np.dot(flat, flat))


def _apply_quantized(layer: LayerDecl, qlayer: QuantizedLayer, dense_w: np.ndarray,
                     bias: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """Dense pass with the reconstructed weights ``dense_w``, cross-checked
    against the level-decomposed accumulation.

    The dense weights and R depth slots are stacked along the output axis
    and run as one ``(1+R)*c_out``-output product: slot 0 holds the dense
    weights, slot 1+t every block's level t (zero where a block has fewer
    levels). The first ``c_out`` outputs are the dense result, the remaining
    ``(R, c_out)`` are the per-level products, summed for the decomposed
    result. Each output is its own product, so the two sides stay
    independent. bn_scale scales each channel by its own weight, so its
    input is repeated once per slot.
    """
    depths = int(qlayer.counts.max(initial=0))
    owner, depth = level_index(qlayer.counts)
    blocked = np.zeros((1 + depths, qlayer.num_blocks, qlayer.signs.shape[1]),
                       dtype=np.float32)
    blocked[1 + depth, owner] = qlayer.alphas[:, None] * qlayer.signs
    stacked = blocked.reshape(1 + depths, -1)[:, :dense_w.size]
    stacked[0] = dense_w.reshape(-1)
    c_out = dense_w.shape[0]
    if layer.kind == "bn_scale":
        x = np.concatenate([x] * (1 + depths), axis=1)
    out = apply_layer(layer, stacked.reshape((-1,) + dense_w.shape[1:]), None, x)
    y_dense = out[:, :c_out]
    levels = out[:, c_out:].reshape((out.shape[0], depths) + y_dense.shape[1:])
    if bias is not None:
        bias = bias.reshape((c_out,) + (1,) * (y_dense.ndim - 2))
        y_dense = y_dense + bias
    y_dense = np.ascontiguousarray(y_dense)
    # The check runs a batch chunk at a time and sums squares in float64.
    sample = math.prod(y_dense.shape[1:])
    step = _batch_step(sample * 8)
    buf = np.empty(step * sample, dtype=np.float64)
    err_sq = ref_sq = 0.0
    for s in range(0, out.shape[0], step):
        y_dec = levels[s:s + step].sum(axis=1)
        if bias is not None:
            y_dec += bias
        err_sq += _sq_norm64(buf, y_dense[s:s + step], y_dec)
        ref_sq += _sq_norm64(buf, y_dense[s:s + step])
    rel = _ratio(math.sqrt(err_sq), math.sqrt(ref_sq))
    if rel > DECOMPOSITION_RTOL:
        raise RuntimeError(
            f"layer {layer.name!r}: level-decomposed accumulation deviates from "
            f"the dense reconstruction by {rel:.3g} relative"
        )
    return y_dense


@dataclass(frozen=True)
class TraceEntry:
    index: int
    name: str
    kind: str
    delta: float
    gamma: float
    epsilon: float


@dataclass(frozen=True)
class PerturbationTrace:
    """Measured relative perturbations of one paired FP32/quantized run.

    Entry 0 describes the shared input (delta 0 by construction); entry i
    describes layer i. ``gamma`` of entry i is the quantization error of the
    activation handed to layer i+1, scaled by the clean activation norm.
    """

    entries: tuple[TraceEntry, ...]
    logits: np.ndarray
    logits_quantized: np.ndarray

    @property
    def final_delta(self) -> float:
        return self.entries[-1].delta

    def to_rows(self) -> list[dict]:
        return [
            {"layer": e.index, "name": e.name, "kind": e.kind,
             "delta": e.delta, "gamma": e.gamma, "epsilon": e.epsilon}
            for e in self.entries
        ]

    def to_csv(self, path) -> None:
        with open(str(path), "w", newline="", encoding="utf-8") as fp:
            writer = csv.writer(fp)
            writer.writerow(["layer", "name", "kind", "delta", "gamma", "epsilon"])
            for e in self.entries:
                writer.writerow([
                    e.index, e.name, e.kind,
                    f"{e.delta:.17g}", f"{e.gamma:.17g}", f"{e.epsilon:.17g}",
                ])

    def to_json(self) -> str:
        return json.dumps({"trace": self.to_rows()}, indent=2, sort_keys=True)


def forward_quantized(
    manifest: ModelManifest,
    weights: dict[str, tuple[Tensor, Tensor | None]],
    qmodel: QuantizedModel,
    x,
    act_quant: bool = False,
) -> tuple[list[np.ndarray], np.ndarray, PerturbationTrace]:
    """Paired FP32/quantized pass measuring per-layer perturbations.

    Returns the quantized activations, the quantized logits, and the trace.
    Biases stay at full precision; activation quantization, when enabled,
    applies to every layer input including the network input.
    """
    clean = forward(manifest, weights, x)
    cur = _as_batch(x)
    # Scratch for every norm below; ref_norm is the norm of the clean
    # activation handed to the next layer, the input's before layer 0.
    weight_sizes = [weights[l.layer][0].data.size for l in qmodel.layers if l.layer in weights]
    buf = np.empty(max([cur.size] + [a.size for a in clean] + weight_sizes), dtype=np.float64)

    def norm(a, b=None):
        return math.sqrt(_sq_norm64(buf, a, b))

    ref_norm = norm(cur) if act_quant else 0.0

    qlayers = {l.layer: l for l in qmodel.layers}
    entries = [TraceEntry(0, "input", "input", 0.0, 0.0, 0.0)]
    acts = []
    for li, layer in enumerate(manifest.layers):
        if act_quant:
            # gamma of entry li: the quantization error of the activation
            # handed to this layer, i.e. of layer li-1's output.
            x_in, _ = quantize_activations(cur)
            gamma = _ratio(norm(cur, x_in), ref_norm)
            entries[li] = replace(entries[li], gamma=gamma)
        else:
            x_in = cur

        w, b = _weight_arrays(weights, layer)
        epsilon = 0.0
        if layer.weight_ref is not None and layer.name in qlayers:
            qlayer = qlayers[layer.name]
            if qlayer.shape != w.shape:
                raise ValueError(
                    f"layer {layer.name!r}: quantized shape {qlayer.shape} does not "
                    f"match weight shape {w.shape}"
                )
            dense_w = reconstruct(qlayer).data
            cur = _apply_quantized(layer, qlayer, dense_w, b, x_in)
            epsilon = _ratio(norm(w, dense_w), norm(w))
        else:
            cur = apply_layer(layer, w, b, x_in)
        acts.append(cur)
        ref_norm = norm(clean[li])
        delta = _ratio(norm(clean[li], cur), ref_norm)
        entries.append(TraceEntry(li + 1, layer.name, layer.kind, delta, 0.0, epsilon))

    trace = PerturbationTrace(tuple(entries), clean[-1].copy(), acts[-1].copy())
    return acts, acts[-1], trace


# ---------------------------------------------------------------------------
# margin check
# ---------------------------------------------------------------------------

SQRT2 = float(np.sqrt(2.0))


def margin_check(y: np.ndarray, delta: float) -> str:
    """'safe' when no l2 perturbation of size ``delta`` can flip the argmax.

    Splitting the perturbation into a drop ``a`` on the leader and a rise
    ``b`` on the runner-up, ``a^2 + b^2 <= delta^2`` caps ``a + b`` at
    ``sqrt(2)*delta``; a score gap above that leaves the argmax unchanged.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.size < 2:
        raise ValueError("margin check needs at least two class scores")
    if not delta >= 0.0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if delta == 0.0:
        return "safe"
    order = np.argsort(-y)
    gap = y[order[0]] - y[order[1]]
    return "safe" if gap > SQRT2 * delta else "unsafe"


# ---------------------------------------------------------------------------
# per-layer perturbation bounds (executable lemmas)
# ---------------------------------------------------------------------------

_SLACK = 1e-9  # multiplicative float slack for bounds that hold with equality


@dataclass(frozen=True)
class BoundCheck:
    name: str
    measured: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.measured <= self.bound * (1.0 + _SLACK) + 1e-12


def relu_bound(x: np.ndarray, xh: np.ndarray) -> BoundCheck:
    """ReLU is 1-Lipschitz: the output gap never exceeds the input gap."""
    lhs = np.linalg.norm((_relu(x) - _relu(xh)).astype(np.float64).reshape(-1))
    rhs = np.linalg.norm((x - xh).astype(np.float64).reshape(-1))
    return BoundCheck("relu_lipschitz", float(lhs), float(rhs))


def maxpool_bound(x: np.ndarray, xh: np.ndarray, window: int, stride: int) -> BoundCheck:
    """Each pooled output moves at most the max-norm of its window's change."""
    wins = _pool_windows(x, window, stride).astype(np.float64)
    wins_h = _pool_windows(xh, window, stride).astype(np.float64)
    lhs = np.abs(wins.max(axis=-1) - wins_h.max(axis=-1))
    rhs = np.abs(wins - wins_h).max(axis=-1)
    worst = int(np.argmax(lhs - rhs))
    return BoundCheck("maxpool_window", float(lhs.reshape(-1)[worst]),
                      float(rhs.reshape(-1)[worst]))


def avgpool_bound(x: np.ndarray, xh: np.ndarray, window: int, stride: int) -> BoundCheck:
    """Averaging contracts: |mean gap| <= l1/n <= l2/sqrt(n) per window."""
    wins = _pool_windows(x, window, stride).astype(np.float64)
    wins_h = _pool_windows(xh, window, stride).astype(np.float64)
    n = wins.shape[-1]
    lhs = np.abs(wins.mean(axis=-1) - wins_h.mean(axis=-1))
    l1 = np.abs(wins - wins_h).sum(axis=-1) / n
    l2 = np.linalg.norm(wins - wins_h, axis=-1) / np.sqrt(n)
    worst = int(np.argmax(lhs - l1))
    if np.any(l1 > l2 * (1.0 + _SLACK) + 1e-12):
        bad = int(np.argmax(l1 - l2))
        return BoundCheck("avgpool_l1_vs_l2", float(l1.reshape(-1)[bad]),
                          float(l2.reshape(-1)[bad]))
    return BoundCheck("avgpool_window", float(lhs.reshape(-1)[worst]),
                      float(l1.reshape(-1)[worst]))


def matmul_bound(w: np.ndarray, wh: np.ndarray,
                 x: np.ndarray, xh: np.ndarray) -> BoundCheck:
    """Product perturbation: ||Wx - W'x'|| <= ||W||_F ||x-x'|| + ||x'|| ||W-W'||_F."""
    w64 = w.astype(np.float64)
    wh64 = wh.astype(np.float64)
    x64 = x.astype(np.float64).reshape(x.shape[0], -1)
    xh64 = xh.astype(np.float64).reshape(xh.shape[0], -1)
    lhs = np.linalg.norm(x64 @ w64.T - xh64 @ wh64.T)
    rhs = (
        np.linalg.norm(w64) * np.linalg.norm(x64 - xh64)
        + np.linalg.norm(xh64) * np.linalg.norm(w64 - wh64)
    )
    return BoundCheck("matmul_triangle", float(lhs), float(rhs))


def layer_lemma_checks(
    manifest: ModelManifest,
    weights: dict[str, tuple[Tensor, Tensor | None]],
    clean_inputs: list[np.ndarray],
    perturbed_inputs: list[np.ndarray],
    quantized: dict[str, np.ndarray] | None = None,
) -> list[BoundCheck]:
    """Evaluate the per-layer bounds on measured activation pairs.

    ``clean_inputs``/``perturbed_inputs`` hold each layer's input (clean and
    perturbed run); ``quantized`` maps fc layer names to their perturbed
    weight matrices.
    """
    checks = []
    for li, layer in enumerate(manifest.layers):
        x, xh = clean_inputs[li], perturbed_inputs[li]
        if layer.kind == "relu":
            checks.append(relu_bound(x, xh))
        elif layer.kind == "maxpool":
            window = layer.hp("window")
            checks.append(maxpool_bound(x, xh, window, layer.hp("stride", window)))
        elif layer.kind == "avgpool":
            window = layer.hp("window")
            checks.append(avgpool_bound(x, xh, window, layer.hp("stride", window)))
        elif layer.kind == "fc":
            w = weights[layer.name][0].data
            wh = quantized.get(layer.name, w) if quantized else w
            checks.append(matmul_bound(
                w, wh, x.reshape(x.shape[0], -1), xh.reshape(xh.shape[0], -1)))
    return checks
