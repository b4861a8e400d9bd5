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

Everything computes in float32 (the toolkit's native precision) while trace
norms and ratios accumulate in float64. Work arrays stay near
``CHUNK_BYTES``: a convolution builds its patch matrices and its products a
batch chunk at a time. A paired run puts its clean side, the FP32 pass and
then every activation norm, on one helper thread while the calling thread
runs the quantized side: activation quantization, the stacked products, the
decomposition checks and the weight norms. Every stacked product is a set
of batch chunks that the helper also claims once it reaches that layer (an
fc product is one chunk: splitting its rows can change its bits); the
thread that computes a chunk writes its dense slot plus bias into the layer
output and adds its two sums of squares (float32 dot products) to the
layer's check, so the full stacked output is never built. Every trace norm
writes a float64 copy of its operand and sums the squares with one BLAS
ddot, the bits of ``np.linalg.norm`` of that copy. With activation
quantization, a layer whose input is a relu or maxpool over a quantized
input skips the re-quantization, which would change no bit. Errors come in
the order of a serial pass: the clean pass's error, then the quantized
side's first error, a failed check included.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from collections import deque
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DecompositionError
from .manifest import PARAMETRIC_KINDS, LayerDecl, ModelManifest, _check_weight_shape
from .residual import QuantizedLayer, QuantizedModel, reconstruct
from .residual import level_index, snap_8bit
from .tensors import Tensor

DECOMPOSITION_RTOL = 1e-5
CHUNK_BYTES = 4 << 20  # batch-chunked work arrays stay near this size


def quantize_activations(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Round ``x`` onto an 8-bit grid whose step covers the value range.

    Dynamic fixed point: returns the rounded values and the exponent e of the
    power-of-two step, the smallest integer with ``max|x| <= 127 * 2^e``, so
    every element is off by at most ``2^(e-1)``. The grid is ``snap_8bit``'s,
    which the scaling factors use too: below a peak of ``127 * 2^-149`` the
    exponent stops at -149 and such inputs come back as they are, and a peak
    above ``127 * 2^121`` raises ``ValueError``, as a non-finite one does.
    """
    x = np.asarray(x, dtype=np.float32)
    peak = float(max(x.max(), -x.min())) if x.size else 0.0
    if not math.isfinite(peak):
        raise ValueError("cannot quantize non-finite activations")
    if peak == 0.0:
        return x.copy(), 0
    return snap_8bit(x, peak)


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


def _batch_step(w: np.ndarray, out: tuple[int, ...]) -> int:
    """Samples per batch chunk of a product with weight ``w`` and one-sample
    output shape ``out``: its patch matrices (fan-in x output positions) or
    its products, whichever are larger, hold about ``CHUNK_BYTES``."""
    sample_bytes = max(math.prod(w.shape[1:]), w.shape[0]) * math.prod(out[1:]) * w.itemsize
    return max(1, CHUNK_BYTES // max(1, sample_bytes))


def _conv2d(w: np.ndarray, b: np.ndarray | None, x: np.ndarray,
            stride: int, pad: int) -> np.ndarray:
    """im2col convolution: the flat kernel times each image's patch matrix,
    built a batch chunk at a time."""
    if x.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d expects (B,{w.shape[1]},H,W), got {x.shape}")
    c_out, c_in, kh, kw = w.shape
    if pad:  # np.pad's own overhead costs a small chunk more than the copy
        padded = np.zeros(x.shape[:2] + (x.shape[2] + 2 * pad, x.shape[3] + 2 * pad), x.dtype)
        padded[:, :, pad:-pad, pad:-pad] = x
        x = padded
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
    step = _batch_step(w, (c_out, oh, ow))
    y = np.empty((x.shape[0], c_out, cols), dtype=np.result_type(w, x))
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
    """Float32 window means: the taps added to 0 in window order, then
    divided once; under 8 taps, numpy's order and bits for ``mean``."""
    taps = _pool_taps(x, window, stride)
    out = np.add(taps[0], np.float32(0.0), dtype=np.float32)  # a new array; -0.0 -> +0.0
    for tap in taps[1:]:
        out += tap
    return np.divide(out, np.float32(len(taps)), out=out)


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


def _sq_norm(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """``||a - b||^2`` (or ``||a||^2``) as ``np.linalg.norm`` forms it for
    ``(a - b).astype(np.float64)``: the difference is rounded in float32 and
    written to a float64 array in ``a``'s shape, whose squares one ddot sums."""
    out = np.empty(a.shape, dtype=np.float64)
    if b is None:
        np.copyto(out, a)
    else:
        np.subtract(a, b, out=out, dtype=np.float32)
    flat = out.reshape(-1)
    return float(np.dot(flat, flat))


def _finish_stacked(y: np.ndarray, s: int, out: np.ndarray,
                    bias: np.ndarray | None) -> tuple[float, float]:
    """Finish a batch chunk ``out`` of a stacked product, which holds samples
    ``s`` on: write its dense slot plus ``bias`` into ``y``, and return the
    check's two sums of squares for it, of the dense slot minus its level
    slots summed in depth order (the bias cancels), and of the dense result:
    float32 dot products, taken again in float64 where float32 squares
    overflow or lose terms (a sum not finite, or the second below 2^-60)."""
    n, c_out = out.shape[0], y.shape[1]
    dense = y[s:s + n]
    slots = out.reshape((n, -1, c_out) + dense.shape[2:])
    if bias is None:
        np.copyto(dense, slots[:, 0])
    else:
        np.add(slots[:, 0], bias.reshape((c_out,) + (1,) * (dense.ndim - 2)), out=dense)
    gap = slots[:, 1].copy()
    for t in range(2, slots.shape[1]):
        gap += slots[:, t]
    np.subtract(slots[:, 0], gap, out=gap)
    with np.errstate(over="ignore"):  # an overflow takes the float64 path
        err, ref = (float(np.dot(v, v)) for v in (gap.reshape(-1), dense.reshape(-1)))
    if not (math.isfinite(err) and math.isfinite(ref)) or ref < 2.0 ** -60:
        err, ref = _sq_norm(gap), _sq_norm(dense)
    return err, ref


def _shared(pool: ThreadPoolExecutor, tasks: list[Callable[[], object]]) -> list:
    """Run ``tasks`` on the calling thread and the pool's one helper; returns
    their results in order.

    The calling thread queues one drain on the helper, then both threads
    claim tasks in order. Once none is left, the calling thread waits for the
    helper only if the helper claimed one, and raises the helper's error if
    it had one. The queued drain then holds no task, so a helper that has not
    reached it yet keeps none of their work alive.
    """
    todo = deque(enumerate(tasks))
    results = [None] * len(tasks)
    lock = threading.Lock()
    helper_claimed = False

    def drain(helper: bool) -> None:
        nonlocal helper_claimed
        while True:
            with lock:
                if not todo:
                    return
                i, task = todo.popleft()
                helper_claimed |= helper
            results[i] = task()

    queued = pool.submit(drain, True)
    try:
        drain(False)
    finally:
        with lock:
            todo.clear()
    if helper_claimed:
        queued.result()
    return results


def _apply_quantized(layer: LayerDecl, qlayer: QuantizedLayer, dense_w: np.ndarray,
                     bias: np.ndarray | None, x: np.ndarray,
                     pool: ThreadPoolExecutor) -> np.ndarray:
    """Dense pass with the reconstructed weights ``dense_w``, checked against
    every level's product; both come from one stacked product.

    The dense weights and R depth slots are stacked along the output axis
    and run as one ``(1+R)*c_out``-output product: slot 0 holds the dense
    weights, slot 1+t every block's level t (zero where a block has fewer
    levels). Each output is its own product, so the two sides stay
    independent; bn_scale, which scales each channel by its own weight,
    sees its input repeated once per slot. Both threads claim the product's
    batch chunks (``_shared``) and finish each chunk they compute
    (``_finish_stacked``), so the full stacked output is never built; an fc
    product is one chunk, as splitting its rows can change its bits.
    Returns the dense result, the first ``c_out`` outputs plus the bias.
    Raises ``DecompositionError`` when the summed level products deviate
    from the dense slot by more than ``DECOMPOSITION_RTOL`` times the norm of
    the dense result; the bias, on both sides, cancels from the gap.
    """
    depths = int(qlayer.counts.max(initial=1))  # slot 1 exists even with no levels
    owner, depth = level_index(qlayer.counts)
    blocked = np.zeros((1 + depths, qlayer.num_blocks, qlayer.signs.shape[1]),
                       dtype=np.float32)
    blocked[1 + depth, owner] = qlayer.alphas[:, None] * qlayer.signs
    stacked = blocked.reshape(1 + depths, -1)[:, :dense_w.size]
    stacked[0] = dense_w.reshape(-1)
    stacked = stacked.reshape((-1,) + dense_w.shape[1:])
    if layer.kind == "bn_scale":
        x = np.concatenate([x] * (1 + depths), axis=1)
    shape = apply_layer(layer, stacked, None, x[:0]).shape
    y = np.empty((len(x), dense_w.shape[0]) + shape[2:], dtype=np.float32)
    step = max(1, len(x)) if layer.kind == "fc" else _batch_step(stacked, shape[1:])

    def chunk(s: int) -> tuple[float, float]:
        return _finish_stacked(y, s, apply_layer(layer, stacked, None, x[s:s + step]), bias)

    sums = _shared(pool, [partial(chunk, s) for s in range(0, len(x), step)])
    rel = _ratio(math.sqrt(sum(e for e, _ in sums)), math.sqrt(sum(r for _, r in sums)))
    if rel > DECOMPOSITION_RTOL:
        raise DecompositionError(
            f"layer {layer.name!r}: level-decomposed accumulation deviates from "
            f"the dense reconstruction by {rel:.3g} relative"
        )
    return y


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


def _helper_layer_norms(clean_f: Future, li: int, out: np.ndarray) -> tuple[float, float]:
    """``||clean_li||`` and ``||clean_li - out||`` for layer ``li``."""
    clean = clean_f.result()[li]
    return math.sqrt(_sq_norm(clean)), math.sqrt(_sq_norm(clean, out))


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
    applies to every layer input including the network input. The output
    of a relu or maxpool over a quantized input is already on that input's
    grid, which a re-quantization leaves bit for bit, so the next layer
    takes it as it is, with a gap of exactly 0.

    The clean side runs on one helper thread while the calling thread runs
    the quantized side; numpy releases the GIL in the products, copies and
    dot products both sides spend their time in. The helper runs
    ``forward`` and then every activation norm, a layer's input gap ahead
    of the previous layer's norms; the calling thread keeps activation
    quantization, the stacked products, the decomposition checks and the
    two weight norms of epsilon. When the helper reaches a quantized layer
    whose stacked product still has batch chunks open, it computes and
    checks those too; the calling thread waits only for chunks the helper
    has started, and raises the error of a chunk that failed there. The
    helper is shut down before this returns. A manifest with no layers or a
    quantized layer that names no parametric layer of ``manifest`` raises
    ``ValueError`` first; a model may leave layers out. Errors then come in
    the order of a serial pass: the clean pass's error wins, then the
    quantized side's first error, a failed check included.
    """
    if not manifest.layers:
        raise ValueError("the manifest has no layers")
    cur = _as_batch(x)
    qlayers = {l.layer: l for l in qmodel.layers}
    parametric = {l.name for l in manifest.layers if l.weight_ref is not None}
    stray = [name for name in qlayers if name not in parametric]
    if stray:
        raise ValueError("quantized layers name no parametric manifest layer: "
                         + ", ".join(map(repr, stray)))
    pool = ThreadPoolExecutor(max_workers=1)
    # The one worker runs its tasks in order, so a layer's norms find the clean pass done.
    clean_f = pool.submit(forward, manifest, weights, cur)
    try:
        input_sq = pool.submit(_sq_norm, cur) if act_quant else None
        gaps, layer_norms, epsilons, acts = [], [], [], []
        on_grid = False  # cur is the output of a relu or maxpool over a quantized input
        for li, layer in enumerate(manifest.layers):
            x_in = cur
            if act_quant and not on_grid:
                x_in, _ = quantize_activations(cur)
                gaps.append(pool.submit(_sq_norm, cur, x_in))
            else:
                gaps.append(None)
            if li:  # layer li-1's norms go after the gap task, which frees x_in sooner
                layer_norms.append(pool.submit(_helper_layer_norms, clean_f, li - 1, cur))
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
                cur = _apply_quantized(layer, qlayer, dense_w, b, x_in, pool)
                epsilon = _ratio(math.sqrt(_sq_norm(w, dense_w)), math.sqrt(_sq_norm(w)))
            else:
                cur = apply_layer(layer, w, b, x_in)
            # relu and maxpool only pick or zero their input's elements, so
            # their output stays on the input's 8-bit grid.
            on_grid = act_quant and layer.kind in ("relu", "maxpool")
            acts.append(cur)
            epsilons.append(epsilon)
        layer_norms.append(pool.submit(_helper_layer_norms, clean_f, len(acts) - 1, cur))

        # ref_norm is the norm of the clean activation handed to the next
        # layer, the input's before layer 0; gamma of entry li is the
        # quantization error of the activation handed to layer li over it.
        ref_norm = math.sqrt(input_sq.result()) if act_quant else 0.0
        entries = [TraceEntry(0, "input", "input", 0.0, 0.0, 0.0)]
        for li, layer in enumerate(manifest.layers):
            if act_quant:
                gap = 0.0 if gaps[li] is None else math.sqrt(gaps[li].result())
                entries[li] = replace(entries[li], gamma=_ratio(gap, ref_norm))
            ref_norm, gap = layer_norms[li].result()
            entries.append(TraceEntry(li + 1, layer.name, layer.kind, _ratio(gap, ref_norm),
                                      0.0, epsilons[li]))
    except BaseException:
        # Raise what a serial pass would have: the clean pass ran first. A
        # weight the reference pass rejects explains the rest.
        error = clean_f.exception()
        if error is not None:
            raise error
        raise
    finally:
        pool.shutdown(cancel_futures=True)
    trace = PerturbationTrace(tuple(entries), clean_f.result()[-1].copy(), acts[-1].copy())
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
