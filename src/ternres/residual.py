"""Greedy per-block ternary residual stacking under an error tolerance.

A layer's weight tensor is unrolled, split into contiguous blocks, and each
block ternarized once. While the squared relative reconstruction error
``delta`` exceeds ``epsilon^2``, the block with the largest residual norm
receives one more ternary level fitted to its remaining residual. Every
appended level strictly shrinks the block's residual (the fitted level is
orthogonal to what it leaves behind), so ``delta`` decreases monotonically.

A converted layer is three block-major arrays (see ``QuantizedLayer``):
levels per block, one scale per level and one sign row per level.
``level_index`` is the one map from a level row to its block and depth;
``QuantizedLayer.depth_slices`` scatters every level into its depth's dense
slice with one assignment, and ``reconstruct`` adds those slices.

Block residuals are measured against the float32-accumulated reconstruction,
so the stored ``delta`` is exactly what a recomputation from the saved
levels yields.

The loop is batched without changing a bit of its result. A block's next
level depends only on that block's own residual, so it can be fitted ahead
of time: each block holds one precomputed candidate level, and whenever the
block picked next has none, ``ternarize_rows`` fits candidates for every
eligible block lacking one in a single call (the ragged tail block, if any,
as a one-row call). The row kernel does per row exactly the float
operations of the one-vector scan, and the candidate's residual norm is
summed like ``diff @ diff``, so candidates equal what the sequential loop
would fit on the spot. The pick comes off a heap keyed on ``(-error,
block)``, which is the sequential argmax with ties to the lowest index, and
``delta`` is still updated with the same expression, so the stop decisions,
trace rows and stored floats match the sequential greedy loop exactly.
"""

from __future__ import annotations

import csv
import heapq
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError
from .tensors import BlockView, Tensor
from .ternary import ternarize_rows
from .ternary import ternarize  # noqa: F401  (bench/workloads.py traces this name)

DEFAULT_R_MAX = 16


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    layer: str
    block: int
    e_k_before: float
    delta_after: float


def level_index(counts) -> tuple[np.ndarray, np.ndarray]:
    """Block and depth of every level row in the block-major layout.

    Row i is level ``depth[i]`` (0 for the base level) of block ``owner[i]``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    owner = np.repeat(np.arange(len(counts)), counts)
    depth = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    return owner, depth


@dataclass(frozen=True, eq=False)
class QuantizedLayer:
    """A converted layer, block-major with each block's base level first.

    ``counts`` (int32[K]) holds the levels per block, ``alphas`` (float32[L])
    one scale per level and ``signs`` (int8[L, min(N, size)]) one sign row
    per level; a ragged tail block's rows are zero past its length.
    """

    layer: str
    shape: tuple[int, ...]
    block_size: int
    counts: np.ndarray
    alphas: np.ndarray
    signs: np.ndarray
    delta: float
    epsilon_sq: float
    source_norm_sq: float
    exhausted: bool = False
    trace: tuple[TraceRow, ...] = field(default=(), repr=False)
    delta_sequence: tuple[float, ...] = field(default=(), repr=False)

    @property
    def num_weights(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))

    @property
    def num_blocks(self) -> int:
        return len(self.counts)

    @property
    def num_levels(self) -> int:
        return len(self.alphas)

    def levels_per_block(self) -> list[int]:
        return self.counts.tolist()

    def level_starts(self) -> np.ndarray:
        """Row of each block's base level in ``alphas`` and ``signs``."""
        return np.cumsum(self.counts) - self.counts

    def depth_slices(self) -> np.ndarray:
        """``(R, *shape)`` float32 per-depth weights: slice t holds alpha * signs
        of each block's level t, zero where a block has fewer than t+1 levels."""
        owner, depth = level_index(self.counts)
        blocked = np.zeros((int(self.counts.max(initial=0)), self.num_blocks,
                            self.signs.shape[1]), dtype=np.float32)
        blocked[depth, owner] = self.alphas[:, None] * self.signs
        flat = blocked.reshape(len(blocked), -1)[:, :self.num_weights]
        return flat.reshape((len(blocked),) + self.shape)


@dataclass(frozen=True)
class QuantizedModel:
    manifest_doc: dict
    layers: tuple[QuantizedLayer, ...]
    provenance: dict = field(default_factory=dict)

    def layer(self, name: str) -> QuantizedLayer:
        for l in self.layers:
            if l.layer == name:
                return l
        raise KeyError(name)

    @property
    def num_blocks(self) -> int:
        return sum(l.num_blocks for l in self.layers)

    @property
    def num_levels(self) -> int:
        return sum(l.num_levels for l in self.layers)


def ternary_residual(
    w: Tensor,
    block_size: int,
    epsilon: float | None = None,
    *,
    epsilon_sq: float | None = None,
    r_max: int = DEFAULT_R_MAX,
) -> QuantizedLayer:
    """Convert one layer to stacked ternary levels.

    ``epsilon`` is the un-squared relative error tolerance; the loop guard
    compares the squared relative error ``delta`` against ``epsilon**2``
    (pass ``epsilon_sq`` to give the squared value directly). ``r_max`` caps
    the levels per block; if the tolerance is still unmet once every block
    carrying error is capped, ConvergenceError reports the achieved delta.
    """
    if (epsilon is None) == (epsilon_sq is None):
        raise ValueError("give exactly one of epsilon or epsilon_sq")
    eps_sq = float(epsilon_sq) if epsilon_sq is not None else float(epsilon) ** 2
    if not (0.0 < eps_sq <= 1.0):
        raise ValueError(f"tolerance^2 must be in (0, 1], got {eps_sq}")
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    if w.size == 0:
        raise ValueError("cannot convert an empty tensor")

    flat = w.unrolled().astype(np.float64)
    total_sq = float(flat @ flat)
    full, tail = divmod(w.size, block_size)  # blocks of length N, then a ragged tail
    num_blocks = full + (tail > 0)
    width = min(block_size, w.size)

    # Block-major state, zero-padded to full width for the ragged tail.
    target = np.zeros((num_blocks, width))
    target.reshape(-1)[:w.size] = flat
    recons = np.zeros((num_blocks, width), dtype=np.float32)
    counts = np.zeros(num_blocks, dtype=np.int32)
    errs = np.zeros(num_blocks)
    # Levels past the base ones, in the order they were accepted.
    extra_blocks: list[int] = []
    extra_alphas: list[float] = []
    extra_signs: list[np.ndarray] = []

    # The candidate is the next level of each block, fitted to its current
    # residual; ``has_cand`` goes False once the block's state moves on.
    cand_alpha = np.zeros(num_blocks)
    cand_signs = np.zeros((num_blocks, width), dtype=np.int8)
    cand_recons = np.zeros((num_blocks, width), dtype=np.float32)
    cand_errs = np.zeros(num_blocks)
    has_cand = np.zeros(num_blocks, dtype=bool)

    def fit(ks: np.ndarray) -> None:
        """Fit candidates for blocks ``ks``, one kernel call per block length."""
        for part, n in ((ks[ks < full], block_size), (ks[ks >= full], tail)):
            if part.size == 0:
                continue
            recon = recons[part, :n]
            alpha, signs, _ = ternarize_rows(target[part, :n] - recon.astype(np.float64))
            new_recon = recon + alpha.astype(np.float32)[:, None] * signs.astype(np.float32)
            diff = target[part, :n] - new_recon.astype(np.float64)
            # Stacked 1xn @ nx1 products sum each row exactly as ``diff @ diff``.
            cand_errs[part] = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
            cand_alpha[part] = alpha
            cand_signs[part, :n] = signs
            cand_recons[part, :n] = new_recon
            has_cand[part] = True

    fit(np.arange(num_blocks))
    base_alphas, base_signs = cand_alpha.copy(), cand_signs.copy()
    recons[:], errs[:] = cand_recons, cand_errs
    counts[:], has_cand[:] = 1, False

    # An all-zero tensor keeps its alpha=0 base levels, delta 0 by convention.
    delta = float(np.sum(errs * errs)) / total_sq if total_sq > 0.0 else 0.0
    deltas = [delta]
    trace: list[TraceRow] = []
    exhausted = False
    iteration = 0

    # Eligible blocks (below r_max, residual left), largest error first and
    # ties to the lowest index: the pick of an argmax over ``errs``.
    in_heap = (counts < r_max) & (errs > 0.0)
    heap = [(-float(errs[k]), k) for k in np.flatnonzero(in_heap).tolist()]
    heapq.heapify(heap)

    while delta > eps_sq:
        if not heap:
            if np.any((counts >= r_max) & (errs > 0.0)):
                raise ConvergenceError(w.name, delta, eps_sq, r_max)
            exhausted = True  # every residual is exactly zero yet delta > eps^2
            break
        k = heap[0][1]
        if not has_cand[k]:
            fit(np.flatnonzero(in_heap & ~has_cand))
        if cand_alpha[k] == 0.0:  # residual below float32 range, cannot improve
            exhausted = True
            break
        e_before = float(errs[k])
        new_err = cand_errs[k]
        new_delta = (float(np.sum(errs * errs)) - errs[k] ** 2 + new_err ** 2) / total_sq
        if new_delta >= delta:  # float32 accumulation stalled
            exhausted = True
            break
        heapq.heappop(heap)
        iteration += 1
        extra_blocks.append(k)
        extra_alphas.append(cand_alpha[k])
        extra_signs.append(cand_signs[k].copy())
        recons[k] = cand_recons[k]
        errs[k] = cand_errs[k]
        counts[k] += 1
        has_cand[k] = False
        delta = new_delta
        deltas.append(delta)
        trace.append(TraceRow(iteration, w.name, k, e_before, delta))
        if counts[k] < r_max and errs[k] > 0.0:
            heapq.heappush(heap, (-float(errs[k]), k))
        else:
            in_heap[k] = False

    # A block's levels were accepted shallowest first, so a stable sort by
    # block gives the block-major order.
    owners = np.concatenate([np.arange(num_blocks), np.array(extra_blocks, dtype=int)])
    order = np.argsort(owners, kind="stable")
    alphas = np.concatenate([base_alphas, extra_alphas])[order].astype(np.float32)
    signs = np.concatenate(
        [base_signs, np.array(extra_signs, dtype=np.int8).reshape(-1, width)])[order]
    return QuantizedLayer(
        w.name, w.shape, block_size, counts, alphas, signs, delta, eps_sq, total_sq,
        exhausted=exhausted, trace=tuple(trace), delta_sequence=tuple(deltas),
    )


def reconstruct(layer: QuantizedLayer) -> Tensor:
    """Sum the ternary levels of every block back into the original shape.

    Adds the per-depth slices in float32, shallowest level first. (A
    ``sum(axis=0)`` would not keep that order: on a single weight numpy sums
    eight or more levels pairwise.)
    """
    slices = layer.depth_slices()
    acc = slices[0].copy()
    for level in slices[1:]:
        acc += level
    return Tensor(layer.layer, acc)


def layer_delta(w: Tensor, layer: QuantizedLayer) -> float:
    """Recompute ``||W - reconstruction||^2 / ||W||^2`` from the levels."""
    base = w.unrolled().astype(np.float64)
    diff = base - reconstruct(layer).unrolled().astype(np.float64)
    total_sq = float(base @ base)
    if total_sq == 0.0:
        return 0.0
    return float(diff @ diff) / total_sq


def block_sensitivity(w: Tensor, perturbed: Tensor, blocks: list[BlockView]) -> np.ndarray:
    """Per-block relative Frobenius error against the whole layer's norm.

    The squared entries sum to the layer's squared relative weight
    perturbation exactly (up to float accumulation).
    """
    if w.shape != perturbed.shape:
        raise ValueError("tensor shapes do not match")
    base = w.unrolled().astype(np.float64)
    other = perturbed.unrolled().astype(np.float64)
    norm = np.sqrt(base @ base)
    if norm == 0.0:
        raise ValueError("block sensitivity is undefined for a zero-norm layer")
    out = np.empty(len(blocks))
    for i, bv in enumerate(blocks):
        diff = base[bv.start:bv.stop] - other[bv.start:bv.stop]
        out[i] = np.sqrt(diff @ diff) / norm
    return out


def downgrade(
    model: QuantizedModel,
    *,
    keep_levels: int | None = None,
    target_factor: float | None = None,
) -> QuantizedModel:
    """Drop the least important residual levels until a level budget is met.

    Importance of a level is its energy share ``||alpha*s||^2 / ||W||^2`` of
    its layer. Only the deepest level of a block is removable at any moment
    (and never the base level); peeling deepest-first keeps the remaining
    stack identical to an earlier state of the conversion, so each removal
    raises the layer's delta by exactly the removed level's importance.
    Removal order is globally smallest-importance-first over that frontier,
    kept in a heap with one entry per block keyed ``(importance, layer,
    block)``. Returns a new model; the input model is untouched.
    """
    if (keep_levels is None) == (target_factor is None):
        raise ValueError("give exactly one of keep_levels or target_factor")
    base_blocks = model.num_blocks
    if target_factor is not None:
        keep_levels = int(np.floor(target_factor * base_blocks + 1e-9))
    if keep_levels < base_blocks:
        raise ValueError(
            f"budget of {keep_levels} levels is below the {base_blocks} base levels"
        )

    counts = [l.counts.tolist() for l in model.layers]
    deltas = [l.delta for l in model.layers]
    ends: list[list[int]] = []  # each block's deepest row
    importance: list[list[float]] = []
    heap = []
    for li, l in enumerate(model.layers):
        last = np.cumsum(l.counts) - 1
        ends.append(last.tolist())
        if l.source_norm_sq <= 0.0:
            importance.append([])
            continue
        nnz = np.count_nonzero(l.signs, axis=1)
        imp = l.alphas.astype(np.float64) ** 2 * nnz / l.source_norm_sq
        importance.append(imp.tolist())
        ks = np.flatnonzero(l.counts > 1)
        heap += zip(imp[last[ks]].tolist(), [li] * len(ks), ks.tolist())
    heapq.heapify(heap)

    total = model.num_levels
    while total > keep_levels and heap:
        imp, li, k = heapq.heappop(heap)
        counts[li][k] -= 1
        ends[li][k] -= 1
        deltas[li] += imp
        total -= 1
        if counts[li][k] > 1:
            heapq.heappush(heap, (importance[li][ends[li][k]], li, k))

    new_layers = []
    for li, l in enumerate(model.layers):
        owner, depth = level_index(l.counts)
        keep = depth < np.asarray(counts[li])[owner]
        new_layers.append(replace(
            l, counts=np.array(counts[li], dtype=np.int32), alphas=l.alphas[keep],
            signs=l.signs[keep], delta=deltas[li], trace=(), delta_sequence=(),
        ))
    provenance = dict(model.provenance)
    provenance["downgraded_to_levels"] = keep_levels
    return QuantizedModel(model.manifest_doc, tuple(new_layers), provenance)


def fixed_point_exponent(peak: float) -> int:
    """The smallest integer e with ``peak <= 127 * 2^e``, for ``peak > 0``.

    ``2^e`` is the step of the 8-bit dynamic fixed-point grid covering
    ``[-peak, peak]``.
    """
    e = int(np.ceil(np.log2(peak / 127.0)))
    while peak > 127.0 * 2.0 ** e:  # guard against log2 rounding
        e += 1
    while peak <= 127.0 * 2.0 ** (e - 1):
        e -= 1
    return e


def quantize_scales_8bit(
    model: QuantizedModel, weights: dict[str, Tensor]
) -> QuantizedModel:
    """Snap every scaling factor to dynamic fixed point with 8-bit mantissa.

    Per layer, a shared power-of-two step makes the largest alpha fit in 127
    units: ``alpha_hat = min(round(alpha / 2^e), 127) * 2^e``. A level whose
    alpha snaps to zero loses its signs. Deltas are recomputed from the
    modified levels against the source tensors. Layers whose scales are all
    zero pass through untouched.
    """
    new_layers = []
    for l in model.layers:
        amax = float(l.alphas.max(initial=0.0))
        if amax == 0.0:
            new_layers.append(l)
            continue
        step = 2.0 ** fixed_point_exponent(amax)
        q = np.minimum(np.round(l.alphas.astype(np.float64) / step), 127.0)
        alphas = (q * step).astype(np.float32)
        signs = np.where((alphas == 0.0)[:, None], np.int8(0), l.signs)
        probe = replace(l, alphas=alphas, signs=signs, trace=(), delta_sequence=())
        new_layers.append(replace(probe, delta=layer_delta(weights[l.layer], probe)))
    provenance = dict(model.provenance)
    provenance["scales_8bit"] = True
    return QuantizedModel(model.manifest_doc, tuple(new_layers), provenance)


def write_trace_csv(layers: list[QuantizedLayer], path) -> None:
    """Dump the greedy iteration log of one or more conversions."""
    with open(str(path), "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(["iteration", "layer", "block", "E_k_before", "delta_after"])
        for layer in layers:
            for row in layer.trace:
                writer.writerow([
                    row.iteration, row.layer, row.block,
                    f"{row.e_k_before:.17g}", f"{row.delta_after:.17g}",
                ])
