"""Greedy per-block ternary residual stacking under an error tolerance.

A layer's weight tensor is unrolled, split into contiguous blocks, and each
block ternarized once. While the squared relative reconstruction error
``delta`` exceeds ``epsilon^2``, the block with the largest residual norm
receives one more ternary level fitted to its remaining residual. Every
appended level strictly shrinks the block's residual (the fitted level is
orthogonal to what it leaves behind), so ``delta`` decreases monotonically.

Block residuals are measured against the float32-accumulated reconstruction,
so the stored ``delta`` is exactly what a recomputation from the saved
stacks yields.

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
from .tensors import BlockView, Tensor, partition_blocks
from .ternary import TernaryLevel, ternarize_rows
from .ternary import ternarize  # noqa: F401  (bench/workloads.py traces this name)

DEFAULT_R_MAX = 16


@dataclass(frozen=True)
class BlockStack:
    """Ordered ternary levels for one block: level 1 base, the rest residuals."""

    block: BlockView
    levels: tuple[TernaryLevel, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a converted block has at least one level")
        for level in self.levels:
            if level.signs.size != self.block.length:
                raise ValueError("level length does not match block length")

    def reconstruct(self) -> np.ndarray:
        """Float32 accumulation of alpha_t * signs_t over the levels."""
        acc = np.zeros(self.block.length, dtype=np.float32)
        for level in self.levels:
            acc += level.dense()
        return acc


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    layer: str
    block: int
    e_k_before: float
    delta_after: float


@dataclass(frozen=True)
class QuantizedLayer:
    layer: str
    shape: tuple[int, ...]
    block_size: int
    stacks: tuple[BlockStack, ...]
    delta: float
    epsilon_sq: float
    source_norm_sq: float
    exhausted: bool = False
    trace: tuple[TraceRow, ...] = field(default=(), repr=False, compare=False)
    delta_sequence: tuple[float, ...] = field(default=(), repr=False, compare=False)

    @property
    def num_weights(self) -> int:
        return sum(s.block.length for s in self.stacks)

    @property
    def num_blocks(self) -> int:
        return len(self.stacks)

    @property
    def num_levels(self) -> int:
        return sum(len(s.levels) for s in self.stacks)

    def levels_per_block(self) -> list[int]:
        return [len(s.levels) for s in self.stacks]


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
    if w.size == 0:
        raise ValueError("cannot convert an empty tensor")

    flat = w.unrolled().astype(np.float64)
    blocks = partition_blocks(w, block_size)
    total_sq = float(flat @ flat)
    num_blocks = len(blocks)
    full = w.size // block_size  # blocks of length N; a ragged tail follows
    tail = w.size - full * block_size
    width = blocks[0].length  # N, or the whole tensor when it is shorter

    # Block-major state, zero-padded to full width for the ragged tail.
    target = np.zeros((num_blocks, width))
    target.reshape(-1)[:w.size] = flat
    recons = np.zeros((num_blocks, width), dtype=np.float32)
    counts = np.zeros(num_blocks, dtype=np.int64)
    errs = np.zeros(num_blocks)
    levels: list[list[TernaryLevel]] = [[] for _ in blocks]

    # The candidate is the next level of each block, fitted to its current
    # residual; ``has_cand`` goes False once the block's state moves on.
    cand_alpha = np.zeros(num_blocks)
    cand_threshold = np.zeros(num_blocks)
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
            alpha, signs, threshold = ternarize_rows(
                target[part, :n] - recon.astype(np.float64))
            new_recon = recon + alpha.astype(np.float32)[:, None] * signs.astype(np.float32)
            diff = target[part, :n] - new_recon.astype(np.float64)
            # Stacked 1xn @ nx1 products sum each row exactly as ``diff @ diff``.
            cand_errs[part] = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
            cand_alpha[part] = alpha
            cand_threshold[part] = threshold
            cand_signs[part, :n] = signs
            cand_recons[part, :n] = new_recon
            has_cand[part] = True

    def accept(k: int) -> None:
        n = blocks[k].length
        levels[k].append(TernaryLevel(
            float(cand_alpha[k]), cand_signs[k, :n].copy(), float(cand_threshold[k])))
        recons[k] = cand_recons[k]
        errs[k] = cand_errs[k]
        counts[k] += 1
        has_cand[k] = False

    fit(np.arange(num_blocks))
    for k in range(num_blocks):
        accept(k)

    if total_sq == 0.0:
        # All-zero tensor: one alpha=0 level per block, delta 0 by convention.
        stacks = tuple(BlockStack(bv, tuple(lv)) for bv, lv in zip(blocks, levels))
        return QuantizedLayer(w.name, w.shape, block_size, stacks, 0.0, eps_sq,
                              0.0, delta_sequence=(0.0,))

    delta = float(np.sum(errs * errs)) / total_sq
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
        accept(k)
        delta = new_delta
        deltas.append(delta)
        trace.append(TraceRow(iteration, w.name, k, e_before, delta))
        if counts[k] < r_max and errs[k] > 0.0:
            heapq.heappush(heap, (-float(errs[k]), k))
        else:
            in_heap[k] = False

    stacks = tuple(BlockStack(bv, tuple(lv)) for bv, lv in zip(blocks, levels))
    return QuantizedLayer(
        w.name, w.shape, block_size, stacks, delta, eps_sq, total_sq,
        exhausted=exhausted, trace=tuple(trace), delta_sequence=tuple(deltas),
    )


def reconstruct(layer: QuantizedLayer) -> Tensor:
    """Sum the ternary levels of every block back into the original shape."""
    flat = np.empty(layer.num_weights, dtype=np.float32)
    for stack in layer.stacks:
        bv = stack.block
        flat[bv.start:bv.stop] = stack.reconstruct()
    return Tensor(layer.layer, flat.reshape(layer.shape))


def layer_delta(w: Tensor, layer: QuantizedLayer) -> float:
    """Recompute ``||W - reconstruction||^2 / ||W||^2`` from the stacks."""
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


def _level_mass(level: TernaryLevel) -> float:
    """Squared l2 norm of alpha * signs."""
    return float(level.alpha) ** 2 * level.nnz


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
    Removal order is globally smallest-importance-first over that frontier.
    Returns a new model; the input model is untouched.
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

    stacks: list[list[list[TernaryLevel]]] = [
        [list(s.levels) for s in l.stacks] for l in model.layers
    ]
    deltas = [l.delta for l in model.layers]

    total = model.num_levels
    while total > keep_levels:
        best = None
        for li, l in enumerate(model.layers):
            if l.source_norm_sq <= 0.0:
                continue
            for k, level_list in enumerate(stacks[li]):
                if len(level_list) <= 1:
                    continue
                imp = _level_mass(level_list[-1]) / l.source_norm_sq
                key = (imp, li, k)
                if best is None or key < best[0]:
                    best = (key, li, k)
        if best is None:
            break  # nothing but base levels left
        (imp, _, _), li, k = best
        stacks[li][k].pop()
        deltas[li] += imp
        total -= 1

    new_layers = []
    for li, l in enumerate(model.layers):
        new_stacks = tuple(
            BlockStack(s.block, tuple(levels))
            for s, levels in zip(l.stacks, stacks[li])
        )
        new_layers.append(replace(
            l, stacks=new_stacks, delta=deltas[li], trace=(), delta_sequence=(),
        ))
    provenance = dict(model.provenance)
    provenance["downgraded_to_levels"] = keep_levels
    return QuantizedModel(model.manifest_doc, tuple(new_layers), provenance)


def quantize_scales_8bit(
    model: QuantizedModel, weights: dict[str, Tensor]
) -> QuantizedModel:
    """Snap every scaling factor to dynamic fixed point with 8-bit mantissa.

    Per layer, a shared power-of-two step makes the largest alpha fit in 127
    units: ``alpha_hat = min(round(alpha / 2^e), 127) * 2^e``. Deltas are
    recomputed from the modified stacks against the source tensors. Layers
    whose scales are all zero pass through untouched.
    """
    new_layers = []
    for l in model.layers:
        alphas = [lvl.alpha for s in l.stacks for lvl in s.levels]
        amax = max(alphas) if alphas else 0.0
        if amax == 0.0:
            new_layers.append(l)
            continue
        e = int(np.ceil(np.log2(amax / 127.0)))
        while amax > 127.0 * 2.0 ** e:  # guard against log2 rounding
            e += 1
        while amax <= 127.0 * 2.0 ** (e - 1):
            e -= 1
        step = 2.0 ** e
        new_stacks = []
        for s in l.stacks:
            new_levels = []
            for lvl in s.levels:
                if lvl.alpha == 0.0:
                    new_levels.append(lvl)
                    continue
                q = min(round(lvl.alpha / step), 127)
                a_hat = float(np.float32(q * step))
                if a_hat == 0.0:
                    new_levels.append(TernaryLevel(
                        0.0, np.zeros_like(lvl.signs), lvl.threshold))
                else:
                    new_levels.append(replace(lvl, alpha=a_hat))
            new_stacks.append(BlockStack(s.block, tuple(new_levels)))
        new_stacks = tuple(new_stacks)
        probe = replace(l, stacks=new_stacks, trace=(), delta_sequence=())
        delta = layer_delta(weights[l.layer], probe)
        new_layers.append(replace(probe, delta=delta))
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
