"""Size, capacity, multiplication and power-performance accounting.

All formulas take the 8-8 representation (8-bit activations, 8-bit weights)
as the baseline and assume 8-bit storage per scaling factor. Measured
numbers are always recomputed from an actual converted model rather than
assumed from its settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .residual import QuantizedModel
from .tensors import block_lengths

DEFAULT_X = 5.5  # estimated 8-2 over 8-8 power-performance gain at N=64
DEFAULT_C_RATIO = 5.0  # cost of one 8-8 op in units of one 8-2 op


def table2_stats(n: int, k: int, residuals) -> tuple[float, int, int]:
    """(model_size_bits, capacity, num_scaling_factors) for one weight vector.

    ``n`` weights split into ``k`` blocks, block i carrying ``residuals[i]``
    residual levels on top of its base ternary level. Size charges 8 bits
    per scaling factor and 2 bits per weight per level; capacity counts the
    distinct representable values for generic scaling factors.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    residuals = list(residuals)
    if len(residuals) != k:
        raise ValueError(f"expected {k} residual counts, got {len(residuals)}")
    if any(r < 0 for r in residuals):
        raise ValueError("residual counts must be >= 0")
    total_levels = sum(r + 1 for r in residuals)
    size_bits = (8 + 2 * n / k) * total_levels
    capacity = sum(3 ** (r + 1) for r in residuals) - k + 1
    return size_bits, capacity, total_levels


def mult_reduction(block_size: int, blocks_factor: float) -> float:
    """How many high-precision multiplications one level-block replaces.

    8-8 spends one multiply per weight; ternary residual spends one per
    level-block, i.e. ``blocks_factor`` per N weights.
    """
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    return block_size / blocks_factor


def size_reduction_vs_88(block_size: int, blocks_factor: float) -> float:
    """Model-size ratio of 8-bit weights over stacked ternary levels.

    8-8 stores 8 bits per weight; each ternary level stores 2 bits per
    weight plus an 8-bit scaling factor per N weights.
    """
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    return 8.0 / (blocks_factor * (2.0 + 8.0 / block_size))


def power_perf_gain(x: float, compute_factor: float, block_size: int) -> float:
    """Estimated power-performance gain over 8-8: X / (C * (X/N + 1))."""
    if x <= 0:
        raise ValueError("x must be positive")
    if compute_factor < 1:
        raise ValueError("compute factor must be >= 1")
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    return x / (compute_factor * (x / block_size + 1.0))


def throughput_gains(c_ratio: float, block_size: int, level_factor: float) -> tuple[float, float]:
    """(compute-bound, bandwidth-bound) throughput gains over 8-8.

    ``c_ratio`` is the cost of an 8-8 op in 8-2 ops; ``level_factor`` is the
    average number of levels per block (r+1).
    """
    if c_ratio <= 1:
        raise ValueError("c_ratio must exceed 1")
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    if level_factor < 1:
        raise ValueError("level factor must be >= 1")
    pi_c = c_ratio / (level_factor * (c_ratio / block_size + 1.0))
    pi_m = 4.0 / (level_factor * (1.0 / block_size + 1.0))
    return pi_c, pi_m


@dataclass(frozen=True)
class LayerCost:
    name: str
    num_weights: int
    block_size: int
    num_blocks: int
    num_levels: int
    num_scaling_factors: int
    blocks_factor: float
    model_size_bits: int
    capacity: int
    delta: float
    mult_reduction_vs_88: float
    size_reduction_vs_88: float
    power_perf_gain: float
    pi_c: float
    pi_m: float


@dataclass(frozen=True)
class CostReport:
    layers: tuple[LayerCost, ...]
    total_weights: int
    total_blocks: int
    total_levels: int
    num_scaling_factors: int
    blocks_factor: float
    compute_factor_weighted: float | None
    model_size_bits: int
    capacity: int
    mult_reduction_vs_88: float
    size_reduction_vs_88: float
    power_perf_gain: float
    pi_c: float
    pi_m: float
    x: float = DEFAULT_X
    c_ratio: float = DEFAULT_C_RATIO

    def to_dict(self) -> dict:
        return {
            "totals": {
                "weights": self.total_weights,
                "blocks": self.total_blocks,
                "levels": self.total_levels,
                "scaling_factors": self.num_scaling_factors,
                "blocks_factor": self.blocks_factor,
                "compute_factor_weighted": self.compute_factor_weighted,
                "model_size_bits": self.model_size_bits,
                "capacity": self.capacity,
                "mult_reduction_vs_88": self.mult_reduction_vs_88,
                "size_reduction_vs_88": self.size_reduction_vs_88,
                "power_perf_gain": self.power_perf_gain,
                "pi_c": self.pi_c,
                "pi_m": self.pi_m,
                "x": self.x,
                "c_ratio": self.c_ratio,
            },
            "layers": [
                {
                    "name": l.name,
                    "weights": l.num_weights,
                    "N": l.block_size,
                    "blocks": l.num_blocks,
                    "levels": l.num_levels,
                    "scaling_factors": l.num_scaling_factors,
                    "blocks_factor": l.blocks_factor,
                    "model_size_bits": l.model_size_bits,
                    "capacity": l.capacity,
                    "delta": l.delta,
                    "mult_reduction_vs_88": l.mult_reduction_vs_88,
                    "size_reduction_vs_88": l.size_reduction_vs_88,
                    "power_perf_gain": l.power_perf_gain,
                    "pi_c": l.pi_c,
                    "pi_m": l.pi_m,
                }
                for l in self.layers
            ],
        }

    def to_text(self) -> str:
        headers = ["layer", "weights", "N", "blocks", "levels", "factor",
                   "size_bits", "#alpha", "mult_red", "size_red", "delta"]
        rows = [[
            l.name, str(l.num_weights), str(l.block_size), str(l.num_blocks),
            str(l.num_levels), f"{l.blocks_factor:.3f}", str(l.model_size_bits),
            str(l.num_scaling_factors), f"{l.mult_reduction_vs_88:.2f}",
            f"{l.size_reduction_vs_88:.2f}", f"{l.delta:.3e}",
        ] for l in self.layers]
        rows.append([
            "TOTAL", str(self.total_weights), "-", str(self.total_blocks),
            str(self.total_levels), f"{self.blocks_factor:.3f}",
            str(self.model_size_bits), str(self.num_scaling_factors),
            f"{self.mult_reduction_vs_88:.2f}", f"{self.size_reduction_vs_88:.2f}", "-",
        ])
        widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        for r in rows:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)))
        lines.append("")
        lines.append(
            f"power-perf gain vs 8-8 (X={self.x}, C={self.blocks_factor:.3f}): "
            f"{self.power_perf_gain:.3f}"
        )
        lines.append(
            f"throughput gains (c={self.c_ratio}): pi_c={self.pi_c:.3f}, "
            f"pi_m={self.pi_m:.3f}"
        )
        if self.compute_factor_weighted is not None:
            lines.append(
                f"FLOP-weighted compute factor: {self.compute_factor_weighted:.3f}"
            )
        return "\n".join(lines)


def measured_layer_cost(layer, x: float = DEFAULT_X,
                        c_ratio: float = DEFAULT_C_RATIO) -> LayerCost:
    """Exact size/capacity bookkeeping for one converted layer.

    Unlike the closed formula, the remainder block is charged its true
    length (2 bits per actual weight per level, 8 bits per alpha).
    """
    counts = layer.counts.astype(np.int64)
    size_bits = int(counts @ (8 + 2 * block_lengths(layer.num_weights, layer.block_size)))
    # 3**count overflows int64 past 40 levels, so capacity sums Python ints,
    # one term per distinct depth.
    depths, blocks = np.unique(counts, return_counts=True)
    capacity = 1 - layer.num_blocks + sum(
        int(b) * 3 ** int(d) for d, b in zip(depths, blocks))
    blocks_factor = layer.num_levels / layer.num_blocks
    num_weights = layer.num_weights
    pi_c, pi_m = throughput_gains(c_ratio, layer.block_size,
                                  max(blocks_factor, 1.0))
    return LayerCost(
        name=layer.layer,
        num_weights=num_weights,
        block_size=layer.block_size,
        num_blocks=layer.num_blocks,
        num_levels=layer.num_levels,
        num_scaling_factors=layer.num_levels,
        blocks_factor=blocks_factor,
        model_size_bits=size_bits,
        capacity=capacity,
        delta=layer.delta,
        mult_reduction_vs_88=num_weights / layer.num_levels,
        size_reduction_vs_88=8.0 * num_weights / size_bits,
        power_perf_gain=power_perf_gain(x, max(blocks_factor, 1.0),
                                        layer.block_size),
        pi_c=pi_c,
        pi_m=pi_m,
    )


def cost_report(
    model: QuantizedModel,
    x: float = DEFAULT_X,
    c_ratio: float = DEFAULT_C_RATIO,
    flops: dict[str, int] | None = None,
) -> CostReport:
    """Aggregate measured per-layer costs for a converted model.

    ``flops`` (multiply counts per parametric layer) enables the
    FLOP-weighted compute factor, which weights each layer's level inflation
    by its share of the network's multiplies; the unweighted blocks factor
    counts levels over blocks regardless of where they sit.
    """
    layer_costs = tuple(measured_layer_cost(l, x, c_ratio) for l in model.layers)
    total_weights = sum(l.num_weights for l in layer_costs)
    total_blocks = sum(l.num_blocks for l in layer_costs)
    total_levels = sum(l.num_levels for l in layer_costs)
    size_bits = sum(l.model_size_bits for l in layer_costs)
    capacity = sum(l.capacity for l in layer_costs)
    blocks_factor = total_levels / total_blocks if total_blocks else 1.0

    weighted = None
    if flops:
        num = 0.0
        den = 0.0
        for cost in layer_costs:
            f = flops.get(cost.name)
            if f:
                num += f * cost.blocks_factor
                den += f
        weighted = num / den if den > 0 else None

    # A representative block size for the ratio formulas: weights per level
    # follows directly from the measurement and degenerates to N for uniform
    # blocking.
    n_per_block = max(int(round(total_weights / total_blocks)), 1) if total_blocks else 1
    compute_factor = max(blocks_factor, 1.0)
    pi_c, pi_m = throughput_gains(c_ratio, n_per_block, compute_factor)
    return CostReport(
        layers=layer_costs,
        total_weights=total_weights,
        total_blocks=total_blocks,
        total_levels=total_levels,
        num_scaling_factors=total_levels,
        blocks_factor=blocks_factor,
        compute_factor_weighted=weighted,
        model_size_bits=size_bits,
        capacity=capacity,
        mult_reduction_vs_88=total_weights / total_levels if total_levels else np.nan,
        size_reduction_vs_88=8.0 * total_weights / size_bits if size_bits else np.nan,
        power_perf_gain=power_perf_gain(x, compute_factor, n_per_block),
        pi_c=pi_c,
        pi_m=pi_m,
        x=x,
        c_ratio=c_ratio,
    )


def enumerate_capacity(alphas_per_block: list[list[float]]) -> int:
    """Count distinct values representable by summed ternary levels.

    Brute-force oracle for tiny configurations: every block contributes the
    sum of ``alpha_t * s_t`` over its levels with independent signs in
    {-1, 0, +1}, and a weight position lives in exactly one block.
    """
    values: set[float] = set()
    for alphas in alphas_per_block:
        block_values = {0.0}
        for alpha in alphas:
            block_values = {
                v + s * alpha for v in block_values for s in (-1.0, 0.0, 1.0)
            }
        values |= block_values
    return len(values)
