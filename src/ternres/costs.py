"""Size, capacity, multiplication and power-performance accounting.

All formulas take the 8-8 representation (8-bit activations, 8-bit weights)
as the baseline and assume 8-bit storage per scaling factor. Measured
numbers are always recomputed from an actual converted model rather than
assumed from its settings. A report holds one cost row per layer and one
for the model total, all computed by ``cost_row``; the FLOP-weighted
compute factor comes from the manifest a container stores.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .manifest import PARAMETRIC_KINDS, ModelManifest, manifest_from_dict
from .residual import QuantizedModel
from .simulate import resolve_shapes
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
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be >= 1, got n={n}, k={k}")
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
    if not 0 < x < math.inf:  # written so that NaN fails too
        raise ValueError(f"x must be a finite number above 0, got {x}")
    if not compute_factor >= 1:
        raise ValueError("compute factor must be >= 1")
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    return x / (compute_factor * (x / block_size + 1.0))


def throughput_gains(c_ratio: float, block_size: int, level_factor: float) -> tuple[float, float]:
    """(compute-bound, bandwidth-bound) throughput gains over 8-8.

    ``c_ratio`` is the cost of an 8-8 op in 8-2 ops; ``level_factor`` is the
    average number of levels per block (r+1).
    """
    if not 1 < c_ratio < math.inf:  # written so that NaN fails too
        raise ValueError(f"c_ratio must be a finite number above 1, got {c_ratio}")
    if block_size < 1:
        raise ValueError("block size must be >= 1")
    if not level_factor >= 1:
        raise ValueError("level factor must be >= 1")
    pi_c = c_ratio / (level_factor * (c_ratio / block_size + 1.0))
    pi_m = 4.0 / (level_factor * (1.0 / block_size + 1.0))
    return pi_c, pi_m


@dataclass(frozen=True)
class CostRow:
    """Measured costs of one layer, or of the whole model.

    The model total has no ``delta``; its ``block_size`` is the mean number
    of weights per block, which the ratio formulas take as N.
    """
    name: str
    num_weights: int
    block_size: int
    num_blocks: int
    num_levels: int
    blocks_factor: float
    model_size_bits: int
    capacity: int
    delta: float | None
    mult_reduction_vs_88: float
    size_reduction_vs_88: float
    power_perf_gain: float
    pi_c: float
    pi_m: float


def cost_row(name: str, num_weights: int, block_size: int, num_blocks: int,
             num_levels: int, size_bits: int, capacity: int, x: float,
             c_ratio: float, delta: float | None = None) -> CostRow:
    """One row: the blocks factor and every ratio against 8-8.

    Raises ``ValueError`` for ``x <= 0`` or ``c_ratio <= 1``, even for a
    row with no weights.
    """
    blocks_factor = num_levels / num_blocks if num_blocks else 1.0
    compute_factor = max(blocks_factor, 1.0)
    pi_c, pi_m = throughput_gains(c_ratio, block_size, compute_factor)
    return CostRow(
        name, num_weights, block_size, num_blocks, num_levels, blocks_factor,
        size_bits, capacity, delta,
        num_weights / num_levels if num_levels else np.nan,
        8.0 * num_weights / size_bits if size_bits else np.nan,
        power_perf_gain(x, compute_factor, block_size), pi_c, pi_m)


# Report keys of the row fields whose names differ.
_KEYS = {"num_weights": "weights", "block_size": "N", "num_blocks": "blocks",
         "num_levels": "levels"}


def _row_dict(row: CostRow) -> dict:
    doc = {_KEYS.get(k, k): v for k, v in asdict(row).items()}
    doc["scaling_factors"] = row.num_levels  # one per level
    return doc


@dataclass(frozen=True)
class CostReport:
    layers: tuple[CostRow, ...]
    total: CostRow
    compute_factor_weighted: float | None
    x: float
    c_ratio: float

    @property
    def blocks_factor(self) -> float:
        return self.total.blocks_factor

    @property
    def mult_reduction_vs_88(self) -> float:
        return self.total.mult_reduction_vs_88

    def to_dict(self) -> dict:
        totals = _row_dict(self.total)
        for key in ("name", "N", "delta"):
            del totals[key]
        totals.update(compute_factor_weighted=self.compute_factor_weighted,
                      x=self.x, c_ratio=self.c_ratio)
        return {"totals": totals, "layers": [_row_dict(l) for l in self.layers]}

    def to_text(self) -> str:
        doc = self.to_dict()
        headers = ["layer", "weights", "N", "blocks", "levels", "factor",
                   "size_bits", "#alpha", "mult_red", "size_red", "delta"]
        rows = [[
            r.get("name", "TOTAL"), str(r["weights"]), str(r.get("N", "-")),
            str(r["blocks"]), str(r["levels"]), f"{r['blocks_factor']:.3f}",
            str(r["model_size_bits"]), str(r["scaling_factors"]),
            f"{r['mult_reduction_vs_88']:.2f}", f"{r['size_reduction_vs_88']:.2f}",
            f"{r['delta']:.3e}" if "delta" in r else "-",
        ] for r in (*doc["layers"], doc["totals"])]
        widths = [max(map(len, column)) for column in zip(headers, *rows)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in (headers, *rows)]
        t = self.total
        lines += ["", f"power-perf gain vs 8-8 (X={self.x}, C={t.blocks_factor:.3f}): "
                      f"{t.power_perf_gain:.3f}",
                  f"throughput gains (c={self.c_ratio}): pi_c={t.pi_c:.3f}, pi_m={t.pi_m:.3f}"]
        if self.compute_factor_weighted is not None:
            lines.append(f"FLOP-weighted compute factor: {self.compute_factor_weighted:.3f}")
        return "\n".join(lines)


def measured_layer_cost(layer, x: float = DEFAULT_X,
                        c_ratio: float = DEFAULT_C_RATIO) -> CostRow:
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
    return cost_row(layer.layer, layer.num_weights, layer.block_size,
                    layer.num_blocks, layer.num_levels, size_bits, capacity,
                    x, c_ratio, layer.delta)


def flops_per_layer(
    manifest: ModelManifest, weight_shapes: dict[str, tuple[int, ...]]
) -> dict[str, int]:
    """Multiply counts per layer for one input sample.

    A parametric layer costs, per output element, one multiply for each
    weight feeding it: ``in`` for fully-connected layers, ``C_in*kh*kw`` for
    convolutions and one for channel scaling. Pooling/ReLU cost none.
    """
    shapes = resolve_shapes(manifest, weight_shapes)
    return {
        layer.name: math.prod(out_shape) * math.prod(weight_shapes[layer.name][1:])
        if layer.kind in PARAMETRIC_KINDS else 0
        for layer, out_shape in zip(manifest.layers, shapes)
    }


def model_flops(model: QuantizedModel) -> dict[str, int] | None:
    """``flops_per_layer`` of the manifest a model stores, at its layer shapes.

    None when the model stores no manifest or the shapes do not resolve.
    """
    if not model.manifest_doc:
        return None
    try:
        manifest = manifest_from_dict(model.manifest_doc)
        return flops_per_layer(manifest, {l.layer: l.shape for l in model.layers})
    except ValueError:
        return None


def cost_report(
    model: QuantizedModel,
    x: float = DEFAULT_X,
    c_ratio: float = DEFAULT_C_RATIO,
) -> CostReport:
    """One cost row per layer and one for the whole model.

    The FLOP-weighted compute factor weights each layer's level inflation
    by its share of the network's multiplies, read from the manifest the
    model stores; it is None without one. The unweighted blocks factor
    counts levels over blocks regardless of where they sit. ``x`` and
    ``c_ratio`` are stored as Python floats.
    """
    x, c_ratio = float(x), float(c_ratio)
    rows = tuple(measured_layer_cost(l, x, c_ratio) for l in model.layers)
    flops = model_flops(model) or {}
    shares = [flops.get(r.name, 0) for r in rows]
    weighted = (sum(f * r.blocks_factor for f, r in zip(shares, rows)) / sum(shares)
                if sum(shares) else None)
    weights = sum(r.num_weights for r in rows)
    blocks = sum(r.num_blocks for r in rows)
    # Weights per block stands in for N; it is N for uniform blocking.
    n_per_block = max(round(weights / blocks), 1) if blocks else 1
    total = cost_row(
        "TOTAL", weights, n_per_block, blocks, sum(r.num_levels for r in rows),
        sum(r.model_size_bits for r in rows), sum(r.capacity for r in rows),
        x, c_ratio)
    return CostReport(rows, total, weighted, x, c_ratio)


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
