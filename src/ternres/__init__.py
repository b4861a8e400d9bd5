"""Post-training ternary-residual quantization toolkit.

Converts full-precision weights into fine-grained blocks of stacked ternary
levels (no retraining), models the size/compute/power trade-offs of the
result, and verifies its error behavior with a toy paired-inference
simulator.
"""

from .container import load_quantized, pack_signs, save_quantized, unpack_signs
from .costs import (
    CostReport,
    cost_report,
    enumerate_capacity,
    mult_reduction,
    power_perf_gain,
    size_reduction_vs_88,
    table2_stats,
    throughput_gains,
)
from .errors import ConvergenceError, FormatError, TernresError, UnsupportedDtypeError
from .manifest import (
    LayerDecl,
    ModelManifest,
    load_manifest,
    load_weights,
    manifest_from_dict,
    manifest_to_dict,
    resolve_shapes,
    save_manifest,
)
from .planner import (
    BudgetSchedule,
    ScheduleEntry,
    convert_model,
    flops_per_layer,
    load_schedule,
    make_schedule,
)
from .residual import (
    QuantizedLayer,
    QuantizedModel,
    block_sensitivity,
    downgrade,
    layer_delta,
    quantize_scales_8bit,
    reconstruct,
    ternary_residual,
    write_trace_csv,
)
from .simulate import (
    ActQuantSpec,
    PerturbationTrace,
    forward,
    forward_quantized,
    layer_lemma_checks,
    margin_check,
    quantize_activations,
)
from .tensors import BlockView, Tensor, load_tensor, partition_blocks, save_tensor
from .ternary import TernaryLevel, level_error, oracle_best_support, ternarize

__version__ = "0.1.0"

__all__ = [
    "ActQuantSpec",
    "BlockView",
    "BudgetSchedule",
    "ConvergenceError",
    "CostReport",
    "FormatError",
    "LayerDecl",
    "ModelManifest",
    "PerturbationTrace",
    "QuantizedLayer",
    "QuantizedModel",
    "ScheduleEntry",
    "Tensor",
    "TernaryLevel",
    "TernresError",
    "UnsupportedDtypeError",
    "block_sensitivity",
    "convert_model",
    "cost_report",
    "downgrade",
    "enumerate_capacity",
    "flops_per_layer",
    "forward",
    "forward_quantized",
    "layer_delta",
    "layer_lemma_checks",
    "level_error",
    "load_manifest",
    "load_quantized",
    "load_schedule",
    "load_tensor",
    "load_weights",
    "make_schedule",
    "manifest_from_dict",
    "manifest_to_dict",
    "margin_check",
    "mult_reduction",
    "oracle_best_support",
    "pack_signs",
    "partition_blocks",
    "power_perf_gain",
    "quantize_activations",
    "quantize_scales_8bit",
    "reconstruct",
    "resolve_shapes",
    "save_manifest",
    "save_quantized",
    "save_tensor",
    "size_reduction_vs_88",
    "table2_stats",
    "ternarize",
    "ternary_residual",
    "throughput_gains",
    "unpack_signs",
    "write_trace_csv",
]
