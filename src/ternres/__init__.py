"""Post-training ternary-residual quantization toolkit.

Converts full-precision weights into fine-grained blocks of stacked ternary
levels (no retraining), models the size/compute/power trade-offs of the
result, and verifies its error behavior with a toy paired-inference
simulator.

The package re-exports what the demos and the README's example use, the
exception classes, and ``QuantizedModel`` and ``quantize_scales_8bit`` (the
pinned golden tests import them from here). Everything else is imported
from its own module, e.g. ``from ternres.residual import level_index``.
"""

from .container import load_quantized, save_quantized
from .costs import (
    cost_report,
    enumerate_capacity,
    flops_per_layer,
    mult_reduction,
    power_perf_gain,
    size_reduction_vs_88,
    table2_stats,
    throughput_gains,
)
from .errors import (
    ConvergenceError,
    DecompositionError,
    FormatError,
    TernresError,
    UnsupportedDtypeError,
)
from .manifest import LayerDecl, ModelManifest, load_manifest, load_weights
from .planner import convert_model, make_schedule
from .residual import (
    QuantizedModel,
    downgrade,
    quantize_scales_8bit,
    reconstruct,
    ternary_residual,
)
from .simulate import forward, forward_quantized, margin_check, quantize_activations
from .tensors import Tensor, save_tensor
from .ternary import level_error, ternarize

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DecompositionError",
    "FormatError",
    "LayerDecl",
    "ModelManifest",
    "QuantizedModel",
    "Tensor",
    "TernresError",
    "UnsupportedDtypeError",
    "convert_model",
    "cost_report",
    "downgrade",
    "enumerate_capacity",
    "flops_per_layer",
    "forward",
    "forward_quantized",
    "level_error",
    "load_manifest",
    "load_quantized",
    "load_weights",
    "make_schedule",
    "margin_check",
    "mult_reduction",
    "power_perf_gain",
    "quantize_activations",
    "quantize_scales_8bit",
    "reconstruct",
    "save_quantized",
    "save_tensor",
    "size_reduction_vs_88",
    "table2_stats",
    "ternarize",
    "ternary_residual",
    "throughput_gains",
]
