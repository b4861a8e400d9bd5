"""Exception types shared across the toolkit."""


class TernresError(Exception):
    """Base class for all toolkit-specific errors."""


class FormatError(TernresError):
    """A file is not a valid tensor / manifest / quantized container."""


class UnsupportedDtypeError(FormatError):
    """A tensor file stores something other than little-endian float32."""


class ConvergenceError(TernresError):
    """Residual stacking hit the per-block level cap before reaching tolerance.

    Carries the achieved squared relative error so callers can report how
    far the conversion got.
    """

    def __init__(self, layer: str, delta: float, epsilon_sq: float, r_max: int):
        self.layer = layer
        self.delta = delta
        self.epsilon_sq = epsilon_sq
        self.r_max = r_max
        super().__init__(
            f"layer {layer!r}: residual budget exhausted at r_max={r_max} "
            f"with delta={delta:.6g} > epsilon^2={epsilon_sq:.6g}"
        )


class DecompositionError(TernresError, RuntimeError):
    """A paired pass's level-decomposed accumulation deviates from the dense
    product with the reconstructed weights: the container's levels do not
    add up in float32 to the weights they stand for."""
