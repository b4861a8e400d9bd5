"""Optimal single-scale ternarization of a real vector.

A ternary level approximates a vector w by alpha * s with s in {-1, 0, +1}.
Only the retained set matters: for a fixed support the best alpha is the
mean magnitude over the support, and the squared error becomes
``||w||^2 - S^2/m`` where S is the magnitude sum and m the support size.
Scanning the sorted top-m prefixes therefore finds the exact optimum over
all thresholds in O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TernaryLevel:
    """One scaling factor plus a sign vector for a single block.

    ``threshold`` is the magnitude cut that produced the level: entries with
    ``|w| > threshold`` are retained with their sign.
    """

    alpha: float
    signs: np.ndarray  # int8, values in {-1, 0, +1}
    threshold: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "signs", np.asarray(self.signs, dtype=np.int8))
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if (self.alpha == 0.0) != (not self.signs.any()):
            raise ValueError("alpha must be zero exactly when all signs are zero")

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.signs))

    def dense(self) -> np.ndarray:
        """alpha * signs as float32."""
        return (np.float32(self.alpha) * self.signs.astype(np.float32))


def ternarize_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best ternary level for every row of a ``(B, n)`` matrix at once.

    Maximizes ``(sum of retained |w_i|)^2 / count`` per row over all
    distinct candidate thresholds (equivalently all top-m magnitude prefixes
    with ties kept together). Equal scores break toward the larger
    threshold, i.e. the sparser level. Prefix sums accumulate in float64 in
    row order, so each row's result does not depend on the other rows.

    The scan runs on the negated magnitudes, sorted ascending in place: their
    prefix sums are the negated descending ones, bit for bit (IEEE negation
    is exact and rounding is symmetric), over a contiguous array. Scores are
    squares, so they keep their bits too.

    Returns ``(alpha, signs, threshold)``: float64[B] alphas rounded to
    float32, int8[B, n] signs and float64[B] magnitude cuts. A row whose
    alpha rounds to zero (all zeros, or magnitudes below the float32
    denormal range) gets alpha 0, no signs and threshold 0.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError(f"need a non-empty (B, n) matrix, got shape {rows.shape}")

    b, n = rows.shape
    low = np.abs(rows)
    if not np.isfinite(low.max()):  # a NaN or an infinity makes the max one
        raise ValueError("cannot ternarize non-finite values")
    np.negative(low, out=low)
    low.sort(axis=1)  # low[:, j] is minus the (j+1)-th largest magnitude
    prefix = np.cumsum(low, axis=1)  # minus the top-(j+1) magnitude sum
    scores = np.multiply(prefix, prefix)
    scores /= np.arange(1, n + 1, dtype=np.float64)

    # A cut after position m is a real threshold only if it keeps a nonzero
    # magnitude and separates two distinct magnitudes (ties are kept or
    # dropped together). A strict drop already keeps a nonzero magnitude, so
    # only the last cut checks for one. Neighbours are compared along the
    # flattened rows; a row's last entry, which meets the next row's first
    # there, is compared with zero instead.
    no_cut = np.empty((b, n), dtype=bool)
    flat = low.reshape(-1)
    np.greater_equal(flat[:-1], flat[1:], out=no_cut.reshape(-1)[:-1])
    np.greater_equal(low[:, -1], 0.0, out=no_cut[:, -1])
    np.copyto(scores, -np.inf, where=no_cut)

    rowix = np.arange(b)
    m = np.argmax(scores, axis=1) + 1  # first max = smallest support = largest T
    alpha = (-prefix[rowix, m - 1] / m).astype(np.float32).astype(np.float64)
    threshold = np.where(m < n, -low[rowix, np.minimum(m, n - 1)], 0.0)
    dead = alpha == 0.0  # all-zero row, or magnitudes below float32 range
    threshold[dead] = 0.0

    # The top-m magnitudes are exactly those above the cut; a dead row keeps
    # none. Kept entries are never zero: +1 above the cut, -1 below minus it.
    cut = np.where(dead, np.inf, threshold)[:, None]
    signs = (rows > cut).view(np.int8) - (rows < -cut).view(np.int8)
    return alpha, signs, threshold


def ternarize(w: np.ndarray) -> TernaryLevel:
    """Best ternary level for the vector ``w``: the one-row ternarize_rows."""
    w = np.asarray(w, dtype=np.float64).reshape(1, -1)
    if w.size == 0:
        raise ValueError("cannot ternarize an empty vector")
    alpha, signs, threshold = ternarize_rows(w)
    return TernaryLevel(float(alpha[0]), signs[0], float(threshold[0]))


def level_error(w: np.ndarray, level: TernaryLevel) -> float:
    """Squared l2 error ``sum (w_i - alpha*s_i)^2``."""
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.size != level.signs.size:
        raise ValueError(
            f"length mismatch: vector has {w.size}, level has {level.signs.size}"
        )
    diff = w - level.alpha * level.signs.astype(np.float64)
    return float(diff @ diff)
