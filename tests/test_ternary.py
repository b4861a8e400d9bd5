"""Single-level ternarization: optimality, orthogonality, equivariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternres import level_error, ternarize
from ternres.ternary import TernaryLevel, ternarize_rows


def oracle_best_support(w, max_n=12):
    """Exhaustive 2^n search over retained sets; test oracle for ternarize.

    For every support S the candidate uses sign(w_i) on S and alpha equal to
    the mean magnitude over S; returns (alpha, signs) of the global error
    minimizer. Error is evaluated directly, independent of the prefix-scan
    path.
    """
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    n = w.size
    if n == 0:
        raise ValueError("empty vector")
    if n > max_n:
        raise ValueError(f"oracle limited to n <= {max_n}, got {n}")

    base_signs = np.sign(w)
    best_err = np.inf
    best = (0.0, np.zeros(n, dtype=np.int8))
    for mask in range(1 << n):
        keep = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        m = int(keep.sum())
        if m == 0:
            alpha = 0.0
            signs = np.zeros(n)
        else:
            alpha = float(np.abs(w)[keep].mean())
            signs = np.where(keep, base_signs, 0.0)
        err = float(np.sum((w - alpha * signs) ** 2))
        if err < best_err:
            best_err = err
            best = (alpha, signs.astype(np.int8))
    return best


def scan_all_prefixes(w, float32_alpha=True):
    """Independent threshold-scan oracle: error of the best top-m prefix,
    evaluated directly for every m with ties kept together. Rounds alpha
    to float32 by default, matching the library's storage convention."""
    w = np.asarray(w, dtype=np.float64)
    mags = np.abs(w)
    order = np.argsort(-mags, kind="stable")
    best = np.sum(w * w)  # empty support
    for m in range(1, len(w) + 1):
        if m < len(w) and mags[order[m - 1]] == mags[order[m]]:
            continue  # not a threshold cut
        kept = order[:m]
        if mags[kept[-1]] == 0.0:
            continue
        alpha = mags[kept].mean()
        if float32_alpha:
            alpha = float(np.float32(alpha))
        approx = np.zeros_like(w)
        approx[kept] = alpha * np.sign(w[kept])
        best = min(best, float(np.sum((w - approx) ** 2)))
    return best


def scan_one_row(w):
    """The one-vector threshold scan, used row by row as the kernel's reference.

    Returns ``(alpha, signs, threshold)``; the row kernel must reproduce
    every bit of it.
    """
    mags = np.abs(w)
    order = np.argsort(-mags, kind="stable")
    sorted_mags = mags[order]
    nnz = int(np.count_nonzero(sorted_mags))
    zero = (0.0, np.zeros(w.size, dtype=np.int8), 0.0)
    if nnz == 0:
        return zero
    prefix = np.cumsum(sorted_mags[:nnz])
    scores = prefix * prefix / np.arange(1, nnz + 1, dtype=np.float64)
    valid = np.append(sorted_mags[:nnz - 1] > sorted_mags[1:nnz], True)
    m = int(np.argmax(np.where(valid, scores, -np.inf))) + 1
    alpha = float(np.float32(prefix[m - 1] / m))
    if alpha == 0.0:
        return zero
    signs = np.zeros(w.size, dtype=np.int8)
    signs[order[:m]] = np.sign(w[order[:m]]).astype(np.int8)
    return alpha, signs, float(sorted_mags[m]) if m < w.size else 0.0


# Few distinct values, so rows carry tied magnitudes and zeros.
TIED_VALUES = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 0.75, -0.25])


@st.composite
def row_matrices(draw, max_n=64):
    """A (B, n) matrix whose rows are plain, tied, all-zero or so small that
    every alpha rounds to zero in float32."""
    n = draw(st.integers(1, max_n))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["plain", "tied", "zero", "tiny"]))
        values = st.floats(-1e3, 1e3, allow_nan=False) if kind == "plain" else TIED_VALUES
        row = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
        if kind == "zero":
            row[:] = 0.0
        elif kind == "tiny":
            row *= 1e-46  # below half the smallest float32 denormal
        rows.append(row)
    return np.stack(rows)


class TestTernarizeRows:
    @given(row_matrices())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_one_row_scan(self, rows):
        alpha, signs, threshold = ternarize_rows(rows)
        assert alpha.shape == threshold.shape == (rows.shape[0],)
        assert signs.shape == rows.shape and signs.dtype == np.int8
        for i, row in enumerate(rows):
            want_alpha, want_signs, want_threshold = scan_one_row(row)
            assert alpha[i] == want_alpha
            assert threshold[i] == want_threshold
            assert signs[i].tobytes() == want_signs.tobytes()
            level = ternarize(row)
            assert level.alpha == want_alpha and level.threshold == want_threshold
            assert level.signs.tobytes() == want_signs.tobytes()

    @given(row_matrices(max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_matches_exhaustive_oracle(self, rows):
        alpha, signs, _ = ternarize_rows(rows)
        for i, row in enumerate(rows):
            oracle_alpha, oracle_signs = oracle_best_support(row)
            if np.float32(oracle_alpha) == 0.0:
                assert alpha[i] == 0.0 and not signs[i].any()
                continue
            got = float(np.sum((row - alpha[i] * signs[i]) ** 2))
            want = float(np.sum((row - oracle_alpha * oracle_signs) ** 2))
            # The float32 rounding of alpha (relative, or absolute among the
            # denormals) is the only gap to the exact optimum, up to float64
            # noise in the scores.
            rounding = 2.0 ** -24 * np.abs(row).max() + 2.0 ** -150
            assert abs(got - want) <= row.size * rounding ** 2 + 1e-12 * float(row @ row)

    def test_tie_runs_stay_together_and_match_the_oracle(self):
        # Rows of up to 12 entries made of a few long runs of equal
        # magnitudes, zeros included. Ternarization keeps a run whole or
        # drops it whole, and its error is the exhaustive optimum's. Half
        # the rows open with magnitudes twice the run's, where a cut inside
        # the run scores closest to the cuts at its ends.
        rng = np.random.default_rng(41)
        rows = []
        for i in range(100):
            n = int(rng.integers(4, 13))
            cuts = np.sort(rng.choice(np.arange(1, n), 2, replace=False))
            a = np.float32(rng.uniform(0.1, 10.0))
            top = 2 * a if i % 2 else np.float32(rng.uniform(0.0, 10.0))
            rest = 0.0 if i % 3 == 0 else np.float32(rng.uniform(0.0, 10.0))
            mags = np.repeat([top, a, rest], np.diff(np.r_[0, cuts, n]))
            rows.append(rng.permutation(mags * rng.choice([-1.0, 1.0], size=n)))
        for row in rows:
            alpha, signs, _ = ternarize_rows(row[None, :])
            kept = signs[0] != 0
            for m in np.unique(np.abs(row)):
                assert len(set(kept[np.abs(row) == m])) == 1
            oracle_alpha, oracle_signs = oracle_best_support(row)
            got = float(np.sum((row - alpha[0] * signs[0]) ** 2))
            want = float(np.sum((row - oracle_alpha * oracle_signs) ** 2))
            rounding = 2.0 ** -24 * np.abs(row).max()
            assert abs(got - want) <= row.size * rounding ** 2 + 1e-12 * float(row @ row)

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            ternarize_rows(np.zeros(4))
        with pytest.raises(ValueError):
            ternarize_rows(np.zeros((2, 0)))
        # One check on the largest magnitude covers every place a NaN or an
        # infinity can sit.
        denormal = np.nextafter(0.0, 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            for rows in (
                [[bad, 1.0, -2.0]],  # first column
                [[1.0, -2.0, bad]],  # last column
                [[1.0, 2.0, 3.0], [0.5, 0.25, 0.125], [4.0, 1.0, bad]],  # a later row
                [[1.0, 2.0, 3.0], [0.0, bad, -0.0]],  # an otherwise all-zero row
                [[0.0, 0.0], [bad, 0.0]],  # in an all-zero matrix
                [[denormal, bad, -denormal, 4 * denormal]],  # next to denormals
                [[bad]],
            ):
                with pytest.raises(ValueError, match="non-finite"):
                    ternarize_rows(np.array(rows))


class TestTernarize:
    def test_exactly_representable(self):
        level = ternarize([2.0, -2.0, 2.0])
        assert level.alpha == 2.0
        assert level.signs.tolist() == [1, -1, 1]
        assert level_error([2.0, -2.0, 2.0], level) == 0.0

    def test_worked_example(self):
        # Prefix scores m=1..4 are 9, 12.5, 12, 10.5625: the optimum keeps
        # {3, -2} with alpha 2.5 and leaves squared error 14.25 - 12.5.
        w = [3.0, 1.0, 0.5, -2.0]
        level = ternarize(w)
        assert level.alpha == 2.5
        assert level.signs.tolist() == [1, 0, 0, -1]
        assert level_error(w, level) == pytest.approx(1.75, rel=1e-12)
        assert level.threshold == 1.0

    def test_all_zero_vector(self):
        level = ternarize([0.0, 0.0, 0.0])
        assert level.alpha == 0.0
        assert level.signs.tolist() == [0, 0, 0]

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            ternarize([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ternarize([1.0, np.nan])

    def test_tie_break_prefers_sparser(self):
        # Dyadic values make the m=1 and m=4 prefix scores exactly 4.0:
        # 2^2/1 == (2 + 0.75 + 0.6875 + 0.5625)^2/4, intermediate scores
        # stay below. Equal objective must resolve to the sparser level.
        level = ternarize([2.0, 0.75, 0.6875, 0.5625])
        assert level.nnz == 1
        assert level.alpha == 2.0

    def test_ties_kept_together(self):
        # Equal magnitudes cannot be split by any threshold: either all
        # three unit entries are retained or none of them.
        level = ternarize([1.0, -1.0, 1.0, 0.2])
        kept = (level.signs != 0).tolist()
        assert kept in ([True, True, True, False], [True, True, True, True])

    def test_matches_prefix_scan_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 64))
            w = rng.normal(size=n) * rng.choice([0.01, 1.0, 100.0])
            level = ternarize(w)
            assert level_error(w, level) == pytest.approx(
                scan_all_prefixes(w), rel=1e-9, abs=1e-12
            )

    def test_scale_equivariance(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            w = rng.normal(size=int(rng.integers(1, 40)))
            c = float(rng.uniform(0.1, 10.0))
            base = ternarize(w)
            scaled = ternarize(c * w)
            assert np.array_equal(base.signs, scaled.signs)
            assert scaled.alpha == pytest.approx(c * base.alpha, rel=1e-6)

    def test_orthogonality_identity(self):
        # The fitted level is orthogonal to its residual up to the float32
        # rounding of alpha, which perturbs the identity by O(1e-7)*||w||^2.
        rng = np.random.default_rng(23)
        for _ in range(200):
            w = rng.normal(size=int(rng.integers(1, 80)))
            level = ternarize(w)
            dense = level.alpha * level.signs.astype(np.float64)
            residual = w - dense
            norm_sq = float(w @ w)
            assert abs(float(dense @ residual)) <= 1e-5 * norm_sq
            pythagoras = float(dense @ dense) + float(residual @ residual)
            assert abs(pythagoras - norm_sq) <= 1e-5 * norm_sq

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=32))
    @settings(max_examples=150, deadline=None)
    def test_no_prefix_beats_choice_property(self, values):
        w = np.array(values)
        level = ternarize(w)
        err = level_error(w, level)
        norm_sq = float(w @ w)
        # Slack covers float64-score vs float32-alpha selection flips.
        assert err <= scan_all_prefixes(w) + 1e-12 * (1.0 + norm_sq)

    def test_sign_invariant(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            w = rng.normal(size=20)
            level = ternarize(w)
            kept = level.signs != 0
            assert np.array_equal(
                level.signs[kept], np.sign(w[kept]).astype(np.int8)
            )
            assert np.all(np.abs(w[kept]) > level.threshold)
            assert np.all(np.abs(w[~kept]) <= level.threshold)


class TestOracle:
    def test_single_element(self):
        alpha, signs = oracle_best_support([1.0])
        assert alpha == 1.0 and signs.tolist() == [1]

    def test_symmetric_pair(self):
        alpha, signs = oracle_best_support([-5.0, 5.0])
        assert alpha == 5.0 and signs.tolist() == [-1, 1]
        w = np.array([-5.0, 5.0])
        assert np.sum((w - alpha * signs) ** 2) == 0.0

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            oracle_best_support(np.zeros(13))

    def test_agrees_with_ternarize(self):
        rng = np.random.default_rng(25)
        for _ in range(250):
            n = int(rng.integers(1, 13))
            w = rng.normal(size=n)
            alpha, signs = oracle_best_support(w)
            oracle_err = float(np.sum((w - alpha * signs) ** 2))
            fast_err = level_error(w, ternarize(w))
            assert fast_err <= oracle_err * (1 + 1e-6) + 1e-12
            assert oracle_err <= fast_err * (1 + 1e-6) + 1e-12


class TestLevelError:
    def test_zero_for_exact(self):
        level = ternarize([1.0, -1.0])
        assert level_error([1.0, -1.0], level) == 0.0

    def test_alpha_zero_gives_norm(self):
        level = TernaryLevel(0.0, np.zeros(3, dtype=np.int8))
        assert level_error([1.0, 2.0, 2.0], level) == pytest.approx(9.0)

    def test_length_mismatch_rejected(self):
        level = ternarize([1.0, 2.0])
        with pytest.raises(ValueError, match="mismatch"):
            level_error([1.0], level)


class TestTernaryLevelInvariants:
    def test_alpha_zero_needs_zero_signs(self):
        with pytest.raises(ValueError):
            TernaryLevel(0.0, np.array([1], dtype=np.int8))

    def test_positive_alpha_needs_support(self):
        with pytest.raises(ValueError):
            TernaryLevel(1.0, np.zeros(2, dtype=np.int8))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            TernaryLevel(-1.0, np.array([1], dtype=np.int8))


def test_oracle_rejects_an_empty_vector():
    with pytest.raises(ValueError, match="empty vector"):
        oracle_best_support([])
