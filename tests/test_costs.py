"""Cost-table formulas, abstract reduction ratios, and measured reports."""

import numpy as np
import pytest

from ternres import (
    LayerDecl,
    ModelManifest,
    QuantizedModel,
    Tensor,
    cost_report,
    enumerate_capacity,
    mult_reduction,
    power_perf_gain,
    size_reduction_vs_88,
    table2_stats,
    ternary_residual,
    throughput_gains,
)
from ternres.manifest import manifest_to_dict
from ternres.residual import QuantizedLayer


class TestTable2:
    def test_plain_ternary_row(self):
        assert table2_stats(64, 1, [0]) == (136, 3, 1)

    def test_residual_row(self):
        assert table2_stats(64, 1, [1]) == (272, 9, 2)

    def test_blocked_residual_row(self):
        size, capacity, alphas = table2_stats(128, 2, [1, 0])
        assert size == pytest.approx(408)
        assert capacity == 11
        assert alphas == 3

    def test_degenerate_rows_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 4096))
            k = int(rng.integers(1, 64))
            r = int(rng.integers(0, 6))
            # one block, no residuals: 8 + 2n bits, 3 values, 1 alpha
            assert table2_stats(n, 1, [0]) == (8 + 2 * n, 3, 1)
            # k blocks, no residuals: 8k + 2n bits, 2k + 1 values, k alphas
            size, cap, alphas = table2_stats(n, k, [0] * k)
            assert size == pytest.approx(8 * k + 2 * n)
            assert cap == 2 * k + 1
            assert alphas == k
            # one block, r residuals: (r+1)(8+2n) bits, 3^(r+1) values
            size, cap, alphas = table2_stats(n, 1, [r])
            assert size == pytest.approx((r + 1) * (8 + 2 * n))
            assert cap == 3 ** (r + 1)
            assert alphas == r + 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            table2_stats(8, 0, [])
        with pytest.raises(ValueError):
            table2_stats(8, 2, [0])
        with pytest.raises(ValueError):
            table2_stats(8, 1, [-1])
        for n in (0, -5):
            with pytest.raises(ValueError):
                table2_stats(n, 1, [0])
        with pytest.raises(ValueError):
            power_perf_gain(float("nan"), 1.0, 64)
        with pytest.raises(ValueError):
            throughput_gains(float("nan"), 64, 1.0)
        with pytest.raises(ValueError):
            throughput_gains(5.0, 64, float("nan"))


class TestCapacityEnumeration:
    def test_two_levels_single_block_gives_nine(self):
        # Generic alphas: every sign pair lands on a distinct value.
        assert enumerate_capacity([[1.0, 0.37]]) == 9

    def test_matches_formula_for_tiny_configs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            residuals = [int(rng.integers(0, 3)) for _ in range(k)]
            # irrational-ish alphas keep all sums distinct
            alphas = [
                list(np.exp(rng.normal(size=r + 1)))
                for r in residuals
            ]
            _, capacity, _ = table2_stats(16, k, residuals)
            assert enumerate_capacity(alphas) == capacity

    def test_degenerate_alphas_collapse(self):
        # alpha2 == alpha1 merges sums; enumeration sees it, the formula
        # (generic alphas) does not.
        assert enumerate_capacity([[1.0, 1.0]]) == 5


class TestAbstractRatios:
    def test_mult_reduction(self):
        assert mult_reduction(64, 2.4) == pytest.approx(26.67, abs=0.05)
        assert mult_reduction(64, 2.0) == 32.0
        assert mult_reduction(64, 1.0) == 64.0

    def test_size_reduction(self):
        assert size_reduction_vs_88(64, 2.4) == pytest.approx(1.57, abs=0.05)
        assert size_reduction_vs_88(64, 2.0) == pytest.approx(1.88, abs=0.05)
        # N -> infinity, one level: 8 bits vs 2 bits
        assert size_reduction_vs_88(10**9, 1.0) == pytest.approx(4.0, rel=1e-6)

    def test_power_perf(self):
        assert power_perf_gain(5.5, 2.5, 64) == pytest.approx(2.03, abs=0.05)
        assert power_perf_gain(5.5, 2.2, 64) == pytest.approx(2.30, abs=0.05)
        # C = 1 and huge N recovers X itself
        assert power_perf_gain(5.5, 1.0, 10**9) == pytest.approx(5.5, rel=1e-6)

    def test_throughput(self):
        pi_c, pi_m = throughput_gains(5.0, 64, 2.4)
        assert pi_c == pytest.approx(1.93, abs=0.05)
        assert pi_m == pytest.approx(1.64, abs=0.05)
        pi_c, pi_m = throughput_gains(5.0, 10**9, 1.0)
        assert pi_c == pytest.approx(5.0, rel=1e-6)
        assert pi_m == pytest.approx(4.0, rel=1e-6)
        base = throughput_gains(5.0, 64, 1.2)
        doubled = throughput_gains(5.0, 64, 2.4)
        assert doubled[0] == pytest.approx(base[0] / 2, rel=1e-12)
        assert doubled[1] == pytest.approx(base[1] / 2, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            mult_reduction(0, 1.0)
        with pytest.raises(ValueError):
            power_perf_gain(-1.0, 2.0, 64)
        with pytest.raises(ValueError):
            power_perf_gain(5.5, 0.5, 64)
        with pytest.raises(ValueError):
            throughput_gains(1.0, 64, 2.0)
        with pytest.raises(ValueError):
            throughput_gains(5.0, 64, 0.5)


class TestMeasuredReport:
    def _model(self, rng, sizes, block, eps_sq):
        layers = []
        for i, n in enumerate(sizes):
            t = Tensor(f"l{i}", rng.normal(size=n).astype(np.float32))
            layers.append(ternary_residual(t, block, epsilon_sq=eps_sq))
        return QuantizedModel({}, tuple(layers), {})

    def test_base_ternary_factor_is_one(self):
        rng = np.random.default_rng(2)
        model = self._model(rng, [256, 100], 32, 1.0)
        report = cost_report(model)
        assert report.blocks_factor == 1.0
        assert report.total.num_levels == report.total.num_blocks

    def test_size_bits_count_remainder_blocks_exactly(self):
        rng = np.random.default_rng(3)
        model = self._model(rng, [100], 64, 1.0)  # blocks of 64 and 36
        report = cost_report(model)
        assert report.total.model_size_bits == (8 + 2 * 64) + (8 + 2 * 36)
        assert report.to_dict()["totals"]["scaling_factors"] == 2

    def test_capacity_stays_exact_past_int64(self):
        # 3**41 exceeds the int64 range; capacity must stay an exact integer.
        layer = QuantizedLayer(
            "deep", (8,), 4, counts=np.array([41, 1], dtype=np.int32),
            alphas=np.ones(42, dtype=np.float32), signs=np.ones((42, 4), dtype=np.int8),
            delta=0.0, epsilon_sq=0.01, source_norm_sq=1.0)
        report = cost_report(QuantizedModel({}, (layer,), {}))
        assert report.total.capacity == 3 ** 41 + 3 - 2 + 1
        assert report.total.capacity == table2_stats(8, 2, [40, 0])[1]
        assert report.total.model_size_bits == 42 * (8 + 2 * 4)

    def test_report_consistent_with_bookkeeping(self):
        rng = np.random.default_rng(4)
        model = self._model(rng, [512, 300], 32, 0.01)
        report = cost_report(model)
        levels = sum(int(l.counts.sum()) for l in model.layers)
        blocks = sum(len(l.counts) for l in model.layers)
        assert report.total.num_levels == levels
        assert report.to_dict()["totals"]["scaling_factors"] == levels
        assert report.blocks_factor == pytest.approx(levels / blocks, rel=1e-12)
        size = sum(
            int(c) * (8 + 2 * min(l.block_size, l.num_weights - k * l.block_size))
            for l in model.layers for k, c in enumerate(l.counts)
        )
        assert report.total.model_size_bits == size
        capacity = sum(
            sum(3 ** int(c) for c in l.counts) - len(l.counts) + 1
            for l in model.layers
        )
        assert report.total.capacity == capacity
        assert report.mult_reduction_vs_88 == pytest.approx(
            report.total.num_weights / levels, rel=1e-12
        )
        assert report.total.size_reduction_vs_88 == pytest.approx(
            8 * report.total.num_weights / size, rel=1e-12
        )

    def test_flop_weighted_factor(self):
        rng = np.random.default_rng(5)
        manifest = ModelManifest(
            (LayerDecl("l0", "fc", weight_ref="l0"), LayerDecl("l1", "fc", weight_ref="l1")),
            input_shape=(25,))
        f0, f1 = (ternary_residual(Tensor(n, rng.normal(size=s).astype(np.float32)),
                                   32, epsilon_sq=0.01)
                  for n, s in (("l0", (40, 25)), ("l1", (1, 40))))
        model = QuantizedModel(manifest_to_dict(manifest), (f0, f1), {})
        report = cost_report(model)
        bf0 = f0.num_levels / f0.num_blocks
        bf1 = f1.num_levels / f1.num_blocks
        expected = (1000 * bf0 + 40 * bf1) / 1040
        assert report.compute_factor_weighted == pytest.approx(expected, rel=1e-12)
        assert cost_report(QuantizedModel({}, (f0, f1), {})).compute_factor_weighted is None

    def test_bad_x_or_c_rejected_when_called(self):
        rng = np.random.default_rng(8)
        for model in (self._model(rng, [128], 32, 0.05), QuantizedModel({}, (), {})):
            for bad in ({"x": 0.0}, {"x": -1.0}, {"c_ratio": 1.0}, {"c_ratio": 0.5}):
                with pytest.raises(ValueError):
                    cost_report(model, **bad)

    def test_text_and_json_render(self):
        rng = np.random.default_rng(6)
        model = self._model(rng, [128], 32, 0.05)
        report = cost_report(model)
        text = report.to_text()
        assert "TOTAL" in text and "power-perf" in text
        doc = report.to_dict()
        assert doc["totals"]["levels"] == report.total.num_levels
        assert len(doc["layers"]) == 1
        assert doc["layers"][0]["power_perf_gain"] > 0

    def test_all_quantities_non_negative_capacity_at_least_three(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model = self._model(
                rng, [int(rng.integers(8, 600))], int(rng.integers(4, 70)),
                float(rng.uniform(0.005, 1.0)))
            report = cost_report(model)
            for l in report.layers:
                assert l.capacity >= 3
                assert l.model_size_bits > 0
                assert l.blocks_factor >= 1.0
                assert l.power_perf_gain > 0 and l.pi_c > 0 and l.pi_m > 0
