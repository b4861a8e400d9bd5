"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from ternres import (
    QuantizedModel,
    Tensor,
    convert_model,
    downgrade,
    enumerate_capacity,
    forward_quantized,
    level_error,
    load_quantized,
    make_schedule,
    margin_check,
    mult_reduction,
    power_perf_gain,
    reconstruct,
    save_quantized,
    size_reduction_vs_88,
    table2_stats,
    ternarize,
    ternary_residual,
    throughput_gains,
)
from ternres.residual import block_sensitivity, level_index
from ternres.simulate import avgpool_bound, matmul_bound, maxpool_bound, relu_bound
from ternres.tensors import partition_blocks

from nets import conv_net, exact_ternary_net, random_net


def _report(criterion: int, text: str) -> None:
    print(f"[acceptance {criterion:02d}] PASS  {text}")


def support_oracle_error(w: np.ndarray) -> float:
    """Exhaustive 2^n support search evaluated directly (error oracle)."""
    n = w.size
    masks = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
    counts = masks.sum(axis=1)
    mags = np.abs(w)
    sums = masks @ mags
    alphas = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    cands = alphas[:, None] * masks * np.sign(w)[None, :]
    errs = ((w[None, :] - cands) ** 2).sum(axis=1)
    return float(errs.min())


def test_criterion_01_ternarizer_optimality():
    """1000 random vectors, n <= 12: scan error == 2^n oracle error (1e-6)."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        w = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
        fast = level_error(w, ternarize(w))
        oracle = support_oracle_error(w)
        # alpha is stored as float32 by design; its rounding leaves an
        # error floor of (6e-8 * ||w||)^2 that the float64 oracle lacks.
        floor = 1.6e-14 * float(w @ w)
        assert fast <= oracle * (1 + 1e-6) + floor
        assert oracle <= fast * (1 + 1e-6) + floor
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(1, f"1000 vectors matched the exhaustive oracle in {elapsed:.1f}s")


def test_criterion_02_strict_delta_decrease():
    """100 conversions (n=4096, N=64, eps^2=0.005): delta strictly falls."""
    violations = 0
    for seed in range(100):
        rng = np.random.default_rng(200 + seed)
        t = Tensor(f"w{seed}", rng.normal(size=4096).astype(np.float32))
        layer = ternary_residual(t, 64, epsilon_sq=0.005)
        seq = np.array(layer.delta_sequence)
        if not np.all(np.diff(seq) < 0.0):
            violations += 1
        assert layer.delta <= 0.005
    assert violations == 0
    _report(2, "100/100 delta sequences strictly decreasing to tolerance")


def test_criterion_03_orthogonality_identities():
    """Per-level orthogonality and Pythagoras at 1e-5; block sum at 1e-6."""
    rng = np.random.default_rng(301)
    for _ in range(20):
        n = int(rng.integers(100, 2000))
        t = Tensor("w", rng.normal(size=n).astype(np.float32))
        layer = ternary_residual(t, 64, epsilon_sq=0.01)
        flat = t.unrolled().astype(np.float64)

        # Walk all blocks depth by depth: row k of each array is block k.
        target = np.zeros((layer.num_blocks, layer.signs.shape[1]))
        target.reshape(-1)[:n] = flat
        acc = np.zeros(target.shape, dtype=np.float32)
        owner, depth = level_index(layer.counts)
        for t in range(int(depth.max()) + 1):
            rows = np.flatnonzero(depth == t)
            blocks = owner[rows]
            before = target[blocks] - acc[blocks].astype(np.float64)
            norm_sq = np.sum(before * before, axis=1)
            level = layer.alphas[rows, None] * layer.signs[rows]
            dense = level.astype(np.float64)
            after = before - dense
            assert np.all(np.abs(np.sum(dense * after, axis=1)) <= 1e-5 * norm_sq)
            pyth = np.sum(dense * dense, axis=1) + np.sum(after * after, axis=1)
            assert np.all(np.abs(pyth - norm_sq) <= 1e-5 * norm_sq)
            acc[blocks] += level
        final = target - acc.astype(np.float64)
        per_block_sq = float(np.sum(final * final))

        whole = flat - reconstruct(layer).unrolled().astype(np.float64)
        total_sq = float(whole @ whole)
        assert abs(total_sq - per_block_sq) <= 1e-6 * max(per_block_sq, 1e-300)
    _report(3, "per-level orthogonality and block-sum identity hold")


def test_criterion_04_block_sensitivity_identity():
    """Sum of squared block sensitivities == layer epsilon^2 (1e-12 rel)."""
    rng = np.random.default_rng(401)
    for _ in range(50):
        n = int(rng.integers(50, 5000))
        t = Tensor("w", rng.normal(size=n).astype(np.float32))
        p = Tensor("p", t.data + rng.normal(
            scale=10.0 ** rng.uniform(-3, 0), size=n).astype(np.float32))
        blocks = partition_blocks(t, int(rng.integers(1, 200)))
        eps = block_sensitivity(t, p, blocks)
        base = t.data.astype(np.float64)
        diff = base - p.data.astype(np.float64)
        eps_sq = float(diff @ diff) / float(base @ base)
        assert abs(float(np.sum(eps * eps)) - eps_sq) <= 1e-12 * eps_sq
    _report(4, "block sensitivity squares sum to the layer value (1e-12)")


def test_criterion_05_table2_reproduction():
    """(64,1,r=0) -> (136,3,1); (64,1,r=1) -> (272,9,2); capacity 9 by
    enumeration with generic scaling factors."""
    assert table2_stats(64, 1, [0]) == (136, 3, 1)
    assert table2_stats(64, 1, [1]) == (272, 9, 2)
    assert enumerate_capacity([[1.0, np.pi / 10]]) == 9
    _report(5, "cost-table rows reproduced; capacity 9 confirmed by enumeration")


def test_criterion_06_abstract_ratio_reproduction():
    """Reported reduction/gain figures reproduced within +-0.05."""
    assert mult_reduction(64, 2.4) == pytest.approx(26.7, abs=0.05)
    assert mult_reduction(64, 2.0) == pytest.approx(32.0, abs=0.05)
    assert size_reduction_vs_88(64, 2.4) == pytest.approx(1.57, abs=0.05)
    assert size_reduction_vs_88(64, 2.0) == pytest.approx(1.88, abs=0.05)
    assert power_perf_gain(5.5, 2.5, 64) == pytest.approx(2.03, abs=0.05)
    assert power_perf_gain(5.5, 2.2, 64) == pytest.approx(2.30, abs=0.05)
    pi_c, pi_m = throughput_gains(5.0, 64, 2.4)
    assert pi_c == pytest.approx(1.93, abs=0.05)
    assert pi_m == pytest.approx(1.64, abs=0.05)
    _report(6, "all eight headline ratios within 0.05 of reported rounding")


def test_criterion_07_decomposed_vs_dense_equivalence():
    """50 random toy nets: level accumulation == dense reconstruction."""
    rng = np.random.default_rng(701)
    for i in range(50):
        manifest, weights = random_net(rng)
        schedule = make_schedule(manifest, "uniform", epsilon_sq=0.02)
        model, _ = convert_model(manifest, weights, 16, schedule)
        x = rng.normal(size=(2,) + manifest.input_shape).astype(np.float32)
        # forward_quantized raises beyond 1e-5 relative disagreement
        forward_quantized(manifest, weights, model, x,
                          act_quant=bool(i % 2))
    _report(7, "50/50 nets: dual inference paths agree within 1e-5")


def test_criterion_08_zero_noise_identity():
    """Exact-ternary weights, activation quantization off: all deltas 0."""
    rng = np.random.default_rng(801)
    manifest, weights = exact_ternary_net(rng, block_size=16)
    schedule = make_schedule(manifest, "uniform", epsilon_sq=0.25)
    model, _ = convert_model(manifest, weights, 16, schedule)
    x = rng.normal(size=(3,) + manifest.input_shape).astype(np.float32)
    _, _, trace = forward_quantized(manifest, weights, model, x, act_quant=False)
    assert all(e.delta == 0.0 for e in trace.entries)
    assert all(e.epsilon == 0.0 for e in trace.entries)
    _report(8, "every layer's measured perturbation is exactly zero")


def test_criterion_09_per_layer_lemma_suite():
    """1000 random perturbation trials per bound: zero violations."""
    rng = np.random.default_rng(901)
    violations = 0
    for _ in range(1000):
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        noise = rng.normal(scale=10.0 ** rng.uniform(-5, 1), size=x.shape)
        xh = (x + noise).astype(np.float32)
        w = rng.normal(size=(5, 72)).astype(np.float32)
        wh = (w + rng.normal(scale=10.0 ** rng.uniform(-4, 0),
                             size=w.shape)).astype(np.float32)
        checks = (
            relu_bound(x, xh),
            maxpool_bound(x, xh, 2, 2),
            avgpool_bound(x, xh, 2, 2),
            matmul_bound(w, wh, x.reshape(1, -1), xh.reshape(1, -1)),
        )
        violations += sum(0 if c.ok else 1 for c in checks)
    assert violations == 0
    _report(9, "4000 bound evaluations over 1000 trials, zero violations")


def test_criterion_10_budget_monotonicity_end_to_end():
    """Seed-0 toy net: tighter uniform budgets strictly shrink the final
    measured perturbation and never shed levels."""
    rng = np.random.default_rng(0)
    manifest, weights = conv_net(rng)
    x = rng.normal(size=(4,) + manifest.input_shape).astype(np.float32)
    finals = []
    levels = []
    for eps in (0.3, 0.1, 0.03, 0.01):
        schedule = make_schedule(manifest, "uniform", epsilon_sq=eps * eps)
        model, _ = convert_model(manifest, weights, 16, schedule)
        _, _, trace = forward_quantized(manifest, weights, model, x)
        finals.append(trace.final_delta)
        levels.append(model.num_levels)
    assert all(a > b for a, b in zip(finals, finals[1:])), finals
    assert all(a <= b for a, b in zip(levels, levels[1:])), levels
    _report(10, f"final deltas {['%.4f' % f for f in finals]} strictly decrease")


def test_criterion_11_margin_check_soundness():
    """100k random l2-ball perturbations never flip a 'safe' argmax."""
    rng = np.random.default_rng(1101)
    total = 0
    flips = 0
    while total < 100_000:
        y = rng.normal(size=8)
        delta = float(rng.uniform(0.05, 1.5))
        if margin_check(y, delta) != "safe":
            continue
        top = int(np.argmax(y))
        u = rng.normal(size=(2000, 8))
        radii = delta * rng.uniform(0.0, 1.0, size=(2000, 1)) ** 0.125
        u *= radii / np.linalg.norm(u, axis=1, keepdims=True)
        flips += int(np.sum(np.argmax(y[None, :] + u, axis=1) != top))
        # structured adversary: trade the leader against the runner-up
        runner = int(np.argsort(-y)[1])
        for gamma in np.linspace(0.0, 1.0, 64):
            adv = y.copy()
            adv[top] -= gamma * delta
            adv[runner] += np.sqrt(1.0 - gamma * gamma) * delta
            flips += int(np.argmax(adv) != top)
            total += 1
        total += 2000
    assert flips == 0
    _report(11, f"{total} perturbations on safe margins, zero argmax flips")


def test_criterion_12_round_trip_and_downgrade(tmp_path):
    """Containers preserve reconstruction bitwise; base-only downgrade
    equals the epsilon=1 conversion structurally."""
    rng = np.random.default_rng(1201)
    manifest, weights = conv_net(rng)
    schedule = make_schedule(manifest, "uniform", epsilon_sq=0.01)
    model, _ = convert_model(manifest, weights, 16, schedule)

    path = tmp_path / "m.tq"
    save_quantized(model, path)
    loaded = load_quantized(path)
    for a, b in zip(model.layers, loaded.layers):
        assert np.array_equal(reconstruct(a).data, reconstruct(b).data)

    base = downgrade(loaded, keep_levels=loaded.num_blocks)
    for layer in base.layers:
        fresh = ternary_residual(weights[layer.layer][0], 16, epsilon=1.0)
        assert layer.levels_per_block() == fresh.levels_per_block()
        base, fresh_base = layer.level_starts(), fresh.level_starts()
        assert np.array_equal(layer.alphas[base], fresh.alphas[fresh_base])
        assert np.array_equal(layer.signs[base], fresh.signs[fresh_base])
    _report(12, "bitwise container round trip; base downgrade == eps=1 run")
