"""Tolerance schedules, FLOP counting, and whole-model conversion."""

import json
from dataclasses import replace

import numpy as np
import pytest

from ternres import (
    ConvergenceError,
    LayerDecl,
    ModelManifest,
    QuantizedModel,
    Tensor,
    convert_model,
    flops_per_layer,
    make_schedule,
    save_quantized,
)
from ternres.planner import BudgetSchedule, ScheduleEntry, load_schedule, model_flops

from nets import conv_net, mlp_net, random_net


class TestFlops:
    def test_fc(self):
        manifest = ModelManifest(
            (LayerDecl("fc", "fc", weight_ref="w"),), input_shape=(20,))
        flops = flops_per_layer(manifest, {"fc": (10, 20)})
        assert flops["fc"] == 200

    def test_conv(self):
        manifest = ModelManifest(
            (LayerDecl("c", "conv2d", weight_ref="w",
                       hyperparams={"stride": 1, "pad": 0}),),
            input_shape=(2, 7, 7))
        flops = flops_per_layer(manifest, {"c": (4, 2, 3, 3)})
        assert flops["c"] == 25 * 9 * 2 * 4

    def test_pool_and_relu_free(self):
        rng = np.random.default_rng(0)
        manifest, weights = conv_net(rng)
        shapes = {n: weights[n][0].shape for n in weights}
        flops = flops_per_layer(manifest, shapes)
        assert flops["relu1"] == 0 and flops["pool1"] == 0 and flops["pool2"] == 0
        total = sum(flops.values())
        assert total == sum(flops[n] for n in flops)

    def test_unresolvable_shapes_rejected(self):
        manifest = ModelManifest(
            (LayerDecl("fc", "fc", weight_ref="w"),))  # no input shape
        with pytest.raises(ValueError, match="input shape"):
            flops_per_layer(manifest, {"fc": (10, 20)})

    def test_model_flops_reads_the_stored_manifest(self):
        manifest, weights = conv_net(np.random.default_rng(8))
        schedule = make_schedule(manifest, "uniform", epsilon_sq=0.05)
        model, _ = convert_model(manifest, weights, 16, schedule)
        shapes = {n: weights[n][0].shape for n in weights}
        assert model_flops(model) == flops_per_layer(manifest, shapes)
        assert model_flops(QuantizedModel({}, model.layers, {})) is None
        # The stored manifest names a layer the model does not hold, or one of
        # the wrong rank.
        assert model_flops(QuantizedModel(model.manifest_doc, model.layers[1:], {})) is None
        scalar_bn = tuple(replace(l, shape=()) if l.layer == "bn1" else l for l in model.layers)
        assert model_flops(QuantizedModel(model.manifest_doc, scalar_bn, {})) is None


class TestSchedules:
    def test_uniform(self):
        manifest, _ = mlp_net(np.random.default_rng(1))
        schedule = make_schedule(manifest, "uniform", epsilon_sq=0.01)
        assert schedule.epsilon_sq_for("fc1") == 0.01
        assert schedule.epsilon_sq_for("fc2") == 0.01

    def test_depth_graded_non_decreasing(self):
        rng = np.random.default_rng(2)
        manifest, _ = conv_net(rng)
        schedule = make_schedule(manifest, "depth_graded", lo=0.005, hi=0.06)
        values = [
            schedule.epsilon_sq_for(l.name) for l in manifest.parametric_layers()
        ]
        assert values[0] == 0.005
        assert values[-1] == 0.06
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_compute_aware_heavy_layers_get_looser(self):
        rng = np.random.default_rng(3)
        manifest, weights = conv_net(rng)
        shapes = {n: weights[n][0].shape for n in weights}
        flops = flops_per_layer(manifest, shapes)
        schedule = make_schedule(manifest, "compute_aware", lo=0.004, hi=0.05,
                                 flops=flops)
        names = [l.name for l in manifest.parametric_layers()]
        heavy = max(names, key=lambda n: flops[n])
        light = min(names, key=lambda n: flops[n])
        assert schedule.epsilon_sq_for(heavy) >= schedule.epsilon_sq_for(light)
        # constructed contrast: 10x flops means a budget at least as loose
        for a in names:
            for b in names:
                if flops[a] >= 10 * flops[b]:
                    assert schedule.epsilon_sq_for(a) >= schedule.epsilon_sq_for(b)

    def test_compute_aware_cap(self):
        rng = np.random.default_rng(4)
        manifest, weights = conv_net(rng)
        shapes = {n: weights[n][0].shape for n in weights}
        flops = flops_per_layer(manifest, shapes)
        schedule = make_schedule(manifest, "compute_aware", lo=0.004, hi=0.08,
                                 cap=0.02, flops=flops)
        for l in manifest.parametric_layers():
            assert schedule.epsilon_sq_for(l.name) <= 0.02

    def test_out_of_range_rejected(self):
        manifest, _ = mlp_net(np.random.default_rng(5))
        with pytest.raises(ValueError):
            make_schedule(manifest, "uniform", epsilon_sq=0.0)
        with pytest.raises(ValueError):
            make_schedule(manifest, "uniform", epsilon_sq=1.5)
        with pytest.raises(ValueError):
            make_schedule(manifest, "depth_graded", lo=0.1, hi=0.01)

    def test_every_layer_needs_exactly_one_entry(self):
        manifest, _ = mlp_net(np.random.default_rng(6))
        overlapping = BudgetSchedule((ScheduleEntry("fc*", 0.01), ScheduleEntry("fc1", 0.02)))
        with pytest.raises(ValueError, match="matched 2"):
            overlapping.validate_against(manifest)
        with pytest.raises(ValueError, match="matched 0"):
            BudgetSchedule((ScheduleEntry("fc1", 0.01),)).validate_against(manifest)

    def test_schedule_file_round_trip(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(
            [{"pattern": "fc*", "epsilon_sq": 0.02}]))
        schedule = load_schedule(path)
        assert schedule.epsilon_sq_for("fc1") == 0.02


class TestConvertModel:
    def test_epsilon_one_gives_base_ternary(self):
        rng = np.random.default_rng(7)
        manifest, weights = mlp_net(rng)
        schedule = make_schedule(manifest, "uniform", epsilon_sq=1.0)
        model, report = convert_model(manifest, weights, 16, schedule)
        assert report.blocks_factor == 1.0
        assert all(np.all(l.counts == 1) for l in model.layers)

    def test_budgets_respected(self):
        rng = np.random.default_rng(8)
        manifest, weights = conv_net(rng)
        schedule = make_schedule(manifest, "depth_graded", lo=0.004, hi=0.05)
        model, _ = convert_model(manifest, weights, 16, schedule)
        for l in model.layers:
            assert l.delta <= schedule.epsilon_sq_for(l.layer)

    def test_tightening_never_reduces_levels(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            manifest, weights = random_net(rng)
            loose = make_schedule(manifest, "uniform", epsilon_sq=0.05)
            tight = make_schedule(manifest, "uniform", epsilon_sq=0.01)
            m_loose, _ = convert_model(manifest, weights, 16, loose)
            m_tight, _ = convert_model(manifest, weights, 16, tight)
            assert m_tight.num_levels >= m_loose.num_levels

    def test_deterministic_containers(self, tmp_path):
        rng = np.random.default_rng(10)
        manifest, weights = conv_net(rng)
        schedule = make_schedule(manifest, "uniform", epsilon_sq=0.01)
        paths = []
        for tag in ("a", "b"):
            model, _ = convert_model(manifest, weights, 16, schedule)
            path = tmp_path / f"{tag}.tq"
            save_quantized(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_non_convergence_names_layer(self):
        rng = np.random.default_rng(11)
        manifest, weights = mlp_net(rng)
        schedule = make_schedule(manifest, "uniform", epsilon_sq=1e-12)
        with pytest.raises(ConvergenceError) as info:
            convert_model(manifest, weights, 16, schedule, r_max=2)
        assert info.value.layer in ("fc1", "fc2")
        assert info.value.delta > 1e-12

    def test_repeated_conversions_save_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(12)
        manifest, weights = conv_net(rng)
        schedule = make_schedule(manifest, "uniform", epsilon_sq=0.01)
        for tag in ("first", "second"):
            model, _ = convert_model(manifest, weights, 16, schedule)
            save_quantized(model, tmp_path / f"{tag}.tq")
        assert (tmp_path / "first.tq").read_bytes() == (
            tmp_path / "second.tq").read_bytes()

    def test_report_weighted_factor_present_with_shapes(self):
        rng = np.random.default_rng(13)
        manifest, weights = conv_net(rng)
        schedule = make_schedule(manifest, "uniform", epsilon_sq=0.01)
        _, report = convert_model(manifest, weights, 16, schedule)
        assert report.compute_factor_weighted is not None
        assert report.compute_factor_weighted > 0
