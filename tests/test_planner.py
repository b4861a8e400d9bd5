"""Tolerance schedules, FLOP counting, and whole-model conversion."""

import json
from dataclasses import replace

import numpy as np
import pytest

from ternres import (
    ConvergenceError,
    FormatError,
    LayerDecl,
    ModelManifest,
    QuantizedModel,
    Tensor,
    convert_model,
    downgrade,
    flops_per_layer,
    load_quantized,
    make_schedule,
    save_quantized,
)
from ternres.costs import model_flops
from ternres.planner import load_schedule

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
        assert schedule.epsilon_sq["fc1"] == 0.01
        assert schedule.epsilon_sq["fc2"] == 0.01

    def test_depth_graded_non_decreasing(self):
        rng = np.random.default_rng(2)
        manifest, _ = conv_net(rng)
        schedule = make_schedule(manifest, "depth_graded", lo=0.005, hi=0.06)
        values = [
            schedule.epsilon_sq[l.name] for l in manifest.parametric_layers()
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
        assert schedule.epsilon_sq[heavy] >= schedule.epsilon_sq[light]
        # constructed contrast: 10x flops means a budget at least as loose
        for a in names:
            for b in names:
                if flops[a] >= 10 * flops[b]:
                    assert schedule.epsilon_sq[a] >= schedule.epsilon_sq[b]

    def test_compute_aware_cap(self):
        rng = np.random.default_rng(4)
        manifest, weights = conv_net(rng)
        shapes = {n: weights[n][0].shape for n in weights}
        flops = flops_per_layer(manifest, shapes)
        schedule = make_schedule(manifest, "compute_aware", lo=0.004, hi=0.08,
                                 cap=0.02, flops=flops)
        for l in manifest.parametric_layers():
            assert schedule.epsilon_sq[l.name] <= 0.02

    def test_depth_graded_cap(self):
        manifest, _ = conv_net(np.random.default_rng(4))
        schedule = make_schedule(manifest, "depth_graded", lo=0.01, hi=0.05, cap=0.02)
        assert list(schedule.epsilon_sq.values()) == [0.01, 0.02, 0.02, 0.02]

    def test_float32_bounds_give_the_python_float_ladder(self):
        # The bounds keep their float32 values, but no rung is rounded to float32.
        manifest, weights = conv_net(np.random.default_rng(4))
        flops = flops_per_layer(manifest, {n: weights[n][0].shape for n in weights})
        for mode in ("depth_graded", "compute_aware"):
            for bounds in ({"lo": 0.004, "hi": 0.05}, {"lo": 0.004, "hi": 0.05, "cap": 0.02}):
                f32 = {k: np.float32(v) for k, v in bounds.items()}
                got = make_schedule(manifest, mode, flops=flops, **f32).epsilon_sq
                want = make_schedule(manifest, mode, flops=flops,
                                     **{k: float(v) for k, v in f32.items()}).epsilon_sq
                assert got == want
                assert {type(e) for e in got.values()} == {float}
                assert any(float(np.float32(e)) != e for e in got.values())

    def test_out_of_range_rejected(self):
        manifest, _ = mlp_net(np.random.default_rng(5))
        with pytest.raises(ValueError):
            make_schedule(manifest, "uniform", epsilon_sq=0.0)
        with pytest.raises(ValueError):
            make_schedule(manifest, "uniform", epsilon_sq=1.5)
        with pytest.raises(ValueError):
            make_schedule(manifest, "depth_graded", lo=0.1, hi=0.01)
        for cap in (float("nan"), 0.0, -0.02):
            with pytest.raises(ValueError, match=f"cap must be a number above 0, got {cap}"):
                make_schedule(manifest, "depth_graded", cap=cap)

    def test_every_layer_needs_exactly_one_entry(self, tmp_path):
        manifest, _ = mlp_net(np.random.default_rng(6))
        path = tmp_path / "sched.json"
        path.write_text(json.dumps([{"pattern": "fc*", "epsilon_sq": 0.01},
                                    {"pattern": "fc1", "epsilon_sq": 0.02}]))
        with pytest.raises(ValueError, match="matched 2"):
            load_schedule(path, manifest)
        path.write_text(json.dumps([{"pattern": "fc1", "epsilon_sq": 0.01}]))
        with pytest.raises(ValueError, match="matched 0"):
            load_schedule(path, manifest)

    @pytest.mark.parametrize("entry", [
        {"pattern": "fc*", "epsilon_sq": "0.02"},
        {"pattern": "fc*", "epsilon_sq": True},
        {"pattern": ["fc*"], "epsilon_sq": 0.02},
        {"pattern": "fc*", "epsilon_sq": "abc"},
    ])
    def test_schedule_entry_types_are_a_format_error(self, tmp_path, entry):
        manifest, _ = mlp_net(np.random.default_rng(6))
        path = tmp_path / "sched.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(FormatError, match="schedule entry"):
            load_schedule(path, manifest)

    def test_schedule_file_round_trip(self, tmp_path):
        manifest, _ = mlp_net(np.random.default_rng(6))
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(
            [{"pattern": "fc*", "epsilon_sq": 0.02}]))
        schedule = load_schedule(path, manifest)
        assert schedule.epsilon_sq == {"fc1": 0.02, "fc2": 0.02}


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
            assert l.delta <= schedule.epsilon_sq[l.layer]

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

    def test_schedule_for_another_manifest_names_the_layer(self):
        rng = np.random.default_rng(14)
        mlp, _ = mlp_net(rng)
        manifest, weights = conv_net(rng)
        schedule = make_schedule(mlp, "uniform", epsilon_sq=0.01)
        with pytest.raises(ValueError, match="conv1"):
            convert_model(manifest, weights, 16, schedule)

    def test_numpy_scalars_are_stored_as_python_numbers(self, tmp_path):
        # numpy scalars pass every count and range check, and JSON cannot
        # encode them: the provenance, the layers and the report hold Python
        # numbers instead.
        manifest, weights = mlp_net(np.random.default_rng(15))
        for schedule in (
                make_schedule(manifest, "uniform", epsilon_sq=np.float32(0.01)),
                make_schedule(manifest, "depth_graded", lo=np.float32(0.004),
                              hi=np.float32(0.05))):
            assert {type(e) for e in schedule.epsilon_sq.values()} == {float}
            model, report = convert_model(manifest, weights, np.int64(16), schedule,
                                          r_max=np.int64(8))
            assert {type(r["N"]) for r in report.to_dict()["layers"]} == {int}
            json.dumps(report.to_dict())
            small = downgrade(model, keep_levels=np.int64(model.num_blocks + 3))
            for m in (model, small):
                assert {type(l.block_size) for l in m.layers} == {int}
                types = {k: type(v) for k, v in m.provenance.items() if k != "epsilon_sq"}
                assert types == {"N": int, "r_max": int, "schedule_mode": str,
                                 **({"downgraded_to_levels": int} if m is small else {})}
                assert {type(e) for e in m.provenance["epsilon_sq"].values()} == {float}
                save_quantized(m, tmp_path / "m.tq")
                assert load_quantized(tmp_path / "m.tq").provenance == m.provenance

    def test_report_weighted_factor_present_with_shapes(self):
        rng = np.random.default_rng(13)
        manifest, weights = conv_net(rng)
        schedule = make_schedule(manifest, "uniform", epsilon_sq=0.01)
        _, report = convert_model(manifest, weights, 16, schedule)
        assert report.compute_factor_weighted is not None
        assert report.compute_factor_weighted > 0


def test_make_schedule_rejects_what_it_cannot_build():
    manifest, _ = mlp_net(np.random.default_rng(6))
    with pytest.raises(ValueError, match="no parametric layers"):
        make_schedule(ModelManifest((LayerDecl("relu", "relu"),)), "uniform", epsilon_sq=0.01)
    with pytest.raises(ValueError, match="uniform schedule needs epsilon_sq"):
        make_schedule(manifest, "uniform")
    with pytest.raises(ValueError, match="compute_aware schedule needs per-layer flops"):
        make_schedule(manifest, "compute_aware")
    with pytest.raises(ValueError, match="unknown schedule mode 'graded'"):
        make_schedule(manifest, "graded")


@pytest.mark.parametrize("raw, match", [
    (b"[{", "invalid JSON"),
    (b'[{"pattern": "fc*", "epsilon_sq": 0.01, "note": "\xff"}]', "invalid JSON"),
    (b'[{"pattern": "fc*"}]', "need 'pattern' and 'epsilon_sq'"),
    (b"3", "need 'pattern' and 'epsilon_sq'"),
], ids=["truncated", "not-utf8", "no-epsilon_sq", "not-a-list"])
def test_an_unreadable_schedule_is_a_format_error(tmp_path, raw, match):
    manifest, _ = mlp_net(np.random.default_rng(6))
    path = tmp_path / "sched.json"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=f"^{path}: .*{match}"):
        load_schedule(path, manifest)
