"""End-to-end command-line behavior: artifacts, determinism, exit codes."""

import json
from dataclasses import replace

import numpy as np
import pytest

from ternres import (
    QuantizedModel,
    Tensor,
    convert_model,
    flops_per_layer,
    forward_quantized,
    load_manifest,
    load_quantized,
    load_weights,
    make_schedule,
    save_quantized,
    save_tensor,
    ternary_residual,
)
from ternres import planner
from ternres.tensors import load_tensor
from ternres.cli import main

from nets import conv_net, mlp_net, rewrite_index, write_net


@pytest.fixture()
def net_dir(tmp_path):
    rng = np.random.default_rng(0)
    manifest, weights = conv_net(rng)
    manifest_path = write_net(manifest, weights, tmp_path / "net")
    x = rng.normal(size=manifest.input_shape).astype(np.float32)
    input_path = tmp_path / "net" / "input.npy"
    save_tensor(Tensor("x", x), input_path)
    return tmp_path, manifest_path, str(input_path)


def test_quantize_writes_container_and_report(net_dir, capsys):
    tmp, manifest_path, _ = net_dir
    out = tmp / "net.tq"
    report = tmp / "report.json"
    trace = tmp / "trace.csv"
    code = main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
                 "-o", str(out), "--report", str(report), "--trace", str(trace)])
    assert code == 0
    assert "TOTAL" in capsys.readouterr().out
    model = load_quantized(out)
    assert model.num_levels >= model.num_blocks
    doc = json.loads(report.read_text())
    assert doc["totals"]["levels"] == model.num_levels
    assert trace.read_text().startswith("iteration,layer,block")


def test_quantize_deterministic(net_dir):
    tmp, manifest_path, _ = net_dir
    for tag in ("a", "b"):
        code = main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
                     "-o", str(tmp / f"{tag}.tq")])
        assert code == 0
    assert (tmp / "a.tq").read_bytes() == (tmp / "b.tq").read_bytes()


def test_quantize_missing_weight_exits_1(net_dir, capsys):
    tmp, manifest_path, _ = net_dir
    (tmp / "net" / "conv1.w.npy").unlink()
    code = main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
                 "-o", str(tmp / "x.tq")])
    assert code == 1
    assert "conv1.w.npy" in capsys.readouterr().err


def _drop_first_name(doc):
    del doc["layers"][0]["name"]


def _second_layer_not_an_object(doc):
    doc["layers"][1] = "relu"


def _input_shape_not_a_list(doc):
    doc["input_shape"] = 3


def _stride_not_an_integer(doc):
    doc["layers"][0]["stride"] = "one"


def _weight_not_a_string(doc):
    doc["layers"][0]["weight"] = 5


def _name_not_a_string(doc):
    doc["layers"][0]["name"] = ["conv1"]


def _name_an_integer(doc):
    doc["layers"][2]["name"] = 7


def _kind_unknown(doc):
    doc["layers"][2]["kind"] = "gelu"


def _name_duplicated(doc):
    doc["layers"][2]["name"] = doc["layers"][0]["name"]


def _weight_on_relu(doc):
    doc["layers"][2]["weight"] = doc["layers"][0]["weight"]


def _weight_missing_from_bn(doc):
    del doc["layers"][1]["weight"]


def _stride_zero(doc):
    doc["layers"][0]["stride"] = 0


def _stride_negative(doc):
    doc["layers"][0]["stride"] = -1


def _stride_true(doc):
    doc["layers"][0]["stride"] = True


def _pad_negative(doc):
    doc["layers"][0]["pad"] = -1


def _window_zero(doc):
    doc["layers"][3]["window"] = 0


def _window_negative(doc):
    doc["layers"][3]["window"] = -2


def _input_dimension_zero(doc):
    doc["input_shape"][1] = 0


def _input_dimension_negative(doc):
    doc["input_shape"][0] = -8


@pytest.mark.parametrize("damage", [
    _drop_first_name, _second_layer_not_an_object, _input_shape_not_a_list,
    _stride_not_an_integer, _weight_not_a_string, _name_not_a_string,
    _name_an_integer, _kind_unknown, _name_duplicated, _weight_on_relu,
    _weight_missing_from_bn, _stride_zero, _stride_negative, _stride_true,
    _pad_negative, _window_zero, _window_negative, _input_dimension_zero,
    _input_dimension_negative])
def test_malformed_manifest_exits_1(net_dir, capsys, damage):
    tmp, manifest_path, _ = net_dir
    assert main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
                 "-o", str(tmp / "net.tq")]) == 0
    num_blocks = load_quantized(tmp / "net.tq").num_blocks
    with open(manifest_path, encoding="utf-8") as fp:
        doc = json.load(fp)
    damage(doc)
    with open(manifest_path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
    capsys.readouterr()
    assert main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
                 "-o", str(tmp / "x.tq")]) == 1
    assert "manifest" in capsys.readouterr().err

    rewrite_index(tmp / "net.tq", lambda index: {**index, "manifest": doc})
    assert main(["stats", str(tmp / "net.tq")]) == 1
    assert main(["downgrade", str(tmp / "net.tq"), "--keep-levels", str(num_blocks),
                 "-o", str(tmp / "out.tq")]) == 1
    assert "manifest" in capsys.readouterr().err
    assert not (tmp / "out.tq").exists()


def test_quantize_non_convergence_exits_2(net_dir, capsys):
    tmp, manifest_path, _ = net_dir
    code = main(["quantize", "-m", manifest_path, "-N", "16",
                 "--eps-sq", "1e-12", "--r-max", "2", "-o", str(tmp / "x.tq")])
    assert code == 2
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("option, message", [
    (["--x", "nan"], "x must be"), (["--x", "0"], "x must be"),
    (["--c-ratio", "1"], "c_ratio must be"),
], ids=["x-nan", "x-0", "c-ratio-1"])
def test_quantize_rejects_bad_x_or_c_before_converting(tmp_path, capsys, monkeypatch,
                                                       option, message):
    path = write_net(*mlp_net(np.random.default_rng(1)), tmp_path / "net")

    def convert(*args, **kwargs):
        raise AssertionError("a layer was converted")

    monkeypatch.setattr(planner, "ternary_residual", convert)
    assert main(["quantize", "-m", path, "-N", "16", "--eps", "0.1", *option,
                 "-o", str(tmp_path / "q.tq")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "q.tq").exists()


@pytest.mark.parametrize("argv, message", [
    (["quantize", "-m", "net.json", "-o", "q.tq"], "uniform mode needs --eps or --eps-sq"),
    (["stats"], "give a container, --n, or --pi"),
    (["downgrade", "net.tq", "-o", "d.tq"],
     "give exactly one of --keep-levels or --target-compute"),
    (["downgrade", "net.tq", "--keep-levels", "3", "--target-compute", "1.5", "-o", "d.tq"],
     "give exactly one of --keep-levels or --target-compute"),
    (["lemma-check", "net.tq", "-m", "net.json"], "container mode needs -m and -i"),
    (["lemma-check", "--trials", "0"], "the number of trials must be at least 1, got 0"),
    (["lemma-check", "--trials", "-5"], "the number of trials must be at least 1, got -5"),
], ids=["quantize", "stats", "downgrade-none", "downgrade-both", "lemma-check",
        "lemma-check-no-trials", "lemma-check-negative-trials"])
def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("mode", ["depth_graded", "compute_aware"])
def test_quantize_mode_matches_the_library(net_dir, mode):
    tmp, manifest_path, _ = net_dir
    assert main(["quantize", "-m", manifest_path, "-N", "16", "--mode", mode,
                 "-o", str(tmp / "cli.tq")]) == 0
    manifest = load_manifest(manifest_path)
    weights = load_weights(manifest)
    flops = flops_per_layer(manifest, {n: weights[n][0].shape for n in weights})
    schedule = make_schedule(manifest, mode, flops=flops)
    save_quantized(convert_model(manifest, weights, 16, schedule)[0], tmp / "lib.tq")
    assert (tmp / "cli.tq").read_bytes() == (tmp / "lib.tq").read_bytes()


def test_quantize_cap_bounds_depth_graded(net_dir):
    tmp, manifest_path, _ = net_dir
    assert main(["quantize", "-m", manifest_path, "-N", "16", "--mode", "depth_graded",
                 "--cap", "0.02", "-o", str(tmp / "capped.tq")]) == 0
    epsilon_sq = load_quantized(tmp / "capped.tq").provenance["epsilon_sq"]
    assert len(epsilon_sq) == 4
    assert all(value <= 0.02 for value in epsilon_sq.values())


def test_quantize_scales_flag(net_dir):
    tmp, manifest_path, _ = net_dir
    code = main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
                 "--quantize-scales", "-o", str(tmp / "q8.tq")])
    assert code == 0
    model = load_quantized(tmp / "q8.tq")
    assert model.provenance.get("scales_8bit") is True
    for layer in model.layers:
        alphas = layer.alphas[layer.alphas > 0].astype(np.float64).tolist()
        if not alphas:
            continue
        amax = max(alphas)
        e = int(np.ceil(np.log2(amax / 127.0)))
        while amax > 127.0 * 2.0 ** e:
            e += 1
        while amax <= 127.0 * 2.0 ** (e - 1):
            e -= 1
        # every scale sits on the layer's shared power-of-two 8-bit grid
        for a in alphas:
            q = a / 2.0 ** e
            assert abs(q - round(q)) < 1e-6
            assert 1 <= round(q) <= 127


def test_quantize_scales_report_keeps_flop_weighting(net_dir, capsys):
    tmp, manifest_path, _ = net_dir
    report = tmp / "report.json"
    assert main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
                 "--quantize-scales", "-o", str(tmp / "q8.tq"),
                 "--report", str(report)]) == 0
    assert "FLOP-weighted compute factor" in capsys.readouterr().out
    weighted = json.loads(report.read_text())["totals"]["compute_factor_weighted"]
    assert weighted is not None and weighted >= 1.0


def test_stats_closed_form(capsys):
    assert main(["stats", "--n", "64", "--k", "1", "--r", "1"]) == 0
    out = capsys.readouterr().out
    assert "272" in out and "9" in out


def test_stats_pi(capsys):
    assert main(["stats", "--pi", "--c", "5", "--N", "64",
                 "--levels", "2.4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pi_c"] == pytest.approx(1.93, abs=0.05)
    assert doc["pi_m"] == pytest.approx(1.64, abs=0.05)


def test_stats_on_container(net_dir, capsys):
    tmp, manifest_path, _ = net_dir
    main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
          "-o", str(tmp / "net.tq")])
    capsys.readouterr()
    assert main(["stats", str(tmp / "net.tq"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["totals"]["blocks_factor"] >= 1.0
    assert doc["totals"]["power_perf_gain"] > 0


@pytest.mark.parametrize("option", [["--c", "1"], ["--c", "0.5"], ["--x", "0"],
                                    ["--x", "nan"], ["--c", "nan"], ["--x", "inf"]])
def test_stats_rejects_bad_x_or_c_exit_2(net_dir, capsys, option):
    tmp, manifest_path, _ = net_dir
    assert main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
                 "-o", str(tmp / "net.tq")]) == 0
    save_quantized(QuantizedModel({}, (), {}), tmp / "empty.tq")
    for path in ("net.tq", "empty.tq"):
        capsys.readouterr()
        assert main(["stats", str(tmp / path), *option]) == 2
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--n", "-5"], ["--n", "0"], ["--pi", "--c", "nan"],
                                    ["--pi", "--levels", "nan"], ["--pi", "--c", "inf"]])
def test_stats_rejects_bad_closed_form_input_exit_2(capsys, option):
    assert main(["stats", *option]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("names", [("fc[1]", "fc2"), ("fc*", "fc2")])
def test_quantize_matches_layer_names_exactly(tmp_path, names):
    manifest, weights = mlp_net(np.random.default_rng(3))
    rename = dict(zip(("fc1", "fc2"), names))
    manifest = replace(manifest, layers=tuple(
        replace(l, name=rename.get(l.name, l.name)) for l in manifest.layers))
    path = write_net(manifest, {rename[n]: w for n, w in weights.items()}, tmp_path / "net")
    for mode in (["--eps", "0.1"], ["--mode", "depth_graded"], ["--mode", "compute_aware"]):
        assert main(["quantize", "-m", path, "-N", "16", *mode,
                     "-o", str(tmp_path / "q.tq")]) == 0
        assert sorted(load_quantized(tmp_path / "q.tq").provenance["epsilon_sq"]) == sorted(names)


def test_downgrade_roundtrip(net_dir, capsys):
    tmp, manifest_path, _ = net_dir
    main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.05",
          "-o", str(tmp / "net.tq")])
    model = load_quantized(tmp / "net.tq")
    assert main(["downgrade", str(tmp / "net.tq"),
                 "--keep-levels", str(model.num_blocks),
                 "-o", str(tmp / "base.tq")]) == 0
    base = load_quantized(tmp / "base.tq")
    assert base.num_levels == base.num_blocks

    factor = model.num_levels / model.num_blocks
    if factor > 1.2:
        assert main(["downgrade", str(tmp / "net.tq"),
                     "--target-compute", "1.2",
                     "-o", str(tmp / "mid.tq")]) == 0
        mid = load_quantized(tmp / "mid.tq")
        assert mid.num_levels / mid.num_blocks <= 1.2


def test_downgrade_report_keeps_flop_weighting(net_dir, capsys):
    tmp, manifest_path, _ = net_dir
    main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.05",
          "-o", str(tmp / "net.tq")])
    capsys.readouterr()
    assert main(["downgrade", str(tmp / "net.tq"), "--target-compute", "1.2",
                 "-o", str(tmp / "mid.tq")]) == 0
    downgraded = capsys.readouterr().out.splitlines()
    assert main(["stats", str(tmp / "mid.tq")]) == 0
    stats = capsys.readouterr().out.splitlines()
    line = [l for l in stats if l.startswith("FLOP-weighted compute factor")]
    assert len(line) == 1
    assert line[0] in downgraded


def test_downgrade_report_prices_with_given_x_and_c(net_dir, capsys):
    tmp, manifest_path, _ = net_dir
    main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.05",
          "-o", str(tmp / "net.tq")])
    capsys.readouterr()
    assert main(["downgrade", str(tmp / "net.tq"), "--target-compute", "1.2",
                 "--x", "32", "--c-ratio", "2.5", "-o", str(tmp / "mid.tq")]) == 0
    downgraded = capsys.readouterr().out
    assert main(["stats", str(tmp / "mid.tq")]) == 0
    assert capsys.readouterr().out != downgraded
    assert main(["stats", str(tmp / "mid.tq"), "--x", "32", "--c", "2.5"]) == 0
    assert capsys.readouterr().out == downgraded


def test_downgrade_below_base_exits_2(net_dir, capsys):
    tmp, manifest_path, _ = net_dir
    main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
          "-o", str(tmp / "net.tq")])
    model = load_quantized(tmp / "net.tq")
    code = main(["downgrade", str(tmp / "net.tq"),
                 "--keep-levels", str(model.num_blocks - 1),
                 "-o", str(tmp / "bad.tq")])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["downgrade", "net.tq", "--target-compute", "nan", "-o", "out.tq"],
     "target factor must be finite, got nan"),
    (["downgrade", "net.tq", "--target-compute", "inf", "-o", "out.tq"],
     "target factor must be finite, got inf"),
    (["quantize", "-m", "MANIFEST", "-N", "16", "--mode", "depth_graded", "--cap", "nan",
      "-o", "out.tq"], "cap must be a number above 0, got nan"),
    (["infer", "net.tq", "-m", "MANIFEST", "-i", "INPUT", "--margin", "nan",
      "--logits", "out.npy"], "delta must be non-negative, got nan"),
    (["downgrade", "net.tq", "--keep-levels", "40", "--x", "nan", "-o", "out.tq"],
     "x must be a finite number above 0, got nan"),
    (["downgrade", "net.tq", "--keep-levels", "40", "--x", "inf", "-o", "out.tq"],
     "x must be a finite number above 0, got inf"),
    (["downgrade", "net.tq", "--keep-levels", "40", "--x", "0", "-o", "out.tq"],
     "x must be a finite number above 0, got 0.0"),
    (["downgrade", "net.tq", "--keep-levels", "40", "--c-ratio", "nan", "-o", "out.tq"],
     "c_ratio must be a finite number above 1, got nan"),
    (["downgrade", "net.tq", "--keep-levels", "40", "--c-ratio", "-1", "-o", "out.tq"],
     "c_ratio must be a finite number above 1, got -1.0"),
], ids=["downgrade-nan", "downgrade-inf", "quantize-cap-nan", "infer-margin-nan",
        "downgrade-x-nan", "downgrade-x-inf", "downgrade-x-0", "downgrade-c-nan",
        "downgrade-c-negative"])
def test_non_finite_numbers_exit_2_without_output(net_dir, capsys, monkeypatch, argv,
                                                   message):
    tmp, manifest_path, input_path = net_dir
    assert main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
                 "-o", str(tmp / "net.tq")]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp)
    names = {"MANIFEST": manifest_path, "INPUT": input_path}
    assert main([names.get(a, a) for a in argv]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")
    assert not list(tmp.glob("out.*"))


def test_infer_trace_and_lemma_check(net_dir, capsys, tmp_path):
    tmp, manifest_path, input_path = net_dir
    main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
          "-o", str(tmp / "net.tq")])
    capsys.readouterr()

    logits_path = tmp / "logits.npy"
    assert main(["infer", str(tmp / "net.tq"), "-m", manifest_path,
                 "-i", input_path, "--logits", str(logits_path),
                 "--margin", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "final relative perturbation" in out
    assert "margin check" in out
    assert load_tensor(logits_path).data.size > 0

    csv_path = tmp / "trace.csv"
    json_path = tmp / "trace.json"
    assert main(["trace", str(tmp / "net.tq"), "-m", manifest_path,
                 "-i", input_path, "--act-quant",
                 "--csv", str(csv_path), "--json-out", str(json_path)]) == 0
    assert csv_path.read_text().startswith("layer,name,kind")
    doc = json.loads(json_path.read_text())
    assert doc["trace"][0]["delta"] == 0.0

    assert main(["lemma-check", str(tmp / "net.tq"), "-m", manifest_path,
                 "-i", input_path]) == 0
    assert "ok" in capsys.readouterr().out


def test_depth_sensitivity_uses_container_block_size(net_dir, capsys):
    tmp, manifest_path, input_path = net_dir
    main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
          "-o", str(tmp / "net.tq")])
    capsys.readouterr()
    assert main(["trace", str(tmp / "net.tq"), "-m", manifest_path,
                 "-i", input_path, "--depth-sensitivity", "0.02"]) == 0
    out = capsys.readouterr().out

    manifest = load_manifest(manifest_path)
    weights = load_weights(manifest)
    x = load_tensor(input_path).data[None, ...]

    def report_line(block_size):
        q = ternary_residual(weights["conv1"][0], block_size, epsilon_sq=0.02)
        _, _, trace = forward_quantized(manifest, weights, QuantizedModel({}, (q,), {}), x)
        return (f"quantizing only the first parametric layer (conv1) at "
                f"eps^2=0.02: final delta {trace.final_delta:.6g}")

    assert report_line(16) in out
    assert report_line(64) not in out


def test_depth_sensitivity_without_block_size_exits_1(net_dir, capsys):
    tmp, manifest_path, input_path = net_dir
    main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.1",
          "-o", str(tmp / "net.tq")])
    model = load_quantized(tmp / "net.tq")
    save_quantized(QuantizedModel(model.manifest_doc, model.layers, {}),
                   tmp / "bare.tq")
    capsys.readouterr()
    assert main(["trace", str(tmp / "bare.tq"), "-m", manifest_path,
                 "-i", input_path, "--depth-sensitivity", "0.02"]) == 1
    assert "block size" in capsys.readouterr().err


def test_lemma_check_random_trials(capsys):
    assert main(["lemma-check", "--trials", "50", "--seed", "3"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_zero_noise_trace_all_zero(tmp_path, capsys):
    from nets import exact_ternary_net

    rng = np.random.default_rng(1)
    manifest, weights = exact_ternary_net(rng, block_size=16)
    manifest_path = write_net(manifest, weights, tmp_path / "net")
    x = rng.normal(size=manifest.input_shape).astype(np.float32)
    save_tensor(Tensor("x", x), tmp_path / "net" / "input.npy")
    main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.5",
          "-o", str(tmp_path / "net.tq")])
    capsys.readouterr()
    assert main(["trace", str(tmp_path / "net.tq"), "-m", manifest_path,
                 "-i", str(tmp_path / "net" / "input.npy"),
                 "--csv", str(tmp_path / "t.csv")]) == 0
    rows = (tmp_path / "t.csv").read_text().strip().splitlines()[1:]
    assert all(float(r.split(",")[3]) == 0.0 for r in rows)


def test_schedule_file_flag(net_dir, tmp_path):
    tmp, manifest_path, _ = net_dir
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps([
        {"pattern": "conv*", "epsilon_sq": 0.01},
        {"pattern": "bn*", "epsilon_sq": 0.02},
        {"pattern": "fc*", "epsilon_sq": 0.05},
    ]))
    assert main(["quantize", "-m", manifest_path, "-N", "16",
                 "--schedule", str(sched), "-o", str(tmp / "s.tq")]) == 0
    model = load_quantized(tmp / "s.tq")
    assert model.layer("conv1").epsilon_sq == 0.01
    assert model.layer("fc1").epsilon_sq == 0.05


def test_mlp_roundtrip_with_batch_input(tmp_path, capsys):
    rng = np.random.default_rng(2)
    manifest, weights = mlp_net(rng)
    manifest_path = write_net(manifest, weights, tmp_path / "net")
    batch = rng.normal(size=(3, 48)).astype(np.float32)
    save_tensor(Tensor("x", batch), tmp_path / "net" / "batch.npy")
    main(["quantize", "-m", manifest_path, "-N", "16", "--eps", "0.2",
          "-o", str(tmp_path / "net.tq")])
    capsys.readouterr()
    assert main(["infer", str(tmp_path / "net.tq"), "-m", manifest_path,
                 "-i", str(tmp_path / "net" / "batch.npy"),
                 "--logits", str(tmp_path / "y.npy")]) == 0
    assert load_tensor(tmp_path / "y.npy").shape == (3, 8)
