"""Exact stdout of `ternres` paths that tests/test_cli.py reads only loosely,
the module entry point, and files that cannot be decoded."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ternres import LayerDecl, ModelManifest, Tensor, save_tensor
from ternres.cli import main

from nets import mlp_net, write_net

CLOSED_FORM_TEXT = ("model size:      272 bits\n"
                    "model capacity:  9\n"
                    "scaling factors: 2\n")


@pytest.mark.parametrize("argv, stdout", [
    (["--pi"], "pi_c = 4.6377\npi_m = 3.9385\n"),
    (["--pi", "--c", "5", "--N", "64", "--levels", "2.4"], "pi_c = 1.9324\npi_m = 1.6410\n"),
    (["--pi", "--json"],
     '{\n  "N": 64,\n  "c_ratio": 5.0,\n  "levels": 1.0,\n'
     '  "pi_c": 4.63768115942029,\n  "pi_m": 3.9384615384615387\n}\n'),
    (["--n", "64", "--k", "1", "--r", "1"], CLOSED_FORM_TEXT),
    (["--n", "64", "--k", "1", "--r", "1", "--json"],
     '{\n  "capacity": 9,\n  "k": 1,\n  "model_size_bits": 272.0,\n  "n": 64,\n'
     '  "r": 1,\n  "scaling_factors": 2\n}\n'),
    (["--n", "64", "--k", "3", "--r", "2", "--json"],
     '{\n  "capacity": 79,\n  "k": 3,\n  "model_size_bits": 456.0,\n  "n": 64,\n'
     '  "r": 2,\n  "scaling_factors": 9\n}\n'),
    # --pi wins over a container and over --n, which the container never reaches.
    (["missing.tq", "--pi", "--n", "64"], "pi_c = 4.6377\npi_m = 3.9385\n"),
], ids=["pi-text", "pi-text-options", "pi-json", "closed-form-text", "closed-form-json",
        "closed-form-json-k3", "pi-first"])
def test_stats_stdout_is_pinned(capsys, argv, stdout):
    assert main(["stats", *argv]) == 0
    assert capsys.readouterr() == (stdout, "")


def test_module_entry_point_runs_stats():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "ternres.cli", "stats", "--n", "64", "--k", "1", "--r", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, CLOSED_FORM_TEXT, "")


def test_depth_sensitivity_with_one_parametric_layer(tmp_path, capsys):
    rng = np.random.default_rng(2)
    manifest = ModelManifest((LayerDecl("fc1", "fc", weight_ref="fc1.w.npy"),
                              LayerDecl("relu1", "relu")), input_shape=(24,))
    weights = {"fc1": (Tensor("fc1", rng.normal(size=(6, 24)).astype(np.float32)), None)}
    manifest_path = write_net(manifest, weights, tmp_path / "net")
    input_path = str(tmp_path / "x.npy")
    save_tensor(Tensor("x", rng.normal(size=(24,)).astype(np.float32)), input_path)
    assert main(["quantize", "-m", manifest_path, "-N", "8", "--eps", "0.1",
                 "-o", str(tmp_path / "net.tq")]) == 0
    capsys.readouterr()
    assert main(["trace", str(tmp_path / "net.tq"), "-m", manifest_path, "-i", input_path,
                 "--depth-sensitivity", "0.02"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\ndepth sensitivity needs at least two parametric layers\n")
    assert "quantizing only" not in out


@pytest.mark.parametrize("which", ["manifest", "schedule"])
def test_a_file_that_is_not_utf8_exits_1_without_output(tmp_path, capsys, which):
    manifest_path = write_net(*mlp_net(np.random.default_rng(1)), tmp_path / "net")
    schedule_path = tmp_path / "schedule.json"
    schedule_path.write_bytes(b'[{"pattern": "fc*", "epsilon_sq": 0.01}]')
    bad = Path(manifest_path if which == "manifest" else schedule_path)
    bad.write_bytes(b'{"layers": [\xff]}' if which == "manifest"
                    else b'[{"pattern": "fc*", "epsilon_sq": 0.01, "note": "\xff"}]')
    assert main(["quantize", "-m", manifest_path, "--schedule", str(schedule_path),
                 "-N", "16", "-o", str(tmp_path / "q.tq"), "--report",
                 str(tmp_path / "r.json")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {bad}: invalid JSON (") and out.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net", "schedule.json"]
