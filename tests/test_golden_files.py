"""Checked-in `.tq` files: the bytes the writer produced for each golden case.

`tests/data/<case>.v2.tq` holds the format 2 container `test_golden.py`
pins, so the reader is tested on stored bytes and not only on what the
current writer makes. Each file must keep its pinned SHA-256, and loading it
must give the case's model bit for bit. `uniform.stats.txt` is what
`ternres stats` prints for `uniform.v2.tq`. `uniform.tq` is the same model
in format 1, which is no longer read: loading it is a format error that
names format 1, and every command that reads it exits 1.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from ternres import FormatError, Tensor, load_quantized, save_tensor
from ternres.cli import main
from ternres.container import MAGIC

from nets import conv_net, write_net
from test_golden import GOLDEN

DATA = Path(__file__).parent / "data"

# SHA-256 of the format 1 file of the uniform case.
V1_SHA = "f3fe99e538c02ab3880ed1d8fc6e70c6b52f9207d44ce3daa8060cc41a284282"

V2_SHA = {
    "compute_aware": "a5fca7d18b89e2e70b2832edf9f7519e3cd178f54e22f8b4aaa879c0369a3051",
    "depth_graded": "8871dd47a85e447502d7a1564ba5d4ad2fa9f7e2638cc0664d7d3987cf50d90a",
    "downgrade": "350731683a95279ba6354ed3afda829150d735eba4a8f76238a17201451f01fc",
    "quantize_scales_8bit": "05889cf3df360b3e682ac6d7ff8a9d2eab94c104813aedcf862f660b98fa2ab8",
    "ragged_tail": "f374bf58d9e4c8b7b78d95ffca7035e91912e0bb2c3a1bb42f9ffb1b8551d871",
    "shorter_than_n": "7d1e5680184f69724fa387f0fee81275e91eefdda27ba50d1def10a90d1a7d99",
    "uniform": "1d9aad957c2c32b0d0110e5d407d87347ca25e48e00926d4b2750e3af6c663bc",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_same_layers(stored, built):
    assert [l.layer for l in stored.layers] == [l.layer for l in built.layers]
    for a, b in zip(stored.layers, built.layers):
        assert a.delta == b.delta
        for field in ("counts", "alphas", "signs"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_every_golden_case_has_its_pin():
    assert sorted(V2_SHA) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_checked_in_v2_container_loads_its_case(case):
    path = DATA / f"{case}.v2.tq"
    assert _sha(path) == V2_SHA[case] == GOLDEN[case][1]
    assert path.read_bytes()[:4] == MAGIC
    _assert_same_layers(load_quantized(path), GOLDEN[case][0]())


def test_the_format_1_file_is_a_format_error_that_names_format_1():
    path = DATA / "uniform.tq"
    assert _sha(path) == V1_SHA
    with pytest.raises(FormatError, match="format 1 is no longer read"):
        load_quantized(path)


def test_every_command_on_the_format_1_file_exits_1_and_writes_nothing(tmp_path, capsys):
    # The uniform case's net, so that the container is the only bad input.
    manifest = write_net(*conv_net(np.random.default_rng(0)), tmp_path / "net")
    x = tmp_path / "net" / "x.npy"
    save_tensor(Tensor("x", np.ones((2, 8, 8), np.float32)), x)
    net = ["-m", manifest, "-i", str(x)]
    assert main(["infer", str(DATA / "uniform.v2.tq"), *net]) == 0
    capsys.readouterr()
    v1, out = str(DATA / "uniform.tq"), tmp_path / "out"
    for args in (["stats", v1], ["stats", v1, "--json"],
                 ["downgrade", v1, "--keep-levels", "30", "-o", str(out)],
                 ["infer", v1, *net, "--logits", str(out)],
                 ["trace", v1, *net, "--csv", str(out), "--json-out", str(out)],
                 ["lemma-check", v1, *net]):
        assert main(args) == 1, args
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and "format 1 is no longer read" in stderr, args
        assert not out.exists(), args
    assert _sha(DATA / "uniform.tq") == V1_SHA


def test_stats_of_a_checked_in_v2_container_is_pinned(capsys):
    # CI diffs the installed `ternres` script against the same text.
    assert main(["stats", str(DATA / "uniform.v2.tq")]) == 0
    assert capsys.readouterr() == ((DATA / "uniform.stats.txt").read_text(), "")
