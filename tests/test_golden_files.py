"""Checked-in `.tq` files: the bytes each writer produced for each golden case.

`tests/data/<case>.tq` holds the format 1 container the writer made for that
case before format 2, and `tests/data/<case>.v2.tq` the format 2 container
`test_golden.py` pins. So the reader is tested on stored bytes of both
formats and not only on what the current writer makes. Each file must keep
its pinned SHA-256, and loading it must give the case's model bit for bit.
A format 1 file saves as format 2 with the same blob. `uniform.stats.txt` is
what `ternres stats` prints for `uniform.tq` and `uniform.v2.tq`.
"""

import hashlib
from pathlib import Path

import pytest

from ternres import downgrade, load_quantized, save_quantized
from ternres.cli import main
from ternres.container import MAGIC

from nets import V1_MAGIC, split_container
from test_golden import GOLDEN

DATA = Path(__file__).parent / "data"

V1_SHA = {
    "compute_aware": "94ac327ffa3fc253851097b34ba72cee4512b6e59686243832b65f47817cc889",
    "depth_graded": "bed5f5db669a5925ed49c36cad8e549d0c6d94ca5920b33cdab5ecc4cc649959",
    "downgrade": "8b23e647e7444de439ef8f54fe1d9ffe7ebf2aad695c9230bbdf0c4b4e6872b3",
    "quantize_scales_8bit": "f2ba9afb6d0101e30dfcc64fe18ef52f146dde8bc5bece3cc729e84306d48a61",
    "ragged_tail": "05715586a657f829032d5029f26bf517299c5640a6a9803e3b2d635b696665a5",
    "shorter_than_n": "f4fd30a03551062c24ce23f70ed3e4c32411dcf7535a101d1a7db592daf70e0d",
    "uniform": "f3fe99e538c02ab3880ed1d8fc6e70c6b52f9207d44ce3daa8060cc41a284282",
}

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


def test_every_golden_case_has_both_pins():
    assert sorted(V1_SHA) == sorted(V2_SHA) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_checked_in_container_loads_its_case(case):
    path = DATA / f"{case}.tq"
    assert _sha(path) == V1_SHA[case]
    assert path.read_bytes()[:4] == V1_MAGIC
    _assert_same_layers(load_quantized(path), GOLDEN[case][0]())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_checked_in_v2_container_loads_its_case(case):
    path = DATA / f"{case}.v2.tq"
    assert _sha(path) == V2_SHA[case] == GOLDEN[case][1]
    assert path.read_bytes()[:4] == MAGIC
    _assert_same_layers(load_quantized(path), GOLDEN[case][0]())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_a_v1_file_saves_as_v2_with_the_same_blob(case, tmp_path):
    v1 = DATA / f"{case}.tq"
    model = load_quantized(v1)
    save_quantized(model, tmp_path / "m.tq")
    saved = (tmp_path / "m.tq").read_bytes()
    assert split_container(saved)[0] == MAGIC
    assert split_container(saved)[2] == split_container(v1.read_bytes())[2]
    assert saved == (DATA / f"{case}.v2.tq").read_bytes()
    _assert_same_layers(load_quantized(tmp_path / "m.tq"), model)
    assert _sha(v1) == V1_SHA[case]


def test_downgrading_a_v1_file_writes_v2(tmp_path):
    model = load_quantized(DATA / "uniform.tq")
    keep = (model.num_levels + model.num_blocks) // 2
    out = tmp_path / "d.tq"
    assert main(["downgrade", str(DATA / "uniform.tq"), "--keep-levels", str(keep),
                 "-o", str(out)]) == 0
    assert out.read_bytes()[:4] == MAGIC
    _assert_same_layers(load_quantized(out), downgrade(model, keep_levels=keep))
    assert _sha(DATA / "uniform.tq") == V1_SHA["uniform"]


def test_stats_of_a_checked_in_container_is_pinned(capsys):
    # CI diffs the installed `ternres` script against the same text.
    assert main(["stats", str(DATA / "uniform.tq")]) == 0
    assert capsys.readouterr() == ((DATA / "uniform.stats.txt").read_text(), "")


def test_stats_of_a_checked_in_v2_container_is_pinned(capsys):
    assert main(["stats", str(DATA / "uniform.v2.tq")]) == 0
    assert capsys.readouterr() == ((DATA / "uniform.stats.txt").read_text(), "")
