"""Checked-in `.tq` files: the bytes the v1 writer produced for each golden case.

`tests/data/<case>.tq` holds the container `test_golden.py` pins for that
case, so the reader is tested on stored bytes and not only on what the
current writer makes. Each file must keep its pinned SHA-256, and loading it
must give the case's model bit for bit. `uniform.stats.txt` is what `ternres
stats` prints for `uniform.tq`.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from ternres import load_quantized
from ternres.cli import main

from test_golden import GOLDEN

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_checked_in_container_loads_its_case(case):
    build, tq_sha, _ = GOLDEN[case]
    path = DATA / f"{case}.tq"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == tq_sha
    stored, built = load_quantized(path), build()
    assert [l.layer for l in stored.layers] == [l.layer for l in built.layers]
    for a, b in zip(stored.layers, built.layers):
        assert a.delta == b.delta
        for field in ("counts", "alphas", "signs"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_stats_of_a_checked_in_container_is_pinned(capsys):
    # CI diffs the installed `ternres` script against the same text.
    assert main(["stats", str(DATA / "uniform.tq")]) == 0
    assert capsys.readouterr() == ((DATA / "uniform.stats.txt").read_text(), "")
