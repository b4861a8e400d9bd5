"""Pinned cost reports: `ternres stats` JSON and text on seeded models.

Any change to what a report says, or how it prints it, changes a digest
here. Each model is saved and reported by `stats` (and, for the downgraded
one, by `downgrade`), so the FLOP-weighted factor comes from the manifest
the container stores and is absent where it stores none.
"""

import hashlib

import numpy as np
import pytest

from ternres import (
    QuantizedModel,
    convert_model,
    cost_report,
    downgrade,
    make_schedule,
    save_quantized,
)
from ternres.cli import main

from nets import conv_net, mlp_net


def _convert(net, seed, block_size, eps_sq=0.01):
    manifest, weights = net(np.random.default_rng(seed))
    schedule = make_schedule(manifest, "uniform", epsilon_sq=eps_sq)
    return convert_model(manifest, weights, block_size, schedule)[0]


def _downgraded():
    model = _convert(conv_net, 0, 16)
    return downgrade(model, keep_levels=(model.num_levels + model.num_blocks) // 2)


def _no_manifest():
    return QuantizedModel({}, _convert(conv_net, 1, 16).layers, {})


CASES = {
    "conv_n7": (lambda: _convert(conv_net, 0, 7), []),
    "conv_n16": (lambda: _convert(conv_net, 0, 16), []),
    "conv_n64": (lambda: _convert(conv_net, 0, 64), []),
    "mlp_n7": (lambda: _convert(mlp_net, 1, 7, 0.005), []),
    "mlp_n16": (lambda: _convert(mlp_net, 1, 16, 0.005), []),
    "mlp_n64": (lambda: _convert(mlp_net, 1, 64, 0.005), []),
    "downgraded": (_downgraded, []),
    "no_manifest": (_no_manifest, []),
    "empty": (lambda: QuantizedModel({}, (), {}), []),
    "x3_c9": (lambda: _convert(mlp_net, 2, 16), ["--x", "3", "--c", "9"]),
}

PINNED = {
    "conv_n16": (
        "36487d59d00d4b12ad6c3de9e3858f6c6cfebe443d31cede97f5b8f87a440455",
        "5bf4fd35aaca1de26297d28ea0ef7f647a1ef5e5a7d125b58542fdbe29418064"),
    "conv_n64": (
        "7c4e87a2cd5329274490e4700a3345cd651347146dcb489a802cc5ea5063460a",
        "78122aa850ba76896109f70c3517e7915bb248ba5e392edaac9403250ceb972e"),
    "conv_n7": (
        "cbc16a511a2e8342fa348de2f20331c4bd5f55c66ad8b2e1fad02e5f348bdf6e",
        "b24904218b0f91620aa91e4ee936b71e187e58de77bb16a4d414a264267a4184"),
    "downgraded": (
        "3c6dd5a2603294b48f38e21e068ab356be245a8914ab6ddd848f5b41ed8c8d8c",
        "d839b74cd94d8569202a9734783ed43928eb0d9792d47e94ceb71705a9add849"),
    "empty": (
        "46ca52a12a13c5ef9b4d3538ca992933a7f7d6f77fc469d329a3c11de8e42fea",
        "207d56ab3faa20770f725267ab6fdb42d351b3651885f087d56794ee789aef8c"),
    "mlp_n16": (
        "b383a2cea7d37fc7a134e077ed68e8064f3e6771666cefbbd1c36363f71e483f",
        "e9c1f54253a08602e75aded91100fccfe10bcf60d584d5e7056548b4faed973f"),
    "mlp_n64": (
        "7ac6620f40664ff2f3e9868960f5b8d698c17c5dedee1ed000dcc7d64ceee6b4",
        "a018f0442e64584d047e4121d8ca209e034c2fe3d83bd50185aa9f4ef0d563d7"),
    "mlp_n7": (
        "5ad919edcfb2ee5d66a3a8254474504664784e402f2869e03ed1ffdd4d4fa781",
        "bb9ab5415d43f4b1f0ed73f441bf19a5116b054d9e9527cbe65c9ee50ad16aa6"),
    "no_manifest": (
        "1c5e8eceb770fc953e17836747deae40797a3440dbd07a940c8e86b3ac965de4",
        "3fe716fdcbd11b8d6053b8d8abe8cadc01c85d8bebd302f3f052f0e5b129a3c3"),
    "x3_c9": (
        "535fa2c02b0e698b2b3bd58531b1fe325d7d6dc00c6b774ccb108c7dbe22e32d",
        "e6ad9f24fd5b2f4a4a4d1a3c5b44101b8f6c463bdffc4e1939ece367cebc28ad"),
}
PINNED_DOWNGRADE = "019bf3093e469e0fe64483d25b968bcec6669cd71fd0a0cc682da5faaa967d93"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


def _digests(case, path, capsys):
    build, options = CASES[case]
    save_quantized(build(), path)
    return (_sha(_stdout(capsys, ["stats", str(path), "--json", *options])),
            _sha(_stdout(capsys, ["stats", str(path), *options])))


@pytest.mark.parametrize("case", sorted(CASES))
def test_stats_report_digests(case, tmp_path, capsys):
    assert _digests(case, tmp_path / "m.tq", capsys) == PINNED[case]


def test_downgrade_report_digest(tmp_path, capsys):
    save_quantized(_convert(conv_net, 0, 16), tmp_path / "m.tq")
    out = _stdout(capsys, ["downgrade", str(tmp_path / "m.tq"), "--keep-levels", "30",
                           "-o", str(tmp_path / "d.tq")])
    assert _sha(out) == PINNED_DOWNGRADE


def test_reports_without_a_manifest_are_unweighted():
    for build in (_no_manifest, CASES["empty"][0]):
        assert cost_report(build()).compute_factor_weighted is None
