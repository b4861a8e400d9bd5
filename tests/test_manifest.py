"""Manifest parsing, validation, and shape propagation."""

import json

import numpy as np
import pytest

from ternres import (
    FormatError,
    LayerDecl,
    ModelManifest,
    Tensor,
    load_manifest,
    load_weights,
    save_tensor,
)
from ternres.manifest import (
    manifest_from_dict,
    manifest_to_dict,
    save_manifest,
)
from ternres.simulate import resolve_shapes

from nets import conv_net, write_net


class TestValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ModelManifest((
                LayerDecl("a", "relu"),
                LayerDecl("a", "relu"),
            ))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            ModelManifest((LayerDecl("a", "softmax"),))

    def test_parametric_needs_weight(self):
        with pytest.raises(ValueError, match="weight_ref"):
            ModelManifest((LayerDecl("fc", "fc"),))

    def test_non_parametric_refuses_weight(self):
        with pytest.raises(ValueError, match="weight_ref"):
            ModelManifest((LayerDecl("r", "relu", weight_ref="w.npy"),))

    def test_parametric_listing(self):
        manifest = ModelManifest((
            LayerDecl("fc", "fc", weight_ref="w.npy"),
            LayerDecl("r", "relu"),
            LayerDecl("bn", "bn_scale", weight_ref="a.npy"),
        ))
        assert [l.name for l in manifest.parametric_layers()] == ["fc", "bn"]


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        manifest, _ = conv_net(rng)
        path = tmp_path / "m.json"
        save_manifest(manifest, path)
        back = load_manifest(path)
        assert manifest_to_dict(back) == manifest_to_dict(
            ModelManifest(manifest.layers, manifest.input_shape, back.base_dir))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(FormatError):
            load_manifest(path)

    def test_missing_layers_rejected(self):
        with pytest.raises(FormatError, match="layers"):
            manifest_from_dict({"input_shape": [3]})


class TestLoadWeights:
    def test_loads_and_checks_shapes(self, tmp_path):
        rng = np.random.default_rng(1)
        manifest, weights = conv_net(rng)
        path = write_net(manifest, weights, tmp_path / "net")
        loaded = load_weights(load_manifest(path))
        for name, (w, b) in loaded.items():
            assert np.array_equal(w.data, weights[name][0].data)
            if weights[name][1] is not None:
                assert np.array_equal(b.data, weights[name][1].data)

    def test_fc_weight_must_be_2d(self, tmp_path):
        save_tensor(Tensor("w", np.zeros((2, 2, 2), dtype=np.float32)),
                    tmp_path / "w.npy")
        doc = {"layers": [{"name": "fc", "kind": "fc", "weight": "w.npy"}]}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="2-D"):
            load_weights(load_manifest(tmp_path / "m.json"))

    def test_conv_weight_must_be_4d(self, tmp_path):
        save_tensor(Tensor("w", np.zeros((2, 2), dtype=np.float32)),
                    tmp_path / "w.npy")
        doc = {"layers": [{"name": "c", "kind": "conv2d", "weight": "w.npy"}]}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="4-D"):
            load_weights(load_manifest(tmp_path / "m.json"))

    def test_bias_shape_checked(self, tmp_path):
        save_tensor(Tensor("w", np.zeros((3, 4), dtype=np.float32)),
                    tmp_path / "w.npy")
        save_tensor(Tensor("b", np.zeros(4, dtype=np.float32)), tmp_path / "b.npy")
        doc = {"layers": [
            {"name": "fc", "kind": "fc", "weight": "w.npy", "bias": "b.npy"}]}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="bias"):
            load_weights(load_manifest(tmp_path / "m.json"))


class TestShapePropagation:
    def test_conv_chain(self):
        rng = np.random.default_rng(2)
        manifest, weights = conv_net(rng)
        shapes = resolve_shapes(manifest, {n: weights[n][0].shape for n in weights})
        assert shapes[0] == (4, 8, 8)   # conv 3x3 pad 1 keeps spatial dims
        assert shapes[3] == (4, 4, 4)   # maxpool 2/2 halves them
        assert shapes[-1] == (6,)

    def test_fc_flattens_input(self):
        manifest = ModelManifest(
            (LayerDecl("fc", "fc", weight_ref="w"),), input_shape=(2, 3, 4))
        assert resolve_shapes(manifest, {"fc": (5, 24)}) == [(5,)]

    def test_mismatch_rejected(self):
        manifest = ModelManifest(
            (LayerDecl("fc", "fc", weight_ref="w"),), input_shape=(7,))
        with pytest.raises(ValueError, match="expects"):
            resolve_shapes(manifest, {"fc": (5, 24)})

    def test_pool_window_too_large_rejected(self):
        manifest = ModelManifest(
            (LayerDecl("p", "maxpool", hyperparams={"window": 9}),),
            input_shape=(1, 4, 4))
        with pytest.raises(ValueError, match="window"):
            resolve_shapes(manifest, {})

    def test_missing_hyperparam_rejected(self):
        manifest = ModelManifest(
            (LayerDecl("p", "maxpool"),), input_shape=(1, 4, 4))
        with pytest.raises(ValueError, match="window"):
            resolve_shapes(manifest, {})
