"""Tensor I/O, blocking, and quantized-container serialization."""

import functools
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ternres import (
    FormatError,
    QuantizedModel,
    Tensor,
    UnsupportedDtypeError,
    load_quantized,
    reconstruct,
    save_quantized,
    save_tensor,
    ternary_residual,
)
from ternres import container
from ternres.container import MAGIC, pack_signs, unpack_signs
from ternres.tensors import load_tensor, partition_blocks
from ternres.cli import main

from nets import join_container, rewrite_blob, rewrite_index, split_container, with_spans


class TestTensor:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            Tensor("bad", np.array([1.0, np.nan], dtype=np.float32))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            Tensor("bad", np.array([np.inf], dtype=np.float32))

    def test_row_major_unroll(self):
        t = Tensor("t", np.array([[1, 2], [3, 4]], dtype=np.float32))
        assert t.unrolled().tolist() == [1, 2, 3, 4]


class TestNpyRoundTrip:
    def test_identity(self, tmp_path):
        t = Tensor("t", np.array([[1, 2], [3, 4]], dtype=np.float32))
        save_tensor(t, tmp_path / "t.npy")
        back = load_tensor(tmp_path / "t.npy")
        assert back.shape == (2, 2)
        assert back.data.tolist() == [[1, 2], [3, 4]]

    def test_byte_for_byte_corpus(self, tmp_path):
        rng = np.random.default_rng(11)
        for i in range(20):
            shape = tuple(int(d) for d in rng.integers(1, 7, size=rng.integers(1, 4)))
            t = Tensor(f"t{i}", rng.normal(size=shape).astype(np.float32))
            first = tmp_path / "a.npy"
            second = tmp_path / "b.npy"
            save_tensor(t, first)
            save_tensor(load_tensor(first), second)
            assert first.read_bytes() == second.read_bytes()

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, np.asfortranarray(np.ones((3, 4), dtype="<f4")))
        with pytest.raises(FormatError, match="fortran_order"):
            load_tensor(path)

    def test_wrong_dtype_rejected(self, tmp_path):
        path = tmp_path / "d.npy"
        np.save(path, np.ones(4, dtype="<f8"))
        with pytest.raises(UnsupportedDtypeError):
            load_tensor(path)

    def test_not_npy_rejected(self, tmp_path):
        path = tmp_path / "x.npy"
        path.write_bytes(b"definitely not numpy")
        with pytest.raises(FormatError):
            load_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.npy"
        save_tensor(Tensor("t", np.ones(16, dtype=np.float32)), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_tensor(path)

    def test_interoperates_with_numpy(self, tmp_path):
        arr = np.arange(12, dtype="<f4").reshape(3, 4)
        np.save(tmp_path / "np.npy", arr)
        assert np.array_equal(load_tensor(tmp_path / "np.npy").data, arr)
        save_tensor(Tensor("t", arr), tmp_path / "ours.npy")
        assert np.array_equal(np.load(tmp_path / "ours.npy"), arr)


class TestPartition:
    def test_remainder_block(self):
        t = Tensor("t", np.zeros(130, dtype=np.float32))
        blocks = partition_blocks(t, 64)
        assert [b.length for b in blocks] == [64, 64, 2]

    def test_exact_fit(self):
        t = Tensor("t", np.zeros(64, dtype=np.float32))
        blocks = partition_blocks(t, 64)
        assert len(blocks) == 1 and blocks[0].start == 0 and blocks[0].length == 64

    def test_short_input(self):
        t = Tensor("t", np.zeros(5, dtype=np.float32))
        blocks = partition_blocks(t, 64)
        assert [b.length for b in blocks] == [5]

    def test_zero_block_size_rejected(self):
        with pytest.raises(ValueError):
            partition_blocks(Tensor("t", np.zeros(4, dtype=np.float32)), 0)

    @given(n=st.integers(1, 500), block=st.integers(1, 70))
    @settings(max_examples=100, deadline=None)
    def test_coverage_property(self, n, block):
        t = Tensor("t", np.zeros(n, dtype=np.float32))
        blocks = partition_blocks(t, block)
        assert sum(b.length for b in blocks) == n
        cursor = 0
        for b in blocks:
            assert b.start == cursor  # sorted, disjoint, contiguous
            cursor = b.stop
        assert cursor == n
        assert all(b.length == block for b in blocks[:-1])
        assert 1 <= blocks[-1].length <= block


class TestSignPacking:
    def test_spec_example_byte(self):
        assert pack_signs(np.array([1, 0, -1, 0], dtype=np.int8)) == bytes([0b00_10_00_01])

    def test_reserved_code_rejected(self):
        with pytest.raises(FormatError, match="reserved"):
            unpack_signs(bytes([0b11]), 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(FormatError):
            unpack_signs(bytes([0, 0]), 1)

    def test_rows_pack_one_after_another(self):
        rng = np.random.default_rng(0)
        for n in (1, 4, 6, 10, 64):
            rows = rng.integers(-1, 2, size=(5, n)).astype(np.int8)
            packed = pack_signs(rows)
            assert packed == b"".join(pack_signs(r) for r in rows)
            matrix = np.frombuffer(packed, dtype=np.uint8).reshape(5, -1)
            assert np.array_equal(unpack_signs(matrix, n), rows)

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, signs):
        arr = np.array(signs, dtype=np.int8)
        assert np.array_equal(unpack_signs(pack_signs(arr), arr.size), arr)

    @given(hnp.arrays(np.int8, st.tuples(st.integers(0, 70), st.integers(0, 70)),
                      elements=st.sampled_from([-1, 0, 1])))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_per_weight_reference(self, rows):
        packed = pack_signs(rows)
        assert packed == _reference_pack(rows)
        matrix = np.frombuffer(packed, dtype=np.uint8).reshape(len(rows), -(-rows.shape[1] // 4))
        assert np.array_equal(unpack_signs(matrix, rows.shape[1]), rows)

    def test_set_padding_bits_are_ignored(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 5, 6, 7, 13):
            rows = rng.integers(-1, 2, size=(3, n)).astype(np.int8)
            matrix = np.frombuffer(pack_signs(rows), dtype=np.uint8).reshape(3, -1).copy()
            matrix[:, -1] |= (0xFF << 2 * (n % 4)) & 0xFF
            assert np.array_equal(unpack_signs(matrix, n), rows)
            assert np.array_equal(unpack_signs(matrix[0].tobytes(), n), rows[0])


    @pytest.mark.parametrize("chunk_bytes", [1, 4, 12, 100, 1 << 40])
    def test_chunked_packing_matches_the_reference(self, monkeypatch, chunk_bytes):
        # A chunk holds max(1, chunk_bytes // (4 * bytes per row)) rows.
        monkeypatch.setattr(container, "CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(2)
        for shape in [(0, 0), (3, 0), (0, 5), (7,), (1, 1), (9, 6), (33, 64), (40, 13)]:
            rows = rng.integers(-1, 2, size=shape).astype(np.int8)
            assert pack_signs(rows) == _reference_pack(np.atleast_2d(rows))

    def test_nonzero_rows_match_any_at_every_alignment(self):
        rng = np.random.default_rng(3)
        for width in (1, 3, 8, 16, 24, 40):
            for offset in range(8):  # blob rows need not start on a word boundary
                buf = np.zeros(offset + 50 * width, np.uint8)
                packed = buf[offset:].reshape(50, width)
                hit = rng.random(50) < 0.5
                bits = 1 << rng.integers(0, 8, hit.sum())  # one set bit in a random byte
                packed[hit, rng.integers(0, width, hit.sum())] = bits
                assert np.array_equal(container._nonzero_rows(packed), hit)


def _reference_pack(rows) -> bytes:
    """The container's sign code, one weight at a time: weight i of a row
    sets bits ``2*(i%4)`` (+1) or ``2*(i%4)+1`` (-1) of the row's byte
    ``i//4``."""
    out = bytearray()
    for row in rows:
        packed = bytearray(-(-len(row) // 4))
        for i, sign in enumerate(row):
            packed[i // 4] |= {0: 0b00, 1: 0b01, -1: 0b10}[int(sign)] << 2 * (i % 4)
        out += packed
    return bytes(out)


def _reference_unpack(matrix, length):
    """The container's sign code read one weight at a time, or None when a
    weight holds the reserved code ``0b11``; padding bits are never read."""
    rows = np.zeros((len(matrix), length), dtype=np.int8)
    for r, packed in enumerate(matrix):
        for i in range(length):
            code = (int(packed[i // 4]) >> 2 * (i % 4)) & 0b11
            if code == 0b11:
                return None
            rows[r, i] = {0b00: 0, 0b01: 1, 0b10: -1}[code]
    return rows


# Bytes with no reserved code are drawn as often as arbitrary ones, so that
# matrices that decode are common too, long ones included.
_CLEAN_BYTES = [b for b in range(256) if not b & (b >> 1) & 0x55]


@given(st.integers(1, 70).flatmap(lambda length: st.tuples(st.just(length), hnp.arrays(
    np.uint8, st.tuples(st.integers(0, 70), st.just((length + 3) // 4)),
    elements=st.one_of(st.sampled_from(_CLEAN_BYTES), st.integers(0, 255))))))
@settings(max_examples=300, deadline=None)
def test_unpack_matches_the_per_weight_reference_on_any_bytes(case):
    length, matrix = case
    expected = _reference_unpack(matrix, length)
    if expected is None:
        with pytest.raises(FormatError, match="reserved"):
            unpack_signs(matrix, length)
    else:
        assert np.array_equal(unpack_signs(matrix, length), expected)
        if len(matrix):
            assert np.array_equal(unpack_signs(matrix[0].tobytes(), length), expected[0])


def _random_model(rng, layer_sizes, block=16) -> tuple[QuantizedModel, dict]:
    layers = []
    tensors = {}
    for i, n in enumerate(layer_sizes):
        t = Tensor(f"l{i}", rng.normal(size=n).astype(np.float32))
        tensors[t.name] = t
        layers.append(ternary_residual(t, block, epsilon_sq=0.05))
    return QuantizedModel({}, tuple(layers), {"N": block}), tensors


class TestContainer:
    def test_empty_model_round_trips(self, tmp_path):
        model = QuantizedModel({}, (), {})
        save_quantized(model, tmp_path / "m.tq")
        back = load_quantized(tmp_path / "m.tq")
        assert back.layers == ()

    def test_three_layer_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        model, _ = _random_model(rng, [100, 64, 33])
        save_quantized(model, tmp_path / "m.tq")
        back = load_quantized(tmp_path / "m.tq")
        for a, b in zip(model.layers, back.layers):
            assert a.delta == b.delta
            assert a.epsilon_sq == b.epsilon_sq
            assert a.source_norm_sq == b.source_norm_sq
            assert np.array_equal(reconstruct(a).data, reconstruct(b).data)
            assert np.array_equal(a.counts, b.counts)
            assert np.array_equal(a.alphas, b.alphas)
            assert np.array_equal(a.signs, b.signs)

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(4)
        model, _ = _random_model(rng, [80])
        save_quantized(model, tmp_path / "a.tq")
        save_quantized(model, tmp_path / "b.tq")
        assert (tmp_path / "a.tq").read_bytes() == (tmp_path / "b.tq").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.tq"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="not a quantized container"):
            load_quantized(path)

    @pytest.mark.parametrize("magic", [b"TRQ1", b"TRQ3", b"TRQ", b""])
    def test_another_magic_is_not_a_quantized_container(self, tmp_path, magic):
        path = tmp_path / "m.tq"
        save_quantized(_random_model(np.random.default_rng(4), [80])[0], path)
        path.write_bytes(magic + path.read_bytes()[4:])
        with pytest.raises(FormatError, match="not a quantized container"):
            load_quantized(path)

    def test_version_mismatch_rejected(self, tmp_path):
        model = QuantizedModel({}, (), {})
        path = tmp_path / "m.tq"
        save_quantized(model, path)
        rewrite_index(path, lambda index: {**index, "format_version": 9})
        with pytest.raises(FormatError, match="format_version"):
            load_quantized(path)

    @pytest.mark.parametrize("version", [1, 2.0, True])
    def test_format_version_must_be_the_one_the_magic_marks(self, tmp_path, version):
        path = tmp_path / "m.tq"
        save_quantized(QuantizedModel({}, (), {}), path)
        rewrite_index(path, lambda index: {**index, "format_version": version})
        with pytest.raises(FormatError, match="format_version"):
            load_quantized(path)

    def test_writes_format_2(self, tmp_path):
        path = tmp_path / "m.tq"
        save_quantized(_random_model(np.random.default_rng(4), [80])[0], path)
        magic, encoded, _ = split_container(path.read_bytes())
        index = json.loads(encoded)
        assert (magic, index["format_version"]) == (MAGIC, 2)
        assert "scale_offsets" not in index["layers"][0]
        assert "sign_offsets" not in index["layers"][0]

    def test_truncated_blob_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        model, _ = _random_model(rng, [64])
        path = tmp_path / "m.tq"
        save_quantized(model, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_quantized(path)


def _rewrite_first_layer(path, key, value):
    """Set one field of the first layer entry in a saved container's index."""
    def edit(index):
        entry = index["layers"][0]
        if isinstance(entry[key], list):
            entry[key] = [value] + entry[key][1:]
        else:
            entry[key] = value
        return index

    rewrite_index(path, edit)


@pytest.mark.parametrize("key, value", [
    ("N", 0),
    ("levels_per_block", 0),
    ("levels_per_block", -1),
    ("delta", "nan"),
    ("delta", float("inf")),
    ("epsilon_sq", float("nan")),
    ("source_norm_sq", "-inf"),
    ("name", ["l0"]),
    ("exhausted", "no"),
    ("crc32", -1),
    ("crc32", 2 ** 32),
    ("delta", -0.5),
    ("source_norm_sq", -3.0),
    ("epsilon_sq", 7.0),
    ("epsilon_sq", 0.0),
    ("epsilon_sq", -0.01),
])
def test_malformed_layer_entry_is_a_format_error(tmp_path, key, value):
    rng = np.random.default_rng(6)
    model, _ = _random_model(rng, [100, 40])
    path = tmp_path / "m.tq"
    save_quantized(model, path)
    _rewrite_first_layer(path, key, value)
    with pytest.raises(FormatError, match="'l0'"):
        load_quantized(path)
    assert main(["stats", str(path)]) == 1


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_stored_scale_is_a_format_error(tmp_path, value):
    rng = np.random.default_rng(7)
    model, _ = _random_model(rng, [100, 40])
    path = tmp_path / "m.tq"
    save_quantized(model, path)

    def edit(blob, layers):
        entry = layers[0]
        # The deepest level of the first block: a residual level when it has one.
        at = entry["span"][0] + 4 * (entry["levels_per_block"][0] - 1)
        blob[at:at + 4] = np.float32(value).tobytes()

    rewrite_blob(path, edit)
    with pytest.raises(FormatError, match="'l0'.*finite"):
        load_quantized(path)
    assert main(["stats", str(path)]) == 1
    assert main(["downgrade", str(path), "--keep-levels", str(model.num_blocks),
                 "-o", str(tmp_path / "out.tq")]) == 1
    assert not (tmp_path / "out.tq").exists()


def test_zero_source_norm_beside_energy_is_a_format_error(tmp_path):
    # A source with no energy converts to alpha-0 base levels and delta 0;
    # such a layer loads, and one that pairs source_norm_sq 0 with a nonzero
    # alpha or delta does not.
    zero = ternary_residual(Tensor("z", np.zeros(40, dtype=np.float32)), 16, epsilon_sq=0.05)
    assert (zero.source_norm_sq, zero.delta, zero.alphas.any()) == (0.0, 0.0, False)
    model, _ = _random_model(np.random.default_rng(9), [100])
    model = QuantizedModel({}, model.layers + (zero,), {"N": 16})
    path = tmp_path / "m.tq"
    save_quantized(model, path)
    assert load_quantized(path).layer("z").source_norm_sq == 0.0
    assert main(["stats", str(path)]) == 0
    original = path.read_bytes()
    for name, key, value in (("l0", "source_norm_sq", 0.0), ("z", "delta", 0.25)):
        path.write_bytes(original)

        def edit(index):
            next(e for e in index["layers"] if e["name"] == name)[key] = value
            return index

        rewrite_index(path, edit)
        with pytest.raises(FormatError, match=f"'{name}': source_norm_sq 0"):
            load_quantized(path)
        assert main(["stats", str(path)]) == 1
        assert main(["downgrade", str(path), "--keep-levels", str(model.num_blocks),
                     "-o", str(tmp_path / "out.tq")]) == 1
        assert not (tmp_path / "out.tq").exists()


def _two_layer_container(path) -> QuantizedModel:
    """Two N=16 layers with ragged tails: 100 = 6*16 + 4 and 40 = 2*16 + 8."""
    model, _ = _random_model(np.random.default_rng(8), [100, 40])
    save_quantized(model, path)
    return model


def _split_container(path) -> tuple[dict, bytes, bytes]:
    """A saved container's index, the index's bytes and the blob."""
    _, encoded, blob = split_container(path.read_bytes())
    return json.loads(encoded), encoded, blob


def _as_json(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize("damage, match", [
    (lambda doc, enc, blob: join_container(_as_json([doc]), blob), "not a JSON object"),
    (lambda doc, enc, blob: join_container(_as_json({**doc, "manifest": [{"name": "l0"}]}), blob),
     "manifest and provenance must be JSON objects"),
    (lambda doc, enc, blob: join_container(_as_json({**doc, "provenance": [1]}), blob),
     "manifest and provenance must be JSON objects"),
    (lambda doc, enc, blob: join_container(enc, blob)[:6], "truncated header"),
    (lambda doc, enc, blob: join_container(enc, blob)[:12 + len(enc) // 2], "truncated index"),
    (lambda doc, enc, blob: join_container(b"\xff" * len(enc), blob), "bad index"),
    (lambda doc, enc, blob: join_container(b"{" * len(enc), blob), "bad index"),
], ids=["index is a list", "manifest is a list", "provenance is a list", "truncated header",
        "truncated index", "non-UTF-8 index", "non-JSON index"])
def test_malformed_header_or_index_is_a_format_error(tmp_path, damage, match):
    path = tmp_path / "m.tq"
    model = _two_layer_container(path)
    path.write_bytes(damage(*_split_container(path)))
    with pytest.raises(FormatError, match=match):
        load_quantized(path)
    assert main(["stats", str(path)]) == 1
    assert main(["downgrade", str(path), "--keep-levels", str(model.num_blocks),
                 "-o", str(tmp_path / "out.tq")]) == 1


def _edit_layers(edit):
    """Damage a container by ``edit(layer_0_entry, layer_1_entry)`` in place."""
    def damage(path):
        def on_index(index):
            edit(*index["layers"])
            return index
        rewrite_index(path, on_index)
    return damage


def test_a_reserved_code_in_a_tail_row_is_a_format_error(tmp_path):
    path = tmp_path / "m.tq"
    _two_layer_container(path)

    def edit(blob, layers):
        # Layer l1's last block holds 40 - 2*16 = 8 weights: each of its rows is
        # 2 bytes, and the layer's last byte holds weights 4-7 of its last row.
        blob[layers[1]["span"][1] - 1] |= 0b11 << 4

    rewrite_blob(path, edit)
    with pytest.raises(FormatError, match="reserved"):
        load_quantized(path)
    assert main(["stats", str(path)]) == 1


def _n7_container(path) -> QuantizedModel:
    """Two N=7 layers with ragged tails: 100 = 14*7 + 2 and 40 = 5*7 + 5."""
    model, _ = _random_model(np.random.default_rng(10), [100, 40], block=7)
    save_quantized(model, path)
    return model


def _sign_rows(entry):
    """(blob offset, bytes, padding bits of the last byte) of each sign row
    of a layer entry with its span, block by block."""
    size, block, counts = int(np.prod(entry["shape"])), entry["N"], entry["levels_per_block"]
    at = entry["span"][0] + 4 * sum(counts)  # the scales come first
    for b, count in enumerate(counts):
        n = min(block, size - b * block)
        for _ in range(count):
            yield at, (n + 3) // 4, (0xFF << 2 * (n % 4)) & 0xFF
            at += (n + 3) // 4


def test_set_padding_bits_in_a_container_are_ignored(tmp_path):
    path = tmp_path / "m.tq"
    model = _n7_container(path)
    blob = _split_container(path)[2]

    def edit(damaged, layers):
        for entry in layers:
            for at, width, padding in _sign_rows(entry):
                damaged[at + width - 1] |= padding
        assert damaged != blob

    rewrite_blob(path, edit)
    assert _same_models(load_quantized(path), model)


@pytest.mark.parametrize("block", [0, -1], ids=["full block", "tail block"])
def test_a_scaled_row_with_only_padding_bits_set_is_a_format_error(tmp_path, block):
    path = tmp_path / "m.tq"
    model = _n7_container(path)
    # The base level of layer l0's first block, or of its 2-weight tail block.
    level = model.layers[0].level_starts()[block]
    assert model.layers[0].alphas[level] != 0

    def edit(blob, layers):
        at, width, padding = list(_sign_rows(layers[0]))[level]
        blob[at:at + width] = bytes(width - 1) + bytes([padding])

    rewrite_blob(path, edit)
    with pytest.raises(FormatError, match="'l0'.*zero exactly when all signs are zero"):
        load_quantized(path)
    assert main(["stats", str(path)]) == 1


@given(layer=st.integers(0, 1), block=st.integers(0, 6), value=st.integers())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_one_index_entry_changed_is_a_format_error(tmp_path, layer, block, value):
    # The layer CRCs are taken again over the spans the changed count gives,
    # so the reader meets the count itself.
    path = tmp_path / "m.tq"
    _two_layer_container(path)
    counts = _split_container(path)[0]["layers"][layer]["levels_per_block"]
    block %= len(counts)
    assume(counts[block] != value)

    def edit(*layers):
        layers[layer]["levels_per_block"][block] = value

    _edit_layers(edit)(path)
    with pytest.raises(FormatError) as info:
        load_quantized(path)
    assert "CRC32" not in str(info.value)


@given(extra=st.binary(min_size=1, max_size=8))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bytes_after_the_last_layer_are_a_format_error(tmp_path, extra):
    path = tmp_path / "m.tq"
    _two_layer_container(path)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(FormatError, match="layers end at"):
        load_quantized(path)


def test_an_index_edited_without_its_crc_is_a_format_error(tmp_path):
    path = tmp_path / "m.tq"
    _two_layer_container(path)
    raw = path.read_bytes()
    # Without the index CRC this file loads, with both tolerances changed.
    assert raw.count(b'"epsilon_sq":0.05') == 2
    path.write_bytes(raw.replace(b'"epsilon_sq":0.05', b'"epsilon_sq":0.06'))
    with pytest.raises(FormatError, match="index fails its CRC32"):
        load_quantized(path)
    assert main(["stats", str(path)]) == 1


@pytest.mark.parametrize("layer", [0, 1])
def test_a_payload_edited_without_its_crc_is_a_format_error(tmp_path, layer):
    path = tmp_path / "m.tq"
    _two_layer_container(path)
    _, encoded, blob = split_container(path.read_bytes())
    start, _ = with_spans(json.loads(encoded)["layers"])[layer]["span"]
    damaged = bytearray(blob)
    # The lowest mantissa bit of the layer's first scale: without the layer
    # CRC this file loads, with that scale changed.
    damaged[start] ^= 0x01
    path.write_bytes(join_container(encoded, bytes(damaged)))
    with pytest.raises(FormatError, match=f"'l{layer}': the payload fails its CRC32"):
        load_quantized(path)
    assert main(["stats", str(path)]) == 1


@functools.cache
def _fuzz_model() -> QuantizedModel:
    """Two N=16 layers of 3,000 and 1,000 weights: a format 2 file over 4 KB."""
    return _random_model(np.random.default_rng(12), [3000, 1000])[0]


def _mutate(raw: bytes, kind: str, at: int, byte: int) -> bytes:
    if kind == "xor":
        at %= len(raw)
        return raw[:at] + bytes([raw[at] ^ byte]) + raw[at + 1:]
    if kind == "truncate":
        return raw[:at % len(raw)]
    at %= len(raw) + 1
    return raw[:at] + bytes([byte]) + raw[at:]


@given(kind=st.sampled_from(["xor", "truncate", "insert"]), at=st.integers(0, 1 << 20),
       byte=st.integers(1, 255))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_mutated_container_loads_identically_or_fails(tmp_path, kind, at, byte):
    path = tmp_path / "m.tq"
    save_quantized(_fuzz_model(), path)
    raw = path.read_bytes()
    assert len(raw) >= 4096
    path.write_bytes(_mutate(raw, kind, at, byte))
    try:
        back = load_quantized(path)
    except FormatError:
        assert main(["stats", str(path)]) == 1
        return
    assert _same_models(back, _fuzz_model())


def test_300_random_byte_flips_each_are_a_format_error(tmp_path):
    path = tmp_path / "m.tq"
    save_quantized(_fuzz_model(), path)
    raw = path.read_bytes()
    assert len(raw) >= 4096
    rng = np.random.default_rng(13)
    for at, byte in zip(rng.integers(0, len(raw), 300), rng.integers(1, 256, 300)):
        path.write_bytes(_mutate(raw, "xor", int(at), int(byte)))
        with pytest.raises(FormatError):
            load_quantized(path)


def test_a_layer_name_stored_twice_is_rejected(tmp_path, capsys):
    layer = _random_model(np.random.default_rng(14), [100])[0].layers[0]
    path = tmp_path / "m.tq"
    with pytest.raises(ValueError, match="^layer 'l0' is stored twice$"):
        QuantizedModel({}, (layer, layer), {})
    # A file that repeats the layer's entry and payload, with a fresh index CRC.
    save_quantized(QuantizedModel({}, (layer,), {}), path)
    index, _, blob = _split_container(path)
    index["layers"] *= 2
    path.write_bytes(join_container(_as_json(index), blob * 2))
    with pytest.raises(FormatError, match="'l0' is stored twice"):
        load_quantized(path)
    capsys.readouterr()
    assert main(["stats", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: layer 'l0' is stored twice\n")


def _one_layer_container(path) -> QuantizedModel:
    """A 4x16 layer at N=16 whose third row is zero, so block 2 holds one
    level with alpha 0 and no nonzero sign."""
    data = np.random.default_rng(9).normal(size=(4, 16)).astype(np.float32)
    data[2] = 0.0
    model = QuantizedModel({}, (ternary_residual(Tensor("w", data), 16, epsilon_sq=0.05),), {})
    save_quantized(model, path)
    return model


def _set_entry(key, value):
    return lambda entry: entry.__setitem__(key, value)


def _map_counts(convert):
    return lambda entry: entry.__setitem__(
        "levels_per_block", [convert(c) for c in entry["levels_per_block"]])


# Each of these files loaded, coerced, before the reader checked the JSON
# type of every index value.
@pytest.mark.parametrize("edit", [
    _set_entry("shape", [4.9, 16]), _set_entry("shape", ["4", "16"]),
    _set_entry("shape", [4, 16, True]), _set_entry("shape", [True, 4, 16]),
    _set_entry("shape", "4"), _set_entry("shape", {}),
    _set_entry("N", "16"), _set_entry("N", 16.5), _set_entry("N", 16.0),
    _set_entry("N", True),
    _map_counts(str), _map_counts(float), _map_counts(lambda c: c + 0.5),
    _map_counts(lambda c: True if c == 1 else c),
    _set_entry("delta", "0.01"), _set_entry("delta", True), _set_entry("delta", None),
    _set_entry("epsilon_sq", "0.05"), _set_entry("source_norm_sq", False),
    _set_entry("crc32", "0"), _set_entry("crc32", 0.0), _set_entry("crc32", True),
    _set_entry("crc32", None),
], ids=["shape-float", "shape-strings", "shape-true-last", "shape-true-first",
        "shape-string", "shape-object", "N-string", "N-fraction", "N-float", "N-true",
        "counts-strings", "counts-floats", "counts-fractions", "counts-true",
        "delta-string", "delta-true", "delta-null", "epsilon_sq-string",
        "source_norm_sq-false", "crc32-string", "crc32-float", "crc32-true", "crc32-null"])
def test_an_index_value_of_the_wrong_json_type_is_a_format_error(tmp_path, edit):
    path = tmp_path / "m.tq"
    model = _one_layer_container(path)
    assert 1 in model.layers[0].counts.tolist()  # the counts-true case changes a count

    def on_index(index):
        edit(index["layers"][0])
        return index

    rewrite_index(path, on_index)
    with pytest.raises(FormatError, match="'w'"):
        load_quantized(path)
    assert main(["stats", str(path)]) == 1


def test_a_scale_with_a_sign_bit_is_a_format_error(tmp_path):
    path = tmp_path / "m.tq"
    model = _one_layer_container(path)
    layer = model.layers[0]
    row = int(layer.counts[:2].sum())  # block 2's only level
    assert layer.alphas[row] == 0 and not layer.signs[row].any()

    def edit(blob, layers):
        at = layers[0]["span"][0] + 4 * row
        blob[at:at + 4] = np.float32(-0.0).tobytes()

    rewrite_blob(path, edit)
    with pytest.raises(FormatError, match="'w'.*sign bit"):
        load_quantized(path)
    assert main(["stats", str(path)]) == 1


def _json_type(value) -> str:
    return {bool: "boolean", int: "number", float: "number", str: "string",
            list: "array", dict: "object", type(None): "null"}[type(value)]


def _same_models(a: QuantizedModel, b: QuantizedModel) -> bool:
    return (a.manifest_doc, a.provenance) == (b.manifest_doc, b.provenance) and all(
        (x.layer, x.shape, x.block_size, x.delta, x.epsilon_sq, x.source_norm_sq,
         x.exhausted) == (y.layer, y.shape, y.block_size, y.delta, y.epsilon_sq,
                          y.source_norm_sq, y.exhausted)
        and all(np.array_equal(getattr(x, f), getattr(y, f))
                for f in ("counts", "alphas", "signs"))
        for x, y in zip(a.layers, b.layers, strict=True))


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.floats(),
    st.text(max_size=4), st.lists(st.integers(0, 40), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 40), max_size=2))


@given(layer=st.integers(0, 1),
       key=st.sampled_from(["name", "shape", "N", "delta", "epsilon_sq", "source_norm_sq",
                            "exhausted", "levels_per_block", "crc32"]),
       element=st.booleans(), at=st.integers(0, 10), value=_JSON_VALUES)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_an_index_value_swapped_for_another_json_type_loads_identically_or_fails(
        tmp_path, layer, key, element, at, value):
    path = tmp_path / "m.tq"
    model = _two_layer_container(path)
    old = _split_container(path)[0]["layers"][layer][key]
    if element and isinstance(old, list):
        at %= len(old)
        old = old[at]
    assume(_json_type(value) != _json_type(old))

    def on_index(index):
        entry = index["layers"][layer]
        if element and isinstance(entry[key], list):
            entry[key][at] = value
        else:
            entry[key] = value
        return index

    rewrite_index(path, on_index)
    try:
        back = load_quantized(path)
    except FormatError:
        return
    assert _same_models(back, model)


def test_npy_version_2_is_a_format_error(tmp_path):
    path = tmp_path / "v2.npy"
    with open(path, "wb") as fp:
        np.lib.format.write_array(fp, np.ones(3, dtype="<f4"), version=(2, 0))
    with pytest.raises(FormatError, match=r"unsupported NPY version \(2, 0\)"):
        load_tensor(path)


def test_malformed_npy_header_is_a_format_error(tmp_path):
    header = b"{'descr': '<f4'}".ljust(117) + b"\n"
    path = tmp_path / "bad.npy"
    path.write_bytes(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header)
    with pytest.raises(FormatError, match="malformed NPY header"):
        load_tensor(path)
