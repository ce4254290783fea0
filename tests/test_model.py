"""Embedding init, forward pass, checkpoints, and exports."""

import hashlib
import json
import re
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from concf import (
    DatasetSplit,
    EmbeddingTable,
    build_normalized_adjacency,
    build_split,
    forward,
    init_embeddings,
    load_checkpoint,
    save_checkpoint,
)
from concf.model import (
    read_matrix_binary,
    write_matrix_binary,
    write_matrix_text,
    xavier_bound,
)
from concf import graph

from conftest import fail_mid_write, from_keys, open_worker_gate, random_split

XAVIER_BOUND_64 = 0.21650635094610965  # sqrt(6 / (64 + 64))
MISSING = object()


def checkpoint_with_header(tmp_path, **changes):
    """A saved 2 x 3 x 4 checkpoint whose header has ``changes`` applied
    (``MISSING`` deletes the key); the payload is left as written."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_embeddings(2, 3, 4, seed=0), n_layers=2, epoch=1)
    head, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    for key, value in changes.items():
        if value is MISSING:
            del header[key]
        else:
            header[key] = value
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return path


class TestInitEmbeddings:
    def test_bound_for_d64(self):
        table = init_embeddings(50, 60, 64, seed=0)
        assert np.isclose(xavier_bound(64), XAVIER_BOUND_64)
        assert (np.abs(table.matrix) <= XAVIER_BOUND_64).all()

    def test_deterministic(self):
        a = init_embeddings(10, 12, 8, seed=5)
        b = init_embeddings(10, 12, 8, seed=5)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_mean_within_three_sigma(self):
        # mean of n uniform(-b, b) samples has std b / sqrt(3 n)
        d = 100
        table = init_embeddings(5000, 5000, d, seed=1)
        n = table.matrix.size
        bound = xavier_bound(d)
        sigma = bound / np.sqrt(3 * n)
        assert abs(table.matrix.mean()) < 3 * sigma

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            init_embeddings(3, 3, 0, seed=0)

    def test_float32_option(self):
        table = init_embeddings(4, 4, 8, seed=0, dtype=np.float32)
        assert table.matrix.dtype == np.float32


class TestForward:
    def test_layer_zero_is_table(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 6, seed=2)
        fp = forward(small_adj, table, 2)
        assert fp.layers[0] is table.matrix

    def test_no_edges_scales_readout(self):
        # one of u0's items lands in valid only, leaving that item isolated:
        # its readout is table / (L + 1)
        raw = from_keys(("u0", "u0"), ("i0", "i1"))
        split = build_split(raw, ratios=(0.5, 0.5, 0.0), seed=0)
        adj = build_normalized_adjacency(split)
        table = init_embeddings(split.n_users, split.n_items, 4, seed=0)
        fp = forward(adj, table, 2)
        isolated = np.flatnonzero(np.diff(adj.indptr) == 0)
        assert len(isolated) >= 1
        np.testing.assert_allclose(fp.readout[isolated], table.matrix[isolated] / 3.0)

    def test_single_edge_hand_unrolled(self):
        raw = from_keys(("u0",), ("i0",))
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        adj = build_normalized_adjacency(split)
        a = np.array([1.0, -2.0, 0.5])
        b = np.array([3.0, 0.0, -1.0])
        table = EmbeddingTable(1, 1, np.stack([a, b]))
        fp = forward(adj, table, 2)
        np.testing.assert_allclose(fp.layers[1][0], b)
        np.testing.assert_allclose(fp.layers[2][0], a)
        np.testing.assert_allclose(fp.readout[0], (a + b + a) / 3.0)
        np.testing.assert_allclose(fp.readout[1], (b + a + b) / 3.0)

    def test_readout_is_layer_mean(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 6, seed=3)
        fp = forward(small_adj, table, 3)
        np.testing.assert_allclose(fp.readout, sum(fp.layers) / 4.0, atol=0)

    def test_linear_in_table(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 6, seed=4)
        scaled = EmbeddingTable(table.n_users, table.n_items, 2.5 * table.matrix)
        fp1 = forward(small_adj, table, 3)
        fp2 = forward(small_adj, scaled, 3)
        np.testing.assert_allclose(fp2.readout, 2.5 * fp1.readout, rtol=1e-13)

    def test_open_gate_splits_every_layer_with_the_same_bytes(
        self, small_split, small_adj, monkeypatch
    ):
        table = init_embeddings(small_split.n_users, small_split.n_items, 6, seed=5)
        kernel, ran_on = graph._add_product, []

        def noted(*args):
            ran_on.append(threading.current_thread().name)
            kernel(*args)

        monkeypatch.setattr(graph, "_add_product", noted)
        serial = forward(small_adj, table, 3)
        assert ran_on == []
        open_worker_gate(monkeypatch)
        fp = forward(small_adj, table, 3)
        caller = threading.current_thread().name
        assert ran_on.count(caller) == 3 and len(ran_on) == 6
        assert all(name == caller or name.startswith("concf-step") for name in ran_on)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(fp.layers, serial.layers))
        assert fp.readout.tobytes() == serial.readout.tobytes()

    def test_rejects_zero_layers(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 4, seed=0)
        with pytest.raises(ValueError):
            forward(small_adj, table, 0)

    def test_shape_mismatch(self, small_adj):
        table = EmbeddingTable(2, 2, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            forward(small_adj, table, 1)

    def test_float32_table_with_float64_adjacency_rejected(self, small_split):
        adj = build_normalized_adjacency(small_split, dtype=np.float64)
        table = init_embeddings(
            small_split.n_users, small_split.n_items, 4, seed=0, dtype=np.float32
        )
        with pytest.raises(ValueError, match="adjacency weights are float64, input is float32"):
            forward(adj, table, 2)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        table = init_embeddings(7, 9, 5, seed=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, table, n_layers=3, epoch=12)
        ckpt = load_checkpoint(path)
        assert ckpt.n_layers == 3 and ckpt.epoch == 12
        np.testing.assert_array_equal(ckpt.table.matrix, table.matrix)

    def test_truncated_payload_rejected(self, tmp_path):
        table = init_embeddings(4, 4, 3, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, table, n_layers=2)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_header_has_no_optimizer_state(self, tmp_path):
        table = init_embeddings(2, 3, 4, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, table, n_layers=2, epoch=7)
        head, payload = path.read_bytes().split(b"\n", 1)
        assert json.loads(head) == {
            "n_users": 2, "n_items": 3, "d": 4, "L": 2, "epoch": 7, "dtype": "float64",
        }
        assert payload == table.matrix.astype("<f8").tobytes()

    def test_float32_table_written_as_float32(self, tmp_path):
        table = init_embeddings(2, 3, 4, seed=0, dtype=np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, table, n_layers=2)
        head, data = path.read_bytes().split(b"\n", 1)
        assert json.loads(head)["dtype"] == "float32"
        assert data == table.matrix.astype("<f4").tobytes()
        loaded = load_checkpoint(path).table.matrix
        assert loaded.dtype == np.float32 and loaded.tobytes() == table.matrix.tobytes()

    def test_float32_header_with_float64_payload_rejected(self, tmp_path):
        # the layout before payloads followed the header's dtype
        table = init_embeddings(2, 3, 4, seed=0, dtype=np.float32)
        header = {"n_users": 2, "n_items": 3, "d": 4, "L": 2, "epoch": 0, "dtype": "float32"}
        path = tmp_path / "model.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n"
                         + table.matrix.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: 80 trailing bytes"):
            load_checkpoint(path)

    def test_unsupported_table_dtype_rejected_before_writing(self, tmp_path):
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="field 'dtype' must be 'float32' or 'float64'"):
            save_checkpoint(path, EmbeddingTable(1, 1, np.zeros((2, 3), dtype=np.float16)),
                            n_layers=1)
        assert not path.exists()

    def test_adam_payload_rejected(self, tmp_path):
        # a file that also carries two moment tables after the table
        table = init_embeddings(4, 4, 3, seed=0)
        header = {"n_users": 4, "n_items": 4, "d": 3, "L": 2, "epoch": 1,
                  "dtype": "float64", "has_adam": True, "adam_step": 9}
        path = tmp_path / "crash.ckpt"
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                         + table.matrix.tobytes() * 3)
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: 384 trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("n_users", None), ("n_items", -1), ("d", 3.0), ("L", "2"), ("epoch", True),
    ])
    def test_bad_header_field_named(self, tmp_path, field, value):
        path = checkpoint_with_header(tmp_path, **{field: value})
        with pytest.raises(
            ValueError,
            match=rf"{re.escape(str(path))}: field '{field}' must be a non-negative integer",
        ):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["d", "L"])
    def test_zero_width_or_depth_named(self, tmp_path, field):
        path = checkpoint_with_header(tmp_path, **{field: 0})
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: field '{field}' must be >= 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["n_users", "n_items", "d", "L", "epoch"])
    def test_missing_header_field_named(self, tmp_path, field):
        path = checkpoint_with_header(tmp_path, **{field: MISSING})
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: missing field '{field}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["int8", "float16", None, MISSING])
    def test_bad_dtype_named(self, tmp_path, value):
        path = checkpoint_with_header(tmp_path, dtype=value)
        want = rf"{re.escape(str(path))}: field 'dtype' must be 'float32' or 'float64'"
        with pytest.raises(ValueError, match=want):
            load_checkpoint(path)

    @pytest.mark.parametrize("head", [b"{", b"[1, 2]", b"\xff{}", b""])
    def test_header_not_json_object_named(self, tmp_path, head):
        path = tmp_path / "model.ckpt"
        path.write_bytes(head + b"\n" + bytes(8))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_truncation_or_extension_named(self, tmp_path, data):
        # a checkpoint, a binary export and a split share the header-then-payload layout
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        table = init_embeddings(3, 2, 4, seed=5, dtype=dtype)
        kind = data.draw(st.sampled_from(["checkpoint", "export", "split"]), label="kind")
        if kind == "export":
            path, load = tmp_path / "emb.bin", read_matrix_binary
            write_matrix_binary(path, np.arange(table.n_nodes), table.matrix)
        elif kind == "checkpoint":
            path, load = tmp_path / "model.ckpt", load_checkpoint
            save_checkpoint(path, table, n_layers=2, epoch=3)
        else:
            path = tmp_path / "split" / "split.bin"
            random_split(4, 5, 14, seed=5).save(path.parent)

            def load(path):
                return DatasetSplit.load(path.parent)
        whole = path.read_bytes()
        if data.draw(st.booleans(), label="truncate"):
            bad = whole[: data.draw(st.integers(0, len(whole) - 1), label="keep")]
        else:
            bad = whole + data.draw(st.binary(min_size=1, max_size=64), label="extra")
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load(path)


class TestExportFormats:
    def test_binary_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((6, 4))
        ids = np.arange(6)
        path = tmp_path / "emb.bin"
        write_matrix_binary(path, ids, matrix)
        got_ids, got = read_matrix_binary(path)
        np.testing.assert_array_equal(got_ids, ids)
        np.testing.assert_array_equal(got, matrix)

    @pytest.mark.parametrize("dtype, itemsize", [(np.float32, 4), (np.float64, 8)])
    def test_binary_rows_in_matrix_dtype(self, tmp_path, dtype, itemsize):
        matrix = np.random.default_rng(0).standard_normal((6, 4)).astype(dtype)
        path = tmp_path / "emb.bin"
        write_matrix_binary(path, np.arange(6), matrix)
        head, payload = path.read_bytes().split(b"\n", 1)
        assert json.loads(head)["dtype"] == np.dtype(dtype).name
        assert len(payload) == 6 * 8 + 6 * 4 * itemsize
        _, got = read_matrix_binary(path)
        assert got.dtype == dtype and got.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("value", ["int64", None, MISSING])
    def test_binary_bad_dtype_named(self, tmp_path, value):
        path = tmp_path / "emb.bin"
        write_matrix_binary(path, np.arange(2), np.ones((2, 3)))
        head, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        if value is MISSING:
            del header["dtype"]
        else:
            header["dtype"] = value
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        want = rf"{re.escape(str(path))}: field 'dtype' must be 'float32' or 'float64'"
        with pytest.raises(ValueError, match=want):
            read_matrix_binary(path)


# SHA-256 of the checkpoint and the binary export that
# ``test_framed_file_bytes_pinned`` writes: a change of format changes them, a
# refactor of the codec must not
FRAMED_SHA256 = {
    "float32": ("749e477d6bbdaa9d3d1114418503ed17308cfa721966a945377a13e17f6eaf63",
                "3e476900b331324c828f0ac1da2662b8df2d62590c56a4e1f1d950052d4b6dbd"),
    "float64": ("1ae6a007c254e2647763cceeaaa8a18baaa4f60c4fe2e95a8db51598e5fec534",
                "aa3f17e7bafd148c7aae5ee80df4fa8204d4ba734edc6afc7cc797411a644673"),
}


@pytest.mark.parametrize("dtype", sorted(FRAMED_SHA256))
def test_framed_file_bytes_pinned(tmp_path, dtype):
    """A checkpoint and a binary export of a fixed 5 x 4 matrix, byte for byte."""
    values = ((np.arange(20) - 9.5) / 3).reshape(5, 4).astype(dtype)
    ckpt, export = tmp_path / "model.ckpt", tmp_path / "emb.bin"
    save_checkpoint(ckpt, EmbeddingTable(2, 3, values), n_layers=3, epoch=7)
    write_matrix_binary(export, np.array([4, 0, 2]), values[:3])
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (ckpt, export))
    assert digests == FRAMED_SHA256[dtype]


class TestWritesReplaceFiles:
    WRITERS = {
        "model.ckpt": lambda path, m: save_checkpoint(path, EmbeddingTable(2, 3, m), n_layers=2),
        "emb.tsv": lambda path, m: write_matrix_text(path, np.arange(5), m),
        "emb.bin": lambda path, m: write_matrix_binary(path, np.arange(5), m),
    }

    @pytest.mark.parametrize("name", sorted(WRITERS))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, name, dtype):
        write = self.WRITERS[name]
        rng = np.random.default_rng(0)
        path = tmp_path / name
        write(path, rng.standard_normal((5, 4)).astype(dtype))
        before = path.read_bytes()
        fail_mid_write(monkeypatch, name)
        with pytest.raises(OSError, match="No space left"):
            write(path, rng.standard_normal((5, 4)).astype(dtype))
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert path.read_bytes() == before

    def test_text_export_rows(self, tmp_path):
        path = tmp_path / "emb.tsv"
        write_matrix_text(path, np.array([3, 7]), np.array([[0.1, -2.0], [1e-300, 0.5]]))
        assert path.read_bytes() == b"3\t0.1\t-2.0\n7\t1e-300\t0.5\n"
