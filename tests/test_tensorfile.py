import numpy as np
import pytest

from tubekit.tensorfile import TensorFileError, read_tensors, write_tensors


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(95)
        store = {
            "a.weight": rng.standard_normal((3, 4, 5)).astype(np.float32),
            "a.bias": rng.standard_normal(7).astype(np.float32),
            "scalar": np.array([2.5], dtype=np.float32),
        }
        path = tmp_path / "w.tkt"
        write_tensors(store, path)
        loaded = read_tensors(path)
        assert list(loaded) == list(store)
        for name in store:
            assert loaded[name].dtype == np.float32
            assert np.array_equal(
                loaded[name].view(np.uint32), store[name].view(np.uint32)
            )
        first = path.read_bytes()
        write_tensors(loaded, path)
        assert path.read_bytes() == first

    def test_special_float_bits_preserved(self, tmp_path):
        arr = np.array([0.0, -0.0, 1e-40, 3.4e38], dtype=np.float32)
        path = tmp_path / "w.tkt"
        write_tensors({"x": arr}, path)
        out = read_tensors(path)["x"]
        assert np.array_equal(out.view(np.uint32), arr.view(np.uint32))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "w.tkt"
        write_tensors({"x": np.zeros(10, np.float32)}, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TensorFileError, match="truncated"):
            read_tensors(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "w.tkt"
        write_tensors({"x": np.zeros(2, np.float32)}, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(TensorFileError, match="trailing"):
            read_tensors(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.tkt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TensorFileError, match="magic"):
            read_tensors(path)

    def test_duplicate_names(self, tmp_path):
        path = tmp_path / "w.tkt"
        header = b'[{"name":"x","shape":[1],"dtype":"f32"},{"name":"x","shape":[1],"dtype":"f32"}]'
        import struct

        path.write_bytes(b"TKT1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        with pytest.raises(TensorFileError, match="duplicate"):
            read_tensors(path)

    def test_non_f32_dtype_rejected(self, tmp_path):
        path = tmp_path / "w.tkt"
        header = b'[{"name":"x","shape":[1],"dtype":"f64"}]'
        import struct

        path.write_bytes(b"TKT1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        with pytest.raises(TensorFileError, match="dtype"):
            read_tensors(path)

    def test_empty_store(self, tmp_path):
        path = tmp_path / "w.tkt"
        write_tensors({}, path)
        assert read_tensors(path) == {}

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "w.tkt"
        write_tensors({"x": np.zeros(2, np.float32)}, path)
        data = path.read_bytes()
        for cut in (6, 12):
            path.write_bytes(data[:cut])
            with pytest.raises(TensorFileError, match="truncated header"):
                read_tensors(path)

    def test_huge_declared_shape_is_truncated_not_allocated(self, tmp_path):
        # The payload size is checked against the file before any array exists.
        path = tmp_path / "w.tkt"
        header = b'[{"name":"x","shape":[1099511627776,1048576],"dtype":"f32"}]'
        import struct

        path.write_bytes(b"TKT1" + struct.pack("<I", len(header)) + header + b"\x00" * 8)
        with pytest.raises(TensorFileError, match="truncated payload for tensor 'x'"):
            read_tensors(path)

    def test_tensors_are_independent_writable_arrays(self, tmp_path):
        path = tmp_path / "w.tkt"
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        write_tensors({"a": a, "e": np.zeros((0, 4), np.float32), "b": -a[0]}, path)
        out = read_tensors(path)
        assert list(out) == ["a", "e", "b"]
        assert [v.shape for v in out.values()] == [(2, 3), (0, 4), (3,)]
        assert all(v.dtype == np.float32 and v.flags.writeable and v.flags.owndata
                   for v in out.values())
        out["a"][0, 0] = 99.0
        assert np.array_equal(out["b"], -a[0])

    def test_zero_d_round_trip(self, tmp_path):
        path = tmp_path / "w.tkt"
        write_tensors({"s": np.float32(7.0), "v": np.zeros(3, np.float32)}, path)
        assert b'"shape":[]' in path.read_bytes()
        out = read_tensors(path)
        assert out["s"].shape == ()
        assert out["s"].view(np.uint32) == np.float32(7.0).view(np.uint32)
        first = path.read_bytes()
        write_tensors(out, path)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("shape, payload", [
        ([0, 10**30], b""),
        ([0] * 65, b""),
        ([1] * 65, b"\x00" * 4),
    ], ids=["huge-zero-size", "65-dims-zero-size", "65-dims"])
    def test_unallocatable_shape_names_file(self, tmp_path, shape, payload):
        import json
        import struct

        path = tmp_path / "w.tkt"
        header = json.dumps([{"name": "x", "shape": shape, "dtype": "f32"}]).encode()
        path.write_bytes(b"TKT1" + struct.pack("<I", len(header)) + header + payload)
        with pytest.raises(TensorFileError) as info:
            read_tensors(path)
        assert str(info.value) == f"{path}: tensor 'x' has a bad shape"
