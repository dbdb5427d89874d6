import io
import os
import re
import struct

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paretomerge.checkpoint import (
    Checkpoint,
    LazyTensors,
    MAGIC,
    check_compatible,
    load_checkpoint,
    save_checkpoint,
    write_atomic,
)
from paretomerge.errors import CheckpointFormatError, CompatibilityError


def same_tensors(a, b):
    """Same tensor names in the same order, with equal shapes and elements."""
    return list(a.tensors) == list(b.tensors) and all(
        x.shape == b.tensors[n].shape and np.array_equal(x, b.tensors[n])
        for n, x in a.tensors.items()
    )


def make_ckpt(arrays, metadata=None):
    return Checkpoint(
        tensors={k: np.asarray(v, dtype=np.float32) for k, v in arrays.items()},
        metadata=metadata or {},
    )


def test_round_trip_single_tensor(tmp_path):
    ckpt = make_ckpt({"w": [1.0, 2.0]})
    path = tmp_path / "one.pmrg"
    save_checkpoint(ckpt, path)
    with load_checkpoint(path) as loaded:
        assert list(loaded.tensors) == ["w"]
        assert loaded.tensors["w"].shape == (2,)
        assert np.array_equal(loaded.tensors["w"], np.array([1.0, 2.0], dtype=np.float32))


def test_round_trip_multi_tensor_bytes_identical(tmp_path):
    ckpt = make_ckpt(
        {"a": [[1.0, 2.0], [3.0, 4.0]], "b": [5.0], "c": np.arange(7, dtype=np.float32)},
        metadata={"source": "unit-test"},
    )
    p1, p2 = tmp_path / "x1.pmrg", tmp_path / "x2.pmrg"
    save_checkpoint(ckpt, p1)
    with load_checkpoint(p1) as loaded:
        assert loaded.metadata == {"source": "unit-test"}
        save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_random_checkpoints(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(20):
        n_tensors = int(rng.integers(1, 11))
        tensors = {}
        for t in range(n_tensors):
            ndim = int(rng.integers(1, 4))
            shape = tuple(int(rng.integers(1, 12)) for _ in range(ndim))
            tensors[f"t{t}"] = rng.standard_normal(shape).astype(np.float32)
        ckpt = Checkpoint(tensors=tensors)
        path = tmp_path / f"r{trial}.pmrg"
        save_checkpoint(ckpt, path)
        with load_checkpoint(path) as loaded:
            assert same_tensors(loaded, ckpt)


def test_payload_offsets_are_eight_byte_aligned(tmp_path):
    import json

    # 7 and 3 element tensors force padding between payload segments
    ckpt = make_ckpt({"a": np.arange(7), "b": np.arange(3), "c": np.arange(2)})
    path = tmp_path / "aligned.pmrg"
    save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + hlen])
    offsets = {n: e["offset"] for n, e in header["tensors"].items()}
    assert offsets == {"a": 0, "b": 32, "c": 48}
    for entry in header["tensors"].values():
        assert entry["offset"] % 8 == 0
    with load_checkpoint(path) as loaded:
        assert same_tensors(loaded, ckpt)


def test_overwrite_existing_file(tmp_path):
    path = tmp_path / "same.pmrg"
    save_checkpoint(make_ckpt({"w": [1.0]}), path)
    save_checkpoint(make_ckpt({"w": [9.0, 9.0]}), path)
    with load_checkpoint(path) as loaded:
        assert loaded.tensors["w"].shape == (2,)


def test_failed_save_keeps_previous_file_and_no_temp(tmp_path):
    path = tmp_path / "out.pmrg"
    save_checkpoint(make_ckpt({"a": np.arange(200), "b": np.arange(300)}), path)
    before = path.read_bytes()
    source = make_ckpt({"a": np.ones(500), "b": np.ones(3)})

    def blocks(name, out=None):  # the second tensor fails after the first is written
        if name == "b":
            raise OSError("device lost mid-write")
        return source.tensors.blocks(name, out)

    ckpt = Checkpoint(LazyTensors(dict(source.shapes), blocks))
    with pytest.raises(OSError, match="device lost"):
        save_checkpoint(ckpt, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.pmrg"]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pmrg"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    header = b'{"tensors":{"w":{"shape":[2],"offset":0,"nbytes":8}},"metadata":{}}'
    blob = MAGIC + struct.pack("<I", len(header)) + header + b"\x00" * 4  # 4 of 8 bytes
    path = tmp_path / "trunc.pmrg"
    path.write_bytes(blob)
    with load_checkpoint(path) as loaded, \
            pytest.raises(CheckpointFormatError, match="truncated"):
        loaded.tensors["w"]


def three_tensor_file(tmp_path):
    ckpt = make_ckpt({"a": np.arange(7), "b": np.arange(3), "c": np.arange(2)})
    path = tmp_path / "three.pmrg"
    save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[4:8])
    return path, blob, 8 + hlen  # payload offsets: a 0, b 32, c 48


def test_file_cut_mid_tensor_raises_located_truncation(tmp_path):
    path, blob, header_end = three_tensor_file(tmp_path)
    path.write_bytes(blob[: header_end + 38])  # 6 of b's 12 bytes
    message = "tensor 'b': payload truncated (needs bytes [32, 44) of 38)"
    with load_checkpoint(path) as loaded:
        assert np.array_equal(loaded.tensors["a"], np.arange(7))
        with pytest.raises(CheckpointFormatError, match=re.escape(message)):
            loaded.tensors["b"]


def test_short_read_raises_truncation_not_partial_array(tmp_path, monkeypatch):
    # the file shrinks between measuring it and reading tensor b
    path, blob, header_end = three_tensor_file(tmp_path)
    path.write_bytes(blob[: header_end + 38])
    real_fstat = os.fstat

    def uncut_fstat(fd):
        fields = list(real_fstat(fd))
        fields[6] = len(blob)  # st_size
        return os.stat_result(fields)

    monkeypatch.setattr(os, "fstat", uncut_fstat)
    message = "tensor 'b': payload truncated (needs bytes [32, 44) of 38)"
    with load_checkpoint(path) as loaded, \
            pytest.raises(CheckpointFormatError, match=re.escape(message)):
        loaded.tensors["b"]


def test_negative_offset_rejected(tmp_path):
    header = b'{"tensors":{"w":{"shape":[2],"offset":-8,"nbytes":8}},"metadata":{}}'
    path = tmp_path / "neg.pmrg"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + b"\x00" * 8)
    with pytest.raises(CheckpointFormatError, match="tensor 'w': negative offset -8"):
        load_checkpoint(path)


def test_loaded_arrays_are_writeable_and_independent(tmp_path):
    path, _, _ = three_tensor_file(tmp_path)
    with load_checkpoint(path) as loaded:
        arrays = list(loaded.tensors.values())
    for i, arr in enumerate(arrays):
        assert arr.flags.writeable and arr.flags.c_contiguous
        assert not any(np.shares_memory(arr, other) for other in arrays[i + 1 :])
        arr[...] = -1.0
    assert all((arr == -1.0).all() for arr in arrays)


names = st.text(min_size=1, max_size=12)
tensor_maps = st.dictionaries(
    names,
    hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
               elements=st.floats(width=32)),
    min_size=1,
    max_size=5,
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tensors=tensor_maps, metadata=st.dictionaries(st.text(max_size=12), st.text(max_size=12)))
def test_save_load_round_trip_property(tmp_path, tensors, metadata):
    p1, p2 = tmp_path / "p1.pmrg", tmp_path / "p2.pmrg"
    save_checkpoint(Checkpoint(tensors=tensors, metadata=metadata), p1)
    with load_checkpoint(p1, validate=False) as loaded:
        assert list(loaded.tensors) == list(tensors)
        assert loaded.metadata == metadata
        for name, arr in tensors.items():
            got = loaded.tensors[name]
            assert got.shape == arr.shape
            assert np.array_equal(got.view(np.uint32), arr.view(np.uint32))
        save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_shape_nbytes_mismatch_rejected(tmp_path):
    header = b'{"tensors":{"w":{"shape":[2],"offset":0,"nbytes":4}},"metadata":{}}'
    blob = MAGIC + struct.pack("<I", len(header)) + header + b"\x00" * 8
    path = tmp_path / "mismatch.pmrg"
    path.write_bytes(blob)
    with pytest.raises(CheckpointFormatError, match="declares 4 bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("entry", [
    '{"shape":"12","offset":0,"nbytes":8}',  # a string of digits is not a shape
    '{"shape":[2.5],"offset":0,"nbytes":8}',
    '{"shape":[2.0],"offset":0,"nbytes":8}',
    '{"shape":[true,2],"offset":0,"nbytes":8}',
    '{"shape":2,"offset":0,"nbytes":8}',
    '{"shape":[2],"offset":0.9,"nbytes":8}',
    '{"shape":[2],"offset":"0","nbytes":8}',
    '{"shape":[2],"offset":false,"nbytes":8}',
    '{"shape":[2],"offset":0,"nbytes":8.0}',
    '{"shape":[2],"offset":0,"nbytes":null}',
    '{"shape":[2],"offset":0}',
    '[[2],0,8]',
])
def test_header_numbers_must_be_json_integers(tmp_path, entry):
    header = b'{"tensors":{"w":' + entry.encode() + b'},"metadata":{}}'
    path = tmp_path / "entry.pmrg"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + b"\x00" * 8)
    message = f"{path}: tensor 'w': malformed header entry"
    with pytest.raises(CheckpointFormatError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)


def test_empty_tensor_name_rejected_with_its_file(tmp_path):
    header = b'{"tensors":{"":{"shape":[2],"offset":0,"nbytes":8}},"metadata":{}}'
    path = tmp_path / "noname.pmrg"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + b"\x00" * 8)
    message = f"{path}: tensor names must be non-empty strings"
    with pytest.raises(CheckpointFormatError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)


def test_empty_tensor_table_rejected(tmp_path):
    header = b'{"tensors":{},"metadata":{}}'
    path = tmp_path / "empty.pmrg"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(CheckpointFormatError, match="at least one tensor"):
        load_checkpoint(path)


def test_nonfinite_rejected_unless_disabled(tmp_path):
    path = tmp_path / "nan.pmrg"
    header = b'{"tensors":{"w":{"shape":[2],"offset":0,"nbytes":8}},"metadata":{}}'
    payload = np.array([1.0, np.nan], dtype="<f4").tobytes()
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + payload)
    with load_checkpoint(path) as loaded, \
            pytest.raises(CheckpointFormatError, match="non-finite.*flat index 1"):
        loaded.tensors["w"]
    with load_checkpoint(path, validate=False) as loaded:
        assert np.isnan(loaded.tensors["w"][1])


def test_unwritable_path_raises_io_error(tmp_path):
    with pytest.raises(OSError):
        save_checkpoint(make_ckpt({"w": [1.0]}), tmp_path / "nope" / "deep" / "x.pmrg")


def test_unicode_tensor_names_and_metadata_round_trip(tmp_path):
    ckpt = make_ckpt(
        {"層.weight": [1.0, 2.0], "plain": [3.0]},
        metadata={"来源": "テスト"},
    )
    path = tmp_path / "uni.pmrg"
    save_checkpoint(ckpt, path)
    with load_checkpoint(path) as loaded:
        assert list(loaded.tensors) == ["層.weight", "plain"]
        assert loaded.metadata == {"来源": "テスト"}
        assert same_tensors(loaded, ckpt)


def test_checkpoint_invariants_enforced():
    with pytest.raises(CheckpointFormatError):
        Checkpoint(tensors={})
    with pytest.raises(CheckpointFormatError):
        Checkpoint(tensors={"": np.ones(3, dtype=np.float32)})
    with pytest.raises(CheckpointFormatError):
        Checkpoint(tensors={"s": np.float32(1.0)})  # scalar shape ()


def test_compatibility_report_cases():
    a = make_ckpt({"w": [1.0, 2.0], "w2": [3.0]})
    b = make_ckpt({"w": [1.0, 2.0], "w2": [0.0]})
    check_compatible(a, b)

    c = make_ckpt({"w": [1.0, 2.0]})
    with pytest.raises(CompatibilityError, match=re.escape("missing in b: ['w2']")):
        check_compatible(a, c)

    d = make_ckpt({"w": [1.0, 2.0, 3.0], "w2": [0.0]})
    with pytest.raises(CompatibilityError, match=re.escape("shape mismatches: ['w']")):
        check_compatible(a, d)

    e = make_ckpt({"w": [1.0], "v": [0.0]})
    with pytest.raises(CompatibilityError) as exc:
        check_compatible(a, e)
    assert str(exc.value) == (
        "incompatible checkpoints: missing in b: ['w2']; missing in a: ['v']; "
        "shape mismatches: ['w']"
    )


def compatible(x, y) -> bool:
    try:
        check_compatible(x, y)
    except CompatibilityError:
        return False
    return True


def test_compatibility_is_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(25):
        def rand_ckpt():
            names = rng.choice(["a", "b", "c", "d"], size=int(rng.integers(1, 4)), replace=False)
            return Checkpoint(
                tensors={
                    str(n): rng.standard_normal(int(rng.integers(1, 5))).astype(np.float32)
                    for n in names
                }
            )
        x, y = rand_ckpt(), rand_ckpt()
        assert compatible(x, y) == compatible(y, x)


@pytest.mark.parametrize("size", [4, 3 * io.DEFAULT_BUFFER_SIZE])
def test_write_atomic_writes_each_chunk_before_drawing_the_next(tmp_path, size):
    # every chunk is a view of one buffer that is overwritten after each
    # yield, small enough to be buffered or large enough to be written through
    buf = bytearray(size)

    def chunks():
        for i in range(5):
            buf[:] = bytes([i]) * size
            yield memoryview(buf)
        buf[:] = b"x" * size

    path = tmp_path / "out.bin"
    write_atomic(path, chunks())
    assert path.read_bytes() == b"".join(bytes([i]) * size for i in range(5))
