"""``merge`` reads both endpoints straight from their files in blocks.

Every block read is positional and checked on its own, so these tests pin
what that must keep: results equal to the in-memory merge however reads on
one file interleave, located errors whose index, offset and byte range do
not depend on where a block starts, the ``--no-validate`` TIES ranking
through the file reader, and a memory bound of a few blocks (plus the TIES
keys inside its threshold's bracket) whatever the tensor size.
"""

import json
import math
import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import paretomerge.checkpoint as checkpoint
from paretomerge.checkpoint import Checkpoint, LazyTensors, load_checkpoint, save_checkpoint
from paretomerge.cli import main
from paretomerge.errors import CheckpointFormatError
from paretomerge.merge import Genotype, MergeKind, decode_genotype
from tensor_merge import argsort_mask, layout_pair, merge_tensor

SHAPES = {"head": (3,), "w": (5, 7), "tail": (4, 2)}
OPS = [("ta", (0.3,)), ("linear", (0.6, 0.5)), ("ties", (0.5, 0.2)), ("ties", (0.7, 0.55))]


def quantized(shapes, seed):
    """Arrays full of magnitude ties, so TIES thresholds land inside tie runs."""
    rng = np.random.default_rng(seed)
    return {n: (rng.integers(-6, 7, s) / 4).astype(np.float32) for n, s in shapes.items()}


def header_of(path):
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", blob[4:8])
    return blob, 8 + hlen, json.loads(blob[8:8 + hlen])["tensors"]


def read_payload(path):
    """Independent reader of a PMRG file's tensors."""
    blob, base, table = header_of(path)
    return {
        name: np.frombuffer(blob, "<f4", e["nbytes"] // 4, base + e["offset"]).reshape(e["shape"])
        for name, e in table.items()
    }


def merge_argv(p2, p1, out, op, params, *extra):
    return ["merge", "--system2", str(p2), "--system1", str(p1), "--op", op,
            "--params", ",".join(map(repr, params)), "--out", str(out), *extra]


@pytest.mark.parametrize("op, params", OPS)
def test_one_loaded_file_as_both_endpoints_matches_the_in_memory_merge(
    merge_block, tmp_path, op, params
):
    arrays = quantized(SHAPES, 1)
    path = tmp_path / "ck.pmrg"
    save_checkpoint(Checkpoint(arrays), path)
    genotype = Genotype(MergeKind(op), params)
    want = decode_genotype(genotype, Checkpoint(arrays), Checkpoint(arrays))
    save_checkpoint(want, tmp_path / "want.pmrg")
    with load_checkpoint(path) as ck:
        merged = decode_genotype(genotype, ck, ck)
        for name in SHAPES:
            assert merged.tensors[name].tobytes() == want.tensors[name].tobytes()
        save_checkpoint(merged, tmp_path / "got.pmrg")
    assert (tmp_path / "got.pmrg").read_bytes() == (tmp_path / "want.pmrg").read_bytes()


def renamed(loaded, source, shape):
    """A one-tensor checkpoint ``t`` that reads tensor ``source`` of ``loaded``."""
    return Checkpoint(LazyTensors(
        {"t": shape}, lambda _, out=None: loaded.tensors.blocks(source, out)
    ))


@pytest.mark.parametrize("op, params", OPS)
def test_interleaved_reads_of_one_file_give_each_endpoint_its_own_blocks(
    merge_block, tmp_path, op, params
):
    # both endpoints are tensors of one open file, so every block read of
    # system2 is followed by one of system1 at another position, in both
    # TIES passes
    shape = (6, 5)
    arrays = quantized({"x": shape, "y": shape}, 2)
    path = tmp_path / "both.pmrg"
    save_checkpoint(Checkpoint(arrays), path)
    genotype = Genotype(MergeKind(op), params)
    want = merge_tensor(genotype, arrays["x"], arrays["y"])
    with load_checkpoint(path) as loaded:
        merged = decode_genotype(genotype, renamed(loaded, "x", shape), renamed(loaded, "y", shape))
        assert merged.tensors["t"].tobytes() == want.tobytes()
        save_checkpoint(merged, tmp_path / "out.pmrg")
    assert read_payload(tmp_path / "out.pmrg")["t"].tobytes() == want.tobytes()


def test_block_passes_match_the_whole_tensor_and_out_is_checked(merge_block, tmp_path):
    arrays = quantized(SHAPES, 3)
    path = tmp_path / "ck.pmrg"
    save_checkpoint(Checkpoint(arrays), path)
    with load_checkpoint(path) as ck:
        for _ in range(2):  # a second pass reads the file again
            blocks = [b.copy() for b in ck.tensors.blocks("w")]
            assert max(b.size for b in blocks) == min(checkpoint.BLOCK, 35)
            assert np.concatenate(blocks).tobytes() == arrays["w"].tobytes()
        out = np.empty(35, dtype=np.float32)
        assert all(np.shares_memory(b, out) for b in ck.tensors.blocks("w", out))
        assert out.tobytes() == arrays["w"].tobytes()
        for bad in (np.empty(35, dtype=np.float64), np.empty(34, dtype=np.float32)):
            with pytest.raises(ValueError, match="^tensor 'w': cannot read 35 elements into 3"):
                for _ in ck.tensors.blocks("w", bad):
                    pass


def nan_at(path, name, index):
    blob, base, table = header_of(path)
    at = base + table[name]["offset"] + 4 * index
    path.write_bytes(blob[:at] + np.float32(np.nan).tobytes() + blob[at + 4:])
    return f"{path}: tensor {name!r}: non-finite element at flat index {index} (file offset {at})"


def cut_at(path, name, index, monkeypatch, stale_size):
    """Cut ``path`` two bytes into element ``index`` of ``name``; with
    ``stale_size`` the header check still sees the old file size, so the cut
    is met by a short read."""
    blob, base, table = header_of(path)
    entry = table[name]
    cut = entry["offset"] + 4 * index + 2
    path.write_bytes(blob[: base + cut])
    if stale_size:
        real_fstat = os.fstat

        def uncut_fstat(fd):
            fields = list(real_fstat(fd))
            fields[6] = len(blob)  # st_size
            return os.stat_result(fields)

        monkeypatch.setattr(os, "fstat", uncut_fstat)
    return (f"{path}: tensor {name!r}: payload truncated "
            f"(needs bytes [{entry['offset']}, {entry['offset'] + entry['nbytes']}) of {cut})")


FAULTS = {
    "nan": lambda path, monkeypatch: nan_at(path, "w", 23),
    "cut": lambda path, monkeypatch: cut_at(path, "w", 20, monkeypatch, stale_size=False),
    "short-read": lambda path, monkeypatch: cut_at(path, "w", 20, monkeypatch, stale_size=True),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_in_a_later_block_is_located_as_in_a_whole_read(
    merge_block, tmp_path, monkeypatch, fault
):
    path = tmp_path / "ck.pmrg"
    save_checkpoint(Checkpoint(quantized(SHAPES, 4)), path)
    message = FAULTS[fault](path, monkeypatch)
    with load_checkpoint(path) as ck:
        assert ck.tensors["head"].shape == (3,)
        with pytest.raises(CheckpointFormatError, match=f"^{re.escape(message)}$"):
            ck.tensors["w"]
        with pytest.raises(CheckpointFormatError, match=f"^{re.escape(message)}$"):
            for _ in ck.tensors.blocks("w"):
                pass


@pytest.mark.parametrize("op, params", OPS)
@pytest.mark.parametrize("fault", FAULTS)
def test_merge_fault_in_a_later_block_exits_1_without_output(
    merge_block, tmp_path, capsys, monkeypatch, fault, op, params
):
    p2, p1, out = tmp_path / "s2.pmrg", tmp_path / "s1.pmrg", tmp_path / "out.pmrg"
    save_checkpoint(Checkpoint(quantized(SHAPES, 5)), p2)
    save_checkpoint(Checkpoint(quantized(SHAPES, 6)), p1)
    message = FAULTS[fault](p1, monkeypatch)
    assert main(merge_argv(p2, p1, out, op, params)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s1.pmrg", "s2.pmrg"]


@pytest.mark.parametrize("op, params", [
    ("ta", (0.0,)), ("ta", (0.4,)), ("ta", (1.0,)),
    ("ties", (0.5, 0.05)), ("ties", (0.5, 0.6)), ("ties", (0.3, 0.95)), ("ties", (1.0, 1.0)),
])
def test_no_validate_merge_of_non_finite_blocks_matches_the_oracle(
    merge_block, tmp_path, op, params
):
    arrays2 = quantized(SHAPES, 7)
    arrays1 = {n: a + quantized(SHAPES, 8)[n] for n, a in arrays2.items()}
    flat = arrays1["w"].reshape(-1)  # 35 elements: many blocks at every small size
    flat[[2, 9, 30]] = np.nan
    flat[[4, 21]] = np.inf
    flat[[13, 34]] = -np.inf
    p2, p1, out = tmp_path / "s2.pmrg", tmp_path / "s1.pmrg", tmp_path / "out.pmrg"
    save_checkpoint(Checkpoint(arrays2), p2)
    save_checkpoint(Checkpoint(arrays1), p1)
    assert main(merge_argv(p2, p1, out, op, params, "--no-validate")) == 0
    got = read_payload(out)
    with np.errstate(invalid="ignore"):  # the oracle's 0 * inf where s1 is infinite
        lam = np.float32(params[0])
        for name, s2 in arrays2.items():
            s1 = arrays1[name]
            want = (np.float32(1.0) - lam) * s2 + lam * s1
            if op == "ties":
                want = np.where(argsort_mask(s1 - s2, params[1]), want, s2)
            assert np.array_equal(got[name].view(np.uint32), want.view(np.uint32)), name
    if op == "ta" and params == (0.0,):  # 0 * inf and 0 * nan are NaN, not system2
        assert np.isnan(got["w"].reshape(-1)[[2, 4, 9, 13, 21, 30, 34]]).all()
    elif op == "ties":  # infinite displacements rank first, NaN ones after every number
        keep = min(35, math.ceil(params[1] * 35))
        kept = argsort_mask(arrays1["w"] - arrays2["w"], params[1]).reshape(-1)
        assert kept[[4, 13, 21, 34]].sum() == min(4, keep)
        assert kept[[2, 9, 30]].sum() == max(0, keep - 32)


@pytest.mark.parametrize("params", [(0.5, 0.2), (0.3, 0.9), (1.0, 1.0)])
def test_no_validate_merge_of_a_nan_first_block_matches_the_oracle(tmp_path, monkeypatch, params):
    # NaN ranks after every number, so the first block's bracket sits above
    # the threshold and TIES finds it by its histogram passes
    monkeypatch.setattr(checkpoint, "BLOCK", 64)
    s2, s1 = layout_pair("nan-first", 64 * 20 + 5, 64, params[1], seed=3)
    p2, p1, out = tmp_path / "s2.pmrg", tmp_path / "s1.pmrg", tmp_path / "out.pmrg"
    save_checkpoint(Checkpoint({"t": s2}), p2)
    save_checkpoint(Checkpoint({"t": s1}), p1)
    assert main(merge_argv(p2, p1, out, "ties", params)) == 1
    assert main(merge_argv(p2, p1, out, "ties", params, "--no-validate")) == 0
    lam = np.float32(params[0])
    want = np.where(argsort_mask(s1 - s2, params[1]), (np.float32(1.0) - lam) * s2 + lam * s1, s2)
    assert np.array_equal(read_payload(out)["t"].view(np.uint32), want.view(np.uint32))


def write_one_tensor(tmp_path, n):
    rng = np.random.default_rng(9)
    paths = tmp_path / "s2.pmrg", tmp_path / "s1.pmrg"
    for path in paths:
        save_checkpoint(Checkpoint({"t": rng.standard_normal(n, dtype=np.float32)}), path)
    return paths


@pytest.mark.parametrize("op, params", [("ta", (0.3,)), ("linear", (0.6, 0.5)), ("ties", (0.5, 0.2))])
def test_merge_peak_memory_is_blocks_not_tensors(tmp_path, op, params):
    # the endpoints are written before tracing starts; the traced peak is the
    # merge's own: blocks, plus for TIES the keys inside its threshold's
    # bracket, bounded here by n bytes, a quarter of a uint32 key per entry
    n = 64 * checkpoint.BLOCK
    block_bytes = 4 * checkpoint.BLOCK
    p2, p1 = write_one_tensor(tmp_path, n)
    tracemalloc.start()
    try:
        assert main(merge_argv(p2, p1, tmp_path / "out.pmrg", op, params)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * block_bytes + (n if op == "ties" else 0)
    assert peak < bound, f"traced peak {peak / block_bytes:.1f} blocks"


def test_lookup_of_a_loaded_tensor_allocates_only_its_array(tmp_path):
    n = 1 << 20
    _, p1 = write_one_tensor(tmp_path, n)
    with load_checkpoint(p1) as loaded:
        tracemalloc.start()
        try:
            arr = loaded.tensors["t"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert arr.nbytes == 4 * n
    assert peak < 1.05 * arr.nbytes, f"traced peak {peak / arr.nbytes:.2f}x the tensor"


def test_membership_of_a_loaded_tensor_reads_nothing(tmp_path, monkeypatch):
    _, p1 = write_one_tensor(tmp_path, 1 << 20)
    reads = []
    preadv = os.preadv
    with load_checkpoint(p1) as loaded:
        monkeypatch.setattr(os, "preadv", lambda *args: reads.append(args) or preadv(*args))
        assert "t" in loaded.tensors
        assert "u" not in loaded.tensors and 0 not in loaded.tensors
        assert reads == []
        loaded.tensors["t"]  # a lookup is seen reading
        assert len(reads) == 1


def test_saving_a_loaded_checkpoint_holds_blocks_not_the_tensor(tmp_path):
    n = 64 * checkpoint.BLOCK
    block_bytes = 4 * checkpoint.BLOCK
    _, p1 = write_one_tensor(tmp_path, n)
    copy = tmp_path / "copy.pmrg"
    with load_checkpoint(p1) as loaded:
        tracemalloc.start()
        try:
            save_checkpoint(loaded, copy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert copy.read_bytes() == p1.read_bytes()
    assert peak < 8 * block_bytes, f"traced peak {peak / block_bytes:.1f} blocks"


@pytest.mark.parametrize("op, params", [("ta", (0.0,)), ("linear", (1.0, 0.0)), ("ties", (0.0, 1.0))])
def test_no_validate_merge_of_infinities_warns_nothing(tmp_path, capsys, op, params):
    # inf in both endpoints at index 1 (inf - inf in the TIES key) and in
    # system1 alone at index 2 (0 * inf in the weighted sum); RuntimeWarning
    # is an error under this suite, so a warning fails the merge
    p2, p1, out = tmp_path / "s2.pmrg", tmp_path / "s1.pmrg", tmp_path / "out.pmrg"
    save_checkpoint(Checkpoint({"t": np.array([1, np.inf, 3, 4], dtype=np.float32)}), p2)
    save_checkpoint(Checkpoint({"t": np.array([5, np.inf, np.inf, 8], dtype=np.float32)}), p1)
    assert main(merge_argv(p2, p1, out, op, params, "--no-validate")) == 0
    assert capsys.readouterr().err == ""
    assert np.isnan(read_payload(out)["t"][2])
