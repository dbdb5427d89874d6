"""``merge`` reads, merges and writes one tensor at a time.

The endpoint headers are read first, compatibility is checked from them, and
then each tensor pair is read, checked, merged and written before the next.
These tests pin what that order must keep: located errors and exit codes,
no partial output on a late fault, closed files, and a memory bound.
"""

import json
import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import paretomerge.cli as cli
from paretomerge.checkpoint import (
    Checkpoint,
    LazyTensors,
    load_checkpoint,
    save_checkpoint,
)
from paretomerge.cli import main
from paretomerge.errors import CheckpointFormatError, CompatibilityError
from paretomerge.merge import Genotype, MergeKind, decode_genotype

SHAPES = {"a": (7,), "b": (3, 4), "c": (5, 2)}


def write_endpoints(tmp_path, shapes=SHAPES, seed=0):
    rng = np.random.default_rng(seed)
    paths = tmp_path / "s2.pmrg", tmp_path / "s1.pmrg"
    for path in paths:
        tensors = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
        save_checkpoint(Checkpoint(tensors=tensors), path)
    return paths


def merge_argv(p2, p1, out, op="ta", params="0.3"):
    return ["merge", "--system2", str(p2), "--system1", str(p1),
            "--op", op, "--params", params, "--out", str(out)]


def payload_start_and_table(path):
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", blob[4:8])
    return blob, 8 + hlen, json.loads(blob[8:8 + hlen])["tensors"]


def test_incompatible_endpoints_fail_before_any_payload_is_read(tmp_path, capsys):
    p2, _ = write_endpoints(tmp_path)
    p1 = tmp_path / "other.pmrg"
    save_checkpoint(Checkpoint({"a": np.ones(7), "b": np.ones((4, 3)), "c": np.ones((5, 2))}), p1)
    blob, header_end, _ = payload_start_and_table(p1)
    p1.write_bytes(blob[: header_end + 10])  # system1's payload is cut short as well
    out = tmp_path / "out.pmrg"
    assert main(merge_argv(p2, p1, out)) == 1
    err = capsys.readouterr().err
    assert err == "error: incompatible checkpoints: shape mismatches: ['b']\n"
    assert not out.exists()


def cut_last_tensor(p1, monkeypatch):
    """Cut system1 inside its last tensor while fstat still reports the old size."""
    blob, header_end, table = payload_start_and_table(p1)
    last = table["c"]
    cut = last["offset"] + last["nbytes"] // 2
    p1.write_bytes(blob[: header_end + cut])
    real_fstat = os.fstat

    def uncut_fstat(fd):
        fields = list(real_fstat(fd))
        fields[6] = len(blob)  # st_size; both endpoints share one layout
        return os.stat_result(fields)

    monkeypatch.setattr(os, "fstat", uncut_fstat)
    return (f"error: {p1}: tensor 'c': payload truncated "
            f"(needs bytes [{last['offset']}, {last['offset'] + last['nbytes']}) of {cut})\n")


def nan_in_last_tensor(p1, monkeypatch):
    blob, header_end, table = payload_start_and_table(p1)
    last = table["c"]
    index = last["nbytes"] // 4 - 1
    at = header_end + last["offset"] + 4 * index
    p1.write_bytes(blob[:at] + np.float32(np.nan).tobytes() + blob[at + 4:])
    return (f"error: {p1}: tensor 'c': non-finite element at flat index {index} "
            f"(file offset {at})\n")


@pytest.mark.parametrize("fault", [nan_in_last_tensor, cut_last_tensor])
@pytest.mark.parametrize("previous", [None, b"previous output"])
def test_late_fault_leaves_no_output_and_no_temp(tmp_path, capsys, monkeypatch, fault, previous):
    p2, p1 = write_endpoints(tmp_path)
    out = tmp_path / "out.pmrg"
    if previous is not None:
        out.write_bytes(previous)
    message = fault(p1, monkeypatch)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(merge_argv(p2, p1, out, op="ties", params="0.5,0.4")) == 1
    assert capsys.readouterr().err == message
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not list(tmp_path.glob("*.tmp"))
    if previous is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == previous


@pytest.mark.parametrize("op, params", [("ta", "0.3"), ("ties", "0.5,0.2"), ("linear", "0.6,0.5")])
def test_output_over_an_input_matches_a_fresh_output(tmp_path, op, params):
    p2, p1 = write_endpoints(tmp_path)
    fresh = tmp_path / "fresh.pmrg"
    assert main(merge_argv(p2, p1, fresh, op, params)) == 0
    assert main(merge_argv(p2, p1, p2, op, params)) == 0
    assert p2.read_bytes() == fresh.read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


def test_input_at_the_output_temp_path_is_read_whole(tmp_path):
    # system1 sits where ``write_atomic`` puts its temp file; it is larger
    # than a read buffer, so truncating it in place would cut its payload
    shapes = {"a": (64, 64), "b": (128,)}
    p2, p1 = write_endpoints(tmp_path, shapes)
    fresh, out = tmp_path / "fresh.pmrg", tmp_path / "x.pmrg"
    assert main(merge_argv(p2, p1, fresh)) == 0
    p1.rename(tmp_path / "x.pmrg.tmp")
    assert main(merge_argv(p2, tmp_path / "x.pmrg.tmp", out)) == 0
    assert out.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("op, params", [("ta", "0.3"), ("ties", "0.5,0.2")])
def test_merge_peak_memory_is_about_one_tensor_per_endpoint(tmp_path, capsys, op, params):
    # 16 tensors x 512 KiB: each endpoint is 8 MiB, so holding both whole
    # endpoints and the result would trace about 24 MiB
    p2, p1 = write_endpoints(tmp_path, {f"t{i}": (128, 1024) for i in range(16)})
    tracemalloc.start()
    try:
        assert main(merge_argv(p2, p1, tmp_path / "out.pmrg", op, params)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_merge_closes_its_endpoint_files(tmp_path, capsys, monkeypatch):
    loaded = []  # keeps every endpoint alive, so only an explicit close frees its file

    def load_and_keep(*args, **kwargs):
        loaded.append(load_checkpoint(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_checkpoint", load_and_keep)
    p2, p1 = write_endpoints(tmp_path)
    before = open_descriptors()
    assert main(merge_argv(p2, p1, tmp_path / "ok.pmrg")) == 0
    assert open_descriptors() == before
    nan_in_last_tensor(p1, None)
    assert main(merge_argv(p2, p1, tmp_path / "bad.pmrg")) == 1
    assert open_descriptors() == before
    assert len(loaded) == 4 and "non-finite" in capsys.readouterr().err


def counting(ckpt, calls):
    """The same checkpoint, with every tensor lookup recorded in ``calls``."""
    return Checkpoint(
        LazyTensors(dict(ckpt.shapes), lambda name: calls.append(name) or ckpt.tensors[name]),
        ckpt.metadata,
    )


def test_shapes_compatibility_and_header_look_up_no_tensor(tmp_path):
    p2, p1 = write_endpoints(tmp_path)
    calls = []
    with load_checkpoint(p2) as loaded2, load_checkpoint(p1) as loaded1:
        s2, s1 = counting(loaded2, calls), counting(loaded1, calls)
        merged = decode_genotype(Genotype(MergeKind.TIES, (0.5, 0.4)), s2, s1)
        assert merged.shapes == SHAPES and merged.total_parameters == 7 + 12 + 10
        assert len(merged.tensors) == 3 and list(merged.tensors) == list(SHAPES)
        assert calls == []
        save_checkpoint(merged, tmp_path / "out.pmrg")
    assert calls == ["a", "a", "b", "b", "c", "c"]  # each pair once, in system2's order


def test_incompatible_endpoints_raise_before_any_lookup(tmp_path):
    p2, _ = write_endpoints(tmp_path)
    p1 = tmp_path / "other.pmrg"
    save_checkpoint(Checkpoint({"a": np.ones(7), "b": np.ones((4, 3)), "d": np.ones(2)}), p1)
    calls = []
    message = "incompatible checkpoints: missing in b: ['c']; missing in a: ['d']; " \
        "shape mismatches: ['b']"
    with load_checkpoint(p2) as loaded2, load_checkpoint(p1) as loaded1:
        s2, s1 = counting(loaded2, calls), counting(loaded1, calls)
        with pytest.raises(CompatibilityError, match=f"^{re.escape(message)}$"):
            decode_genotype(Genotype(MergeKind.TA, (0.5,)), s2, s1)
    assert calls == []


def test_load_checks_each_payload_on_lookup(tmp_path):
    _, p1 = write_endpoints(tmp_path)
    with load_checkpoint(p1) as loaded:
        clean = loaded.tensors["a"]
    message = nan_in_last_tensor(p1, None).removeprefix("error: ").rstrip("\n")
    with load_checkpoint(p1) as loaded:
        assert loaded.shapes == SHAPES
        assert np.array_equal(loaded.tensors["a"], clean)
        with pytest.raises(CheckpointFormatError, match=re.escape(message)):
            loaded.tensors["c"]
