"""Binary tensor-container checkpoints, the endpoint compatibility check and
the atomic writer every output of the package goes through.

Container layout (little-endian): 4 magic bytes ``PMRG``, a u32 header
length, a UTF-8 JSON header describing tensor shapes/offsets plus free-form
string metadata, then the raw float32 payload. Offsets are relative to the
payload start and 8-byte aligned, so a canonical save of the same checkpoint
is byte-identical every time.

I/O is per tensor in both directions: a load reads the prefix and header,
then reads each tensor straight into its own array at its offset, and a save
writes each array's buffer without an intermediate bytes copy. Peak memory of
a load is therefore about one copy of the file, not the file plus its tensors.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import CheckpointFormatError, CompatibilityError

MAGIC = b"PMRG"
_ALIGN = 8


@dataclass
class Checkpoint:
    """Named map of dense float32 tensors plus provenance metadata.

    Immutable by convention after construction; tensor insertion order is
    preserved and defines the on-disk payload order.
    """

    tensors: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.tensors:
            raise CheckpointFormatError("checkpoint must hold at least one tensor")
        converted = {}
        for name, arr in self.tensors.items():
            if not isinstance(name, str) or not name:
                raise CheckpointFormatError("tensor names must be non-empty strings")
            arr = np.asarray(arr, dtype=np.float32)
            if arr.ndim == 0 or any(d < 1 for d in arr.shape):
                raise CheckpointFormatError(
                    f"tensor {name!r}: shape must be non-empty with all dims >= 1, got {arr.shape}"
                )
            converted[name] = np.ascontiguousarray(arr)
        self.tensors = converted

    @property
    def total_parameters(self) -> int:
        return sum(int(a.size) for a in self.tensors.values())


def check_compatible(a: Checkpoint, b: Checkpoint) -> None:
    """Raise :class:`CompatibilityError` unless both hold the same tensor names and shapes."""
    names_a, names_b = set(a.tensors), set(b.tensors)
    shapes = sorted(n for n in names_a & names_b if a.tensors[n].shape != b.tensors[n].shape)
    parts = [
        f"{label}: {names}"
        for label, names in (
            ("missing in b", sorted(names_a - names_b)),
            ("missing in a", sorted(names_b - names_a)),
            ("shape mismatches", shapes),
        )
        if names
    ]
    if parts:
        raise CompatibilityError(f"incompatible checkpoints: {'; '.join(parts)}")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the canonical container atomically, one tensor buffer at a time."""
    entries = {}
    offset = 0
    for name, arr in ckpt.tensors.items():
        offset = _align_up(offset)
        nbytes = int(arr.size) * 4
        entries[name] = {"shape": list(arr.shape), "offset": offset, "nbytes": nbytes}
        offset += nbytes
    header = {"tensors": entries, "metadata": dict(ckpt.metadata)}
    header_bytes = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")

    def chunks():
        yield MAGIC
        yield struct.pack("<I", len(header_bytes))
        yield header_bytes
        pos = 0
        for name, arr in ckpt.tensors.items():
            offset = entries[name]["offset"]
            yield b"\x00" * (offset - pos)
            data = np.ascontiguousarray(arr, dtype="<f4")
            yield memoryview(data).cast("B")
            pos = offset + data.nbytes

    write_atomic(path, chunks())


def load_checkpoint(path, validate: bool = True) -> Checkpoint:
    """Read a container back; rejects malformed files with located errors.

    With ``validate`` enabled (the default) any NaN/Inf element fails the
    load, reported with its tensor name and absolute file offset.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(MAGIC) + 4)
        if len(prefix) < len(MAGIC) + 4:
            raise CheckpointFormatError(f"{path}: file too short for container header")
        if prefix[:4] != MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic {prefix[:4]!r}, expected {MAGIC!r}")
        (header_len,) = struct.unpack("<I", prefix[4:8])
        header_end = 8 + header_len
        if file_size < header_end:
            raise CheckpointFormatError(f"{path}: truncated header ({header_len} bytes declared)")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointFormatError(f"{path}: header is not valid JSON: {exc}") from exc

        if not isinstance(header, dict) or "tensors" not in header:
            raise CheckpointFormatError(f"{path}: header missing 'tensors' table")
        entries = header["tensors"]
        if not isinstance(entries, dict) or not entries:
            raise CheckpointFormatError(f"{path}: container must hold at least one tensor")
        metadata = header.get("metadata", {})
        if not isinstance(metadata, dict):
            raise CheckpointFormatError(f"{path}: metadata must be a string map")

        payload_size = file_size - header_end
        tensors: dict[str, np.ndarray] = {}
        for name, entry in entries.items():
            try:
                shape = tuple(int(d) for d in entry["shape"])
                offset = int(entry["offset"])
                nbytes = int(entry["nbytes"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointFormatError(
                    f"{path}: tensor {name!r}: malformed header entry"
                ) from exc
            if not shape or any(d < 1 for d in shape):
                raise CheckpointFormatError(f"{path}: tensor {name!r}: invalid shape {shape}")
            count = math.prod(shape)
            if nbytes != count * 4:
                raise CheckpointFormatError(
                    f"{path}: tensor {name!r}: header declares {nbytes} bytes "
                    f"but shape {shape} needs {count * 4}"
                )
            if offset < 0:
                raise CheckpointFormatError(f"{path}: tensor {name!r}: negative offset {offset}")
            if offset % _ALIGN != 0:
                raise CheckpointFormatError(
                    f"{path}: tensor {name!r}: offset {offset} is not {_ALIGN}-byte aligned"
                )
            if offset + nbytes > payload_size:
                raise _truncated(path, name, offset, nbytes, payload_size)
            arr = np.empty(shape, dtype="<f4")
            fh.seek(header_end + offset)
            got = fh.readinto(memoryview(arr).cast("B"))
            if got < nbytes:  # the file shrank after it was measured
                raise _truncated(path, name, offset, nbytes, offset + got)
            if validate and not np.isfinite(arr).all():
                bad = int(np.flatnonzero(~np.isfinite(arr.ravel()))[0])
                raise CheckpointFormatError(
                    f"{path}: tensor {name!r}: non-finite element at flat index {bad} "
                    f"(file offset {header_end + offset + 4 * bad})"
                )
            tensors[name] = arr
    return Checkpoint(tensors=tensors, metadata={str(k): str(v) for k, v in metadata.items()})


def _truncated(path, name: str, offset: int, nbytes: int, available: int) -> CheckpointFormatError:
    return CheckpointFormatError(
        f"{path}: tensor {name!r}: payload truncated "
        f"(needs bytes [{offset}, {offset + nbytes}) of {available})"
    )


def _align_up(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def write_atomic(path, data: bytes | Iterable[bytes]) -> None:
    """Replace ``path`` with ``data`` (bytes, or bytes-like chunks written in order)
    through a sibling ``.tmp`` file. This is the package's only file writer: on
    any error the temp file is removed and ``path`` keeps its previous bytes."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines([data] if isinstance(data, bytes) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
