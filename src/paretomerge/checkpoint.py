"""Binary tensor-container checkpoints, the endpoint compatibility check and
the two writers every output of the package goes through: ``write_atomic``
replaces a file, ``append_bytes`` extends one.

Container layout (little-endian): 4 magic bytes ``PMRG``, a u32 header
length, a UTF-8 JSON header describing tensor shapes/offsets plus free-form
string metadata, then the raw float32 payload. Offsets are relative to the
payload start and 8-byte aligned, so a canonical save of the same checkpoint
is byte-identical every time. Each tensor's entry holds its ``shape`` (a list
of JSON integers), ``offset`` and ``nbytes`` (JSON integers); a float, a
boolean or a string in their place is a malformed entry, not a number.

I/O is positional and in blocks. Every checkpoint reaches its tensors through
one hook, ``LazyTensors.blocks``, which yields a tensor as flat float32 blocks
of at most ``BLOCK`` elements. A load reads and checks the prefix and the
whole header before any payload byte and keeps the file open; its hook reads
each block at its file position into one reused buffer and checks it, or reads
a whole-tensor lookup straight into the new array. A save writes the header
from the shapes alone, then each tensor's blocks without an intermediate
bytes copy, so saving a loaded or merged checkpoint holds blocks, not tensors.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import CheckpointFormatError, CompatibilityError

MAGIC = b"PMRG"
_ALIGN = 8
# Elements per block of every tensor pass (read, merge, save): a pass holds a
# few blocks, never a tensor.
BLOCK = 1 << 16


def block_slices(n: int) -> Iterator[slice]:
    """Slices of consecutive ``BLOCK``-element blocks covering ``range(n)``."""
    for lo in range(0, n, BLOCK):
        yield slice(lo, min(lo + BLOCK, n))


class LazyTensors(Mapping):
    """Read-only map of tensors, made on lookup from one hook; names and
    shapes are known up front.

    ``blocks(name, out=None)`` yields tensor ``name`` as consecutive flat
    float32 blocks of at most ``BLOCK`` elements, and each call is one pass.
    The blocks are views of ``out``, a flat float32 array of the tensor's
    size, when one is given; otherwise each is valid only until the next is
    drawn. A lookup drains one pass into a new array. ``close`` releases
    whatever ``blocks`` reads from.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], blocks: Callable, close=lambda: None):
        self.shapes, self.blocks, self.close = shapes, blocks, close

    def __getitem__(self, name: str) -> np.ndarray:
        arr = np.empty(self.shapes[name], dtype="<f4")
        for _ in self.blocks(name, arr.reshape(-1)):
            pass
        return arr

    def __contains__(self, name) -> bool:  # from the header: ``Mapping``'s would read the tensor
        return name in self.shapes

    def __iter__(self) -> Iterator[str]:
        return iter(self.shapes)

    def __len__(self) -> int:
        return len(self.shapes)


def _in_memory(arrays: Mapping) -> LazyTensors:
    """A dict of arrays as tensors: each is held as a C-ordered float32 array,
    and its blocks are views of it, or of ``out`` once it is copied there."""
    arrays = {name: np.asarray(arr, dtype=np.float32, order="C") for name, arr in arrays.items()}

    def blocks(name: str, out: np.ndarray | None = None) -> Iterator[np.ndarray]:
        flat = arrays[name].reshape(-1)
        if out is not None:
            out[:] = flat
            flat = out
        yield from map(flat.__getitem__, block_slices(flat.size))

    return LazyTensors({name: arr.shape for name, arr in arrays.items()}, blocks)


@dataclass
class Checkpoint:
    """Named map of dense float32 tensors plus provenance metadata.

    ``tensors`` is given as a dict of arrays or as a :class:`LazyTensors`
    (a loaded or merged checkpoint's); a dict is wrapped as one, so
    ``tensors`` is read-only and every lookup makes a new array. Tensor
    insertion order is preserved and defines the on-disk payload order. A
    checkpoint from ``load_checkpoint`` keeps its file open until it is
    closed: use it in a ``with`` block or call ``close``.
    """

    tensors: Mapping[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.tensors, dict):
            self.tensors = _in_memory(self.tensors)
        if not self.tensors:
            raise CheckpointFormatError("checkpoint must hold at least one tensor")
        for name, shape in self.shapes.items():
            if not isinstance(name, str) or not name:
                raise CheckpointFormatError("tensor names must be non-empty strings")
            if len(shape) == 0 or any(d < 1 for d in shape):
                raise CheckpointFormatError(
                    f"tensor {name!r}: shape must be non-empty with all dims >= 1, got {shape}"
                )

    @property
    def shapes(self) -> Mapping[str, tuple[int, ...]]:
        """Tensor name -> shape in payload order, known without looking up a
        tensor (a lookup on a loaded or merged checkpoint reads or merges it)."""
        return self.tensors.shapes

    @property
    def total_parameters(self) -> int:
        return sum(math.prod(shape) for shape in self.shapes.values())

    def close(self) -> None:
        """Release the file of a loaded checkpoint; a no-op otherwise."""
        self.tensors.close()

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def check_compatible(a: Checkpoint, b: Checkpoint) -> None:
    """Raise :class:`CompatibilityError` unless both hold the same tensor names
    and shapes. Compares shapes only, so no tensor is looked up."""
    shapes_a, shapes_b = a.shapes, b.shapes
    names_a, names_b = set(shapes_a), set(shapes_b)
    shapes = sorted(n for n in names_a & names_b if shapes_a[n] != shapes_b[n])
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
    """Write the canonical container atomically: the header from the shapes
    alone, then each tensor block by block, in one pass of its ``blocks``
    hook."""
    entries = {}
    offset = 0
    for name, shape in ckpt.shapes.items():
        offset = _align_up(offset)
        nbytes = math.prod(shape) * 4
        entries[name] = {"shape": list(shape), "offset": offset, "nbytes": nbytes}
        offset += nbytes
    header = {"tensors": entries, "metadata": dict(ckpt.metadata)}
    header_bytes = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")

    def chunks():
        yield MAGIC
        yield struct.pack("<I", len(header_bytes))
        yield header_bytes
        pos = 0
        for name, entry in entries.items():
            yield b"\x00" * (entry["offset"] - pos)
            for block in ckpt.tensors.blocks(name):  # copied only on a big-endian host
                yield memoryview(np.ascontiguousarray(block, dtype="<f4")).cast("B")
            pos = entry["offset"] + entry["nbytes"]

    write_atomic(path, chunks())


def load_checkpoint(path, validate: bool = True) -> Checkpoint:
    """Open a container; rejects malformed files with located errors.

    The prefix and the whole header are checked before this returns, and the
    file stays open: close the returned checkpoint (or use it in a ``with``
    block) to close it. Payload bytes are read only by the ``blocks`` hook of
    the returned tensors, one block at a time into one reused buffer, or at
    once into ``out`` (a lookup), and every read is checked, so a payload
    fault is raised by the read that meets it: the tensor must lie inside the
    file and, with ``validate`` enabled (the default), hold no NaN/Inf
    element, which is reported with its tensor name, flat index and absolute
    file offset.
    """
    fh = open(path, "rb")
    try:
        table, metadata, header_end, payload_size = _read_header(path, fh)

        def read(name: str, start: int, buf: np.ndarray) -> None:
            """Read flat elements ``[start, start + len(buf))`` of tensor
            ``name`` into ``buf`` at their file position, and check them."""
            _, offset, nbytes = table[name]
            if offset + nbytes > payload_size:
                raise _truncated(path, name, offset, nbytes, payload_size)
            at = offset + 4 * start  # payload position of the block
            view = memoryview(buf).cast("B")
            got = 0
            while got < view.nbytes:  # positional, so reads may interleave
                n = os.preadv(fh.fileno(), [view[got:]], header_end + at + got)
                if n == 0:  # the file shrank after it was measured
                    raise _truncated(path, name, offset, nbytes, at + got)
                got += n
            # NaN propagates through min and max, and an infinity is one of
            # them, so no mask is made unless there is a bad element to find
            if validate and not (np.isfinite(buf.min()) and np.isfinite(buf.max())):
                bad = start + int(np.flatnonzero(~np.isfinite(buf))[0])
                raise CheckpointFormatError(
                    f"{path}: tensor {name!r}: non-finite element at flat index {bad} "
                    f"(file offset {header_end + offset + 4 * bad})"
                )

        def blocks(name: str, out: np.ndarray | None = None) -> Iterator[np.ndarray]:
            n = table[name][2] // 4
            if out is None:
                buf = np.empty(min(BLOCK, n), dtype="<f4")
                for b in block_slices(n):
                    block = buf[: b.stop - b.start]
                    read(name, b.start, block)
                    yield block
                return
            if out.dtype != np.dtype("<f4") or out.shape != (n,):
                raise ValueError(
                    f"tensor {name!r}: cannot read {n} elements into {out.size} {out.dtype} elements"
                )
            read(name, 0, out)  # a lookup: one read straight into its array
            yield from map(out.__getitem__, block_slices(n))

        shapes = {name: entry[0] for name, entry in table.items()}
        return Checkpoint(LazyTensors(shapes, blocks, fh.close), metadata)
    except BaseException:
        fh.close()
        raise


def _read_header(path, fh) -> tuple[dict, dict[str, str], int, int]:
    """Read and check the prefix and header of an open container.

    Returns ``(table, metadata, header_end, payload_size)``: ``table`` maps
    each tensor name, in header order, to ``(shape, offset, nbytes)``, and
    ``payload_size`` is the file size measured now, less the header. No
    payload byte is read.
    """
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

    table = {}
    for name, entry in entries.items():
        if not name:
            raise CheckpointFormatError(f"{path}: tensor names must be non-empty strings")
        fields = entry if isinstance(entry, dict) else {}
        shape, offset, nbytes = (fields.get(key) for key in ("shape", "offset", "nbytes"))
        if not (
            isinstance(shape, list)
            and all(type(d) is int for d in shape)
            and type(offset) is int
            and type(nbytes) is int
        ):
            raise CheckpointFormatError(f"{path}: tensor {name!r}: malformed header entry")
        shape = tuple(shape)
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
        table[name] = (shape, offset, nbytes)
    metadata = {str(k): str(v) for k, v in metadata.items()}
    return table, metadata, header_end, file_size - header_end


def _truncated(path, name: str, offset: int, nbytes: int, available: int) -> CheckpointFormatError:
    return CheckpointFormatError(
        f"{path}: tensor {name!r}: payload truncated "
        f"(needs bytes [{offset}, {offset + nbytes}) of {available})"
    )


def _align_up(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def write_atomic(path, data: bytes | Iterable[bytes]) -> None:
    """Replace ``path`` with ``data`` (bytes, or bytes-like chunks written in order)
    through a sibling ``.tmp`` file. With ``append_bytes`` it is one of the
    package's two file writers: on any error the temp file is removed and
    ``path`` keeps its previous bytes.

    Each chunk is written before the next is drawn, so a chunk may be a view
    of a buffer that the iterable overwrites for the next one."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        # A new file, never a truncated old one: ``data`` may still be read
        # from a file that sits at the temp path (a loaded input).
        tmp.unlink(missing_ok=True)
        with open(tmp, "wb") as fh:
            for chunk in [data] if isinstance(data, bytes) else data:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def append_bytes(path, data: bytes) -> None:
    """Add ``data`` at the end of ``path``, a file that must exist: a missing
    file is an error, not a new file holding only ``data``. On any error the
    file is cut back to its previous length, so it keeps its previous bytes.
    A process killed mid-call can leave part of ``data`` behind."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        size = os.fstat(fd).st_size
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        except BaseException:
            os.ftruncate(fd, size)
            raise
    finally:
        os.close(fd)


def write_changed(path, data: bytes) -> None:
    """``write_atomic(path, data)`` unless ``path`` already holds exactly
    ``data``: a file whose bytes would not change keeps its inode and mtime."""
    with contextlib.suppress(OSError):  # no file, or none readable: write it
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size == len(data) and fh.read() == data:
                return
    write_atomic(path, data)
