"""Binary tensor-container checkpoints, the endpoint compatibility check and
the atomic writer every output of the package goes through.

Container layout (little-endian): 4 magic bytes ``PMRG``, a u32 header
length, a UTF-8 JSON header describing tensor shapes/offsets plus free-form
string metadata, then the raw float32 payload. Offsets are relative to the
payload start and 8-byte aligned, so a canonical save of the same checkpoint
is byte-identical every time. Each tensor's entry holds its ``shape`` (a list
of JSON integers), ``offset`` and ``nbytes`` (JSON integers); a float, a
boolean or a string in their place is a malformed entry, not a number.

I/O is positional and in blocks. A load reads and checks the prefix and the
whole header before any payload byte and keeps the file open. One block
reader then reads any run of a tensor's elements at its file position into a
caller's buffer and checks it: a whole-tensor lookup reads the tensor into a
new array, and ``tensor_blocks`` reads it block by block into one reused
buffer, which is how ``merge`` reads its endpoints. A save writes the header
from the shapes alone, then each tensor's blocks without an intermediate
bytes copy, so saving a merge holds blocks, not tensors.
"""

from __future__ import annotations

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


class LazyTensors(Mapping):
    """Read-only map of tensors made on lookup: ``fetch(name)`` builds the
    array each time ``name`` is looked up, while names and shapes are known
    up front. ``close`` releases whatever ``fetch`` reads from.

    Two optional hooks give a tensor without its whole array. ``read(name,
    start, buf)`` fills the float32 array ``buf`` with flat elements
    ``[start, start + len(buf))`` of a stored tensor, in any order of calls
    (see :func:`tensor_blocks`). ``blocks(name)`` yields a computed tensor
    as consecutive flat blocks, each valid until the next is drawn (what
    :func:`save_checkpoint` writes).
    """

    def __init__(
        self,
        shapes: dict[str, tuple[int, ...]],
        fetch: Callable[[str], np.ndarray],
        close: Callable[[], None] = lambda: None,
        *,
        read: Callable[[str, int, np.ndarray], None] | None = None,
        blocks: Callable[[str], Iterable[np.ndarray]] | None = None,
    ):
        self.shapes, self._fetch, self.close = shapes, fetch, close
        self.read, self.blocks = read, blocks

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.shapes:
            raise KeyError(name)
        return self._fetch(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.shapes)

    def __len__(self) -> int:
        return len(self.shapes)


@dataclass
class Checkpoint:
    """Named map of dense float32 tensors plus provenance metadata.

    Immutable by convention after construction; tensor insertion order is
    preserved and defines the on-disk payload order. ``tensors`` is a dict
    of arrays, or a :class:`LazyTensors` whose arrays are made on each
    lookup. A checkpoint from ``load_checkpoint`` keeps its file open until
    it is closed: use it in a ``with`` block or call ``close``.
    """

    tensors: Mapping[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.tensors, LazyTensors):
            self.tensors = {
                name: np.asarray(arr, dtype=np.float32, order="C")
                for name, arr in self.tensors.items()
            }
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
        if isinstance(self.tensors, LazyTensors):
            return self.tensors.shapes
        return {name: arr.shape for name, arr in self.tensors.items()}

    @property
    def total_parameters(self) -> int:
        return sum(math.prod(shape) for shape in self.shapes.values())

    def close(self) -> None:
        """Release the file of a loaded checkpoint; a no-op otherwise."""
        if isinstance(self.tensors, LazyTensors):
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


def tensor_blocks(ckpt: Checkpoint, name: str, size: int) -> Iterable[np.ndarray]:
    """Tensor ``name`` of ``ckpt`` as consecutive flat float32 blocks of
    ``size`` elements (the last may be shorter), re-iterable for another pass.

    A tensor with a block reader (one of a loaded checkpoint) is read at its
    file position, one block at a time, into one buffer per pass, so a
    block is valid only until the next is drawn and no whole tensor is
    held. Any other tensor is looked up once, here, and its views are the
    blocks.
    """
    read = getattr(ckpt.tensors, "read", None)
    if read is None:
        flat = ckpt.tensors[name].reshape(-1)
        return _Passes(lambda: (flat[lo:lo + size] for lo in range(0, flat.size, size)))
    n = math.prod(ckpt.tensors.shapes[name])

    def read_pass() -> Iterator[np.ndarray]:
        buf = np.empty(min(size, n), dtype="<f4")
        for lo in range(0, n, size):
            block = buf[: min(size, n - lo)]
            read(name, lo, block)
            yield block

    return _Passes(read_pass)


class _Passes:
    """An iterable whose every pass is a fresh iterator from ``start()``."""

    def __init__(self, start: Callable[[], Iterator[np.ndarray]]):
        self._start = start

    def __iter__(self) -> Iterator[np.ndarray]:
        return self._start()


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the canonical container atomically: the header from the shapes
    alone, then one tensor at a time, each looked up only when it is written,
    or drawn block by block from a ``blocks`` hook (a merge's tensors)."""
    entries = {}
    offset = 0
    for name, shape in ckpt.shapes.items():
        offset = _align_up(offset)
        nbytes = math.prod(shape) * 4
        entries[name] = {"shape": list(shape), "offset": offset, "nbytes": nbytes}
        offset += nbytes
    header = {"tensors": entries, "metadata": dict(ckpt.metadata)}
    header_bytes = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    blocks = getattr(ckpt.tensors, "blocks", None)

    def chunks():
        yield MAGIC
        yield struct.pack("<I", len(header_bytes))
        yield header_bytes
        pos = 0
        for name, entry in entries.items():
            yield b"\x00" * (entry["offset"] - pos)
            # No local keeps a block or an array, so each is freed once
            # written, before the next is drawn or looked up.
            if blocks is None:
                yield _bytes_of(ckpt.tensors[name])
            else:
                yield from map(_bytes_of, blocks(name))
            pos = entry["offset"] + entry["nbytes"]

    write_atomic(path, chunks())


def _bytes_of(arr: np.ndarray) -> memoryview:
    """The little-endian float32 bytes of ``arr``, without a copy when it is one."""
    return memoryview(np.ascontiguousarray(arr, dtype="<f4")).cast("B")


def load_checkpoint(path, validate: bool = True) -> Checkpoint:
    """Open a container; rejects malformed files with located errors.

    The prefix and the whole header are checked before this returns, and the
    file stays open: close the returned checkpoint (or use it in a ``with``
    block) to close it. Payload bytes are read only by the block reader (the
    ``read`` hook of the returned tensors), which a lookup calls once for the
    whole tensor and :func:`tensor_blocks` once per block, and every read is
    checked, so a payload fault is raised by the read that meets it: the
    tensor must lie inside the file and, with ``validate`` enabled (the
    default), hold no NaN/Inf element, which is reported with its tensor
    name, flat index and absolute file offset.
    """
    fh = open(path, "rb")
    try:
        table, metadata, header_end, payload_size = _read_header(path, fh)

        def read(name: str, start: int, buf: np.ndarray) -> None:
            """Read flat elements ``[start, start + len(buf))`` of tensor
            ``name`` into ``buf`` at their file position, and check them."""
            _, offset, nbytes = table[name]
            if buf.dtype != np.dtype("<f4") or not 0 <= start <= nbytes // 4 - buf.size:
                raise ValueError(
                    f"tensor {name!r}: cannot read {buf.size} {buf.dtype} elements at {start}"
                )
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

        def fetch(name: str) -> np.ndarray:
            arr = np.empty(table[name][0], dtype="<f4")
            read(name, 0, arr.reshape(-1))
            return arr

        shapes = {name: entry[0] for name, entry in table.items()}
        return Checkpoint(LazyTensors(shapes, fetch, fh.close, read=read), metadata)
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
    through a sibling ``.tmp`` file. This is the package's only file writer: on
    any error the temp file is removed and ``path`` keeps its previous bytes.

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
