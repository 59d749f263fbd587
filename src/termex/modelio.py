"""Low-level binary helpers for the versioned model file formats."""

from __future__ import annotations

import io
import math
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import ModelFormatError


def open_model(path: str | Path) -> io.BytesIO:
    """The whole model file in memory, so that every size it declares can be
    checked against the bytes left before anything is read or allocated."""
    return io.BytesIO(Path(path).read_bytes())


def _remaining(fh: BinaryIO) -> int:
    here = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(here)
    return end - here


def _check_left(fh: BinaryIO, size: int) -> None:
    left = _remaining(fh)
    if size > left:
        raise ModelFormatError(
            f"truncated model file: {size} bytes declared, {left} left"
        )


def _read_exact(fh: BinaryIO, size: int) -> bytes:
    _check_left(fh, size)
    return fh.read(size)


def read_end(fh: BinaryIO) -> None:
    """Fail unless the whole file has been read."""
    left = _remaining(fh)
    if left:
        raise ModelFormatError(f"{left} unexpected bytes at the end of the model file")


def write_header(fh: BinaryIO, magic: bytes, version: int) -> None:
    fh.write(magic)
    fh.write(struct.pack("<I", version))


def read_header(fh: BinaryIO, magic: bytes, version: int) -> int:
    """Check the magic and return the file's version, one of 1..version."""
    got = _read_exact(fh, len(magic))
    if got != magic:
        raise ModelFormatError(f"bad magic {got!r}, expected {magic!r}")
    (got_version,) = struct.unpack("<I", _read_exact(fh, 4))
    if not 1 <= got_version <= version:
        raise ModelFormatError(f"unsupported version {got_version}, expected 1..{version}")
    return got_version


def write_u32(fh: BinaryIO, value: int) -> None:
    fh.write(struct.pack("<I", value))


def read_u32(fh: BinaryIO) -> int:
    return struct.unpack("<I", _read_exact(fh, 4))[0]


def read_u64(fh: BinaryIO) -> int:
    return struct.unpack("<Q", _read_exact(fh, 8))[0]


def write_f64(fh: BinaryIO, value: float) -> None:
    fh.write(struct.pack("<d", value))


def read_f64(fh: BinaryIO) -> float:
    return struct.unpack("<d", _read_exact(fh, 8))[0]


def write_str(fh: BinaryIO, value: str) -> None:
    data = value.encode("utf-8")
    write_u32(fh, len(data))
    fh.write(data)


def read_str(fh: BinaryIO) -> str:
    data = _read_exact(fh, read_u32(fh))
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model string is not valid UTF-8: {exc}") from exc


def write_matrix(fh: BinaryIO, arr: np.ndarray) -> None:
    """Row-major float64 payload; the shape is owned by the caller's header."""
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_matrix(fh: BinaryIO, shape: tuple[int, ...]) -> np.ndarray:
    _check_left(fh, 8 * math.prod(shape))
    arr = np.empty(shape, dtype="<f8")
    fh.readinto(arr)
    if not np.isfinite(arr).all():
        raise ModelFormatError("model matrix contains non-finite values")
    return arr
