"""Framed binary files: splits, checkpoints and binary exports.

A framed file is one sorted-key JSON header line, whose ``dtype`` names the
payload's element type, then little-endian row-major arrays, and nothing
after them. A reader declares the arrays with ``shapes(header)``: one
``(dtype, shape)`` per array, in payload order. Each read error is a
ValueError naming the file, checked in the order: header fields, ``kind``,
``dtype``, ``shapes``' own checks, then the payload's length.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Callable

import numpy as np

FLOATS = ("float32", "float64")
# what an error calls a file of each header ``kind``
KINDS = {"split": "a split file", "embedding_export": "an embedding export"}


def write_replacing(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (UTF-8 text or bytes) to a temporary file beside ``path``,
    then move it onto ``path``; a failed write leaves the previous file and no
    temporary one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    mode, encoding = ("w", "utf-8") if isinstance(data, str) else ("wb", None)
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_dtype(path: str | Path, name: object, dtypes: tuple[str, ...]) -> None:
    if name not in dtypes:
        allowed = " or ".join(map(repr, dtypes))
        raise ValueError(f"{path}: field 'dtype' must be {allowed}, got {name!r}")


def write(path: str | Path, header: dict, *arrays: np.ndarray,
          dtypes: tuple[str, ...] = FLOATS) -> None:
    """Write ``header`` as one sorted-key JSON line, then each array's bytes in
    its own dtype, little-endian, replacing ``path`` whole; a header
    ``dtype`` not in ``dtypes`` writes nothing."""
    _check_dtype(path, header["dtype"], dtypes)
    write_replacing(path, b"".join([
        json.dumps(header, sort_keys=True).encode("utf-8"),
        b"\n",
        *(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes() for a in arrays),
    ]))


def _checked_header(path: str | Path, line: bytes, keys: tuple[str, ...],
                    kind: str | None, dtypes: tuple[str, ...]) -> dict:
    """The JSON header ``line`` of ``path``, with each (dotted) key in ``keys``
    a non-negative integer, then its ``kind`` (unless None) and ``dtype``
    checked."""
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    for key in keys:
        value = header
        for part in key.split("."):
            if not isinstance(value, dict) or part not in value:
                raise ValueError(f"{path}: missing field {key!r}")
            value = value[part]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"{path}: field {key!r} must be a non-negative integer, got {value!r}")
    if kind is not None and header.get("kind") != kind:
        raise ValueError(f"{path}: not {KINDS[kind]}")
    _check_dtype(path, header.get("dtype"), dtypes)
    return header


def read_header(path: str | Path, keys: tuple[str, ...], kind: str | None,
                dtypes: tuple[str, ...] = FLOATS) -> dict:
    """The header of the framed file ``path``, checked as ``read`` checks it;
    the payload is not read."""
    with open(path, "rb") as fh:
        return _checked_header(path, fh.readline(), keys, kind, dtypes)


def read(path: str | Path, keys: tuple[str, ...], kind: str | None, shapes: Callable,
         dtypes: tuple[str, ...] = FLOATS) -> tuple[dict, list[np.ndarray]]:
    """The checked header of the framed file ``path`` and, as native-order
    copies, the arrays that ``shapes(header)`` declares; the payload must be
    exactly those arrays."""
    with open(path, "rb") as fh:
        header = _checked_header(path, fh.readline(), keys, kind, dtypes)
        try:
            declared = shapes(header)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        layout = [(np.dtype(name).newbyteorder("<"), shape) for name, shape in declared]
        nbytes = sum(dtype.itemsize * math.prod(shape) for dtype, shape in layout)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size < nbytes:
            raise ValueError(f"{path}: truncated payload ({size} of {nbytes} bytes)")
        if size > nbytes:
            raise ValueError(f"{path}: {size - nbytes} trailing bytes after the payload")
        # sized by the header only once the file is known to hold them
        arrays = [np.empty(shape, dtype) for dtype, shape in layout]
        if sum(fh.readinto(array) for array in arrays) != nbytes:
            raise ValueError(f"{path}: changed while it was read")
    return header, [array.astype(array.dtype.newbyteorder("="), copy=False) for array in arrays]
