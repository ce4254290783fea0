"""Embedding table, multi-layer forward pass, and checkpoint I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import NormalizedAdjacency, propagate
from .seeding import rng_stream


@dataclass
class EmbeddingTable:
    """One d-vector per user and item in a single (n_users + n_items, d) matrix.

    Row layout matches the adjacency node ordering: users first, then items.
    """

    n_users: int
    n_items: int
    matrix: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    @property
    def user_block(self) -> np.ndarray:
        return self.matrix[: self.n_users]

    @property
    def item_block(self) -> np.ndarray:
        return self.matrix[self.n_users:]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.n_users, self.n_items, self.matrix.copy())


@dataclass
class ForwardPass:
    """Per-layer propagation outputs and their uniform-average readout."""

    n_users: int
    n_items: int
    layers: list[np.ndarray]
    readout: np.ndarray

    @property
    def n_layers(self) -> int:
        return len(self.layers) - 1

    @property
    def user_readout(self) -> np.ndarray:
        return self.readout[: self.n_users]

    @property
    def item_readout(self) -> np.ndarray:
        return self.readout[self.n_users:]


def xavier_bound(d: int) -> float:
    """Uniform Xavier half-width with fan_in = fan_out = d."""
    return float(np.sqrt(6.0 / (d + d)))


def init_embeddings(
    n_users: int, n_items: int, d: int, seed: int, dtype: np.dtype = np.float64
) -> EmbeddingTable:
    """Xavier-uniform initialization, deterministic per seed."""
    if d < 1:
        raise ValueError("embedding dimension must be >= 1")
    bound = xavier_bound(d)
    rng = rng_stream(seed)
    matrix = rng.uniform(-bound, bound, size=(n_users + n_items, d)).astype(dtype, copy=False)
    return EmbeddingTable(n_users=n_users, n_items=n_items, matrix=matrix)


def forward(adj: NormalizedAdjacency, table: EmbeddingTable, n_layers: int) -> ForwardPass:
    """Run n_layers propagation steps and average all layer outputs."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    if table.n_nodes != adj.n_nodes:
        raise ValueError(
            f"table has {table.n_nodes} rows but adjacency has {adj.n_nodes} nodes"
        )
    layers = [table.matrix]
    for _ in range(n_layers):
        layers.append(propagate(adj, layers[-1]))
    readout = np.add.reduce(layers) / (n_layers + 1)
    return ForwardPass(
        n_users=table.n_users, n_items=table.n_items, layers=layers, readout=readout
    )


# --- checkpoint I/O ----------------------------------------------------------
#
# Layout: one line of compact JSON, then row-major little-endian float64
# payloads: the embedding table, optionally followed by the two Adam moment
# tables when the checkpoint carries optimizer state.


@dataclass
class Checkpoint:
    table: EmbeddingTable
    n_layers: int
    epoch: int
    header: dict
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    adam_step: int = 0


def save_checkpoint(
    path: str | Path,
    table: EmbeddingTable,
    *,
    n_layers: int,
    epoch: int = 0,
    adam_m: np.ndarray | None = None,
    adam_v: np.ndarray | None = None,
    adam_step: int = 0,
    extra: dict | None = None,
) -> None:
    header = {
        "n_users": table.n_users,
        "n_items": table.n_items,
        "d": table.d,
        "L": n_layers,
        "epoch": epoch,
        "dtype": str(table.matrix.dtype),
        "has_adam": adam_m is not None,
    }
    if adam_m is not None:
        header["adam_step"] = adam_step
    if extra:
        header.update(extra)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(table.matrix, dtype="<f8").tobytes())
        if adam_m is not None:
            fh.write(np.ascontiguousarray(adam_m, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(adam_v, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> Checkpoint:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = json.loads(header_line.decode("utf-8"))
        n = header["n_users"] + header["n_items"]
        d = header["d"]
        dtype = np.dtype(header.get("dtype", "float64"))
        nbytes = n * d * 8

        def read_matrix() -> np.ndarray:
            buf = fh.read(nbytes)
            if len(buf) != nbytes:
                raise ValueError(f"{path}: truncated checkpoint payload")
            return np.frombuffer(buf, dtype="<f8").reshape(n, d).astype(dtype)

        matrix = read_matrix()
        adam_m = adam_v = None
        if header.get("has_adam"):
            adam_m = read_matrix()
            adam_v = read_matrix()
    table = EmbeddingTable(header["n_users"], header["n_items"], matrix)
    return Checkpoint(
        table=table,
        n_layers=header["L"],
        epoch=header["epoch"],
        header=header,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_step=header.get("adam_step", 0),
    )


def write_matrix_text(path: str | Path, ids: np.ndarray, matrix: np.ndarray) -> None:
    """Plain-text export: one row per id, tab-separated values."""
    with open(path, "w", encoding="utf-8") as fh:
        for row_id, row in zip(ids, matrix):
            fh.write(str(int(row_id)))
            fh.write("\t")
            fh.write("\t".join(repr(float(v)) for v in row))
            fh.write("\n")


def write_matrix_binary(path: str | Path, ids: np.ndarray, matrix: np.ndarray) -> None:
    """Binary export: JSON header line + little-endian int64 ids + float64 rows."""
    header = {"kind": "embedding_export", "rows": int(matrix.shape[0]), "cols": int(matrix.shape[1])}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(ids, dtype="<i8").tobytes())
        fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def read_matrix_binary(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("kind") != "embedding_export":
            raise ValueError(f"{path}: not an embedding export")
        rows, cols = header["rows"], header["cols"]
        ids = np.frombuffer(fh.read(8 * rows), dtype="<i8").astype(np.int64)
        matrix = np.frombuffer(fh.read(8 * rows * cols), dtype="<f8").reshape(rows, cols).copy()
    return ids, matrix
