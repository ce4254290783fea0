"""Embedding table, multi-layer forward pass, and checkpoint I/O."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import framed
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
    readout = layers[0] + layers[1]
    for layer in layers[2:]:
        readout += layer
    readout /= n_layers + 1
    return ForwardPass(
        n_users=table.n_users, n_items=table.n_items, layers=layers, readout=readout
    )


@dataclass
class Checkpoint:
    table: EmbeddingTable
    n_layers: int
    epoch: int


def save_checkpoint(
    path: str | Path, table: EmbeddingTable, *, n_layers: int, epoch: int = 0
) -> None:
    header = {"n_users": table.n_users, "n_items": table.n_items, "d": table.d,
              "L": n_layers, "epoch": epoch, "dtype": str(table.matrix.dtype)}
    framed.write(path, header, table.matrix)


def _checkpoint_shapes(header: dict) -> list[tuple[str, tuple[int, int]]]:
    """The (n_users + n_items, d) table a checkpoint header declares; ``d``
    and ``L`` must be >= 1."""
    for key in ("d", "L"):
        if header[key] < 1:
            raise ValueError(f"field {key!r} must be >= 1, got {header[key]}")
    return [(header["dtype"], (header["n_users"] + header["n_items"], header["d"]))]


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint, rejecting a malformed header or a payload that is not
    exactly the table in the header's dtype; every error is a ValueError
    naming ``path``."""
    header, (matrix,) = framed.read(
        path, ("n_users", "n_items", "d", "L", "epoch"), None, _checkpoint_shapes)
    table = EmbeddingTable(header["n_users"], header["n_items"], matrix)
    return Checkpoint(table=table, n_layers=header["L"], epoch=header["epoch"])


def write_matrix_text(path: str | Path, ids: np.ndarray, matrix: np.ndarray) -> None:
    """Plain-text export: one row per id, tab-separated values."""
    framed.write_replacing(path, "".join(
        f"{int(row_id)}\t" + "\t".join(repr(float(v)) for v in row) + "\n"
        for row_id, row in zip(ids, matrix)
    ))


def write_matrix_binary(path: str | Path, ids: np.ndarray, matrix: np.ndarray) -> None:
    """Binary export: JSON header line + little-endian int64 ids + rows in the
    matrix's own dtype (named by the header's ``dtype``)."""
    header = {"kind": "embedding_export", "rows": int(matrix.shape[0]),
              "cols": int(matrix.shape[1]), "dtype": str(matrix.dtype)}
    framed.write(path, header, np.asarray(ids, dtype=np.int64), matrix)


def read_matrix_binary(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a binary export, rejecting a malformed header or a payload that is
    not exactly the ids and then the rows in the header's dtype; every error
    is a ValueError naming ``path``."""
    _, arrays = framed.read(path, ("rows", "cols"), "embedding_export", lambda h: [
        ("int64", (h["rows"],)), (h["dtype"], (h["rows"], h["cols"]))])
    return tuple(arrays)
