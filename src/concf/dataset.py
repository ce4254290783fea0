"""Interaction-log ingestion, k-core filtering, splitting, and negative sampling.

The on-disk split layout is three delimited files (train.tsv, valid.tsv,
test.tsv; one ``user_id<TAB>item_id`` per line) plus a header.json with
{n_users, n_items, counts, seed, min_count}.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .seeding import rng_stream

_SPLIT_FILES = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}
_MAX_REJECTION_ROUNDS = 100_000


class ParseError(ValueError):
    """Malformed interaction file."""


@dataclass(frozen=True)
class RawInteractions:
    """Distinct (user, item) records as int64 codes, in stable input order.

    ``user_keys``/``item_keys`` hold the sorted, distinct keys as object arrays
    (so keys stay exact), and every key occurs in some record. A record's codes
    index them and become the split's ids. Splitting is random, not temporal.
    """

    user_keys: np.ndarray
    item_keys: np.ndarray
    users: np.ndarray
    items: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    @classmethod
    def from_keys(cls, users: Sequence[str], items: Sequence[str]) -> "RawInteractions":
        """Code each column by sorted key order and drop repeated pairs,
        keeping each pair's first occurrence."""
        tables, codes = [], []
        for keys in (users, items):
            table = sorted(set(keys))
            index = {k: n for n, k in enumerate(table)}
            tables.append(np.array(table, dtype=object))
            codes.append(np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys)))
        u, i = codes
        first = np.sort(np.unique(u * len(tables[1]) + i, return_index=True)[1])
        return cls(*tables, u[first], i[first])


@dataclass(frozen=True)
class TripleBatch:
    """Column layout for (user, positive item, negative item) triples."""

    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


@dataclass
class DatasetSplit:
    """Contiguous-ID interaction sets partitioned into train/valid/test.

    ``train``/``valid``/``test`` are (m, 2) int64 arrays of (user_id, item_id).
    ``train_matrix`` holds the train pairs as a boolean user x item CSR (see
    ``pair_matrix``); a train pair may occur only once.
    """

    n_users: int
    n_items: int
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    meta: dict = field(default_factory=dict)
    train_matrix: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.train_matrix = pair_matrix(self.train, self.n_users, self.n_items)
        if self.train_matrix.nnz != len(self.train):
            # the adjacency is built from the CSR, so the rows must not repeat a pair
            keys = self.train[:, 0] * self.n_items + self.train[:, 1]
            first = np.unique(keys, return_index=True)[1]
            u, i = self.train[np.setdiff1d(np.arange(len(keys)), first)[0]]
            raise ValueError(f"duplicate train pair ({u}, {i})")

    @property
    def n_interactions(self) -> int:
        return len(self.train) + len(self.valid) + len(self.test)

    def train_degrees(self) -> np.ndarray:
        """Per-user train interaction counts."""
        return np.bincount(self.train[:, 0], minlength=self.n_users).astype(np.int64)

    def is_train_pair(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorized membership test against the train set."""
        if not len(users):
            # scipy answers an empty lookup with a sparse matrix, not an array
            return np.zeros(0, dtype=bool)
        return np.asarray(self.train_matrix[users, items]).ravel()

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # each id's text is formatted once; a file is its rows' cells joined
        user_cells = np.array([f"{u}\t" for u in range(self.n_users)], dtype=object)
        item_cells = np.array([f"{i}\n" for i in range(self.n_items)], dtype=object)
        for name, fname in _SPLIT_FILES.items():
            arr = getattr(self, name)
            cells = np.stack([user_cells[arr[:, 0]], item_cells[arr[:, 1]]], axis=1)
            with open(out / fname, "w", encoding="utf-8") as fh:
                fh.write("".join(cells.ravel().tolist()))
        header = {
            "n_users": self.n_users,
            "n_items": self.n_items,
            "counts": {name: int(len(getattr(self, name))) for name in _SPLIT_FILES},
            "seed": self.meta.get("seed"),
            "min_count": self.meta.get("min_count"),
        }
        with open(out / "header.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, split_dir: str | Path) -> "DatasetSplit":
        src = Path(split_dir)
        path = src / "header.json"
        keys = ("n_users", "n_items", *(f"counts.{name}" for name in _SPLIT_FILES))
        header = parse_header(path, path.read_bytes(), keys)
        n_users, n_items = header["n_users"], header["n_items"]
        parts = {}
        for name, fname in _SPLIT_FILES.items():
            rows = _load_pairs(src / fname, n_users, n_items)
            if len(rows) != header["counts"][name]:
                raise ValueError(
                    f"{fname}: {len(rows)} rows but header says {header['counts'][name]}"
                )
            parts[name] = rows
        meta = {"seed": header.get("seed"), "min_count": header.get("min_count")}
        try:
            return cls(n_users=n_users, n_items=n_items, **parts, meta=meta)
        except ValueError as exc:
            raise ValueError(f"{src / _SPLIT_FILES['train']}: {exc}") from None


def pair_matrix(pairs: np.ndarray, n_users: int, n_items: int) -> sp.csr_matrix:
    """Boolean n_users x n_items CSR with True at each (user, item) pair;
    duplicate pairs collapse, and column ids ascend within each row."""
    m = sp.csr_matrix((np.ones(len(pairs), dtype=bool), tuple(pairs.T)), shape=(n_users, n_items))
    m.sum_duplicates()
    return m


def group_by_user(users: np.ndarray, items: np.ndarray, n_users: int) -> list[np.ndarray]:
    """Items of each user id 0..n_users-1, in input order (stable sort by user)."""
    order = np.argsort(users, kind="stable")
    ends = np.cumsum(np.bincount(users, minlength=n_users))
    return np.split(np.asarray(items, dtype=np.int64)[order], ends[:-1])


def parse_header(path: str | Path, text: str | bytes, keys: tuple[str, ...]) -> dict:
    """The JSON object ``text`` read from ``path``, with each (dotted) key in
    ``keys`` checked to be present and a non-negative integer; every error is a
    ValueError naming ``path``."""
    try:
        header = json.loads(text)
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
    return header


def _load_pairs(path: Path, n_users: int, n_items: int) -> np.ndarray:
    """(m, 2) id pairs of one split file, one ``user<TAB>item`` pair per line."""
    with warnings.catch_warnings():
        # an empty split is legal
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {_first_unparsable_line(path) or exc}") from None
    if rows.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if rows.shape[1] != 2:
        raise ValueError(f"{path}: expected 2 fields per line, got {rows.shape[1]}")
    bad = np.flatnonzero(((rows < 0) | (rows >= (n_users, n_items))).any(axis=1))
    if bad.size:
        u, i = rows[bad[0]]
        raise ValueError(
            f"{path}: line {bad[0] + 1}: pair ({u}, {i}) out of range for "
            f"{n_users} users and {n_items} items"
        )
    return rows


def _first_unparsable_line(path: Path) -> str | None:
    """``line <n>: ...`` (1-based) for the first line that is not two integer
    fields; blank and ``#`` comment lines are skipped, as ``np.loadtxt`` does."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        return f"not valid UTF-8 ({exc.reason})"
    for ln, line in enumerate(lines, start=1):
        fields = line.split("#", 1)[0].rstrip("\r\n")
        if not fields.strip():
            continue
        fields = fields.split("\t")
        if len(fields) != 2:
            return f"line {ln}: expected 2 fields, got {len(fields)}"
        for col, field in enumerate(fields, start=1):
            try:
                int(field)
            except ValueError:
                return f"line {ln}: field {col}: {field!r} is not an integer"
    return None


def load_interactions(path: str | Path, fmt: str = "tsv") -> RawInteractions:
    """Read a delimited interaction log.

    Each line is ``user<sep>item``; further fields (rating, timestamp) are
    ignored. Lines starting with '#' and blank lines are skipped. Exact
    duplicate (user, item) pairs are dropped, keeping the first occurrence.
    """
    if fmt not in ("tsv", "csv"):
        raise ValueError(f"unknown format {fmt!r}, expected 'tsv' or 'csv'")
    sep = "\t" if fmt == "tsv" else ","
    users, items = [], []
    # one str object per distinct key, not a fresh copy per line
    keys: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split(sep, 2)
                if len(fields) < 2:
                    raise ParseError(f"{path}: line {ln}: expected at least 2 fields, got 1")
                if not fields[0] or not fields[1]:
                    raise ParseError(f"{path}: line {ln}: empty user or item key")
                users.append(keys.setdefault(fields[0], fields[0]))
                items.append(keys.setdefault(fields[1], fields[1]))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    if not users:
        raise ParseError(f"{path}: no interactions found")
    return RawInteractions.from_keys(users, items)


def k_core_filter(raw: RawInteractions, min_count: int) -> RawInteractions:
    """Iteratively remove users and items with degree < min_count until fixpoint.

    min_count of 0 or 1 is a no-op (every present node has degree >= 1).
    """
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    if min_count <= 1:
        return raw
    u, i = raw.users, raw.items
    while True:
        ok = (np.bincount(u)[u] >= min_count) & (np.bincount(i)[i] >= min_count)
        if ok.all():
            break
        u, i = u[ok], i[ok]
    if not len(u):
        raise ValueError("k-core eliminated all data")
    # drop the keys that no longer occur; codes keep their sorted key order
    kept_users, u = np.unique(u, return_inverse=True)
    kept_items, i = np.unique(i, return_inverse=True)
    return RawInteractions(raw.user_keys[kept_users], raw.item_keys[kept_items], u, i)


def build_split(
    raw: RawInteractions,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> DatasetSplit:
    """Per-user random split into train/valid/test; the ids are ``raw``'s codes.

    For a user with n interactions, valid and test get floor(ratio * n) each
    and train gets the remainder, so every user keeps at least one train
    interaction.
    """
    if len(raw) == 0:
        raise ValueError("empty interaction set")
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be three nonnegative values summing to 1, got {ratios}")
    n_users, n_items = len(raw.user_keys), len(raw.item_keys)
    rng = rng_stream(seed)
    groups = group_by_user(raw.users, raw.items, n_users)
    shuffled = np.concatenate([items[rng.permutation(len(items))] for items in groups])
    counts = np.bincount(raw.users, minlength=n_users)
    # guard against 0.3*10 == 2.9999... style representation undershoot
    n_valid = np.floor(ratios[1] * counts + 1e-12).astype(np.int64)
    n_test = np.floor(ratios[2] * counts + 1e-12).astype(np.int64)
    # each user's shuffled items go to train (0), then valid (1), then test (2)
    sizes = np.column_stack([counts - n_valid - n_test, n_valid, n_test]).ravel()
    part = np.repeat(np.tile(np.arange(3, dtype=np.int8), n_users), sizes)
    pairs = np.column_stack([np.repeat(np.arange(n_users, dtype=np.int64), counts), shuffled])
    return DatasetSplit(
        n_users=n_users,
        n_items=n_items,
        train=pairs[part == 0],
        valid=pairs[part == 1],
        test=pairs[part == 2],
        meta={"seed": seed, "ratios": tuple(ratios)},
    )


def sample_negatives(split: DatasetSplit, epoch_seed: int) -> TripleBatch:
    """One uniformly sampled negative item per train interaction.

    Negatives are rejection-sampled from items outside the user's train set,
    which yields the exact uniform distribution over the complement.
    """
    degrees = split.train_degrees()
    max_deg = int(degrees.max()) if len(degrees) else 0
    if max_deg >= split.n_items:
        raise ValueError(
            f"a user interacted with all {split.n_items} items in train; no negative exists"
        )
    users = split.train[:, 0].copy()
    pos = split.train[:, 1].copy()
    rng = rng_stream(epoch_seed)
    neg = rng.integers(0, split.n_items, size=len(users), dtype=np.int64)
    bad = np.flatnonzero(split.is_train_pair(users, neg))
    rounds = 0
    while bad.size:
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:
            raise RuntimeError("negative sampling did not converge")
        neg[bad] = rng.integers(0, split.n_items, size=bad.size, dtype=np.int64)
        bad = bad[split.is_train_pair(users[bad], neg[bad])]
    return TripleBatch(users=users, pos_items=pos, neg_items=neg)
