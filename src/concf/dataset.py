"""Interaction-log ingestion, k-core filtering, splitting, and negative sampling.

The on-disk split layout is three delimited files (train.tsv, valid.tsv,
test.tsv; one ``user_id<TAB>item_id`` per line) plus a header.json with
{n_users, n_items, counts, seed, min_count}.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .seeding import rng_stream

_SPLIT_FILES = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}
_MAX_REJECTION_ROUNDS = 100_000


class ParseError(ValueError):
    """Malformed interaction file."""


@dataclass(frozen=True)
class RawInteractions:
    """Deduplicated (user_key, item_key) records in stable input order.

    Timestamps are kept when present but nothing downstream consumes them;
    splitting is random, not temporal.
    """

    users: tuple[str, ...]
    items: tuple[str, ...]
    timestamps: tuple[float, ...] | None = None

    def __len__(self) -> int:
        return len(self.users)

    def pairs(self) -> Iterator[tuple[str, str]]:
        return zip(self.users, self.items)


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
    ``user_map``/``item_map`` are present when the split was built from raw
    keys and None when loaded back from disk.
    """

    n_users: int
    n_items: int
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    user_map: dict[str, int] | None = None
    item_map: dict[str, int] | None = None
    meta: dict = field(default_factory=dict)
    train_items_by_user: list[np.ndarray] = field(init=False, repr=False)
    _train_keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # flat sorted u * n_items + i keys for O(log nnz) membership tests
        keys = self.train[:, 0].astype(np.int64) * self.n_items + self.train[:, 1]
        self._train_keys = np.sort(keys)
        # sorted keys list each user's items in ascending order
        self.train_items_by_user = group_by_user(
            self._train_keys // self.n_items, self._train_keys % self.n_items, self.n_users
        )

    @property
    def n_interactions(self) -> int:
        return len(self.train) + len(self.valid) + len(self.test)

    def train_degrees(self) -> np.ndarray:
        """Per-user train interaction counts."""
        return np.bincount(self.train[:, 0], minlength=self.n_users).astype(np.int64)

    def is_train_pair(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorized membership test against the train set."""
        keys = np.asarray(users, dtype=np.int64) * self.n_items + np.asarray(items)
        pos = np.searchsorted(self._train_keys, keys)
        pos = np.minimum(pos, len(self._train_keys) - 1)
        return self._train_keys[pos] == keys

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, fname in _SPLIT_FILES.items():
            arr = getattr(self, name)
            with open(out / fname, "w", encoding="utf-8") as fh:
                for u, i in arr:
                    fh.write(f"{u}\t{i}\n")
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
        with open(src / "header.json", encoding="utf-8") as fh:
            header = json.load(fh)
        n_users, n_items = header["n_users"], header["n_items"]
        parts = {}
        for name, fname in _SPLIT_FILES.items():
            rows = _load_pairs(src / fname, n_users, n_items)
            if len(rows) != header["counts"][name]:
                raise ValueError(
                    f"{fname}: {len(rows)} rows but header says {header['counts'][name]}"
                )
            parts[name] = rows
        return cls(
            n_users=n_users,
            n_items=n_items,
            train=parts["train"],
            valid=parts["valid"],
            test=parts["test"],
            meta={"seed": header.get("seed"), "min_count": header.get("min_count")},
        )


def group_by_user(users: np.ndarray, items: np.ndarray, n_users: int) -> list[np.ndarray]:
    """Items of each user id 0..n_users-1, in input order (stable sort by user)."""
    order = np.argsort(users, kind="stable")
    ends = np.cumsum(np.bincount(users, minlength=n_users))
    return np.split(np.asarray(items, dtype=np.int64)[order], ends[:-1])


def _load_pairs(path: Path, n_users: int, n_items: int) -> np.ndarray:
    """(m, 2) id pairs of one split file, one ``user<TAB>item`` pair per line."""
    with warnings.catch_warnings():
        # an empty split is legal
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
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


def load_interactions(path: str | Path, fmt: str = "tsv") -> RawInteractions:
    """Read a delimited interaction log.

    Each line is ``user<sep>item[<sep>rating][<sep>timestamp]``; lines starting
    with '#' and blank lines are skipped. Exact duplicate (user, item) pairs
    are dropped, keeping the first occurrence.
    """
    if fmt not in ("tsv", "csv"):
        raise ValueError(f"unknown format {fmt!r}, expected 'tsv' or 'csv'")
    sep = "\t" if fmt == "tsv" else ","
    users: list[str] = []
    items: list[str] = []
    stamps: list[float] = []
    any_stamp = False
    seen: set[tuple[str, str]] = set()
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            fields = line.split(sep)
            if len(fields) < 2:
                raise ParseError(f"{path}: line {ln}: expected at least 2 fields, got {len(fields)}")
            user, item = fields[0], fields[1]
            if not user or not item:
                raise ParseError(f"{path}: line {ln}: empty user or item key")
            ts = math.nan
            if len(fields) >= 4:
                try:
                    ts = float(fields[3])
                except ValueError as exc:
                    raise ParseError(f"{path}: line {ln}: bad timestamp {fields[3]!r}") from exc
                any_stamp = True
            if (user, item) in seen:
                continue
            seen.add((user, item))
            users.append(user)
            items.append(item)
            stamps.append(ts)
    if not users:
        raise ParseError(f"{path}: no interactions found")
    return RawInteractions(
        users=tuple(users),
        items=tuple(items),
        timestamps=tuple(stamps) if any_stamp else None,
    )


def _sorted_ids(keys: tuple[str, ...]) -> tuple[dict[str, int], np.ndarray]:
    """Ids by sorted key order: the key -> id map and each record's id."""
    index = {k: n for n, k in enumerate(sorted(set(keys)))}
    return index, np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))


def k_core_filter(raw: RawInteractions, min_count: int) -> RawInteractions:
    """Iteratively remove users and items with degree < min_count until fixpoint.

    min_count of 0 or 1 is a no-op (every present node has degree >= 1).
    """
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    if min_count <= 1:
        return raw
    _, uids = _sorted_ids(raw.users)
    _, iids = _sorted_ids(raw.items)
    keep = np.arange(len(raw))
    while True:
        u, i = uids[keep], iids[keep]
        ok = (np.bincount(u)[u] >= min_count) & (np.bincount(i)[i] >= min_count)
        if ok.all():
            break
        keep = keep[ok]
    if not keep.size:
        raise ValueError("k-core eliminated all data")

    def pick(column: tuple) -> tuple:
        return tuple(np.array(column, dtype=object)[keep])

    return RawInteractions(
        users=pick(raw.users),
        items=pick(raw.items),
        timestamps=pick(raw.timestamps) if raw.timestamps else None,
    )


def build_split(
    raw: RawInteractions,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> DatasetSplit:
    """Per-user random split into train/valid/test.

    IDs are assigned by sorted key order. For a user with n interactions,
    valid and test get floor(ratio * n) each and train gets the remainder,
    so every user keeps at least one train interaction.
    """
    if len(raw) == 0:
        raise ValueError("empty interaction set")
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be three nonnegative values summing to 1, got {ratios}")
    user_map, uids = _sorted_ids(raw.users)
    item_map, iids = _sorted_ids(raw.items)
    n_users, n_items = len(user_map), len(item_map)

    rng = rng_stream(seed)
    shuffled = np.concatenate(
        [items[rng.permutation(len(items))] for items in group_by_user(uids, iids, n_users)]
    )
    counts = np.bincount(uids, minlength=n_users)
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
        user_map=user_map,
        item_map=item_map,
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
