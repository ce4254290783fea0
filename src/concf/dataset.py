"""Interaction-log ingestion, k-core filtering, splitting, and negative sampling.

A split is one framed file (see ``framed``), split.bin: one JSON header
line ``{"counts": {"test", "train", "valid"}, "dtype": "int64", "kind":
"split", "min_count", "n_items", "n_users", "ratios", "seed"}``, then the
train, valid and test ``user_id, item_id`` rows as little-endian int64.
``concf prepare`` also writes user_keys.txt and item_keys.txt, whose line n
holds the key of id n - 1. Split them on line feeds only: a key may hold
U+2028, which ``splitlines`` breaks on.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import framed
from .numerics import grouped_rows
from .seeding import rng_stream

SPLIT_FILE = "split.bin"
_PARTS = ("train", "valid", "test")
# a split header's non-negative integers, and the facts it passes on as the split's meta
_HEADER_KEYS = ("n_users", "n_items", *(f"counts.{name}" for name in _PARTS))
_META_KEYS = ("seed", "ratios", "min_count")
_INT64 = ("int64",)
_MAX_REJECTION_ROUNDS = 100_000
_MAX_ROUND_WORDS = 256  # key words one sorting round compares
# _LEADING_BYTES[k] keeps the k leading bytes of a big-endian word
_LEADING_BYTES = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], dtype=np.uint64)


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
    def _first_occurrences(
        cls, user_keys: np.ndarray, item_keys: np.ndarray, users: np.ndarray, items: np.ndarray
    ) -> "RawInteractions":
        """The records of int64 code columns, with each repeated (user, item)
        pair dropped after its first occurrence.

        The pair keys are sorted unstably in the narrowest unsigned dtype that
        holds them; a run of equal keys keeps its least record index.
        """
        narrow = np.min_scalar_type(len(user_keys) * len(item_keys))
        keys = (users * len(item_keys) + items).astype(narrow)
        order = np.argsort(keys)
        keys = keys[order]
        heads = np.ones(len(keys), dtype=bool)
        heads[1:] = keys[1:] != keys[:-1]
        first = np.zeros(len(keys), dtype=bool)
        first[np.minimum.reduceat(order, np.flatnonzero(heads))] = True
        return cls(user_keys, item_keys, users[first], items[first])


@dataclass(frozen=True)
class TripleBatch:
    """Column layout for (user, positive item, negative item) triples."""

    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class DatasetSplit:
    """Contiguous-ID interaction sets partitioned into train/valid/test.

    A split is a value: no field can be assigned, ``train``/``valid``/``test`` are
    read-only (m, 2) int64 (user_id, item_id) arrays, copied from those given
    unless no write can reach them (``_frozen``), ``meta`` is a copy, and
    ``dataclasses.replace`` makes another split. ``train_matrix`` is the train
    pairs' boolean user x item CSR (see ``pair_matrix``): no pair may repeat.
    ``eval_plans`` caches what ranking each target needs (see ``evaluator``).
    """

    n_users: int
    n_items: int
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    meta: dict = field(default_factory=dict)
    train_matrix: sp.csr_matrix = field(init=False, repr=False)
    eval_plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in _PARTS:
            rows = np.asarray(getattr(self, name))
            if rows.ndim != 2 or rows.shape[1] != 2:
                raise ValueError(f"{name} must be (n, 2) pairs, got shape {rows.shape}")
            if rows.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integer ids, got {rows.dtype}")
            n = _first_out_of_range(rows[:, 0], rows[:, 1], self.n_users, self.n_items)
            if n is not None:
                raise ValueError(f"{name} row {n}: pair ({rows[n, 0]}, {rows[n, 1]}) out of "
                                 f"range for {self.n_users} users and {self.n_items} items")
            rows = rows.astype(np.int64, copy=not _frozen(rows))
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)
        object.__setattr__(self, "meta", copy.deepcopy(self.meta))
        matrix = pair_matrix(self.train, self.n_users, self.n_items)
        object.__setattr__(self, "train_matrix", matrix)
        if self.train_matrix.nnz != len(self.train):
            # the adjacency is built from the CSR, so the rows must not repeat a pair
            keys = self.train[:, 0] * self.n_items + self.train[:, 1]
            first = np.unique(keys, return_index=True)[1]
            u, i = self.train[np.setdiff1d(np.arange(len(keys)), first)[0]]
            raise ValueError(f"duplicate train pair ({u}, {i})")

    @property
    def n_interactions(self) -> int:
        return len(self.train) + len(self.valid) + len(self.test)

    def require(self, *names: str) -> None:
        """Raise ValueError naming the first of the splits ``names`` that is empty."""
        for name in names:
            if not len(getattr(self, name)):
                raise ValueError(f"{name} split is empty")

    def train_degrees(self) -> np.ndarray:
        """Per-user train interaction counts."""
        return np.diff(self.train_matrix.indptr).astype(np.int64)

    def is_train_pair(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Whether each ``(users[n], items[n])`` is a train pair; ids that are
        not integers, or an id out of range, raise ValueError."""
        users, items = np.asarray(users), np.asarray(items)
        if users.ndim != 1 or users.shape != items.shape:
            raise ValueError(
                f"users and items must be 1-D of one length, got {users.shape} and {items.shape}"
            )
        if users.dtype.kind not in "iu" or items.dtype.kind not in "iu":
            raise ValueError(
                f"users and items must hold integer ids, got {users.dtype} and {items.dtype}"
            )
        n = _first_out_of_range(users, items, self.n_users, self.n_items)
        if n is not None:
            raise ValueError(f"pair ({users[n]}, {items[n]}) out of range for "
                             f"{self.n_users} users and {self.n_items} items")
        found = np.empty(len(users), dtype=bool)
        _look_up(self.train_matrix, users, items, found)
        return found

    def save(self, out_dir: str | Path) -> dict:
        """Write the split to split.bin in ``out_dir``, replacing it whole, so a
        failed save leaves the previous split, and return the header."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "split", "dtype": "int64", "n_users": self.n_users, "n_items": self.n_items,
            "counts": {name: len(getattr(self, name)) for name in _PARTS},
            **{key: self.meta.get(key) for key in _META_KEYS},
        }
        framed.write(out / SPLIT_FILE, header, *(getattr(self, name) for name in _PARTS),
                     dtypes=_INT64)
        return header

    @staticmethod
    def read_header(split_dir: str | Path) -> dict:
        """The header line of split.bin in ``split_dir``, checked as ``load``
        checks it; the pairs after it are not read."""
        path = Path(split_dir) / SPLIT_FILE
        header = framed.read_header(path, _HEADER_KEYS, "split", _INT64)
        _header_meta(path, header)
        return header

    @classmethod
    def load(cls, split_dir: str | Path) -> "DatasetSplit":
        """The split in ``split_dir``, with its header, its payload's length
        and every id checked; every error is a ValueError naming split.bin."""
        path = Path(split_dir) / SPLIT_FILE
        header, parts = framed.read(path, _HEADER_KEYS, "split", _split_shapes, _INT64)
        for rows in parts:
            rows.flags.writeable = False  # so the split keeps them uncopied
        meta = _header_meta(path, header)
        try:
            return cls(header["n_users"], header["n_items"], *parts, meta=meta)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _header_meta(path: Path, header: dict) -> dict:
    """The split's meta from its header: ``seed`` and ``min_count`` each None
    or a non-negative integer, ``ratios`` None or valid split ratios; an
    error is a ValueError naming ``path`` and the field."""
    meta = {key: header.get(key) for key in _META_KEYS}
    for key in ("seed", "min_count"):
        value = meta[key]
        if not (value is None or type(value) is int and value >= 0):
            raise ValueError(
                f"{path}: field {key!r}: must be None or a non-negative integer, got {value!r}")
    if meta["ratios"] is not None:
        check_ratios(meta["ratios"], f"{path}: field 'ratios'")
    return meta


def _frozen(rows: np.ndarray) -> bool:
    """Whether no write can reach ``rows``: it and every array it views are
    read-only, down to memory that an array owns or to ``bytes``."""
    while isinstance(rows, np.ndarray):
        if rows.flags.writeable:
            return False
        rows = rows.base
    return rows is None or isinstance(rows, bytes)


def _split_shapes(header: dict) -> list[tuple[str, tuple[int, int]]]:
    """The int64 (count, 2) train, valid and test pairs a split header declares."""
    return [("int64", (header["counts"][name], 2)) for name in _PARTS]


def _look_up(matrix: sp.csr_matrix, users: np.ndarray, items: np.ndarray,
              out: np.ndarray) -> None:
    """Write into ``out`` whether ``matrix`` stores each in-range ``(users[n],
    items[n])``, with the kernel ``matrix[users, items]`` runs."""
    index = matrix.indices.dtype
    _sparsetools.csr_sample_values(
        matrix.shape[0], matrix.shape[1], matrix.indptr, matrix.indices, matrix.data,
        len(out), np.asarray(users, dtype=index), np.asarray(items, dtype=index), out,
    )


def pair_matrix(pairs: np.ndarray, n_users: int, n_items: int) -> sp.csr_matrix:
    """Boolean n_users x n_items CSR with True at each (user, item) pair;
    duplicate pairs collapse, and column ids ascend within each row.

    Two stable counting sorts build it, with no per-row sort: the pairs by
    item (``grouped_rows``), then that matrix's transpose by user, which
    visits the items in ascending order. The arrays, their dtypes and the
    canonical flag are those of ``csr_matrix((data, (rows, cols)))`` with
    ``sum_duplicates()``.
    """
    # the counting sorts write where the ids point
    if _first_out_of_range(pairs[:, 0], pairs[:, 1], n_users, n_items) is not None:
        raise ValueError(f"pair ids out of range for {n_users} users and {n_items} items")
    by_item = grouped_rows(pairs[:, 1], pairs[:, 0], np.ones(len(pairs), bool), (n_items, n_users))
    m = by_item.T.tocsr()
    m.sum_duplicates()
    return m


def group_by_user(users: np.ndarray, items: np.ndarray, n_users: int) -> list[np.ndarray]:
    """Items of each user id 0..n_users-1, in input order: the rows of the
    items grouped by user (``grouped_rows``, one column)."""
    items = np.asarray(items, dtype=np.int64)
    grouped = grouped_rows(users, np.zeros(len(items), np.int32), items, (n_users, 1))
    ends = grouped.indptr.tolist()
    return [grouped.data[a:b] for a, b in zip(ends[:-1], ends[1:])]


def _first_out_of_range(users: np.ndarray, items: np.ndarray, n_users: int,
                        n_items: int) -> int | None:
    """The index of the first ``(users[n], items[n])`` outside [0, n_users) x
    [0, n_items), or None; the columns' extremes are checked before any mask
    is built."""
    if not len(users) or (users.min() >= 0 and users.max() < n_users
                          and items.min() >= 0 and items.max() < n_items):
        return None
    return int(np.argmax((users < 0) | (users >= n_users) | (items < 0) | (items >= n_items)))


def load_interactions(path: str | Path, fmt: str = "tsv") -> RawInteractions:
    """Read a delimited interaction log.

    The whole file must be UTF-8; lines end in ``\\n``, ``\\r\\n`` or ``\\r``. Each
    line is ``user<sep>item``; further fields (rating, timestamp) are ignored.
    Blank lines and lines whose first byte is '#' are skipped. Exact duplicate
    (user, item) pairs are dropped, keeping the first occurrence.

    The file is parsed as one byte buffer: lines and fields are found by index
    arithmetic, and only the distinct keys become ``str``.
    """
    if fmt not in ("tsv", "csv"):
        raise ValueError(f"unknown format {fmt!r}, expected 'tsv' or 'csv'")
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")  # the whole file is checked before any line
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    if b"\r" in data:
        # universal newlines, as a text-mode read translates them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    has_nul = b"\0" in data
    # 8 zero bytes let every key offset be read as a whole word
    data += bytes(8)
    buf = np.frombuffer(data, dtype=np.uint8)[:-8]
    pos = np.int32 if len(buf) < 2**31 - 1 else np.int64
    ends = np.flatnonzero(buf == ord("\n")).astype(pos)
    if len(buf) and buf[-1] != ord("\n"):
        ends = np.append(ends, pos(len(buf)))
    starts = np.empty_like(ends)
    starts[:1], starts[1:] = 0, ends[:-1] + 1
    # line indices (0-based) of the lines that hold a record
    lines = np.flatnonzero((ends > starts) & (buf[starts] != ord("#")))
    starts, ends = starts[lines], ends[lines]
    # the first two separators at or after each line start, or the buffer end
    seps = np.flatnonzero(buf == ord("\t" if fmt == "tsv" else ",")).astype(pos)
    seps = np.append(seps, np.full(2, len(buf), pos))
    nxt = np.searchsorted(seps, starts)
    user_end, item_end = seps[nxt], np.minimum(seps[nxt + 1], ends)
    del seps, nxt
    one_field = user_end >= ends
    bad = np.flatnonzero(one_field | (user_end == starts) | (item_end == user_end + 1))
    if bad.size:
        ln = lines[bad[0]] + 1
        problem = "expected at least 2 fields, got 1" if one_field[bad[0]] else "empty user or item key"
        raise ParseError(f"{path}: line {ln}: {problem}")
    if not len(starts):
        raise ParseError(f"{path}: no interactions found")
    del lines, ends, one_field, bad
    user_keys, users = _distinct_keys(data, starts, user_end - starts, has_nul)
    starts, lens = user_end + 1, item_end - user_end - 1
    del user_end, item_end
    item_keys, items = _distinct_keys(data, starts, lens, has_nul)
    del data, buf, starts, lens
    return RawInteractions._first_occurrences(user_keys, item_keys, users, items)


def _distinct_keys(
    data: bytes, starts: np.ndarray, lens: np.ndarray, has_nul: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys ``data[s:s + n]`` as an object array of str,
    and each key's int64 code into it; ``data`` ends in 8 padding bytes.

    Keys are ordered by their bytes as zero-padded big-endian 8-byte words,
    then by length, which separates "a" from "a\\0"; for UTF-8 that is code
    point order, the order of ``sorted`` on the decoded keys. Each round sorts
    only the keys that still tie with another key, by the sorted position of
    their tie group and the next block of words, so a long key is read only
    as far as it ties with another.
    """
    # the big-endian 8 bytes from each offset
    window = np.ndarray((len(data) - 7,), dtype=">u8", buffer=data, strides=(1,))
    n = len(starts)
    # sorted position of the first key of each key's tie group
    group = np.zeros(n, dtype=np.int64)
    tied = np.arange(n)
    first = 0
    while tied.size:
        tied_lens = lens[tied]
        # about n words per round in all, none past the longest tied key, and
        # few enough that lexsort's per-key state stays small
        width = min(max(1, n // tied.size), _MAX_ROUND_WORDS, -(-int(tied_lens.max()) // 8) - first)
        at = 8 * np.arange(first, first + width)
        words = window[np.minimum(starts[tied, None] + at, len(window) - 1)].astype(np.uint64)
        words &= _LEADING_BYTES[np.clip(tied_lens[:, None] - at, 0, 8)]
        later, first = first > 0, first + width
        done = tied_lens <= 8 * first
        # sort keys, least significant first: length, words, tie group
        rows = [words.T[::-1]]
        if has_nul:
            # a key whose remaining bytes are NUL ties on words with a shorter one
            rows.insert(0, np.where(done, tied_lens, np.iinfo(lens.dtype).max)[None])
        if later:
            rows.append(group[tied][None])
        keys = np.concatenate(rows, dtype=np.uint64, casting="unsafe") if len(rows) > 1 else rows[0]
        del rows, words
        order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
        tied, done = tied[order], done[order]
        keys = keys[:, order]
        del order
        # the first of each run of keys that tie on all keys, or on the group
        new = np.ones(tied.size, dtype=bool)
        new[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
        old = np.zeros(tied.size, dtype=bool)
        old[0] = True
        if later:
            old[1:] = keys[-1, 1:] != keys[-1, :-1]
        del keys
        heads, old = np.flatnonzero(new), np.flatnonzero(old)
        sizes = np.diff(heads, append=tied.size)
        # a new tie group starts as many places after its old group's start as
        # it comes after it among the sorted tied keys
        offset = np.repeat(heads, sizes)
        offset -= np.repeat(old, np.diff(old, append=tied.size))
        group[tied] += offset
        more = (sizes > 1) & ~np.logical_and.reduceat(done, heads)
        tied = tied[np.repeat(more, sizes)]
    distinct, codes = _recode(group)
    one = np.empty(len(distinct), dtype=np.int64)
    del distinct, group
    one[codes] = np.arange(n)
    keys = [data[s:s + k].decode("utf-8") for s, k in zip(starts[one].tolist(), lens[one].tolist())]
    return np.array(keys, dtype=object), codes


def k_core_filter(raw: RawInteractions, min_count: int) -> RawInteractions:
    """Iteratively remove users and items with degree < min_count until fixpoint.

    min_count of 0 or 1 is a no-op (every present node has degree >= 1). The
    kept users and items are re-coded by counting, in their key order.
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
    kept_users, u = _recode(u)
    kept_items, i = _recode(i)
    return RawInteractions(raw.user_keys[kept_users], raw.item_keys[kept_items], u, i)


def _recode(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct non-negative ``codes``, ascending, and each code's index
    into them, as ``np.unique(codes, return_inverse=True)`` gives them, by
    counting."""
    present = np.bincount(codes) > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[codes]


def check_ratios(ratios: tuple[float, ...], name: str = "ratios") -> None:
    """Raise ValueError naming ``name`` unless ``ratios`` are three finite,
    nonnegative numbers summing to 1, the first (train) one positive."""
    try:
        valid = (len(ratios) == 3 and all(math.isfinite(r) and r >= 0 for r in ratios)
                 and abs(sum(ratios) - 1.0) <= 1e-9)
    except TypeError:  # not a sequence of numbers
        valid = False
    if not valid:
        raise ValueError(f"{name}: must be three finite nonnegative values summing to 1, got {ratios}")
    if ratios[0] == 0:
        raise ValueError(f"{name}: the train fraction must be > 0, got {ratios}")


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
    check_ratios(ratios)
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
    # one stable grouping by part, so each part keeps its rows in user order
    order = np.argsort(part, kind="stable")
    users = np.repeat(np.arange(n_users, dtype=np.int64), counts)
    pairs = np.column_stack([users[order], shuffled[order]])
    pairs.flags.writeable = False  # so the split keeps its parts uncopied
    train, valid, test = np.split(pairs, np.cumsum(sizes.reshape(n_users, 3).sum(axis=0))[:2])
    return DatasetSplit(
        n_users=n_users,
        n_items=n_items,
        train=train,
        valid=valid,
        test=test,
        meta={"seed": seed, "ratios": list(ratios)},  # as split.bin's header holds them
    )


def sample_negatives(split: DatasetSplit, epoch_seed: int) -> TripleBatch:
    """One uniformly sampled negative item per train interaction.

    Negatives are rejection-sampled from items outside the user's train set,
    which yields the exact uniform distribution over the complement.
    """
    if split.n_users and split.train_degrees().max() >= split.n_items:
        raise ValueError(
            f"a user interacted with all {split.n_items} items in train; no negative exists"
        )
    users, pos = split.train.T
    rng = rng_stream(epoch_seed)
    neg = rng.integers(0, split.n_items, size=len(users), dtype=np.int64)
    # every id is in range, so the first round looks up without a check
    found = np.empty(len(users), dtype=bool)
    _look_up(split.train_matrix, users, neg, found)
    bad = np.flatnonzero(found)
    rounds = 0
    while bad.size:
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:
            raise RuntimeError("negative sampling did not converge")
        neg[bad] = rng.integers(0, split.n_items, size=bad.size, dtype=np.int64)
        bad = bad[split.is_train_pair(users[bad], neg[bad])]
    return TripleBatch(users=users, pos_items=pos, neg_items=neg)
