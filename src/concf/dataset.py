"""Interaction-log ingestion, k-core filtering, splitting, and negative sampling.

A split is one framed file, split.bin: one JSON header line ``{"counts":
{"test", "train", "valid"}, "dtype": "int64", "kind": "split", "min_count",
"n_items", "n_users", "ratios", "seed"}``, then the train, valid and test
``user_id, item_id`` rows as little-endian int64, and nothing after them.
``concf prepare`` also writes user_keys.txt and item_keys.txt, whose line n
holds the key of id n - 1. Split them on line feeds only: a key may hold
U+2028, which ``splitlines`` breaks on.

The framed codec (``_write_framed``/``_read_framed``) is shared with the
checkpoints and binary exports of ``model``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import overlap
from .numerics import grouped_rows
from .seeding import rng_stream

SPLIT_FILE = "split.bin"
_PARTS = ("train", "valid", "test")
# a split header's non-negative integers, and the facts it passes on as the split's meta
_HEADER_KEYS = ("n_users", "n_items", *(f"counts.{name}" for name in _PARTS))
_META_KEYS = ("seed", "ratios", "min_count")
_MAX_REJECTION_ROUNDS = 100_000
# One train-pair lookup (a binary search in the user's train row) costs about
# as much as this many multiply-adds of a propagation product: 76-78 ns per
# query against 0.21-0.33 ns per multiply-add (226-365) on the ML-1M split.
# So sample_negatives' first round (638,770 lookups there) hands half to the
# worker, and the planted criterion-7 job's (4,934) runs whole.
_LOOKUP_WORK = 256
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


@dataclass
class DatasetSplit:
    """Contiguous-ID interaction sets partitioned into train/valid/test.

    ``train``/``valid``/``test`` are (m, 2) int64 arrays of (user_id, item_id).
    ``train_matrix`` holds the train pairs as a boolean user x item CSR (see
    ``pair_matrix``); a train pair may occur only once. ``eval_plans`` is the
    evaluator's cache of what ranking each target needs (see ``evaluator``).
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

    def require(self, *names: str) -> None:
        """Raise ValueError naming the first of the splits ``names`` that is empty."""
        for name in names:
            if not len(getattr(self, name)):
                raise ValueError(f"{name} split is empty")

    def train_degrees(self) -> np.ndarray:
        """Per-user train interaction counts."""
        return np.diff(self.train_matrix.indptr).astype(np.int64)

    def is_train_pair(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Whether each ``(users[n], items[n])`` is a train pair; an id out of
        range raises ValueError naming the first such pair."""
        users, items = np.asarray(users), np.asarray(items)
        if users.ndim != 1 or users.shape != items.shape:
            raise ValueError(
                f"users and items must be 1-D of one length, got {users.shape} and {items.shape}"
            )
        if len(users) and (
            users.min() < 0 or users.max() >= self.n_users
            or items.min() < 0 or items.max() >= self.n_items
        ):
            n = int(np.argmax((users < 0) | (users >= self.n_users)
                              | (items < 0) | (items >= self.n_items)))
            raise ValueError(f"pair ({users[n]}, {items[n]}) out of range for "
                             f"{self.n_users} users and {self.n_items} items")
        found = np.empty(len(users), dtype=bool)
        _look_up(self.train_matrix, users, items, found)
        return found

    def save(self, out_dir: str | Path) -> dict:
        """Write the split to split.bin in ``out_dir`` through a temporary file
        that replaces it, so a failed save leaves the previous split whole, and
        return the header."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "split", "dtype": "int64", "n_users": self.n_users, "n_items": self.n_items,
            "counts": {name: len(getattr(self, name)) for name in _PARTS},
            **{key: self.meta.get(key) for key in _META_KEYS},
        }
        parts = (np.asarray(getattr(self, name), dtype=np.int64) for name in _PARTS)
        _write_framed(out / SPLIT_FILE, header, *parts, dtypes=("int64",))
        return header

    @staticmethod
    def read_header(split_dir: str | Path) -> dict:
        """The header line of split.bin in ``split_dir``, checked as ``load``
        checks it; the pairs after it are not read."""
        path = Path(split_dir) / SPLIT_FILE
        with open(path, "rb") as fh:
            return _split_header(path, fh.readline())

    @classmethod
    def load(cls, split_dir: str | Path) -> "DatasetSplit":
        """The split in ``split_dir``, with its header, its payload's length
        and every id checked; every error is a ValueError naming split.bin."""
        path = Path(split_dir) / SPLIT_FILE
        with open(path, "rb") as fh:
            header = _split_header(path, fh.readline())
            payload = fh.read()
        n_users, n_items = header["n_users"], header["n_items"]
        counts = [header["counts"][name] for name in _PARTS]
        _check_length(path, payload, sum(counts) * 16)
        pairs = np.frombuffer(payload, dtype="<i8").reshape(-1, 2).astype(np.int64)
        parts = dict(zip(_PARTS, np.split(pairs, np.cumsum(counts)[:2])))
        for name, rows in parts.items():
            if not _in_range(rows, n_users, n_items):
                bad = (rows < 0).any(axis=1) | (rows[:, 0] >= n_users) | (rows[:, 1] >= n_items)
                k = int(np.argmax(bad))
                u, i = rows[k]
                raise ValueError(f"{path}: {name} row {k}: pair ({u}, {i}) out of range "
                                 f"for {n_users} users and {n_items} items")
        meta = {key: header.get(key) for key in _META_KEYS}
        try:
            return cls(n_users=n_users, n_items=n_items, **parts, meta=meta)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _look_up(matrix: sp.csr_matrix, users: np.ndarray, items: np.ndarray,
              out: np.ndarray) -> None:
    """Write into ``out`` whether ``matrix`` stores each in-range ``(users[n],
    items[n])``, with the kernel ``matrix[users, items]`` runs, which
    releases the GIL."""
    index = matrix.indices.dtype
    _sparsetools.csr_sample_values(
        matrix.shape[0], matrix.shape[1], matrix.indptr, matrix.indices, matrix.data,
        len(out), np.asarray(users, dtype=index), np.asarray(items, dtype=index), out,
    )


def _split_header(path: Path, line: bytes) -> dict:
    """The split header ``line`` read from ``path``, with its ids' counts,
    ``kind`` and ``dtype`` checked."""
    header = parse_header(path, line, _HEADER_KEYS)
    if header.get("kind") != "split":
        raise ValueError(f"{path}: not a split file")
    _payload_dtype(path, header.get("dtype"), ("int64",))
    return header


def _write_replacing(path: str | Path, data: str | bytes) -> None:
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


# --- framed binary files: splits, checkpoints and binary exports -------------
#
# Layout: one sorted-key JSON header line, whose ``dtype`` names the payload's
# element type, then row-major little-endian arrays, and nothing after them.

_FLOATS = ("float32", "float64")


def _payload_dtype(path: str | Path, name: object, dtypes: tuple[str, ...] = _FLOATS) -> np.dtype:
    """The little-endian payload dtype for a header's ``dtype`` ``name``, one of ``dtypes``."""
    if name not in dtypes:
        allowed = " or ".join(map(repr, dtypes))
        raise ValueError(f"{path}: field 'dtype' must be {allowed}, got {name!r}")
    return np.dtype(name).newbyteorder("<")


def _check_length(path: str | Path, payload: bytes, nbytes: int) -> None:
    """Reject a payload that is not exactly ``nbytes`` long, naming ``path``."""
    if len(payload) < nbytes:
        raise ValueError(f"{path}: truncated payload ({len(payload)} of {nbytes} bytes)")
    if len(payload) > nbytes:
        raise ValueError(f"{path}: {len(payload) - nbytes} trailing bytes after the payload")


def _write_framed(
    path: str | Path, header: dict, *arrays: np.ndarray, dtypes: tuple[str, ...] = _FLOATS
) -> None:
    """Write ``header`` as one sorted-key JSON line, then each array's bytes in
    its own dtype, little-endian; a header ``dtype`` not in ``dtypes`` writes
    nothing."""
    _payload_dtype(path, header["dtype"], dtypes)
    _write_replacing(path, b"".join([
        json.dumps(header, sort_keys=True).encode("utf-8"),
        b"\n",
        *(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes() for a in arrays),
    ]))


def _read_framed(
    path: str | Path, keys: tuple[str, ...], dtypes: tuple[str, ...] = _FLOATS
) -> tuple[dict, np.dtype, bytes]:
    """The header of the framed file ``path``, with each of ``keys`` a
    non-negative integer, the little-endian dtype it names (one of
    ``dtypes``), and the payload."""
    with open(path, "rb") as fh:
        header = parse_header(path, fh.readline(), keys)
        payload = fh.read()
    return header, _payload_dtype(path, header.get("dtype"), dtypes), payload


def pair_matrix(pairs: np.ndarray, n_users: int, n_items: int) -> sp.csr_matrix:
    """Boolean n_users x n_items CSR with True at each (user, item) pair;
    duplicate pairs collapse, and column ids ascend within each row.

    Two stable counting sorts build it, with no per-row sort: the pairs by
    item (``grouped_rows``), then that matrix's transpose by user, which
    visits the items in ascending order. The arrays, their dtypes and the
    canonical flag are those of ``csr_matrix((data, (rows, cols)))`` with
    ``sum_duplicates()``.
    """
    if not _in_range(pairs, n_users, n_items):  # the counting sorts write where the ids point
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


def _in_range(pairs: np.ndarray, n_users: int, n_items: int) -> bool:
    """Whether every (user, item) row of the (m, 2) ``pairs`` lies in
    [0, n_users) x [0, n_items); reduced column by column, several times
    faster than a reduction over axis 0 of the row-major pairs."""
    return not len(pairs) or bool(
        pairs.min() >= 0 and pairs[:, 0].max() < n_users and pairs[:, 1].max() < n_items
    )


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
    nonnegative values summing to 1, the first (train) one positive."""
    finite = all(math.isfinite(r) and r >= 0 for r in ratios)
    if len(ratios) != 3 or not finite or abs(sum(ratios) - 1.0) > 1e-9:
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
    # every id is in range, so the first round looks up without a check: the
    # second half of the rows on the worker when the gate opens
    matrix, found = split.train_matrix, np.empty(len(users), dtype=bool)
    start = overlap.start_for(len(users) * _LOOKUP_WORK)
    if start is None:
        _look_up(matrix, users, neg, found)
    else:
        mid = len(users) // 2
        job = start(_look_up, matrix, users[mid:], neg[mid:], found[mid:])
        overlap.in_halves(job, _look_up, (matrix, users[:mid], neg[:mid], found[:mid]))
    bad = np.flatnonzero(found)
    rounds = 0
    while bad.size:
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS:
            raise RuntimeError("negative sampling did not converge")
        neg[bad] = rng.integers(0, split.n_items, size=bad.size, dtype=np.int64)
        bad = bad[split.is_train_pair(users[bad], neg[bad])]
    return TripleBatch(users=users, pos_items=pos, neg_items=neg)
