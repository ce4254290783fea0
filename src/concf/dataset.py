"""Interaction-log ingestion, k-core filtering, splitting, and negative sampling.

The on-disk split layout is three delimited files (train.tsv, valid.tsv,
test.tsv; one ``user_id<TAB>item_id`` per line) plus a header.json with
{n_users, n_items, counts, seed, ratios, min_count}. ``concf prepare`` also
writes user_keys.txt and item_keys.txt, whose line n holds the key of id n - 1.
Split them on line feeds only: a key may hold U+2028, which ``splitlines`` breaks on.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .seeding import rng_stream

_SPLIT_FILES = {"train": "train.tsv", "valid": "valid.tsv", "test": "test.tsv"}
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
        pair dropped after its first occurrence."""
        first = np.sort(np.unique(users * len(item_keys) + items, return_index=True)[1])
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

    def require(self, *names: str) -> None:
        """Raise ValueError naming the first of the splits ``names`` that is empty."""
        for name in names:
            if not len(getattr(self, name)):
                raise ValueError(f"{name} split is empty")

    def train_degrees(self) -> np.ndarray:
        """Per-user train interaction counts."""
        return np.bincount(self.train[:, 0], minlength=self.n_users).astype(np.int64)

    def is_train_pair(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorized membership test against the train set."""
        if not len(users):
            # scipy answers an empty lookup with a sparse matrix, not an array
            return np.zeros(0, dtype=bool)
        return np.asarray(self.train_matrix[users, items]).ravel()

    def save(self, out_dir: str | Path) -> dict:
        """Write the split files and header.json, each through a temporary file
        in ``out_dir`` that replaces it, and return the header."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        # each id's text is formatted once; a file is its rows' cells joined
        user_cells = np.array([f"{u}\t" for u in range(self.n_users)], dtype=object)
        item_cells = np.array([f"{i}\n" for i in range(self.n_items)], dtype=object)
        for name, fname in _SPLIT_FILES.items():
            arr = getattr(self, name)
            cells = np.stack([user_cells[arr[:, 0]], item_cells[arr[:, 1]]], axis=1)
            _write_replacing(out / fname, "".join(cells.ravel().tolist()))
        header = {
            "n_users": self.n_users,
            "n_items": self.n_items,
            "counts": {name: int(len(getattr(self, name))) for name in _SPLIT_FILES},
            "seed": self.meta.get("seed"),
            "ratios": self.meta.get("ratios"),
            "min_count": self.meta.get("min_count"),
        }
        _write_replacing(out / "header.json", json.dumps(header, indent=2, sort_keys=True) + "\n")
        return header

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
        # older headers have no ratios
        meta = {key: header.get(key) for key in ("seed", "ratios", "min_count")}
        try:
            return cls(n_users=n_users, n_items=n_items, **parts, meta=meta)
        except ValueError as exc:
            raise ValueError(f"{src / _SPLIT_FILES['train']}: {exc}") from None


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
            raise ValueError(f"{path}: {_first_bad_line(path, n_users, n_items) or exc}") from None
    if rows.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if rows.shape[1] != 2 or ((rows < 0) | (rows >= (n_users, n_items))).any():
        raise ValueError(f"{path}: {_first_bad_line(path, n_users, n_items)}")
    return rows


def _first_bad_line(path: Path, n_users: int, n_items: int) -> str | None:
    """``line <n>: ...`` (1-based, physical) for the first line that is not two
    integer fields or whose pair is out of range; a line that is empty up to
    a ``#`` comment is skipped, as ``np.loadtxt`` does."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        return f"not valid UTF-8 ({exc.reason})"
    for ln, line in enumerate(lines, start=1):
        fields = line.split("#", 1)[0].rstrip("\r\n")
        if not fields:
            continue
        fields = fields.split("\t")
        if len(fields) != 2:
            return f"line {ln}: expected 2 fields, got {len(fields)}"
        for col, field in enumerate(fields, start=1):
            try:
                int(field)
            except ValueError:
                return f"line {ln}: field {col}: {field!r} is not an integer"
        u, i = map(int, fields)
        if not (0 <= u < n_users and 0 <= i < n_items):
            return f"line {ln}: pair ({u}, {i}) out of range for {n_users} users and {n_items} items"
    return None


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
    present = np.zeros(n, dtype=bool)
    present[group] = True
    codes = (np.cumsum(present) - 1)[group]
    one = np.empty(np.count_nonzero(present), dtype=np.int64)
    del present, group
    one[codes] = np.arange(n)
    keys = [data[s:s + k].decode("utf-8") for s, k in zip(starts[one].tolist(), lens[one].tolist())]
    return np.array(keys, dtype=object), codes


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
    pairs = np.column_stack([np.repeat(np.arange(n_users, dtype=np.int64), counts), shuffled])
    return DatasetSplit(
        n_users=n_users,
        n_items=n_items,
        train=pairs[part == 0],
        valid=pairs[part == 1],
        test=pairs[part == 2],
        meta={"seed": seed, "ratios": list(ratios)},  # as header.json holds them
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
