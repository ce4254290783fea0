"""Ingestion, k-core filtering, splitting, and negative sampling."""

import json
import math
import os
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ingest

from concf import (
    build_split,
    k_core_filter,
    load_interactions,
    sample_negatives,
)
from concf.dataset import DatasetSplit, ParseError, group_by_user, pair_matrix
from concf.seeding import rng_stream

from conftest import fail_mid_write, from_keys, key_pairs, make_raw, random_split


def shuffled_rows(n_users, n_items, n_pairs, seed, n_rows=None):
    """``n_rows`` (user, item) key rows drawn from make_raw's pairs, in random
    order and with repeats; without ``n_rows``, each pair once."""
    pairs = key_pairs(make_raw(n_users, n_items, n_pairs, seed=seed))
    rng = np.random.default_rng(seed)
    picks = rng.permutation(len(pairs)) if n_rows is None else rng.integers(len(pairs), size=n_rows)
    return [pairs[j] for j in picks]


def shuffled_raw(n_users, n_items, n_pairs, seed):
    """make_raw's pairs in a random input order."""
    users, items = zip(*shuffled_rows(n_users, n_items, n_pairs, seed))
    return from_keys(users, items)


def loop_ingest(rows):
    """Reference: distinct rows in input order via a seen set, and each key's
    id from a sorted(set(keys)) map."""
    seen, kept = set(), []
    for row in rows:
        if row not in seen:
            seen.add(row)
            kept.append(row)
    user_map = {k: n for n, k in enumerate(sorted({u for u, _ in kept}))}
    item_map = {k: n for n, k in enumerate(sorted({i for _, i in kept}))}
    return kept, user_map, item_map


def assert_key_tables(raw):
    """Each key table is sorted and distinct, and every key is used."""
    for keys, codes in ((raw.user_keys, raw.users), (raw.item_keys, raw.items)):
        assert keys.dtype == object and codes.dtype == np.int64
        assert keys.tolist() == sorted(set(keys.tolist()))
        np.testing.assert_array_equal(np.unique(codes), np.arange(len(keys)))


def loop_k_core(pairs, min_count):
    """Reference: peel by per-key degree counts until nothing changes."""
    keep = list(range(len(pairs)))
    while True:
        u_deg = Counter(pairs[j][0] for j in keep)
        i_deg = Counter(pairs[j][1] for j in keep)
        survivors = [
            j for j in keep
            if u_deg[pairs[j][0]] >= min_count and i_deg[pairs[j][1]] >= min_count
        ]
        if len(survivors) == len(keep):
            return keep
        keep = survivors


def loop_build_split(pairs, ratios, seed):
    """Reference: one permutation per user, in user order, cut into three parts."""
    user_map = {k: n for n, k in enumerate(sorted({u for u, _ in pairs}))}
    item_map = {k: n for n, k in enumerate(sorted({i for _, i in pairs}))}
    items_of_user = [[] for _ in user_map]
    for u, i in pairs:
        items_of_user[user_map[u]].append(item_map[i])
    rng = rng_stream(seed)
    parts = ([], [], [])
    for uid, items in enumerate(items_of_user):
        n = len(items)
        n_valid = math.floor(ratios[1] * n + 1e-12)
        n_test = math.floor(ratios[2] * n + 1e-12)
        for pos, j in enumerate(rng.permutation(n)):
            part = 0 if pos < n - n_valid - n_test else 1 if pos < n - n_test else 2
            parts[part].append((uid, items[j]))
    return [np.array(rows, dtype=np.int64).reshape(-1, 2) for rows in parts]


class TestLoadInteractions:
    def test_dedup_exact_duplicate(self, tmp_path):
        path = tmp_path / "inter.tsv"
        path.write_text("a\tx\nb\ty\na\tx\n")
        raw = load_interactions(path)
        assert len(raw) == 2
        assert key_pairs(raw) == [("a", "x"), ("b", "y")]

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.tsv"
        path.write_text("u\ti\n")
        assert len(load_interactions(path)) == 1

    def test_csv_format(self, tmp_path):
        path = tmp_path / "inter.csv"
        path.write_text("a,x,5\nb,y,3\n")
        raw = load_interactions(path, fmt="csv")
        assert key_pairs(raw) == [("a", "x"), ("b", "y")]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "inter.tsv"
        path.write_text("# header\n\na\tx\n# trailing\nb\ty\n")
        assert len(load_interactions(path)) == 2

    def test_fields_after_item_ignored(self, tmp_path):
        path = tmp_path / "inter.tsv"
        path.write_text("a\tx\t5\t100\nb\ty\t4\tnot a time\tmore\n")
        raw = load_interactions(path)
        assert key_pairs(raw) == [("a", "x"), ("b", "y")]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tx\nonlyonefield\n")
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(path)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("# nothing\n")
        with pytest.raises(ParseError):
            load_interactions(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            load_interactions(tmp_path / "x", fmt="parquet")

    def test_stable_input_order_preserved(self, tmp_path):
        path = tmp_path / "inter.tsv"
        path.write_text("z\t9\na\t1\nm\t5\n")
        raw = load_interactions(path)
        assert [u for u, _ in key_pairs(raw)] == ["z", "a", "m"]
        assert raw.user_keys.tolist() == ["a", "m", "z"]
        assert raw.users.tolist() == [2, 0, 1]


def ingest_outcome(load, path, fmt):
    """``load``'s RawInteractions as lists with dtypes, or its ParseError text."""
    try:
        raw = load(path, fmt)
    except ParseError as exc:
        return str(exc)
    return [(getattr(raw, f).dtype, getattr(raw, f).tolist())
            for f in ("user_keys", "item_keys", "users", "items")]


def assert_ingest_matches_reference(path, fmt="tsv"):
    """The vectorized ingest returns the per-line reference's arrays or error,
    except that invalid UTF-8 anywhere is reported before any line."""
    ours = ingest_outcome(load_interactions, path, fmt)
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        assert ours == f"{path}: not valid UTF-8 ({exc.reason})"
        return
    assert ours == ingest_outcome(reference_ingest.load_interactions, path, fmt)


# keys on both sides of the 8/9- and 16/17-byte word boundaries, and keys that
# differ only by trailing NULs
BOUNDARY_KEYS = [
    "a", "a\0", "a\0\0", "\0", "abcdefg", "abcdefgh", "abcdefgh\0", "abcdefghi",
    "abcdefgh" * 2, "abcdefgh" * 2 + "\0", "abcdefgh" * 2 + "i", "abcdefghijklmnop" + "q" * 24,
    "é", "é\0", "€uro", "😀", "abcdefgé",
]
KEY = st.one_of(
    st.sampled_from(BOUNDARY_KEYS),
    st.text(alphabet="ab\0é€😀 #", min_size=1, max_size=40),
)


@st.composite
def interaction_files(draw):
    """(bytes, fmt) of a delimited file: mostly records of 2-4 fields, with
    blank, comment and malformed lines (one field, an empty key), mixed line
    ends, an optional BOM, an optional unterminated last line and, rarely, a
    byte that is not UTF-8."""
    fmt = draw(st.sampled_from(["tsv", "csv"]))
    sep = "\t" if fmt == "tsv" else ","
    other = "," if fmt == "tsv" else "\t"
    key = st.one_of(KEY, KEY.map(other.__add__))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record"] * 12 + ["blank", "comment", "one field", "empty key"]))
        if kind == "record":
            text = sep.join(draw(st.lists(key, min_size=2, max_size=4)))
        elif kind == "comment":
            text = "#" + draw(KEY)
        elif kind == "one field":
            text = draw(key)
        elif kind == "empty key":
            text = sep.join(draw(st.permutations([draw(key), ""])))
        else:
            text = ""
        lines.append(text + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    data = "".join(lines)
    if lines and draw(st.booleans()):
        data = data.rstrip("\r\n")  # no line end after the last line
    if draw(st.booleans()):
        data = "\ufeff" + data
    raw = data.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"])) + raw[at:]
    return raw, fmt


class TestIngestMatchesReference:
    """``load_interactions`` against the frozen per-line loop of
    tests/reference_ingest.py."""

    @settings(max_examples=400, deadline=None)
    @given(interaction_files())
    def test_random_files(self, tmp_path_factory, case):
        data, fmt = case
        path = tmp_path_factory.mktemp("ingest") / "inter.txt"
        path.write_bytes(data)
        assert_ingest_matches_reference(path, fmt)

    @pytest.mark.parametrize("data", [
        b"", b"\n\n\r\n\r", b"# only\n#comments\r\n#", b"\xef\xbb\xbfu\ti\n",
        b"\xef\xbb\xbf#not a comment\n", b"u\ti\nv\tj", b"u\ti\t5\t100\nv\tj\t\t\n",
        b"u\ti\n\n\t\n", b"u\ti\nlonely\n", b"a\0\tx\na\tx\na\0\0\tx\n", b"u\ti\r\r\nv\tj\r",
    ])
    @pytest.mark.parametrize("fmt", ["tsv", "csv"])
    def test_edge_files(self, tmp_path, data, fmt):
        path = tmp_path / "inter.txt"
        path.write_bytes(data if fmt == "tsv" else data.replace(b"\t", b","))
        assert_ingest_matches_reference(path, fmt)

    def test_invalid_utf8_reported_before_a_bad_line(self, tmp_path):
        # the per-line reader reported line 1; the whole file is checked first
        path = tmp_path / "inter.tsv"
        path.write_bytes(b"lonely\nu\ti\xe2\x82")
        with pytest.raises(ParseError) as exc:
            load_interactions(path)
        assert str(exc.value) == f"{path}: not valid UTF-8 (unexpected end of data)"

    def test_megabyte_key_beside_short_lines(self, tmp_path):
        # a gather of every key to the longest key's width would be 40 GB, and
        # a lexsort over every word the tied long keys share about 35 MB
        long_key = "k" * (1 << 20) + "z"
        lines = [f"u{j % 997}\ti{j % 503}\n" for j in range(40_000)]
        lines[5000:5000] = [f"{long_key}\titem\n", f"{long_key}\titem2\n", f"{long_key[:-1]}y\ti\n"]
        path = tmp_path / "inter.tsv"
        path.write_text("".join(lines))
        tracemalloc.start()
        try:
            raw = load_interactions(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size  # 2.3x measured
        assert raw.user_keys[:2].tolist() == [long_key[:-1] + "y", long_key]
        assert_ingest_matches_reference(path)


class TestIngestMemory:
    # tracemalloc peak over file size on this file: 4.96 at the vectorized
    # ingest, 5.64 at the per-line loop it replaced
    PEAK_PER_FILE_BYTE = 7.5

    def test_peak_within_bound(self, tmp_path):
        n = 100_000
        rng = np.random.default_rng(0)
        users, items = rng.integers(0, n // 50, n), rng.integers(0, 5000, n)
        path = tmp_path / "inter.tsv"
        path.write_text("".join(
            f"u{u:05d}\ti{i:05d}\t{(u * i) % 5 + 1}\n" for u, i in zip(users.tolist(), items.tolist())
        ))
        tracemalloc.start()
        try:
            raw = load_interactions(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(raw) > 0.9 * n
        assert peak < self.PEAK_PER_FILE_BYTE * path.stat().st_size


class TestFromKeys:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_loop_reference(self, seed):
        rows = shuffled_rows(8, 8, 30, seed, n_rows=60)
        raw = from_keys(*zip(*rows))
        kept, user_map, item_map = loop_ingest(rows)
        assert key_pairs(raw) == kept
        assert raw.user_keys.tolist() == list(user_map)
        assert raw.item_keys.tolist() == list(item_map)
        assert raw.users.tolist() == [user_map[u] for u, _ in kept]
        assert raw.items.tolist() == [item_map[i] for _, i in kept]
        assert_key_tables(raw)

    def test_keys_stay_exact(self):
        # NumPy's fixed-width str dtype would drop the trailing NUL
        raw = from_keys(["a", "a\0", "é"], ["x", "x", "x"])
        assert raw.user_keys.tolist() == ["a", "a\0", "é"]
        assert raw.users.tolist() == [0, 1, 2]


class TestKCoreFilter:
    def test_star_graph_peels_to_nothing(self):
        # 1 user with 20 degree-1 items: items die first, then the user
        raw = from_keys(["u"] * 20, [f"i{j}" for j in range(20)])
        with pytest.raises(ValueError, match="eliminated all data"):
            k_core_filter(raw, 15)

    def test_min_count_one_is_noop(self):
        raw = make_raw(5, 6, 20, seed=1)
        assert k_core_filter(raw, 1) is raw

    def test_min_count_zero_is_off(self):
        raw = make_raw(5, 6, 20, seed=1)
        assert k_core_filter(raw, 0) is raw

    def test_complete_bipartite_unchanged(self):
        users, items = [], []
        for u in range(20):
            for i in range(20):
                users.append(f"u{u}")
                items.append(f"i{i}")
        raw = from_keys(users, items)
        out = k_core_filter(raw, 15)
        assert key_pairs(out) == key_pairs(raw)

    def test_cascading_removal(self):
        # u0 holds i0..i2 (degree 3); u1/u2 each touch i0 only; core-3 kills
        # u1,u2 first, which drops i0 to degree 1, killing i0
        pairs = [("u0", "i0"), ("u0", "i1"), ("u0", "i2"),
                 ("u1", "i0"), ("u2", "i0"),
                 ("u3", "i1"), ("u4", "i1"), ("u3", "i2"), ("u4", "i2"),
                 ("u3", "i3"), ("u4", "i3"), ("u0", "i3")]
        raw = from_keys(*zip(*pairs))
        out = k_core_filter(raw, 3)
        survivors = set(key_pairs(out))
        assert ("u1", "i0") not in survivors and ("u0", "i0") not in survivors
        assert all(i != "i0" for _, i in survivors)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_matches_loop_reference(self, seed, k):
        raw = shuffled_raw(8, 8, 30, seed)
        assert_key_tables(raw)
        pairs = key_pairs(raw)
        keep = loop_k_core(pairs, k)
        if not keep:
            with pytest.raises(ValueError, match="eliminated"):
                k_core_filter(raw, k)
            return
        out = k_core_filter(raw, k)
        assert key_pairs(out) == [pairs[j] for j in keep]
        assert_key_tables(out)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_idempotent(self, seed, k):
        raw = make_raw(8, 8, 30, seed=seed)
        try:
            once = k_core_filter(raw, k)
        except ValueError:
            return
        twice = k_core_filter(once, k)
        assert key_pairs(twice) == key_pairs(once)


class TestBuildSplit:
    def test_exact_ratios_for_ten(self):
        raw = from_keys(["u"] * 10 + ["v"], [f"i{j}" for j in range(10)] + ["i0"])
        split = build_split(raw, seed=3)
        u = list(raw.user_keys).index("u")
        assert (split.train[:, 0] == u).sum() == 8
        assert (split.valid[:, 0] == u).sum() == 1
        assert (split.test[:, 0] == u).sum() == 1

    def test_two_interactions_all_train(self):
        raw = from_keys(("u", "u", "w"), ("a", "b", "a"))
        split = build_split(raw, seed=0)
        u = list(raw.user_keys).index("u")
        assert (split.train[:, 0] == u).sum() == 2
        assert (split.valid[:, 0] == u).sum() == 0
        assert (split.test[:, 0] == u).sum() == 0

    def test_deterministic_per_seed(self):
        raw = make_raw(10, 12, 80, seed=5)
        a, b = build_split(raw, seed=9), build_split(raw, seed=9)
        for part in ("train", "valid", "test"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))

    def test_different_seed_differs(self):
        raw = make_raw(10, 12, 80, seed=5)
        a, b = build_split(raw, seed=1), build_split(raw, seed=2)
        assert not (len(a.train) == len(b.train)
                    and np.array_equal(a.train, b.train))

    def test_id_maps_sorted_key_order(self):
        raw = from_keys(("b", "a", "c"), ("z", "y", "x"))
        split = build_split(raw, seed=0)
        assert raw.user_keys.tolist() == ["a", "b", "c"]
        assert raw.item_keys.tolist() == ["x", "y", "z"]
        assert sorted(split.train.tolist()) == [[0, 1], [1, 2], [2, 0]]

    def test_bad_ratios_rejected(self):
        raw = make_raw(4, 4, 10)
        with pytest.raises(ValueError, match="ratios"):
            build_split(raw, ratios=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("ratios", [(math.nan, 0.5, 0.5), (math.inf, 0.0, 0.0), (0.5, 0.5)])
    def test_malformed_ratios_named(self, ratios):
        # with nan, a user with 2 interactions would keep no train row
        raw = make_raw(4, 4, 10)
        with pytest.raises(ValueError, match=r"^ratios: must be three finite nonnegative values"):
            build_split(raw, ratios=ratios)

    def test_zero_train_ratio_named(self):
        # every user must keep a train row; with (0, 0.5, 0.5) a user with two
        # interactions would keep none
        raw = make_raw(4, 4, 10)
        with pytest.raises(ValueError, match=r"^ratios: the train fraction must be > 0"):
            build_split(raw, ratios=(0.0, 0.5, 0.5))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_partition_property(self, seed):
        raw = make_raw(12, 15, 100, seed=seed)
        split = build_split(raw, seed=seed)
        parts = [split.train, split.valid, split.test]
        total = sum(len(p) for p in parts)
        assert total == len(raw)
        keys = set()
        for p in parts:
            for u, i in p:
                keys.add((int(u), int(i)))
        assert len(keys) == total  # disjoint

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000),
           st.sampled_from([(0.8, 0.1, 0.1), (0.4, 0.3, 0.3), (1.0, 0.0, 0.0)]))
    def test_matches_loop_reference(self, seed, ratios):
        raw = shuffled_raw(12, 15, 100, seed)
        split = build_split(raw, ratios=ratios, seed=seed)
        for got, want in zip((split.train, split.valid, split.test),
                             loop_build_split(key_pairs(raw), ratios, seed)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.int64 and got.shape[1] == 2

    def test_every_user_keeps_a_train_row(self):
        split = random_split(25, 30, 400, seed=11)
        assert (split.train_degrees() >= 1).all()

    def test_roundtrip_save_load(self, tmp_path, small_split):
        small_split.save(tmp_path / "split")
        loaded = DatasetSplit.load(tmp_path / "split")
        assert loaded.n_users == small_split.n_users
        assert loaded.n_items == small_split.n_items
        for part in ("train", "valid", "test"):
            np.testing.assert_array_equal(getattr(loaded, part), getattr(small_split, part))

    def test_save_writes_one_pair_per_line_in_row_order(self, tmp_path, small_split):
        small_split.save(tmp_path / "split")
        for part in ("train", "valid", "test"):
            rows = getattr(small_split, part)
            want = "".join(f"{u}\t{i}\n" for u, i in rows.tolist())
            assert (tmp_path / "split" / f"{part}.tsv").read_text() == want


class TestSaveReplacesFiles:
    FILES = ["header.json", "test.tsv", "train.tsv", "valid.tsv"]

    def test_returns_the_written_header(self, tmp_path, small_split):
        header = small_split.save(tmp_path)
        assert header == json.loads((tmp_path / "header.json").read_text())
        assert sorted(os.listdir(tmp_path)) == self.FILES

    @pytest.mark.parametrize("failing", ["train.tsv", "header.json"])
    def test_failed_write_keeps_previous_file(self, tmp_path, small_split, monkeypatch, failing):
        random_split(12, 15, 60, seed=3).save(tmp_path)
        before = {name: (tmp_path / name).read_bytes() for name in self.FILES}
        fail_mid_write(monkeypatch, failing)
        with pytest.raises(OSError, match="No space left"):
            small_split.save(tmp_path)
        monkeypatch.undo()
        assert sorted(os.listdir(tmp_path)) == self.FILES
        assert (tmp_path / failing).read_bytes() == before[failing]
        # the files written before the failure are the new split's
        small_split.save(tmp_path / "ref")
        for name in ["train.tsv", "valid.tsv", "test.tsv", "header.json"]:
            if name == failing:
                break
            assert (tmp_path / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


class TestLoadSplit:
    @staticmethod
    def saved_with_extra_train_row(tmp_path, split, row):
        out = tmp_path / "split"
        split.save(out)
        with open(out / "train.tsv", "a") as fh:
            fh.write(f"{row[0]}\t{row[1]}\n")
        header = json.loads((out / "header.json").read_text())
        header["counts"]["train"] += 1
        (out / "header.json").write_text(json.dumps(header))
        return out

    @pytest.mark.parametrize("edit, field", [
        (lambda h: h.pop("n_users"), "n_users"),
        (lambda h: h.pop("n_items"), "n_items"),
        (lambda h: h.pop("counts"), "counts.train"),
        (lambda h: h["counts"].pop("train"), "counts.train"),
        (lambda h: h["counts"].pop("valid"), "counts.valid"),
        (lambda h: h["counts"].pop("test"), "counts.test"),
    ])
    def test_missing_header_field_named(self, tmp_path, small_split, edit, field):
        out = tmp_path / "split"
        small_split.save(out)
        header = json.loads((out / "header.json").read_text())
        edit(header)
        (out / "header.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match=rf"header\.json: missing field '{field}'"):
            DatasetSplit.load(out)

    @pytest.mark.parametrize("field, value", [
        ("n_users", -1), ("n_items", 2.0), ("n_users", "30"), ("n_items", True),
        ("counts.test", None), ("counts.valid", -5),
    ])
    def test_bad_header_value_named(self, tmp_path, small_split, field, value):
        out = tmp_path / "split"
        small_split.save(out)
        header = json.loads((out / "header.json").read_text())
        *parents, key = field.split(".")
        node = header
        for part in parents:
            node = node[part]
        node[key] = value
        (out / "header.json").write_text(json.dumps(header))
        with pytest.raises(
            ValueError,
            match=rf"header\.json: field '{field}' must be a non-negative integer, "
            rf"got {re.escape(repr(value))}",
        ):
            DatasetSplit.load(out)

    @pytest.mark.parametrize("text", ["{", "", "n_users: 30", b"\xff\xfe{}"])
    def test_header_not_json_named(self, tmp_path, small_split, text):
        out = tmp_path / "split"
        small_split.save(out)
        path = out / "header.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValueError, match=rf"header\.json: not valid JSON: "):
            DatasetSplit.load(out)

    def test_duplicate_train_pair_names_file_and_pair(self, tmp_path, small_split):
        u, i = small_split.train[5]
        out = self.saved_with_extra_train_row(tmp_path, small_split, (u, i))
        with pytest.raises(ValueError, match=rf"train\.tsv: duplicate train pair \({u}, {i}\)"):
            DatasetSplit.load(out)

    def test_out_of_range_id_names_file_and_line(self, tmp_path, small_split):
        n_users, n_items = small_split.n_users, small_split.n_items
        line = len(small_split.train) + 1
        for k, (u, i) in enumerate([(0, n_items + 2), (n_users, 0), (-1, 0)]):
            out = self.saved_with_extra_train_row(tmp_path / str(k), small_split, (u, i))
            with pytest.raises(ValueError, match=rf"train\.tsv: line {line}: pair \({u}, {i}\)"):
                DatasetSplit.load(out)

    def test_out_of_range_line_counts_comment_and_blank_lines(self, tmp_path, small_split):
        u = small_split.n_users
        out = self.saved_with_extra_train_row(tmp_path, small_split, (u, 0))
        path = out / "train.tsv"
        path.write_text("# user\titem\n\n" + path.read_text())
        line = len(small_split.train) + 3
        with pytest.raises(ValueError, match=rf"train\.tsv: line {line}: pair \({u}, 0\)"):
            DatasetSplit.load(out)

    @pytest.mark.parametrize("row, problem", [
        (("3", "x"), "field 2: 'x' is not an integer"),
        (("1.5", "3"), "field 1: '1.5' is not an integer"),
        (("3", "4\t5"), "expected 2 fields, got 3"),
        (("", ""), "field 1: '' is not an integer"),
    ])
    def test_unparsable_line_names_file_and_line(self, tmp_path, small_split, row, problem):
        out = self.saved_with_extra_train_row(tmp_path, small_split, row)
        line = len(small_split.train) + 1
        with pytest.raises(ValueError, match=rf"train\.tsv: line {line}: {re.escape(problem)}$"):
            DatasetSplit.load(out)

    def test_bad_field_count_names_file(self, tmp_path, small_split):
        out = tmp_path / "split"
        small_split.save(out)
        (out / "test.tsv").write_text("1\t2\t3\n" * len(small_split.test))
        with pytest.raises(ValueError, match="test.tsv"):
            DatasetSplit.load(out)

    def test_empty_split_files_load_without_warning(self, tmp_path):
        raw = from_keys(("u", "u", "w"), ("a", "b", "a"))
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        split.save(tmp_path / "split")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = DatasetSplit.load(tmp_path / "split")
        assert loaded.valid.shape == loaded.test.shape == (0, 2)
        np.testing.assert_array_equal(loaded.train, split.train)


class TestGroupByUser:
    def test_input_order_within_user(self):
        users = np.array([2, 0, 2, 0, 2])
        items = np.array([9, 4, 1, 7, 5])
        groups = group_by_user(users, items, 4)
        assert [g.tolist() for g in groups] == [[4, 7], [], [9, 1, 5], []]

    def test_train_matrix_rows_sorted(self, small_split):
        train = small_split.train
        groups = group_by_user(train[:, 0], train[:, 1], small_split.n_users)
        for u, items in enumerate(groups):
            row = small_split.train_matrix[u].indices
            assert (np.diff(row) > 0).all()
            np.testing.assert_array_equal(row, np.sort(items))

    def test_pair_matrix_collapses_duplicates(self):
        m = pair_matrix(np.array([[1, 3], [0, 2], [1, 0], [1, 3]]), 3, 4)
        assert m.shape == (3, 4) and m.dtype == bool
        assert m.indptr.tolist() == [0, 1, 3, 3]
        assert m.indices.tolist() == [2, 0, 3]

    def test_duplicate_train_pair_rejected(self):
        train = np.array([[1, 3], [0, 2], [1, 0], [0, 1], [1, 0], [1, 3]])
        empty = np.empty((0, 2), dtype=np.int64)
        with pytest.raises(ValueError, match=r"^duplicate train pair \(1, 0\)$"):
            DatasetSplit(n_users=2, n_items=4, train=train, valid=empty, test=empty)
        # a pair may repeat across parts; only the train rows must be distinct
        split = DatasetSplit(n_users=2, n_items=4, train=train[:4], valid=train[4:], test=empty)
        assert split.train_matrix.nnz == 4


class TestSampleNegatives:
    def test_one_triple_per_train_row(self, small_split):
        triples = sample_negatives(small_split, epoch_seed=4)
        assert len(triples) == len(small_split.train)

    def test_never_emits_train_positive(self, small_split):
        for seed in range(5):
            triples = sample_negatives(small_split, epoch_seed=seed)
            assert not small_split.is_train_pair(triples.users, triples.neg_items).any()

    def test_is_train_pair_matches_the_train_rows(self, small_split):
        users, items = np.divmod(np.arange(small_split.n_users * small_split.n_items),
                                 small_split.n_items)
        expected = {(int(u), int(i)) for u, i in small_split.train}
        got = small_split.is_train_pair(users, items)
        assert got.shape == users.shape
        assert {(int(u), int(i)) for u, i in zip(users[got], items[got])} == expected
        assert small_split.is_train_pair(users[:0], items[:0]).shape == (0,)

    def test_forced_negative(self):
        # the user interacted with every item but one
        users = tuple("u" for _ in range(5)) + ("w",)
        items = tuple(f"i{j}" for j in range(5)) + ("i5",)
        raw = from_keys(users, items)
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        u = list(raw.user_keys).index("u")
        missing = list(raw.item_keys).index("i5")
        for seed in range(10):
            triples = sample_negatives(split, epoch_seed=seed)
            assert (triples.neg_items[triples.users == u] == missing).all()

    def test_full_coverage_user_errors(self):
        raw = from_keys(("u", "u"), ("a", "b"))
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        with pytest.raises(ValueError, match="no negative"):
            sample_negatives(split, epoch_seed=0)

    def test_deterministic_per_seed(self, small_split):
        a = sample_negatives(small_split, epoch_seed=123)
        b = sample_negatives(small_split, epoch_seed=123)
        np.testing.assert_array_equal(a.neg_items, b.neg_items)

    def test_uniform_over_complement(self):
        # one user with 100 train items out of 200: negatives must be uniform
        # over the 100 non-interacted items (chi-squared at alpha = 0.001)
        rng = np.random.default_rng(0)
        train_items = np.sort(rng.choice(200, size=100, replace=False))
        users = tuple("u" for _ in train_items) + tuple(
            f"w{j}" for j in range(200)
        )
        items = tuple(f"i{j:03d}" for j in train_items) + tuple(
            f"i{j:03d}" for j in range(200)
        )
        raw = from_keys(users, items)
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        uid = list(raw.user_keys).index("u")
        counts = np.zeros(split.n_items, dtype=np.int64)
        n_draws = 0
        for epoch in range(1000):
            triples = sample_negatives(split, epoch_seed=epoch)
            negs = triples.neg_items[triples.users == uid]
            np.add.at(counts, negs, 1)
            n_draws += len(negs)
        candidates = np.setdiff1d(np.arange(split.n_items), split.train_matrix[uid].indices)
        assert counts[split.train_matrix[uid].indices].sum() == 0
        expected = n_draws / len(candidates)
        chi2 = ((counts[candidates] - expected) ** 2 / expected).sum()
        # chi2 critical value, df=99, alpha=0.001
        from scipy.stats import chi2 as chi2_dist

        assert chi2 < chi2_dist.ppf(0.999, df=len(candidates) - 1)
