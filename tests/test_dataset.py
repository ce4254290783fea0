"""Ingestion, k-core filtering, splitting, and negative sampling."""

import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concf import (
    RawInteractions,
    build_split,
    k_core_filter,
    load_interactions,
    sample_negatives,
)
from concf.dataset import DatasetSplit, ParseError, group_by_user
from concf.seeding import rng_stream

from conftest import make_raw, random_split


def shuffled_raw(n_users, n_items, n_pairs, seed):
    """make_raw's pairs in a random input order, each with a timestamp."""
    raw = make_raw(n_users, n_items, n_pairs, seed=seed)
    order = np.random.default_rng(seed).permutation(len(raw))
    return RawInteractions(
        users=tuple(raw.users[j] for j in order),
        items=tuple(raw.items[j] for j in order),
        timestamps=tuple(float(j) for j in order),
    )


def loop_k_core(raw, min_count):
    """Reference: peel by per-key degree counts until nothing changes."""
    keep = list(range(len(raw)))
    while True:
        u_deg = Counter(raw.users[j] for j in keep)
        i_deg = Counter(raw.items[j] for j in keep)
        survivors = [
            j for j in keep
            if u_deg[raw.users[j]] >= min_count and i_deg[raw.items[j]] >= min_count
        ]
        if len(survivors) == len(keep):
            return keep
        keep = survivors


def loop_build_split(raw, ratios, seed):
    """Reference: one permutation per user, in user order, cut into three parts."""
    user_map = {k: n for n, k in enumerate(sorted(set(raw.users)))}
    item_map = {k: n for n, k in enumerate(sorted(set(raw.items)))}
    items_of_user = [[] for _ in user_map]
    for u, i in raw.pairs():
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
        assert list(raw.pairs()) == [("a", "x"), ("b", "y")]

    def test_single_record(self, tmp_path):
        path = tmp_path / "one.tsv"
        path.write_text("u\ti\n")
        assert len(load_interactions(path)) == 1

    def test_csv_format(self, tmp_path):
        path = tmp_path / "inter.csv"
        path.write_text("a,x,5\nb,y,3\n")
        raw = load_interactions(path, fmt="csv")
        assert list(raw.pairs()) == [("a", "x"), ("b", "y")]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "inter.tsv"
        path.write_text("# header\n\na\tx\n# trailing\nb\ty\n")
        assert len(load_interactions(path)) == 2

    def test_rating_and_timestamp_fields(self, tmp_path):
        path = tmp_path / "inter.tsv"
        path.write_text("a\tx\t5\t100\nb\ty\t4\t200\n")
        raw = load_interactions(path)
        assert raw.timestamps == (100.0, 200.0)

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
        assert raw.users == ("z", "a", "m")


class TestKCoreFilter:
    def test_star_graph_peels_to_nothing(self):
        # 1 user with 20 degree-1 items: items die first, then the user
        raw = RawInteractions(
            users=tuple("u" for _ in range(20)),
            items=tuple(f"i{j}" for j in range(20)),
        )
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
        raw = RawInteractions(users=tuple(users), items=tuple(items))
        out = k_core_filter(raw, 15)
        assert list(out.pairs()) == list(raw.pairs())

    def test_cascading_removal(self):
        # u0 holds i0..i2 (degree 3); u1/u2 each touch i0 only; core-3 kills
        # u1,u2 first, which drops i0 to degree 1, killing i0
        pairs = [("u0", "i0"), ("u0", "i1"), ("u0", "i2"),
                 ("u1", "i0"), ("u2", "i0"),
                 ("u3", "i1"), ("u4", "i1"), ("u3", "i2"), ("u4", "i2"),
                 ("u3", "i3"), ("u4", "i3"), ("u0", "i3")]
        raw = RawInteractions(
            users=tuple(u for u, _ in pairs), items=tuple(i for _, i in pairs)
        )
        out = k_core_filter(raw, 3)
        survivors = set(out.pairs())
        assert ("u1", "i0") not in survivors and ("u0", "i0") not in survivors
        assert all(i != "i0" for _, i in survivors)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_matches_loop_reference(self, seed, k):
        raw = shuffled_raw(8, 8, 30, seed)
        keep = loop_k_core(raw, k)
        if not keep:
            with pytest.raises(ValueError, match="eliminated"):
                k_core_filter(raw, k)
            return
        out = k_core_filter(raw, k)
        assert out.users == tuple(raw.users[j] for j in keep)
        assert out.items == tuple(raw.items[j] for j in keep)
        assert out.timestamps == tuple(raw.timestamps[j] for j in keep)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_idempotent(self, seed, k):
        raw = make_raw(8, 8, 30, seed=seed)
        try:
            once = k_core_filter(raw, k)
        except ValueError:
            return
        twice = k_core_filter(once, k)
        assert list(twice.pairs()) == list(once.pairs())


class TestBuildSplit:
    def test_exact_ratios_for_ten(self):
        raw = RawInteractions(
            users=tuple("u" for _ in range(10)) + ("v",),
            items=tuple(f"i{j}" for j in range(10)) + ("i0",),
        )
        split = build_split(raw, seed=3)
        u = split.user_map["u"]
        assert (split.train[:, 0] == u).sum() == 8
        assert (split.valid[:, 0] == u).sum() == 1
        assert (split.test[:, 0] == u).sum() == 1

    def test_two_interactions_all_train(self):
        raw = RawInteractions(users=("u", "u", "w"), items=("a", "b", "a"))
        split = build_split(raw, seed=0)
        u = split.user_map["u"]
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
        raw = RawInteractions(users=("b", "a", "c"), items=("z", "y", "x"))
        split = build_split(raw, seed=0)
        assert split.user_map == {"a": 0, "b": 1, "c": 2}
        assert split.item_map == {"x": 0, "y": 1, "z": 2}

    def test_bad_ratios_rejected(self):
        raw = make_raw(4, 4, 10)
        with pytest.raises(ValueError, match="ratios"):
            build_split(raw, ratios=(0.5, 0.2, 0.2))

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
                             loop_build_split(raw, ratios, seed)):
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

    def test_out_of_range_id_names_file_and_line(self, tmp_path, small_split):
        n_users, n_items = small_split.n_users, small_split.n_items
        line = len(small_split.train) + 1
        for k, (u, i) in enumerate([(0, n_items + 2), (n_users, 0), (-1, 0)]):
            out = self.saved_with_extra_train_row(tmp_path / str(k), small_split, (u, i))
            with pytest.raises(ValueError, match=rf"train\.tsv: line {line}: pair \({u}, {i}\)"):
                DatasetSplit.load(out)

    def test_bad_field_count_names_file(self, tmp_path, small_split):
        out = tmp_path / "split"
        small_split.save(out)
        (out / "test.tsv").write_text("1\t2\t3\n" * len(small_split.test))
        with pytest.raises(ValueError, match="test.tsv"):
            DatasetSplit.load(out)

    def test_empty_split_files_load_without_warning(self, tmp_path):
        raw = RawInteractions(users=("u", "u", "w"), items=("a", "b", "a"))
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

    def test_train_items_by_user_sorted(self, small_split):
        for u, items in enumerate(small_split.train_items_by_user):
            want = np.sort(small_split.train[small_split.train[:, 0] == u, 1])
            np.testing.assert_array_equal(items, want)


class TestSampleNegatives:
    def test_one_triple_per_train_row(self, small_split):
        triples = sample_negatives(small_split, epoch_seed=4)
        assert len(triples) == len(small_split.train)

    def test_never_emits_train_positive(self, small_split):
        for seed in range(5):
            triples = sample_negatives(small_split, epoch_seed=seed)
            assert not small_split.is_train_pair(triples.users, triples.neg_items).any()

    def test_forced_negative(self):
        # the user interacted with every item but one
        users = tuple("u" for _ in range(5)) + ("w",)
        items = tuple(f"i{j}" for j in range(5)) + ("i5",)
        raw = RawInteractions(users=users, items=items)
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        u = split.user_map["u"]
        missing = split.item_map["i5"]
        for seed in range(10):
            triples = sample_negatives(split, epoch_seed=seed)
            assert (triples.neg_items[triples.users == u] == missing).all()

    def test_full_coverage_user_errors(self):
        raw = RawInteractions(users=("u", "u"), items=("a", "b"))
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
        raw = RawInteractions(users=users, items=items)
        split = build_split(raw, ratios=(1.0, 0.0, 0.0), seed=0)
        uid = split.user_map["u"]
        counts = np.zeros(split.n_items, dtype=np.int64)
        n_draws = 0
        for epoch in range(1000):
            triples = sample_negatives(split, epoch_seed=epoch)
            negs = triples.neg_items[triples.users == uid]
            np.add.at(counts, negs, 1)
            n_draws += len(negs)
        candidates = np.setdiff1d(np.arange(split.n_items), split.train_items_by_user[uid])
        assert counts[split.train_items_by_user[uid]].sum() == 0
        expected = n_draws / len(candidates)
        chi2 = ((counts[candidates] - expected) ** 2 / expected).sum()
        # chi2 critical value, df=99, alpha=0.001
        from scipy.stats import chi2 as chi2_dist

        assert chi2 < chi2_dist.ppf(0.999, df=len(candidates) - 1)
