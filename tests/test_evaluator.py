"""Metric primitives against brute-force references; full-ranking protocol."""

import dataclasses
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from concf import (
    build_normalized_adjacency,
    forward,
    full_rank_eval,
    init_embeddings,
    sparsity_group_report,
)
from concf import evaluator
from concf.dataset import DatasetSplit, group_by_user
from concf.evaluator import _CHUNK, _select_cap, _top_n, partition_users_by_mass
from concf.model import ForwardPass

from conftest import open_worker_gate, random_split, worker_started
from reference_metrics import ndcg_at_n, recall_at_n


def brute_force_recall(ranked, relevant, n):
    hits = 0
    for item in ranked[:n]:
        if item in relevant:
            hits += 1
    return hits / len(relevant)


def brute_force_ndcg(ranked, relevant, n):
    dcg = 0.0
    for pos, item in enumerate(ranked[:n], start=1):
        if item in relevant:
            dcg += 1.0 / np.log2(pos + 1)
    idcg = sum(1.0 / np.log2(p + 1) for p in range(1, min(n, len(relevant)) + 1))
    return dcg / idcg


class TestRecallAtN:
    def test_relevant_first(self):
        assert recall_at_n([5, 1, 2], {5}, 10) == 1.0

    def test_relevant_at_rank_eleven(self):
        ranked = list(range(11))
        assert recall_at_n(ranked, {10}, 10) == 0.0

    def test_two_of_three_in_top_ten(self):
        ranked = [0, 1] + list(range(100, 108)) + [2]
        assert recall_at_n(ranked, {0, 1, 2}, 10) == pytest.approx(2 / 3)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            recall_at_n([1, 2], set(), 10)


class TestNdcgAtN:
    def test_single_relevant_rank_one(self):
        assert ndcg_at_n([7, 1, 2], {7}, 10) == 1.0

    def test_single_relevant_rank_three(self):
        assert ndcg_at_n([1, 2, 7, 3], {7}, 10) == pytest.approx(0.5)  # 1/log2(4)

    def test_none_in_top(self):
        assert ndcg_at_n(list(range(10)), {99}, 10) == 0.0


class TestMetricOracles:
    def test_thousand_random_rankings_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n_items = int(rng.integers(5, 60))
            ranked = rng.permutation(n_items).tolist()
            n_rel = int(rng.integers(1, n_items))
            relevant = set(rng.choice(n_items, size=n_rel, replace=False).tolist())
            n = int(rng.integers(1, n_items + 5))
            assert recall_at_n(ranked, relevant, n) == brute_force_recall(ranked, relevant, n)
            assert ndcg_at_n(ranked, relevant, n) == brute_force_ndcg(ranked, relevant, n)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000))
    def test_monotone_in_n(self, seed):
        rng = np.random.default_rng(seed)
        ranked = rng.permutation(60).tolist()
        relevant = set(rng.choice(60, size=5, replace=False).tolist())
        values_r = [recall_at_n(ranked, relevant, n) for n in (10, 20, 50)]
        values_n = [ndcg_at_n(ranked, relevant, n) for n in (10, 20, 50)]
        assert values_r == sorted(values_r)
        assert values_n == sorted(values_n)
        assert all(0 <= v <= 1 for v in values_r + values_n)


def forward_from_readout(readout, n_users, n_items):
    return ForwardPass(n_users=n_users, n_items=n_items, layers=[readout], readout=readout)


def reference_full_rank_eval(
    fp, split, target="valid", ns=(10, 20, 50), subset=None, user_cap=None,
):
    """(metrics, n_evaluated_users) of the per-user loop evaluator the package
    used before its vectorized pass: chunked scoring, per-user masking, a stable
    sort of all items, and sums added one user at a time."""
    target_pairs = split.valid if target == "valid" else split.test
    targets = group_by_user(target_pairs[:, 0], target_pairs[:, 1], split.n_users)
    train_items = group_by_user(split.train[:, 0], split.train[:, 1], split.n_users)
    valid_targets = (
        group_by_user(split.valid[:, 0], split.valid[:, 1], split.n_users)
        if target == "test"
        else None
    )
    eligible = np.flatnonzero(np.bincount(target_pairs[:, 0], minlength=split.n_users))
    if subset is not None:
        eligible = eligible[np.isin(eligible, np.asarray(subset, dtype=np.int64))]
    eligible = _select_cap(eligible, user_cap)

    ns = tuple(sorted(ns))
    max_n = min(ns[-1], split.n_items)
    gains = 1.0 / np.log2(np.arange(2, max_n + 2))
    idcg_prefix = np.concatenate([[0.0], np.cumsum(gains)])
    recall_sums = {n: 0.0 for n in ns}
    ndcg_sums = {n: 0.0 for n in ns}
    for start in range(0, len(eligible), 512):
        chunk = eligible[start:start + 512]
        scores = fp.readout[chunk] @ fp.item_readout.T
        for row, u in enumerate(chunk):
            scores[row, train_items[u]] = -np.inf
            if valid_targets is not None and len(valid_targets[u]):
                scores[row, valid_targets[u]] = -np.inf
        order = np.argsort(-scores, axis=1, kind="stable")[:, :max_n]
        for row, u in enumerate(chunk):
            rel = np.zeros(split.n_items, dtype=bool)
            rel[targets[u]] = True
            hits = rel[order[row]]
            n_rel = len(targets[u])
            hit_gains = hits * gains
            for n in ns:
                recall_sums[n] += hits[:n].sum() / n_rel
                ndcg_sums[n] += hit_gains[:n].sum() / idcg_prefix[min(n, n_rel)]
    n_eval = len(eligible)
    metrics = {}
    for n in ns:
        metrics[f"recall@{n}"] = float(recall_sums[n] / n_eval) if n_eval else 0.0
        metrics[f"ndcg@{n}"] = float(ndcg_sums[n] / n_eval) if n_eval else 0.0
    return metrics, n_eval


def tied_readout(fp) -> np.ndarray:
    """``fp``'s readout on a dyadic grid: item rows rounded to multiples of
    1/32, user rows to multiples of 1/32 plus 1/64 (so no user row is
    zero). Every product and sum of a score is then exact in float32 and
    float64, so a score's bytes do not depend on which rows share its BLAS
    product, while rows still tie."""
    readout = np.round(fp.readout * 32) / 32
    readout[: fp.n_users] = np.abs(readout[: fp.n_users]) + 1 / 64
    return readout


@pytest.fixture(scope="module")
def tied_forward():
    """A split and readout whose scores tie (``tied_readout``, duplicated
    item rows) and are -inf for three items, beside the masked -inf entries."""
    split = random_split(120, 60, 2400, seed=11)
    table = init_embeddings(split.n_users, split.n_items, 8, seed=12)
    readout = tied_readout(forward(build_normalized_adjacency(split), table, 2))
    items = readout[split.n_users:]
    items[5:15] = items[4]
    items[[20, 33, 47]] = -np.inf
    return split, forward_from_readout(readout, split.n_users, split.n_items)


@pytest.fixture(scope="module")
def tied_forward_three_chunks():
    """``tied_forward``'s kind of readout over 1200 users, enough for more
    than two evaluation chunks of ``_CHUNK`` users (and three reference
    chunks of 512), with one user's readout row NaN, so that its scores are
    NaN besides its masked -inf entries."""
    split = random_split(1200, 80, 30000, seed=21)
    table = init_embeddings(split.n_users, split.n_items, 8, seed=22)
    readout = tied_readout(forward(build_normalized_adjacency(split), table, 2))
    readout[700] = np.nan
    items = readout[split.n_users:]
    items[5:15] = items[4]
    items[[20, 33, 47]] = -np.inf
    return split, forward_from_readout(readout, split.n_users, split.n_items)


class TestFullRankEval:
    def test_unique_max_scores_perfect(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 8, seed=0)
        # plant readout so user 0's first valid item dominates everything
        fp = forward(small_adj, table, 2)
        report = full_rank_eval(fp, small_split, target="valid", ns=(10,))
        assert 0.0 <= report.metrics["recall@10"] <= 1.0
        assert report.n_evaluated_users > 0

    def test_three_items_target_on_top(self):
        # 1 user, 3 items; target item 2 has the unique max score
        readout = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.2], [2.0, 0.0]])
        from concf import DatasetSplit

        split = DatasetSplit(
            n_users=1,
            n_items=3,
            train=np.array([[0, 0]]),
            valid=np.array([[0, 2]]),
            test=np.empty((0, 2), dtype=np.int64),
        )
        fp = forward_from_readout(readout, 1, 3)
        report = full_rank_eval(fp, split, target="valid", ns=(10,))
        assert report.metrics["recall@10"] == 1.0
        assert report.metrics["ndcg@10"] == 1.0

    def test_tie_break_by_item_id(self):
        # all-equal scores rank items by ascending id; target id 1 sits at
        # rank 2 after masking nothing (no train overlap among 0..2)
        readout = np.ones((4, 2))
        from concf import DatasetSplit

        split = DatasetSplit(
            n_users=1,
            n_items=3,
            train=np.empty((0, 2), dtype=np.int64),
            valid=np.array([[0, 1]]),
            test=np.empty((0, 2), dtype=np.int64),
        )
        fp = forward_from_readout(readout, 1, 3)
        report = full_rank_eval(fp, split, target="valid", ns=(1, 2))
        assert report.metrics["recall@1"] == 0.0
        assert report.metrics["recall@2"] == 1.0
        assert report.metrics["ndcg@2"] == pytest.approx(1.0 / np.log2(3))

    def test_matches_per_user_primitive_loop(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 8, seed=3)
        fp = forward(small_adj, table, 2)
        report = full_rank_eval(fp, small_split, target="test", ns=(10, 20))
        # independent composition: loop users, mask, sort, call primitives
        targets = {}
        for u, i in small_split.test:
            targets.setdefault(int(u), set()).add(int(i))
        valid_items = {}
        for u, i in small_split.valid:
            valid_items.setdefault(int(u), set()).add(int(i))
        recalls, ndcgs = {10: [], 20: []}, {10: [], 20: []}
        for u, relevant in sorted(targets.items()):
            scores = fp.item_readout @ fp.readout[u]
            masked = scores.copy()
            masked[small_split.train_matrix[u].indices] = -np.inf
            for i in valid_items.get(u, ()):
                masked[i] = -np.inf
            order = sorted(range(small_split.n_items), key=lambda i: (-masked[i], i))
            for n in (10, 20):
                recalls[n].append(recall_at_n(order, relevant, n))
                ndcgs[n].append(ndcg_at_n(order, relevant, n))
        for n in (10, 20):
            assert report.metrics[f"recall@{n}"] == pytest.approx(float(np.mean(recalls[n])), abs=1e-12)
            assert report.metrics[f"ndcg@{n}"] == pytest.approx(float(np.mean(ndcgs[n])), abs=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(target="valid", ns=(10,)),
        dict(target="valid", ns=(10,), user_cap=37),
        dict(target="test", ns=(1, 10, 20, 50)),
        dict(target="test", ns=(10, 20, 50), user_cap=37),
    ])
    def test_equals_per_user_loop_exactly(self, tied_forward, kwargs):
        split, fp = tied_forward
        report = full_rank_eval(fp, split, **kwargs)
        metrics, n_eval = reference_full_rank_eval(fp, split, **kwargs)
        assert report.n_evaluated_users == n_eval
        assert report.metrics == metrics

    @pytest.mark.parametrize("kwargs", [
        dict(target="valid", ns=(10,)),
        dict(target="test", ns=(1, 10, 20, 50)),
        dict(target="test", ns=(5, 20)),
    ])
    def test_three_chunks_equal_per_user_loop_exactly(self, tied_forward_three_chunks, kwargs):
        split, fp = tied_forward_three_chunks
        metrics, n_eval = reference_full_rank_eval(fp, split, **kwargs)
        assert n_eval > 2 * _CHUNK
        report = full_rank_eval(fp, split, **kwargs)
        assert report.n_evaluated_users == n_eval
        assert report.metrics == metrics
        if kwargs["target"] == "test":
            groups = sparsity_group_report(fp, split, n_groups=3, **kwargs)
            assert groups.metrics == metrics
            members = partition_users_by_mass(split.train_degrees(), 3)
            for group, users in zip(groups.groups, members):
                metrics, n_eval = reference_full_rank_eval(fp, split, subset=users, **kwargs)
                assert group.n_evaluated_users == n_eval
                assert group.metrics == metrics

    def test_repeated_cutoff_counted_once(self, tied_forward):
        split, fp = tied_forward
        once = full_rank_eval(fp, split, target="test", ns=(10, 20))
        assert full_rank_eval(fp, split, target="test", ns=(20, 10, 10)).metrics == once.metrics

    @pytest.mark.parametrize("ns", [(0, 10), (-3,), ()])
    def test_cutoffs_below_one_rejected(self, small_split, small_adj, ns):
        fp = forward(small_adj, init_embeddings(small_split.n_users, small_split.n_items, 4, 0), 2)
        with pytest.raises(ValueError, match="ns: every cutoff must be >= 1"):
            full_rank_eval(fp, small_split, ns=ns)

    def test_masked_items_never_ranked(self):
        # each user's train item scores 3, valid item 2, test item 1 and the
        # rest 0, so a target ranks first only when every item above it is masked
        from concf import DatasetSplit

        split = DatasetSplit(
            n_users=2, n_items=6, train=np.array([[0, 0], [1, 3]]),
            valid=np.array([[0, 1], [1, 4]]), test=np.array([[0, 2], [1, 5]]),
        )
        scores = np.zeros((2, 6))
        for pairs, score in ((split.train, 3.0), (split.valid, 2.0), (split.test, 1.0)):
            scores[pairs[:, 0], pairs[:, 1]] = score
        # item rows are one-hot, so user u's score for item i is scores[u, i]
        fp = forward_from_readout(np.vstack([scores, np.eye(6)]), 2, 6)
        for target in ("valid", "test"):
            report = full_rank_eval(fp, split, target=target, ns=(1,))
            assert report.n_evaluated_users == 2
            assert report.metrics == {"recall@1": 1.0, "ndcg@1": 1.0}, target

    def test_tail_permutation_invariant(self):
        # metrics only read the top-N: shuffling scores below the cutoff
        # cannot change them
        from concf import DatasetSplit

        rng = np.random.default_rng(5)
        n_items = 30
        base = np.arange(n_items, dtype=float)[::-1].copy()  # descending scores
        split = DatasetSplit(
            n_users=1,
            n_items=n_items,
            train=np.empty((0, 2), dtype=np.int64),
            valid=np.array([[0, 3], [0, 7]]),
            test=np.empty((0, 2), dtype=np.int64),
        )

        def report_for(scores):
            readout = np.zeros((1 + n_items, 1))
            readout[0, 0] = 1.0
            readout[1:, 0] = scores
            fp = forward_from_readout(readout, 1, n_items)
            return full_rank_eval(fp, split, target="valid", ns=(10,)).metrics

        before = report_for(base)
        shuffled = base.copy()
        shuffled[10:] = rng.permutation(shuffled[10:])
        after = report_for(shuffled)
        assert before == after

    def test_validation_items_masked_at_test(self):
        # item 0 is train, 1 valid, 2 test; item 1 outscores item 2, so the
        # test item ranks first only when the validation item is masked
        from concf import DatasetSplit

        split = DatasetSplit(
            n_users=1, n_items=4, train=np.array([[0, 0]]), valid=np.array([[0, 1]]),
            test=np.array([[0, 2]]),
        )
        fp = forward_from_readout(np.array([[1.0], [3.0], [2.5], [2.0], [1.0]]), 1, 4)
        report = full_rank_eval(fp, split, target="test", ns=(1,))
        assert report.metrics == {"recall@1": 1.0, "ndcg@1": 1.0}
        assert report.metadata == {"target": "test", "user_cap": None}
        assert full_rank_eval(fp, split, target="valid", ns=(1,)).metrics["recall@1"] == 1.0

    def test_user_cap(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 8, seed=7)
        fp = forward(small_adj, table, 2)
        capped = full_rank_eval(fp, small_split, target="valid", user_cap=5)
        assert capped.n_evaluated_users == 5

    def test_empty_target_rejected(self, small_split, small_adj):
        import dataclasses

        table = init_embeddings(small_split.n_users, small_split.n_items, 4, seed=0)
        fp = forward(small_adj, table, 2)
        empty = dataclasses.replace(small_split, test=np.empty((0, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            full_rank_eval(fp, empty, target="test")


class TestEvalMemory:
    # tracemalloc peak of full_rank_eval over one chunk's score bytes, on 512
    # users x 3000 items in float32: 1.53 with the threshold top-N and the
    # flat-index masking, 4.03 with argpartition on a negated copy, sparse row
    # indexing and a dense relevance chunk
    PEAK_PER_CHUNK_BYTE = 2.5

    def test_peak_within_bound(self):
        from concf import DatasetSplit

        n_users, n_items, d = 512, 3000, 64
        rng = np.random.default_rng(0)
        valid = np.stack([np.arange(n_users), rng.integers(0, n_items, n_users)], axis=1)
        keys = np.setdiff1d(rng.integers(0, n_users * n_items, 40 * n_users),
                            valid[:, 0] * n_items + valid[:, 1])
        train = np.stack(np.divmod(keys, n_items), axis=1)
        split = DatasetSplit(n_users=n_users, n_items=n_items, train=train, valid=valid,
                             test=valid[:0])
        readout = rng.standard_normal((n_users + n_items, d)).astype(np.float32)
        fp = forward_from_readout(readout, n_users, n_items)
        tracemalloc.start()
        try:
            report = full_rank_eval(fp, split, target="valid", ns=(10,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_evaluated_users == n_users
        assert peak < self.PEAK_PER_CHUNK_BYTE * n_users * n_items * readout.itemsize


def one_valid_item_per_user(n_users: int, n_items: int, d: int = 64, seed: int = 0):
    """A split in which each user has one valid item and about 40 train items,
    and a random float32 readout over it."""
    rng = np.random.default_rng(seed)
    valid = np.stack([np.arange(n_users), rng.integers(0, n_items, n_users)], axis=1)
    keys = np.setdiff1d(rng.integers(0, n_users * n_items, 40 * n_users),
                        valid[:, 0] * n_items + valid[:, 1])
    train = np.stack(np.divmod(keys, n_items), axis=1)
    split = DatasetSplit(n_users=n_users, n_items=n_items, train=train, valid=valid,
                         test=valid[:0])
    readout = rng.standard_normal((n_users + n_items, d)).astype(np.float32)
    return split, forward_from_readout(readout, n_users, n_items)


class TestSplitEvalMemory:
    def test_peak_within_two_chunks(self, open_gate):
        # two chunks in flight, one on each thread
        n_users, n_items = 2 * _CHUNK, 3000
        split, fp = one_valid_item_per_user(n_users, n_items)
        tracemalloc.start()
        try:
            report = full_rank_eval(fp, split, target="valid", ns=(10,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert worker_started()
        assert report.n_evaluated_users == n_users
        chunk_bytes = _CHUNK * n_items * fp.readout.itemsize
        assert peak < TestEvalMemory.PEAK_PER_CHUNK_BYTE * 2 * chunk_bytes


def reports(fp, split) -> list[dict]:
    """Every report the tests compare across the worker gate: full and grouped,
    valid and test, with and without a user cap."""
    return [
        full_rank_eval(fp, split, target="valid", ns=(10,)).as_dict(),
        full_rank_eval(fp, split, target="valid", ns=(10,), user_cap=700).as_dict(),
        full_rank_eval(fp, split, target="test", ns=(1, 10, 20, 50)).as_dict(),
        sparsity_group_report(fp, split, n_groups=3, ns=(5, 20)).as_dict(),
    ]


class TestRankingHalves:
    """With the worker gate open, the worker ranks the second half of the chunks."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_open_gate_reports_equal_closed_gate(self, tied_forward_three_chunks, dtype,
                                                 monkeypatch):
        split, fp = tied_forward_three_chunks
        fp = forward_from_readout(fp.readout.astype(dtype), split.n_users, split.n_items)
        closed = reports(fp, split)
        open_worker_gate(monkeypatch)
        assert reports(fp, split) == closed
        assert worker_started()

    @pytest.mark.parametrize("n_users, split_up", [
        (_CHUNK, False), (_CHUNK + 1, True), (2 * _CHUNK, True),
    ])
    def test_one_and_two_chunks(self, n_users, split_up, monkeypatch):
        split, fp = one_valid_item_per_user(n_users, 50, d=4)
        closed = full_rank_eval(fp, split, ns=(1, 10)).as_dict()
        open_worker_gate(monkeypatch)
        assert full_rank_eval(fp, split, ns=(1, 10)).as_dict() == closed
        assert closed["n_evaluated_users"] == n_users
        # one chunk is ranked whole on the calling thread
        assert worker_started() == split_up

    def test_workers_error_raised_after_the_callers_half(self, open_gate, monkeypatch):
        split, fp = one_valid_item_per_user(2 * _CHUNK, 50, d=4)
        rank, events = evaluator._rank, []

        def noted(*args):
            if args[-2] > 0:
                raise RuntimeError("worker's half failed")
            time.sleep(0.1)
            rank(*args)
            events.append("caller's half done")

        monkeypatch.setattr(evaluator, "_rank", noted)
        with pytest.raises(RuntimeError, match="worker's half failed"):
            full_rank_eval(fp, split)
        assert events == ["caller's half done"]

    @pytest.mark.parametrize("workers_half_fails", [False, True])
    def test_callers_error_joins_the_workers_half(self, open_gate, monkeypatch,
                                                  workers_half_fails):
        split, fp = one_valid_item_per_user(2 * _CHUNK, 50, d=4)
        rank, events = evaluator._rank, []
        caller_failed = threading.Event()

        def noted(*args):
            if args[-2] == 0:
                caller_failed.set()
                raise RuntimeError("caller's half failed")
            # still ranking after the calling thread's half failed
            assert caller_failed.wait(timeout=30)
            time.sleep(0.1)
            rank(*args)
            events.append(f"worker's half done on {threading.current_thread().name}")
            if workers_half_fails:
                raise RuntimeError("worker's half failed")

        monkeypatch.setattr(evaluator, "_rank", noted)
        with pytest.raises(RuntimeError, match="caller's half failed"):
            full_rank_eval(fp, split)
        assert len(events) == 1 and events[0].startswith("worker's half done on concf-step")


def fresh(split: DatasetSplit, **parts) -> DatasetSplit:
    """A new split of ``split``'s arrays, ``parts`` replaced, with no evaluation plan."""
    arrays = {name: getattr(split, name) for name in ("train", "valid", "test")}
    return DatasetSplit(n_users=split.n_users, n_items=split.n_items, **{**arrays, **parts})


def plan_reports(fp, split) -> list[dict]:
    """The valid report and the grouped test report."""
    return [
        full_rank_eval(fp, split, target="valid", ns=(1, 10)).as_dict(),
        sparsity_group_report(fp, split, n_groups=3, ns=(5, 20)).as_dict(),
    ]


class TestEvalPlan:
    """Each split keeps what ranking a target needs; a split made from it
    with ``dataclasses.replace`` builds its own."""

    @pytest.mark.parametrize("gate_open", [False, True])
    def test_repeated_evaluations_equal_the_first_and_a_fresh_split(
            self, tied_forward_three_chunks, gate_open, monkeypatch):
        split, fp = tied_forward_three_chunks
        expected = plan_reports(fp, fresh(split))
        if gate_open:
            open_worker_gate(monkeypatch)
        split = fresh(split)
        first = plan_reports(fp, split)
        assert plan_reports(fp, split) == plan_reports(fp, split) == first == expected
        assert worker_started() or not gate_open

    def test_plan_built_on_one_side_of_the_gate_serves_the_other(
            self, tied_forward_three_chunks, monkeypatch):
        split, fp = tied_forward_three_chunks
        split = fresh(split)
        closed = plan_reports(fp, split)
        open_worker_gate(monkeypatch)
        assert plan_reports(fp, split) == closed
        assert worker_started()

    @pytest.mark.parametrize("part", ["valid", "test"])
    def test_replaced_pairs_give_the_new_report(self, tied_forward_three_chunks, part):
        split, fp = tied_forward_three_chunks
        split = fresh(split)
        before = plan_reports(fp, split)
        # the other target's pairs: still disjoint from train
        other = split.test if part == "valid" else split.valid
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(split, part, other)
        assert plan_reports(fp, split) == before
        after = plan_reports(fp, dataclasses.replace(split, **{part: other}))
        assert after == plan_reports(fp, fresh(split, **{part: other}))
        assert after != before

    def test_one_pair_matrix_build_per_target(self, small_split, small_adj, monkeypatch):
        split = fresh(small_split)
        built, build = [], evaluator.pair_matrix

        def counted(pairs, *args):
            built.append(pairs)
            return build(pairs, *args)

        monkeypatch.setattr(evaluator, "pair_matrix", counted)
        fp = forward(small_adj, init_embeddings(split.n_users, split.n_items, 4, seed=0), 2)
        for _ in range(3):
            full_rank_eval(fp, split, target="valid")
            full_rank_eval(fp, split, target="test")
            sparsity_group_report(fp, split, n_groups=2)
        # the valid target's pairs; the test target's, and the valid mask at test
        assert [id(pairs) for pairs in built] == [id(split.valid), id(split.test), id(split.valid)]


@st.composite
def scores_and_n(draw):
    """float32 or float64 scores from a few values (many ties, NaN, +-inf,
    -0.0 and 0.0) and arbitrary floats, with up to 400 columns so that the
    rows fold, and an n from 1 to three past the row length."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n_rows, n_items = draw(st.integers(1, 6)), draw(st.integers(1, 400))
    values = st.sampled_from([np.nan, -np.inf, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf])
    values |= st.floats(-4.0, 4.0, width=32)
    scores = draw(hnp.arrays(dtype, (n_rows, n_items), elements=values))
    return scores, draw(st.integers(1, n_items + 3))


def special_rows(n_items, n, dtype, rng):
    """Rows the threshold selection must not trip on, beside ordinary ones."""
    fewer_finite = np.full(n_items, -np.inf)
    fewer_finite[rng.choice(n_items, n // 2, replace=False)] = rng.standard_normal(n // 2)
    tied_cut = np.zeros(n_items)
    tied_cut[rng.choice(n_items, n // 2, replace=False)] = 1.0  # 0.0 ties across the cut
    signed_zeros = np.where(rng.random(n_items) < 0.5, -0.0, 0.0)
    signed_zeros[rng.random(n_items) < 0.2] = -np.inf
    one_nan = rng.standard_normal(n_items)
    one_nan[n_items // 3] = np.nan
    rows = [
        np.full(n_items, np.nan),
        np.full(n_items, -np.inf),
        fewer_finite,
        tied_cut,
        signed_zeros,
        one_nan,
        rng.standard_normal(n_items),
        rng.integers(0, 3, n_items).astype(float),
    ]
    return np.stack(rows).astype(dtype)


class TestTopN:
    @settings(max_examples=300, deadline=None)
    @given(scores_and_n())
    def test_equals_stable_argsort_slice(self, case):
        scores, n = case
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :n]
        np.testing.assert_array_equal(_top_n(scores, n), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_items, n", [(400, 1), (400, 10), (397, 20), (301, 37), (64, 50)])
    def test_special_rows(self, dtype, n_items, n):
        scores = special_rows(n_items, n, dtype, np.random.default_rng(n))
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :n]
        np.testing.assert_array_equal(_top_n(scores, n), expected)

    @pytest.mark.parametrize("n", [1, 10, 49, 50])
    def test_large_rows_with_ties_and_masks(self, n):
        rng = np.random.default_rng(n)
        scores = rng.integers(0, 40, size=(64, 50)).astype(float)
        scores[rng.random(scores.shape) < 0.3] = -np.inf
        scores[::7] = rng.standard_normal((10, 50))
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :n]
        np.testing.assert_array_equal(_top_n(scores, n), expected)

    @pytest.mark.parametrize("n", [1, 10, 20])
    def test_float32_scores_with_planted_ties(self, n):
        # offsets below float32 resolution: distinct float64 scores that tie in float32
        rng = np.random.default_rng(n)
        scores = rng.standard_normal((64, 50)).round(1) + rng.uniform(0, 1e-9, (64, 50))
        scores = scores.astype(np.float32)
        scores[rng.random(scores.shape) < 0.1] = -np.inf
        top = np.sort(scores, axis=1)[:, ::-1][:, :n + 1]
        assert (top[:, :-1] == top[:, 1:]).any()  # ties at or above the cut
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :n]
        np.testing.assert_array_equal(_top_n(scores, n), expected)


def reference_partition_users_by_mass(degrees, n_groups):
    """The partition as one Python loop over the users, the reference for the
    prefix-sum search."""
    n_users = len(degrees)
    order = np.argsort(degrees, kind="stable")
    groups = []
    pos = 0
    remaining_mass = float(degrees.sum())
    for g in range(n_groups):
        remaining_groups = n_groups - g
        if g == n_groups - 1:
            groups.append(order[pos:])
            break
        quota = remaining_mass / remaining_groups
        mass = 0.0
        end = pos
        last_end = n_users - (remaining_groups - 1)
        while end < last_end:
            nxt = float(degrees[order[end]])
            if end > pos and mass + nxt >= quota:
                if (mass + nxt - quota) > (quota - mass):
                    break
                mass += nxt
                end += 1
                break
            mass += nxt
            end += 1
        groups.append(order[pos:end])
        remaining_mass -= mass
        pos = end
    return groups


@st.composite
def degrees_and_groups(draw):
    """Integer degrees with zeros and ties (narrow or wide range), and a group
    count from 1 to the number of users."""
    n_users = draw(st.integers(1, 60))
    high = draw(st.sampled_from([1, 3, 10, 1000]))
    degrees = draw(hnp.arrays(np.int64, n_users, elements=st.integers(0, high)))
    return degrees, draw(st.integers(1, n_users))


class TestSparsityGroups:
    def test_uniform_degrees_equal_groups(self):
        groups = partition_users_by_mass(np.full(10, 3), 5)
        assert [len(g) for g in groups] == [2, 2, 2, 2, 2]

    def test_hand_derived_partition(self):
        degrees = np.array([1, 1, 1, 1, 4])
        groups = partition_users_by_mass(degrees, 2)
        assert sorted(groups[0].tolist()) == [0, 1, 2, 3]
        assert groups[1].tolist() == [4]

    def test_single_group_equals_full_eval(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 8, seed=8)
        fp = forward(small_adj, table, 2)
        [single] = sparsity_group_report(fp, small_split, n_groups=1, ns=(10,)).groups
        full = full_rank_eval(fp, small_split, target="test", ns=(10,))
        assert single.metrics == full.metrics
        assert single.n_evaluated_users == full.n_evaluated_users

    def test_groups_equal_per_user_loop_exactly(self, tied_forward):
        split, fp = tied_forward
        groups = sparsity_group_report(fp, split, n_groups=5, ns=(10, 20)).groups
        members = partition_users_by_mass(split.train_degrees(), 5)
        for gi, (report, users) in enumerate(zip(groups, members)):
            metrics, n_eval = reference_full_rank_eval(
                fp, split, target="test", ns=(10, 20), subset=users
            )
            assert report.n_evaluated_users == n_eval
            assert report.metrics == metrics
            assert report.metadata == {
                "target": "test",
                "user_cap": None,
                "group_index": gi,
                "group_size": len(users),
                "group_interaction_mass": int(split.train_degrees()[users].sum()),
            }

    def test_weighted_mean_reconciles(self, small_split, small_adj):
        table = init_embeddings(small_split.n_users, small_split.n_items, 8, seed=9)
        fp = forward(small_adj, table, 2)
        groups = sparsity_group_report(fp, small_split, n_groups=5, ns=(10,)).groups
        full = full_rank_eval(fp, small_split, target="test", ns=(10,))
        weighted = sum(g.metrics["recall@10"] * g.n_evaluated_users for g in groups)
        weighted /= sum(g.n_evaluated_users for g in groups)
        assert abs(weighted - full.metrics["recall@10"]) < 1e-12

    def test_overall_report_equals_full_rank_eval(self, tied_forward):
        split, fp = tied_forward
        kwargs = dict(target="test", ns=(20, 10, 50))
        report = sparsity_group_report(fp, split, n_groups=5, **kwargs)
        full = full_rank_eval(fp, split, **kwargs)
        assert report.metrics == full.metrics
        assert report.n_evaluated_users == full.n_evaluated_users
        assert report.metadata == full.metadata
        assert full.groups is None and len(report.groups) == 5

    def test_mass_spread_bounded_by_max_degree(self, small_split, small_adj):
        degrees = small_split.train_degrees()
        groups = partition_users_by_mass(degrees, 5)
        masses = np.array([degrees[g].sum() for g in groups])
        assert masses.max() - masses.min() <= degrees.max()

    @settings(max_examples=500, deadline=None)
    @given(degrees_and_groups())
    def test_equals_per_user_loop(self, case):
        degrees, n_groups = case
        got = partition_users_by_mass(degrees, n_groups)
        want = reference_partition_users_by_mass(degrees, n_groups)
        assert len(got) == len(want) == n_groups
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(degrees_and_groups())
    def test_groups_nonempty_and_contiguous_in_degree_order(self, case):
        degrees, n_groups = case
        groups = partition_users_by_mass(degrees, n_groups)
        assert all(len(g) > 0 for g in groups)
        # every user exactly once, in the stable ascending-degree order
        np.testing.assert_array_equal(
            np.concatenate(groups), np.argsort(degrees, kind="stable")
        )

    def test_more_groups_than_users_rejected(self):
        with pytest.raises(ValueError, match="fewer users"):
            partition_users_by_mass(np.array([1, 2]), 3)
