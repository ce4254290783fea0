"""Full-ranking top-N evaluation (Recall@N, NDCG@N) and sparsity-group reports.

Users are ranked in chunks of ``_CHUNK``, each scored against every item.
When there are at least two chunks and the ranking's users * items * d
multiply-adds open ``overlap``'s gate, the worker thread that ``overlap``
owns ranks the second half of the chunks while the calling thread ranks the
first: two chunks' scores are then alive at once. Every chunk writes its own
users' rows of one array, so the reports are the same bytes either way.

A split never changes, so it caches a ``_Plan`` per ``(target, user_cap)``
in its ``eval_plans``: what ranking needs besides the scores. A chunk's mask
indices are built on its first ranking, on the thread that ranks it. A plan
holds 8 bytes per masked pair, target pair and evaluated user, plus the valid
pairs' mask at test: 5.8 and 6.8 MB at the ML-1M shape's valid and test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from . import overlap
from .dataset import DatasetSplit, pair_matrix
from .model import ForwardPass

# users ranked per chunk. When the ranking is split, two chunks' scores are
# alive at once; at 256 they take what one chunk of 512 took, and on the
# ML-1M shape the split ranking was as fast as with chunks of 512.
_CHUNK = 256


@dataclass
class EvalReport:
    """Per-metric means over evaluated users, e.g. {"recall@10": ..., "ndcg@10": ...}."""

    metrics: dict[str, float]
    n_evaluated_users: int
    metadata: dict = field(default_factory=dict)
    groups: "list[EvalReport] | None" = None

    def as_dict(self) -> dict:
        out: dict = {**self.metrics, "n_evaluated_users": self.n_evaluated_users}
        if self.metadata:
            out["metadata"] = self.metadata
        if self.groups is not None:
            out["groups"] = [g.as_dict() for g in self.groups]
        return out


def _select_cap(users: np.ndarray, cap: int | None) -> np.ndarray:
    """Deterministic evenly-spaced subsample of the eligible user list."""
    if cap is None or cap >= len(users):
        return users
    idx = np.unique(np.linspace(0, len(users) - 1, cap).round().astype(np.int64))
    return users[idx]


def _nth_largest_bound(scores: np.ndarray, n: int) -> np.ndarray:
    """Per row, a lower bound on its n-th largest number (``0 < n < width``),
    or NaN.

    Each row's columns are folded pairwise by ``np.maximum`` until 4n to 8n
    maxima of disjoint column groups remain, and their n-th largest is the
    bound: n group maxima are n distinct entries. An odd width's last column
    joins no group, which can only lower the bound. ``np.maximum`` carries a
    NaN into its group's maximum; the bound of a row with a NaN maximum is NaN.
    """
    groups, w = scores, scores.shape[1]
    while w >= 8 * n:
        w //= 2
        groups = np.maximum(groups[:, :w], groups[:, w:2 * w],
                            out=None if groups is scores else groups[:, :w])
    bound = np.partition(groups, w - n, axis=1)[:, w - n]
    bound[np.isnan(groups).any(axis=1)] = np.nan
    return bound


def _top_n(scores: np.ndarray, n: int) -> np.ndarray:
    """Column ids of each row's n highest scores, best first: exactly
    ``np.argsort(-scores, axis=1, kind="stable")[:, :n]``, so a tie goes to the
    lower id and NaN ranks after every number, -inf included.

    A row's candidates are its entries at or above ``_nth_largest_bound``:
    at least n numbers, which hold its top n, as NaN ranks last. A stable sort
    of their negated scores, padded per row, orders them. A row whose bound is
    NaN gets the stable sort of the whole row.
    """
    n_rows, width = scores.shape
    if not 0 < n < width:
        return np.argsort(-scores, axis=1, kind="stable")[:, :n]
    bound = _nth_largest_bound(scores, n)
    flat = np.flatnonzero(scores >= bound[:, None])  # none where the bound is NaN
    rows, cols = np.divmod(flat, width)
    counts = np.bincount(rows, minlength=n_rows)
    slot = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts, counts)
    # candidates left-aligned per row, NaN-padded so padding sorts last
    size = (n_rows, max(int(counts.max(initial=0)), n))
    neg = np.full(size, np.nan, dtype=scores.dtype)
    neg[rows, slot] = -scores.ravel()[flat]
    ids = np.zeros(size, dtype=np.int64)
    ids[rows, slot] = cols
    ids = np.take_along_axis(ids, np.argsort(neg, axis=1, kind="stable")[:, :n], axis=1)
    redo = np.isnan(bound)
    if redo.any():
        ids[redo] = np.argsort(-scores[redo], axis=1, kind="stable")[:, :n]
    return ids


def _chunk_entries(matrix, rows: np.ndarray) -> np.ndarray:
    """Flat indices into a ``(len(rows), matrix.shape[1])`` array of the CSR
    ``matrix``'s entries in ``rows``."""
    starts, counts = matrix.indptr[rows], np.diff(matrix.indptr)[rows]
    offsets = np.cumsum(counts) - counts
    pos = np.arange(counts.sum()) + np.repeat(starts - offsets, counts)
    return np.repeat(np.arange(len(rows)) * matrix.shape[1], counts) + matrix.indices[pos]


@dataclass(eq=False)
class _Plan:
    """What ranking a split's target needs besides the scores."""

    users: np.ndarray
    n_rel: np.ndarray
    # the target pairs as ascending keys user * n_items + item, then one key
    # past them all, where the search for a larger key ends
    target_keys: np.ndarray
    masked: list[csr_matrix]
    # per chunk of ``users``: each masked matrix's flat indices in the chunk's
    # scores, or None until the chunk is ranked
    entries: list


def _plan(split: DatasetSplit, target: str, user_cap: int | None) -> _Plan:
    """``split``'s plan for ranking ``target`` thinned by ``user_cap``, built once."""
    key = (target, user_cap)
    if key not in split.eval_plans:
        pairs = (split.test, split.valid) if target == "test" else (split.valid,)
        relevant, *masked = (pair_matrix(p, split.n_users, split.n_items) for p in pairs)
        n_rel = np.diff(relevant.indptr)
        target_keys = np.append(
            np.repeat(np.arange(split.n_users), n_rel) * split.n_items + relevant.indices,
            split.n_users * split.n_items,
        )
        users = _select_cap(np.flatnonzero(n_rel), user_cap)
        chunks = [None] * -(-len(users) // _CHUNK)
        split.eval_plans[key] = _Plan(users, n_rel[users], target_keys,
                                      [split.train_matrix, *masked], chunks)
    return split.eval_plans[key]


def _rank(fp: ForwardPass, plan: _Plan, n_items: int, hits: np.ndarray, begin: int,
          end: int) -> None:
    """Fill ``hits[begin:end]``: whether each of the top ``hits.shape[1]``
    items of ``plan.users[begin:end]``, masked ones aside, is among the
    target pairs, ranking ``_CHUNK`` users at a time (``begin`` and ``end``
    fall on chunk bounds). Each chunk's mask indices are built on its first
    ranking."""
    for start in range(begin, end, _CHUNK):
        rows = plan.users[start:min(start + _CHUNK, end)]
        scores = fp.readout[rows] @ fp.item_readout.T
        chunk = start // _CHUNK
        if plan.entries[chunk] is None:
            plan.entries[chunk] = [_chunk_entries(matrix, rows) for matrix in plan.masked]
        for entries in plan.entries[chunk]:
            np.put(scores, entries, -np.inf)
        keys = _top_n(scores, hits.shape[1])
        del scores  # before the next chunk's scores are made
        keys += (rows * n_items)[:, None]
        target_keys = plan.target_keys
        hits[start:start + len(rows)] = target_keys[np.searchsorted(target_keys, keys)] == keys


def _user_metrics(
    fp: ForwardPass,
    split: DatasetSplit,
    target: str,
    ns: tuple[int, ...],
    user_cap: int | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray], dict]:
    """Ascending ids of the users with a ``target`` interaction (thinned by
    ``user_cap``), each one's Recall@N / NDCG@N keyed like ``EvalReport``,
    and the report metadata."""
    if target not in ("valid", "test"):
        raise ValueError(f"target must be 'valid' or 'test', got {target!r}")
    if not ns or min(ns) < 1:
        raise ValueError("ns: every cutoff must be >= 1")
    split.require(target)
    plan = _plan(split, target, user_cap)
    users, n_rel = plan.users, plan.n_rel

    ns = tuple(sorted(set(ns)))
    max_n = min(ns[-1], split.n_items)
    gains = 1.0 / np.log2(np.arange(2, max_n + 2))
    idcg_prefix = np.concatenate([[0.0], np.cumsum(gains)])
    hits = np.empty((len(users), max_n), dtype=bool)
    ranked = (fp, plan, split.n_items, hits)
    # the calling thread's half: the first half of the chunks, rounded down;
    # the other half runs on the worker, or after it here, in the same chunks
    mid = -(-len(users) // _CHUNK) // 2 * _CHUNK
    work = len(users) * split.n_items * fp.readout.shape[1]
    overlap.in_halves(overlap.start_for(work) if mid else None, _rank,
                      (*ranked, 0, mid) if mid else None, (*ranked, mid, len(users)))
    values = {}
    for n in ns:
        top = hits[:, :n]
        values[f"recall@{n}"] = top.sum(axis=1) / n_rel
        values[f"ndcg@{n}"] = (top * gains[:n]).sum(axis=1) / idcg_prefix[np.minimum(n, n_rel)]
    metadata = {"target": target, "user_cap": user_cap}
    return users, values, metadata


def _report(values: dict[str, np.ndarray], keep: np.ndarray, metadata: dict) -> EvalReport:
    """Per-metric means over the users ``keep`` selects, added one user at a
    time in ascending id order (``np.mean`` adds pairwise: other last bits)."""
    n_eval = int(keep.sum())
    metrics = {
        name: float(np.cumsum(v[keep])[-1] / n_eval) if n_eval else 0.0
        for name, v in values.items()
    }
    return EvalReport(metrics=metrics, n_evaluated_users=n_eval, metadata=metadata)


def full_rank_eval(
    fp: ForwardPass,
    split: DatasetSplit,
    target: str = "valid",
    ns: tuple[int, ...] = (10, 20, 50),
    user_cap: int | None = None,
) -> EvalReport:
    """Rank all non-masked items per user and average Recall@N / NDCG@N.

    Train items are always masked from candidacy (they score -inf); when
    ``target`` is "test", validation items are masked too. Ties are broken
    by ascending item id, and NaN ranks last. Ranking selects each user's top
    ``max(ns)`` items by a score threshold (``_top_n``) and orders only
    those, with the same result as a stable sort of all items. Users with no
    target interactions are excluded from the means. A large enough ranking
    runs half on the worker thread (see the module docstring), with the same
    report.
    """
    users, values, metadata = _user_metrics(fp, split, target, ns, user_cap)
    return _report(values, np.ones(len(users), dtype=bool), metadata)


def partition_users_by_mass(degrees: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Split users (sorted by ascending degree) into contiguous groups of
    near-equal total interaction mass.

    Greedy rule: each group's quota is the remaining mass divided by the
    remaining group count; users are added until crossing the quota, taking
    the boundary user only when that lands closer to the quota than stopping
    short. At least one user is left for every unfilled group. Degrees are
    integer interaction counts.
    """
    n_users = len(degrees)
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    if n_users < n_groups:
        raise ValueError(f"fewer users ({n_users}) than groups ({n_groups})")
    order = np.argsort(degrees, kind="stable")
    cum = np.concatenate([[0], np.cumsum(degrees[order], dtype=np.int64)])
    bounds = [0]
    for g in range(n_groups - 1):
        pos = bounds[-1]
        remaining_groups = n_groups - g
        quota = float(cum[-1] - cum[pos]) / remaining_groups
        last_end = n_users - (remaining_groups - 1)
        # the first end past the group's first user whose (integer) mass
        # reaches the quota
        end = max(int(np.searchsorted(cum, cum[pos] + math.ceil(quota))), pos + 2)
        if end > last_end:
            end = last_end
        elif float(cum[end] - cum[pos]) - quota > quota - float(cum[end - 1] - cum[pos]):
            end -= 1  # stopping short of the boundary user is the closer landing
        bounds.append(end)
    bounds.append(n_users)
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def sparsity_group_report(
    fp: ForwardPass,
    split: DatasetSplit,
    n_groups: int = 5,
    ns: tuple[int, ...] = (10, 20, 50),
    target: str = "test",
) -> EvalReport:
    """``full_rank_eval``'s report with ``groups``: one report per
    equal-interaction-mass user group.

    One ranking pass scores every user. The overall means equal
    ``full_rank_eval``'s on the same arguments; each group's means are taken
    over its members' values from the same pass.
    """
    degrees = split.train_degrees()
    groups = partition_users_by_mass(degrees, n_groups)
    users, values, metadata = _user_metrics(fp, split, target, ns)
    report = _report(values, np.ones(len(users), dtype=bool), metadata)
    report.groups = []
    for gi, members in enumerate(groups):
        mass = int(degrees[members].sum())
        group = {"group_index": gi, "group_size": len(members), "group_interaction_mass": mass}
        report.groups.append(_report(values, np.isin(users, members), {**metadata, **group}))
    return report
