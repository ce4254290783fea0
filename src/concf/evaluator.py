"""Full-ranking top-N evaluation (Recall@N, NDCG@N) and sparsity-group reports."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import DatasetSplit, group_by_user
from .model import ForwardPass

_CHUNK = 512


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


def recall_at_n(ranked: list[int], relevant: set[int], n: int) -> float:
    """|top-n of ranked that are relevant| / |relevant|."""
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    hits = sum(1 for item in ranked[:n] if item in relevant)
    return hits / len(relevant)


def ndcg_at_n(ranked: list[int], relevant: set[int], n: int) -> float:
    """Binary-relevance NDCG with 1/log2(position + 1) gains, positions 1-based."""
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    dcg = 0.0
    for pos, item in enumerate(ranked[:n], start=1):
        if item in relevant:
            dcg += 1.0 / np.log2(pos + 1)
    ideal_hits = min(n, len(relevant))
    idcg = sum(1.0 / np.log2(p + 1) for p in range(1, ideal_hits + 1))
    return dcg / idcg


def _select_cap(users: np.ndarray, cap: int | None) -> np.ndarray:
    """Deterministic evenly-spaced subsample of the eligible user list."""
    if cap is None or cap >= len(users):
        return users
    idx = np.unique(np.linspace(0, len(users) - 1, cap).round().astype(np.int64))
    return users[idx]


def full_rank_eval(
    fp: ForwardPass,
    split: DatasetSplit,
    target: str = "valid",
    ns: tuple[int, ...] = (10, 20, 50),
    user_subset: np.ndarray | None = None,
    user_cap: int | None = None,
    mask_validation: bool = True,
) -> EvalReport:
    """Rank all non-masked items per user and average Recall@N / NDCG@N.

    Train items are always masked from candidacy; when ``target`` is "test"
    and ``mask_validation`` is set, validation items are masked too. Ties are
    broken by ascending item id. Users with no target interactions are
    excluded from the means.
    """
    if target not in ("valid", "test"):
        raise ValueError(f"target must be 'valid' or 'test', got {target!r}")
    target_pairs = split.valid if target == "valid" else split.test
    if len(target_pairs) == 0:
        raise ValueError(f"{target} split is empty")
    targets = group_by_user(target_pairs[:, 0], target_pairs[:, 1], split.n_users)
    valid_targets = (
        group_by_user(split.valid[:, 0], split.valid[:, 1], split.n_users)
        if (target == "test" and mask_validation)
        else None
    )

    eligible = np.flatnonzero(np.bincount(target_pairs[:, 0], minlength=split.n_users))
    if user_subset is not None:
        subset = np.asarray(user_subset, dtype=np.int64)
        eligible = eligible[np.isin(eligible, subset)]
    eligible = _select_cap(eligible, user_cap)

    ns = tuple(sorted(ns))
    max_n = min(ns[-1], split.n_items)
    gains = 1.0 / np.log2(np.arange(2, max_n + 2))
    idcg_prefix = np.concatenate([[0.0], np.cumsum(gains)])

    recall_sums = {n: 0.0 for n in ns}
    ndcg_sums = {n: 0.0 for n in ns}
    item_readout = fp.item_readout
    for start in range(0, len(eligible), _CHUNK):
        chunk = eligible[start:start + _CHUNK]
        scores = fp.readout[chunk] @ item_readout.T
        for row, u in enumerate(chunk):
            u = int(u)
            scores[row, split.train_items_by_user[u]] = -np.inf
            if valid_targets is not None and len(valid_targets[u]):
                scores[row, valid_targets[u]] = -np.inf
        # stable sort on negated scores: ties resolve to ascending item id
        order = np.argsort(-scores, axis=1, kind="stable")[:, :max_n]
        for row, u in enumerate(chunk):
            u = int(u)
            rel = np.zeros(split.n_items, dtype=bool)
            rel[targets[u]] = True
            hits = rel[order[row]]
            n_rel = len(targets[u])
            hit_gains = hits * gains
            for n in ns:
                recall_sums[n] += hits[:n].sum() / n_rel
                ndcg_sums[n] += hit_gains[:n].sum() / idcg_prefix[min(n, n_rel)]

    n_eval = len(eligible)
    metrics: dict[str, float] = {}
    for n in ns:
        metrics[f"recall@{n}"] = float(recall_sums[n] / n_eval) if n_eval else 0.0
        metrics[f"ndcg@{n}"] = float(ndcg_sums[n] / n_eval) if n_eval else 0.0
    return EvalReport(
        metrics=metrics,
        n_evaluated_users=n_eval,
        metadata={
            "target": target,
            "mask_validation_at_test": bool(target == "test" and mask_validation),
            "user_cap": user_cap,
        },
    )


def partition_users_by_mass(degrees: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Split users (sorted by ascending degree) into contiguous groups of
    near-equal total interaction mass.

    Greedy rule: each group's quota is the remaining mass divided by the
    remaining group count; users are added until crossing the quota, taking
    the boundary user only when that lands closer to the quota than stopping
    short. At least one user is left for every unfilled group.
    """
    n_users = len(degrees)
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    if n_users < n_groups:
        raise ValueError(f"fewer users ({n_users}) than groups ({n_groups})")
    order = np.argsort(degrees, kind="stable")
    groups: list[np.ndarray] = []
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
                # take the boundary user only if that is the closer landing
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


def sparsity_group_report(
    fp: ForwardPass,
    split: DatasetSplit,
    n_groups: int = 5,
    ns: tuple[int, ...] = (10, 20, 50),
    target: str = "test",
    mask_validation: bool = True,
) -> list[EvalReport]:
    """Per-group full-ranking reports over equal-interaction-mass user groups."""
    degrees = split.train_degrees()
    groups = partition_users_by_mass(degrees, n_groups)
    reports = []
    for gi, users in enumerate(groups):
        report = full_rank_eval(
            fp, split, target=target, ns=ns, user_subset=users, mask_validation=mask_validation
        )
        report.metadata.update(
            group_index=gi,
            group_size=int(len(users)),
            group_interaction_mass=int(degrees[users].sum()),
        )
        reports.append(report)
    return reports
