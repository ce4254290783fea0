"""Deterministic, download-free inputs for the benchmark workloads.

Every generator is a pure function of its seed. The program under test only
ever sees what these functions write: an interaction TSV, which the benchmark
feeds to ``concf prepare``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class InputShape:
    """What was generated, recorded next to every result."""

    users: int
    items: int
    interactions: int
    top1pct_item_share: float
    max_item_count: int
    user_activity_p50: float
    user_activity_p90: float
    user_activity_max: int
    sha256: str

    def as_dict(self) -> dict:
        return asdict(self)


def _write_tsv(path: Path, users: np.ndarray, items: np.ndarray) -> InputShape:
    text = "".join(f"u{u:05d}\ti{i:05d}\n" for u, i in zip(users.tolist(), items.tolist()))
    data = text.encode("utf-8")
    path.write_bytes(data)
    counts = np.bincount(items)
    top = np.sort(counts)[::-1][: max(1, len(counts) // 100)]
    activity = np.bincount(users)
    activity = activity[activity > 0]
    return InputShape(
        users=len(activity),
        items=int((counts > 0).sum()),
        interactions=len(users),
        top1pct_item_share=float(top.sum() / len(items)),
        max_item_count=int(counts.max()),
        user_activity_p50=float(np.median(activity)),
        user_activity_p90=float(np.quantile(activity, 0.9)),
        user_activity_max=int(activity.max()),
        sha256=hashlib.sha256(data).hexdigest(),
    )


def ml1m_like(
    path: Path,
    seed: int,
    n_users: int = 6040,
    n_items: int = 3629,
    n_interactions: int = 800_000,
    min_user: int = 20,
    min_item: int = 10,
) -> InputShape:
    """MovieLens-1M-sized implicit feedback.

    The counts are ROADMAP's ML-1M shape, and the floor of ``min_user``
    interactions per user is ML-1M's (it keeps users with at least 20
    ratings). The distribution's shape is an assumption, not fitted to
    ML-1M: user activity above the floor is log-normal with sigma 1, capped
    at half the catalogue, and item popularity is proportional to
    1/(rank + 10) over a seed-dependent ranking. Each user draws its items
    without replacement in proportion to popularity (Gumbel top-k), and
    items left below ``min_item`` interactions are topped up, so a
    ``min_item``-core filter keeps every row.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x4D4C,)))
    excess = rng.lognormal(mean=0.0, sigma=1.0, size=n_users)
    spare = n_interactions - min_user * n_users
    activity = min_user + np.floor(excess / excess.sum() * spare).astype(np.int64)
    activity = np.minimum(activity, n_items // 2)

    rank = rng.permutation(n_items)
    log_pop = -1.0 * np.log(rank + 10.0)

    users_out: list[np.ndarray] = []
    items_out: list[np.ndarray] = []
    positions = np.arange(n_items)
    for start in range(0, n_users, 512):
        block = np.arange(start, min(start + 512, n_users))
        keys = log_pop + rng.gumbel(size=(len(block), n_items))
        order = np.argsort(-keys, axis=1)
        take = positions[None, :] < activity[block][:, None]
        users_out.append(np.repeat(block, activity[block]))
        items_out.append(order[take])
    users = np.concatenate(users_out)
    items = np.concatenate(items_out)

    counts = np.bincount(items, minlength=n_items)
    extra_u: list[int] = []
    extra_i: list[int] = []
    for item in np.flatnonzero(counts < min_item):
        have = set(users[items == item].tolist())
        donors = [u for u in rng.permutation(n_users).tolist() if u not in have]
        take = donors[: min_item - counts[item]]
        extra_u += take
        extra_i += [int(item)] * len(take)
    if extra_u:
        users = np.concatenate([users, np.array(extra_u, dtype=np.int64)])
        items = np.concatenate([items, np.array(extra_i, dtype=np.int64)])
    return _write_tsv(path, users, items)


def planted_communities(
    path: Path,
    seed: int,
    n_users: int = 200,
    n_items: int = 300,
    n_comm: int = 8,
    target_interactions: int = 6000,
    in_out_ratio: float = 10.0,
) -> InputShape:
    """Block-structured bipartite data of acceptance criterion 7.

    Within-community edges are ``in_out_ratio`` times as likely as
    cross-community ones, and every user gets at least five interactions.
    Rows are written in the order the acceptance suite builds them, so
    ``concf prepare --seed s`` on seed ``s`` reproduces that suite's split.
    """
    rng = np.random.default_rng(seed)
    u_comm = np.arange(n_users) % n_comm
    i_comm = np.arange(n_items) % n_comm
    same = u_comm[:, None] == i_comm[None, :]
    n_in = same.sum(axis=1)
    denom = float((in_out_ratio * n_in + (n_items - n_in)).sum())
    p_out = target_interactions / denom
    probs = np.where(same, in_out_ratio * p_out, p_out)
    mask = rng.random((n_users, n_items)) < probs
    for u in range(n_users):
        while mask[u].sum() < 5:
            own = np.flatnonzero(same[u])
            mask[u, own[rng.integers(len(own))]] = True
    users, items = np.nonzero(mask)
    return _write_tsv(path, users, items)
