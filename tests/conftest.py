"""Shared fixtures: small deterministic datasets and graphs."""

import os
from pathlib import Path

# concf pins BLAS to one thread when it is imported before NumPy, as every
# concf command imports it; the tests' own products then run as the
# commands' do (a float64 product's last bits depend on the thread count)
from concf import RawInteractions, build_normalized_adjacency, build_split

import numpy as np
import pytest

# pyproject's pytest `pythonpath` reaches only this process; the tests that run
# `python -m concf` in a child process find the package through PYTHONPATH
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


def from_keys(users, items) -> RawInteractions:
    """The records of two key columns: each column coded by sorted key order,
    each repeated (user, item) pair dropped after its first occurrence."""
    tables, codes = [], []
    for keys in (users, items):
        table = sorted(set(keys))
        index = {k: n for n, k in enumerate(table)}
        tables.append(np.array(table, dtype=object))
        codes.append(np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys)))
    return RawInteractions._first_occurrences(*tables, *codes)


def make_raw(n_users: int, n_items: int, n_pairs: int, seed: int = 0) -> RawInteractions:
    """Random distinct (user, item) pairs with zero-padded string keys."""
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < n_pairs:
        pairs.add((int(rng.integers(n_users)), int(rng.integers(n_items))))
    pairs = sorted(pairs)
    return from_keys(
        [f"u{u:04d}" for u, _ in pairs], [f"i{i:04d}" for _, i in pairs]
    )


def random_split(n_users: int, n_items: int, n_pairs: int, seed: int = 0):
    return build_split(make_raw(n_users, n_items, n_pairs, seed), seed=seed)


def fail_mid_write(monkeypatch, name: str, keep: int | None = None) -> None:
    """Make ``framed.write_replacing`` fail partway through writing ``name``:
    the temporary file gets the first ``keep`` bytes of the data (default
    half), then the write raises."""
    from concf import framed

    def half_then_fail(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).name.startswith(f".{name}."):
            write = fh.write

            def failing(data):
                write(data[: len(data) // 2 if keep is None else keep])
                raise OSError("No space left on device")

            fh.write = failing
        return fh

    monkeypatch.setattr(framed, "open", half_then_fail, raising=False)


def open_worker_gate(monkeypatch) -> None:
    """Let every step, propagation product and ranking hand work to the worker
    thread, whatever its size and the number of usable CPUs; the test starts
    a new worker."""
    from concf import overlap

    monkeypatch.setattr(overlap, "OVERLAP_MIN_WORK", 0)
    monkeypatch.setattr(overlap, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(overlap, "_WORKERS", {})


@pytest.fixture
def open_gate(monkeypatch):
    open_worker_gate(monkeypatch)


def worker_started() -> bool:
    """Whether a step of this process has started its worker since the gate opened."""
    from concf import overlap

    return os.getpid() in overlap._WORKERS


@pytest.fixture(scope="session")
def small_split():
    """30 users x 40 items, ~900 interactions; every user in every split."""
    return random_split(30, 40, 900, seed=7)


@pytest.fixture(scope="session")
def small_adj(small_split):
    return build_normalized_adjacency(small_split)


def planted_communities(
    n_users: int = 200,
    n_items: int = 300,
    n_comm: int = 8,
    target_interactions: int = 6000,
    in_out_ratio: float = 10.0,
    seed: int = 0,
) -> RawInteractions:
    """Block-structured bipartite data: within-community edges are
    ``in_out_ratio`` times as likely as cross-community ones."""
    rng = np.random.default_rng(seed)
    u_comm = np.arange(n_users) % n_comm
    i_comm = np.arange(n_items) % n_comm
    same = u_comm[:, None] == i_comm[None, :]
    n_in_per_user = same.sum(axis=1)
    n_out_per_user = n_items - n_in_per_user
    # solve: n_users * (n_in * p_in + n_out * p_out) = target, p_in = ratio * p_out
    denom = float((in_out_ratio * n_in_per_user + n_out_per_user).sum())
    p_out = target_interactions / denom
    p_in = in_out_ratio * p_out
    probs = np.where(same, p_in, p_out)
    mask = rng.random((n_users, n_items)) < probs
    # every user needs a handful of interactions to populate all splits
    for u in range(n_users):
        while mask[u].sum() < 5:
            own = np.flatnonzero(same[u])
            mask[u, own[rng.integers(len(own))]] = True
    us, its = np.nonzero(mask)
    return from_keys([f"u{u:04d}" for u in us], [f"i{i:04d}" for i in its])


def key_pairs(raw: RawInteractions) -> list[tuple[str, str]]:
    """Each record's (user key, item key), in record order."""
    return list(zip(raw.user_keys[raw.users], raw.item_keys[raw.items]))
