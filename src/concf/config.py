"""Training configuration, validation, and flat key=value config files."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, get_type_hints


@dataclass
class TrainConfig:
    """Hyperparameters for the joint ranking + contrastive objective.

    Loss scaling: the ranking loss and the regularizer are per-batch means,
    the two contrastive terms keep their summed form, so their weights stay
    calibrated against a fixed batch size (recorded in run manifests as
    ``loss_scaling``).
    """

    d: int = 64
    n_layers: int = 3
    k_layer: int = 2          # structure-contrast layer; must be even, <= n_layers
    tau: float = 0.1
    alpha: float = 1.0
    lambda1: float = 1e-7     # structure-contrastive weight
    lambda2: float = 1e-7     # prototype-contrastive weight
    lambda3: float = 1e-4     # L2 regularization weight
    k_users: tuple[int, ...] = (1000,)
    k_items: tuple[int, ...] = (1000,)
    batch_size: int = 4096
    lr: float = 1e-3
    max_epochs: int = 200
    patience: int = 10
    seed: int = 42
    valid_user_cap: int | None = None
    kmeans_max_iters: int = 100
    kmeans_tol: float = 1e-6
    cluster_source: str = "base"   # "base" clusters the embedding table, "readout" the averaged layers
    dtype: str = "float32"   # "float64" for bit-exact comparisons and gradient oracles

    def validate(self) -> None:
        """Raise ValueError naming the first offending field."""
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite")
        for name in ("d", "n_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1")
        if self.k_layer % 2 != 0 or self.k_layer < 2:
            raise ValueError("k_layer: must be a positive even number")
        if self.k_layer > self.n_layers:
            raise ValueError("k_layer: must be <= n_layers")
        if self.tau <= 0:
            raise ValueError("tau: must be > 0")
        if self.alpha < 0:
            raise ValueError("alpha: must be >= 0")
        for name in ("lambda1", "lambda2", "lambda3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size: must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr: must be > 0")
        for name in ("max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1")
        if self.seed < 0:
            raise ValueError("seed: must be >= 0")
        for name in ("k_users", "k_items"):
            if not getattr(self, name) or min(getattr(self, name)) < 1:
                raise ValueError(f"{name}: every cluster count must be >= 1")
        if self.valid_user_cap is not None and self.valid_user_cap < 1:
            raise ValueError("valid_user_cap: must be >= 1 or unset")
        if self.kmeans_max_iters < 1:
            raise ValueError("kmeans_max_iters: must be >= 1")
        if self.kmeans_tol < 0:
            raise ValueError("kmeans_tol: must be >= 0")
        if self.cluster_source not in ("base", "readout"):
            raise ValueError("cluster_source: must be 'base' or 'readout'")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype: must be 'float64' or 'float32'")

    def validate_for_split(self, n_users: int, n_items: int) -> None:
        """Raise ValueError naming a cluster count above the split's node count.

        K-means needs at least k points, so this only applies while the
        prototype term is on.
        """
        if self.lambda2 == 0:
            return
        for name, n_nodes, kind in (("k_users", n_users, "users"), ("k_items", n_items, "items")):
            for k in getattr(self, name):
                if k > n_nodes:
                    raise ValueError(f"{name}: {k} clusters but the split has {n_nodes} {kind}")

    @property
    def backbone_tag(self) -> str:
        """Ablation label: plain ranking backbone when both contrastive weights are zero."""
        return "lightgcn-bpr" if self.lambda1 == 0 and self.lambda2 == 0 else "contrastive"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, values: dict[str, Any]) -> "TrainConfig":
        """Build a config from raw values: config-file strings or typed values."""
        return cls(**{key: _coerce(key, raw) for key, raw in values.items()})


def _int_tuple(raw: Any) -> tuple[int, ...]:
    if isinstance(raw, str):
        raw = raw.replace(",", " ").split()
    return tuple(int(v) for v in raw)


def _optional_int(raw: Any) -> int | None:
    if raw is None or (isinstance(raw, str) and raw.lower() in ("none", "")):
        return None
    return int(raw)


# one parser per annotation; a field of any other type fails at import
_PARSERS = {
    int: int, float: float, str: str, tuple[int, ...]: _int_tuple, int | None: _optional_int
}
_FIELD_PARSERS = {name: _PARSERS[hint] for name, hint in get_type_hints(TrainConfig).items()}
_FLOAT_FIELDS = tuple(name for name, parse in _FIELD_PARSERS.items() if parse is float)


def _coerce(key: str, raw: Any) -> Any:
    """Parse a raw value (possibly a string) with the parser of field ``key``'s type."""
    if key not in _FIELD_PARSERS:
        raise ValueError(f"{key}: unknown config field")
    try:
        return _FIELD_PARSERS[key](raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` file, each key set once; '#' starts a comment."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    values: dict[str, str] = {}
    for ln, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {ln}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"{path}: line {ln}: empty key")
        if key in values:
            raise ValueError(f"{path}: line {ln}: repeated key {key!r}")
        values[key] = value
    return values
