"""The benchmark reaches into concf by name: what it names must exist.

``bench/tracing.py`` wraps concf functions by module and attribute, and
``bench/run.py`` reads ``TrainConfig`` attributes and builds each workload's
config from field overrides. These tests only read ``bench/``.
"""

import ast
import importlib
import importlib.util
import json
from dataclasses import fields
from pathlib import Path

import pytest

from concf import TrainConfig

BENCH = Path(__file__).resolve().parents[1] / "bench"


def traced_table():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def run_tree() -> ast.Module:
    return ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))


def is_runner_config(node: ast.AST) -> bool:
    """``self.config`` (inside ``Runner``) or ``runner.config``: the TrainConfig."""
    return (isinstance(node, ast.Attribute) and node.attr == "config"
            and isinstance(node.value, ast.Name) and node.value.id in ("self", "runner"))


def config_reads() -> list[str]:
    """Attributes read off the runner's config in ``bench/run.py``: directly,
    and through a name a function binds to it (``c, cfg, ops = self.c,
    self.config, self.ops``)."""
    reads = set()
    for fn in ast.walk(run_tree()):
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    bound.update(t.id for t, v in pairs
                                 if isinstance(t, ast.Name) and is_runner_config(v))
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and (
                is_runner_config(node.value)
                or isinstance(node.value, ast.Name) and node.value.id in bound
            ):
                reads.add(node.attr)
    return sorted(reads)


def workload_overrides() -> list[tuple[str, dict]]:
    """``(name, overrides)`` of every ``WORKLOADS`` entry in ``bench/run.py``."""
    for node in run_tree().body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WORKLOADS"]:
            return [
                (ast.literal_eval(key), ast.literal_eval(kw.value))
                for key, call in zip(node.value.keys, node.value.values)
                for kw in call.keywords if kw.arg == "overrides"
            ]
    return []


@pytest.mark.parametrize("span, target", sorted(traced_table().items()))
def test_traced_attribute_resolves(span, target):
    mod_name, attr, _ = target
    owner = importlib.import_module(mod_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{span}: {mod_name}.{attr} is gone"
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {mod_name}.{attr} is not callable"


def test_config_reads_found():
    assert {"n_layers", "lambda2", "tau"} <= set(config_reads())


@pytest.mark.parametrize("attr", config_reads())
def test_config_read_is_a_config_attribute(attr):
    assert hasattr(TrainConfig(), attr), f"bench/run.py reads cfg.{attr}, which TrainConfig lacks"


def test_every_declared_workload_found():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]
    assert {w["name"] for w in declared} <= {name for name, _ in workload_overrides()}


@pytest.mark.parametrize("name, overrides", workload_overrides())
def test_workload_config_valid(name, overrides):
    unknown = set(overrides) - {f.name for f in fields(TrainConfig)}
    assert not unknown, f"{name}: overrides name no TrainConfig field: {sorted(unknown)}"
    TrainConfig(**overrides).validate()
