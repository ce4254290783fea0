"""The benchmark reaches into concf by name: what it names must exist.

``bench/tracing.py`` wraps concf functions by module and attribute, and
``bench/run.py`` reads ``TrainConfig`` attributes, builds each workload's
config from field overrides, calls concf's functions and hands argvs to
``cli.main``. These tests only read ``bench/``.
"""

import ast
import importlib
import importlib.util
import inspect
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


def workload_keyword(keyword: str) -> list[tuple[str, object]]:
    """``(name, value)`` of the literal ``keyword`` of every ``WORKLOADS`` entry
    in ``bench/run.py``."""
    for node in run_tree().body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WORKLOADS"]:
            return [
                (ast.literal_eval(key), ast.literal_eval(kw.value))
                for key, call in zip(node.value.keys, node.value.values)
                for kw in call.keywords if kw.arg == keyword
            ]
    return []


def workload_overrides() -> list[tuple[str, dict]]:
    """``(name, overrides)`` of every ``WORKLOADS`` entry in ``bench/run.py``."""
    return workload_keyword("overrides")


def concf_path(node: ast.AST) -> list[str] | None:
    """``[module, attribute, ...]`` of an attribute chain on the runner's concf
    (``c.model.forward``, ``self.c.cli.main``), or None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts[:1] == ["c"]:
        parts = parts[1:]
    elif not (isinstance(node, ast.Name) and node.id == "c"):
        return None
    return parts if len(parts) >= 2 else None


def is_ops_call(node: ast.AST) -> bool:
    """``ops.call`` or ``self.ops.call``: ``Ops.call(name, fn, *args, **kwargs)``."""
    if not (isinstance(node, ast.Attribute) and node.attr == "call"):
        return False
    owner = node.value
    if isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name):
        return owner.attr == "ops" and owner.value.id == "self"
    return isinstance(owner, ast.Name) and owner.id == "ops"


def bench_calls() -> list[tuple[str, int, list[str], int]]:
    """``(dotted name, positional count, keywords, line)`` of every call
    ``bench/run.py`` makes into concf, directly or through ``ops.call``."""
    calls = []
    for node in ast.walk(run_tree()):
        if not isinstance(node, ast.Call):
            continue
        path, args = concf_path(node.func), node.args
        if path is None and is_ops_call(node.func) and len(args) >= 2:
            path, args = concf_path(args[1]), args[2:]
        if path is not None:
            n_args = sum(not isinstance(a, ast.Starred) for a in args)
            keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
            calls.append((".".join(path), n_args, keywords, node.lineno))
    return sorted(calls, key=lambda call: call[3])


def cli_argvs() -> list[list[str]]:
    """Each argv ``bench/run.py`` hands ``cli.main`` through ``Runner._cli``,
    with ``*prepare_args`` expanded per workload; an element that is not a
    string literal (a path) becomes ``"x"``."""
    argvs = []
    for node in ast.walk(run_tree()):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_cli"):
            continue
        for _, prepare_args in workload_keyword("prepare_args"):
            argv = []
            for elt in node.args[2].elts:
                if isinstance(elt, ast.Starred):
                    argv.extend(prepare_args)
                else:
                    argv.append(elt.value if isinstance(elt, ast.Constant) else "x")
            if argv not in argvs:
                argvs.append(argv)
    return argvs


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


def test_bench_calls_found():
    names = {name for name, *_ in bench_calls()}
    assert {"cli.main", "prototypes.e_step", "evaluator.full_rank_eval",
            "trainer.adam_step", "model.save_checkpoint"} <= names


@pytest.mark.parametrize("name, n_args, keywords, line", bench_calls(),
                         ids=[name for name, *_ in bench_calls()])
def test_bench_call_binds(name, n_args, keywords, line):
    module, *attrs = name.split(".")
    fn = importlib.import_module(f"concf.{module}")
    for attr in attrs:
        assert hasattr(fn, attr), f"bench/run.py:{line}: concf.{name} is gone"
        fn = getattr(fn, attr)
    try:
        inspect.signature(fn).bind_partial(*[None] * n_args, **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"bench/run.py:{line}: concf.{name} with {n_args} positional "
                    f"arguments and keywords {keywords}: {exc}")


def test_cli_argvs_found():
    assert {argv[0] for argv in cli_argvs()} == {"prepare", "evaluate"}


@pytest.mark.parametrize("argv", cli_argvs(), ids=" ".join)
def test_cli_argv_parses(argv, capsys):
    from concf.cli import _build_parser

    try:
        _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"bench/run.py hands cli.main an argv it rejects: {argv}\n"
                    + capsys.readouterr().err)
