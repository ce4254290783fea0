"""The benchmark's tracer wraps concf functions by name: each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_table():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("span, target", sorted(traced_table().items()))
def test_traced_attribute_resolves(span, target):
    mod_name, attr, _ = target
    owner = importlib.import_module(mod_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{span}: {mod_name}.{attr} is gone"
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {mod_name}.{attr} is not callable"
