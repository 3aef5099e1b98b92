"""The benchmark tracer (``bench/tracing.py``) wraps gridline call sites by
module attribute name. A renamed or removed name makes a traced benchmark
run exit before it reports anything, so every name it wraps must resolve."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, attribute, name", tracing.TARGETS + tracing.COUNTED,
                         ids=lambda value: value if isinstance(value, str) else None)
def test_traced_name_resolves(module_name, attribute, name):
    owner, attr = tracing._resolve(module_name, attribute)
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(original), f"{module_name}.{attribute} ({name}) does not resolve"


def test_every_span_names_a_layer():
    for _module, _attribute, name in tracing.TARGETS + tracing.COUNTED:
        assert name.split(".", 1)[0] in tracing.LAYERS
