"""Every layer the benchmark tracer times is still found in cylpc.

The tracer in ``perfbench/spans.py`` wraps each layer function where its
callers look it up (``cylpc.<module>.<attr>``) and skips a site it cannot
find. A renamed or moved function would make that layer read zero in a
traced run; this test fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


LAYER_FUNCTIONS = _layer_functions()


def test_tracer_lists_layers():
    assert len(LAYER_FUNCTIONS) >= 21


@pytest.mark.parametrize("span", sorted(LAYER_FUNCTIONS))
def test_span_resolves_to_a_cylpc_function(span):
    _, sites = LAYER_FUNCTIONS[span]
    found = [
        f"cylpc.{module}.{attr}"
        for module, attr in sites
        if callable(getattr(importlib.import_module(f"cylpc.{module}"), attr, None))
    ]
    assert found, f"no site of span {span!r} exists: {sites}"
