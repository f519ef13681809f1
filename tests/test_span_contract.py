"""The benchmark's span table names functions that exist.

perfbench/spans.py wraps every (owner, attribute) of its ALL_LAYERS table
by name when a traced benchmark run starts, so renaming one of those
functions under src/ would crash ``perfbench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    """perfbench/spans.py as a module, left out of sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("owner, attr, layer", spans.ALL_LAYERS,
                         ids=[f"{o}.{a}" for o, a, _ in spans.ALL_LAYERS])
def test_every_traced_name_resolves(owner, attr, layer):
    assert callable(getattr(spans.resolve(owner), attr))
