"""Every function that the benchmark's traced run wraps still exists."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for module_name, owner, attr, span in traced:
        holder = importlib.import_module(f"nksl3.{module_name}")
        if owner is not None:
            holder = getattr(holder, owner)
        assert callable(getattr(holder, attr, None)), span
