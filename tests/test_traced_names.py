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
        module = importlib.import_module(f"nksl3.{module_name}")
        # resolved as the traced run resolves it: a method must be defined
        # on the named class itself, since an inherited one is not in its vars
        if owner is not None:
            target = vars(getattr(module, owner)).get(attr)
        else:
            target = getattr(module, attr, None)
        assert callable(target), span
