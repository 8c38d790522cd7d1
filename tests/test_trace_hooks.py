"""The benchmark's span tracer (perfbench/tracer.py) patches wacyl by
name; every name it patches must exist, so that a rename fails here
instead of in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    mods = {m: importlib.import_module(f"wacyl.{m}") for m in tracer.MODULES}
    for short, cls_name, attr in tracer.METHODS:
        cls = getattr(mods[short], cls_name)
        assert inspect.isfunction(vars(cls).get(attr)), \
            f"{short}.{cls_name}.{attr}"
    for short, name in tracer.FUNCTIONS:
        fn = getattr(mods[short], name, None)
        assert inspect.isfunction(fn) and \
            fn.__module__ == mods[short].__name__, f"{short}.{name}"
    assert callable(mods["celestial"].solve_ivp)
