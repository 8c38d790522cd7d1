"""The benchmark's span tracer (perfbench/tracer.py) patches wacyl by
name; every name it patches must exist, so that a rename fails here
instead of in a traced benchmark run."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
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


# a scan and a two-step solve under the unedited tracer, printing the
# parents of every newton_step span and the number of scan trials
TRACED_SOLVE = f"""
import json, sys
sys.path.insert(0, {str(TRACER.parent)!r})
import tracer
tr = tracer.Tracer()
tracer.install(tr)
from wacyl import nashmoser
H, _ = nashmoser.manufactured_single(torus_points=32, n_times=16, t_max=8.0)
p, records = nashmoser.choose_schedule(H, nashmoser.params_from_order(8.0))
nashmoser.iterate(H, p, max_steps=2, target=0.0)
print(json.dumps([tr.summary()["parents"]["nashmoser.newton_step"],
                  len(records)]))
"""


def test_newton_step_span_counts_scan_trials():
    # schedule-scan trials show in a trace as newton_step spans under
    # choose_schedule, so newton_step must stay a public nashmoser function
    # that both the scan and the driver call
    from wacyl import nashmoser
    fn = nashmoser.newton_step
    assert inspect.isfunction(fn) and fn.__module__ == nashmoser.__name__
    assert "nashmoser" in load_tracer().MODULES
    src = str(Path(nashmoser.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", TRACED_SOLVE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    parents, trials = json.loads(out.stdout.splitlines()[-1])
    # the scan stops at its choice, the third Q of the grid
    assert trials == 3
    assert parents == {"nashmoser.choose_schedule": trials,
                       "nashmoser.iterate": 2}
