"""Span tracer that wraps wacyl's public functions from outside.

`install()` replaces every public module-level function of the traced
modules by a wrapper, in every wacyl module that imported it by name,
and patches the methods listed in METHODS on their classes.  Each
wrapper records one span per call: its duration, and the part of it
covered by child spans, so a span's self time is its duration minus
its children.  Spans stay in memory as per-name totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("grids", "norms", "smoothing", "flow", "homological",
           "functional", "nashmoser", "celestial", "cli")

# class methods that are traced, and their span names; the two
# integrators share one name so both comet workloads report it
METHODS = {
    ("grids", "GridFn", "dq"): "grids.dq",
    ("grids", "GridFn", "dt"): "grids.dt",
    ("grids", "TimeGrid", "dt_matrix"): "grids.dt_matrix",
    ("celestial", "HExtension", "value"): "celestial.hex_value",
    ("celestial", "SurrogateSystem", "integrate"): "celestial.integrate",
    ("celestial", "SurrogateSystem", "leading_drift_momentum"):
        "celestial.leading_drift",
}
# module-level functions whose span name is not "<module>.<function>"
FUNCTIONS = {
    ("cli", "main"): "cli",
    ("celestial", "integrate_system"): "celestial.integrate",
}


class Stat:
    __slots__ = ("calls", "total", "self", "last", "depth", "parents")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.last = 0.0
        self.depth = 0
        self.parents = {}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.counters = {}
        self._stack = [[None, 0.0]]     # [span name, child time]

    def span(self, name, fn, on_return=None):
        """Wrap fn so that each call records a span called `name`."""
        stack = self._stack
        clock = time.perf_counter
        st = self.stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                st.depth -= 1
                st.calls += 1
                st.self += dur - frame[1]
                if not st.depth:
                    # a recursive call is already inside the outer one
                    st.total += dur
                st.last = dur
                st.parents[parent[0]] = st.parents.get(parent[0], 0) + 1
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def summary(self):
        used = {k: s for k, s in self.stats.items() if s.calls}
        return {
            "calls": {k: s.calls for k, s in used.items()},
            "total": {k: s.total for k, s in used.items()},
            "self": {k: s.self for k, s in used.items()},
            "last": {k: s.last for k, s in used.items()},
            "parents": {k: s.parents for k, s in used.items()},
            "counters": dict(self.counters),
        }


def install(tracer):
    """Wrap the public functions of MODULES and the METHODS in place."""
    import wacyl.cli  # noqa: F401  (imports every traced module)
    mods = {m: sys.modules[f"wacyl.{m}"] for m in MODULES}
    wacyl_mods = [mod for key, mod in sys.modules.items()
                  if key == "wacyl" or key.startswith("wacyl.")]
    hooks = {
        "homological.solve_he":
            lambda sol: tracer.count("homological.corrections",
                                     sol.corrections),
    }
    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            span = FUNCTIONS.get((short, name), f"{short}.{name}")
            wrapped = tracer.span(span, obj, hooks.get(span))
            for other in wacyl_mods:
                if vars(other).get(name) is obj:
                    setattr(other, name, wrapped)
    for (short, cls_name, attr), span in METHODS.items():
        cls = getattr(mods[short], cls_name)
        setattr(cls, attr, tracer.span(span, vars(cls)[attr]))
    # nfev of every trajectory integration, read off scipy's result
    cel = mods["celestial"]
    cel.solve_ivp = tracer.span(
        "celestial.solve_ivp", cel.solve_ivp,
        lambda res: tracer.count("celestial.rhs_evals", res.nfev))
