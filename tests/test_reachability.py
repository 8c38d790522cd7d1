"""Library code and options that only the tests reach cannot come back.

An AST walk over `src/wacyl/` starts from what the program runs: every
function and class of `cli`, the names used in the module-level
statements of the library (`__all__` does not count) and what
`perfbench/*.py` names of the library: the names it imports
from `wacyl`, the attributes of its `wacyl.<module>.<name>` chains and
the parts of its dotted string constants, since its tracer names the
methods it patches as strings.  perfbench's other identifiers are its
own (its `json.load` is not `GridFn.load`).  A reached function or
method reaches every name its body uses; a reached class reaches its
dunder methods and its class-body statements; a reached method reaches
its class.  A dunder method is reached through its class alone, not by
its name (`super().__init__` in one class reaches no other class).
Other names match by name alone, over every module, so the walk
over-counts what is reached and the unreached set is a lower bound.

A second guard reads every call in `src/wacyl/` and `perfbench/*.py`
and fails on a parameter default of a library function or method that
no call overrides, by name as the walk does: a call overrides a default
when it passes it by keyword, passes enough positional arguments to
reach it, or passes * or **.  A call through a subscript of a
module-level dict literal (`cli.SOLVE_PRESETS[...]`) reaches each of its
values; an `__init__` is called by its class name; dunder methods other
than `__init__` are out of reach.

A third guard fails on an attribute that a library class stores and no
program code reads: a class-level name or dataclass field, or an
attribute a method assigns on its instance, that no attribute load in
`src/wacyl/` or `perfbench/*.py` and no dotted string of `perfbench/`
names.  It matches by name too, so it cannot see a stored name that
another class reads under the same name: `TimeGrid.gamma` went unflagged
while `CylinderSolution.gamma` was read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "wacyl"

SPLITTING = ("the paper's centre-of-mass splitting, checked against the "
             "Cartesian energy to 1e-12 by acceptance criterion 09; "
             "CircularChart.momenta rests on its reduced masses mu1, mu2 "
             "and momentum split B")
WGF_READERS = ("no CLI command reads a .wgf; the tests read back v.wgf, "
               "gamma.wgf and kappa.wgf, and ROADMAP aim 3 validates .wgf "
               "at that boundary")
# unreached definitions that stay, each with its reason
ALLOWED = {
    "celestial.SplitCoords": SPLITTING,
    "celestial.SplitCoords.__init__": SPLITTING,
    "celestial.split_coordinates": SPLITTING,
    "celestial.eval_H0_split": SPLITTING,
    "grids.GridFn.load": WGF_READERS,
    "grids.TimeGrid.from_points": WGF_READERS,
}


def _names(nodes):
    """Identifiers used in the trees of nodes: names, attributes and the
    parts of imported names."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.update(sub.name.split("."))
    return out


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _library():
    """Definitions as {key: (name, names used, keys reached with it)} and
    the root names.  A class uses its bases, decorators and class-body
    statements and reaches its dunder methods; a method reaches its
    class."""
    defs, roots = {}, set()
    for path in sorted(LIBRARY.glob("*.py")):
        module = path.stem
        body = ast.parse(path.read_text()).body
        roots |= _names(s for s in body if not _is_def(s) and not _is_all(s))
        for node in filter(_is_def, body):
            key = f"{module}.{node.name}"
            if module == "cli":
                roots.add(node.name)
            if not isinstance(node, ast.ClassDef):
                defs[key] = (node.name, _names([node]), ())
                continue
            methods = [s for s in node.body if _is_def(s)]
            own = node.bases + node.keywords + node.decorator_list + [
                s for s in node.body if not _is_def(s)]
            own += [d for m in methods for d in m.decorator_list]
            for m in methods:
                defs[f"{key}.{m.name}"] = (m.name, _names([m]), (key,))
            defs[key] = (node.name, _names(own),
                         [f"{key}.{m.name}" for m in methods
                          if m.name.startswith("__")
                          and m.name.endswith("__")])
    return defs, roots


def _perfbench_names():
    """The library names perfbench/*.py uses: what it imports from wacyl,
    the module and name of each wacyl.<module>.<name> chain, and the
    parts of its string constants that are dotted identifiers."""
    out = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.ImportFrom) and (
                    sub.module or "").split(".")[0] == "wacyl":
                out.update(alias.name for alias in sub.names)
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Attribute)
                  and isinstance(sub.value.value, ast.Name)
                  and sub.value.value.id == "wacyl"):
                out.update((sub.value.attr, sub.attr))
            elif (isinstance(sub, ast.Constant)
                  and isinstance(sub.value, str)
                  and all(p.isidentifier() for p in sub.value.split("."))):
                out.update(sub.value.split("."))
    return out


def unreached():
    """Keys of the library definitions the walk does not reach."""
    defs, roots = _library()
    by_name = {}
    for key, (name, _, _) in defs.items():
        # a dunder method is reached through its class, not by its name:
        # super().__init__ in one class reaches no other class
        if not (name.startswith("__") and name.endswith("__")):
            by_name.setdefault(name, []).append(key)
    names = roots | _perfbench_names()
    todo = [k for n in names for k in by_name.get(n, ())]
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        _, uses, linked = defs[key]
        todo += linked
        for n in uses - names:
            names.add(n)
            todo += by_name.get(n, ())
    return set(defs) - reached


def test_every_unreached_definition_is_allowed():
    extra = sorted(unreached() - set(ALLOWED))
    assert not extra, ("library definitions that only tests reach: "
                       f"{extra}; delete them or give a reason in ALLOWED")


def test_every_allowed_definition_is_still_unreached():
    stale = sorted(set(ALLOWED) - unreached())
    assert not stale, f"ALLOWED entries the program now reaches: {stale}"


# --------------------------------------------------------------------
# parameter defaults
# --------------------------------------------------------------------

def _dict_values(body):
    """{name: names of its values} for the module-level names bound to a
    dict literal, such as cli.SOLVE_PRESETS."""
    out = {}
    for node in body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            values = _names(node.value.values)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = values
    return out


def _callee_names(func, tables):
    """Names a call of func may reach: its name or attribute, or every
    value of a module-level dict literal that it subscripts."""
    if isinstance(func, ast.Name):
        return {func.id}
    if isinstance(func, ast.Attribute):
        return {func.attr}
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
        return tables.get(func.value.id, set())
    return set()


def _program_calls():
    """Every call in src/wacyl/ and perfbench/*.py as (names it may
    reach, positional arguments, keywords, whether it passes * or **)."""
    calls = []
    paths = sorted(LIBRARY.glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text())
        tables = _dict_values(tree.body)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            calls.append((_callee_names(node.func, tables), len(node.args),
                          {k.arg for k in node.keywords}, starred))
    return calls


def _defaults():
    """(key, name called, position, parameter) for every parameter with a
    default of a module-level function or a method; position counts
    from the first argument a call passes (self and cls skipped)."""
    out = []
    for path in sorted(LIBRARY.glob("*.py")):
        body = ast.parse(path.read_text()).body
        funcs = [(f"{path.stem}.{n.name}", n.name, n, False)
                 for n in body if isinstance(n, ast.FunctionDef)]
        for cls in (n for n in body if isinstance(n, ast.ClassDef)):
            for m in cls.body:
                if not isinstance(m, ast.FunctionDef) or (
                        m.name.startswith("__") and m.name != "__init__"):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in m.decorator_list)
                called = cls.name if m.name == "__init__" else m.name
                funcs.append((f"{path.stem}.{cls.name}.{m.name}", called, m,
                              not static))
        for key, called, fn, bound in funcs:
            args = fn.args
            positional = (args.posonlyargs + args.args)[int(bound):]
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                out.append((key, called, i, arg.arg))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.append((key, called, None, arg.arg))
    return out


def unvaried_defaults():
    """`module.function(parameter)` for each parameter default that no
    call in the program overrides: no call of that name passes it by
    keyword, passes enough positional arguments to reach it, or passes
    * or **.  Calls match by name alone, like the walk above, so a
    default passed through an unnamed callable goes unseen; dunder
    methods other than __init__ are out of reach."""
    calls = _program_calls()
    flagged = set()
    for key, called, position, param in _defaults():
        if not any(called in names and (
                starred or param in keywords
                or (position is not None and n_args > position))
                for names, n_args, keywords, starred in calls):
            flagged.add(f"{key}({param})")
    return flagged


def test_every_parameter_default_is_varied():
    unvaried = sorted(unvaried_defaults())
    assert not unvaried, ("parameter defaults that no call in the program "
                          f"overrides: {unvaried}; make them constants")


# --------------------------------------------------------------------
# stored attributes
# --------------------------------------------------------------------

CARRIED = ("the measured value an exception carries to whoever catches "
           "it; its message already names the value and the budget")
# stored attributes that no program code reads, each with its reason
UNREAD_ALLOWED = {
    "flow.NormBudgetError.name": CARRIED,
    "flow.NormBudgetError.measured": CARRIED,
    "flow.NormBudgetError.budget": CARRIED,
    "homological.HomologicalSolution.diagnostics":
        "the transport solve's correction history, which the manifest's "
        "Newton-step diagnostics (ROADMAP item 3) will read",
}


def _stored(cls):
    """Attribute names a class stores: its class-level names (dataclass
    fields included) and what its methods assign on their first
    parameter or on an instance they make with __new__."""
    out = set()
    for node in cls.body:
        if isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            out.add(node.target.id)
        elif isinstance(node, ast.FunctionDef) and node.args.args:
            owners = {node.args.args[0].arg} | {
                t.id for sub in ast.walk(node)
                if isinstance(sub, ast.Assign)
                and isinstance(sub.value, ast.Call)
                and isinstance(sub.value.func, ast.Attribute)
                and sub.value.func.attr == "__new__"
                for t in sub.targets if isinstance(t, ast.Name)}
            out |= {sub.attr for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in owners}
    return {n for n in out if not n.startswith("__")}


def _attribute_reads():
    """Attribute loads in src/wacyl/ and perfbench/*.py, and the parts of
    perfbench's dotted string constants, which name what its tracer
    patches."""
    reads = set()
    for path in sorted(LIBRARY.glob("*.py")) + sorted(
            (ROOT / "perfbench").glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx,
                                                             ast.Load):
                reads.add(sub.attr)
            elif (path.parent.name == "perfbench"
                  and isinstance(sub, ast.Constant)
                  and isinstance(sub.value, str) and "." in sub.value
                  and all(p.isidentifier() for p in sub.value.split("."))):
                reads.update(sub.value.split("."))
    return reads


def unread_attributes():
    """`module.Class.attribute` for each attribute a library class stores
    that _attribute_reads does not name; a read through vars() or
    __dict__ is not counted."""
    reads = _attribute_reads()
    flagged = set()
    for path in sorted(LIBRARY.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                flagged |= {f"{path.stem}.{cls.name}.{name}"
                            for name in _stored(cls) - reads}
    return flagged


def test_every_stored_attribute_is_read():
    extra = sorted(unread_attributes() - set(UNREAD_ALLOWED))
    assert not extra, ("attributes that no program code reads: "
                       f"{extra}; delete them or give a reason in "
                       "UNREAD_ALLOWED")


def test_every_allowed_attribute_is_still_unread():
    stale = sorted(set(UNREAD_ALLOWED) - unread_attributes())
    assert not stale, f"UNREAD_ALLOWED entries the program now reads: {stale}"
