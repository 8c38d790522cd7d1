"""What `import wacyl.cli` runs: every CLI invocation, and every
benchmark set-up, starts with it.

The library builds no class from generated source at import (a
`@dataclass` or a named tuple `exec`s or `eval`s code per class), and
the modules that only the tests need stay off the import path."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "wacyl"
# names that generate source at import: the dataclass decorator and its
# module, the named-tuple factories, and the builtins they run
GENERATED = {"dataclass", "dataclasses", "namedtuple", "NamedTuple", "exec",
             "eval"}


def test_no_class_is_generated_at_import():
    # the first line of each module that names one of them is reported
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "module", None)}
            if isinstance(node, ast.alias):
                names |= set(node.name.split("."))
            if names & GENERATED:
                found.append((path.name, node.lineno))
    assert found == []


def test_the_cli_import_loads_no_test_only_module():
    # a fresh interpreter, as the CLI and the benchmark start: wacyl.flow
    # (the failure classes, which the benchmark tracer reads from
    # sys.modules) is loaded, the calibration sweeps and scipy are not
    code = ("import json, sys, wacyl.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] in "
            "('wacyl', 'scipy', 'calibration'))))")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
        text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stdout))
    assert "wacyl.flow" in loaded
    assert "wacyl.calibration" not in loaded
    assert "calibration" not in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
