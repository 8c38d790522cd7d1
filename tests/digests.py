"""The reproducibility contract's record: sha256 digests of the files the
default CLI runs write, and of the v values of the library's coupled
Newton run, with the environment they were recorded on.

`RUNS` names each default run by its CLI arguments; the conservative
comet run is cut to `comet.t_max=1`, since its default horizon takes
seconds.  A run's digests cover every file it writes but
`manifest.json` and `summary.json`, which carry timestamps (and, later,
timings); the other JSON reports are hashed without their `timestamp`
line.  The comet runs also record their `nfev`.  `NEWTON_COUPLED` is
the coupled run of the benchmark's newton-coupled workload.

pocketfft and libm bytes can differ across builds, so the record names
its environment (numpy version, machine, C library) and a comparison on
another environment is skipped, not failed.

Regenerate the record, after a change that moves output bytes on
purpose, with

    PYTHONPATH=src python tests/digests.py

and commit `tests/digests.json`: its diff shows which outputs moved.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

RECORD = Path(__file__).resolve().with_name("digests.json")

RUNS = {
    "solve-manufactured": ["solve", "--preset", "manufactured"],
    "solve-manufactured-power": ["solve", "--preset", "manufactured-power"],
    "homological": ["homological"],
    "verify-norms": ["verify-norms"],
    "comet-surrogate": ["simulate-comet", "--mc", "1e-3"],
    "comet-conservative": ["--set", "comet.t_max=1", "simulate-comet",
                           "--mc", "0"],
}
# the files of a run that carry its timestamp, and nothing the digests
# would pin
UNPINNED = ("manifest.json", "summary.json")
# iterate's arguments in the benchmark's newton-coupled workload
NEWTON_COUPLED = dict(Q=1.8, max_steps=8, target=1e-6, quad_tol=1e-9,
                      min_steps=3, zeta=0.1)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def environment():
    """What the output bytes depend on beyond the source."""
    return {"numpy": np.__version__, "machine": platform.machine(),
            "platform": " ".join((sys.platform,) + platform.libc_ver())}


def run_digests(outdir):
    """{"files": {name: sha256}} of a run directory, plus "nfev" when
    its manifest records one."""
    outdir = Path(outdir)
    files = {}
    for path in sorted(outdir.iterdir()):
        if path.name in UNPINNED:
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            data = b"".join(line for line in data.splitlines(True)
                            if not line.startswith(b' "timestamp": '))
        files[path.name] = _sha256(data)
    out = {"files": files}
    manifest = json.loads((outdir / "manifest.json").read_text())
    if "nfev" in manifest:
        out["nfev"] = manifest["nfev"]
    return out


def moved(want, got):
    """The labels "run: file" (or "run: nfev") of every digest of the
    runs want that got differs in, a file only one of them has
    included."""
    out = []
    for name, run in want.items():
        other = got[name]
        for key in sorted(set(run["files"]) | set(other["files"])):
            if run["files"].get(key) != other["files"].get(key):
                out.append(f"{name}: {key}")
        if run.get("nfev") != other.get("nfev"):
            out.append(f"{name}: nfev")
    return out


def newton_coupled_digest():
    """sha256 of the v values of the coupled Newton run."""
    from wacyl.nashmoser import (comet_decay_synthetic, iterate,
                                 params_from_order)
    call = dict(NEWTON_COUPLED)
    sol, _ = iterate(comet_decay_synthetic(),
                     params_from_order(8.0, Q=call.pop("Q")), **call)
    return _sha256(sol.v.values.tobytes())


def load():
    return json.loads(RECORD.read_text())


def regenerate():
    """Run every default run and the coupled Newton run once and write
    the record."""
    from wacyl.cli import main
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            outdir = Path(tmp) / name
            code = main(["--out", str(outdir)] + argv)
            if code != 0:
                raise SystemExit(f"{name}: exit {code}")
            runs[name] = run_digests(outdir)
    record = {"environment": environment(), "runs": runs,
              "newton-coupled": {"v.values": newton_coupled_digest()}}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
