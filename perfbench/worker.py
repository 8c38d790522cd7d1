"""One workload run, or one set-up measurement, in a fresh process.

    python3 worker.py run   WORKLOAD SEED OUTDIR [--trace]
    python3 worker.py setup WORKLOAD

`run` imports wacyl (not timed), optionally installs the tracer, then
times the workload from its first call into wacyl to the checked
result.  `setup` times the import of wacyl in this fresh process plus
the public input constructors the workload needs.  Untraced timings
are scaled to the reference host speed by probe.SpeedProbe; the raw
times are reported next to them.  Both print one JSON object as the
last line of standard output.  The thread-count
variables must be set by the caller, before numpy is imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

# comet-conservative integrates each batch member over t in [1, 1 + T]
CONSERVATIVE_T_MAX = 1.0
COMET_BATCH = 8
NEWTON_CALL = dict(max_steps=8, target=1e-6, quad_tol=1e-9, min_steps=3,
                   zeta=0.1)
CSV_NAMES = ("iterations.csv", "schedule_scan.csv", "trajectory.csv")
# workloads whose time goes to FFTs over grid functions; their host-speed
# probe times an FFT pair too (see probe.py)
FFT_WORKLOADS = ("solve-power", "newton-coupled")


def batch_seeds(seed):
    """comet.seed of each batch member, drawn from the workload seed."""
    import numpy as np
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2 ** 31, COMET_BATCH)]


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cli_run(argv, outdir, result):
    """One CLI invocation; returns the parsed summary or None."""
    import wacyl.cli
    rc = wacyl.cli.main(["--out", outdir] + argv)
    result["attempted"] += 1
    summary_path = os.path.join(outdir, "summary.json")
    summary = _read_json(summary_path) if os.path.exists(summary_path) \
        else None
    if rc != 0 or summary is None or not summary["pass"] or \
            not all(c["pass"] for c in summary["checks"]):
        result["failed"] += 1
        result["errors"].append(f"{' '.join(argv)}: exit {rc}")
        return None
    for name in CSV_NAMES:
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            result["files"].setdefault(name, []).append(_sha256(path))
    return summary


def _check_detail(summary, prefix):
    for c in summary["checks"]:
        if c["name"].startswith(prefix):
            return float(c["detail"])
    raise KeyError(prefix)


def run_solve_power(seed, outdir, result):
    summary = _cli_run(["solve", "--preset", "manufactured-power"],
                       outdir, result)
    if summary is None:
        return
    manifest = _read_json(os.path.join(outdir, "manifest.json"))
    result["accuracy"] = {
        "newton_steps": manifest["steps"],
        "residual": manifest["true_residuals"][-1],
        "v_err": _check_detail(summary, "|v - v*|"),
    }


def run_newton_coupled(seed, outdir, result):
    from wacyl.nashmoser import (comet_decay_synthetic, iterate,
                                 params_from_order)
    H = comet_decay_synthetic()
    sol, state = iterate(H, params_from_order(8.0, Q=1.8), **NEWTON_CALL)
    result["attempted"] += 1
    if state.status != "converged" or \
            not sol.residual_norm <= NEWTON_CALL["target"]:
        result["failed"] += 1
        result["errors"].append(f"status {state.status}, residual "
                                f"{sol.residual_norm:.3e}")
        return
    result["files"]["v.values"] = [
        hashlib.sha256(sol.v.values.tobytes()).hexdigest()]
    result["accuracy"] = {"newton_steps": state.j,
                          "residual": sol.residual_norm}


def run_comet(seed, outdir, result, mc):
    worst = 0.0
    for k, s in enumerate(batch_seeds(seed)):
        member = os.path.join(outdir, str(k))
        argv = ["--set", f"comet.seed={s}"]
        if mc == "0":
            argv += ["--set", f"comet.t_max={CONSERVATIVE_T_MAX!r}"]
        summary = _cli_run(argv + ["simulate-comet", "--mc", mc], member,
                           result)
        if summary is None:
            continue
        if mc == "0":
            value = _read_json(os.path.join(member, "manifest.json"))[
                "H0_drift_rel"]
        else:
            value = _read_json(os.path.join(member, "decay_report.json"))[
                "max"]
        worst = max(worst, value)
    key = "h0_drift_rel" if mc == "0" else "asym_max"
    result["accuracy"] = {key: worst}


WORKLOADS = {
    "solve-power": run_solve_power,
    "newton-coupled": run_newton_coupled,
    "comet-conservative": lambda seed, out, res: run_comet(seed, out, res,
                                                           "0"),
    "comet-surrogate": lambda seed, out, res: run_comet(seed, out, res,
                                                        "1e-3"),
}


def construct_inputs(workload):
    """The public input constructors a workload depends on."""
    if workload == "solve-power":
        from wacyl.nashmoser import manufactured_power
        manufactured_power()
    elif workload == "newton-coupled":
        from wacyl.nashmoser import comet_decay_synthetic
        comet_decay_synthetic()
    else:
        from wacyl.celestial import (CircularChart, CometOrbit,
                                     ExtensionParams, Masses, extend_Hc)
        mc = 0.0 if workload == "comet-conservative" else 1e-3
        masses = Masses(1.0, 1e-3, 1e-3, mc=mc)
        chart = CircularChart(masses)
        if mc:
            mu = masses.M + mc
            orbit = CometOrbit(eccentricity=1.5, a_h=mu / 250.0 ** 2,
                               mu_grav=mu, t_peri=-1.0)
            extend_Hc(ExtensionParams(epsilon=0.1), orbit, masses, chart)


def setup(workload):
    from probe import SpeedProbe
    probe = SpeedProbe(fft=False)
    probe.start()
    import wacyl.cli  # noqa: F401
    imported = probe.stop()
    probe = SpeedProbe(fft=workload in FFT_WORKLOADS)
    probe.start()
    construct_inputs(workload)
    constructed = probe.stop()
    return {"import_s": imported["ref_s"],
            "construct_s": constructed["ref_s"],
            "setup_s": imported["ref_s"] + constructed["ref_s"],
            "setup_raw_s": imported["raw_s"] + constructed["raw_s"]}


def run(workload, seed, outdir, trace):
    import numpy
    import scipy
    import wacyl.cli  # noqa: F401
    tracer = probe = None
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    else:
        from probe import SpeedProbe
        probe = SpeedProbe(fft=workload in FFT_WORKLOADS)
    result = {"attempted": 0, "failed": 0, "errors": [], "files": {},
              "accuracy": {}}
    if probe is not None:
        probe.start()
    t0 = time.perf_counter()
    WORKLOADS[workload](seed, outdir, result)
    result["wall_s"] = time.perf_counter() - t0
    if probe is not None:
        timing = probe.stop()
        result["wall_s"] = timing["ref_s"]
        result["wall_raw_s"] = timing["raw_s"]
        result["slowdown"] = timing["slowdown"]
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # batch members hash into one digest per file name
    result["files"] = {
        name: hashlib.sha256("".join(h).encode()).hexdigest()
        for name, h in result["files"].items()}
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main(argv):
    if argv[0] == "setup":
        out = setup(argv[1])
    elif argv[0] == "run":
        out = run(argv[1], int(argv[2]), argv[3], "--trace" in argv[4:])
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
