"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--seed N]

Runs every workload traced, twice, and checks that
- each layer metric is non-zero exactly on the workloads README.md
  names for it (zero elsewhere: the predicted no-change pairs);
- the summed module self times do not exceed the traced wall time;
- every count repeats exactly between the two runs.
Exits 1 and lists the violations if any check fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run

SOLVES = {"solve-power", "newton-coupled"}
COMETS = {"comet-conservative", "comet-surrogate"}
CLI = {"solve-power"} | COMETS
# per-layer metric -> workloads on which it must be non-zero
REACHED = {
    "grids.dq.calls": SOLVES, "grids.dq.self_s": SOLVES,
    "grids.dt.calls": SOLVES, "grids.dt_matrix.calls": SOLVES,
    "grids.dt_matrix.self_s": SOLVES,
    "norms.weighted_norm.calls": SOLVES,
    "norms.weighted_norm.total_s": SOLVES,
    "norms.holder_norm.calls": SOLVES, "norms.holder_norm.self_s": SOLVES,
    "smoothing.smooth.calls": SOLVES, "smoothing.smooth.self_s": SOLVES,
    "homological.solve_he.calls": SOLVES,
    "homological.solve_he.self_s": SOLVES,
    "homological.corrections": SOLVES,
    "functional.eval_F.calls": SOLVES, "functional.eval_F.self_s": SOLVES,
    "functional.linearize.self_s": SOLVES,
    "functional.right_inverse.total_s": SOLVES,
    "functional.x_norm.calls": SOLVES, "functional.x_norm.total_s": SOLVES,
    "nashmoser.choose_schedule.total_s": {"solve-power"},
    "nashmoser.schedule_trials": {"solve-power"},
    "nashmoser.iterate.total_s": SOLVES, "nashmoser.step_s": SOLVES,
    "celestial.integrate.total_s": COMETS, "celestial.rhs_evals": COMETS,
    "celestial.rhs_us": COMETS,
    "celestial.hex_value.calls": {"comet-surrogate"},
    "celestial.leading_drift.total_s": {"comet-surrogate"},
    "grids.self_s": SOLVES, "norms.self_s": SOLVES,
    "smoothing.self_s": SOLVES, "homological.self_s": SOLVES,
    "functional.self_s": SOLVES, "nashmoser.self_s": SOLVES,
    "celestial.self_s": COMETS, "flow.self_s": set(), "cli.self_s": CLI,
}


def traced_metrics(bench, workload, seed, tag):
    outdir = os.path.join(run.OUT, "work", f"selftest-{workload}-{tag}")
    out, err = run.call_worker(["run", workload, str(seed), outdir,
                                "--trace"])
    shutil.rmtree(outdir, ignore_errors=True)
    if out is None or out["failed"]:
        raise SystemExit(f"{workload}: traced run failed: "
                         f"{err or out['errors']}")
    out["trace"]["wall_s"] = out["wall_s"]
    return run.layer_metrics(bench["per_layer"], out["trace"],
                             out["accuracy"])


def check_workload(bench, workload, seed):
    first = traced_metrics(bench, workload, seed, 0)
    second = traced_metrics(bench, workload, seed, 1)
    problems = []
    for name, reached in REACHED.items():
        if (first[name] != 0) != (workload in reached):
            want = "non-zero" if workload in reached else "zero"
            problems.append(f"{name} = {first[name]}, expected {want}")
    for values in (first, second):
        self_sum = sum(values[f"{m}.self_s"] for m in run.MODULES)
        if self_sum > values["trace.wall_s"]:
            problems.append(f"summed self time {self_sum:.4f} s exceeds "
                            f"wall {values['trace.wall_s']:.4f} s")
    for name in first:
        if name.endswith(run.COUNT_SUFFIXES) and first[name] != second[name]:
            problems.append(f"{name} does not repeat: {first[name]} vs "
                            f"{second[name]}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    bench = run.load_benchmark()
    unknown = set(REACHED) - {m["name"] for m in bench["per_layer"]}
    if unknown:
        raise SystemExit(f"not in BENCHMARK.json: {sorted(unknown)}")
    try:
        run.check_source()
    except run.SetupError as exc:
        raise SystemExit(f"benchmark error: {exc}")
    failed = False
    for w in bench["workloads"]:
        problems = check_workload(bench, w["name"], args.seed)
        print(f"{w['name']}: {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"   {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
