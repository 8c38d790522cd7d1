"""wacyl benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Every workload run happens in a fresh worker process (worker.py) that
imports wacyl from ./src of the checkout holding this directory.  With
--trace 0 the run measures set-up (several fresh processes, median)
and then repeats the workload while the next repeat fits in --seconds,
reporting medians; these times are scaled to a reference host speed by
probe.py, because the raw times of one tree drift with the host by more
than any bound that could catch a regression.  With --trace 1 it
alternates untraced and traced repeats and reports the per-layer
metrics of BENCHMARK.json, plus the tracing overhead (raw times).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
every check passed, 1 when one failed, 2 on a usage or set-up error.
See README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import MODULES
from worker import COMET_BATCH

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 120
# CLI runs (or library solves) in one repeat of each workload
RUNS_PER_REPEAT = {"solve-power": 1, "newton-coupled": 1,
                   "comet-conservative": COMET_BATCH,
                   "comet-surrogate": COMET_BATCH}
# accuracy guards printed with the end-to-end metrics: (name, unit)
ACCURACY = {
    "solve-power": [("newton_steps", "count"), ("residual", "number"),
                    ("v_err", "number")],
    "newton-coupled": [("newton_steps", "count"), ("residual", "number")],
    "comet-conservative": [("h0_drift_rel", "ratio")],
    "comet-surrogate": [("asym_max", "number")],
}
# per-layer metrics that carry an accuracy guard of the workload
ACCURACY_LAYER = {"nashmoser.newton_steps": "newton_steps",
                  "functional.residual": "residual",
                  "nashmoser.v_err": "v_err",
                  "celestial.h0_drift_rel": "h0_drift_rel",
                  "celestial.asym_max": "asym_max"}
# metrics that are counts and must repeat exactly for a fixed seed
COUNT_SUFFIXES = (".calls", ".rhs_evals", ".corrections",
                  ".schedule_trials", ".newton_steps")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    pass


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env():
    """Single-threaded BLAS/OpenMP, wacyl from ./src, no ambient
    WACYL_* configuration."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WACYL_")}
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def call_worker(args):
    """Run worker.py; returns (parsed last line or None, error)."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    return json.loads(lines[-1]), None


def check_source():
    if not os.path.isfile(os.path.join(ROOT, "src", "wacyl", "cli.py")):
        raise SetupError(f"no wacyl source under {ROOT}/src")


def measure_setup(workload):
    samples = []
    for _ in range(SETUP_SAMPLES):
        out, err = call_worker(["setup", workload])
        if out is None:
            raise SetupError(f"set-up of {workload} failed: {err}")
        samples.append(out)
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}


def repeat_workload(workload, seed, seconds, trace):
    """Repeat the workload while the next repeat fits in `seconds`.
    With trace, repeats come in (untraced, traced) pairs."""
    modes = [False, True] if trace else [False]
    repeats = []
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for traced in modes:
            outdir = os.path.join(OUT, "work", f"{workload}-{os.getpid()}"
                                  f"-{len(repeats)}")
            args = ["run", workload, str(seed), outdir]
            out, err = call_worker(args + (["--trace"] if traced else []))
            shutil.rmtree(outdir, ignore_errors=True)
            if out is None:
                n = RUNS_PER_REPEAT[workload]
                out = {"attempted": n, "failed": n, "errors": [err]}
            out["traced"] = traced
            repeats.append(out)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return repeats


def layer_metrics(spec, tr, accuracy):
    """Per-layer metric values from one traced repeat."""
    calls, total, self_t = tr["calls"], tr["total"], tr["self"]
    counters = tr["counters"]
    steps = accuracy.get("newton_steps", 0)
    rhs = counters.get("celestial.rhs_evals", 0)
    special = {
        "homological.corrections": counters.get(
            "homological.corrections", 0),
        "celestial.rhs_evals": rhs,
        "celestial.rhs_us": 1e6 * total.get("celestial.solve_ivp", 0.0)
        / rhs if rhs else 0.0,
        "nashmoser.schedule_trials": tr["parents"].get(
            "nashmoser.iterate", {}).get("nashmoser.choose_schedule", 0),
        "nashmoser.step_s": tr["last"].get("nashmoser.iterate", 0.0)
        / steps if steps else 0.0,
        "trace.wall_s": tr["wall_s"],
    }
    out = {}
    for m in spec:
        name = m["name"]
        base, _, kind = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif name in ACCURACY_LAYER:
            out[name] = accuracy.get(ACCURACY_LAYER[name], 0)
        elif kind == "self_s" and base in MODULES:
            out[name] = sum(v for k, v in self_t.items()
                            if k == base or k.startswith(base + "."))
        elif kind == "calls":
            out[name] = calls.get(base, 0)
        elif kind == "self_s":
            out[name] = self_t.get(base, 0.0)
        elif kind == "total_s":
            out[name] = total.get(base, 0.0)
    return out


def machine_info(versions):
    info = dict(versions)
    info["nproc"] = os.cpu_count()
    info["affinity"] = len(os.sched_getaffinity(0))
    info["threads"] = {v: worker_env()[v] for v in THREAD_VARS}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip()
                               for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = "unknown"
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) \
            if os.path.isdir(cache_dir) else []:
        try:
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            info[f"L{level}"] = size
    return info


def compare_record(workload, seed, record):
    """Compare hashes, accuracy and counts with the last record of the
    same workload and seed in this checkout, then store this one."""
    path = os.path.join(OUT, "records", f"{workload}-seed{seed}.json")
    notes = []
    if os.path.exists(path):
        with open(path) as fh:
            prev = json.load(fh)
        for key in ("files", "accuracy", "counts"):
            old, new = prev.get(key) or {}, record.get(key) or {}
            for name in sorted(set(old) & set(new)):
                if old[name] != new[name]:
                    notes.append(f"{key} {name}: {old[name]} -> "
                                 f"{new[name]} (record of "
                                 f"{prev['time']})")
        for key in ("files", "accuracy", "counts"):
            record[key] = {**(prev.get(key) or {}),
                           **(record.get(key) or {})}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return notes


def run_workload(bench, workload, seed, seconds, trace):
    """Returns (result dict of the final line, lines to print)."""
    setup = None if trace else measure_setup(workload)
    repeats = repeat_workload(workload, seed, seconds, trace)
    ok = [r for r in repeats if not r["failed"] and "wall_s" in r]
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    lines = [f"== {workload}  seed {seed}  trace {int(trace)}: "
             f"{len(repeats)} repeats, {attempted} runs, {failed} failed"]
    for r in repeats:
        lines += [f"   FAILED: {e}" for e in r.get("errors", [])]
    correct = failed == 0 and bool(ok)
    # same inputs must give the same outputs within one run
    for key in ("files", "accuracy"):
        variants = {json.dumps(r[key], sort_keys=True) for r in ok}
        if len(variants) > 1:
            correct = False
            lines.append(f"   FAILED: {key} differ between repeats: "
                         + " | ".join(sorted(variants)))
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or (trace and not traced):
        return {"correct": False, "attempted": attempted,
                "failed": failed, "metrics": {}}, lines
    accuracy = ok[0]["accuracy"]
    record = {"time": time.strftime("%Y-%m-%dT%H:%M:%S"),
              "files": ok[0]["files"], "accuracy": accuracy,
              "machine": machine_info(ok[0]["versions"]), "seed": seed}
    spec = bench["per_layer"] if trace else bench["end_to_end"]
    if trace:
        per_repeat = []
        for r in traced:
            r["trace"]["wall_s"] = r["wall_s"]
            per_repeat.append(layer_metrics(spec, r["trace"], accuracy))
        values = {name: statistics.median(p[name] for p in per_repeat)
                  for name in per_repeat[0]}
        counts = {k: v for k, v in per_repeat[0].items()
                  if k.endswith(COUNT_SUFFIXES)}
        for p in per_repeat[1:]:
            for k in counts:
                if p[k] != counts[k]:
                    lines.append(f"   count {k} differs between "
                                 f"repeats: {counts[k]} vs {p[k]}")
        record["counts"] = counts
        # traced repeats run without the probe: compare raw with raw
        wall_plain = statistics.median(r["wall_raw_s"] for r in plain)
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_plain
        record["trace_overhead_s"] = values["trace.overhead_s"]
        lines.append(f"   tracing overhead: {values['trace.overhead_s']:+.3f}"
                     f" s on {wall_plain:.3f} s untraced")
        self_sum = sum(values[f"{m}.self_s"] for m in MODULES)
        lines.append(f"   summed module self time {self_sum:.3f} s of "
                     f"traced wall {values['trace.wall_s']:.3f} s")
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in plain),
        }
        lines.append("   wall_s of each repeat: " + " ".join(
            f"{r['wall_s']:.3f}" for r in plain))
        lines.append("   raw wall time of each repeat: " + " ".join(
            f"{r['wall_raw_s']:.3f}" for r in plain))
        lines.append("   host slowdown of each repeat: " + " ".join(
            f"{r['slowdown']:.3f}" for r in plain))
        lines.append(f"   set-up: import {setup['import_s']:.3f} s + "
                     f"constructors {setup['construct_s']:.3f} s, raw "
                     f"{setup['setup_raw_s']:.3f} s (median of "
                     f"{SETUP_SAMPLES} fresh processes)")
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SetupError(f"metrics not produced: {missing}")
    units = {m["name"]: m["unit"] for m in spec}
    shown = dict(values)
    if not trace:
        shown["fail_frac"] = failed / attempted
        units["fail_frac"] = "ratio"
        for name, unit in ACCURACY[workload]:
            shown[name] = accuracy[name]
            units[name] = unit
    for name in shown:
        lines.append(f"   {name:<40} {shown[name]:>14.6g} {units[name]}")
    lines += [f"   sha256 {k} {v}" for k, v in sorted(ok[0]["files"].items())]
    info = record["machine"]
    lines.append("   machine: " + ", ".join(f"{k} {v}"
                                            for k, v in info.items()))
    for note in compare_record(workload, seed, record):
        lines.append(f"   differs from earlier run: {note}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def main(argv=None):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_source()
        results = {}
        for name in names if args.workload == "all" else [args.workload]:
            res, lines = run_workload(bench, name, args.seed, args.seconds,
                                      bool(args.trace))
            print("\n".join(lines), flush=True)
            results[name] = res
    except SetupError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
