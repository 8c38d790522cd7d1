import argparse
import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wacyl
from wacyl import norms
from wacyl.celestial import SURROGATE_SAMPLES, TRAJECTORY_SAMPLES, \
    SurrogateSystem
from wacyl.cli import CONFIG, EXIT_CHECK_FAILURE, EXIT_CONFIG_ERROR, \
    EXIT_NUMERICAL_FAILURE, EXIT_PASS, HE_RESIDUAL_TOL, \
    SURROGATE_TOL_FLOOR, _parser, _write_csv, _write_manifest, \
    load_config, main, read_section
from wacyl.grids import GridFn, SpatialGrid, TimeGrid

import digests
from oracles import csv_writer_csv


def run_cli(args):
    return main(args)


class RecordedSection(dict):
    """A configuration section that adds each name read from it to
    reads."""

    def __init__(self, values, reads):
        super().__init__(values)
        self.reads = reads

    def __getitem__(self, name):
        self.reads.add(name)
        return super().__getitem__(name)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """run(name) -> (exit code, output directory) of the default run
    digests.RUNS[name], run once per module: the tests that read a
    default run and the digest test share it.  run.reads maps each
    section to the names its commands read in the runs made so far."""
    runs, reads = {}, {}

    def recorded(cfg, section):
        return RecordedSection(read_section(cfg, section),
                               reads.setdefault(section, set()))

    def run(name):
        if name not in runs:
            outdir = tmp_path_factory.mktemp(name)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(wacyl.cli, "read_section", recorded)
                runs[name] = (run_cli(["--out", str(outdir)]
                                      + digests.RUNS[name]), outdir)
        return runs[name]
    run.reads = reads
    return run


def assert_plain_numbers(path, header):
    """Every cell below the header parses as a number (a numpy scalar
    would be written as "np.float64(...)")."""
    rows = path.read_text().splitlines()
    assert rows[0] == header and len(rows) > 1
    for row in rows[1:]:
        for cell in row.split(","):
            float(cell)


def test_verify_norms_and_reproducibility(tmp_path, default_run):
    code, out1 = default_run("verify-norms")
    out2 = tmp_path / "b"
    assert code == EXIT_PASS
    assert run_cli(["--out", str(out2), "verify-norms"]) == EXIT_PASS
    csv1 = (out1 / "norm_checks.csv").read_bytes()
    csv2 = (out2 / "norm_checks.csv").read_bytes()
    assert csv1 == csv2   # identical config + seed: identical bytes
    assert csv1.startswith(b"trial,product_ratio\r\n")


def test_verify_norms_makes_the_profiles_of_g_once(tmp_path, monkeypatch):
    # g = cos(2 pi q)/t is the same in every trial: it is built once, so
    # its two Hölder profiles (sigma 0 and 2, in the product ratio) are
    # made once per run, not once per trial
    calls = []
    holder = norms.holder_norm

    def counted(f, sigma):
        calls.append(f.values)
        return holder(f, sigma)

    monkeypatch.setattr(norms, "holder_norm", counted)
    assert run_cli(["--out", str(tmp_path), "verify-norms"]) == EXIT_PASS
    g = GridFn.from_callable(SpatialGrid(1, 128), TimeGrid(10.0, n_points=24),
                             lambda q, t: np.cos(2 * np.pi * q) / t)
    assert sum(np.array_equal(values, g.values) for values in calls) == 2


def test_solve_manifest_keeps_the_run_orders_in_params(tmp_path):
    # the scheme's orders s and lambda are the run's, recorded once under
    # params; the hamiltonian entry describes the data only
    code = run_cli(["--out", str(tmp_path), "--set", "solve.s=10", "solve"])
    assert code == EXIT_PASS
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["params"]["s"] == 10
    assert "s" not in man["hamiltonian"]
    assert "lambda" not in man["hamiltonian"]


def test_homological_subcommand(tmp_path):
    code = run_cli(["--out", str(tmp_path), "--set", "he.n_times=48",
                    "--set", "he.torus_points=64", "homological"])
    assert code == EXIT_PASS
    assert (tmp_path / "kappa.wgf").exists()
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert "quad_tol" not in man and "quad_tol" not in man["config"]
    assert man["residual_norm"] <= HE_RESIDUAL_TOL
    assert man["n"] == 1 and "dim" not in man


def test_solve_manufactured(default_run):
    code, tmp_path = default_run("solve-manufactured")
    assert code == EXIT_PASS
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["status"] == "converged"
    assert (tmp_path / "v.wgf").exists()
    assert (tmp_path / "gamma.wgf").exists()
    rows = (tmp_path / "iterations.csv").read_text().splitlines()
    assert rows[0].startswith("j,tau_j,t_j")
    assert_plain_numbers(tmp_path / "schedule_scan.csv",
                         "Q,upsilon,r1,envelope")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert all("tolerance" in c for c in summary["checks"])


@pytest.mark.parametrize("preset, steps", [("manufactured", 3),
                                           ("manufactured-power", 8)])
def test_solve_presets_keep_their_schedule_and_verdicts(default_run, preset,
                                                         steps):
    # outputs that move at the rounding level (a new elimination order in
    # the transport solve, say) must not flip the scan's choice of Q, the
    # number of Newton steps or any check's verdict
    code, tmp_path = default_run(f"solve-{preset}")
    assert code == EXIT_PASS
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["Q"] == 1.3690243994493276
    assert (man["status"], man["steps"]) == ("converged", steps)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert {c["name"]: c["pass"] for c in summary["checks"]} == {
        "residual <= target": True,
        "monotone decrease (>=3 steps)": True,
        "|v - v*|_{1,1} <= 1e-4": True}


@pytest.mark.parametrize("preset", ["manufactured", "manufactured-power"])
def test_schedule_scan_ends_at_the_chosen_schedule(default_run, preset):
    # the scan stops at its choice, so its last row is the run's schedule
    code, tmp_path = default_run(f"solve-{preset}")
    assert code == EXIT_PASS
    man = json.loads((tmp_path / "manifest.json").read_text())
    lines = (tmp_path / "schedule_scan.csv").read_text().splitlines()
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert rows[-1][:2] == [man["Q"], man["upsilon"]]
    # only the last trial lands under its envelope
    assert [r1 <= envelope for *_, r1, envelope in rows] == \
        [False] * (len(rows) - 1) + [True]


def test_default_outputs_match_their_digests(default_run):
    # the reproducibility contract: every default run writes the bytes
    # tests/digests.json records; a change that moves them on purpose
    # regenerates the record (tests/digests.py), and its diff names them
    record = digests.load()
    here = digests.environment()
    if record["environment"] != here:
        pytest.skip(f"digests recorded on {record['environment']}, "
                    f"running on {here}: pocketfft and libm bytes can "
                    "differ across builds")
    got = {}
    for name in digests.RUNS:
        code, outdir = default_run(name)
        assert code == EXIT_PASS, name
        got[name] = digests.run_digests(outdir)
    assert set(got) == set(record["runs"])
    assert digests.moved(record["runs"], got) == []
    assert digests.newton_coupled_digest() == \
        record["newton-coupled"]["v.values"]


def test_every_key_is_read_by_its_command(default_run):
    # the default runs, both comet modes among them, read every key of
    # their section: a key no command reads cannot come back
    for name in digests.RUNS:
        assert default_run(name)[0] == EXIT_PASS, name
    want = {}
    for key in CONFIG:
        section, _, name = key.partition(".")
        want.setdefault(section, set()).add(name)
    assert default_run.reads == want


def test_digests_see_one_changed_input(tmp_path):
    # one changed input, the seed of verify-norms' random fields, moves
    # the bytes of its table, and the comparison names that file alone
    want = {"verify-norms": digests.load()["runs"]["verify-norms"]}
    assert run_cli(["--out", str(tmp_path), "--set", "norms.seed=1",
                    "verify-norms"]) == EXIT_PASS
    got = {"verify-norms": digests.run_digests(tmp_path)}
    assert digests.moved(want, got) == ["verify-norms: norm_checks.csv"]


@pytest.mark.parametrize("n_times", [32, 128])
def test_solve_power_passes_on_every_time_grid(tmp_path, n_times):
    # the transport solve inverts the residual's own time derivative, so
    # the verdict does not depend on the number of time nodes
    code = run_cli(["--out", str(tmp_path),
                    "--set", f"solve.n_times={n_times}",
                    "solve", "--preset", "manufactured-power"])
    assert code == EXIT_PASS
    summary = json.loads((tmp_path / "summary.json").read_text())
    checks = {c["name"]: c["pass"] for c in summary["checks"]}
    assert checks["residual <= target"]
    assert checks["|v - v*|_{1,1} <= 1e-4"]


def test_residual_verdict_reports_the_floor_it_applies(tmp_path):
    # at eps 0.3 the initial residual r0 = 2.05 exceeds 1, so iterate
    # stops below target * r0; the residual check passes up to that
    # floor, and says so rather than the bare target
    code = run_cli(["--out", str(tmp_path), "--set", "solve.eps=0.3",
                    "solve", "--preset", "manufactured-power"])
    assert code == EXIT_PASS
    man = json.loads((tmp_path / "manifest.json").read_text())
    r0 = man["true_residuals"][0]
    assert r0 > 2.0 and man["floor"] == man["target"] * r0
    summary = json.loads((tmp_path / "summary.json").read_text())
    checks = {c["name"]: c for c in summary["checks"]}
    assert checks["residual <= target"]["tolerance"] == man["floor"]
    assert checks["monotone decrease (>=3 steps)"]["tolerance"] == \
        f"strict above {man['floor']:.3e}"


@pytest.mark.parametrize("eps", ["1e-15", "1e-300"])
def test_solve_passes_on_tiny_data(tmp_path, eps):
    # small data are what the scheme is made for: no size threshold may
    # refuse them
    code = run_cli(["--out", str(tmp_path), "--set", f"solve.eps={eps}",
                    "--set", "solve.torus_points=32",
                    "--set", "solve.n_times=24", "solve"])
    assert code == EXIT_PASS
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["checks"]) == 3
    assert all(c["pass"] for c in summary["checks"])


def test_simulate_comet_conservative(tmp_path):
    code = run_cli(["--out", str(tmp_path), "--set", "comet.t_max=50",
                    "simulate-comet", "--mc", "0"])
    assert code == EXIT_PASS
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["mode"] == "conservative"
    assert_plain_numbers(tmp_path / "trajectory.csv",
                         "t,x0x,x0y,x1x,x1y,x2x,x2y,y0x,y0y,y1x,y1y,y2x,y2y")
    assert man["H0_drift_rel"] <= 1e-8
    assert type(man["nfev"]) is int and man["nfev"] > 0


def test_simulate_comet_surrogate(tmp_path):
    code = run_cli(["--out", str(tmp_path), "--set", "comet.t_max=30",
                    "simulate-comet", "--mc", "1e-3"])
    assert code == EXIT_PASS
    conf = json.loads((tmp_path / "confinement.json").read_text())
    assert conf["pass"]
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["surrogate_chart"] is True
    assert type(man["nfev"]) is int and man["nfev"] > 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert all(type(c["pass"]) is bool for c in summary["checks"])


def test_confinement_detail_shows_what_the_verdict_reads(tmp_path):
    # the verdict reads |xi|/|c| < eps/6 and |xi| <= log bound at every
    # sample; the printed detail carries the worst of each
    code = run_cli(["--out", str(tmp_path), "--set", "comet.t_max=10",
                    "simulate-comet", "--mc", "1e-3"])
    assert code == EXIT_PASS
    rows = json.loads((tmp_path / "confinement.json").read_text())["rows"]
    eps = json.loads((tmp_path / "manifest.json").read_text())["eps"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    detail = next(c["detail"] for c in summary["checks"]
                  if c["name"] == "confinement")
    ratio = max(r["ratio"] for r in rows)
    excess = max(r["xi"] - r["log_bound"] for r in rows[1:])
    assert excess < 0
    assert detail == (f"max |xi|/|c| = {ratio:.3e} < eps/6 = "
                      f"{eps / 6.0:.3e}, max |xi| - log bound = "
                      f"{excess:.3e} <= 0")


@pytest.mark.parametrize("mc, tol, want", [
    ("1e-3", None, SURROGATE_TOL_FLOOR),
    ("1e-3", "1e-12", SURROGATE_TOL_FLOOR),
    ("1e-3", "1e-9", 1e-9),
    ("0", None, CONFIG["comet.tol"][0]),
    ("0", "1e-12", 1e-12),
], ids=["surrogate-default", "surrogate-below-floor", "surrogate-above-floor",
        "conservative-default", "conservative-1e-12"])
def test_comet_manifest_records_the_tolerance_integrated_at(
        tmp_path, monkeypatch, mc, tol, want):
    # the surrogate run integrates at max(comet.tol, SURROGATE_TOL_FLOOR)
    # and the conservative one at comet.tol; the manifest says which
    seen = []
    if mc == "0":
        real = wacyl.cli.integrate_system

        def spy(*args, tol, **kw):
            seen.append(tol)
            return real(*args, tol=tol, **kw)
        monkeypatch.setattr(wacyl.cli, "integrate_system", spy)
    else:
        real = SurrogateSystem.integrate

        def spy(self, *args, tol, **kw):
            seen.append(tol)
            return real(self, *args, tol=tol, **kw)
        monkeypatch.setattr(SurrogateSystem, "integrate", spy)
    sets = ["--set", "comet.t_max=2"] + (["--set", f"comet.tol={tol}"]
                                         if tol else [])
    assert run_cli(["--out", str(tmp_path)] + sets
                   + ["simulate-comet", "--mc", mc]) == EXIT_PASS
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert seen == [want] and man["tol"] == want


def read_run(outdir):
    """{file name: contents} of a run directory, JSON without its
    timestamp."""
    files = {}
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            payload.pop("timestamp")
            files[path.name] = payload
        else:
            files[path.name] = path.read_bytes()
    return files


def test_shared_parser_gives_the_runs_made_alone(tmp_path):
    # main parses with one parser per process: a --set of one call
    # (comet.t_max here) must not reach the next through a default
    runs = [["--set", "comet.seed=3", "--set", "comet.t_max=1",
             "simulate-comet", "--mc", "0"],
            ["--set", "comet.seed=5", "simulate-comet", "--mc", "1e-3"]]
    src = Path(__file__).resolve().parents[1] / "src"
    for k, argv in enumerate(runs):
        assert main(["--out", str(tmp_path / f"shared{k}")] + argv) \
            == EXIT_PASS
    for k, argv in enumerate(runs):
        alone = tmp_path / f"alone{k}"
        out = subprocess.run(
            [sys.executable, "-m", "wacyl.cli", "--out", str(alone)] + argv,
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True, timeout=120)
        assert out.returncode == EXIT_PASS, out.stderr
        assert read_run(tmp_path / f"shared{k}") == read_run(alone)
    assert _parser.cache_info().misses == 1


def test_unknown_preset_is_config_error(tmp_path):
    code = run_cli(["--out", str(tmp_path), "solve",
                    "--preset", "bogus"])
    assert code == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("source", ["env", "set", "file"])
def test_mc_flag_wins_over_the_configuration(tmp_path, monkeypatch, source):
    # --mc is the --set item comet.mc, after the others: it wins over a
    # file line, a WACYL_* variable and an earlier --set
    cfg = tmp_path / "run.cfg"
    cfg.write_text("comet.mc=0\n")
    args = {"env": [], "set": ["--set", "comet.mc=0"],
            "file": ["--config", str(cfg)]}[source]
    if source == "env":
        monkeypatch.setenv("WACYL_COMET_MC", "0")
    out = tmp_path / "out"
    assert run_cli(["--out", str(out), "--set", "comet.t_max=2"] + args
                   + ["simulate-comet", "--mc", "1e-3"]) == EXIT_PASS
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "comet" and manifest["config"]["mc"] == 1e-3


def test_preset_flag_wins_over_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("WACYL_SOLVE_PRESET", "manufactured")
    assert run_cli(["--out", str(tmp_path)] + SMALL_SOLVE
                   + ["solve", "--preset", "manufactured-power"]) == EXIT_PASS
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert config["preset"] == "manufactured-power"


# an accepted value other than the default for every comet key the
# refusal cases alone reached
COMET_VALUES = {"e": "2.0", "v": "300", "t_peri": "-2", "eps": "0.2",
                "m0": "2", "m1": "2e-3", "m2": "5e-4", "a1": "0.1",
                "a2": "2", "xi0x": "0.1", "xi0y": "0.1"}
# the keys the conservative run reads too
CONSERVATIVE_KEYS = ("m0", "m1", "m2", "a1", "a2")


@pytest.mark.parametrize("name, mc", [
    *[(name, "1e-3") for name in COMET_VALUES],
    *[(name, "0") for name in CONSERVATIVE_KEYS],
], ids=[f"{name}-surrogate" for name in COMET_VALUES]
    + [f"{name}-conservative" for name in CONSERVATIVE_KEYS])
def test_every_comet_key_runs_at_an_accepted_value(tmp_path, name, mc):
    value = COMET_VALUES[name]
    assert run_cli(["--out", str(tmp_path), "--set", "comet.t_max=2",
                    "--set", f"comet.{name}={value}",
                    "simulate-comet", "--mc", mc]) == EXIT_PASS
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert config[name] == float(value)


def test_config_file_and_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsolve.eps=2e-3\nsolve.t_max=10\n")
    parsed = load_config(str(cfg))
    assert parsed["solve.eps"] == "2e-3"
    monkeypatch.setenv("WACYL_SOLVE_EPS", "5e-3")
    parsed = load_config(str(cfg))
    assert parsed["solve.eps"] == "5e-3"
    parsed = load_config(str(cfg), overrides=["solve.eps=7e-3"])
    assert parsed["solve.eps"] == "7e-3"
    with pytest.raises(ValueError):
        load_config(str(cfg), overrides=["notakeyvalue"])


def test_bad_config_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not key value\n")
    with pytest.raises(ValueError):
        load_config(str(cfg))


def test_check_failure_exit_code(tmp_path):
    # an impossible residual target must exit with a check failure
    code = run_cli(["--out", str(tmp_path),
                    "--set", "solve.target=1e-30",
                    "--set", "solve.max_steps=3",
                    "--set", "solve.torus_points=64",
                    "--set", "solve.n_times=32",
                    "solve", "--preset", "manufactured"])
    assert code == EXIT_CHECK_FAILURE


def test_a_solve_at_the_rounding_floor_passes_the_decrease_check(tmp_path):
    # Q = 1.8 reaches the rounding floor in the first step, and the next
    # two jitter upwards below target * max(1, r0), as iterate allows
    code = run_cli(["--out", str(tmp_path), "--set", "solve.q=1.8",
                    "solve"])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert {c["name"]: c["pass"] for c in summary["checks"]} == {
        "residual <= target": True,
        "monotone decrease (>=3 steps)": True,
        "|v - v*|_{1,1} <= 1e-4": True}
    r = json.loads((tmp_path / "manifest.json").read_text())[
        "true_residuals"]
    assert r[2] > r[1] and max(r[1:]) < 1e-6
    assert code == EXIT_PASS


@pytest.mark.parametrize("fixed_q, v", [(True, "6.000e-01"),
                                         (False, "5.713e-01")],
                         ids=["fixed-Q", "schedule-scan"])
def test_ball_exit_is_numerical_failure(tmp_path, capsys, fixed_q, v):
    # eps = 0.6 puts the first candidate at Q = 2 outside the momentum
    # ball of radius 0.5; the scan's choice Q = 1.369 (no trial contracts,
    # and the step refuses every larger Q) smooths more, so its first step
    # passes and its second candidate leaves the ball.  With or without
    # the schedule scan this is a numerical failure, not a configuration
    # error
    args = ["--out", str(tmp_path), "--set", "solve.eps=0.6",
            "--set", "solve.torus_points=32", "--set", "solve.n_times=24"]
    if fixed_q:
        args += ["--set", "solve.Q=2.0"]
    assert run_cli(args + ["solve"]) == EXIT_NUMERICAL_FAILURE
    err = capsys.readouterr().err
    assert f"|v| = {v} > 0.5" in err
    # the scan skips the trials that leave the ball instead of aborting
    assert (tmp_path / "schedule_scan.csv").exists() != fixed_q


@pytest.mark.parametrize("args, error", [
    # finite data whose numpy arithmetic overflows: no configuration
    # error on the inf samples built from it
    (["--set", "solve.eps=1e307", "solve"], "FloatingPointError"),
    (["--set", "solve.q=1e300", "solve"], "OverflowError"),
    (["--set", "comet.e=1e300", "simulate-comet", "--mc", "1e-3"],
     "OverflowError"),
    (["--set", "comet.v=1e150", "simulate-comet", "--mc", "1e-3"],
     "ZeroDivisionError"),
    (["--set", "comet.v=1e-150", "simulate-comet", "--mc", "1e-3"],
     "OverflowError"),
    (["--set", "comet.m0=1e300", "simulate-comet", "--mc", "1e-3"],
     "OverflowError"),
    # --mc wins over --set comet.mc, so the value goes in as the flag
    (["simulate-comet", "--mc", "1e300"], "OverflowError"),
], ids=["solve-eps", "solve-q", "comet-e",
        "comet-v-large", "comet-v-small", "comet-m0", "comet-mc"])
def test_arithmetic_error_is_numerical_failure(tmp_path, args, error):
    # accepted values whose float arithmetic overflows or divides by zero
    # exit as a numerical failure, not on a traceback with the exit code
    # of a check failure; numpy raises at the overflow instead of warning
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "wacyl.cli", "--out", str(tmp_path)] + args,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=60)
    assert out.returncode == EXIT_NUMERICAL_FAILURE
    assert "Traceback" not in out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert out.stderr.splitlines()[-1].startswith(
        f"numerical failure: {error}: ")


def test_a_conservative_run_builds_no_comet_orbit(tmp_path):
    # with mc = 0 the comet does not enter the run, so an orbit whose
    # a_h ** 3 overflows (comet.v = 1e-150) is never built
    code = run_cli(["--out", str(tmp_path), "--set", "comet.v=1e-150",
                    "--set", "comet.t_max=1", "simulate-comet", "--mc", "0"])
    assert code == EXIT_PASS


def test_zeta_below_the_budget_runs_the_scan_and_the_run(tmp_path,
                                                         monkeypatch):
    # just below the budget's bound, an explicit zeta is the budget of
    # the schedule scan's trials too, not only of the Newton run
    seen, scan = [], wacyl.cli.choose_schedule
    monkeypatch.setattr(wacyl.cli, "choose_schedule",
                        lambda H, p, zeta: seen.append(zeta)
                        or scan(H, p, zeta=zeta))
    code = run_cli(["--out", str(tmp_path)] + SMALL_SOLVE
                   + ["--set", "solve.zeta=0.1199", "solve"])
    assert code == EXIT_PASS
    assert seen == [0.1199]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["zeta"] == 0.1199


def test_fixed_q_from_environment(tmp_path, monkeypatch):
    # keys from the environment arrive lower-case, so the fixed Q must be
    # read as solve.q; whatever the case it was given in, it skips the scan
    monkeypatch.setenv("WACYL_SOLVE_Q", "2.0")
    assert load_config(None, []) == {"solve.q": "2.0"}
    assert load_config(None, ["solve.Q=3.0"]) == {"solve.q": "3.0"}
    run_cli(["--out", str(tmp_path), "--set", "solve.torus_points=32",
             "--set", "solve.n_times=24", "solve"])
    assert not (tmp_path / "schedule_scan.csv").exists()
    assert json.loads((tmp_path / "manifest.json").read_text())["Q"] == 2.0


SMALL_SOLVE = ["--set", "solve.torus_points=32", "--set", "solve.n_times=16"]
COMET_TOL_FLOOR = (
    "comet.tol = 1e-20 must be finite and positive, at least 2.22045e-14 "
    "(DOP853's rtol floor 100 eps; a run with mc > 0 integrates at "
    "max(comet.tol, 1e-10))")


@pytest.mark.parametrize("args", [
    SMALL_SOLVE + ["--set", "solve.t_max=5e102", "solve"],
    ["--set", "he.torus_points=16", "--set", "he.n_times=16",
     "--set", "he.t_max=1.3e154", "homological"],
], ids=["solve", "homological"])
def test_t_max_below_its_bound_runs_to_the_checks(tmp_path, args):
    # just below the bound of its t_max a command forms its largest time
    # power and reaches its verdicts, which a grid this coarse over such
    # a horizon fails, instead of an overflow
    assert run_cli(["--out", str(tmp_path)] + args) == EXIT_CHECK_FAILURE
    assert (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command, name", [
    (["--set", "comet.v=0", "simulate-comet"], "comet.v"),
    (["--set", "comet.eps=0", "simulate-comet"], "epsilon"),
    (["--set", "comet.t_max=0", "simulate-comet", "--mc", "0"], "t1"),
    (["--set", "comet.t_max=-5", "simulate-comet"], "t1"),
    (["--set", "comet.m1=-0.001", "simulate-comet", "--mc", "0"], "m1"),
    (["--set", "norms.trials=0", "verify-norms"], "norms.trials"),
    (["--set", "comet.tol=-1", "simulate-comet", "--mc", "0"],
     "comet.tol = -1.0 must be finite and positive"),
    # homological's problem is uncoupled (f = g = 0): it has no quad_tol
    (["--set", "he.quad_tol=nan", "homological"],
     "unknown key 'he.quad_tol' (--set)"),
    (["--set", "he.quad_tol=-1", "homological"],
     "unknown key 'he.quad_tol' (--set)"),
    (["--set", "he.quad_tol=1e-9", "homological"],
     "unknown key 'he.quad_tol' (--set)"),
    # no CLI solve has a coupled (f, g) series for a quad_tol to stop
    (SMALL_SOLVE + ["--set", "solve.quad_tol=nan", "solve"],
     "unknown key 'solve.quad_tol' (--set)"),
    (SMALL_SOLVE + ["--set", "solve.target=nan", "solve"],
     "solve.target = nan must be finite and positive"),
    (SMALL_SOLVE + ["--set", "solve.max_steps=0", "solve"],
     "solve.max_steps = 0 must be at least 3"),
    (SMALL_SOLVE + ["--set", "solve.max_steps=1", "solve"],
     "solve.max_steps = 1 must be at least 3"),
    # the monotone-decrease check reads MIN_STEPS = 3 steps, so a run
    # of 2 fails it whatever it computes
    (SMALL_SOLVE + ["--set", "solve.max_steps=2", "solve"],
     "solve.max_steps = 2 must be at least 3"),
    (["--set", "comet.e=nan", "simulate-comet"],
     "comet.e = nan must be finite and > 1"),
    (["--set", "comet.t_peri=nan", "simulate-comet"],
     "t_peri = nan must be finite"),
    (SMALL_SOLVE + ["--set", "solve.eps=nan", "solve"],
     "solve.eps = nan must be finite"),
    (SMALL_SOLVE + ["--set", "solve.t_max=nan", "solve"],
     "solve.t_max = nan must be finite and > 1"),
    (SMALL_SOLVE + ["--set", "solve.t_max=1", "solve"],
     "solve.t_max = 1.0 must be finite and > 1"),
    (["--set", "he.t_max=nan", "homological"],
     "he.t_max = nan must be finite and > 1"),
    (["--set", "he.t_max=0.5", "homological"],
     "he.t_max = 0.5 must be finite and > 1"),
    # the largest time power a command forms overflows beyond the bound:
    # t^3 in the manufactured data, t^2 in homological's z
    (["--set", "solve.t_max=1e300", "solve"],
     "solve.t_max = 1e+300 must be finite and > 1 (the time grid starts "
     "at t = 1) and < 5.6438e+102 (the manufactured data forms t^3)"),
    (["--set", "he.t_max=1e300", "homological"],
     "he.t_max = 1e+300 must be finite and > 1 (the time grid starts at "
     "t = 1) and < 1.34078e+154 (z = cos(2 pi q)/t^2 forms t^2)"),
    (["--set", "comet.a1=nan", "simulate-comet"],
     "comet.a1 = nan must be finite and > 0"),
    (["--set", "comet.a2=-1", "simulate-comet", "--mc", "0"],
     "comet.a2 = -1.0 must be finite and > 0"),
    # CircularChart divides by a^3, which underflows to 0 at a = 1e-300
    # (a ZeroDivisionError, exit 3, until the bound) and overflows at 1e200
    (["--set", "comet.a1=1e-300", "simulate-comet", "--mc", "0"],
     "comet.a1 = 1e-300 must be finite and > 0 with a^3 a normal float, "
     ">= 2.8126442852362986e-103 and < 5.6438e+102 (CircularChart divides "
     "by a^3)"),
    (["--set", "comet.a2=1e200", "simulate-comet", "--mc", "1e-3"],
     "comet.a2 = 1e+200 must be finite and > 0 with a^3 a normal float"),
    # 1 + t_max == 1 left DOP853 an empty span, refused without the key
    (["--set", "comet.t_max=1e-300", "simulate-comet", "--mc", "0"],
     "comet.t_max = 1e-300 must be finite and positive, the run ending at "
     "t1 = 1 + t_max with t1 - 1 >= 4.418687638008123e-14 (below, the 200 "
     "uniform or 120 geometric sample times of [1, t1] repeat)"),
    (["--set", "comet.t_max=1.1102230246251565e-16", "simulate-comet"],
     "comet.t_max = 1.1102230246251565e-16 must be finite and positive"),
    # accepted by the 1 + t_max > 1 rule, whose 200 uniform samples then
    # repeated: DOP853 refused their t_eval without naming the key
    (["--set", "comet.t_max=2.3e-16", "simulate-comet", "--mc", "0"],
     "comet.t_max = 2.3e-16 must be finite and positive, the run ending at "
     "t1 = 1 + t_max with t1 - 1 >= 4.418687638008123e-14"),
    (["--set", "comet.xi0x=nan", "simulate-comet"],
     "comet.xi0x = nan must be finite"),
    (["--set", "comet.xi0y=inf", "simulate-comet"],
     "comet.xi0y = inf must be finite"),
    # C_bar is the constant celestial.C_BAR, no key
    (["--set", "comet.cbar=nan", "simulate-comet"],
     "unknown key 'comet.cbar' (--set)"),
    (SMALL_SOLVE + ["--set", "solve.s=nan", "solve"],
     "solve.s = nan must be finite and >= 8"),
    (SMALL_SOLVE + ["--set", "solve.torus_points=7", "solve"],
     "solve.torus_points = 7 must be a power of two"),
    (["--set", "he.torus_points=7", "homological"],
     "he.torus_points = 7 must be a power of two"),
    (["--set", "solve.torus_points=2", "--set", "solve.n_times=16",
      "solve"], "solve.torus_points = 2 must be a power of two, at least 4"),
    (["--set", "he.torus_points=2", "homological"],
     "he.torus_points = 2 must be a power of two, at least 4"),
    (SMALL_SOLVE + ["--set", "solve.n_times=1", "solve"],
     "solve.n_times = 1 must be at least 2"),
    (["--set", "he.n_times=1", "homological"],
     "he.n_times = 1 must be at least 2"),
    (["--set", "comet.v=inf", "simulate-comet"],
     "comet.v = inf must be finite and > 0"),
    (["--set", "comet.e=0.5", "simulate-comet"],
     "comet.e = 0.5 must be finite and > 1"),
    (["--set", "comet.seed=-1", "simulate-comet"],
     "comet.seed = -1 must be a non-negative integer"),
    (["--set", "norms.seed=-1", "verify-norms"],
     "norms.seed = -1 must be a non-negative integer"),
    (SMALL_SOLVE + ["--set", "solve.q=nan", "solve"],
     "solve.q = nan must be finite and > 1"),
    (SMALL_SOLVE + ["--set", "solve.zeta=-1", "solve"],
     "solve.zeta = -1.0 must be finite and > 0"),
    # delta + C Upsilon zeta reaches 1/c_kappa(1) = 0.25 at zeta = 0.12,
    # where right_inverse refuses every step whatever the data
    (SMALL_SOLVE + ["--set", "solve.zeta=0.12", "solve"],
     "solve.zeta = 0.12 must be finite and > 0 with delta + C Upsilon "
     "zeta < 1/c_kappa(1) = 0.25 (zeta < 0.12)"),
    (SMALL_SOLVE + ["--set", "solve.upsilon=0", "solve"],
     "unknown key 'solve.upsilon' (--set)"),
    (SMALL_SOLVE + ["--set", "solve.epsilon0=-5", "solve"],
     "unknown key 'solve.epsilon0' (--set)"),
    (["--set", "solve.typo=3", "--set", "norms.trials=1", "verify-norms"],
     "unknown key 'solve.typo' (--set); did you mean 'solve.eps'?"),
    (["simulate-comet", "--mc", "-1"],
     "comet.mc = -1.0 must be finite and >= 0"),
    # --mc is the --set item comet.mc=abc, which CONFIG casts
    (["simulate-comet", "--mc", "abc"],
     "comet.mc = 'abc' is not a valid float"),
    (["--set", "comet.m0=0", "simulate-comet", "--mc", "0"],
     "comet.m0 = 0.0 must be finite and > 0"),
    (["--set", "comet.m0=nan", "simulate-comet"],
     "comet.m0 = nan must be finite and > 0"),
    (["--set", "comet.m2=inf", "simulate-comet", "--mc", "0"],
     "comet.m2 = inf must be finite and >= 0"),
    (["--set", "comet.eps=0.7", "simulate-comet", "--mc", "0"],
     "comet.eps = 0.7 must be an extension epsilon in (0, 1/2]"),
    (["solve", "--preset", "bogus"],
     "solve.preset = bogus must be one of manufactured, "
     "manufactured-power"),
    # DOP853 used to raise such an rtol to its floor with a warning while
    # the manifest recorded the tolerance asked for
    (["--set", "comet.tol=1e-20", "--set", "comet.t_max=0.01",
      "simulate-comet", "--mc", "0"], COMET_TOL_FLOOR),
    (["--set", "comet.tol=1e-20", "simulate-comet", "--mc", "1e-3"],
     COMET_TOL_FLOOR),
], ids=["comet-v-zero", "comet-eps-zero", "comet-t-max-zero",
        "comet-t-max-negative", "comet-m1-negative", "norms-no-trials",
        "comet-tol-negative", "he-quad-tol-nan", "he-quad-tol-negative",
        "he-quad-tol-old-default",
        "solve-quad-tol-nan", "solve-target-nan", "solve-max-steps-0",
        "solve-max-steps-1", "solve-max-steps-2", "comet-e-nan",
        "comet-t-peri-nan", "solve-eps-nan",
        "solve-t-max-nan", "solve-t-max-one",
        "he-t-max-nan", "he-t-max-below-one", "solve-t-max-overflow",
        "he-t-max-overflow", "comet-a1-nan",
        "comet-a2-negative", "comet-a1", "comet-a2-overflow",
        "comet-t-max-no-span", "comet-t-max-half-ulp",
        "comet-t-max-repeated-samples",
        "comet-xi0x-nan", "comet-xi0y-inf",
        "comet-cbar-nan", "solve-s-nan", "solve-torus-points-7",
        "he-torus-points-7", "solve-torus-points-2", "he-torus-points-2",
        "solve-n-times-1", "he-n-times-1",
        "comet-v-inf", "comet-e-below-one", "comet-seed-negative",
        "norms-seed-negative", "solve-q-nan",
        "solve-zeta-negative", "solve-zeta-budget", "solve-upsilon-zero",
        "solve-epsilon0-negative", "unknown-key-set", "comet-mc-negative",
        "comet-mc-not-a-float",
        "comet-m0-zero-conservative", "comet-m0-nan", "comet-m2-inf",
        "comet-eps-conservative", "solve-preset-unknown",
        "comet-tol-below-floor-conservative",
        "comet-tol-below-floor-surrogate"])
def test_bad_config_is_config_error(tmp_path, capsys, command, name):
    # refused at the boundary with the offending key or value named,
    # not a traceback, a nan check or a vacuous pass
    assert run_cli(["--out", str(tmp_path)] + command) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and name in err


def distinct(times):
    return bool(np.all(np.diff(times) > 0))


def test_comet_bounds_sit_where_the_arithmetic_fails():
    # comet.t_max is refused exactly where the sample times of a comet
    # run repeat, and comet.a1 and comet.a2 at the ends of their domain
    # keep a^3 normal
    ok_t = CONFIG["comet.t_max"][2][0]
    eps = sys.float_info.epsilon
    # n uniform or geometric times of [1, 1 + k eps] are distinct from
    # k = n - 1 on
    for n, space in ((TRAJECTORY_SAMPLES, np.linspace),
                     (SURROGATE_SAMPLES, np.geomspace)):
        assert distinct(space(1.0, 1.0 + (n - 1) * eps, n))
        assert not distinct(space(1.0, 1.0 + (n - 2) * eps, n))
    # the uniform samples need the more: 1 + t_max must round to
    # 1 + 199 eps, which it does above 198.5 eps (the tie goes to the
    # even 1 + 198 eps)
    n = max(TRAJECTORY_SAMPLES, SURROGATE_SAMPLES)
    assert n == TRAJECTORY_SAMPLES
    tie = (n - 1.5) * eps
    assert 1.0 + tie == 1.0 + (n - 2) * eps
    bound = math.nextafter(tie, 1.0)
    assert ok_t(bound) and distinct(np.linspace(1.0, 1.0 + bound, n))
    assert not ok_t(tie) and not distinct(np.linspace(1.0, 1.0 + tie, n))
    # 2^-53, where 1 + t_max rounds to 1, is refused as before
    assert not ok_t(eps / 2) and not ok_t(math.nextafter(eps / 2, 1.0))
    lo, hi = wacyl.cli._A_MIN, math.nextafter(wacyl.cli._A_MAX, 0.0)
    for key in ("comet.a1", "comet.a2"):
        ok_a = CONFIG[key][2][0]
        assert ok_a(lo) and not ok_a(math.nextafter(lo, 0.0))
        assert ok_a(hi) and not ok_a(wacyl.cli._A_MAX)
    # a float power that overflows raises OverflowError
    assert sys.float_info.min <= lo ** 3 and hi ** 3 < math.inf


@pytest.mark.parametrize("mc", ["0", "1e-3"])
def test_comet_t_max_at_its_bound_runs(tmp_path, mc):
    # the smallest accepted span runs in both modes
    bound = math.nextafter((TRAJECTORY_SAMPLES - 1.5) * sys.float_info.epsilon,
                           1.0)
    assert run_cli(["--out", str(tmp_path), "--set", f"comet.t_max={bound!r}",
                    "simulate-comet", "--mc", mc]) == EXIT_PASS


def test_zero_eps_is_the_zero_problem(tmp_path):
    # eps = 0 scales the data to zero: v = 0 solves it, so every residual
    # and step is 0 and all three checks pass
    code = run_cli(["--out", str(tmp_path)] + SMALL_SOLVE
                   + ["--set", "solve.eps=0", "solve"])
    assert code == EXIT_PASS
    rows = (tmp_path / "iterations.csv").read_text().splitlines()
    assert len(rows) > 3
    for row in rows[1:]:
        assert [float(c) for c in row.split(",")[3:]] == [0.0] * 4


@pytest.mark.parametrize("key", [
    "solve.torus_points", "solve.n_times", "solve.max_steps",
    "he.torus_points", "he.n_times", "comet.seed", "norms.seed",
    "norms.trials"])
def test_non_integer_int_key_is_config_error(tmp_path, capsys, key):
    # int(float(...)) used to truncate: he.torus_points=64.9 ran on 64
    # points without a word
    command = {"solve": "solve", "he": "homological",
               "comet": "simulate-comet", "norms": "verify-norms"}
    code = run_cli(["--out", str(tmp_path), "--set", f"{key}=16.7",
                    command[key.split(".")[0]]])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"{key} = '16.7' is not a valid int" in err


@pytest.mark.parametrize("mc, t_max", [
    ("0", "0"), ("1e-3", "-5"), ("1e-3", "nan"), ("0", "inf"),
], ids=["comet-t-max-zero", "comet-t-max-negative", "comet-t-max-nan",
        "comet-t-max-inf"])
def test_bad_t_max_refused_before_any_work(tmp_path, capsys, mc, t_max):
    # refused next to the comet.v check: no speed window on nan nodes
    # (numpy's log10 RuntimeWarning) and no integration before the error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(["--out", str(tmp_path), "--set",
                        f"comet.t_max={t_max}", "simulate-comet",
                        "--mc", mc])
    assert code == EXIT_CONFIG_ERROR
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert f"comet.t_max = {float(t_max)} must be finite and positive" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("mc", ["0", "1e-3"])
def test_nan_comet_tol_is_refused_at_once(tmp_path, mc):
    # DOP853 with a nan rtol never finishes; the subprocess's timeout
    # turns such a hang into a failure instead of a stalled suite
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "wacyl.cli", "--out", str(tmp_path), "--set",
         "comet.tol=nan", "simulate-comet", "--mc", mc],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=60)
    assert out.returncode == EXIT_CONFIG_ERROR
    assert "comet.tol = nan must be finite and positive" in out.stderr
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("source", ["file", "env"])
def test_unknown_key_names_its_source(tmp_path, capsys, monkeypatch,
                                      source):
    # a misspelt key used to be ignored without a word; --set is a case
    # of test_bad_config_is_config_error
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsolve.eps=2e-3\n\ncomet.tmax=5\n")
    args = ["--config", str(cfg)] if source == "file" else []
    if source == "env":
        monkeypatch.setenv("WACYL_COMET_TMAX", "5")
    out = tmp_path / "out"
    assert run_cli(["--out", str(out)] + args + [
        "--set", "norms.trials=1", "verify-norms"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    where = f"{cfg}:4" if source == "file" else "WACYL_COMET_TMAX"
    assert err == (f"configuration error: unknown key 'comet.tmax' "
                   f"({where}); did you mean 'comet.t_max'?\n")
    assert os.listdir(out) == []


@pytest.mark.parametrize("sets, command, section, shorthand", [
    (["solve.torus_points=32", "solve.n_times=24", "solve.Q=2.0"],
     ["solve", "--preset", "manufactured-power"], "solve",
     ["solve.preset=manufactured-power"]),
    (["he.n_times=16", "he.torus_points=32"], ["homological"], "he", []),
    (["comet.t_max=2"], ["simulate-comet", "--mc", "0"], "comet",
     ["comet.mc=0"]),
    (["comet.t_max=2"], ["simulate-comet", "--mc", "1e-3"], "comet",
     ["comet.mc=1e-3"]),
    (["norms.trials=1"], ["verify-norms"], "norms", []),
], ids=["solve", "homological", "comet-conservative", "comet-surrogate",
        "verify-norms"])
def test_manifest_records_the_resolved_config(tmp_path, sets, command,
                                              section, shorthand):
    overrides = [arg for item in sets for arg in ("--set", item)]
    code = run_cli(["--out", str(tmp_path)] + overrides + command)
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    # every key of the section, the given ones and the defaults; --preset
    # and --mc are --set items after the others
    assert config == read_section(load_config(None, sets + shorthand),
                                  section)
    assert set(config) == {key.split(".")[1] for key in CONFIG
                           if key.startswith(section + ".")}
    for item in sets:
        key, value = item.lower().split("=")
        assert config[key.split(".")[1]] == CONFIG[key][1](value)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert code == (EXIT_PASS if summary["pass"] else EXIT_CHECK_FAILURE)


def test_only_main_runs_the_contract():
    # the run skeleton lives in main: no command loads the configuration,
    # reads its section, writes manifest.json or summarises its checks
    src = Path(__file__).resolve().parents[1] / "src" / "wacyl" / "cli.py"
    contract = {"load_config", "read_section", "_summary", "manifest.json"}
    users = {}
    for fn in ast.parse(src.read_text()).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node, ast.Constant):
                    name = node.value
                else:
                    continue
                if name in contract:
                    users.setdefault(name, set()).add(fn.name)
    assert users == {name: {"main"} for name in contract}


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_is_config_error(tmp_path, capsys, kind):
    # an OSError of the read is a configuration error naming the path,
    # not a traceback with the exit code of a check failure
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    out = tmp_path / "out"
    assert run_cli(["--out", str(out), "--config", str(path),
                    "--set", "norms.trials=1", "verify-norms"]) \
        == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read {path}: ")
    assert os.listdir(out) == []


def test_readme_config_table_matches_config():
    # the README's key table lists every key of CONFIG with its default
    # and domain, and no other
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().split("| key | default | domain |\n")[1]
    rows = [line.split("|")[1:4]
            for line in text.split("\n\n")[0].splitlines()[1:]]
    table = {key.strip().strip("`"): (default.strip().strip("`"),
                                      domain.strip())
             for key, default, domain in rows}
    assert set(table) == set(CONFIG)
    for key, (default, cast, (_, domain)) in CONFIG.items():
        text, doc_domain = table[key]
        assert (None if text == "unset" else cast(text)) == default, key
        assert doc_domain == domain, key


def _assigned_on_self(cls):
    """Names the methods of cls assign as self.<name>."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"}


def test_readme_primitive_table_owners_exist():
    # every backticked dotted name in the owner column of the README's
    # primitive table, call parentheses stripped, is a module attribute,
    # a class attribute or an attribute a method of the class assigns on
    # self: a deleted or renamed owner cannot stay in the table
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().split("| primitive | owner | used by |\n")[1]
    owners = [re.split(r"(?<!\\)\|", line)[2]
              for line in text.split("\n\n")[0].splitlines()[1:]]
    names = [re.sub(r"\(.*\)$", "", name)
             for cell in owners for name in re.findall(r"`([^`]+)`", cell)]
    names = [name for name in names if "." in name]
    modules = {info.name: importlib.import_module(f"wacyl.{info.name}")
               for info in pkgutil.iter_modules(wacyl.__path__)}
    classes = {name: obj for mod in modules.values()
               for name, obj in vars(mod).items()
               if inspect.isclass(obj) and obj.__module__ == mod.__name__}
    assert len(names) > 20
    missing = []
    for name in names:
        head, attr = name.split(".", 1)
        if head in modules:
            found = hasattr(modules[head], attr)
        else:
            cls = classes.get(head)
            found = cls is not None and (
                hasattr(cls, attr) or attr in _assigned_on_self(cls))
        if not found:
            missing.append(name)
    assert missing == []


def _wacyl_namespace():
    """The wacyl modules by name, and every class and function a wacyl
    module defines, by its bare name."""
    modules = {info.name: importlib.import_module(f"wacyl.{info.name}")
               for info in pkgutil.iter_modules(wacyl.__path__)}
    defined = {name: obj for mod in modules.values()
               for name, obj in vars(mod).items()
               if (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == mod.__name__}
    return modules, defined


def test_readme_calls_match_their_signatures():
    # a backticked call in README.md of a wacyl module or class attribute
    # (`HamiltonianSpec(omega, a, b, M0)`, `TimeGrid.window(i, width)`,
    # `norms.holder_norm(f, sigma)`) whose arguments are bare names
    # spells a prefix of the callable's parameters, self left out: a
    # renamed or dropped parameter cannot stay in the README.  Calls with
    # literals or keywords, and names outside wacyl, are not checked.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = re.sub(r"```.*?```", "", readme.read_text(), flags=re.S)
    modules, defined = _wacyl_namespace()
    checked, wrong = [], []
    for code in re.findall(r"`([^`]+)`", text):
        call = re.fullmatch(r"([A-Za-z_][\w.]*)\(([^()]*)\)", code.strip())
        if call is None:
            continue
        name, arglist = call.groups()
        args = [arg.strip() for arg in arglist.split(",") if arg.strip()]
        if not all(arg.isidentifier() for arg in args):
            continue
        head, _, attr = name.partition(".")
        if head in modules and attr:
            obj = getattr(modules[head], attr, None)
        elif head in defined:
            obj = getattr(defined[head], attr, None) if attr \
                else defined[head]
        else:
            continue
        assert callable(obj), code
        params = [p for p in inspect.signature(obj).parameters
                  if p != "self"]
        checked.append(code)
        if args != params[:len(args)]:
            wrong.append((code, params))
    assert len(checked) >= 5
    assert wrong == []


def test_documented_subcommands_are_the_parsers():
    # the subcommands named in README's layout row of wacyl.cli, in its
    # CLI block and in the cli docstring are the parser's subparsers:
    # a removed or renamed subcommand cannot stay documented
    sub, = [action for action in _parser()._actions
            if isinstance(action, argparse._SubParsersAction)]
    parsers = set(sub.choices)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    row, = [line for line in readme.splitlines()
            if line.startswith("| `wacyl.cli`")]
    block = readme.split("## CLI\n\n```\n")[1].split("```")[0]
    docline, = [line for line in wacyl.cli.__doc__.splitlines()
                if line.startswith("Subcommands: ")]
    assert set(re.findall(r"`([a-z-]+)`", row.split("|")[2])) == parsers
    assert {line.split()[3] for line in block.splitlines()} == parsers
    assert set(docline[len("Subcommands: "):].rstrip(".").split(", ")) \
        == parsers


# ---- output writers --------------------------------------------------

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
               1.7976931348623157e308, 1e-17]
# every cell type a CLI table holds: Python and numpy numbers and bools
CELLS = st.one_of(
    st.floats(), st.sampled_from(EDGE_FLOATS), st.integers(), st.booleans(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(CELLS, min_size=width, max_size=width), max_size=8)))
@example([EDGE_FLOATS, [1, True, np.float64(-0.0), np.float32(0.1),
                        np.int64(-7), np.bool_(False), np.float64(5e-324)]])
def test_csv_writer_writes_the_bytes_of_csv_writer(rows):
    header = [f"c{i}" for i in range(max(map(len, rows), default=1))]
    with tempfile.TemporaryDirectory() as tmp:
        want = Path(tmp) / "want.csv"
        csv_writer_csv(want, header, rows)
        got = Path(_write_csv(tmp, "got.csv", header, rows))
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("cell", ["1.0", None, np.str_("x")])
def test_csv_writer_refuses_a_cell_that_is_not_a_number(tmp_path, cell):
    with pytest.raises(ValueError, match=r"^t\.csv: column b holds "):
        _write_csv(tmp_path, "t.csv", ["a", "b"], [[1.0, 2.0], [3.0, cell]])


def test_manifest_is_one_key_per_line_with_the_payload_of_indented_json(
        tmp_path):
    payload = {"count": np.int64(3), "ratio": np.float64(0.1),
               "single": np.float32(0.1), "ok": np.bool_(True),
               "missing": math.nan, "empty": {}, "name": "Hölder \u03c3",
               "rows": [{"t": 1.0, "pass": np.bool_(False)}, [1, [2.5]]],
               "nested": {"a": {"b": [np.float64(-0.0), None]}}}
    text = Path(_write_manifest(tmp_path, "m.json", payload)).read_text()
    got = json.loads(text)
    assert got.pop("timestamp")
    want = json.loads(json.dumps(payload, indent=1,
                                 default=lambda x: x.item()))
    # nan is not equal to itself, so the payloads compare as text
    assert json.dumps(got) == json.dumps(want)
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    assert [line.split(":")[0] for line in lines[1:-1]] == \
        [f" {json.dumps(key)}" for key in [*payload, "timestamp"]]


def test_no_json_call_in_the_library_passes_indent():
    # an indent sends json to its pure-Python encoder; the first line
    # that passes one is reported
    src = Path(__file__).resolve().parents[1] / "src" / "wacyl"
    found = [(path.name, node.lineno)
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dump", "dumps")
             and getattr(node.func.value, "id", None) == "json"
             and any(kw.arg == "indent" for kw in node.keywords)]
    assert found == []
