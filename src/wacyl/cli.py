"""Command-line orchestration: configuration, dispatch, persistence.

Subcommands: solve, homological, simulate-comet, verify-norms.
Each is cmd_x(conf, outdir) -> (manifest, checks) on its resolved
configuration section and writes only its own files (CSV, .wgf, JSON
reports).  main reads the configuration, writes manifest.json (the
section under "config") and summary.json, and exits 0 pass, 1 check
failure, 2 configuration error (an unreadable --config included),
3 numerical failure (an overflow or a division by zero included).
Identical config and seed give identical CSVs.  A CSV cell is the repr
of a number and a line ends in \\r\\n, the bytes csv.writer writes; a
JSON file holds one top-level key per line, its value compact.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np
# numpy loads numpy.random on first use; the comet and norm commands
# draw from it, so it loads with the CLI rather than inside a run
from numpy.random import default_rng

from . import constants
from .celestial import (CircularChart, CometOrbit, ExtensionParams,
                        Masses, SurrogateSystem, asymptotic_metric,
                        check_speed_window, confinement_check,
                        extend_Hc, integrate_system)
from .dop853 import RTOL_MIN
from .flow import NumericalError
from .functional import mu_budget
from .grids import GridFn, SpatialGrid, TimeGrid
from .homological import HomologicalProblem, estimate_check, residual_he, \
    solve_he
from .nashmoser import (choose_schedule, iterate, manufactured_power,
                        manufactured_single, monitor, params_from_order)
from .norms import norm_algebra_check, random_modes, weighted_norm
from .smoothing import verify_smoothing_bounds

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def _finite(op, lo, note=""):
    """The domain of finite values op lo, op one of > and >=."""
    return ((lambda x: lo < x < math.inf) if op == ">" else
            (lambda x: lo <= x < math.inf)), f"finite and {op} {lo}{note}"


def _one_of(*names):
    return lambda x: x in names, "one of " + ", ".join(names)


def _t_max(power, source):
    """The domain of a t_max whose largest time power t^power, which
    source forms on the time grid, is a finite float: 1 < t_max <
    (largest float)^(1/power)."""
    bound = sys.float_info.max ** (1.0 / power)
    return (lambda t: 1 < t < bound,
            f"finite and > 1 (the time grid starts at t = 1) and < "
            f"{bound:.6g} ({source} forms t^{power})")


# domains shared by several keys: (ok, the domain a refusal names)
FINITE = (math.isfinite, "finite")
GT0, GE0 = _finite(">", 0), _finite(">=", 0)
# with a nan tolerance an adaptive integration never ends, a correction
# loop runs to its cap and no residual meets it
TOL = (GT0[0], "finite and positive")
# right_inverse refuses, whatever the data, a zeta whose budget
# delta + C Upsilon zeta (affine in zeta) reaches its gate
_DELTA, _GATE = mu_budget(0.0)
_ZETA_MAX = (_GATE - _DELTA) / (mu_budget(1.0)[0] - _DELTA)
ZETA = (lambda z: GT0[0](z) and mu_budget(z)[0] < _GATE,
        f"finite and > 0 with delta + C Upsilon zeta < 1/c_kappa(1) = "
        f"{_GATE:g} (zeta < {_ZETA_MAX:g})")
_A_MIN, _A_MAX = sys.float_info.min ** (1 / 3), sys.float_info.max ** (1 / 3)
CIRCLE = (lambda a: _A_MIN <= a < _A_MAX,
          f"finite and > 0 with a^3 a normal float, >= {_A_MIN!r} and < "
          f"{_A_MAX:.6g} (CircularChart divides by a^3)")
# on 2 or fewer torus points every non-constant mode is the Nyquist
# mode, whose derivative the grid sets to zero
POW2 = (lambda n: n >= 4 and not n & (n - 1), "a power of two, at least 4")
AT_LEAST_2 = (lambda n: n >= 2, "at least 2")
SEED = (lambda n: n >= 0, "a non-negative integer")
# homological's bound on |F(kappa)|: its f = g = 0 problem has no
# correction series for a quad_tol to stop
HE_RESIDUAL_TOL = 1e-8
# the surrogate run integrates at max(comet.tol, SURROGATE_TOL_FLOOR)
SURROGATE_TOL_FLOOR = 1e-10
# solve runs at least MIN_STEPS Newton steps, and its monotone-decrease
# check reads that many
MIN_STEPS = 3
SOLVE_PRESETS = {"manufactured": manufactured_single,
                 "manufactured-power": manufactured_power}
# every configuration key: (default, type, (ok, domain)); a None
# default leaves the key unset unless it is given
CONFIG = {
    "solve.preset": ("manufactured", str, _one_of(*SOLVE_PRESETS)),
    "solve.eps": (1e-3, float, FINITE),
    "solve.torus_points": (128, int, POW2),
    "solve.n_times": (64, int, AT_LEAST_2),
    "solve.t_max": (20.0, float, _t_max(3, "the manufactured data")),
    # params_from_order's minimal order s >= 8 (loss exponent gamma = 1)
    "solve.s": (8.0, float, _finite(">=", 8)),
    "solve.target": (1e-6, float, TOL),
    "solve.max_steps": (12, int, (lambda n: n >= MIN_STEPS,
                                  f"at least {MIN_STEPS}")),
    # an explicit Q replaces the scanned one; the smoothing times
    # t_j = Q^(alpha beta^j) grow only for Q > 1, and zeta is a size
    "solve.q": (None, float, _finite(">", 1)),
    "solve.zeta": (None, float, ZETA),
    "he.torus_points": (128, int, POW2),
    "he.n_times": (64, int, AT_LEAST_2),
    "he.t_max": (20.0, float, _t_max(2, "z = cos(2 pi q)/t^2")),
    "comet.mc": (1e-3, float, GE0),
    "comet.eps": (0.1, float, (lambda x: 0 < x <= 0.5,
                               "an extension epsilon in (0, 1/2]")),
    "comet.e": (1.5, float, _finite(">", 1, " (a hyperbolic orbit)")),
    "comet.v": (250.0, float, GT0),
    "comet.t_max": (100.0, float, (lambda t: 1.0 < 1.0 + t < math.inf, (
        f"finite and positive (the run ends at t1 = 1 + t_max, above 1 "
        f"for t_max > 2^-53 = {sys.float_info.epsilon / 2!r})"))),
    "comet.t_peri": (-1.0, float, FINITE),
    "comet.tol": (1e-11, float, (
        lambda x: RTOL_MIN <= x < math.inf,
        f"finite and positive, at least {RTOL_MIN:g} (DOP853's rtol floor "
        f"100 eps; a run with mc > 0 integrates at max(comet.tol, "
        f"{SURROGATE_TOL_FLOOR:g}))")),
    "comet.seed": (0, int, SEED),
    "comet.m0": (1.0, float, GT0),
    "comet.m1": (1e-3, float, GE0),
    "comet.m2": (1e-3, float, GE0),
    "comet.a1": (0.05, float, CIRCLE),
    "comet.a2": (1.0, float, CIRCLE),
    "comet.xi0x": (0.3, float, FINITE),
    "comet.xi0y": (-0.2, float, FINITE),
    "comet.cbar": (1.0, float, GE0),
    "norms.seed": (0, int, SEED),
    "norms.trials": (3, int, (lambda n: n >= 1, "at least 1")),
}


def load_config(path=None, overrides=()):
    """Flat key=value pairs with section prefixes (section.key=value);
    environment variables WACYL_SECTION_KEY override file values, and
    explicit overrides win over both.  Keys are case-insensitive and
    stored lower-case; a key CONFIG does not know is refused, naming
    its source."""
    cfg = {}

    def put(key, val, source):
        key = key.strip().lower()
        if key not in CONFIG:
            from difflib import get_close_matches
            close = get_close_matches(key, CONFIG, n=1)
            raise ValueError(f"unknown key {key!r} ({source})" + (
                f"; did you mean {close[0]!r}?" if close else ""))
        cfg[key] = val
    if path:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc.strerror}") from None
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            put(key, val.strip(), f"{path}:{number}")
    for key, val in os.environ.items():
        if key.startswith("WACYL_"):
            put(key[len("WACYL_"):].replace("_", ".", 1), val, key)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"bad override: {item!r}")
        key, val = item.split("=", 1)
        put(key, val.strip(), "--set")
    return cfg


def read_section(cfg, section, **flags):
    """{name: value} of every key of the section: the cast of cfg's
    value, else the flag's when it is not None, else the default.  A
    value the cast or the domain refuses raises ValueError naming the
    key and the value."""
    out = {}
    for key, (default, cast, (ok, domain)) in CONFIG.items():
        head, _, name = key.partition(".")
        if head != section:
            continue
        if key in cfg:
            try:
                value = cast(cfg[key])
            except ValueError:
                raise ValueError(f"{key} = {cfg[key]!r} is not a valid "
                                 f"{cast.__name__}") from None
        else:
            value = default if flags.get(name) is None else flags[name]
        if value is not None and not ok(value):
            raise ValueError(f"{key} = {value} must be {domain}")
        out[name] = value
    return out


# numpy scalars as the Python value they hold (np.bool_ stays a bool);
# without indent, encode runs in the C encoder
_JSON = json.JSONEncoder(default=lambda x: x.item())
# the cell types whose repr is the number itself
_NUMBER = frozenset((float, int, bool))


def _write_manifest(outdir, name, payload):
    """One top-level key per line, each value compact JSON."""
    payload = dict(payload)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    path = os.path.join(outdir, name)
    text = "{\n" + ",\n".join(f" {json.dumps(key)}: {_JSON.encode(value)}"
                               for key, value in payload.items()) + "\n}"
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_csv(outdir, name, header, rows):
    """csv.writer's bytes for a table of numbers; any other cell is
    refused."""
    path = os.path.join(outdir, name)
    lines = [",".join(header)]
    for row in rows:
        if not _NUMBER.issuperset(map(type, row)):
            # a numpy scalar would repr as "np.float64(...)", so it goes
            # in as its Python value
            row = [v.item() if isinstance(v, np.generic) else v for v in row]
            for column, v in zip(header, row):
                if type(v) not in _NUMBER:
                    raise ValueError(f"{name}: column {column} holds {v!r}, "
                                     "not a number")
        lines.append(",".join(map(repr, row)))
    lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
    return path


def _summary(outdir, checks):
    ok = all(c["pass"] for c in checks)
    _write_manifest(outdir, "summary.json",
                    {"pass": ok, "checks": checks})
    for c in checks:
        print(f"[{'PASS' if c['pass'] else 'FAIL'}] {c['name']}"
              + (f"  ({c.get('detail', '')})" if c.get("detail") else ""))
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


# --------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------

def cmd_solve(conf, outdir):
    explicit = {name: conf[name.lower()]
                for name in ("Q", "zeta")
                if conf[name.lower()] is not None}
    H, vstar = SOLVE_PRESETS[conf["preset"]](
        conf["eps"], torus_points=conf["torus_points"],
        n_times=conf["n_times"], t_max=conf["t_max"])
    p = params_from_order(conf["s"]).replace(**explicit)
    if "Q" not in explicit:
        p, scan = choose_schedule(H, p)
        _write_csv(outdir, "schedule_scan.csv",
                   ["Q", "upsilon", "r1", "envelope"],
                   [[r["Q"], r["upsilon"], r["r1"], r["envelope"]]
                    for r in scan])
    sol, state = iterate(H, p, max_steps=conf["max_steps"],
                         target=conf["target"], min_steps=MIN_STEPS)
    mon = monitor(state, p, H.omega)
    rows = []
    for d, row in enumerate(mon["rows"], start=1):
        rows.append([d, p.tau_j(d), p.t_j(d),
                     state.residual_norms[d], state.true_residuals[d],
                     row["step_low"], row["step_high"]])
    _write_csv(outdir, "iterations.csv",
               ["j", "tau_j", "t_j", "paired_residual", "true_residual",
                "step_low", "step_high"], rows)
    sol.v.save(os.path.join(outdir, "v.wgf"))
    sol.gamma.save(os.path.join(outdir, "gamma.wgf"))
    manifest = {**sol.manifest,
                "monitor": {k: v for k, v in mon.items() if k != "rows"}}
    # iterate's stopping floor, target * max(1, r0)
    floor = sol.manifest["floor"]
    r = state.true_residuals
    checks = [
        {"name": "residual <= target", "pass": sol.residual_norm <= floor,
         "detail": f"{sol.residual_norm:.3e}", "tolerance": floor},
        {"name": f"monotone decrease (>={MIN_STEPS} steps)", "pass":
            state.j >= MIN_STEPS and all(
                r[i + 1] < r[i] or r[i + 1] < floor
                for i in range(MIN_STEPS)),
         "tolerance": f"strict above {floor:.3e}"},
    ]
    err = weighted_norm(sol.v - vstar, 1, 1)
    checks.append({"name": "|v - v*|_{1,1} <= 1e-4",
                   "pass": err <= 1e-4, "detail": f"{err:.3e}",
                   "tolerance": 1e-4})
    return manifest, checks


def cmd_homological(conf, outdir):
    tg = TimeGrid(conf["t_max"], n_points=conf["n_times"])
    sg = SpatialGrid(1, conf["torus_points"])
    z = GridFn.from_callable(sg, tg,
                             lambda q, t: np.cos(2 * np.pi * q) / t ** 2)
    prob = HomologicalProblem(omega=[1.0], z=z, sigma=1.0)
    sol = solve_he(prob)
    residual = residual_he(sol, prob)
    est = estimate_check(sol, prob)
    sol.kappa.save(os.path.join(outdir, "kappa.wgf"))
    manifest = {**prob.manifest(), "tail_bound": sol.tail_bound,
                "residual_norm": residual, "estimate": est}
    checks = [
        {"name": f"residual <= {HE_RESIDUAL_TOL:g}",
         "pass": residual <= HE_RESIDUAL_TOL,
         "detail": f"{residual:.3e}",
         "tolerance": HE_RESIDUAL_TOL},
        {"name": "solution estimate", "pass": est["pass"],
         "detail": f"{est['measured']:.3e} <= {est['bound']:.3e}",
         "tolerance": "calibrated"},
    ]
    return manifest, checks


def cmd_simulate_comet(conf, outdir):
    eps, mc, t_max, tol = conf["eps"], conf["mc"], conf["t_max"], conf["tol"]
    masses = Masses(conf["m0"], conf["m1"], conf["m2"], mc=mc)
    chart = CircularChart(masses, a1=conf["a1"], a2=conf["a2"])
    rng = default_rng(conf["seed"])
    checks = []
    if mc == 0.0:
        st0 = chart.state(rng.uniform(0, 1, 4), np.zeros(2),
                          np.zeros(2), np.zeros(2))
        traj = integrate_system(st0, None, masses, 1.0, 1.0 + t_max,
                                tol=tol)
        _write_csv(outdir, "trajectory.csv",
                   ["t"]
                   + [f"x{i}{c}" for i in range(3) for c in "xy"]
                   + [f"y{i}{c}" for i in range(3) for c in "xy"],
                   np.column_stack((traj["t"],
                                    traj["x"].reshape(-1, 6),
                                    traj["y"].reshape(-1, 6))).tolist())
        rel = traj["H0_drift"] / abs(traj["H0"][0])
        checks.append({"name": "H0 conserved (rel)", "pass": rel <= 1e-8,
                       "detail": f"{rel:.3e}", "tolerance": 1e-8})
        checks.append({"name": "Y0 conserved",
                       "pass": traj["Y0_drift"] <= 1e-8,
                       "detail": f"{traj['Y0_drift']:.3e}",
                       "tolerance": 1e-8})
        return {"mode": "conservative", "masses": masses.__dict__,
                "seed": conf["seed"], "tol": tol, "H0_drift_rel": rel,
                "nfev": traj["nfev"]}, checks
    mu = masses.M + mc
    orbit = CometOrbit(eccentricity=conf["e"], a_h=mu / conf["v"] ** 2,
                       mu_grav=mu, t_peri=conf["t_peri"])
    ext = ExtensionParams(epsilon=eps)
    speed = check_speed_window(orbit, np.geomspace(1.0, 1.0 + t_max, 40),
                               eps)
    checks.append({"name": "speed/ratio windows", "pass": speed["pass"],
                   "detail": f"sup t/|c| = {speed['sup_t_over_c']:.3e}",
                   "tolerance": eps})
    hexf = extend_Hc(ext, orbit, masses, chart)
    system = SurrogateSystem(hexf)
    theta0 = rng.uniform(0, 1, 4)
    xi0 = np.array([conf["xi0x"], conf["xi0y"]])
    eta0 = system.leading_drift_momentum(theta0, xi0, 1.0)
    state0 = np.concatenate([theta0, xi0, np.zeros(2), eta0])
    tol = max(tol, SURROGATE_TOL_FLOOR)
    traj = system.integrate(state0, 1.0, 1.0 + t_max, tol=tol)
    _write_csv(outdir, "trajectory.csv",
               ["t"] + [f"s{i}" for i in range(10)],
               np.column_stack((traj["t"], traj["states"])).tolist())
    confined = confinement_check(traj["t"], traj["states"][:, 4:6], orbit,
                                 eps, C_bar=conf["cbar"])
    _write_manifest(outdir, "confinement.json", confined)
    # the two quantities the verdict reads, at their worst sample; the
    # first sample meets the log bound with equality, so the excess is
    # taken after it
    rows = confined["rows"]
    ratio = max(row["ratio"] for row in rows)
    excess = max(row["xi"] - row["log_bound"] for row in rows[1:])
    checks.append({"name": "confinement", "pass": confined["pass"],
                   "detail": f"max |xi|/|c| = {ratio:.3e} < eps/6 = "
                             f"{eps / 6.0:.3e}, max |xi| - log bound = "
                             f"{excess:.3e} <= 0",
                   "tolerance": "eps/6 and log bound"})
    am = asymptotic_metric(traj, system.omega,
                           np.concatenate([theta0, xi0]), 1.0)
    _write_manifest(outdir, "decay_report.json",
                    {**am, "surrogate": True})
    checks.append({"name": "asymptotic profile max < 1",
                   "pass": am["max"] < 1.0,
                   "detail": f"max = {am['max']:.3e}",
                   "tolerance": 1.0})
    return {"mode": "comet", "masses": masses.__dict__, "eps": eps,
            "orbit": {"e": conf["e"], "a_h": orbit.a_h,
                      "v": orbit.v_asymptotic, "t_peri": orbit.t_peri},
            "seed": conf["seed"], "tol": tol, "surrogate_chart": True,
            "nfev": traj["nfev"]}, checks


def cmd_verify_norms(conf, outdir):
    rng = default_rng(conf["seed"])
    tg = TimeGrid(10.0, n_points=24)
    sg = SpatialGrid(1, 128)
    checks = []
    rows = []
    g = GridFn.from_callable(sg, tg, lambda q, t: np.cos(2 * np.pi * q) / t)
    for trial in range(conf["trials"]):
        f = random_modes(rng, sg, tg, 2)
        rep = norm_algebra_check(f, g, 2.0, 1.0, 1.0)
        rows.append([trial, rep["product_ratio"]])
        checks.append({
            "name": f"norm algebra trial {trial}",
            "pass": rep["product_ratio"] <= constants.cdoc("product", 2),
            "detail": f"product ratio {rep['product_ratio']:.3f}",
            "tolerance": constants.cdoc("product", 2)})
        for (m, d) in ((2, 0), (4, 1)):
            srep = verify_smoothing_bounds(f, 16.0, m, d)
            ok = (srep["ratio_S1"] <= constants.cdoc("S1", m, d)
                  and srep["ratio_S2"] <= constants.cdoc("S2", m, d))
            checks.append({
                "name": f"smoothing ({m},{d}) trial {trial}",
                "pass": ok,
                "detail": f"S1 {srep['ratio_S1']:.3f} "
                          f"S2 {srep['ratio_S2']:.3f}",
                "tolerance": (constants.cdoc("S1", m, d),
                              constants.cdoc("S2", m, d))})
    _write_csv(outdir, "norm_checks.csv",
               ["trial", "product_ratio"], rows)
    return {"seed": conf["seed"], "trials": len(rows)}, checks


@functools.cache
def _parser():
    # built on the first main call, not at import, so set_defaults binds
    # the cmd_x as they are then (wrapped, if a tracer wrapped them)
    parser = argparse.ArgumentParser(
        prog="wacyl",
        description="Weakly asymptotic cylinders: solver, diagnostics "
                    "and the three-body-plus-comet model.")
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a configuration key")
    parser.add_argument("--out", default="runs/latest",
                        help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("solve", help="run the cylinder solver")
    ps.add_argument("--preset")
    ps.set_defaults(fn=cmd_solve, section="solve")
    ph = sub.add_parser("homological", help="solve a transport problem")
    ph.set_defaults(fn=cmd_homological, section="he")
    pc = sub.add_parser("simulate-comet", help="three-body-plus-comet run")
    pc.add_argument("--mc", type=float,
                    help="comet mass (0 for the conservative sub-case)")
    pc.set_defaults(fn=cmd_simulate_comet, section="comet")
    pv = sub.add_parser("verify-norms", help="norm calculus spot checks")
    pv.set_defaults(fn=cmd_verify_norms, section="norms")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        conf = read_section(load_config(args.config, args.set), args.section,
                            preset=getattr(args, "preset", None),
                            mc=getattr(args, "mc", None))
        # numpy faults raise where they happen; an underflow to 0 is kept
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            manifest, checks = args.fn(conf, args.out)
        _write_manifest(args.out, "manifest.json",
                        {**manifest, "config": conf})
        return _summary(args.out, checks)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except ArithmeticError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
