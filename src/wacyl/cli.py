"""Command-line orchestration: configuration, dispatch, persistence.

Subcommands: solve, homological, simulate-comet, verify-norms, diagnose.
Exit codes: 0 pass, 1 check failure, 2 configuration error, 3 numerical
failure.  Every run writes a manifest with the fully resolved
configuration; identical config and seed give byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np
# numpy loads numpy.random on first use; the comet and norm commands
# draw from it, so it loads with the CLI rather than inside a run
from numpy.random import default_rng

from . import constants
from .celestial import (CircularChart, CometOrbit, ExtensionParams,
                        Masses, SurrogateSystem, asymptotic_metric,
                        check_speed_window, confinement_check,
                        extend_Hc, integrate_system)
from .flow import NumericalError
from .grids import GridFn, SpatialGrid, TimeGrid
from .homological import HomologicalProblem, estimate_check, residual_he, \
    solve_he
from .nashmoser import (PARAM_PRESETS, choose_schedule, iterate,
                        manufactured_power, manufactured_single, monitor,
                        params_from_order, preset_params, validate_params)
from .norms import norm_algebra_check, weighted_norm
from .smoothing import verify_smoothing_bounds

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def load_config(path=None, overrides=()):
    """Flat key=value pairs with section prefixes (section.key=value);
    environment variables WACYL_SECTION_KEY override file values, and
    explicit overrides win over both.  Keys are case-insensitive and
    stored lower-case."""
    cfg = {}
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, val = line.split("=", 1)
                cfg[key.strip().lower()] = val.strip()
    for key, val in os.environ.items():
        if key.startswith("WACYL_"):
            cfg[key[len("WACYL_"):].lower().replace("_", ".", 1)] = val
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"bad override: {item!r}")
        key, val = item.split("=", 1)
        cfg[key.strip().lower()] = val.strip()
    return cfg


def cfg_get(cfg, key, default, cast=float):
    """cast(cfg[key]), or default when the key is unset; a value cast
    refuses raises ValueError naming the key and the raw value."""
    if key not in cfg:
        return default
    try:
        return cast(cfg[key])
    except ValueError:
        raise ValueError(f"{key} = {cfg[key]!r} is not a valid "
                         f"{cast.__name__}") from None


def cfg_in(cfg, key, default, ok, domain, cast=float):
    """cfg_get, refused unless ok(value): the ValueError names the key,
    the value and the domain."""
    value = cfg_get(cfg, key, default, cast)
    if not ok(value):
        raise ValueError(f"{key} = {value} must be {domain}")
    return value


def cfg_tol(cfg, key, default):
    """cfg_in for a tolerance or a target, refused unless finite and
    positive: with a nan one an adaptive integration never ends, a
    correction loop runs to its cap and no residual meets it."""
    return cfg_in(cfg, key, default, lambda v: 0 < v < math.inf,
                  "finite and positive")


def cfg_t_max(cfg, key, default):
    """cfg_in for the horizon of a time grid on [1, t_max]."""
    return cfg_in(cfg, key, default, lambda v: 1 < v < math.inf,
                  "finite and > 1 (the time grid starts at t = 1)")


def cfg_grid(cfg, section):
    """The torus points and time points of a section's grids, refused
    unless SpatialGrid and TimeGrid take them."""
    torus_points = cfg_in(cfg, f"{section}.torus_points", 128,
                          lambda n: n >= 1 and not n & (n - 1),
                          "a power of two", int)
    n_times = cfg_in(cfg, f"{section}.n_times", 64, lambda n: n >= 2,
                     "at least 2", int)
    return torus_points, n_times


def cfg_seed(cfg, key):
    """A seed of numpy.random.default_rng: a non-negative integer."""
    return cfg_in(cfg, key, 0, lambda n: n >= 0, "a non-negative integer",
                  int)


def _write_manifest(outdir, name, payload):
    os.makedirs(outdir, exist_ok=True)
    payload = dict(payload)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    path = os.path.join(outdir, name)
    # numpy scalars as the Python value they hold (np.bool_ stays a bool);
    # one write of the whole text, json.dump would stream it in pieces
    text = json.dumps(payload, indent=1, default=lambda x: x.item())
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _write_csv(outdir, name, header, rows):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        # csv writes a float by repr; a numpy scalar would repr as
        # "np.float64(...)", so it goes in as its Python value
        w.writerows([v.item() if isinstance(v, np.generic) else v
                     for v in row] for row in rows)
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

def cmd_solve(args):
    cfg = load_config(args.config, args.set or [])
    outdir = args.out
    preset = cfg_get(cfg, "solve.preset", args.preset, str)
    eps = cfg_in(cfg, "solve.eps", 1e-3, math.isfinite, "finite")
    torus_points, n_times = cfg_grid(cfg, "solve")
    t_max = cfg_t_max(cfg, "solve.t_max", 20.0)
    # params_from_order's minimal order s >= 8 gamma, with gamma = 1
    s = cfg_in(cfg, "solve.s", 8.0, lambda x: 8 <= x < math.inf,
               "finite and >= 8")
    target = cfg_tol(cfg, "solve.target", 1e-6)
    quad_tol = cfg_tol(cfg, "solve.quad_tol", 1e-10)
    max_steps = cfg_get(cfg, "solve.max_steps", 12, int)
    if max_steps < 2:
        raise ValueError(f"solve.max_steps = {max_steps}: the convergence "
                         "monitor needs at least 2 steps")
    # explicitly set scheme values override the scanned ones; the
    # smoothing times t_j = Q^(alpha beta^j) grow only for Q > 1, and the
    # other three are sizes
    explicit = {name: cfg_in(cfg, key, None,
                             lambda x, lo=lo: lo < x < math.inf,
                             f"finite and > {lo}")
                for key, name, lo in (("solve.q", "Q", 1),
                                      ("solve.upsilon", "upsilon", 0),
                                      ("solve.epsilon0", "epsilon0", 0),
                                      ("solve.zeta", "zeta", 0))
                if key in cfg}
    if preset == "manufactured":
        H, vstar = manufactured_single(eps, torus_points=torus_points,
                                       n_times=n_times, t_max=t_max)
    elif preset == "manufactured-power":
        H, vstar = manufactured_power(eps, torus_points=torus_points,
                                      n_times=n_times, t_max=t_max)
    else:
        print(f"unknown solve preset {preset!r}; valid: manufactured, "
              "manufactured-power", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    p = params_from_order(s)
    if "Q" not in explicit:
        p, scan = choose_schedule(H, p, quad_tol=quad_tol)
        _write_csv(outdir, "schedule_scan.csv",
                   ["Q", "upsilon", "r1", "envelope"],
                   [[r["Q"], r["upsilon"], r["r1"], r["envelope"]]
                    for r in scan])
    p = replace(p, **explicit)
    sol, state = iterate(H, p, max_steps=max_steps, target=target,
                         quad_tol=quad_tol, min_steps=3)
    rows = []
    for d in range(1, state.j + 1):
        rows.append([d, state.tau_values[d - 1], state.t_values[d - 1],
                     state.residual_norms[d], state.true_residuals[d],
                     state.step_norms_low[d - 1],
                     state.step_norms_high[d - 1]])
    _write_csv(outdir, "iterations.csv",
               ["j", "tau_j", "t_j", "paired_residual", "true_residual",
                "step_low", "step_high"], rows)
    sol.v.save(os.path.join(outdir, "v.wgf"))
    sol.gamma.gamma.save(os.path.join(outdir, "gamma.wgf"))
    mon = monitor(state, p)
    _write_manifest(outdir, "manifest.json", {
        **sol.manifest, "monitor": {k: v for k, v in mon.items()
                                    if k != "rows"}})
    checks = [
        {"name": "residual <= target", "pass":
            sol.residual_norm <= target * max(
                1.0, state.true_residuals[0]),
         "detail": f"{sol.residual_norm:.3e}", "tolerance": target},
        {"name": "monotone decrease (>=3 steps)", "pass":
            state.j >= 3 and all(
                state.true_residuals[i + 1] < state.true_residuals[i]
                for i in range(3)), "tolerance": "strict"},
    ]
    if vstar is not None:
        err = weighted_norm(sol.v - vstar, 1, 1).value
        checks.append({"name": "|v - v*|_{1,1} <= 1e-4",
                       "pass": err <= 1e-4, "detail": f"{err:.3e}",
                       "tolerance": 1e-4})
    return _summary(outdir, checks)


def cmd_homological(args):
    cfg = load_config(args.config, args.set or [])
    outdir = args.out
    torus_points, n_times = cfg_grid(cfg, "he")
    t_max = cfg_t_max(cfg, "he.t_max", 20.0)
    quad_tol = cfg_tol(cfg, "he.quad_tol", 1e-9)
    tg = TimeGrid(t_max, n_points=n_times)
    sg = SpatialGrid(1, torus_points)
    z = GridFn.from_callable(sg, tg,
                             lambda q, t: np.cos(2 * np.pi * q) / t ** 2)
    prob = HomologicalProblem(omega=[1.0], z=z, sigma=1.0)
    sol = solve_he(prob, quad_tol=quad_tol)
    residual_he(sol, prob)
    est = estimate_check(sol, prob)
    sol.kappa.save(os.path.join(outdir, "kappa.wgf"))
    _write_manifest(outdir, "manifest.json", {
        **prob.manifest(), "tail_bound": sol.tail_bound,
        "residual_norm": sol.residual_norm, "quad_tol": quad_tol,
        "estimate": est})
    checks = [
        {"name": "residual <= 10 quad_tol",
         "pass": sol.residual_norm <= 10 * quad_tol,
         "detail": f"{sol.residual_norm:.3e}",
         "tolerance": 10 * quad_tol},
        {"name": "solution estimate", "pass": est["pass"],
         "detail": f"{est['measured']:.3e} <= {est['bound']:.3e}",
         "tolerance": "calibrated"},
    ]
    return _summary(outdir, checks)


def cmd_simulate_comet(args):
    cfg = load_config(args.config, args.set or [])
    outdir = args.out
    eps = cfg_get(cfg, "comet.eps", 0.1)
    mc = cfg_get(cfg, "comet.mc", args.mc)
    e = cfg_in(cfg, "comet.e", 1.5, lambda x: 1 < x < math.inf,
               "finite and > 1 (a hyperbolic orbit)")
    v = cfg_in(cfg, "comet.v", 250.0, lambda x: 0 < x < math.inf,
               "finite and > 0")
    t_max = cfg_get(cfg, "comet.t_max", 100.0)
    tol = cfg_tol(cfg, "comet.tol", 1e-11)
    seed = cfg_seed(cfg, "comet.seed")
    a1 = cfg_in(cfg, "comet.a1", 0.05, lambda x: 0 < x < math.inf,
                "finite and > 0")
    a2 = cfg_in(cfg, "comet.a2", 1.0, lambda x: 0 < x < math.inf,
                "finite and > 0")
    xi0 = np.array([cfg_in(cfg, "comet.xi0x", 0.3, math.isfinite, "finite"),
                    cfg_in(cfg, "comet.xi0y", -0.2, math.isfinite, "finite")])
    c_bar = cfg_in(cfg, "comet.cbar", 1.0, lambda x: 0 <= x < math.inf,
                   "finite and >= 0")
    if not 0 < t_max < np.inf:
        raise ValueError(f"comet.t_max must be finite and positive (got "
                         f"{t_max}: the run ends at t1 = 1 + t_max)")
    masses = Masses(cfg_get(cfg, "comet.m0", 1.0),
                    cfg_get(cfg, "comet.m1", 1e-3),
                    cfg_get(cfg, "comet.m2", 1e-3), mc=mc)
    mu = masses.M + mc
    orbit = CometOrbit(eccentricity=e, a_h=mu / v ** 2, mu_grav=mu,
                       t_peri=cfg_get(cfg, "comet.t_peri", -1.0))
    chart = CircularChart(masses, a1=a1, a2=a2)
    rng = default_rng(seed)
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
        _write_manifest(outdir, "manifest.json", {
            "mode": "conservative", "masses": masses.__dict__,
            "seed": seed, "tol": tol, "H0_drift_rel": rel,
            "nfev": traj["nfev"]})
        return _summary(outdir, checks)
    ext = ExtensionParams(epsilon=eps)
    speed = check_speed_window(orbit, np.geomspace(1.0, 1.0 + t_max, 40),
                               eps)
    checks.append({"name": "speed/ratio windows", "pass": speed["pass"],
                   "detail": f"sup t/|c| = {speed['sup_t_over_c']:.3e}",
                   "tolerance": eps})
    hexf = extend_Hc(ext, orbit, masses, chart)
    system = SurrogateSystem(hexf)
    theta0 = rng.uniform(0, 1, 4)
    eta0 = system.leading_drift_momentum(theta0, xi0, 1.0)
    state0 = np.concatenate([theta0, xi0, np.zeros(2), eta0])
    traj = system.integrate(state0, 1.0, 1.0 + t_max, tol=max(tol, 1e-10))
    _write_csv(outdir, "trajectory.csv",
               ["t"] + [f"s{i}" for i in range(10)],
               np.column_stack((traj["t"], traj["states"])).tolist())
    conf = confinement_check(traj["t"], traj["states"][:, 4:6], orbit,
                             eps, C_bar=c_bar)
    _write_manifest(outdir, "confinement.json", conf)
    checks.append({"name": "confinement", "pass": conf["pass"],
                   "detail": f"v = {conf['v_asymptotic']:.1f}, "
                             f"threshold = {conf['v_threshold']:.1f}",
                   "tolerance": "log bound"})

    def phi0(q):
        return np.concatenate([q[:4], q[4:6], np.zeros(4)])

    def base_flow(q0, t0, t):
        return np.concatenate([q0[:4] + system.omega * (t - t0),
                               q0[4:6]])

    am = asymptotic_metric(traj, phi0, base_flow,
                           np.concatenate([theta0, xi0]), 1.0)
    _write_manifest(outdir, "decay_report.json",
                    {**am, "surrogate": True})
    checks.append({"name": "asymptotic profile envelope",
                   "pass": am["envelope_non_increasing"]
                   and am["max"] < 1.0,
                   "detail": f"max = {am['max']:.3e}",
                   "tolerance": "monotone envelope"})
    _write_manifest(outdir, "manifest.json", {
        "mode": "comet", "masses": masses.__dict__, "eps": eps,
        "orbit": {"e": e, "a_h": orbit.a_h, "v": orbit.v_asymptotic,
                  "t_peri": orbit.t_peri},
        "seed": seed, "tol": tol, "surrogate_chart": True,
        "nfev": traj["nfev"]})
    return _summary(outdir, checks)


def cmd_verify_norms(args):
    cfg = load_config(args.config, args.set or [])
    outdir = args.out
    seed = cfg_seed(cfg, "norms.seed")
    rng = default_rng(seed)
    tg = TimeGrid(10.0, n_points=24)
    sg = SpatialGrid(1, 128)
    trials = cfg_get(cfg, "norms.trials", 3, int)
    if trials < 1:
        raise ValueError(f"norms.trials must be at least 1 (got {trials})")
    checks = []
    rows = []
    for trial in range(trials):
        amps = rng.standard_normal(32) / np.arange(1, 33) ** 2
        phases = rng.uniform(0, 1, 32)

        def fn(q, t, amps=amps, phases=phases):
            out = 0.0
            for k in range(32):
                out = out + amps[k] * np.sin(
                    2 * np.pi * ((k + 1) * q + phases[k]))
            return out / t

        f = GridFn.from_callable(sg, tg, fn)
        g = GridFn.from_callable(sg, tg, lambda q, t: np.cos(
            2 * np.pi * q) / t)
        rep = norm_algebra_check(f, g, 2.0, 1.0, 1.0)
        rows.append([trial, rep["l_monotonicity"]["pass"],
                     rep["derivative_restriction"]["pass"],
                     rep["product_ratio"]])
        checks.append({
            "name": f"norm algebra trial {trial}",
            "pass": rep["l_monotonicity"]["pass"]
            and rep["derivative_restriction"]["pass"]
            and rep["product_ratio"] <= constants.cdoc("product", 2),
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
               ["trial", "monotone", "derivative", "product_ratio"], rows)
    _write_manifest(outdir, "manifest.json",
                    {"seed": seed, "trials": len(rows)})
    return _summary(outdir, checks)


def cmd_diagnose(args):
    cfg = load_config(args.config, args.set or [])
    outdir = args.out
    p = preset_params(cfg_in(cfg, "diag.preset", "minimal",
                             lambda name: name in PARAM_PRESETS,
                             "one of " + ", ".join(PARAM_PRESETS), str))
    rep = validate_params(p)
    checks = [{"name": f"scheme inequality: {k}", "pass": v,
               "tolerance": "strict"}
              for k, v in rep["checks"].items()]
    _write_manifest(outdir, "manifest.json", rep)
    return _summary(outdir, checks)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wacyl",
        description="Weakly asymptotic cylinders: solver, diagnostics "
                    "and the three-body-plus-comet model.")
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a configuration key")
    parser.add_argument("--out", default="runs/latest",
                        help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    ps = sub.add_parser("solve", help="run the cylinder solver")
    ps.add_argument("--preset", default="manufactured")
    ps.set_defaults(fn=cmd_solve)
    ph = sub.add_parser("homological", help="solve a transport problem")
    ph.set_defaults(fn=cmd_homological)
    pc = sub.add_parser("simulate-comet", help="three-body-plus-comet run")
    pc.add_argument("--mc", type=float, default=1e-3,
                    help="comet mass (0 for the conservative sub-case)")
    pc.set_defaults(fn=cmd_simulate_comet)
    pv = sub.add_parser("verify-norms", help="norm calculus spot checks")
    pv.set_defaults(fn=cmd_verify_norms)
    pd = sub.add_parser("diagnose", help="validate scheme parameters")
    pd.set_defaults(fn=cmd_diagnose)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    try:
        return args.fn(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
