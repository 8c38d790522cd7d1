"""Seeded corpus sweeps that produced the frozen constants, and the
checks that only they call.

Each sweep measures the relevant ratios over a reproducible corpus
through the check that uses the constant (``verify_smoothing_bounds``,
``norm_algebra_check``, ``composition_check`` and ``convexity_check``,
``gronwall_diagnostics``, ``homological.estimate_check``,
``hypotheses_report``, ``decay_diagnostics``), so a change to a check
changes its calibration too, and reports the maximum; the frozen
constants are these maxima with a 15 percent safety margin, frozen
once.  ``wacyl.constants`` holds the ones a command reads; the ones that
only the checks and tests read (``CDOC``, ``HYPOTHESES``,
``CELESTIAL_CK`` and ``CBAR1``) are frozen here.  ``cdoc`` reads a
smoothing or norm-calculus bound from either ``CDOC``.  Rerunning is
only needed when the corpus definitions change;
``test_sweeps_reproduce_frozen_constants`` reruns them all, and
``python tests/calibration.py`` (with ``src`` on ``PYTHONPATH``) prints
the report.
"""

from __future__ import annotations

import numpy as np

from wacyl import constants, homological
from wacyl.celestial import CircularChart, CometOrbit, Masses
from wacyl.functional import (eval_F, linearize, mu_budget, v_norm,
                              x_norm)
from wacyl.grids import GridFn, SpatialGrid, TimeGrid
from wacyl.nashmoser import comet_decay_synthetic, manufactured_single
from wacyl.norms import norm_algebra_check, random_modes, weighted_norm
from wacyl.smoothing import verify_smoothing_bounds

from oracles import (GridFnInterpolant, VectorFieldSpec, apply_DF,
                     eval_Hc, flow_jacobian, fundamental_matrix, grad_Hc,
                     hess_Hc)

# Smoothing and norm-calculus ratio bounds over the seeded 32-mode
# corpus (sweep_smoothing / sweep_norm_algebra) that verify-norms does
# not check; the ones it checks are wacyl.constants.CDOC
CDOC = {
    ("S1", 6, 2): 205.0,
    ("S2", 6, 2): 0.0012,
    ("product", 1): 1.0,
    ("composition", 1): 1.0,
    ("composition", 2): 1.0,
    ("convexity",): 1.10,
}


def cdoc(kind, *key):
    """The frozen bound of kind at key, from CDOC or constants.CDOC."""
    key = (kind,) + key
    return CDOC[key] if key in CDOC else constants.CDOC[key]


# Gronwall-type growth exponent of the flow Jacobian
# (sweep_flow_exponents): |d_q psi^t_t0|_{C^0} <= C (t/t0)^(CBAR1 mu);
# its partner cR0 is wacyl.constants.FLOW_EXPONENTS["cR0"], which the
# transport solve's tail bound reads
CBAR1 = 0.30

# Solvability-hypotheses constants over the zeta-ball corpus
# (sweep_hypotheses): first/second differential bound, Lipschitz ratio
# in the data, and the tame ratio.
HYPOTHESES = {"H1": 2.0, "H2": 1.5, "H4": 2.0}

# Comet interaction decay: sup_t |d^k H_c^t| (t^2-weighted for the
# gradient) <= C(k) M m_c eps over compliant orbits
# (sweep_comet_decay).
CELESTIAL_CK = {0: 0.40, 1: 0.40}

# the sigmas of the tame ratios in hypotheses_report
TAME_SIGMAS = (1.0, 2.0, 4.0)
# DOP853 tolerance of the solves of gronwall_diagnostics
GRONWALL_TOL = 1e-10


# --------------------------------------------------------------------
# the checks only the sweeps call
# --------------------------------------------------------------------

def compose_torus(f, u):
    """f composed with the torus self-map z(q) = q + u(q), per time slice.

    Evaluation through the trigonometric interpolant.
    """
    interp = GridFnInterpolant(f)
    mesh = np.stack(f.grid.meshgrid(), axis=-1)
    out = np.empty_like(f.values)
    for i, t in enumerate(f.times.points):
        pts = mesh + u.values[i]
        out[i] = interp(pts.reshape(-1, f.grid.n), t).reshape(
            f.grid.shape + (f.components,))
    return GridFn(f.grid, f.times, out)


def composition_check(f, u, sigma, l, m):
    """The composition ratio of the weighted-norm calculus for the torus
    self-map z = id + u, for comparison against documented constants."""
    fz = compose_torus(f, u)
    jac = u.jacobian_q()
    eye = np.eye(u.grid.n)
    nz = GridFn(u.grid, u.times,
                (jac + eye).reshape(jac.shape[:-2] + (-1,)))
    num = weighted_norm(fz, sigma, l + m)
    den = (weighted_norm(f, sigma, l)
           * weighted_norm(nz, 0, m) ** sigma
           + weighted_norm(f, 1, l)
           * weighted_norm(nz, max(sigma - 1, 0), m)
           + weighted_norm(f, 0, l + m))
    return {"composition_ratio": num / den if den > 0 else 0.0}


def convexity_check(f, lambda1, lambda2, alpha, l=0.0):
    """Ratio |f|_lam / (|f|_{lam1}^{1-alpha} |f|_{lam2}^alpha) with
    lam = (1-alpha) lam1 + alpha lam2, for boundedness testing."""
    if not (0 <= lambda1 <= lambda2):
        raise ValueError("need 0 <= lambda1 <= lambda2")
    if not (0 <= alpha <= 1):
        raise ValueError("alpha must lie in [0,1]")
    lam = (1 - alpha) * lambda1 + alpha * lambda2
    n_mid = weighted_norm(f, lam, l)
    n_lo = weighted_norm(f, lambda1, l)
    n_hi = weighted_norm(f, lambda2, l)
    denom = n_lo ** (1 - alpha) * n_hi ** alpha
    ratio = n_mid / denom if denom > 0 else (0.0 if n_mid == 0 else np.inf)
    return {"lambda": lam, "norm_mid": n_mid, "norm_lo": n_lo,
            "norm_hi": n_hi, "ratio": ratio}


def gronwall_diagnostics(F, g, mu, sample_points, time_pairs):
    """Measure flow-derivative and fundamental-matrix growth exponents.

    For each (t, t0) pair the sup over sample points of |d_q psi^t_t0|
    (max-entry norm) is recorded, and similarly |R^t_tau| with
    t = min, tau = max of the pair; the exponents of a least-squares fit
    of log sup against log(max/min) are compared against the calibrated
    constants times mu.  The fit needs at least two distinct ratios
    max/min, else ValueError.  mu is the size of f that the caller
    declares: it scales the bounds and is not measured here.
    """
    ratios = [max(pair) / min(pair) for pair in time_pairs]
    if len(set(ratios)) < 2:
        raise ValueError(f"time_pairs {list(time_pairs)} give "
                         f"{len(set(ratios))} distinct ratio(s) max/min; "
                         "the growth fit needs at least 2")
    samples = np.atleast_2d(np.asarray(sample_points, dtype=float))
    # least-squares fit of log sup = c log(max/min) + log C per kind
    A = np.vstack([np.log(ratios), np.ones(len(ratios))]).T
    records = []

    def growth(kind, pairs, matrix, bound):
        # sup over samples per pair, fitted exponent c, one record per pair
        norms = [max(float(np.abs(matrix(q, *pair)).max()) for q in samples)
                 for pair in pairs]
        y = np.log(np.maximum(norms, 1e-300))
        exponent = float(np.linalg.lstsq(A, y, rcond=None)[0][0])
        ok = exponent <= bound + 1e-9
        records.extend({"pair": [float(a), float(b)], "kind": kind,
                        "measured_norm": n, "fitted_exponent": exponent,
                        "bound": bound, "pass": ok}
                       for (a, b), n in zip(pairs, norms))
        return exponent, ok

    bound_psi = CBAR1 * mu
    bound_R = constants.FLOW_EXPONENTS["cR0"] * mu
    exp_psi, flow_pass = growth(
        "flow_jacobian", time_pairs,
        lambda q, t, t0: flow_jacobian(F, q, t0, t, GRONWALL_TOL), bound_psi)
    exp_R, R_pass = growth(
        "fundamental_matrix", [(min(p), max(p)) for p in time_pairs],
        lambda q, t, tau: fundamental_matrix(g, F, q, t, tau, GRONWALL_TOL),
        bound_R)
    return {
        "mu": mu,
        "flow_exponent": exp_psi, "flow_bound": bound_psi,
        "flow_pass": flow_pass,
        "R_exponent": exp_R, "R_bound": bound_R,
        "R_pass": R_pass,
        "records": records,
        "constants_source": "calibrated",
    }


def hypotheses_report(H, zeta, n_samples=6, seed=0):
    """Empirical constants for the four solvability hypotheses on the
    zeta-ball around (x0, 0) = ((0, 0), 0), against the frozen values
    (x0 = (0, b0) in the paper, and b0 = 0 in every problem built here).

    Samples are normalized in the sigma = 1 scale norms (the H.3 ball),
    so the measured mu stays inside the delta + C Upsilon zeta budget.
    """
    rng = np.random.default_rng(seed)
    grid, times, d = H.grid, H.times, H.d
    ball = 0.5 * zeta

    def band_limited(components, decay):
        def fn(*args):
            mesh = args[:-1]
            t = args[-1]
            out = 0.0
            for k in range(1, 4):
                phs = rng.uniform(0, 1, size=components)
                amp = rng.uniform(-1, 1, size=components)
                wave = 0.0
                for ax_vals in mesh[:grid.n]:
                    wave = wave + k * ax_vals
                out = out + amp * np.sin(
                    2 * np.pi * (wave[..., None] + phs)) / k ** 4
            return out / t ** decay
        return GridFn.from_callable(grid, times, fn)

    def x_sample():
        da = band_limited(1, 2.0)
        db = band_limited(d, 1.0)
        n = max(x_norm(da, db, 1.0), 1e-300)
        return GridFn(grid, times, da.values * ball / n), \
            GridFn(grid, times, db.values * ball / n)

    def v_sample(scale=None):
        vv = band_limited(d, 1.0)
        n = max(v_norm(vv, H.omega, 1.0), 1e-300)
        return GridFn(grid, times, vv.values * (scale or ball) / n)

    h1_first, h1_second, h2, h3_mu = [], [], [], []
    tame = {s: [] for s in TAME_SIGMAS}
    for _ in range(n_samples):
        da, db = x_sample()
        vv = v_sample()
        Hs = H.with_data(da, db)
        # H.1: first and second differentials, unit directions
        vhat = v_sample(scale=1.0)
        nv = max(v_norm(vhat, H.omega, 0.0), 1e-300)
        vhat = GridFn(grid, times, vhat.values / nv)
        DF = apply_DF(Hs, vv, vhat)
        h1_first.append(weighted_norm(DF, 0, 2))
        h = 1e-4
        Fp = eval_F(Hs, vv + h * vhat)
        Fm = eval_F(Hs, vv - h * vhat)
        F0 = eval_F(Hs, vv)
        second = GridFn(grid, times,
                        (Fp.values + Fm.values - 2 * F0.values) / h ** 2)
        h1_second.append(weighted_norm(second, 0, 2))
        # H.2: Lipschitz ratio in x
        da2, db2 = x_sample()
        diff = weighted_norm(
            F0 - eval_F(H.with_data(da2, db2), vv), 0, 2)
        dx = x_norm(da - da2, db - db2, 0)
        if dx > 0:
            h2.append(diff / dx)
        # H.3 budget
        f, g = linearize(Hs, vv)
        h3_mu.append(max(weighted_norm(f, 1, 1),
                         weighted_norm(g, 1, 1)))
        # H.4 tame ratios
        for s in TAME_SIGMAS:
            K = max(x_norm(da, db, s), v_norm(vv, H.omega, s))
            if K > 0:
                tame[s].append(weighted_norm(F0, s, 2) / K)
    mu_max, gate = mu_budget(zeta)
    cal = HYPOTHESES
    report = {
        "H1_first": max(h1_first), "H1_second": max(h1_second),
        "H1_bound": cal["H1"],
        "H1_pass": max(h1_first + h1_second) <= cal["H1"],
        "H2_ratio": max(h2) if h2 else 0.0, "H2_bound": cal["H2"],
        "H2_pass": (max(h2) if h2 else 0.0) <= cal["H2"],
        "H3_mu": max(h3_mu), "H3_budget": mu_max, "H3_gate": gate,
        "H3_pass": max(h3_mu) <= mu_max and mu_max < gate,
        "H4_ratios": {s: (max(r) if r else 0.0) for s, r in tame.items()},
        "H4_bound": cal["H4"],
        "H4_pass": all((max(r) if r else 0.0) <= cal["H4"]
                       for r in tame.values()),
        "constants_source": "calibrated",
    }
    report["pass"] = all(report[k] for k in
                         ("H1_pass", "H2_pass", "H3_pass", "H4_pass"))
    return report


def decay_diagnostics(sampler, comet, masses, eps, k, t_grid,
                      n_samples=40, seed=0):
    """sup over the admissible region of |H_c^t| and |d_x H_c^t| t^2
    (plus second derivatives when k = 1), against C(k) M m_c eps for
    k in {0, 1}, the orders CELESTIAL_CK holds.

    sampler(rng, t) must yield position triples inside the region
    |x_i|/|c(t)| < eps; configurations violating it are refused.  c(t)
    comes from one Kepler solve per time node.
    """
    rng = np.random.default_rng(seed)
    Ck = CELESTIAL_CK[k]
    scale = Ck * masses.M * masses.mc * eps
    rows = []
    sup_h, sup_g = 0.0, 0.0
    for t in t_grid:
        *c, rt = comet._ephemeris(t)
        h_t, g_t = 0.0, 0.0
        for _ in range(n_samples):
            pos = np.asarray(sampler(rng, t), dtype=float)
            if (np.linalg.norm(pos, axis=1) / rt >= eps).any():
                raise ValueError(
                    "sampler left the admissible region |x|/|c(t)| < eps")
            h_t = max(h_t, abs(eval_Hc(pos, c, masses)))
            g = np.abs(grad_Hc(pos, c, masses)).max()
            if k >= 1:
                g = max(g, np.abs(hess_Hc(pos, c, masses)).max())
            g_t = max(g_t, g)
        sup_h = max(sup_h, h_t)
        sup_g = max(sup_g, g_t * t ** 2)
        rows.append({"t": float(t), "sup_Hc": h_t,
                     "sup_gradHc_t2": g_t * t ** 2})
    return {
        "k": k, "eps": eps, "bound": scale,
        "sup_Hc": sup_h, "sup_Hc_pass": sup_h <= scale,
        "sup_gradHc_t2": sup_g, "sup_grad_pass": sup_g <= scale,
        "rows": rows, "constants_source": "calibrated",
        "pass": sup_h <= scale and sup_g <= scale,
    }


# --------------------------------------------------------------------
# the sweeps
# --------------------------------------------------------------------

SAFETY = 1.15


def corpus_32(seed, n_fns=6):
    """The 32-mode random corpus used by the smoothing and norm sweeps:
    n_fns functions random_modes(..., power=1.5) on 256 torus points and
    16 times up to t = 10."""
    rng = np.random.default_rng(seed)
    tg = TimeGrid(10.0, n_points=16)
    sg = SpatialGrid(1, 256)
    return [random_modes(rng, sg, tg, 1.5) for _ in range(n_fns)]


def sweep_smoothing():
    worst = {}
    for f in corpus_32(20240901):
        for tau in (8.0, 16.0, 32.0, 64.0):
            for (m, d) in ((2, 0), (4, 1), (6, 2)):
                rep = verify_smoothing_bounds(f, tau, m, d)
                for key, val in (("S1", rep["ratio_S1"]),
                                 ("S2", rep["ratio_S2"])):
                    k = (key, m, d)
                    worst[k] = max(worst.get(k, 0.0), val)
    return {k: v * SAFETY for k, v in worst.items()}


def sweep_norm_algebra():
    seed = 20240902
    worst = {"product": {}, "composition": {}, "convexity": 0.0}
    fns = corpus_32(seed, n_fns=4)
    gs = corpus_32(seed + 1, n_fns=4)
    rng = np.random.default_rng(seed + 2)
    for f, g in zip(fns, gs):
        u = GridFn.from_callable(
            f.grid, f.times,
            lambda q, t, a=rng.uniform(0.01, 0.05):
                a * np.sin(2 * np.pi * q) / t)
        for sigma in (1.0, 2.0):
            rep = {**norm_algebra_check(f, g, sigma, 1.0, 1.0),
                   **composition_check(f, u, sigma, 1.0, 1.0)}
            worst["product"][sigma] = max(
                worst["product"].get(sigma, 0.0), rep["product_ratio"])
            worst["composition"][sigma] = max(
                worst["composition"].get(sigma, 0.0),
                rep["composition_ratio"])
        rep = convexity_check(f, 0.0, 2.0, 0.5, l=1.0)
        worst["convexity"] = max(worst["convexity"], rep["ratio"])
        rep = convexity_check(f, 1.0, 4.0, 0.25, l=0.0)
        worst["convexity"] = max(worst["convexity"], rep["ratio"])
    return {
        **{("product", s): v * SAFETY
           for s, v in worst["product"].items()},
        **{("composition", s): v * SAFETY
           for s, v in worst["composition"].items()},
        ("convexity",): worst["convexity"] * SAFETY,
    }


def sweep_flow_exponents():
    """Growth exponents of |d_q psi| and |R| measured by
    gronwall_diagnostics for f = mu sin(2 pi q)/t, g = 0.9 mu/t,
    reported as exponent/mu ratios."""
    out = {"cbar1": 0.0, "cR0": 0.0}
    pairs = [(t, 1.0) for t in (2.0, 4.0, 8.0, 16.0)]
    samples = np.linspace(0, 1, 9)[:-1][:, None]
    for mu in (0.02, 0.05, 0.1):
        F = VectorFieldSpec(
            [1.0],
            f=lambda q, t, mu=mu: mu * np.sin(2 * np.pi * q) / t,
            jac_f=lambda q, t, mu=mu:
                (2 * np.pi * mu * np.cos(2 * np.pi * q) / t)[..., None])

        def gfun(q, t, mu=mu):
            return np.full((len(np.atleast_2d(q)), 1, 1),
                           mu * 0.9 / t)

        rep = gronwall_diagnostics(F, gfun, mu, samples, pairs)
        c_R = rep["R_exponent"] / (0.9 * mu)
        out["cbar1"] = max(out["cbar1"], rep["flow_exponent"] / mu)
        out["cR0"] = max(out["cR0"], c_R)
    return {k: v * SAFETY for k, v in out.items()}


def sweep_homological():
    """Constant c_estimate implied by homological.estimate_check
    (measured |kappa|_{sigma,1} over its bound per unit c_estimate) over
    a family of solvable transport problems."""
    rng = np.random.default_rng(20240904)
    tg = TimeGrid(16.0, n_points=48)
    sg = SpatialGrid(1, 64)
    worst = {0: 0.0, 1: 0.0, 2: 0.0}
    for trial in range(5):
        amps = rng.standard_normal(6) / np.arange(1, 7) ** 2
        mu_f = rng.uniform(0.0, 0.02)
        if trial == 0:
            # the constant-in-q case saturates the bound (ratio 1)
            amps = np.zeros(6)
            mu_f = 0.0

        def zfn(q, t, amps=amps):
            acc = 1.0 if not amps.any() else 0.0
            for k in range(6):
                acc = acc + amps[k] * np.cos(2 * np.pi * (k + 1) * q)
            return acc / t ** 2

        z = GridFn.from_callable(sg, tg, zfn)
        f = GridFn.from_callable(
            sg, tg, lambda q, t, m=mu_f: m * np.sin(2 * np.pi * q) / t)
        g = GridFn.from_callable(
            sg, tg, lambda q, t, m=mu_f: m * np.cos(2 * np.pi * q) / t)
        for sigma in (0.0, 1.0, 2.0):
            prob = homological.HomologicalProblem(omega=[1.0], z=z, f=f,
                                                  g=g, sigma=sigma)
            est = homological.estimate_check(homological.solve_he(prob),
                                             prob)
            implied = est["measured"] * est["c_estimate"] / est["bound"]
            worst[sigma] = max(worst[sigma], implied)
    return {("c_estimate", s): v * SAFETY for s, v in worst.items()}


def sweep_hypotheses():
    worst = {"H1": 0.0, "H2": 0.0, "H4": 0.0}
    H1, _ = manufactured_single(torus_points=64, n_times=32)
    H2 = comet_decay_synthetic()
    for H in (H1, H2):
        rep = hypotheses_report(H, zeta=0.02, n_samples=4,
                                seed=20240905)
        worst["H1"] = max(worst["H1"], rep["H1_first"], rep["H1_second"])
        worst["H2"] = max(worst["H2"], rep["H2_ratio"])
        worst["H4"] = max(worst["H4"], *rep["H4_ratios"].values())
    return {k: v * SAFETY for k, v in worst.items()}


def sweep_comet_decay():
    out = {0: 0.0, 1: 0.0}
    for eps in (0.05, 0.1, 0.2):
        for v_scale in (1.2, 3.0):
            masses = Masses(1.0, 1e-3, 1e-3, mc=1e-3)
            v = v_scale * 2.0 / eps
            mu = masses.M + masses.mc
            orbit = CometOrbit(1.5, mu / v ** 2, mu, t_peri=-1.0)
            chart = CircularChart(masses, a1=0.02, a2=0.2)

            def sampler(rng, t, chart=chart, orbit=orbit, eps=eps):
                th = rng.uniform(0, 1, 4)
                rmax = eps * orbit.radius(t) / 3.0
                xi = rng.standard_normal(2)
                xi = xi / np.linalg.norm(xi) * rng.uniform(0, rmax)
                return chart.positions(th, xi, np.zeros(2))

            for k in (0, 1):
                rep = decay_diagnostics(sampler, orbit, masses, eps, k,
                                        np.geomspace(1, 1000, 15),
                                        n_samples=12, seed=20240906)
                scale = masses.M * masses.mc * eps
                out[k] = max(out[k], rep["sup_Hc"] / scale,
                             rep["sup_gradHc_t2"] / scale)
    return {("C", k): v * SAFETY for k, v in out.items()}


def run_all():
    report = {}
    report["smoothing"] = sweep_smoothing()
    report["norm_algebra"] = sweep_norm_algebra()
    report["flow"] = sweep_flow_exponents()
    report["homological"] = sweep_homological()
    report["hypotheses"] = sweep_hypotheses()
    report["comet"] = sweep_comet_decay()
    return report


if __name__ == "__main__":
    import pprint
    pprint.pprint(run_all())
