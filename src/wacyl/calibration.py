"""Seeded corpus sweeps that produced the frozen constants.

Each sweep measures the relevant ratios over a reproducible corpus
through the library check that uses the constant
(``verify_smoothing_bounds``, ``norm_algebra_check`` and
``convexity_check``, ``flow.gronwall_diagnostics``,
``homological.estimate_check``, ``hypotheses_report``,
``decay_diagnostics``), so a change to a check changes its calibration
too, and reports the maximum; the values in ``constants.py`` are these
maxima with a 15 percent safety margin, frozen once.  Rerunning is only
needed when the corpus definitions change.
"""

from __future__ import annotations

import numpy as np

from .grids import GridFn, SpatialGrid, TimeGrid
from .norms import convexity_check, norm_algebra_check, random_modes
from .smoothing import verify_smoothing_bounds

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
            rep = norm_algebra_check(f, g, sigma, 1.0, 1.0, u=u)
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
    flow.gronwall_diagnostics for f = mu sin(2 pi q)/t, g = 0.9 mu/t,
    reported as exponent/mu ratios."""
    from .flow import VectorFieldSpec, gronwall_diagnostics
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
    from .homological import HomologicalProblem, estimate_check, solve_he
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
            prob = HomologicalProblem(omega=[1.0], z=z, f=f, g=g,
                                      sigma=sigma)
            est = estimate_check(solve_he(prob), prob)
            implied = est["measured"] * est["c_estimate"] / est["bound"]
            worst[sigma] = max(worst[sigma], implied)
    return {("c_estimate", s): v * SAFETY for s, v in worst.items()}


def sweep_hypotheses():
    from .functional import hypotheses_report
    from .nashmoser import comet_decay_synthetic, manufactured_single
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
    from .celestial import CircularChart, CometOrbit, Masses, \
        decay_diagnostics
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
