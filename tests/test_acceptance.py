"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the measured value and
the tolerance it was judged against.  Tolerances are fixed here, not
tuned at runtime.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from calibration import cdoc, composition_check, convexity_check, \
    corpus_32, decay_diagnostics
from oracles import GridFnInterpolant, VectorFieldSpec, apply_DF, \
    fundamental_matrix
from wacyl.celestial import (C_BAR, CartesianState, CircularChart,
                             CometOrbit, ExtensionParams, Masses,
                             SurrogateSystem, check_speed_window,
                             confinement_check, eval_H0_cartesian,
                             eval_H0_split, extend_Hc, integrate_system,
                             split_coordinates)
from wacyl.functional import right_inverse
from wacyl.grids import GridFn, SpatialGrid, TimeGrid
from wacyl.homological import HomologicalProblem, solve_he
from wacyl.nashmoser import (ZehnderParams, choose_schedule, iterate,
                             manufactured_power, manufactured_single,
                             monitor, params_from_order, validate_params)
from wacyl.norms import norm_algebra_check, weighted_norm
from wacyl.smoothing import smooth, verify_smoothing_bounds


def report(criterion, ok, detail):
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


# --------------------------------------------------------------------
# 1. parameter presets
# --------------------------------------------------------------------

def test_criterion_01_parameter_presets():
    worked = ZehnderParams(s=10.0, lam=6.5, rho=1.0, beta=1.5,
                           alpha=7.0 / 6.0)
    ok1 = validate_params(worked)["pass"]
    minimal = params_from_order(8.0)
    ok2 = validate_params(minimal)["pass"] and \
        minimal.lam == pytest.approx(3.75)
    bad_beta = ZehnderParams(s=10.0, lam=6.5, rho=1.0, beta=2.0,
                             alpha=7.0 / 6.0)
    ok3 = not validate_params(bad_beta)["pass"]
    try:
        params_from_order(7.9)
        ok4 = False
    except ValueError:
        ok4 = True
    report(1, ok1 and ok2 and ok3 and ok4,
           f"worked example {ok1}, minimal-order set {ok2}, "
           f"beta=2 rejected {ok3}, s=7.9 rejected {ok4}")


# --------------------------------------------------------------------
# 2. homological solver exactness
# --------------------------------------------------------------------

def test_criterion_02_homological_exactness():
    sg = SpatialGrid(1, 128)
    tg = TimeGrid(20.0, n_points=64)
    z1 = GridFn.from_callable(sg, tg, lambda q, t: 1.0 / t ** 2 + 0 * q)
    s1 = solve_he(HomologicalProblem(omega=[1.0], z=z1, sigma=1.0),
                  quad_tol=1e-11)
    err1 = np.abs(s1.kappa.values + 1.0 / tg.points[:, None, None]).max()

    z2 = GridFn.from_callable(sg, tg,
                              lambda q, t: np.cos(2 * np.pi * q) / t ** 2)
    s2 = solve_he(HomologicalProblem(omega=[1.0], z=z2, sigma=1.0),
                  quad_tol=1e-11)
    rng = np.random.default_rng(0)
    err2 = 0.0
    for _ in range(20):
        qi = int(rng.integers(0, 128))
        ti = int(rng.integers(0, 64))
        q, t = qi / 128.0, tg.points[ti]
        c, _ = quad(lambda s: 1.0 / s ** 2, t, np.inf, weight="cos",
                    wvar=2 * np.pi)
        s, _ = quad(lambda s: 1.0 / s ** 2, t, np.inf, weight="sin",
                    wvar=2 * np.pi)
        ph = 2 * np.pi * (q - t)
        want = -(np.cos(ph) * c - np.sin(ph) * s)
        err2 = max(err2, abs(s2.kappa.values[ti, qi, 0] - want))
    report(2, err1 <= 1e-8 and err2 <= 1e-7,
           f"1/t^2 node error {err1:.2e} <= 1e-8; "
           f"cosine vs quadrature oracle {err2:.2e} <= 1e-7")


# --------------------------------------------------------------------
# 3. fundamental-matrix closed form
# --------------------------------------------------------------------

def test_criterion_03_fundamental_matrix_closed_form():
    F = VectorFieldSpec([1.0])
    worst = 0.0
    for c in (0.1, 0.3, 0.9):
        for ratio in (2.0, 4.0, 16.0):
            def g(q, t, c=c):
                return np.full((len(np.atleast_2d(q)), 1, 1), c / t)

            R = fundamental_matrix(g, F, np.array([0.3]), 1.0, ratio,
                                   tol=1e-12)
            worst = max(worst, abs(R[0, 0] - ratio ** c))
    report(3, worst <= 1e-8,
           f"max |R - (tau/t)^c| = {worst:.2e} <= 1e-8 over "
           "c in {0.1,0.3,0.9}, ratios {2,4,16}")


# --------------------------------------------------------------------
# 4. right-inverse property
# --------------------------------------------------------------------

def test_criterion_04_right_inverse():
    H, _ = manufactured_single()
    sg, tg = H.grid, H.times
    v0 = GridFn.zeros(sg, tg, 1)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        amps = rng.standard_normal(6) / np.arange(1, 7) ** 2
        phases = rng.uniform(0, 1, 6)

        def zf(q, t, amps=amps, phases=phases):
            acc = 0.0
            for k in range(6):
                acc = acc + amps[k] * np.cos(
                    2 * np.pi * ((k + 1) * q + phases[k]))
            return acc / t ** 2

        z = GridFn.from_callable(sg, tg, zf)
        sol = right_inverse(H, v0, z, quad_tol=1e-10)
        err = weighted_norm(GridFn(sg, tg,
                                   apply_DF(H, v0, sol.kappa).values
                                   - z.values), 0, 2)
        worst = max(worst, err / weighted_norm(z, 0, 2))
    report(4, worst <= 1e-5,
           f"max |DF eta z - z| / |z| = {worst:.2e} <= 1e-5 "
           "over 10 random band-limited z")


# --------------------------------------------------------------------
# 5. Nash-Moser convergence (128 x 64)
# --------------------------------------------------------------------

def test_criterion_05_nash_moser_convergence():
    # exactness on the single-mode manufactured pair
    H1, vstar1 = manufactured_single()
    p1 = params_from_order(8.0, Q=2.0)
    sol1, st1 = iterate(H1, p1, max_steps=10, target=1e-6,
                        quad_tol=1e-10)
    res1 = sol1.residual_norm
    dv1 = weighted_norm(GridFn(H1.grid, H1.times,
                               sol1.v.values - vstar1.values),
                        1, 1)
    # monotone decrease and envelope shape on the borderline-class pair
    H2, vstar2 = manufactured_power()
    p2, _ = choose_schedule(H2, params_from_order(8.0))
    sol2, st2 = iterate(H2, p2, max_steps=12, target=1e-6,
                        quad_tol=1e-10, min_steps=3)
    mono = st2.j >= 3 and all(
        st2.true_residuals[i + 1] < st2.true_residuals[i]
        for i in range(3))
    res2 = sol2.residual_norm <= 1e-6 * max(1.0, st2.true_residuals[0])
    dv2 = weighted_norm(GridFn(H2.grid, H2.times,
                               sol2.v.values - vstar2.values),
                        1, 1)
    mon = monitor(st2, p2, H2.omega)
    slope_ok = mon["slope"] is not None and mon["slope"] < 0 \
        and abs(mon["slope_ratio"] - 1.0) <= 0.25
    ok = (res1 <= 1e-6 and dv1 <= 1e-4 and mono and res2
          and dv2 <= 1e-4 and slope_ok)
    report(5, ok,
           f"single-mode residual {res1:.2e} <= 1e-6, |v-v*| "
           f"{dv1:.2e} <= 1e-4; borderline run monotone x3 {mono}, "
           f"final <= 1e-6 {res2}, |v-v*| {dv2:.2e} <= 1e-4, "
           f"slope/( -lambda ln Q) = {mon['slope_ratio']:.3f} in "
           "[0.75, 1.25]")


# --------------------------------------------------------------------
# 6. smoothing inequalities
# --------------------------------------------------------------------

def test_criterion_06_smoothing_inequalities():
    worst = {}
    for f in corpus_32(20240901, n_fns=3):
        for tau in (8.0, 16.0, 32.0, 64.0):
            for (m, d) in ((2, 0), (4, 1), (6, 2)):
                rep = verify_smoothing_bounds(f, tau, m, d)
                k1 = rep["ratio_S1"] / cdoc("S1", m, d)
                k2 = rep["ratio_S2"] / cdoc("S2", m, d)
                worst[(m, d)] = max(worst.get((m, d), 0.0), k1, k2)
    bounded = all(v <= 1.0 for v in worst.values())
    # plateau-band-limited input: the S2 numerator is exactly zero
    sg = SpatialGrid(1, 128)
    tg = TimeGrid(8.0, n_points=8)
    f = GridFn.from_callable(
        sg, tg, lambda q, t: (np.sin(2 * np.pi * q)
                              + 0.5 * np.cos(2 * np.pi * 3 * q)) / t)
    exact0 = np.array_equal(smooth(f, 8.0).values, f.values)
    report(6, bounded and exact0,
           "S1/S2 ratios within frozen C_doc (max normalized "
           f"{max(worst.values()):.3f} <= 1) over tau in {{8,16,32,64}}; "
           f"plateau band-limited S2 numerator exactly 0: {exact0}")


# --------------------------------------------------------------------
# 7. norm calculus
# --------------------------------------------------------------------

def test_criterion_07_norm_calculus():
    mono_ok = True
    prod_worst = 0.0
    comp_worst = 0.0
    conv_worst = 0.0
    fns = corpus_32(20240902, n_fns=4)
    gs = corpus_32(20240903, n_fns=4)
    rng = np.random.default_rng(7)
    for f, g in zip(fns, gs):
        for (sigma, l, m) in ((1.0, 1.0, 1.0), (2.0, 0.5, 1.5)):
            lo = weighted_norm(f, sigma, l)
            hi = weighted_norm(f, sigma, l + m)
            mono_ok = mono_ok and lo <= hi * (1 + 1e-12)
        u = GridFn.from_callable(
            f.grid, f.times,
            lambda q, t, a=rng.uniform(0.01, 0.04):
                a * np.sin(2 * np.pi * q) / t)
        rep = {**norm_algebra_check(f, g, 2.0, 1.0, 1.0),
               **composition_check(f, u, 2.0, 1.0, 1.0)}
        prod_worst = max(prod_worst, rep["product_ratio"]
                         / cdoc("product", 2))
        comp_worst = max(comp_worst, rep["composition_ratio"]
                         / cdoc("composition", 2))
        conv = convexity_check(f, 0.0, 2.0, 0.5, l=1.0)
        conv_worst = max(conv_worst, conv["ratio"]
                         / cdoc("convexity"))
    ok = mono_ok and max(prod_worst, comp_worst, conv_worst) <= 1.0
    report(7, ok,
           f"monotonicity exact {mono_ok}; normalized ratios: product "
           f"{prod_worst:.3f}, composition {comp_worst:.3f}, convexity "
           f"{conv_worst:.3f} (all <= 1)")


# --------------------------------------------------------------------
# 8. comet decay law
# --------------------------------------------------------------------

def test_criterion_08_comet_decay_law():
    eps = 0.1
    masses = Masses(1.0, 1e-3, 1e-3, mc=1e-3)
    mu = masses.M + masses.mc
    v_target = 4.0 / eps
    orbit = CometOrbit(eccentricity=1.5, a_h=mu / v_target ** 2,
                       mu_grav=mu, t_peri=-1.0)
    t_grid = np.geomspace(1.0, 1000.0, 25)
    speed = check_speed_window(orbit, t_grid, eps)
    # fitted asymptotic speed from the radius profile
    t1, t2 = 400.0, 900.0
    v_fit = (orbit.radius(t2) - orbit.radius(t1)) / (t2 - t1)
    chart = CircularChart(masses, a1=0.05, a2=1.0)

    def sampler(rng, t):
        th = rng.uniform(0, 1, 4)
        rmax = eps * orbit.radius(t) / 3.0
        xi = rng.standard_normal(2)
        xi = xi / np.linalg.norm(xi) * rng.uniform(0, rmax)
        return chart.positions(th, xi, np.zeros(2))

    dd = decay_diagnostics(sampler, orbit, masses, eps, 0, t_grid,
                           n_samples=40)
    ok = (speed["radius_at_1"] > 1.0 / eps and v_fit > 2.0 / eps
          and speed["sup_t_over_c"] < eps and dd["pass"])
    report(8, ok,
           f"|c(1)| = {speed['radius_at_1']:.1f} > 10, fitted v = "
           f"{v_fit:.1f} > 20, sup t/|c| = {speed['sup_t_over_c']:.3f} "
           f"< {eps}; sup |dHc| t^2 = {dd['sup_gradHc_t2']:.2e} <= "
           f"{dd['bound']:.2e} (frozen C)")


# --------------------------------------------------------------------
# 9. conservative sub-case
# --------------------------------------------------------------------

def test_criterion_09_conservative_subcase():
    masses = Masses(1.0, 1e-3, 1e-3, mc=0.0)
    chart = CircularChart(masses, a1=0.5, a2=2.0)
    st0 = chart.state(np.array([0.0, 0.25, 0.0, 0.0]), np.zeros(2),
                      np.zeros(2), np.zeros(2))
    traj = integrate_system(st0, None, masses, 1.0, 1001.0, tol=1e-12)
    h_rel = traj["H0_drift"] / abs(traj["H0"][0])
    y_drift = traj["Y0_drift"]
    split_worst = 0.0
    for x, y in zip(traj["x"][::20], traj["y"][::20]):
        st = CartesianState(x=x, y=y)
        sc = split_coordinates(st, masses)
        split_worst = max(split_worst,
                          abs(eval_H0_cartesian(st, masses)
                              - eval_H0_split(sc, masses)))
    ok = h_rel <= 1e-8 and y_drift <= 1e-8 and split_worst <= 1e-12
    report(9, ok,
           f"H0 drift {h_rel:.2e} <= 1e-8 and Y0 drift {y_drift:.2e} "
           f"<= 1e-8 over 10^3 time units; split vs cartesian energy "
           f"{split_worst:.2e} <= 1e-12")


# --------------------------------------------------------------------
# 10. confinement
# --------------------------------------------------------------------

def test_criterion_10_confinement():
    eps = 0.1
    masses = Masses(1.0, 1e-3, 1e-3, mc=1e-3)
    mu = masses.M + masses.mc
    C_bar = C_BAR
    # compliant: v above the 12 (1 + C_bar)/eps threshold
    v_fast = 260.0
    orbit = CometOrbit(1.5, mu / v_fast ** 2, mu, t_peri=-1.0)
    chart = CircularChart(masses, a1=0.05, a2=1.0)
    hexf = extend_Hc(ExtensionParams(epsilon=eps), orbit, masses, chart)
    system = SurrogateSystem(hexf)
    theta0 = np.array([0.1, 0.7, 0.0, 0.0])
    xi0 = np.array([0.3, -0.2])
    eta0 = system.leading_drift_momentum(theta0, xi0, 1.0)
    traj = system.integrate(np.concatenate([theta0, xi0, np.zeros(2),
                                            eta0]), 1.0, 101.0, tol=1e-10)
    good = confinement_check(traj["t"], traj["states"][:, 4:6], orbit, eps)
    # stress: sub-threshold v with an extremal outward drift
    v_slow = 25.0
    orbit2 = CometOrbit(1.5, mu / v_slow ** 2, mu, t_peri=-1.0)
    hexf2 = extend_Hc(ExtensionParams(epsilon=eps), orbit2, masses,
                      chart)
    system2 = SurrogateSystem(hexf2)
    r1 = orbit2.radius(1.0)
    xi0s = np.array([0.95 * eps * r1 / 6.0, 0.0])
    eta0s = masses.M * (1.0 + C_bar) * 1.5 * np.array([1.0, 0.0])
    traj2 = system2.integrate(np.concatenate([theta0, xi0s,
                                              np.zeros(2), eta0s]),
                              1.0, 41.0, tol=1e-9)
    bad = confinement_check(traj2["t"], traj2["states"][:, 4:6], orbit2,
                            eps)
    ok = (good["pass"] and good["v_above_threshold"]
          and not bad["pass"] and not bad["v_above_threshold"]
          and bad["first_violation"] is not None)
    report(10, ok,
           f"compliant run confined (v = {good['v_asymptotic']:.0f} > "
           f"{good['v_threshold']:.0f}); sub-threshold stress (v = "
           f"{bad['v_asymptotic']:.0f}) violates at t = "
           f"{bad['first_violation']['t']:.2f}")


# --------------------------------------------------------------------
# 11. asymptotic metric
# --------------------------------------------------------------------

def test_criterion_11_asymptotic_metric():
    eps = 1e-3
    H, vstar = manufactured_single(eps)
    p = params_from_order(8.0, Q=2.0)
    sol, st = iterate(H, p, max_steps=10, target=1e-6, quad_tol=1e-10)
    zeta = weighted_norm(sol.v, 1, 1)
    interp = GridFnInterpolant(sol.v)

    def X(state, t):
        q = state[0]
        da = 2 * np.pi * eps * np.cos(2 * np.pi * q) / t ** 2 \
            - 2 * eps * np.sin(2 * np.pi * q) / t ** 3
        return np.array([1.0, -da])

    margin = 0.1 * zeta + 1e-8
    worst_ratio = 0.0
    ok = True
    from scipy.integrate import solve_ivp
    for q0 in (0.15, 0.6):
        state = np.array([q0, interp(np.array([[q0]]), 1.0)[0, 0]])
        t_prev = 1.0
        for t in H.times.points[1:]:
            sol_ivp = solve_ivp(lambda s, y: X(y, s), (t_prev, t),
                                state, method="DOP853", rtol=1e-11,
                                atol=1e-13)
            state = sol_ivp.y[:, -1]
            t_prev = t
            # Gamma = 0 on this spec: the base reference rotates rigidly
            ref_q = q0 + 1.0 * (t - 1.0)
            dq = (state[0] - ref_q + 0.5) % 1.0 - 0.5
            profile = float(np.hypot(dq, state[1]))
            bound = (zeta + margin) / t
            worst_ratio = max(worst_ratio, profile / bound)
            ok = ok and profile <= bound
    report(11, ok,
           f"profile <= (zeta + margin)/t at all grid times, zeta = "
           f"{zeta:.2e}; max profile/bound = {worst_ratio:.3f}")
