import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import calibration
from wacyl import celestial
from wacyl.celestial import (CartesianState, CircularChart, CometOrbit,
                             ExtensionParams, Masses, SurrogateSystem,
                             asymptotic_metric, check_speed_window,
                             confinement_check, eval_H0_cartesian,
                             eval_H0_split, extend_Hc,
                             integrate_system, solve_hyperbolic_kepler,
                             split_coordinates)
from wacyl.celestial import _cartesian_rhs, _comet_pull, _mass_products, \
    _split_matrices
from wacyl.flow import IntegrationError

from calibration import decay_diagnostics
from oracles import chain_gradient, chart_circles, chart_positions, \
    chart_pullback, eval_Hc, grad_Hc, hess_Hc, loop_asymptotic_metric, \
    loop_confinement_check


MASSES = Masses(1.0, 1e-3, 1e-3, mc=1e-3)


def fast_orbit(v=250.0, masses=MASSES, e=1.5):
    mu = masses.M + masses.mc
    return CometOrbit(eccentricity=e, a_h=mu / v ** 2, mu_grav=mu,
                      t_peri=-1.0)


# ---- ephemeris -----------------------------------------------------

def test_kepler_pericenter():
    assert solve_hyperbolic_kepler(2.0, 0.0) == 0.0


def test_kepler_vs_bisection_oracle():
    H = solve_hyperbolic_kepler(2.0, 1.0)
    lo, hi = 0.0, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * np.sinh(mid) - mid < 1.0:
            lo = mid
        else:
            hi = mid
    assert abs(H - 0.5 * (lo + hi)) < 1e-12


def test_kepler_rejects_elliptic():
    with pytest.raises(ValueError):
        solve_hyperbolic_kepler(0.9, 1.0)


@pytest.mark.parametrize("M_h", [math.nan, math.inf, -math.inf])
def test_kepler_rejects_non_finite_anomaly(M_h):
    # without the check the Newton loop ends on a nan residual and hands
    # back nan (inf for an infinite M_h) as the anomaly
    with pytest.raises(ValueError, match=f"M_h = {M_h} must be finite"):
        solve_hyperbolic_kepler(1.5, M_h)


@pytest.mark.parametrize("name, value", [
    ("eccentricity", math.nan), ("eccentricity", math.inf),
    ("a_h", math.nan), ("a_h", math.inf), ("mu_grav", math.nan),
    ("mu_grav", math.inf), ("t_peri", math.nan), ("t_peri", -math.inf)])
def test_comet_orbit_rejects_non_finite_input(name, value):
    # nan <= 1 and nan <= 0 are False: the range checks let nan through
    kwargs = {"eccentricity": 1.5, "a_h": 0.01, "mu_grav": 3.0,
              "t_peri": -1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} = {value} must be finite"):
        CometOrbit(**kwargs)


def test_asymptotic_radial_speed():
    orbit = fast_orbit(v=25.0)
    t1 = 100.0 * abs(orbit.t_peri)
    slope = (orbit.radius(2 * t1) - orbit.radius(t1)) / t1
    assert abs(slope / orbit.v_asymptotic - 1.0) < 0.01


def test_pericenter_position_and_domain():
    orbit = CometOrbit(eccentricity=1.5, a_h=0.01, mu_grav=3.0,
                       t_peri=-1.0)
    # mean anomaly 0 at t_peri: position at the pericenter a_h (e - 1)
    pos = orbit._ephemeris(orbit.t_peri)[:2]
    assert np.allclose(pos, [0.01 * 0.5, 0.0], atol=1e-15)


def test_speed_window_compliant_and_violating():
    eps = 0.1
    good = fast_orbit(v=4.0 / eps)
    rep = check_speed_window(good, np.geomspace(1, 1000, 30), eps)
    assert rep["pass"]
    assert rep["sup_t_over_c"] < eps
    slow = fast_orbit(v=1.0)   # |c(1)| ~ 2 < 1/eps
    rep2 = check_speed_window(slow, np.geomspace(1, 100, 20), eps)
    assert not rep2["precondition_c1"] or not rep2["precondition_v"]
    assert not rep2["pass"]


def test_speed_window_solves_kepler_once_per_sample(monkeypatch):
    # radius and radial speed share one anomaly; radius_at_1 is the 41st
    calls = []

    def counted(e, M_h):
        calls.append(M_h)
        return solve_hyperbolic_kepler(e, M_h)

    monkeypatch.setattr(celestial, "solve_hyperbolic_kepler", counted)
    orbit = fast_orbit(v=40.0)
    t_grid = np.geomspace(1.0, 101.0, 40)
    rep = check_speed_window(orbit, t_grid, 0.1)
    assert len(calls) == 41
    for row, t in zip(rep["rows"], t_grid):
        assert row["radius"] == orbit.radius(t)
        assert row["radial_speed"] == orbit._radial(t)[1]


# ---- splitting and Hamiltonians ------------------------------------

def unit_state():
    return CartesianState(
        x=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        y=np.array([[0.1, 0.2], [-0.05, 0.3], [0.2, -0.1]]))


def test_split_direct_substitution():
    sc = split_coordinates(unit_state(), Masses(1.0, 1.0, 1.0))
    assert np.allclose(sc.X[1], [-1.0, 0.0])
    assert np.allclose(sc.X[2], [0.0, -1.0])
    assert np.allclose(sc.X[0], [1.0 / 3.0, 1.0 / 3.0])


def test_split_roundtrip_and_symplectic():
    mm = Masses(1.3, 0.7, 2.1)
    st = unit_state()
    sc = split_coordinates(st, mm)
    A, B = _split_matrices(mm)
    assert np.abs(np.linalg.solve(A, sc.X) - st.x).max() < 1e-14
    assert np.abs(np.linalg.solve(B, sc.Y) - st.y).max() < 1e-14
    rng = np.random.default_rng(1)
    for _ in range(100):
        dx1, dy1, dx2, dy2 = rng.standard_normal((4, 3, 2))
        o1 = (dy1 * dx2).sum() - (dy2 * dx1).sum()
        o2 = ((B @ dy1) * (A @ dx2)).sum() - ((B @ dy2) * (A @ dx1)).sum()
        assert abs(o1 - o2) < 1e-12


def test_H0_split_equals_cartesian():
    rng = np.random.default_rng(4)
    mm = Masses(1.0, 0.5, 0.25)
    for _ in range(1000):
        st = CartesianState(x=rng.standard_normal((3, 2)),
                            y=rng.standard_normal((3, 2)))
        sc = split_coordinates(st, mm)
        assert abs(eval_H0_cartesian(st, mm)
                   - eval_H0_split(sc, mm)) < 1e-12


def test_H0_equilateral_potential():
    st = CartesianState(
        x=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]),
        y=np.zeros((3, 2)))
    assert eval_H0_cartesian(st, Masses(1.0, 1.0, 1.0)) == \
        pytest.approx(-3.0)


def test_K_translation_invariant():
    mm = Masses(1.0, 0.5, 0.25)
    st = unit_state()
    sc = split_coordinates(st, mm)
    shifted = CartesianState(x=st.x + np.array([2.0, -1.0]), y=st.y)
    sc2 = split_coordinates(shifted, mm)
    k1 = eval_H0_split(sc, mm) - (sc.Y[0] ** 2).sum() / (2 * mm.M)
    k2 = eval_H0_split(sc2, mm) - (sc2.Y[0] ** 2).sum() / (2 * mm.M)
    assert abs(k1 - k2) < 1e-12


def test_Hc_zero_mass_and_single_body():
    pos = np.array([[0.1, 0.0], [0.0, 0.2], [-0.1, -0.05]])
    orbit = fast_orbit()
    assert eval_Hc(pos, orbit._ephemeris(2.0)[:2],
                   Masses(1.0, 1.0, 1.0, mc=0.0)) == 0.0
    lone = Masses(1.0, 0.0, 0.0, mc=2.0)
    got = eval_Hc(np.zeros((3, 2)), (3.0, 0.0), lone)
    assert got == pytest.approx(-2.0 / 3.0)


def test_grad_and_hess_vs_finite_differences():
    pos = np.array([[0.1, 0.0], [0.0, 0.2], [-0.1, -0.05]])
    orbit = fast_orbit(v=25.0)
    c = orbit._ephemeris(5.0)[:2]
    g = grad_Hc(pos, c, MASSES)
    h = 1e-6
    for i in range(3):
        for a in range(2):
            pp = pos.copy()
            pp[i, a] += h
            pm = pos.copy()
            pm[i, a] -= h
            fd = (eval_Hc(pp, c, MASSES) - eval_Hc(pm, c, MASSES)) / (2 * h)
            assert abs(g[i, a] - fd) <= 1e-8 * max(1.0, abs(fd))
    Hs = hess_Hc(pos, c, MASSES)
    for i in range(3):
        for a in range(2):
            pp = pos.copy()
            pp[i, a] += h
            pm = pos.copy()
            pm[i, a] -= h
            fd = (grad_Hc(pp, c, MASSES)[i]
                  - grad_Hc(pm, c, MASSES)[i]) / (2 * h)
            assert np.abs(Hs[i][:, a] - fd).max() <= 1e-5 * np.abs(
                fd).max()


@pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-120,
                                 0.5 * celestial.PROXIMITY],
                         ids=["on", "1e-12", "1e-120", "half-proximity"])
def test_a_body_at_the_comet_is_refused(gap):
    # all three refuse a body within PROXIMITY of the comet before they
    # divide, d^3 underflowing to 0 at 1e-120 included; grad_Hc used to
    # return a force of 1e18 at 1e-12, and hess_Hc nan on it
    pos = np.array([[0.1, 0.0], [0.0, 0.2], [-0.1, -0.05]])
    c = pos[1] + [gap, 0.0]
    for fn in (eval_Hc, grad_Hc, hess_Hc):
        with pytest.raises(ZeroDivisionError, match=re.escape(
                f"a body is {gap:.3e} from the comet (limit 0.0001)")):
            fn(pos, c, MASSES)


def test_Hc_linear_in_comet_mass():
    pos = np.array([[0.1, 0.0], [0.0, 0.2], [-0.1, -0.05]])
    orbit = fast_orbit()
    m2 = Masses(1.0, 1e-3, 1e-3, mc=2e-3)
    c = orbit._ephemeris(4.0)[:2]
    assert eval_Hc(pos, c, m2) == pytest.approx(
        2.0 * eval_Hc(pos, c, MASSES), rel=1e-14)


# ---- decay diagnostics ---------------------------------------------

def chart_sampler(chart, orbit, eps):
    def sampler(rng, t):
        th = rng.uniform(0, 1, 4)
        rmax = eps * orbit.radius(t) / 3.0
        xi = rng.standard_normal(2)
        xi = xi / np.linalg.norm(xi) * rng.uniform(0, rmax)
        return chart.positions(th, xi, np.zeros(2))
    return sampler


def test_decay_diagnostics_zero_mass():
    masses = Masses(1.0, 1e-3, 1e-3, mc=0.0)
    orbit = fast_orbit(v=40.0)
    chart = CircularChart(masses, a1=0.05, a2=1.0)
    rep = decay_diagnostics(chart_sampler(chart, orbit, 0.1), orbit,
                            masses, 0.1, 0, [1.0, 10.0], n_samples=5)
    assert rep["sup_Hc"] == 0.0 and rep["sup_gradHc_t2"] == 0.0


def test_decay_diagnostics_bounded_profile():
    orbit = fast_orbit(v=40.0)
    chart = CircularChart(MASSES, a1=0.05, a2=1.0)
    rep = decay_diagnostics(chart_sampler(chart, orbit, 0.1), orbit,
                            MASSES, 0.1, 1, np.geomspace(1, 1000, 20),
                            n_samples=25)
    assert rep["pass"]
    assert rep["constants_source"] == "calibrated"


def test_decay_diagnostics_refuses_bad_region():
    orbit = fast_orbit(v=40.0)

    def bad_sampler(rng, t):
        return np.full((3, 2), 10.0 * orbit.radius(t))

    with pytest.raises(ValueError):
        decay_diagnostics(bad_sampler, orbit, MASSES, 0.1, 0, [1.0])


@pytest.mark.parametrize("k", [0, 1])
def test_decay_diagnostics_solves_kepler_once_per_time_node(monkeypatch, k):
    # eval_Hc, grad_Hc and hess_Hc take the comet's position, read once
    # per node; the sampler here solves none itself
    orbit = fast_orbit(v=40.0)
    solves = []
    real = celestial.solve_hyperbolic_kepler

    def counted(e, M_h):
        solves.append(M_h)
        return real(e, M_h)
    monkeypatch.setattr(celestial, "solve_hyperbolic_kepler", counted)
    pos = np.array([[0.1, 0.0], [0.0, 0.2], [-0.1, -0.05]])
    t_grid = np.geomspace(1, 1000, 6)
    rep = decay_diagnostics(lambda rng, t: pos, orbit, MASSES, 0.1, k,
                            t_grid, n_samples=4)
    assert len(solves) == len(t_grid)
    assert len(rep["rows"]) == len(t_grid) and rep["sup_Hc"] > 0


# ---- extension ------------------------------------------------------

def test_extension_params_validation():
    with pytest.raises(ValueError):
        ExtensionParams(epsilon=0.7)


@pytest.fixture(scope="module")
def hex_field():
    orbit = fast_orbit(v=25.0)
    chart = CircularChart(MASSES, a1=0.05, a2=1.0)
    return extend_Hc(ExtensionParams(epsilon=0.1), orbit, MASSES, chart)


def hex_gradient(hexf, theta, xi, r, t):
    """HExtension._gradient on arrays: (d_theta (4,), d_xi (2,), d_r (2,))."""
    (a1, a2), d_xi, d_r = hexf._gradient(
        *(np.asarray(v, dtype=float).tolist() for v in (theta, xi, r)),
        float(t))
    return np.array([a1, a2, a1, a2]), np.array(d_xi), np.array(d_r)


def test_extension_identity_inside(hex_field):
    t = 5.0
    rin = 0.1 * hex_field.comet.radius(t) / 6.0
    xi = np.array([0.3 * rin, 0.1 * rin])
    th = np.array([0.2, 0.7, 0.0, 0.0])
    direct = eval_Hc(hex_field.chart.positions(th, xi, np.zeros(2)),
                     hex_field.comet._ephemeris(t)[:2], MASSES)
    assert hex_field.value(th, xi, np.zeros(2), t) == pytest.approx(
        direct, rel=1e-14)


def test_extension_constant_outside(hex_field):
    t = 5.0
    rout = 0.1 * hex_field.comet.radius(t) / 3.0
    th = np.array([0.2, 0.7, 0.0, 0.0])
    v1 = hex_field.value(th, np.array([1.5 * rout, 0.0]),
                         np.zeros(2), t)
    v2 = hex_field.value(th, np.array([0.0, -2.5 * rout]),
                         np.zeros(2), t)
    v0 = hex_field.value(th, np.zeros(2), t=t, r=np.zeros(2))
    assert v1 == pytest.approx(v0, rel=1e-14)
    assert v2 == pytest.approx(v0, rel=1e-14)
    _, d_xi, _ = hex_gradient(hex_field, th, np.array([1.5 * rout, 0.0]),
                              np.zeros(2), t)
    assert np.all(d_xi == 0.0)


def test_extension_b_field_norm_budget(hex_field):
    # the linear-in-r coefficient b = d_r H_ex at xi = r = 0, sup over
    # theta samples and t^2-weighted, within C(1) M m_c eps
    rng = np.random.default_rng(0)
    sup = 0.0
    for t in np.geomspace(1, 100, 10):
        for _ in range(4):
            th = rng.uniform(0, 1, celestial.N_ANGLES)
            b = hex_gradient(hex_field, th, np.zeros(2), np.zeros(2), t)[2]
            sup = max(sup, np.abs(b).max() * t ** 2)
    m = hex_field.masses
    assert sup <= calibration.CELESTIAL_CK[1] * m.M * m.mc \
        * hex_field.params.epsilon


def mp_context(dps):
    import mpmath
    mp = mpmath.MPContext()     # private precision, mpmath.mp untouched
    mp.dps = dps
    return mp


def mp_ephemeris(mp, orbit, t):
    """c(t) and |c(t)| of orbit, the Kepler solve rebuilt in mp; the
    pericenter lies on +x."""
    e, a_h = mp.mpf(orbit.e), mp.mpf(orbit.a_h)
    M_h = mp.mpf(orbit.mean_motion) * (mp.mpf(t) - mp.mpf(orbit.t_peri))
    H = mp.findroot(lambda H: e * mp.sinh(H) - H - M_h, mp.asinh(M_h / e))
    return ((a_h * (e - mp.cosh(H)), a_h * mp.sqrt(e ** 2 - 1) * mp.sinh(H)),
            a_h * (e * mp.cosh(H) - 1))


@pytest.mark.parametrize("t", [1.0, 10.0, 100.0])
def test_ephemeris_matches_high_precision(t):
    mu = MASSES.M + MASSES.mc
    orbit = CometOrbit(eccentricity=1.5, a_h=mu / 250.0 ** 2, mu_grav=mu,
                       t_peri=-1.0)
    c, rc = mp_ephemeris(mp_context(40), orbit, t)
    pos, radius = np.array(orbit._ephemeris(t)[:2]), orbit.radius(t)
    assert np.abs(pos - np.array(c, dtype=float)).max() <= 1e-13 * float(rc)
    assert abs(radius - float(rc)) <= 1e-13 * float(rc)


def mp_gradient(hexf, theta, xi, r, t, dps=50):
    """Reference gradient of H_ex: the Kepler solve, chart, cutoff and
    comet sum rebuilt in mpmath at dps digits, differentiated by
    mpmath.diff; returns (d_theta, d_xi, d_r) as floats."""
    mp = mp_context(dps)
    chart, m, par = hexf.chart, hexf.masses, hexf.params
    c, rc = mp_ephemeris(mp, hexf.comet, t)
    rin, rout = (par.epsilon * rc * celestial.CUTOFF_INNER,
                 par.epsilon * rc * celestial.CUTOFF_OUTER)
    M = mp.mpf(m.M)
    alpha = (m.m1 / M, -(m.m0 + m.m2) / M, m.m1 / M)
    beta = (m.m2 / M, m.m2 / M, -(m.m0 + m.m1) / M)

    def H_ex(*q):
        th, (x, y), rr = q[:4], q[4:6], q[6:]
        u = (mp.sqrt(x ** 2 + y ** 2) - rin) / (rout - rin)
        w = 1 if u <= 0 else 0 if u >= 1 else \
            1 - u ** 3 * (10 - 15 * u + 6 * u ** 2)
        X = []
        for k, a_k in ((0, chart.a1), (1, chart.a2)):
            ang = 2 * mp.pi * (th[k] + th[k + 2])
            rad = a_k * (1 + chart.kappa * rr[k])
            X.append((rad * mp.cos(ang), rad * mp.sin(ang)))
        out = 0
        for mi, al, be in zip((m.m0, m.m1, m.m2), alpha, beta):
            dx = [w * xy + al * X1 + be * X2 - ci
                  for xy, X1, X2, ci in zip((x, y), X[0], X[1], c)]
            out -= mi * m.mc / mp.sqrt(dx[0] ** 2 + dx[1] ** 2)
        return out

    q = [mp.mpf(float(v)) for v in (*theta, *xi, *r)]
    grad = np.array([float(mp.diff(H_ex, q, tuple(int(i == j)
                                                  for i in range(8))))
                     for j in range(8)])
    return grad[:4], grad[4:6], grad[6:]


def stencil(f, x, h=1e-6):
    """Central differences of f at x with step h, one per coordinate."""
    x = np.asarray(x, dtype=float)
    return np.array([(f(x + h * e) - f(x - h * e)) / (2 * h)
                     for e in np.eye(len(x))])


def relative_error(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("v", [250.0, 25.0])
@pytest.mark.parametrize("region", ["plateau", "ramp", "outside"])
def test_extension_gradient_matches_high_precision(v, region):
    orbit = fast_orbit(v=v)
    chart = CircularChart(MASSES, a1=0.05, a2=1.0)
    hexf = extend_Hc(ExtensionParams(epsilon=0.1), orbit, MASSES, chart)
    rng = np.random.default_rng(int(v) + len(region))
    for t in (1.0, *rng.uniform(1.0, 100.0, 2)):
        rin = 0.1 * orbit.radius(t) / 6.0
        rho = {"plateau": 0.7 * rin, "ramp": 1.4 * rin,
               "outside": 2.5 * rin}[region]
        ang = rng.uniform(0, 2 * np.pi)
        theta = rng.uniform(0, 1, 4)
        xi = rho * np.array([np.cos(ang), np.sin(ang)])
        r = rng.uniform(-0.1, 0.1, 2)
        got = hex_gradient(hexf, theta, xi, r, t)
        ref = mp_gradient(hexf, theta, xi, r, t)
        for name, g, want in zip(("theta", "xi", "r"), got, ref):
            if region == "outside" and name == "xi":
                assert np.all(g == 0.0)
            else:
                assert relative_error(g, want) <= 1e-9, (name, t)
        # the xi block is the derivative of value itself, to the
        # truncation of a step 1e-4 of the ramp width ...
        d_xi = stencil(lambda x: hexf.value(theta, x, r, t), xi,
                       h=1e-4 * rin)
        assert np.abs(d_xi - got[1]).max() <= 1e-6 * np.abs(got[1]).max()
        # ... while at h = 1e-6 rounding swamps the tidal theta block
        if v == 250.0 and t > 1.0:
            d_theta = stencil(lambda th: hexf.value(th, xi, r, t), theta)
            assert relative_error(d_theta, ref[0]) > 1e-9


def test_extension_gradient_at_the_origin(hex_field):
    # at rho = |xi| = 0 the cutoff is flat (w = 1, w' = 0): the gradient
    # is finite and is the plateau chain rule, the pullback of grad_Hc
    t, chart = 5.0, hex_field.chart
    th, r = np.array([0.2, 0.7, 0.1, 0.4]), np.array([0.03, -0.05])
    got = hex_gradient(hex_field, th, np.zeros(2), r, t)
    dx = grad_Hc(chart.positions(th, np.zeros(2), r),
                 hex_field.comet._ephemeris(t)[:2], MASSES)
    (a1, a2), d_xi, d_r = chart_pullback(
        chart, chart_circles(chart, th.tolist(), r.tolist()),
        dx.ravel().tolist())
    want = np.array([a1, a2, a1, a2]), np.array(d_xi), np.array(d_r)
    for g, w in zip(got, want):
        assert np.all(np.isfinite(g))
        assert np.array_equal(g, w)
    rin = 0.1 * hex_field.comet.radius(t) / 6.0
    near = hex_gradient(hex_field, th, np.array([1e-9 * rin, 0.0]), r, t)
    for g, h in zip(got, near):
        assert np.allclose(g, h, rtol=1e-6, atol=0.0)


def floats(nested):
    """A nested sequence of numbers as one float array, whose bytes keep
    each value's sign of zero."""
    return np.array([v for part in nested for v in (
        floats(part) if isinstance(part, tuple) else [part])], dtype=float)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(region=st.sampled_from(["plateau", "ramp", "outside"]),
       depth=st.floats(0.0, 1.0), direction=st.floats(0.0, 2 * math.pi),
       theta=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       r=st.lists(st.floats(-0.1, 0.1), min_size=2, max_size=2),
       t=st.floats(1.0, 100.0), as_arrays=st.booleans())
@example(region="plateau", depth=0.0, direction=0.0,
         theta=[0.2, 0.7, 0.1, 0.4], r=[0.0, 0.0], t=5.0, as_arrays=False)
@example(region="plateau", depth=0.0, direction=0.0,
         theta=[0.2, 0.7, 0.1, 0.4], r=[0.03, -0.05], t=5.0, as_arrays=True)
def test_extension_gradient_is_the_chain_bit_for_bit(hex_field, region, depth,
                                                     direction, theta, r, t,
                                                     as_arrays):
    # the one pass does the chain's operations in the chain's order:
    # circles, positions, the comet's pull, minus it, the pullback by B
    # and the cutoff's chain rule, so every byte (signs of zero too)
    # agrees; depth 0 on the plateau is xi = 0
    rin = 0.1 * hex_field.comet.radius(t) * celestial.CUTOFF_INNER
    rho = {"plateau": depth * rin, "ramp": rin * (1.0 + depth),
           "outside": 2.0 * rin * (1.0 + depth)}[region]
    xi = [rho * math.cos(direction), rho * math.sin(direction)]
    args = [theta, xi, r]
    if as_arrays:
        args = [np.array(a) for a in args]
    got = hex_field._gradient(*args, t)
    want = chain_gradient(hex_field, *args, t)
    assert floats(got).tobytes() == floats(want).tobytes()
    # the chart map too, whose last bits the comet's distance can hide
    chart = hex_field.chart
    circles = chart_circles(chart, args[0], args[2])
    assert floats(chart._frame(*args[::2], args[1])).tobytes() == floats(
        (*circles, *chart_positions(chart, circles, args[1]))).tobytes()


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.5, 3.0],
                         ids=["origin", "plateau", "ramp", "outside"])
def test_extension_reads_the_comet_and_its_pull_once(monkeypatch, rho):
    # one Kepler solve and one comet pass per evaluation of the gradient
    # or the value, wherever xi lies against the cutoff (rho in units of
    # its inner radius)
    hexf = extend_Hc(ExtensionParams(epsilon=0.1), fast_orbit(), MASSES,
                     CircularChart(MASSES, a1=0.05, a2=1.0))
    calls = []
    ephemeris, pull = hexf.comet._ephemeris, celestial._comet_pull
    monkeypatch.setattr(hexf.comet, "_ephemeris",
                        lambda t: calls.append("ephemeris") or ephemeris(t))
    monkeypatch.setattr(celestial, "_comet_pull",
                        lambda *a: calls.append("pull") or pull(*a))
    xi = [rho * 0.1 * hexf.comet.radius(3.0) / 6.0, 0.0]
    calls.clear()
    hexf._gradient([0.1, 0.7, 0.3, 0.2], xi, [0.05, -0.02], 3.0)
    assert calls == ["ephemeris", "pull"]
    calls.clear()
    hexf.value([0.1, 0.7, 0.3, 0.2], xi, [0.05, -0.02], 3.0)
    assert calls == ["ephemeris", "pull"]


def test_extension_gradient_list_and_array_inputs_agree(hex_field):
    rin = 0.1 * hex_field.comet.radius(5.0) / 6.0
    th, xi, r = [0.2, 0.7, 0.1, 0.4], [1.2 * rin, -0.5 * rin], [0.03, -0.05]
    got = hex_gradient(hex_field, th, xi, r, 5)
    want = hex_gradient(hex_field, np.array(th), np.array(xi), np.array(r),
                        np.float64(5.0))
    assert [g.shape for g in got] == [(4,), (2,), (2,)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_extension_gradient_vanishes_without_comet():
    masses0 = Masses(1.0, 1e-3, 1e-3, mc=0.0)
    orbit = fast_orbit(v=250.0, masses=masses0)
    chart = CircularChart(masses0, a1=0.05, a2=1.0)
    hexf = extend_Hc(ExtensionParams(epsilon=0.1), orbit, masses0, chart)
    rin = 0.1 * orbit.radius(3.0) / 6.0
    for rho in (0.5 * rin, 1.5 * rin, 3.0 * rin):
        grads = hex_gradient(hexf, np.array([0.1, 0.7, 0.3, 0.2]),
                             np.array([rho, 0.0]),
                             np.array([0.05, -0.02]), 3.0)
        assert all(np.all(g == 0.0) for g in grads)


# ---- trajectories ---------------------------------------------------

def test_conservative_run_conserves():
    masses = Masses(1.0, 1e-3, 1e-3, mc=0.0)
    chart = CircularChart(masses, a1=0.5, a2=2.0)
    st0 = chart.state(np.array([0.0, 0.25, 0.0, 0.0]), np.zeros(2),
                      np.zeros(2), np.zeros(2))
    traj = integrate_system(st0, None, masses, 1.0, 101.0, tol=1e-12)
    assert traj["H0_drift"] / abs(traj["H0"][0]) <= 1e-9
    assert traj["Y0_drift"] <= 1e-12


def test_two_body_period_matches_kepler():
    masses = Masses(1.0, 1e-3, 1e-12, mc=0.0)
    chart = CircularChart(masses, a1=0.5, a2=50.0)
    st0 = chart.state(np.zeros(4), np.zeros(2), np.zeros(2),
                      np.zeros(2))
    period = 2 * np.pi / chart.n1
    traj = integrate_system(st0, None, masses, 1.0, 1.0 + 5 * period,
                            tol=1e-12)
    X1 = traj["x"][:, 0, :] - traj["x"][:, 1, :]
    ang = np.unwrap(np.arctan2(X1[:, 1], X1[:, 0]))
    slope = np.polyfit(traj["t"], ang, 1)[0]
    assert abs(2 * np.pi / abs(slope) / period - 1.0) <= 1e-6


def test_comet_coupling_energy_drift_bounded():
    # with mc > 0 the H0 drift is driven by the interaction gradient
    orbit = fast_orbit(v=25.0)
    chart = CircularChart(MASSES, a1=0.05, a2=1.0)
    st0 = chart.state(np.array([0.1, 0.6, 0.0, 0.0]), np.zeros(2),
                      np.zeros(2), np.zeros(2))
    traj = integrate_system(st0, orbit, MASSES, 1.0, 21.0, tol=1e-11)
    speeds = np.abs(traj["y"] / MASSES.as_array()[None, :, None]).max()
    grad_sup = max(
        np.abs(grad_Hc(x, orbit._ephemeris(t)[:2], MASSES)).max()
        for t, x in zip(traj["t"], traj["x"]))
    # |dH0/dt| <= |grad Hc| |xdot| along the run, integrated over 20 units
    assert traj["H0_drift"] <= 6 * 20.0 * grad_sup * speeds


@pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2)])
def test_collision_is_refused(i, j):
    x = np.array([[0.0, 0.0], [0.5, 0.1], [-0.3, 0.8]])
    x[j] = x[i]
    y = np.ones((3, 2))
    state = np.concatenate([x.ravel(), y.ravel()])
    # the comet on body i: its pass returns before it divides
    assert _comet_pull(*x.ravel().tolist(), *x[i].tolist(),
                       _mass_products(MASSES)[1]) == (None, None, 0.0)
    # the force pass refuses them as a close encounter before it divides
    with pytest.raises(IntegrationError, match=re.escape(
            "close encounter at t = 1.000000 (smallest distance "
            "0.000e+00 < 0.0001)")):
        _cartesian_rhs(MASSES, None)(1.0, state)
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        eval_H0_cartesian(CartesianState(x, y), MASSES)


@pytest.mark.parametrize("gap", [0.0, 1e-120], ids=["on", "1e-120"])
def test_a_body_at_a_massive_comet_is_a_close_encounter(gap):
    # the comet's pass refuses before it divides, so a body on the comet,
    # or one whose d^3 underflows to 0, ends as the close encounter of
    # the force pass, not as a division by zero; at its pericentre the
    # comet is at (0.5, 0), so body 1 is exactly gap from it
    t = 2.0
    orbit = CometOrbit(1.5, 1.0, 1.0, t_peri=t)
    assert orbit._ephemeris(t)[:2] == (0.5, 0.0)
    x = np.array([[0.0, 0.0], [0.5, gap], [-0.3, 0.8]])
    state = np.concatenate([x.ravel(), np.ones(6)])
    with pytest.raises(IntegrationError, match=re.escape(
            f"close encounter at t = 2.000000 (smallest distance "
            f"{gap:.3e} < 0.0001)")):
        _cartesian_rhs(MASSES, orbit)(t, state)


def test_the_surrogate_refuses_a_chart_body_on_the_comet(monkeypatch):
    # the extension's gradient and value go through the same refusal:
    # with the comet's ephemeris placed on body 1 of the chart, the
    # surrogate right-hand side and the value end as a close encounter
    # naming t
    t = 2.0
    orbit = fast_orbit()
    chart = CircularChart(MASSES, a1=0.05, a2=1.0)
    system = SurrogateSystem(extend_Hc(ExtensionParams(epsilon=0.1), orbit,
                                       MASSES, chart))
    theta = np.array([0.1, 0.7, 0.0, 0.0])
    bx, by = chart.positions(theta, np.zeros(2), np.zeros(2))[1].tolist()
    radius = orbit.radius(t)
    monkeypatch.setattr(orbit, "_ephemeris", lambda s: (bx, by, radius))
    state = np.concatenate([theta, np.zeros(6)])
    for run in (lambda: system.rhs(t, state),
                lambda: system.hex.value(theta, np.zeros(2), np.zeros(2), t)):
        with pytest.raises(IntegrationError, match=re.escape(
                "close encounter at t = 2.000000 (smallest distance "
                "0.000e+00 < 0.0001)")):
            run()


def test_cartesian_run_refuses_a_massless_body():
    # the velocity y / m of a massless planet is undefined: refused
    # before the integrator starts, not a division error or a nan run
    st0 = CartesianState(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]),
                         np.zeros((3, 2)))
    with pytest.raises(ValueError, match="m2 = 0.0"):
        integrate_system(st0, None, Masses(1.0, 1e-3, 0.0), 1.0, 2.0)


def test_close_encounter_aborts_before_the_bodies_meet():
    # bodies 0 and 1 fall head-on from rest at distance r0 (body 2 far
    # out on the same line) and meet after the radial free-fall time;
    # near the meeting d(t) = (9 M / 2)^(1/3) (t_meet - t)^(2/3), so the
    # distance falls below PROXIMITY gap = (2/3) PROXIMITY^(3/2) / sqrt(2 M)
    # before it
    masses = Masses(1.0, 1e-3, 1e-12, mc=0.0)
    M = masses.m0 + masses.m1
    r0 = 0.5
    x = np.array([[0.0, 0.0], [r0, 0.0], [-50.0, 0.0]])
    t_meet = 1.0 + np.pi / 2 * np.sqrt(r0 ** 3 / (2 * M))
    gap = 2.0 / 3.0 * celestial.PROXIMITY ** 1.5 / np.sqrt(2 * M)
    with pytest.raises(IntegrationError, match="close encounter at t = ") \
            as err:
        integrate_system(CartesianState(x, np.zeros((3, 2))), None, masses,
                         1.0, 2.0)
    t_hit = float(re.search(r"t = (\S+)", str(err.value)).group(1))
    # the message rounds t to 1e-6
    assert 0.9 * gap - 1e-6 <= t_meet - t_hit <= 1.1 * gap + 1e-6
    d_hit = float(re.search(r"distance (\S+) < 0\.0001\)$",
                            str(err.value)).group(1))
    assert d_hit < celestial.PROXIMITY


def _pair_at(separation, vx, vy):
    """Bodies 0 and 1 separation apart on the x axis with relative
    velocity (vx, vy) of body 1, their centre of mass at rest; body 2
    (1e-12) far out on the same line."""
    masses = Masses(1.0, 1e-3, 1e-12, mc=0.0)
    mu = masses.m0 * masses.m1 / (masses.m0 + masses.m1)
    x = np.array([[0.0, 0.0], [separation, 0.0], [-50.0, 0.0]])
    y = np.array([[-mu * vx, -mu * vy], [mu * vx, mu * vy], [0.0, 0.0]])
    return CartesianState(x, y), masses


@pytest.mark.parametrize("vx", [-1.0, 0.0, 1.0],
                         ids=["approaching", "at-rest", "receding"])
def test_a_run_that_starts_within_proximity_fails_at_its_start(vx):
    # the first force pass, f(t0, y0), already reads the distance
    state0, masses = _pair_at(5e-5, vx, 0.0)
    with pytest.raises(IntegrationError, match=re.escape(
            "close encounter at t = 1.000000 (smallest distance 5.000e-05 "
            "< 0.0001)")):
        integrate_system(state0, None, masses, 1.0, 2.0)


@pytest.mark.parametrize("tol", [1e-11, 1e-8, 1e-6])
@pytest.mark.parametrize("pericentre", [1.05e-4, 2e-4])
def test_a_near_miss_above_proximity_completes(monkeypatch, pericentre,
                                               tol):
    # from apocentre 0.5 at rest in the radial direction, the relative
    # orbit passes pericentre near t = 1.39; the trial stages of the
    # steps there stay above PROXIMITY too
    r_a, M = 0.5, 1.0 + 1e-3
    v_a = math.sqrt(2 * M * pericentre / (r_a * (r_a + pericentre)))
    state0, masses = _pair_at(r_a, 0.0, v_a)
    traj = integrate_system(state0, None, masses, 1.0, 2.0, tol=tol)
    assert traj["t"][-1] == 2.0
    # the run does come that near: 1 % above the pericentre, it stops
    monkeypatch.setattr(celestial, "PROXIMITY", 1.01 * pericentre)
    with pytest.raises(IntegrationError, match=r"close encounter at "
                                               r"t = 1\.392"):
        integrate_system(state0, None, masses, 1.0, 2.0, tol=tol)


# ---- surrogate system: metric and confinement -----------------------

@pytest.fixture(scope="module")
def surrogate_run():
    orbit = fast_orbit(v=250.0)
    chart = CircularChart(MASSES, a1=0.05, a2=1.0)
    hexf = extend_Hc(ExtensionParams(epsilon=0.1), orbit, MASSES, chart)
    system = SurrogateSystem(hexf)
    theta0 = np.array([0.1, 0.7, 0.0, 0.0])
    xi0 = np.array([0.3, -0.2])
    eta0 = system.leading_drift_momentum(theta0, xi0, 1.0)
    state0 = np.concatenate([theta0, xi0, np.zeros(2), eta0])
    traj = system.integrate(state0, 1.0, 101.0, tol=1e-10)
    return orbit, system, theta0, xi0, traj


def test_surrogate_confinement_compliant(surrogate_run):
    orbit, system, theta0, xi0, traj = surrogate_run
    rep = confinement_check(traj["t"], traj["states"][:, 4:6], orbit,
                            0.1, C_bar=1.0)
    assert rep["pass"]
    assert rep["v_above_threshold"]
    assert rep["first_violation"] is None
    oracle = loop_confinement_check(traj["t"], traj["states"][:, 4:6],
                                    orbit, 0.1, C_bar=1.0)
    assert rep["rows"] == oracle["rows"]
    assert all(type(row["pass"]) is bool for row in rep["rows"])


def test_surrogate_asymptotic_profile(surrogate_run):
    orbit, system, theta0, xi0, traj = surrogate_run
    q0 = np.concatenate([theta0, xi0])
    rep = asymptotic_metric(traj, system.omega, q0, 1.0)
    assert rep["max"] <= 1e-3
    oracle = loop_asymptotic_metric(traj, system.omega, q0, 1.0)
    assert np.array_equal(rep["profile"], oracle["profile"])


def test_asymptotic_metric_wraps_angles_like_the_loop():
    # angle offsets from -0.9 to 0.9 cross +-1/2, where the wrap flips
    # sign; the array pass must give the per-sample loop's bytes
    rng = np.random.default_rng(7)
    ts = np.geomspace(1.0, 50.0, 64)
    omega = np.array([1.3, 0.07, 0.0, 0.0])
    q0 = np.array([0.1, 0.7, 0.0, 0.95, 0.3, -0.2])
    ref = np.zeros((ts.size, 10))
    ref[:, :6] = q0
    ref[:, :4] += np.multiply.outer(ts - 1.0, omega)
    offsets = np.linspace(-0.9, 0.9, ts.size)[:, None] * [1, -1, 0.5, 1]
    states = ref + rng.normal(scale=1e-3, size=ref.shape)
    states[:, :4] += offsets
    traj = {"t": ts, "states": states}
    rep = asymptotic_metric(traj, omega, q0, 1.0)
    oracle = loop_asymptotic_metric(traj, omega, q0, 1.0)
    assert np.array_equal(rep["profile"], oracle["profile"])
    # the end rows' offsets (0.9, 0.9, 0.45, 0.9) wrap to (0.1, 0.1,
    # 0.45, 0.1): norm 0.48, against 1.62 unwrapped
    assert rep["profile"][0] < 0.5 and rep["profile"][-1] < 0.5


def test_exact_invariance_without_comet():
    masses0 = Masses(1.0, 1e-3, 1e-3, mc=0.0)
    orbit = fast_orbit(v=250.0, masses=masses0)
    chart = CircularChart(masses0, a1=0.05, a2=1.0)
    hexf = extend_Hc(ExtensionParams(epsilon=0.1), orbit, masses0, chart)
    system = SurrogateSystem(hexf)
    theta0 = np.array([0.1, 0.7, 0.0, 0.0])
    xi0 = np.array([0.3, -0.2])
    state0 = np.concatenate([theta0, xi0, np.zeros(4)])
    traj = system.integrate(state0, 1.0, 51.0, tol=1e-11)
    rep = asymptotic_metric(traj, system.omega,
                            np.concatenate([theta0, xi0]), 1.0)
    assert rep["max"] <= 1e-9


def test_confinement_stress_subthreshold_v():
    # deliberate violation: slow comet plus an extremal outward drift
    orbit = fast_orbit(v=25.0)
    chart = CircularChart(MASSES, a1=0.05, a2=1.0)
    hexf = extend_Hc(ExtensionParams(epsilon=0.1), orbit, MASSES, chart)
    system = SurrogateSystem(hexf)
    theta0 = np.array([0.1, 0.7, 0.0, 0.0])
    r1 = orbit.radius(1.0)
    xi0 = np.array([0.95 * 0.1 * r1 / 6.0, 0.0])
    C_bar = 1.0
    eta0 = MASSES.M * (1.0 + C_bar) * 1.5 * np.array([1.0, 0.0])
    state0 = np.concatenate([theta0, xi0, np.zeros(2), eta0])
    traj = system.integrate(state0, 1.0, 41.0, tol=1e-9)
    rep = confinement_check(traj["t"], traj["states"][:, 4:6], orbit,
                            0.1, C_bar=C_bar)
    assert not rep["v_above_threshold"]
    assert not rep["pass"]
    assert rep["first_violation"] is not None
    oracle = loop_confinement_check(traj["t"], traj["states"][:, 4:6],
                                    orbit, 0.1, C_bar=C_bar)
    assert rep["rows"] == oracle["rows"]
    assert rep["first_violation"] == oracle["first_violation"]
    assert type(rep["first_violation"]["pass"]) is bool
