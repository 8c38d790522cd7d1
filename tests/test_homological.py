import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import characteristics_solve, einsum_free_transport_coeffs
from wacyl import constants
from wacyl.flow import NormBudgetError
from wacyl.grids import GridFn, SpatialGrid, TimeGrid
from wacyl.homological import (HomologicalProblem, _contract, _expn_complex,
                               _free_transport_coeffs, _mode_phases,
                               _osc_moments,
                               _time_refine_matrix, _transport_plan,
                               estimate_check, residual_he, solve_he)
from wacyl.norms import weighted_norm


def make_grids(torus_points=128, n_times=64, t_max=20.0):
    return SpatialGrid(1, torus_points), TimeGrid(t_max, n_points=n_times)


def test_zero_rhs_gives_zero():
    sg, tg = make_grids(32, 16, 8.0)
    z = GridFn.zeros(sg, tg, 1)
    sol = solve_he(HomologicalProblem(omega=[1.0], z=z), quad_tol=1e-10)
    assert np.abs(sol.kappa.values).max() == 0.0


def test_constant_in_q_closed_form():
    # z = 1/t^2 reduces to d_t kappa = z with decay: kappa = -1/t
    sg, tg = make_grids()
    z = GridFn.from_callable(sg, tg, lambda q, t: 1.0 / t ** 2 + 0 * q)
    p = HomologicalProblem(omega=[1.0], z=z, sigma=1.0)
    sol = solve_he(p, quad_tol=1e-11)
    exact = -1.0 / tg.points[:, None, None]
    assert np.abs(sol.kappa.values - exact).max() <= 1e-8
    assert residual_he(sol, p) <= 1e-8


def oracle_rotating_cosine(q, t, nu=1.0):
    # -int_t^inf cos(2 pi (q + nu (tau - t)))/tau^2 dtau by Fourier-weighted
    # quadrature (QAWF), an algorithm independent of the solver
    c, _ = quad(lambda s: 1.0 / s ** 2, t, np.inf, weight="cos",
                wvar=2 * np.pi * nu)
    s, _ = quad(lambda s: 1.0 / s ** 2, t, np.inf, weight="sin",
                wvar=2 * np.pi * nu)
    ph = 2 * np.pi * (q - nu * t)
    return -(np.cos(ph) * c - np.sin(ph) * s)


def test_rotating_cosine_vs_quadrature_oracle():
    sg, tg = make_grids()
    z = GridFn.from_callable(sg, tg,
                             lambda q, t: np.cos(2 * np.pi * q) / t ** 2)
    p = HomologicalProblem(omega=[1.0], z=z, sigma=1.0)
    sol = solve_he(p, quad_tol=1e-11)
    rng = np.random.default_rng(0)
    for _ in range(20):
        qi = rng.integers(0, 128)
        ti = rng.integers(0, 64)
        want = oracle_rotating_cosine(qi / 128.0, tg.points[ti])
        assert abs(sol.kappa.values[ti, qi, 0] - want) <= 1e-7
    assert residual_he(sol, p) <= 10 * 1e-9


def test_rotating_cosine_two_torus_two_components():
    # z_c = cos(2 pi k_c . q)/t^2 with a different mode k_c per component
    # and rotation frequency nu_c = k_c . omega; the time refinement then
    # acts on several torus axes and components at once, and swapping
    # modes, axes or components moves kappa by O(1)
    sg, tg = SpatialGrid(2, 8), TimeGrid(20.0, n_points=64)
    omega = np.array([1.0, 1.5])
    ks = np.array([[0, 1], [1, 0]])
    nus = ks @ omega
    z = GridFn.from_callable(sg, tg, lambda q1, q2, t: np.stack(
        [np.cos(2 * np.pi * (k[0] * q1 + k[1] * q2)) / t ** 2 for k in ks],
        axis=-1))
    p = HomologicalProblem(omega=omega, z=z, sigma=1.0)
    sol = solve_he(p, quad_tol=1e-11)
    assert sol.kappa.values.shape == (64, 8, 8, 2)
    rng = np.random.default_rng(1)
    for _ in range(12):
        i1, i2 = rng.integers(0, 8, size=2)
        ti = rng.integers(0, 64)
        for comp, (k, nu) in enumerate(zip(ks, nus)):
            want = oracle_rotating_cosine((k[0] * i1 + k[1] * i2) / 8.0,
                                          tg.points[ti], nu)
            assert abs(sol.kappa.values[ti, i1, i2, comp] - want) <= 1e-7
    assert residual_he(sol, p) <= 10 * 1e-9


@pytest.mark.parametrize("n, torus_points, omega", [
    (1, 8, [1.0]), (1, 128, [1.0]), (2, 8, [1.0, 0.618])],
    ids=["1-torus-8", "1-torus-128", "2-torus-8"])
def test_nyquist_content_is_solved_as_the_operator_sees_it(n, torus_points,
                                                           omega):
    # cos(pi N q_1) is the Nyquist wave (-1)^j on the grid, which d_q
    # (and so transport_operator) maps to zero; the solve must transport
    # it with no phase, or the residual is O(1)
    sg, tg = SpatialGrid(n, torus_points), TimeGrid(20.0, n_points=64)

    def zfn(*args):
        *q, t = args
        wave = (np.cos(np.pi * torus_points * q[0])
                + np.cos(2 * np.pi * q[-1])) / t ** 2
        return np.stack([wave] * n, axis=-1)

    p = HomologicalProblem(omega=omega, z=GridFn.from_callable(sg, tg, zfn))
    quad_tol = 1e-9
    assert residual_he(solve_he(p, quad_tol=quad_tol), p) <= 10 * quad_tol


def test_linearity():
    sg, tg = make_grids(64, 32, 10.0)
    z1 = GridFn.from_callable(sg, tg, lambda q, t: 1.0 / t ** 2 + 0 * q)
    z2 = GridFn.from_callable(sg, tg,
                              lambda q, t: np.cos(2 * np.pi * q) / t ** 2)
    z3 = GridFn(sg, tg, 0.4 * z1.values + 2.0 * z2.values)
    tol = 1e-10
    s1 = solve_he(HomologicalProblem(omega=[1.0], z=z1), quad_tol=tol)
    s2 = solve_he(HomologicalProblem(omega=[1.0], z=z2), quad_tol=tol)
    s3 = solve_he(HomologicalProblem(omega=[1.0], z=z3), quad_tol=tol)
    diff = np.abs(s3.kappa.values - 0.4 * s1.kappa.values
                  - 2.0 * s2.kappa.values).max()
    assert diff <= 10 * tol


def test_refuses_oversized_mu():
    # the coupling f = 0.5/t measures |f|_{1,1} = 0.5 >= 1/c_kappa(1)
    sg, tg = make_grids(32, 16, 8.0)
    z = GridFn.from_callable(sg, tg, lambda q, t: 1.0 / t ** 2 + 0 * q)
    f = GridFn.from_callable(sg, tg, lambda q, t: 0.5 / t + 0 * q)
    prob = HomologicalProblem(omega=[1.0], z=z, f=f, sigma=1.0)
    assert prob.mu == pytest.approx(0.5, rel=1e-12)
    assert prob.mu >= 1.0 / constants.c_kappa(1.0)
    with pytest.raises(NormBudgetError):
        solve_he(prob)


def coupled_fields(mu_f=0.02):
    def zf(q, t):
        return np.cos(2 * np.pi * q) / t ** 2

    def ff(q, t):
        return mu_f * np.sin(2 * np.pi * q) / t

    def gf(q, t):
        return 1.5 * mu_f * np.cos(2 * np.pi * q) / t

    return zf, ff, gf


def coupled_problem(sg, tg, mu_f=0.02):
    zf, ff, gf = coupled_fields(mu_f)
    return HomologicalProblem(
        omega=[1.0],
        z=GridFn.from_callable(sg, tg, zf),
        f=GridFn.from_callable(sg, tg, ff),
        g=GridFn.from_callable(sg, tg, gf),
        sigma=1.0)


def test_spectral_vs_characteristics_dual_route():
    sg, tg = make_grids(32, 24, 8.0)
    p_spec = coupled_problem(sg, tg)
    s_spec = solve_he(p_spec, quad_tol=1e-10)
    on_points = [lambda q, s, fn=fn: fn(q[..., 0], s)[..., None]
                 for fn in coupled_fields()]
    s_dir = characteristics_solve(p_spec, *on_points, quad_tol=1e-10)
    diff = np.abs(s_spec.kappa.values - s_dir.kappa.values).max()
    # the direct route truncates the improper integral at t_quad_max;
    # the documented tail bound covers the gap
    assert diff <= s_dir.tail_bound + 1e-6
    assert residual_he(s_spec, p_spec) <= 1e-5 * weighted_norm(
        p_spec.z, 0, 2)


def coupled_fields_two_torus(mu_f=0.03):
    # two components on a 2-torus, every entry of f and g non-zero
    two_pi = 2 * np.pi

    def zf(q1, q2, t):
        return np.stack([np.cos(two_pi * q1),
                         np.sin(two_pi * (q1 + q2))], axis=-1) / t ** 2

    def ff(q1, q2, t):
        return mu_f * np.stack([np.sin(two_pi * q2),
                                np.cos(two_pi * q1)], axis=-1) / t

    def gf(q1, q2, t):
        return mu_f * np.stack([np.cos(two_pi * q1), np.sin(two_pi * q2),
                                0.5 * np.cos(two_pi * (q1 - q2)),
                                np.cos(two_pi * q2)], axis=-1) / t

    return zf, ff, gf


def coupled_problem_two_torus(sg, tg):
    zf, ff, gf = coupled_fields_two_torus()
    return HomologicalProblem(
        omega=[1.0, 0.618],
        z=GridFn.from_callable(sg, tg, zf),
        f=GridFn.from_callable(sg, tg, ff),
        g=GridFn.from_callable(sg, tg, gf),
        sigma=1.0)


def test_spectral_vs_characteristics_two_torus_two_components():
    # the coupled path of the Newton solves on comet_decay_synthetic
    # (n = d = 2) against the solve along the characteristics, with the
    # bounds of the 1-torus dual route; the oracle's tolerance moves its
    # kappa by about 1e-11 against the 1e-10 one, at a third of the time
    sg, tg = SpatialGrid(2, 8), TimeGrid(8.0, n_points=16)
    p = coupled_problem_two_torus(sg, tg)
    sol = solve_he(p, quad_tol=1e-10)
    assert sol.corrections >= 2
    on_points = [lambda q, s, fn=fn: fn(q[..., 0], q[..., 1], s)
                 for fn in coupled_fields_two_torus()]
    ref = characteristics_solve(p, *on_points, quad_tol=1e-6)
    diff = np.abs(sol.kappa.values - ref.kappa.values).max()
    assert diff <= ref.tail_bound + 1e-6
    assert residual_he(sol, p) <= 1e-5 * weighted_norm(p.z, 0, 2)


def test_coupled_series_transforms_on_the_time_grid(monkeypatch):
    # each correction forms its coupling on the time nodes and reaches
    # the quad nodes by W, as z does: no torus transform of a coupled
    # solve sees more rows than the time grid has
    sg, tg = SpatialGrid(2, 8), TimeGrid(8.0, n_points=12)
    p = coupled_problem_two_torus(sg, tg)
    rows = []
    for name in ("torus_rfft", "torus_irfft"):
        def spy(self, a, method=getattr(SpatialGrid, name)):
            rows.append(len(a))
            return method(self, a)
        monkeypatch.setattr(SpatialGrid, name, spy)
    sol = solve_he(p, quad_tol=1e-10)
    assert sol.corrections >= 2
    assert len(rows) > 3 * sol.corrections
    assert set(rows) == {len(tg)}


def test_zero_coupling_takes_no_correction():
    # all-zero f and g are the uncoupled problem: the same kappa to the
    # bit, and no perturbation-series correction on the zero fields
    sg, tg = make_grids(32, 16, 8.0)
    z = GridFn.from_callable(sg, tg, coupled_fields()[0])
    bare = solve_he(HomologicalProblem(omega=[1.0], z=z), quad_tol=1e-10)
    sol = solve_he(HomologicalProblem(omega=[1.0], z=z,
                                      f=GridFn.zeros(sg, tg, 1),
                                      g=GridFn.zeros(sg, tg, 1)),
                   quad_tol=1e-10)
    assert (sol.kappa.values == bare.kappa.values).all()
    assert sol.corrections == 0
    assert sol.diagnostics["correction_history"] == []


def test_coupled_residual_small_relative_to_z():
    sg, tg = make_grids(64, 32, 10.0)
    p = coupled_problem(sg, tg)
    sol = solve_he(p, quad_tol=1e-10)
    assert residual_he(sol, p) <= 1e-5 * weighted_norm(p.z, 0, 2)
    assert sol.corrections >= 2


def test_resolution_doubling_within_tail_bound():
    sg1, tg1 = make_grids(32, 24, 8.0)
    p1 = coupled_problem(sg1, tg1)
    s1 = solve_he(p1, quad_tol=1e-9)
    sg2, tg2 = make_grids(64, 24, 8.0)
    p2 = coupled_problem(sg2, tg2)
    s2 = solve_he(p2, quad_tol=5e-10)
    diff = np.abs(s2.kappa.values[:, ::2, :] - s1.kappa.values).max()
    assert diff <= 5 * max(s1.tail_bound, 1e-12)


def test_conjugation_identity():
    # the transported solution kappa(psi_{t0}^t(q), t) must satisfy the
    # straightened equation d_t k + g-tilde k = z-tilde along each
    # characteristic label (the moving-frame form of the transport PDE)
    from wacyl.flow import VectorFieldSpec, integrate_flow
    sg, tg = make_grids(32, 20, 6.0)
    mu_f = 0.02
    p = coupled_problem(sg, tg, mu_f=mu_f)
    sol = solve_he(p, quad_tol=1e-10)

    F = VectorFieldSpec(
        [1.0],
        f=lambda q, t: mu_f * np.sin(2 * np.pi * q) / t,
        jac_f=lambda q, t:
            (2 * np.pi * mu_f * np.cos(2 * np.pi * q) / t)[..., None])
    # the straightened frame oscillates with the rotation frequency, so
    # differentiate on a fine uniform time grid around a few checkpoints
    from wacyl.grids import fornberg_weights
    t0 = 1.0
    labels = sg.torus_axes[0][::8][:, None]
    kappa_interp = sol.kappa.interpolator()
    h = 0.01
    offsets = np.arange(-4, 5) * h
    w = fornberg_weights(0.0, offsets, 1)
    worst = 0.0
    for t_center in (1.5, 2.5, 4.0):
        k_vals = np.zeros((9, len(labels)))
        for j, dt in enumerate(offsets):
            t = t_center + dt
            pos = integrate_flow(F, labels, t0, t, 1e-11) % 1.0
            k_vals[j] = kappa_interp(pos, t)[:, 0]
        t = t_center
        pos = integrate_flow(F, labels, t0, t, 1e-11) % 1.0
        z_str = np.cos(2 * np.pi * pos[:, 0]) / t ** 2
        g_str = 1.5 * mu_f * np.cos(2 * np.pi * pos[:, 0]) / t
        dt_k = w @ k_vals
        residual = dt_k + g_str * k_vals[4] - z_str
        worst = max(worst, np.abs(residual).max() * t ** 2)
    assert worst <= 1e-6


def test_estimate_check_trivial_and_bound():
    sg, tg = make_grids(64, 32, 10.0)
    z = GridFn.from_callable(sg, tg, lambda q, t: 1.0 / t ** 2 + 0 * q)
    p = HomologicalProblem(omega=[1.0], z=z, sigma=0.0)
    sol = solve_he(p, quad_tol=1e-10)
    rep = estimate_check(sol, p)
    # |kappa|_{0,1} = 1 = |z|_{0,2}: ratio exactly 1, inside the bound
    assert rep["measured"] == pytest.approx(1.0, rel=1e-6)
    assert rep["pass"]
    assert rep["constants_source"] == "calibrated"
    p2 = coupled_problem(sg, tg)
    sol2 = solve_he(p2, quad_tol=1e-10)
    rep2 = estimate_check(sol2, p2)
    assert rep2["pass"]
    # decay: sup_t |kappa^t|_C0 t is finite and below the bound
    assert weighted_norm(sol2.kappa, 0, 1) <= rep2["bound"]


def test_solution_manifest_serialization(tmp_path):
    sg, tg = make_grids(32, 16, 8.0)
    p = coupled_problem(sg, tg)
    sol = solve_he(p, quad_tol=1e-9)
    path = tmp_path / "kappa.wgf"
    sol.kappa.save(path)
    loaded = GridFn.load(path)
    assert np.array_equal(loaded.values, sol.kappa.values)
    man = p.manifest()
    assert man["mu"] == p.mu and man["sigma"] == 1.0


# ---- transport plan ------------------------------------------------

def test_transport_plan_built_once_per_grid_and_theta():
    sg = SpatialGrid(1, 16)
    for tg in (TimeGrid(8.0, n_points=12),
               TimeGrid.from_points(np.geomspace(1.0, 8.0, 12))):
        theta = _mode_phases(sg, [1.0])
        plan = _transport_plan(tg, theta)
        again = _transport_plan(tg, _mode_phases(sg, [1.0]))
        for a, b in zip(plan, again):
            assert a is b and not a.flags.writeable
        other = _transport_plan(tg, _mode_phases(sg, [0.5]))
        assert other.weights is not plan.weights
        assert not np.array_equal(other.weights, plan.weights)


def test_expn_complex_matches_mpmath():
    # E_p at the tail arguments z = -i theta T of the transport plans
    # (|theta T| up to 8042 on the default solve grid) and on both sides
    # of |z| = 1, where the continued fraction hands over to the series
    import mpmath
    ring = np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 7))
    z = np.concatenate([-1j * np.geomspace(1e-3, 1e4, 71), [-8042j],
                        0.5 * ring, 0.99 * ring, 1.01 * ring, 3.0 * ring])
    for p in (2, 3):
        got = _expn_complex(p, z)
        with mpmath.workdps(30):
            want = np.array([complex(mpmath.expint(
                p, mpmath.mpc(w.real, w.imag))) for w in z])
        rel = np.abs(got - want) / np.abs(want)
        assert rel.max() <= 1e-13, (p, z[rel.argmax()], rel.max())
        assert _expn_complex(p, np.zeros(3, dtype=complex)).tolist() \
            == [1.0 / (p - 1)] * 3


def test_osc_moments_match_mpmath():
    # int_0^h u^m e^(i theta u) du on both sides of |theta h| = 0.7, where
    # the Taylor series hands over to the recursion
    import mpmath
    xs = np.array([0.0, 1e-3, 0.3, 0.69, -0.69, 0.71, 1.5, 7.0, 40.0])
    for h in (0.05, 1.0):
        got = _osc_moments(h, xs / h, 4)
        with mpmath.workdps(30):
            nodes = mpmath.linspace(0, h, 9)
            want = np.array([[complex(mpmath.quad(
                lambda u: u ** m * mpmath.expj(x / h * u), nodes))
                for x in xs] for m in range(5)])
        rel = np.abs(got - want) / np.abs(want)
        assert rel.max() <= 1e-12, (h, rel.max())


def test_transport_tail_exact_for_power_law_amplitude():
    # an amplitude c1 t^-2 + c2 t^-3 lies in the span of the tail fit, so
    # kappa at the horizon T is its tail integral in closed form
    import mpmath
    sg, tg = SpatialGrid(1, 8), TimeGrid(20.0, n_points=16)
    theta = _mode_phases(sg, [0.3])
    tau, _ = _time_refine_matrix(tg)
    c1, c2, mode = 1.5, -0.7, 1
    rhs = np.zeros((len(tau), len(theta), 1), dtype=complex)
    rhs[:, mode, 0] = c1 * tau ** -2 + c2 * tau ** -3
    kap = _free_transport_coeffs(_transport_plan(tg, theta), rhs)
    T, th = tau[-1], theta[mode]
    z = mpmath.mpc(0, -th * T)
    want = complex(-mpmath.exp(z) * (
        c1 * mpmath.expint(2, z) / T + c2 * mpmath.expint(3, z) / T ** 2))
    assert th != 0
    assert abs(kap[-1, mode, 0] - want) <= 1e-12 * abs(want)


def test_time_interpolation_commutes_with_the_torus_fft():
    # W acts on time only, so interpolating the samples of a field and
    # interpolating its mode amplitudes, as the solve does for z and the
    # coupling, agree up to rounding
    rng = np.random.default_rng(4)
    sg, tg = SpatialGrid(2, 16), TimeGrid(12.0, n_points=32)
    p = HomologicalProblem(
        omega=[1.0, 0.618],
        z=GridFn(sg, tg, rng.standard_normal((32, 16, 16, 2))),
        f=GridFn(sg, tg, 1e-3 * rng.standard_normal((32, 16, 16, 2))),
        g=GridFn(sg, tg, 1e-3 * rng.standard_normal((32, 16, 16, 4))))
    _, W = _time_refine_matrix(tg)
    P = W.shape[0]
    for field in (p.f, p.g):
        vals = field.values
        direct = (W @ vals.reshape(32, -1)).reshape((P,) + vals.shape[1:])
        c = sg.torus_rfft(vals)
        round_trip = sg.torus_irfft(
            (W @ c.reshape(32, -1)).reshape((P,) + c.shape[1:]))
        assert np.abs(direct - round_trip).max() <= \
            1e-14 * np.abs(direct).max()


@pytest.mark.parametrize("n, omega", [(1, [1.0]), (2, [1.0, 0.618])])
def test_filon_windows_give_the_gather_bytes(n, omega):
    # the interior panels read windows of rhs, the clipped ones at the
    # ends gather: the same sums, in the same order, as one gather of
    # every stencil
    rng = np.random.default_rng(n)
    sg, tg = SpatialGrid(n, 8), TimeGrid(12.0, n_points=16)
    theta = _mode_phases(sg, omega)
    plan = _transport_plan(tg, theta)
    shape = (len(plan.phase), len(theta), n)
    rhs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = _free_transport_coeffs(plan, rhs)
    assert got.tobytes() == einsum_free_transport_coeffs(plan, rhs).tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_contract_gives_einsum_bytes_signed_zeros_included(d):
    # einsum adds onto +0.0: a sum of -0.0 products is +0.0 there, and
    # must be here too
    rng = np.random.default_rng(d)

    def draw(shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)
        u = rng.random(shape)
        x[u < 0.2] = 0.0
        x[u > 0.8] = -0.0
        return x

    lead = (6, 8, 8)
    dims = range(d)
    m, v, c = draw(lead + (d, d)), draw(lead + (d,)), draw(lead + (d,) * 3)
    omega = draw((d,))
    pairs = [
        (np.einsum("...ij,...j->...i", m, v),
         _contract((m[..., j], v[..., j, None]) for j in dims)),
        (np.einsum("...ij,j->...i", m, omega),
         _contract((m[..., j], omega[j]) for j in dims)),
        (np.einsum("...ija,...i,...j->...a", c, v, v),
         _contract((c[..., i, j, :], v[..., i, None], v[..., j, None])
                   for i in dims for j in dims)),
        (np.einsum("...ia,...ajk,...j->...ik", m, c, v),
         _contract((m[..., :, a, None], c[..., None, a, j, :],
                    v[..., j, None, None]) for a in dims for j in dims)),
    ]
    for want, got in pairs:
        assert got.tobytes() == want.tobytes()


# the Filon panel and tail sums of _free_transport_coeffs stay einsum
# calls: complex contractions over the panel stencil (windows inside,
# gathers at the ends) and the tail nodes
FILON_EINSUMS = {("homological.py", "pkm,pmck->pmc"),
                 ("homological.py", "pkm,pkmc->pmc"),
                 ("homological.py", "km,kmc->mc")}


def test_einsum_only_in_the_filon_sums():
    # every other component sum is spelled out (homological._contract);
    # a call is named by its subscripts, any other use by its line
    src = Path(__file__).resolve().parents[1] / "src" / "wacyl"
    found = set()
    for name in ("functional.py", "homological.py"):
        nodes = list(ast.walk(ast.parse((src / name).read_text())))
        calls = {id(node.func): node.args[0].value for node in nodes
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) == "einsum"}
        found |= {(name, calls.get(id(node), node.lineno)) for node in nodes
                  if "einsum" in (getattr(node, "id", None),
                                  getattr(node, "attr", None),
                                  getattr(node, "name", None))}
    assert found == FILON_EINSUMS
