import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import GridFnInterpolant, characteristics_solve
from wacyl import constants
from wacyl.flow import NormBudgetError
from wacyl.grids import GridFn, SpatialGrid, TimeGrid
from wacyl.homological import (BLOCK, TAIL_NODES, HomologicalProblem,
                               _contract, _mode_phases, _transport_factors,
                               _transport_solve, estimate_check,
                               residual_he, solve_he)
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
    # and rotation frequency nu_c = k_c . omega; the per-mode inverses
    # then act on several torus axes and components at once, and swapping
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


@pytest.mark.parametrize("sigma", [3.0, -1.0, float("nan")],
                         ids=["above-the-tables", "negative", "nan"])
def test_refuses_a_sigma_the_constant_tables_cannot_serve(sigma):
    # c_kappa and c_estimate are tabled for sigma in {0, 1, 2} only: any
    # other order is refused when the problem is built, naming the value
    # and the accepted set
    sg, tg = make_grids(32, 16, 8.0)
    z = GridFn.from_callable(sg, tg, lambda q, t: 1.0 / t ** 2 + 0 * q)
    with pytest.raises(ValueError,
                       match=rf"one of \[0, 1, 2\].* got {sigma!r}"):
        HomologicalProblem(omega=[1.0], z=z, sigma=sigma)
    assert HomologicalProblem(omega=[1.0], z=z, sigma=2.4).sigma == 2.4


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
    # each correction forms its coupling on the time nodes and solves
    # for it there, as for z: every torus transform of a coupled solve
    # sees exactly the rows of the time grid
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
    from oracles import VectorFieldSpec, integrate_flow
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
    kappa_interp = GridFnInterpolant(sol.kappa)
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


# ---- transport factors -----------------------------------------------

def unit_solve(tg, theta):
    """(M, T, T): each mode's solve applied to the T unit vectors, taken
    as T components of one right-hand side."""
    T = len(tg)
    c = np.broadcast_to(np.eye(T, dtype=complex)[:, None],
                        (T, len(theta), T))
    return _transport_solve(_transport_factors(tg, theta), c) \
        .transpose(1, 0, 2)


def dense_solve(tg, theta, c):
    """np.linalg.solve of each mode's dense operator: D + i theta I, and
    for theta = 0 D with its last row replaced by the tail condition
    kappa(t_max) = -int_(t_max)^inf of the fit c1 t^-2 + c2 t^-3 of z on
    the last TAIL_NODES nodes."""
    D, T = tg.dt_matrix(), len(tg)
    ts = tg.points[-TAIL_NODES:]
    fit = np.linalg.pinv(ts[:, None] ** -np.array([2.0, 3.0]))
    tail = -(ts[-1] ** np.array([-1.0, -2.0]) / np.array([1.0, 2.0])) @ fit
    out = np.empty(c.shape, dtype=complex)
    for m, th in enumerate(theta):
        A, rhs = D + 1j * th * np.eye(T), c[:, m].astype(complex)
        if not th:
            A[-1] = np.eye(T)[-1]
            rhs[-1] = tail @ c[-TAIL_NODES:, m]
        out[:, m] = np.linalg.solve(A, rhs)
    return out


def test_transport_factors_built_once_per_grid_and_theta():
    sg = SpatialGrid(1, 16)
    for tg in (TimeGrid(8.0, n_points=12),
               TimeGrid.from_points(np.geomspace(1.0, 8.0, 12))):
        theta = _mode_phases(sg, [1.0])
        factors = _transport_factors(tg, theta)
        assert all(not a.flags.writeable for a in factors)
        assert _transport_factors(tg, _mode_phases(sg, [1.0])) is factors
        other = _transport_factors(tg, _mode_phases(sg, [0.5]))
        assert other is not factors
        assert not np.array_equal(other[0], factors[0])


def test_transport_solve_inverts_the_operator_of_the_residual():
    # theta != 0: the inverse of D + i theta I, with D the time
    # derivative transport_operator takes; theta = 0: D on every row but
    # the last, which holds the tail condition
    sg, tg = SpatialGrid(1, 8), TimeGrid(20.0, n_points=32)
    theta = _mode_phases(sg, [1.0])
    inv = unit_solve(tg, theta)
    D = tg.dt_matrix()
    for m in np.flatnonzero(theta):
        A = D + 1j * theta[m] * np.eye(32)
        assert np.abs(A @ inv[m] - np.eye(32)).max() <= 1e-10
    assert theta[0] == 0.0
    assert np.abs(D[:-1] @ inv[0] - np.eye(32)[:-1]).max() <= 1e-10
    tail = dense_solve(tg, np.zeros(1), np.eye(32)[:, None])[-1, 0]
    assert np.abs(inv[0][-1] - tail).max() <= 1e-10
    assert np.count_nonzero(tail) == TAIL_NODES


def test_transport_solve_repeated_phases_give_identical_bytes():
    # the Nyquist rows and columns of a 16 x 16 half spectrum repeat a
    # phase: each repeat gets the same factors and the same solution
    sg, tg = SpatialGrid(2, 16), TimeGrid(12.0, n_points=16)
    theta = _mode_phases(sg, [1.0, 0.618])
    assert len(np.unique(theta)) < len(theta)
    inv = unit_solve(tg, theta)
    factors = _transport_factors(tg, theta)
    for m, th in enumerate(theta):
        k = int(np.argmax(theta == th))
        assert inv[m].tobytes() == inv[k].tobytes(), m
        for a in factors[:2]:
            assert a[:, m].tobytes() == a[:, k].tobytes(), m


@pytest.mark.parametrize("T", [2, 3, 9, 10, 12])
def test_transport_solve_on_grids_off_the_block_size(T):
    # below BLOCK or not a multiple of it, the padded factors solve the
    # T x T operator of every mode
    assert T < BLOCK or T % BLOCK
    sg, tg = SpatialGrid(1, 8), TimeGrid(8.0, n_points=T)
    theta = _mode_phases(sg, [1.0])
    rng = np.random.default_rng(T)
    c = rng.standard_normal((T, len(theta), 2)) \
        + 1j * rng.standard_normal((T, len(theta), 2))
    got = _transport_solve(_transport_factors(tg, theta), c)
    want = dense_solve(tg, theta, c)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_transport_cache_holds_no_dense_operator_per_mode():
    # the factors are O(T BLOCK) per mode, no array of T^2 entries per
    # mode is kept on the grid
    sg, tg = SpatialGrid(1, 32), TimeGrid(20.0, n_points=64)
    theta = _mode_phases(sg, [1.0])
    z = GridFn.from_callable(sg, tg,
                             lambda q, t: np.cos(2 * np.pi * q) / t ** 2)
    solve_he(HomologicalProblem(omega=[1.0], z=z))
    kept = [a for value in tg.__dict__["_derived"].values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]
    assert any(a.shape[1:] == (len(theta), BLOCK, BLOCK) for a in kept)
    assert all(a.size < len(theta) * 64 ** 2 for a in kept)
    assert sum(a.size for a in _transport_factors(tg, theta)) \
        <= 2 * (len(theta) + 1) * 64 * BLOCK


@pytest.mark.parametrize("workload", ["solve-power", "newton-coupled"])
def test_transport_solve_matches_a_dense_solve_on_the_workloads(
        workload, monkeypatch):
    # every transport solve of one run of each benchmark workload agrees
    # with np.linalg.solve of the dense operators
    from wacyl import homological
    from wacyl.nashmoser import (comet_decay_synthetic, iterate,
                                 manufactured_power, params_from_order)
    calls = []
    solve = homological._transport_solve

    def recorded(factors, c):
        calls.append((c.copy(), solve(factors, c)))
        return calls[-1][1]

    monkeypatch.setattr(homological, "_transport_solve", recorded)
    if workload == "solve-power":
        H, _ = manufactured_power(1e-3)
        iterate(H, params_from_order(8.0, Q=1.3690243994493276),
                max_steps=12, target=1e-6, min_steps=3)
    else:
        H = comet_decay_synthetic()
        iterate(H, params_from_order(8.0, Q=1.8), max_steps=8,
                target=1e-6, quad_tol=1e-9, min_steps=3, zeta=0.1)
    theta = _mode_phases(H.grid, H.omega)
    assert calls
    for c, got in calls:
        want = dense_solve(H.times, theta, c)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_transport_tail_exact_for_power_law_amplitude():
    # a mean amplitude c1 t^-2 + c2 t^-3 lies in the span of the tail
    # fit, so kappa at the horizon T is its tail integral in closed form
    sg, tg = SpatialGrid(1, 8), TimeGrid(20.0, n_points=16)
    c1, c2 = 1.5, -0.7
    z = GridFn.from_callable(sg, tg,
                             lambda q, t: c1 / t ** 2 + c2 / t ** 3 + 0 * q)
    kappa = solve_he(HomologicalProblem(omega=[0.3], z=z)).kappa
    T = tg.points[-1]
    want = -(c1 / T + c2 / (2 * T ** 2))
    assert np.abs(kappa.values[-1] - want).max() <= 1e-12 * abs(want)


def exact_rotating_cosine_amplitude(t, nu=1.0):
    """A(t) with kappa = Re(A(t) e^(2 pi i q)) the decaying solution for
    z = cos(2 pi q)/t^2: -e^(-i theta t) int_t^inf s^-2 e^(i theta s) ds
    = -e^(-i theta t) E_2(-i theta t)/t, theta = 2 pi nu, in 30 digits."""
    import mpmath
    with mpmath.workdps(30):
        z = [mpmath.mpc(0, -2 * np.pi * nu * s) for s in t]
        return np.array([complex(-mpmath.exp(w) * mpmath.expint(2, w) / s)
                         for w, s in zip(z, t)])


def test_homological_problem_converges_at_the_stencil_order():
    # the CLI's homological problem on 32, 64 and 128 time nodes: the
    # error |kappa - kappa_exact|_{0,1} falls as n^-7 or faster (the time
    # stencils are of order DT_ORDER = 8); the order is the least-squares
    # slope over the three grids, since the 128-node error (about 5e-15)
    # is at the rounding floor
    sg = SpatialGrid(1, 8)
    ns = (32, 64, 128)
    errs = []
    for n in ns:
        tg = TimeGrid(20.0, n_points=n)
        z = GridFn.from_callable(sg, tg,
                                 lambda q, t: np.cos(2 * np.pi * q) / t ** 2)
        kappa = solve_he(HomologicalProblem(omega=[1.0], z=z)).kappa
        amp = exact_rotating_cosine_amplitude(tg.points)
        exact = (amp[:, None] * np.exp(2j * np.pi * sg.torus_axes[0])).real
        errs.append(weighted_norm(GridFn(sg, tg, kappa.values
                                         - exact[..., None]), 0, 1))
    order = -np.polyfit(np.log2(ns), np.log2(errs), 1)[0]
    assert order >= 7, (errs, order)


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


def test_no_einsum_in_functional_or_homological():
    # every component sum is spelled out (homological._contract); the
    # first line that names einsum is reported
    src = Path(__file__).resolve().parents[1] / "src" / "wacyl"
    found = []
    for name in ("functional.py", "homological.py"):
        found += [(name, node.lineno)
                  for node in ast.walk(ast.parse((src / name).read_text()))
                  if "einsum" in (getattr(node, "id", None),
                                  getattr(node, "attr", None),
                                  getattr(node, "name", None))]
    assert found == []
