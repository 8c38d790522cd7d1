import numpy as np
import pytest

from calibration import hypotheses_report
from oracles import GridFnInterpolant, apply_DF, conjugacy_check, \
    einsum_eval_F, einsum_linearize, einsum_transport_operator
from wacyl import norms
from wacyl.flow import IntegrationError, NormBudgetError
from wacyl.functional import (C_GEOM, UPSILON, DomainError,
                              HamiltonianSpec, a_norm, eval_F,
                              gamma_from_v, linearize, right_inverse,
                              v_norm)
from wacyl.grids import GridFn, SpatialGrid, TimeGrid
from wacyl.homological import transport_operator
from wacyl.nashmoser import comet_decay_synthetic, manufactured_power, \
    manufactured_single
from wacyl.norms import holder_norm, weighted_norm


def base_grids(torus_points=64, n_times=32, t_max=12.0):
    return SpatialGrid(1, torus_points), TimeGrid(t_max, n_points=n_times)


def nonlinear_spec(sg, tg, eps=1e-3):
    a = GridFn.from_callable(
        sg, tg, lambda q, t: eps * np.sin(2 * np.pi * q) / t ** 2
        + 2 * eps * np.cos(2 * np.pi * q) / (2 * np.pi * t ** 3))
    b = GridFn.from_callable(
        sg, tg, lambda q, t: 0.5 * eps * np.sin(2 * np.pi * q) / t ** 2)
    M0 = GridFn.from_callable(sg, tg,
                              lambda q, t: 0.2 + 0.05 * np.cos(
                                  2 * np.pi * q) / t)
    return HamiltonianSpec(omega=[1.0], a=a, b=b, M0=M0)


def test_mbar_constant_in_p():
    # m independent of p: mbar = int_0^1 d^2_p H dtau = 2 M0 as
    # (..., d, d), the same array for every section and read-only
    H, _ = random_spec(2)
    assert H.mbar.shape == H.M0.values.shape[:-1] + (2, 2)
    assert H.mbar.tobytes() == (2.0 * H.M0.values).tobytes()
    assert not H.mbar.flags.writeable


def test_mbar_quadratic_hamiltonian():
    # H_p = p^2/2 means M0 = 1/2 and mbar = 1
    sg, tg = base_grids(32, 8, 4.0)
    zero = GridFn.zeros(sg, tg, 1)
    H = HamiltonianSpec(omega=[1.0], a=zero, b=zero,
                        M0=GridFn.from_callable(sg, tg,
                                                lambda q, t: 0.5 + 0 * q))
    assert np.all(H.mbar == 1.0)


def test_F_zero_section_zero_data():
    # F(0, b, m, mbar, 0) = 0 identically for every b and m
    sg, tg = base_grids()
    H = nonlinear_spec(sg, tg)
    H0 = HamiltonianSpec(H.omega, GridFn.zeros(sg, tg, 1), H.b, H.M0)
    F = eval_F(H0, GridFn.zeros(sg, tg, 1))
    assert np.abs(F.values).max() == 0.0


def test_F_gradient_only_term():
    # v = 0 and a = eps sin(2 pi q)/t^2: F = d_q a, norm 2 pi eps
    sg, tg = base_grids()
    eps = 1e-3
    a = GridFn.from_callable(
        sg, tg, lambda q, t: eps * np.sin(2 * np.pi * q) / t ** 2)
    zero = GridFn.zeros(sg, tg, 1)
    H = HamiltonianSpec(omega=[1.0], a=a, b=zero, M0=zero)
    F = eval_F(H, GridFn.zeros(sg, tg, 1))
    assert weighted_norm(F, 0, 2) == pytest.approx(
        2 * np.pi * eps, rel=1e-10)


def test_manufactured_pair_is_exact():
    # both presets have b = M0 = 0, so F(v*) = d_q a + (grad v*) Omega_bar
    for preset in (manufactured_single, manufactured_power):
        H, vstar = preset()
        F = eval_F(H, vstar)
        assert weighted_norm(F, 0, 2) <= 1e-8


def test_ball_exit_reports_worst_node():
    H, _ = manufactured_single(torus_points=32, n_times=8, t_max=4.0)
    sg, tg = H.grid, H.times
    big = GridFn.from_callable(sg, tg, lambda q, t: 2.0 + 0 * q)
    with pytest.raises(DomainError) as exc:
        eval_F(H, big)
    assert "grid node" in str(exc.value)


def test_linearize_trivial_coefficients():
    # v = 0: f = b and g = d_q b (gradient-indexed), m-terms vanish
    sg, tg = base_grids()
    H = nonlinear_spec(sg, tg)
    zero = GridFn.zeros(sg, tg, 1)
    f, g = linearize(H, zero)
    assert np.abs(f.values - H.b.values).max() < 1e-14
    db = H.b.dq(0)
    assert np.abs(g.values - db.values).max() < 1e-12


def test_linearize_vs_directional_fd():
    sg, tg = base_grids(128, 48, 16.0)
    H = nonlinear_spec(sg, tg)
    v = GridFn.from_callable(
        sg, tg, lambda q, t: 0.01 * np.sin(2 * np.pi * q) / t
        + 0.005 * np.cos(4 * np.pi * q) / t)
    vhat = GridFn.from_callable(
        sg, tg, lambda q, t: 0.5 * np.cos(2 * np.pi * q) / t
        + 0.3 * np.sin(4 * np.pi * q) / t ** 2)
    DF = apply_DF(H, v, vhat)
    h = 1e-5
    Fp = eval_F(H, GridFn(sg, tg, v.values + h * vhat.values))
    Fm = eval_F(H, GridFn(sg, tg, v.values - h * vhat.values))
    fd = (Fp.values - Fm.values) / (2 * h)
    rel = np.abs(DF.values - fd).max() / np.abs(fd).max()
    assert rel <= 1e-4


def test_frechet_second_order_remainder():
    # |F(v + h vhat) - F(v) - h DF vhat| = O(h^2), order >= 1.9
    sg, tg = base_grids()
    H = nonlinear_spec(sg, tg)
    v = GridFn.from_callable(
        sg, tg, lambda q, t: 0.01 * np.sin(2 * np.pi * q) / t)
    vhat = GridFn.from_callable(
        sg, tg, lambda q, t: 0.2 * np.cos(2 * np.pi * q) / t)
    DF = apply_DF(H, v, vhat)
    F0 = eval_F(H, v)
    hs = [1e-2, 1e-3, 1e-4, 1e-5]
    rem = []
    for h in hs:
        Fp = eval_F(H, GridFn(sg, tg, v.values + h * vhat.values))
        r = np.abs(Fp.values - F0.values - h * DF.values).max()
        rem.append(r)
    slope = np.polyfit(np.log(hs), np.log(rem), 1)[0]
    assert slope >= 1.9


def test_quadratic_scaling_of_m_terms():
    # the m-part of F scales quadratically when v is doubled
    sg, tg = base_grids()
    H = nonlinear_spec(sg, tg)
    Hm = HamiltonianSpec(H.omega, GridFn.zeros(sg, tg, 1),
                         GridFn.zeros(sg, tg, 1), H.M0)
    v1 = GridFn.from_callable(
        sg, tg, lambda q, t: 0.004 * np.sin(2 * np.pi * q) / t)
    v2 = GridFn(sg, tg, 2 * v1.values)
    # remove the transport (linear) part: N(v) = F(v) - DF(0) v
    lin1 = apply_DF(Hm, GridFn.zeros(sg, tg, 1), v1)
    lin2 = apply_DF(Hm, GridFn.zeros(sg, tg, 1), v2)
    N1 = weighted_norm(GridFn(sg, tg, eval_F(Hm, v1).values
                              - lin1.values), 0, 2)
    N2 = weighted_norm(GridFn(sg, tg, eval_F(Hm, v2).values
                              - lin2.values), 0, 2)
    assert N2 / N1 == pytest.approx(4.0, rel=0.15)


def test_right_inverse_trivial_and_composed():
    H, _ = manufactured_single(torus_points=128, n_times=48, t_max=16.0)
    sg, tg = H.grid, H.times
    zero = GridFn.zeros(sg, tg, 1)
    sol = right_inverse(H, zero, zero, quad_tol=1e-10)
    assert np.abs(sol.kappa.values).max() == 0.0
    z = GridFn.from_callable(sg, tg,
                             lambda q, t: np.cos(2 * np.pi * q) / t ** 2)
    sol = right_inverse(H, zero, z, quad_tol=1e-10)
    err = weighted_norm(GridFn(sg, tg, apply_DF(H, zero, sol.kappa).values
                               - z.values), 0, 2)
    assert err <= 1e-5 * weighted_norm(z, 0, 2)


def test_right_inverse_composed_nonlinear():
    sg, tg = base_grids(64, 32, 10.0)
    H = nonlinear_spec(sg, tg)
    v = GridFn.from_callable(
        sg, tg, lambda q, t: 0.002 * np.sin(2 * np.pi * q) / t)
    rng = np.random.default_rng(7)
    for _ in range(3):
        amps = rng.standard_normal(4) / np.arange(1, 5) ** 2

        def zf(q, t, amps=amps):
            acc = 0.0
            for k, a in enumerate(amps):
                acc = acc + a * np.cos(2 * np.pi * (k + 1) * q)
            return acc / t ** 2

        z = GridFn.from_callable(sg, tg, zf)
        sol = right_inverse(H, v, z, zeta=0.05, quad_tol=1e-10)
        err = weighted_norm(GridFn(sg, tg, apply_DF(H, v, sol.kappa).values
                                   - z.values), 0, 2)
        assert err <= 1e-5 * weighted_norm(z, 0, 2)


def test_right_inverse_refuses_budget_violation():
    sg, tg = base_grids(64, 32, 10.0)
    H = nonlinear_spec(sg, tg)
    v = GridFn.from_callable(
        sg, tg, lambda q, t: 0.05 * np.sin(2 * np.pi * q) / t)
    z = GridFn.from_callable(sg, tg,
                             lambda q, t: np.cos(2 * np.pi * q) / t ** 2)
    with pytest.raises(NormBudgetError):
        right_inverse(H, v, z, zeta=0.001, quad_tol=1e-9)


def test_gamma_trivial_and_decay_budget():
    sg, tg = base_grids()
    H = nonlinear_spec(sg, tg)
    zero = GridFn.zeros(sg, tg, 1)
    # b = 0 and v = 0: Gamma = 0
    H0 = HamiltonianSpec(H.omega, H.a, zero, H.M0)
    gam0 = gamma_from_v(H0, zero)
    assert np.abs(gam0.values).max() == 0.0
    # v = 0: Gamma = b exactly
    gam1 = gamma_from_v(H, zero)
    assert np.abs(gam1.values - H.b.values).max() < 1e-14
    # decay budget eps + C Upsilon zeta, eps = 1 the data size this test
    # allows
    eps = 1.0
    v = GridFn.from_callable(
        sg, tg, lambda q, t: 0.002 * np.sin(2 * np.pi * q) / t ** 2)
    gam2 = gamma_from_v(H, v)
    bound = eps + C_GEOM * UPSILON * 0.05
    profile = [h * t for t, h in zip(tg.points, holder_norm(gam2, 1))]
    assert max(profile) <= bound * (1 + 1e-9)


def test_conjugacy_check_invariant_torus():
    # Gamma = 0 and the trivial section of the unperturbed normal form:
    # the embedded torus is exactly invariant
    sg, tg = base_grids(32, 16, 6.0)
    omega = np.array([1.0])

    def X(state, t):
        return np.array([omega[0] + 0.3 * state[1], 0.0])

    def phi(q, t):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        return np.array([q[0], 0.0])

    gamma = GridFn.zeros(sg, tg, 1)
    rep = conjugacy_check(X, phi, gamma, 1.0, 5.0,
                          np.array([[0.1], [0.6]]), omega, tol=1e-11)
    assert rep["max_error"] <= 1e-9


def test_conjugacy_check_refuses_a_failed_integration():
    # y' = y^2 from y(1) = 1 blows up at t = 2, before the checkpoints
    # 2.24, 3.34 and 5.0
    sg, tg = base_grids(16, 8, 5.0)
    with pytest.raises(IntegrationError):
        conjugacy_check(lambda y, t: y ** 2, lambda q, t: np.ones(1),
                        GridFn.zeros(sg, tg, 1), 1.0, 5.0,
                        np.zeros((1, 1)), np.array([1.0]))


def test_conjugacy_check_manufactured_cylinder():
    eps = 1e-3
    H, vstar = manufactured_single(eps)
    tg = H.times
    interp = GridFnInterpolant(vstar)

    def X(state, t):
        # Hamiltonian field of omega p + a(q, t)
        q = state[0]
        da = 2 * np.pi * eps * np.cos(2 * np.pi * q) / t ** 2 \
            - 2 * eps * np.sin(2 * np.pi * q) / t ** 3
        return np.array([1.0, -da])

    def phi(q, t):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        return np.array([q[0], interp(np.array([[q[0] % 1.0]]),
                                      min(t, tg.points[-1]))[0, 0]])

    gamma = GridFn.zeros(H.grid, tg, 1)
    rep = conjugacy_check(X, phi, gamma, 1.0, 19.0,
                          np.array([[0.2], [0.8]]), H.omega, tol=1e-11)
    assert rep["max_error"] <= 1e-5


def test_hypotheses_report_passes_on_small_ball():
    sg, tg = base_grids(32, 16, 8.0)
    H = nonlinear_spec(sg, tg)
    rep = hypotheses_report(H, zeta=0.02, n_samples=3, seed=1)
    assert rep["pass"]
    assert rep["H3_mu"] <= rep["H3_budget"] < rep["H3_gate"]
    assert rep["constants_source"] == "calibrated"
    # x1 = x2 gives a zero Lipschitz numerator
    F1 = eval_F(H, GridFn.zeros(sg, tg, 1))
    F2 = eval_F(H, GridFn.zeros(sg, tg, 1))
    assert np.abs(F1.values - F2.values).max() == 0.0


def test_grad_omega_and_vnorm():
    sg, tg = base_grids(64, 48, 16.0)
    v = GridFn.from_callable(
        sg, tg, lambda q, t: np.sin(2 * np.pi * q) / t)
    # (grad v) Omega_bar for v = sin(2 pi (q))/t with omega = 1:
    # 2 pi cos(2 pi q)/t - sin(2 pi q)/t^2
    got = transport_operator(v, np.array([1.0]))
    want = GridFn.from_callable(
        sg, tg, lambda q, t: 2 * np.pi * np.cos(2 * np.pi * q) / t
        - np.sin(2 * np.pi * q) / t ** 2)
    assert np.abs(got.values - want.values).max() < 1e-8
    assert v_norm(v, np.array([1.0]), 0) > 0


def random_spec(d, seed=0):
    """A d-torus spec with every term of F present: random q-dependent
    M0 and non-zero b."""
    rng = np.random.default_rng(seed)
    sg, tg = SpatialGrid(d, 32 if d == 1 else 8), TimeGrid(6.0, n_points=10)

    def field(components, scale):
        return GridFn(sg, tg, scale * rng.standard_normal(
            (len(tg),) + sg.shape + (components,)))

    H = HamiltonianSpec(omega=0.7 * np.arange(1, d + 1), a=field(1, 1e-3),
                        b=field(d, 1e-3),
                        M0=field(d * d, 0.05) + 0.2)
    return H, field(d, 0.05)


def comet_spec(seed=0):
    H = comet_decay_synthetic()
    rng = np.random.default_rng(seed)
    return H, GridFn(H.grid, H.times, 1e-3 * rng.standard_normal(
        H.b.values.shape))


@pytest.mark.parametrize("make", [lambda: random_spec(1),
                                  lambda: random_spec(2), comet_spec],
                         ids=["random-d1", "random-d2",
                              "comet-decay-synthetic"])
def test_component_sums_give_the_einsum_bytes(make):
    # eval_F, linearize and the transport operator spell their
    # component sums out; np.einsum adds the same products in the same
    # order from +0.0, so the bytes (the sign of a zero included) agree
    H, v = make()
    assert eval_F(H, v).values.tobytes() == \
        einsum_eval_F(H, v).values.tobytes()
    f, g = linearize(H, v)
    f0, g0 = einsum_linearize(H, v)
    assert f.values.tobytes() == f0.values.tobytes()
    assert g.values.tobytes() == g0.values.tobytes()
    assert transport_operator(v, H.omega, f, g).values.tobytes() == \
        einsum_transport_operator(v, H.omega, f, g).values.tobytes()


def test_a_norm_makes_its_holder_passes_once(monkeypatch):
    # the gradient field of a is built once per GridFn and keeps its norm
    # cache, so a second |a|_sigma makes no Hölder pass
    sg, tg = base_grids(torus_points=32, n_times=12)
    a = nonlinear_spec(sg, tg).a
    first = a_norm(a, 3.75)
    sigmas = []

    def traced(f, sigma, _fn=norms.holder_norm):
        sigmas.append(sigma)
        return _fn(f, sigma)

    monkeypatch.setattr(norms, "holder_norm", traced)
    assert a_norm(a, 3.75) == first
    assert sigmas == []
