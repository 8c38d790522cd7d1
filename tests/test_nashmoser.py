import copy

import numpy as np
import pytest

import calibration
from calibration import hypotheses_report
from oracles import GridFnInterpolant, conjugacy_check, lagrangian_check
from wacyl import nashmoser, norms
from wacyl.flow import NormBudgetError
from wacyl.functional import (C_GEOM, SPEC_S, UPSILON, DomainError,
                              eval_F, right_inverse, v_norm, x_norm)
from wacyl.grids import GridFn
from wacyl.nashmoser import (ZehnderParams, choose_schedule,
                             comet_decay_synthetic, iterate,
                             manufactured_power,
                             manufactured_single, monitor,
                             params_from_order, validate_params)
from wacyl.norms import holder_norm, weighted_norm
from wacyl.smoothing import smooth


def test_validate_worked_example():
    p = ZehnderParams(s=10.0, lam=6.5, rho=1.0, beta=1.5, alpha=7.0 / 6.0)
    assert validate_params(p)["pass"]


def test_validate_minimal_order_set():
    p = params_from_order(8.0)
    assert p.lam == pytest.approx(2.0 + 14.0 / 8.0)
    assert p.beta == pytest.approx(1.0 + 7.0 / 24.0)
    assert validate_params(p)["pass"]


def test_validate_rejects_beta_two():
    p = ZehnderParams(s=10.0, lam=6.5, rho=1.0, beta=2.0, alpha=7.0 / 6.0)
    rep = validate_params(p)
    assert not rep["pass"]
    assert not rep["checks"]["1 < beta < 2"]


def test_minimal_order_rejects_below_eight():
    with pytest.raises(ValueError):
        params_from_order(7.9)


def test_schedule_exactness():
    p = params_from_order(8.0, Q=1.7)
    for j in range(1, 9):
        assert p.tau_j(j) == pytest.approx(1.7 ** (p.beta ** j),
                                           rel=1e-12)
        assert p.t_j(j) == pytest.approx(1.7 ** (p.alpha * p.beta ** j),
                                         rel=1e-12)


def test_trivial_data_converges_immediately():
    # a = 0, b = 0 (x = x0): F(x0, 0) = 0 already
    H, _ = manufactured_single(eps=0.0, torus_points=32, n_times=16,
                               t_max=8.0)
    p = params_from_order(8.0, Q=2.0)
    sol, st = iterate(H, p, max_steps=3, target=1e-6, quad_tol=1e-9)
    assert st.status == "converged"
    assert sol.residual_norm <= 1e-12


def test_manufactured_power_equals_per_slice_formula():
    # the q-profiles are summed once; every slice must still be the
    # 32-mode formula evaluated at its time, to the bit
    eps = 2e-3
    H, vstar = manufactured_power(eps, torus_points=64, n_times=12,
                                  t_max=10.0)
    omega = nashmoser.MANUFACTURED_OMEGA
    ks = np.arange(1, 33)
    cs = ks ** (-(nashmoser.MANUFACTURED_LAM + 2.0))
    q = H.grid.meshgrid()[0]
    for i, t in enumerate(H.times.points):
        acc1, acc2 = 0.0, 0.0
        for k, c in zip(ks, cs):
            acc1 = acc1 + c * np.sin(2 * np.pi * k * q)
            acc2 = acc2 + c * np.cos(2 * np.pi * k * q) / (2 * np.pi * k)
        a = omega * eps * acc1 / t ** 2 + 2 * eps * acc2 / t ** 3
        assert (H.a.values[i, :, 0] == a).all()
        assert (vstar.values[i, :, 0] == -eps * acc1 / t ** 2).all()


def test_single_preset_is_the_one_mode_builder():
    # manufactured_single is the pair of the one mode k = 1, c = 1
    H, vstar = manufactured_single()
    H1, vstar1 = nashmoser._manufactured(1e-3, np.arange(1, 2), [1.0],
                                         128, 64, 20.0)
    assert H.a.values.tobytes() == H1.a.values.tobytes()
    assert vstar.values.tobytes() == vstar1.values.tobytes()


def test_smoothed_b_keeps_its_band_limited_spectrum():
    # S_tau b carries the spectrum smooth gave it, exactly zero for
    # |k| >= tau, and d_q b is taken from it
    Hs = nashmoser._smoothed_spec(comet_decay_synthetic(), 3.0)
    radius = np.sqrt(sum(k ** 2 for k in Hs.grid.torus_mesh()))
    assert not Hs.b.spectrum()[:, radius >= 3.0].any()


def test_x_smoothing_gap_decreases():
    # |x - S_tau_j x|_1 over the smoothing times of the first four steps
    H, _ = manufactured_power(torus_points=128, n_times=32, t_max=10.0)
    p = params_from_order(8.0, Q=1.6)
    gaps = [x_norm(H.a - smooth(H.a, p.tau_j(j)),
                   H.b - smooth(H.b, p.tau_j(j)), 1.0)
            for j in range(1, 5)]
    assert all(gaps[i + 1] < gaps[i] or gaps[i + 1] < 1e-12
               for i in range(3))


@pytest.fixture(scope="module")
def single_run():
    H, vstar = manufactured_single()
    p = params_from_order(8.0, Q=2.0)
    sol, st = iterate(H, p, max_steps=10, target=1e-6,
                      quad_tol=1e-10, min_steps=3)
    return H, vstar, sol, st, p


@pytest.fixture(scope="module")
def power_run():
    H, vstar = manufactured_power()
    p, scan = choose_schedule(H, params_from_order(8.0))
    sol, st = iterate(H, p, max_steps=12, target=1e-6,
                      quad_tol=1e-10, min_steps=3)
    return H, vstar, sol, st, p, scan


class TestManufacturedRuns:
    def test_single_mode_exactness(self, single_run):
        H, vstar, sol, st, p = single_run
        assert st.status == "converged"
        assert sol.residual_norm <= 1e-6
        dv = GridFn(H.grid, H.times, sol.v.values - vstar.values)
        assert weighted_norm(dv, 1, 1) <= 1e-4

    def test_power_run_monotone_and_converged(self, power_run):
        H, vstar, sol, st, p, scan = power_run
        assert st.status == "converged"
        assert sol.residual_norm <= 1e-6 * max(1.0,
                                               st.true_residuals[0])
        # residual decreases monotonically for at least 3 updates
        assert st.j >= 3
        for i in range(3):
            assert st.true_residuals[i + 1] < st.true_residuals[i]
        dv = GridFn(H.grid, H.times, sol.v.values - vstar.values)
        assert weighted_norm(dv, 1, 1) <= 1e-4

    def test_power_run_envelope_slope(self, power_run):
        H, vstar, sol, st, p, scan = power_run
        mon = monitor(st, p, H.omega)
        assert mon["slope"] is not None and mon["slope"] < 0
        assert abs(mon["slope_ratio"] - 1.0) <= 0.25
        assert mon["residual_envelope_pass"]
        assert mon["step_low_pass"]
        assert mon["step_high_pass"]

    def test_schedule_scan_records(self, power_run):
        *_, scan = power_run
        assert len(scan) >= 3
        assert any(r["r1"] <= r["envelope"] for r in scan)

    def test_gamma_decay_budget(self, power_run):
        H, vstar, sol, st, p, scan = power_run
        prof = [h * t for t, h in zip(sol.gamma.times.points,
                                      holder_norm(sol.gamma, 1))]
        # eps + C Upsilon zeta, eps = 0.01 the data size this test allows
        bound = 0.01 + C_GEOM * UPSILON * p.zeta
        assert all(v <= bound for v in prof)

    def test_manifest_contents(self, power_run):
        H, vstar, sol, st, p, scan = power_run
        man = sol.manifest
        assert man["status"] == "converged"
        assert man["Q"] == p.Q
        assert len(man["true_residuals"]) == st.j + 1
        assert man["hamiltonian"]["n"] == 1

    def test_conjugacy_after_convergence(self, single_run):
        # phase-space flow through the converged section stays on it
        H, vstar, sol, st, p = single_run
        eps = 1e-3
        interp = GridFnInterpolant(sol.v)

        def X(state, t):
            q = state[0]
            da = 2 * np.pi * eps * np.cos(2 * np.pi * q) / t ** 2 \
                - 2 * eps * np.sin(2 * np.pi * q) / t ** 3
            return np.array([1.0, -da])

        def phi(q, t):
            q = np.atleast_1d(np.asarray(q, dtype=float))
            return np.array([q[0], interp(
                np.array([[q[0] % 1.0]]),
                min(t, H.times.points[-1]))[0, 0]])

        rep = conjugacy_check(X, phi, sol.gamma, 1.0, 18.0,
                              np.array([[0.3]]), H.omega, tol=1e-11)
        assert rep["max_error"] <= 1e-5


def test_divergence_reported_on_envelope_violation():
    # an oversized data norm with a deliberately tiny upsilon makes the
    # scheduled envelope fail from the first steps
    H, _ = manufactured_power(eps=0.1, torus_points=64, n_times=24,
                              t_max=8.0)
    p = params_from_order(8.0, Q=1.3, upsilon=1e-6)
    sol, st = iterate(H, p, max_steps=3, target=0.0, quad_tol=1e-8)
    mon = monitor(st, p, H.omega)
    assert not mon["residual_envelope_pass"]
    first_fail = next(r["d"] for r in mon["rows"]
                      if r["residual"] > r["residual_envelope"])
    assert first_fail >= 1


def test_divergence_returns_the_best_iterate():
    # with target 0 the coupled 2-torus solve at Q = 1.6 runs into its
    # rounding floor: the residual falls to about 1.5e-15 at step 7, then
    # rises at steps 8 and 9 on rounding alone, which counts as
    # divergence; the returned v is the step-7 iterate, not the last one
    H = comet_decay_synthetic()
    p = params_from_order(8.0, Q=1.6)
    sol, st = iterate(H, p, max_steps=12, target=0.0, min_steps=3,
                      zeta=0.1, quad_tol=1e-9)
    assert st.status == "divergence"
    best = min(st.true_residuals)
    step = sol.manifest["best_step"]
    assert 0 < step < st.j and st.true_residuals[step] == best
    assert sol.residual_norm == best < st.true_residuals[-1]
    assert weighted_norm(eval_F(H, sol.v), 0, 2) == best


def test_mu_budget_abort():
    H = comet_decay_synthetic()
    p = params_from_order(8.0, Q=1.8)
    with pytest.raises(NormBudgetError):
        iterate(H, p, max_steps=2, zeta=1e-5)


def _failed_hypothesis(hyp):
    """(name, measured, bound) of the first failing item of a
    hypotheses report."""
    items = (
        ("H1", hyp["H1_pass"], max(hyp["H1_first"], hyp["H1_second"]),
         hyp["H1_bound"]),
        ("H2", hyp["H2_pass"], hyp["H2_ratio"], hyp["H2_bound"]),
        ("H3 mu", hyp["H3_mu"] <= hyp["H3_budget"], hyp["H3_mu"],
         hyp["H3_budget"]),
        ("H3 budget", hyp["H3_budget"] < hyp["H3_gate"], hyp["H3_budget"],
         hyp["H3_gate"]),
        ("H4", hyp["H4_pass"], max(hyp["H4_ratios"].values()),
         hyp["H4_bound"]),
    )
    return next((f"hypothesis {name}", measured, bound)
                for name, ok, measured, bound in items if not ok)


def test_failed_hypotheses_name_their_numbers(monkeypatch):
    monkeypatch.setitem(calibration.HYPOTHESES, "H1", 1e-30)
    H, _ = manufactured_single(torus_points=32, n_times=16)
    err = NormBudgetError(*_failed_hypothesis(hypotheses_report(H, 0.02)))
    assert err.name == "hypothesis H1" and err.budget == 1e-30
    assert err.measured > 1e-30
    assert f"{err.measured:.3e}" in str(err) and "1.000e-30" in str(err)


def test_large_data_converge_without_a_size_budget():
    # eps = 0.05 gives |x - x0|_lambda = 6.5e2; the scheme contracts
    # anyway, so no fixed size threshold may refuse these data
    H, vstar = manufactured_single(eps=0.05, torus_points=32, n_times=24)
    p = params_from_order(8.0, Q=1.8)
    sol, st = iterate(H, p, min_steps=3)
    assert st.status == "converged"
    assert weighted_norm(sol.v - vstar, 1, 1) <= 1e-4


def counted(calls, module, mp):
    """Count the calls of calls' names made through module."""
    for name in calls:
        def wrapper(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        mp.setattr(module, name, wrapper)


@pytest.fixture(scope="module")
def counted_scan():
    """The schedule scan on a small power-law grid, counting the Newton
    driver and residual calls it makes."""
    H, _ = manufactured_power(torus_points=32, n_times=16, t_max=8.0)
    p = params_from_order(8.0)
    calls = {"iterate": 0, "eval_F": 0}
    with pytest.MonkeyPatch.context() as mp:
        counted(calls, nashmoser, mp)
        chosen, records = choose_schedule(H, p)
    return H, p, chosen, records, calls


def test_schedule_scan_is_one_newton_step(counted_scan):
    # the oracle: a one-step iterate run per Q, stopping at the first Q
    # whose step lands under its envelope; its step 1 is the scan's
    # trial, so records and choice match exactly
    H, p, chosen, records, _ = counted_scan
    want = []
    for Q in nashmoser.Q_GRID:
        try:
            _, st = iterate(H, p.replace(Q=Q), max_steps=1, target=0.0)
        except (NormBudgetError, DomainError):
            continue
        ups = min(1.0, 2.0 * st.residual_norms[0])
        want.append({"Q": float(Q), "upsilon": ups,
                     "r1": st.residual_norms[-1],
                     "envelope": 0.5 * ups * Q ** (-p.lam * p.beta)})
        if want[-1]["r1"] <= want[-1]["envelope"]:
            break
    assert records == want
    assert chosen == p.replace(Q=want[-1]["Q"], upsilon=want[-1]["upsilon"])


@pytest.mark.parametrize("builder, grid, n_trials", [
    (lambda: manufactured_power()[0], nashmoser.Q_GRID[:2], 2),
    (lambda: manufactured_single(0.7)[0], nashmoser.Q_GRID, 3),
], ids=["two-trial-grid", "eps-0.7"])
def test_schedule_fallback_is_the_last_unrefused_trial(monkeypatch, builder,
                                                       grid, n_trials):
    # when no trial contracts, the choice is the last trial the step did
    # not refuse, with that trial's own upsilon; at eps = 0.7 the step
    # refuses every Q above the third, so the choice is not the grid's
    # last Q
    monkeypatch.setattr(nashmoser, "Q_GRID", grid)
    p = params_from_order(8.0)
    chosen, records = choose_schedule(builder(), p)
    assert [r["Q"] for r in records] == [float(Q) for Q in grid[:n_trials]]
    assert all(r["r1"] > r["envelope"] for r in records)
    assert chosen == p.replace(Q=records[-1]["Q"],
                               upsilon=records[-1]["upsilon"])


def test_step_high_stable_under_one_ulp_input_change():
    # the C^(s+1) step norm is taken on the smoothed correction, whose
    # spectrum is zero beyond the band |k| < t_j: rounding noise above the
    # band, which the ninth derivative would amplify by up to (2 pi 64)^9,
    # does not reach it, so a 1-ulp change of one input value leaves every
    # row in place
    H, _ = manufactured_power()
    p = params_from_order(8.0, Q=float(nashmoser.Q_GRID[2]))
    moved = H.a.values.copy()
    moved[5, 17, 0] = np.nextafter(moved[5, 17, 0], np.inf)
    H_moved = copy.copy(H)
    H_moved.a = GridFn(H.grid, H.times, moved)
    rows = []
    for h in (H, H_moved):
        st = iterate(h, p, max_steps=2, target=0.0)[1]
        rows.append([r["step_high"]
                     for r in monitor(st, p, h.omega)["rows"]])
    assert len(rows[0]) == 2
    np.testing.assert_allclose(rows[1], rows[0], rtol=1e-6, atol=0)


@pytest.fixture(scope="module")
def norm_traced_run():
    """A three-step power-law solve, recording the order sigma of every
    holder_norm call iterate makes."""
    H, _ = manufactured_power(torus_points=32, n_times=16, t_max=8.0)
    p = params_from_order(8.0, Q=1.5)
    sigmas = []

    def traced(f, sigma, _fn=norms.holder_norm):
        sigmas.append(sigma)
        return _fn(f, sigma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "holder_norm", traced)
        _, st = iterate(H, p, max_steps=3, target=0.0)
    return H, p, st, sigmas


def test_iterate_takes_no_step_norm(norm_traced_run):
    # the C^(s+1) step norm is the monitor's; the iteration only keeps
    # the smoothed corrections it is taken on
    H, p, st, sigmas = norm_traced_run
    assert sigmas and p.s + 1 not in sigmas
    assert st.j == 3 and len(st.corrections) == 3


def test_monitor_step_norms_of_the_corrections(norm_traced_run):
    H, p, st, _ = norm_traced_run
    rows = monitor(st, p, H.omega)["rows"]
    assert len(rows) == len(st.corrections)
    for row, c in zip(rows, st.corrections):
        assert row["step_low"] == v_norm(c, H.omega, 0)
        assert row["step_high"] == weighted_norm(c, p.s + 1, 1)


def test_schedule_scan_evaluates_each_trial_once(counted_scan):
    # per recorded trial F(phi_1, 0) and F(phi_1, psi_1), and no driver
    # run; the scan stops at its choice, the third Q of the grid
    *_, records, calls = counted_scan
    assert len(records) == 3 < len(nashmoser.Q_GRID)
    assert calls == {"iterate": 0, "eval_F": 2 * len(records)}


@pytest.fixture(scope="module")
def counted_run():
    """The coupled 2-torus solve, counting iterate's smooth and eval_F
    calls."""
    H = comet_decay_synthetic()
    p = params_from_order(8.0, Q=1.8)
    calls = {"smooth": 0, "eval_F": 0}
    with pytest.MonkeyPatch.context() as mp:
        counted(calls, nashmoser, mp)
        sol, st = iterate(H, p, max_steps=8, target=1e-6, quad_tol=1e-9,
                          min_steps=3, zeta=0.1)
    return H, sol, st, calls


@pytest.fixture(scope="module")
def run(counted_run):
    return counted_run[:3]


class TestCometDecaySynthetic:
    def test_each_newton_quantity_evaluated_once(self, counted_run):
        # per step: two smooths for phi_j and one for the update; F at
        # (phi_j, psi) (step 1's is the step-0 residual), (phi_j, psi +
        # update) and (x, psi + update), plus F(x, 0) once
        H, sol, st, calls = counted_run
        assert st.j >= 3
        assert calls == {"smooth": 3 * st.j, "eval_F": 3 * st.j + 1}
        assert sol.residual_norm == st.true_residuals[-1]

    def test_residual_decreases(self, run):
        H, sol, st = run
        assert st.j >= 3
        for i in range(3):
            assert st.true_residuals[i + 1] < st.true_residuals[i]

    def test_spec_validates(self, run):
        # the kinetic budget |d^2_p H|_{s+1,0} = |2 M0|_{s+1,0} <= UPSILON
        H, sol, st = run
        assert weighted_norm(2.0 * H.M0, SPEC_S + 1, 0) <= UPSILON

    def test_lagrangian_two_torus(self, run):
        H, sol, st = run
        rng = np.random.default_rng(3)
        rep = lagrangian_check(sol, H, times=[1.0, 4.0, 10.0],
                               samples=rng.uniform(0, 1, (3, 2)),
                               tol=1e-10)
        assert not rep["degenerate"]
        vals = [r["max_alpha"] for r in rep["per_time"]]
        assert rep["decay_pass"]
        assert vals[0] < 1e-8  # near-exact Lagrangian section

    def test_unsmoothed_newton_steps_keep_the_residual(self, run):
        # the transport solve inverts the residual's own discrete operator,
        # so full Newton steps psi - DF(psi)^-1 F(psi) from the converged
        # iterate, with no smoothing, do not raise |F|_{0,2}
        H, sol, st = run
        psi = sol.v
        norms = [weighted_norm(eval_F(H, psi), 0, 2)]
        for _ in range(3):
            step = right_inverse(H, psi, -eval_F(H, psi), zeta=0.1,
                                 quad_tol=1e-9).kappa
            psi = psi + step
            norms.append(weighted_norm(eval_F(H, psi), 0, 2))
        assert max(norms[1:]) <= norms[0], norms


def test_lagrangian_degenerate_on_circle():
    H, _ = manufactured_single(torus_points=32, n_times=16, t_max=8.0)
    p = params_from_order(8.0, Q=2.0)
    sol, st = iterate(H, p, max_steps=4, target=1e-6, quad_tol=1e-9)
    rep = lagrangian_check(sol, H, times=[1.0, 4.0],
                           samples=np.array([[0.2]]))
    assert rep["degenerate"]
    assert all(r["max_alpha"] == 0.0 for r in rep["per_time"])
