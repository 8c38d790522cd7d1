"""Double-smoothing Newton iteration driving the cylinder functional to
zero, scheme-parameter validation, schedule selection, convergence
monitoring against the scheduled envelopes, and manufactured data.  A
solve returns v and Gamma = b + mbar v; the trajectory checks of a
solution (Lagrangian pullback, conjugacy) are test oracles.
"""

from __future__ import annotations

import numpy as np

from . import constants
from .flow import NormBudgetError
from .functional import (DomainError, HamiltonianSpec, eval_F,
                         gamma_from_v, right_inverse, v_norm)
from .grids import GridFn, SpatialGrid, TimeGrid
from .homological import SERIES_TOL
from .norms import weighted_norm
from .smoothing import smooth

__all__ = ["ZehnderParams", "IterationState", "CylinderSolution",
           "validate_params", "params_from_order",
           "newton_step", "iterate", "choose_schedule", "monitor",
           "manufactured_single", "manufactured_power",
           "comet_decay_synthetic"]


# the loss exponent gamma of the scheme inequalities, which
# params_from_order builds every parameter set for
GAMMA_LOSS = 1.0


class ZehnderParams:
    """The scheme's orders and schedule; two are equal when every field
    is, and replace gives a copy with some fields changed."""

    def __init__(self, s, lam, rho, beta, alpha, Q=2.0, upsilon=1.0,
                 zeta=0.05):
        self.s = s
        self.lam = lam
        self.rho = rho
        self.beta = beta
        self.alpha = alpha
        self.Q = Q
        self.upsilon = upsilon
        self.zeta = zeta

    def __eq__(self, other):
        if type(other) is not ZehnderParams:
            return NotImplemented
        return vars(self) == vars(other)

    def replace(self, **changes):
        return ZehnderParams(**{**vars(self), **changes})

    def tau_j(self, j):
        return float(self.Q ** (self.beta ** j))

    def t_j(self, j):
        return float(self.Q ** (self.alpha * self.beta ** j))


class IterationState:
    def __init__(self):
        self.j = 0
        self.residual_norms = []    # paired F(phi_d, psi_d)
        self.true_residuals = []    # F(x, psi_d)
        self.corrections = []       # S_t kappa per step
        self.status = "running"


class CylinderSolution:
    def __init__(self, v, gamma, residual_norm, manifest):
        self.v = v
        self.gamma = gamma          # Gamma = b + mbar(., v, .) v
        self.residual_norm = residual_norm
        self.manifest = manifest


def validate_params(p):
    """Check the scheme inequalities; pass/fail per item."""
    g = GAMMA_LOSS
    checks = {
        "1 < beta < 2": 1.0 < p.beta < 2.0,
        "alpha > 1": p.alpha > 1.0,
        "1 <= gamma <= rho < lambda < s":
            1.0 <= g <= p.rho < p.lam < p.s,
        "lambda > 2 beta gamma/(2-beta)":
            p.lam > 2.0 * p.beta * g / (2.0 - p.beta)
            if p.beta < 2.0 else False,
        "lambda > beta (gamma + rho beta)":
            p.lam > p.beta * (g + p.rho * p.beta),
        "s > alpha gamma/(alpha-1)":
            p.s > p.alpha * g / (p.alpha - 1.0) if p.alpha > 1.0 else False,
        "s > lambda + alpha gamma/(beta-1)":
            p.s > p.lam + p.alpha * g / (p.beta - 1.0)
            if p.beta > 1.0 else False,
    }
    ok = all(checks.values())
    return {"pass": ok, "checks": checks,
            "params": {"s": p.s, "lambda": p.lam, "rho": p.rho,
                       "beta": p.beta, "alpha": p.alpha,
                       "gamma": g}}


def params_from_order(s, **kw):
    """Minimal-order parameterization with loss exponent gamma = 1:
    requires s >= 8, and uses lambda(s) = 2 + 14/s, beta = 1 + 7/(3s),
    alpha = 7/6, rho = 1."""
    if s < 8.0:
        raise ValueError(f"minimal order requires s >= 8 (got s = {s})")
    p = ZehnderParams(s=float(s), lam=2.0 + 14.0 / s, rho=1.0,
                      beta=1.0 + 7.0 / (3.0 * s), alpha=7.0 / 6.0, **kw)
    rep = validate_params(p)
    if not rep["pass"]:
        raise ValueError(f"derived parameters fail validation: {rep}")
    return p


# --------------------------------------------------------------------
# the iteration
# --------------------------------------------------------------------

def _smoothed_spec(H, tau):
    """phi_j(x) - x0 = S_tau (x - x0) with x0 = (0, 0): smooth (a, b)."""
    return H.with_data(smooth(H.a, tau), smooth(H.b, tau))


def _z_norm(f):
    return weighted_norm(f, 0, 2)


def newton_step(Hs, psi, F, t, zeta, quad_tol):
    """One update psi - S_t eta(phi, psi) F of the scheme on the smoothed
    data Hs (phi), where F = F(phi, psi): the right inverse solves the
    linearized equation with right-hand side -F and the correction is
    smoothed at rate t.  Returns the new psi and the smoothed correction,
    whose spectrum is band-limited to |k| < t."""
    step = right_inverse(Hs, psi, -F, zeta=zeta, quad_tol=quad_tol).kappa
    dpsi = smooth(step, t)
    return psi + dpsi, dpsi


def _checked(p):
    rep = validate_params(p)
    if not rep["pass"]:
        raise ValueError(f"scheme parameters rejected: {rep['checks']}")
    return rep


def iterate(H, p, max_steps=12, target=1e-6, quad_tol=SERIES_TOL,
            min_steps=0, zeta=None):
    """Run the double-smoothing Newton scheme on the Hamiltonian data.

    Updates  psi_{j+1} = psi_j - S_{t_{j+1}} eta(phi_{j+1}, psi_j)
    F(phi_{j+1}, psi_j)  with smoothing rates tau_j = Q^(beta^j),
    t_j = tau_j^alpha, recomputed from (Q, beta, alpha) each step.
    Both the paired residuals |F(phi_d, psi_d)| (the scheduled
    quantities) and the residuals against the unsmoothed data are
    recorded; stopping and divergence detection use the latter.
    Stops when |F|_{0,2} < target * max(1, initial residual), the
    manifest's floor, after at least min_steps updates, or flags
    divergence after two consecutive residual increases.  On divergence
    it returns the iterate of smallest true residual, and the manifest's
    best_step names its step; otherwise the last iterate.
    """
    rep = _checked(p)
    zeta = p.zeta if zeta is None else zeta
    state = IterationState()
    psi = GridFn.zeros(H.grid, H.times, H.d)
    # F(phi_1, 0) is both the step-0 paired residual and step 1's
    # right-hand side
    Hs = _smoothed_spec(H, p.tau_j(1))
    Fj = eval_F(Hs, psi)
    r_true = _z_norm(eval_F(H, psi))
    # a true residual below floor is the solver's rounding floor, where
    # jitter is no increase
    floor = target * max(1.0, r_true)
    state.residual_norms.append(_z_norm(Fj))
    state.true_residuals.append(r_true)
    best_psi = psi                      # the iterate of least r_true
    increases = 0
    for j in range(max_steps):
        if j:
            Hs = _smoothed_spec(H, p.tau_j(j + 1))
            Fj = eval_F(Hs, psi)
        psi, dpsi = newton_step(Hs, psi, Fj, p.t_j(j + 1), zeta, quad_tol)
        state.j = j + 1
        r_paired = _z_norm(eval_F(Hs, psi))
        r_true = _z_norm(eval_F(H, psi))
        if r_true < min(state.true_residuals):
            best_psi = psi
        state.residual_norms.append(r_paired)
        state.true_residuals.append(r_true)
        state.corrections.append(dpsi)
        if r_true > state.true_residuals[-2] and r_true >= floor:
            increases += 1
            if increases >= 2:
                state.status = "divergence"
                break
        else:
            increases = 0
        if r_true < floor and state.j >= min_steps:
            state.status = "converged"
            break
    else:
        state.status = "max_steps"
    if state.status == "max_steps" and state.true_residuals[-1] < floor:
        state.status = "converged"
    manifest = {
        "params": rep["params"],
        "Q": p.Q, "upsilon": p.upsilon,
        "zeta": zeta, "target": target, "floor": floor,
        "quad_tol": quad_tol,
        "status": state.status, "steps": state.j,
        "paired_residuals": state.residual_norms,
        "true_residuals": state.true_residuals,
        "hamiltonian": H.manifest(),
    }
    residual = state.true_residuals[-1]
    if state.status == "divergence":
        residual = min(state.true_residuals)
        manifest["best_step"] = state.true_residuals.index(residual)
        psi = best_psi
    sol = CylinderSolution(v=psi, gamma=gamma_from_v(H, psi),
                           residual_norm=residual, manifest=manifest)
    return sol, state


Q_GRID = np.geomspace(1.15, 3.0, 12)


def choose_schedule(H, p):
    """Pick (Q, upsilon) from one newton_step from psi = 0 per Q of
    Q_GRID, in grid order: the scan stops at the first Q whose step
    lands under its scheduled envelope |F_1| <= (upsilon/2)
    Q^(-lambda beta), and records every trial up to and including it.
    The choice is the last recorded trial, which is the last trial the
    step did not refuse when none contracts; (Q_GRID[-1], 1.0) when the
    step refuses every trial.

    The smallness threshold has no formula, so upsilon is anchored per
    trial at twice the step-0 residual (the envelope then demands a
    genuine one-step contraction); the chosen one lands in the run
    manifest.
    """
    _checked(p)
    psi = GridFn.zeros(H.grid, H.times, H.d)
    records = []
    for Q in Q_GRID:
        trial = p.replace(Q=float(Q))
        Hs = _smoothed_spec(H, trial.tau_j(1))
        F0 = eval_F(Hs, psi)
        try:
            psi1, _ = newton_step(Hs, psi, F0, trial.t_j(1), p.zeta,
                                  SERIES_TOL)
            r1 = _z_norm(eval_F(Hs, psi1))
        except (NormBudgetError, DomainError):
            continue
        # anchor upsilon at twice the step-0 residual of this trial, so
        # S(1,1) demands a genuine contraction by Q^(-lambda beta)
        ups = min(1.0, 2.0 * _z_norm(F0))
        envelope = 0.5 * ups * Q ** (-trial.lam * trial.beta)
        records.append({"Q": float(Q), "upsilon": ups, "r1": r1,
                        "envelope": envelope})
        if r1 <= envelope:
            break
    if not records:
        return p.replace(Q=float(Q_GRID[-1]), upsilon=1.0), records
    return p.replace(Q=records[-1]["Q"],
                     upsilon=records[-1]["upsilon"]), records


def monitor(state, p, omega):
    """Measured step quantities against the scheduled envelopes.

    Per update d: the paired residual |F(phi_d, psi_d)|_0 against
    (upsilon/2) Q^(-lambda beta^d); the V^0 norm (frequency omega) and
    the C^(s+1) norm of the smoothed correction state.corrections[d-1]
    against the scheduled shapes Q^(-(lambda - beta gamma) beta^(d-1)) and
    Q^((s-lambda) beta^(d+1)), shape-anchored at d = 1 (the absolute
    high-norm prefactor carries derivative factors the abstract
    constants absorb); and the regression slope of log residual on
    beta^d over the strictly decreasing head.
    """
    if state.j < 2:
        raise ValueError("need at least two recorded steps")
    Q, lam, beta, g, s = p.Q, p.lam, p.beta, GAMMA_LOSS, p.s
    ups = p.upsilon
    rows = []
    res = state.residual_norms[1:]

    def low_shape(d):
        return Q ** (-(lam - beta * g) * beta ** (d - 1))

    def high_shape(d):
        return Q ** ((s - lam) * beta ** (d + 1))

    # the smoothed correction's spectrum is zero for |k| >= t_j, so its
    # C^(s+1) norm measures the step, not rounding noise above the band
    # amplified by up to (pi N)^(s+1)
    lows = [v_norm(c, omega, 0) for c in state.corrections]
    highs = [weighted_norm(c, s + 1, 1) for c in state.corrections]
    low0, high0 = lows[0], highs[0]
    for d in range(1, state.j + 1):
        rows.append({
            "d": d,
            "residual": res[d - 1],
            "residual_envelope": 0.5 * ups * Q ** (-lam * beta ** d),
            "step_low": lows[d - 1],
            "step_low_envelope":
                constants.MONITOR_C * low0 * low_shape(d) / low_shape(1),
            "step_high": highs[d - 1],
            "step_high_envelope":
                constants.MONITOR_C * high0 * high_shape(d) / high_shape(1),
        })
    # rate regression on the data-residual sequence, which decreases
    # monotonically on a converging run (the paired sequence dips to the
    # solver floor whenever a smoothing stage saturates)
    tre = state.true_residuals[1:]
    ds, lr = [], []
    for d in range(1, state.j + 1):
        if d > 1 and tre[d - 1] >= tre[d - 2]:
            break
        if tre[d - 1] <= 0:
            break
        ds.append(beta ** d)
        lr.append(np.log(tre[d - 1]))
    slope = None
    if len(ds) >= 2:
        A = np.vstack([ds, np.ones(len(ds))]).T
        coef, *_ = np.linalg.lstsq(A, np.asarray(lr), rcond=None)
        slope = float(coef[0])
    expected = -lam * np.log(Q)
    env_ok = all(r["residual"] <= r["residual_envelope"] * (1 + 1e-9)
                 for r in rows)
    low_ok = all(r["step_low"] <= r["step_low_envelope"] * (1 + 1e-9)
                 for r in rows)
    high_ok = all(r["step_high"] <= r["step_high_envelope"] * (1 + 1e-9)
                  for r in rows)
    return {
        "rows": rows,
        "slope": slope,
        "expected_slope": expected,
        "slope_ratio": (slope / expected) if slope is not None else None,
        "residual_envelope_pass": env_ok,
        "step_low_pass": low_ok,
        "step_high_pass": high_ok,
        "regression_points": len(ds),
    }


# --------------------------------------------------------------------
# manufactured data
# --------------------------------------------------------------------

# frequency of the 1-torus manufactured pairs, and the regularity
# exponent lam of manufactured_power's mode spectrum
MANUFACTURED_OMEGA = 1.0
MANUFACTURED_LAM = 3.75


def _manufactured(eps, ks, cs, torus_points, n_times, t_max):
    """The manufactured pair of the modes ks with amplitudes cs: with
    S = sum c_k sin(2 pi k q) and C = sum c_k cos(2 pi k q)/(2 pi k), the
    data a = omega eps S/t^2 + 2 eps C/t^3, omega = MANUFACTURED_OMEGA,
    transports the exact section v* = -eps S/t^2
    (d_q a + (grad v*) Omega_bar = 0)."""
    tg = TimeGrid(t_max, n_points=n_times)
    sg = SpatialGrid(1, torus_points)
    omega = MANUFACTURED_OMEGA
    # the two q-profiles, summed once and scaled per time slice
    qs, = sg.meshgrid()
    sin_sum, cos_sum = 0.0, 0.0
    for k, c in zip(ks, cs):
        sin_sum = sin_sum + c * np.sin(2 * np.pi * k * qs)
        cos_sum = cos_sum + c * np.cos(2 * np.pi * k * qs) / (2 * np.pi * k)

    def vstar_fn(_, t):
        return -eps * sin_sum / t ** 2

    def a_fn(_, t):
        return omega * eps * sin_sum / t ** 2 + 2 * eps * cos_sum / t ** 3

    zero = GridFn.zeros(sg, tg, 1)
    H = HamiltonianSpec(omega=[omega], a=GridFn.from_callable(sg, tg, a_fn),
                        b=zero, M0=zero)
    return H, GridFn.from_callable(sg, tg, vstar_fn)


def manufactured_single(eps=1e-3, torus_points=128, n_times=64,
                        t_max=20.0):
    """Single-mode manufactured pair, the mode k = 1 of amplitude 1:
    a = omega eps sin(2 pi q)/t^2 + 2 eps cos(2 pi q)/(2 pi t^3) and
    v* = -eps sin(2 pi q)/t^2."""
    return _manufactured(eps, (1,), (1.0,), torus_points, n_times, t_max)


def manufactured_power(eps=1e-3, torus_points=128, n_times=64,
                       t_max=20.0):
    """Multi-mode manufactured pair with a power-law spectrum, the
    regularity class where the scheme's residual envelope is sharp.

    The exponent lam + 2 (lam = MANUFACTURED_LAM) of its 32 modes makes
    the data residual sit in the borderline class for the scheduled
    envelope: the residual spectrum gains one power of k from d_q and
    its C^0 tail sums lose one, so the measured contraction saturates
    Q^(-lambda beta^d)."""
    ks = np.arange(1, 33)
    return _manufactured(eps, ks, ks ** (-(MANUFACTURED_LAM + 2.0)),
                         torus_points, n_times, t_max)


def comet_decay_synthetic():
    """Synthetic data of size eps = 2e-3 with the comet decay profile:
    |d_q a| ~ t^-2, |b| ~ t^-2, plus a genuine quadratic form, on a
    2-torus base of 16 x 16 points and 32 times up to t = 12.

    The form is constant in q (its kinetic budget must fit UPSILON in
    the C^(s+1) norm); the coupling is still nonlinear through mbar v.
    """
    eps = 2e-3
    tg = TimeGrid(12.0, n_points=32)
    sg = SpatialGrid(2, 16)
    omega = np.array([1.0, 0.618])

    def a_fn(q1, q2, t):
        return eps * (np.sin(2 * np.pi * q1)
                      + 0.5 * np.cos(2 * np.pi * (q1 + q2))) / t ** 2

    def b_fn(q1, q2, t):
        return np.stack(np.broadcast_arrays(
            eps * np.cos(2 * np.pi * q1) / t ** 2,
            eps * 0.5 * np.sin(2 * np.pi * q2) / t ** 2), axis=-1)

    def m_fn(q1, q2, t):
        return np.broadcast_to((np.eye(2) * 0.25).reshape(4),
                               np.shape(t + q1) + (4,))

    return HamiltonianSpec(omega=omega,
                           a=GridFn.from_callable(sg, tg, a_fn),
                           b=GridFn.from_callable(sg, tg, b_fn),
                           M0=GridFn.from_callable(sg, tg, m_fn))
