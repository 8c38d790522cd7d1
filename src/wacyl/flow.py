"""Non-autonomous flows of omega + f(q,t) on the torus T^n, their spatial
Jacobians, and the fundamental matrix of the zeroth-order transport
system.

Integration uses an adaptive embedded Runge-Kutta pair (DOP853 from
`dop853`, through `_solve`); the tests check it against a fixed-step
RK4 oracle (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constants
from .dop853 import solve_ivp
from .norms import weighted_norm

__all__ = ["VectorFieldSpec", "FundamentalMatrix", "NumericalError",
           "IntegrationError", "NormBudgetError", "integrate_flow",
           "flow_jacobian", "fundamental_matrix", "gronwall_diagnostics"]


class NumericalError(Exception):
    """A numerical failure (CLI exit code 3), as opposed to bad input."""


class IntegrationError(NumericalError):
    pass


class NormBudgetError(NumericalError):
    """A norm precondition failed; carries the measured value."""

    def __init__(self, name, measured, budget):
        super().__init__(f"{name} = {measured:.3e} exceeds budget "
                         f"{budget:.3e}")
        self.name = name
        self.measured = measured
        self.budget = budget


@dataclass
class FundamentalMatrix:
    base_point: np.ndarray
    t: float
    tau: float
    matrix: np.ndarray


class VectorFieldSpec:
    """F(q,t) = omega + f(q,t) on T^n; f None for the free rotation.

    f and its spatial Jacobian are callables; from_gridfn builds them
    from sampled data (trigonometric in q, local polynomial in log t).
    """

    def __init__(self, omega, f=None, jac_f=None, f_gridfn=None):
        self.omega = np.atleast_1d(np.asarray(omega, dtype=float))
        self.dim = len(self.omega)
        self.f = f
        self.jac_f = jac_f
        self.f_gridfn = f_gridfn

    @classmethod
    def from_gridfn(cls, omega, f):
        interp = f.interpolator()
        return cls(omega, f=lambda q, t: interp(q, t),
                   jac_f=lambda q, t: interp.jacobian(q, t), f_gridfn=f)

    def eval(self, q, t):
        q = np.asarray(q, dtype=float)
        out = np.broadcast_to(self.omega, q.shape).copy()
        if self.f is not None:
            out = out + self.f(q, t).reshape(q.shape)
        return out

    def jac(self, q, t):
        q = np.asarray(q, dtype=float)
        d = self.dim
        shape = q.shape[:-1] + (d, d)
        if self.jac_f is None:
            return np.zeros(shape)
        return self.jac_f(q, t).reshape(shape)


def _solve(fun, y0, t0, t1, tol):
    """y(t1) of y' = fun(t, y), y(t0) = y0 by DOP853 with rtol = tol and
    atol = 1e-2 tol; a failed integration raises IntegrationError."""
    if t0 == t1:
        return y0.copy()
    sol = solve_ivp(fun, (t0, t1), y0, rtol=tol, atol=tol * 1e-2)
    if not sol.success:
        raise IntegrationError(f"integration failed on [{t0}, {t1}]: "
                               f"{sol.message}")
    return sol.y[:, -1]


def integrate_flow(F, q0, t0, t1, tol=1e-9):
    """psi^{t1}_{t0}(q0); torus components are left unreduced."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    q0 = np.asarray(q0, dtype=float)
    single = q0.ndim == 1
    pts = np.atleast_2d(q0)

    def rhs(t, y):
        q = y.reshape(pts.shape)
        return F.eval(q, t).ravel()

    out = _solve(rhs, pts.ravel(), t0, t1, tol)
    out = out.reshape(pts.shape)
    return out[0] if single else out


def flow_jacobian(F, q0, t0, t1, tol=1e-9):
    """d_q psi^{t1}_{t0}(q0) by the variational equation."""
    q0 = np.asarray(q0, dtype=float)
    d = F.dim
    y0 = np.concatenate([q0, np.eye(d).ravel()])

    def rhs(t, y):
        q = y[:d]
        J = y[d:].reshape(d, d)
        dq = F.eval(q[None, :], t)[0]
        dJ = F.jac(q[None, :], t)[0] @ J
        return np.concatenate([dq, dJ.ravel()])

    out = _solve(rhs, y0, t0, t1, tol)
    return out[d:].reshape(d, d)


def fundamental_matrix(g, F, q, t, tau, t0=1.0, tol=1e-10):
    """Solve the matrix system R' = -g(psi^s_{t0}(q), s) R, R(tau)=Id,
    returning R(q, t, tau).  q is the characteristic label at time t0."""
    q = np.asarray(q, dtype=float)
    d = F.dim
    y_tau = integrate_flow(F, q, t0, tau, tol)
    y0 = np.concatenate([y_tau, np.eye(d).ravel()])

    def rhs(s, y):
        pos = y[:d]
        R = y[d:].reshape(d, d)
        dpos = F.eval(pos[None, :], s)[0]
        G = np.asarray(g(pos[None, :], s)).reshape(d, d)
        return np.concatenate([dpos, (-G @ R).ravel()])

    out = _solve(rhs, y0, tau, t, tol)
    return FundamentalMatrix(base_point=q, t=float(t), tau=float(tau),
                             matrix=out[d:].reshape(d, d))


def _fit_exponent(ratios, norms):
    """Least-squares fit of log(norm) = log C + c * log(ratio)."""
    x = np.log(np.asarray(ratios, dtype=float))
    y = np.log(np.maximum(np.asarray(norms, dtype=float), 1e-300))
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0]), float(np.exp(coef[1]))


# DOP853 tolerance of the solves of gronwall_diagnostics
GRONWALL_TOL = 1e-10


def gronwall_diagnostics(F, g, mu, sigma, sample_points, time_pairs,
                         f_gridfn=None):
    """Measure flow-derivative and fundamental-matrix growth exponents.

    For each (t, t0) pair the sup over sample points of |d_q psi^t_t0|
    (max-entry norm) is recorded, and similarly |R^t_tau| over
    (tau, t) pairs; fitted exponents of growth in log(t/t0) are
    compared against the calibrated constants times mu.

    The norm precondition |f|_{1,1} <= mu is enforced when the sampled
    field is supplied (f_gridfn, else F's own).
    """
    if f_gridfn is None:
        f_gridfn = F.f_gridfn
    if f_gridfn is not None:
        measured = weighted_norm(f_gridfn, 1, 1).value
        if measured > mu * (1 + 1e-9):
            raise NormBudgetError("|f|_{1,1}", measured, mu)
    samples = np.atleast_2d(np.asarray(sample_points, dtype=float))
    records = []
    ratios, norms = [], []
    for (t, t0) in time_pairs:
        sup = 0.0
        for q in samples:
            J = flow_jacobian(F, q, t0, t, GRONWALL_TOL)
            sup = max(sup, float(np.abs(J).max()))
        ratios.append(max(t, t0) / min(t, t0))
        norms.append(sup)
        records.append({"pair": [float(t), float(t0)],
                        "kind": "flow_jacobian", "measured_norm": sup})
    exp_psi, _ = _fit_exponent(ratios, norms)
    bound_psi = constants.FLOW_EXPONENTS["cbar1"] * mu
    ratios2, norms2 = [], []
    for (t, tau) in time_pairs:
        t_lo, t_hi = min(t, tau), max(t, tau)
        sup = 0.0
        for q in samples:
            R = fundamental_matrix(g, F, q, t_lo, t_hi, tol=GRONWALL_TOL)
            sup = max(sup, float(np.abs(R.matrix).max()))
        ratios2.append(t_hi / t_lo)
        norms2.append(sup)
        records.append({"pair": [float(t_lo), float(t_hi)],
                        "kind": "fundamental_matrix",
                        "measured_norm": sup})
    exp_R, _ = _fit_exponent(ratios2, norms2)
    key = "cR1" if sigma >= 1 else "cR0"
    bound_R = constants.FLOW_EXPONENTS[key] * mu
    flow_pass = exp_psi <= bound_psi + 1e-9
    R_pass = exp_R <= bound_R + 1e-9
    for rec in records:
        if rec["kind"] == "flow_jacobian":
            rec.update(fitted_exponent=exp_psi, bound=bound_psi,
                       **{"pass": flow_pass})
        else:
            rec.update(fitted_exponent=exp_R, bound=bound_R,
                       **{"pass": R_pass})
    report = {
        "mu": mu, "sigma": sigma,
        "flow_exponent": exp_psi, "flow_bound": bound_psi,
        "flow_pass": flow_pass,
        "R_exponent": exp_R, "R_bound": bound_R,
        "R_pass": R_pass,
        "records": records,
        "constants_source": "calibrated",
    }
    return report
