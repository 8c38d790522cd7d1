"""Non-autonomous flows of omega + f(q,t) on the torus T^n, their spatial
Jacobians, the fundamental matrix of the zeroth-order transport system,
and the Gronwall-type C^0 growth check of both matrices whose two
exponents freeze `constants.FLOW_EXPONENTS` (`cbar1` and `cR0`;
`calibration.sweep_flow_exponents` measures through it).

Integration uses an adaptive embedded Runge-Kutta pair (DOP853 from
`dop853`, through `_solve`, which refuses a tolerance that is not
positive); the Jacobian and the fundamental matrix are one variational
solve (`_variational`).  The tests check it against a fixed-step RK4
oracle (`tests/oracles.py`).
"""

from __future__ import annotations

import numpy as np

from . import constants
from .dop853 import solve_ivp

__all__ = ["VectorFieldSpec", "NumericalError", "IntegrationError",
           "NormBudgetError", "integrate_flow", "flow_jacobian",
           "fundamental_matrix", "gronwall_diagnostics"]


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


class VectorFieldSpec:
    """F(q,t) = omega + f(q,t) on T^n; f None for the free rotation.

    f and its spatial Jacobian are callables of (q, t).
    """

    def __init__(self, omega, f=None, jac_f=None):
        self.omega = np.atleast_1d(np.asarray(omega, dtype=float))
        self.dim = len(self.omega)
        self.f = f
        self.jac_f = jac_f

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
    atol = 1e-2 tol; a tol that is not positive (nan included) raises
    ValueError, a failed integration IntegrationError."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if t0 == t1:
        return y0.copy()
    sol = solve_ivp(fun, (t0, t1), y0, rtol=tol, atol=tol * 1e-2)
    if not sol.success:
        raise IntegrationError(f"integration failed on [{t0}, {t1}]: "
                               f"{sol.message}")
    return sol.y[:, -1]


def integrate_flow(F, q0, t0, t1, tol=1e-9):
    """psi^{t1}_{t0}(q0); torus components are left unreduced."""
    q0 = np.asarray(q0, dtype=float)
    single = q0.ndim == 1
    pts = np.atleast_2d(q0)

    def rhs(t, y):
        q = y.reshape(pts.shape)
        return F.eval(q, t).ravel()

    out = _solve(rhs, pts.ravel(), t0, t1, tol)
    out = out.reshape(pts.shape)
    return out[0] if single else out


def _variational(F, A, q0, t0, t1, tol):
    """M(t1) of q' = F(q, s), M' = A(q, s) M with q(t0) = q0, M(t0) = Id:
    one solve of [q, vec(M)]; A(q, s) takes a (1, d) point."""
    d = F.dim
    y0 = np.concatenate([np.asarray(q0, dtype=float), np.eye(d).ravel()])

    def rhs(s, y):
        q = y[None, :d]
        dM = A(q, s).reshape(d, d) @ y[d:].reshape(d, d)
        return np.concatenate([F.eval(q, s)[0], dM.ravel()])

    return _solve(rhs, y0, t0, t1, tol)[d:].reshape(d, d)


def flow_jacobian(F, q0, t0, t1, tol=1e-9):
    """d_q psi^{t1}_{t0}(q0) by the variational equation."""
    return _variational(F, F.jac, q0, t0, t1, tol)


def fundamental_matrix(g, F, q, t, tau, tol=1e-10):
    """R(q, t, tau) of the matrix system R' = -g(psi^s_1(q), s) R,
    R(tau) = Id; q is the characteristic label at time 1."""
    return _variational(F, lambda p, s: -np.asarray(g(p, s)),
                        integrate_flow(F, q, 1.0, tau, tol), tau, t, tol)


# DOP853 tolerance of the solves of gronwall_diagnostics
GRONWALL_TOL = 1e-10


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

    bound_psi = constants.FLOW_EXPONENTS["cbar1"] * mu
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
