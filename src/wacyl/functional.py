"""The cylinder functional, its linearization and right inverse.

For a normal-form Hamiltonian  omega.p + a(q,t) + b(q,t).p + M0(q,t).p^2
the residual field of a candidate section p = v(q,t) is

    F(v) = (grad v) Omega_bar + (d_q v)(b + mbar v)
           + d_q a + (d_q b) v + (d_q M0) . v^2

with (grad v) Omega_bar = (d_q v) omega_bar + d_t v and
mbar = int_0^1 d^2_p H(q, tau v, t) dtau = 2 M0.  F(v) = 0 makes the
graph of v an invariant cylinder transported by omega_bar + Gamma,
Gamma = b + mbar v.  Nothing here integrates an ODE: the conjugacy
check of a section against the phase-space flow is a test oracle.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import constants
from .flow import NormBudgetError, NumericalError
from .grids import GridFn
from .homological import SERIES_TOL, HomologicalProblem, _contract, \
    solve_he, transport_operator
from .norms import weighted_norm

__all__ = ["HamiltonianSpec", "DomainError", "eval_F", "linearize",
           "right_inverse", "gamma_from_v", "v_norm"]


# the constant C of the solvability budget DELTA + C UPSILON zeta, and
# the size zeta that right_inverse, choose_schedule and iterate default to
C_GEOM = 2.0
ZETA = 0.05
# the budgets of the solvability gate DELTA + C UPSILON zeta.  DELTA
# is the paper's bound |b0|_{2,1} < DELTA on a fixed part b0 of b; every
# problem built here has b0 = 0, so DELTA enters the gate only.  UPSILON
# bounds the kinetic form: |d^2_p H|_{s+1,0} = |2 M0|_{s+1,0} <= UPSILON
DELTA = 0.01
UPSILON = 1.0
# the order s of that kinetic budget
SPEC_S = 8.0
# the momentum ball every candidate section stays in
BALL_RADIUS = 0.5


class DomainError(NumericalError):
    """A candidate section left the momentum ball of the Hamiltonian."""


class HamiltonianSpec:
    """Normal-form data omega.p + a + b.p + M0.p^2, with M0 the
    p-independent kinetic form, a GridFn of d*d components."""

    def __init__(self, omega, a, b, M0):
        self.omega = np.atleast_1d(np.asarray(omega, dtype=float))
        self.a = a
        self.b = b
        self.M0 = M0
        self.grid = a.grid
        self.times = a.times
        self.d = a.grid.n
        if len(self.omega) != a.grid.n:
            raise ValueError("omega length must equal torus dimension")

    @cached_property
    def mbar(self):
        """mbar = 2 M0 as (..., d, d) values, the same for every section;
        built once, read-only."""
        out = 2.0 * self.M0.values
        out.flags.writeable = False
        return out.reshape(out.shape[:-1] + (self.d, self.d))

    @cached_property
    def dq_m0(self):
        """d_q M0 as (..., i, j, a) values, d_{q_a} M0_ij; None when M0
        does not depend on q."""
        jac = self.M0.jacobian_q()
        if not jac.any():
            return None
        return jac.reshape(jac.shape[:-2] + (self.d,) * 3)

    @cached_property
    def db(self):
        """d_q b as (..., j, a) values, d_{q_a} b_j; None when b is
        identically zero."""
        return self.b.jacobian_q() if self.b.values.any() else None

    def with_data(self, a, b):
        """The same normal form with the data (a, b) replaced."""
        return HamiltonianSpec(self.omega, a, b, self.M0)

    def manifest(self):
        return {
            "n": self.grid.n,
            "omega": self.omega.tolist(),
            "delta": DELTA, "upsilon": UPSILON,
            "grid": list(self.grid.shape),
            "time_points": len(self.times),
            "t_max": float(self.times.points[-1]),
            "norm_a": a_norm(self.a, 1.0),
            "norm_b": weighted_norm(self.b, 1, 1),
            "norm_m": float(np.abs(self.M0.values).max()),
        }


# --------------------------------------------------------------------
# norms of the Banach scales
# --------------------------------------------------------------------

def a_norm(a, sigma):
    """|a|_sigma = |a|_{sigma+1,0} + |d_q a|_{sigma,2}."""
    return weighted_norm(a, sigma + 1, 0) \
        + weighted_norm(a.gradient_field(), sigma, 2)


def v_norm(v, omega, sigma):
    """|v|_sigma = max(|v|_{sigma+1,1}, |(grad v) Omega_bar|_{sigma,2}),
    with (grad v) Omega_bar = (d_q v) omega_bar + d_t v."""
    return max(weighted_norm(v, sigma + 1, 1),
               weighted_norm(transport_operator(v, omega), sigma, 2))


# --------------------------------------------------------------------
# the functional and its derivative data
# --------------------------------------------------------------------

def _check_ball(H, v):
    r = np.sqrt((v.values ** 2).sum(axis=-1))
    worst = tuple(int(i) for i in np.unravel_index(np.argmax(r), r.shape))
    if r[worst] > BALL_RADIUS:
        raise DomainError(
            f"candidate leaves the momentum ball: |v| = {r[worst]:.3e} > "
            f"{BALL_RADIUS} at grid node {worst}")


# The sums below run over the component axes, each term one broadcast
# product of component slices (homological._contract); the comments
# give them in index notation, summed over repeated indices.

def gamma_from_v(H, v):
    """The transport field Gamma = b + mbar v of the section v."""
    # (mbar v)_i = mbar_ij v_j
    return GridFn(H.grid, H.times, H.b.values + _contract(
        (H.mbar[..., j], v.values[..., j, None]) for j in range(H.d)))


def _coefficients(H, v):
    """What eval_F and linearize share at v: the ball check, and
    Gamma = b + mbar v, their transport coefficient f.  Their
    v-independent coefficients H.db and H.dq_m0 are None when they
    vanish; a term whose coefficient is None adds +0.0 to a sum that is
    never -0.0, so skipping it changes no byte."""
    _check_ball(H, v)
    return gamma_from_v(H, v)


def eval_F(H, v):
    """Residual field of the candidate v; the solver's objective is its
    |.|_{0,2} norm."""
    vv = v.values
    dims = range(H.d)
    # (grad v) Omega_bar + (d_q v) Gamma + d_q a
    out = transport_operator(v, H.omega, _coefficients(H, v)).values \
        + H.a.jacobian_q()[..., 0, :]
    if H.db is not None:
        # (d_q b)_ja v_j
        out += _contract((H.db[..., j, :], vv[..., j, None]) for j in dims)
    if H.dq_m0 is not None:
        # (d_q M0)_ija v_i v_j
        out += _contract((H.dq_m0[..., i, j, :], vv[..., i, None],
                          vv[..., j, None]) for i in dims for j in dims)
    return GridFn(H.grid, H.times, out)


def linearize(H, v):
    """Transport coefficient f and zeroth-order coefficient g of D_v F."""
    f = _coefficients(H, v)
    jac_v = v.jacobian_q()
    d = H.d
    vv = v.values
    dims = range(d)
    # (d_q v)_ia mbar_ak
    g = _contract((jac_v[..., :, a, None], H.mbar[..., None, a, :])
                  for a in dims)
    if H.db is not None:
        g = np.swapaxes(H.db, -1, -2) + g         # g_{aj} = d_{q_a} b_j
    if H.dq_m0 is not None:
        # 2 (d_q M0) v:  2 d_{q_a} M0_ij v_i
        g += 2.0 * _contract((np.swapaxes(H.dq_m0[..., i, :, :], -1, -2),
                              vv[..., i, None, None]) for i in dims)
    gf = GridFn(H.grid, H.times, g.reshape(vv.shape[:-1] + (d * d,)))
    return f, gf


def mu_budget(zeta):
    """The solvability gate DELTA + C UPSILON zeta < 1/c_kappa(1)."""
    mu_max = DELTA + C_GEOM * UPSILON * zeta
    gate = 1.0 / constants.c_kappa(1.0)
    return mu_max, gate


def right_inverse(H, v, z, zeta=ZETA, quad_tol=SERIES_TOL):
    """Solve D_v F(v) vhat = z through the transport solver; returns its
    HomologicalSolution, whose kappa is vhat.

    Refuses when the measured |f|_{1,1}, |g|_{1,1} exceed the
    delta + C Upsilon zeta budget, zeta = ZETA unless given, or that
    budget reaches 1/c_kappa.
    """
    f, g = linearize(H, v)
    prob = HomologicalProblem(omega=H.omega, z=z, f=f, g=g)
    mu_max, gate = mu_budget(zeta)
    if mu_max >= gate:
        raise NormBudgetError("delta + C Upsilon zeta", mu_max, gate)
    if prob.mu > mu_max * (1 + 1e-9):
        raise NormBudgetError("max(|f|_{1,1}, |g|_{1,1})", prob.mu, mu_max)
    return solve_he(prob, quad_tol=quad_tol)
