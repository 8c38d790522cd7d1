"""Solver for the linearized transport equation

    d_q kappa (omega_bar + f) + d_t kappa + g kappa = z

on T^n x [1, inf) for its unique decaying solution.  `solve_he` takes
each Fourier mode by Filon quadrature of the free transport plus a
perturbation series in (f, g); the tests check it against a solve along
the characteristics (`tests/oracles.py`).  `transport_operator` is the
left-hand side itself; it and the series form the coupling
(d_q kappa) f + g kappa with one helper, `_add_coupling`.

The quadrature runs on a refinement of the time grid, reached by one
interpolation matrix W on the time axis.  W maps mode amplitudes: those
of z, and in each correction of the series those of the coupling of the
last correction, formed on the time nodes (a subset of the quad nodes)
from its half spectrum; the correction solves for minus the coupling.
So every torus FFT of a solve runs on the time grid.

Improper integrals are truncated at the grid horizon with a two-term
power-law tail model (integrated analytically to infinity) and an
explicit tail bound from the integrand majorant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import constants
from .flow import IntegrationError, NormBudgetError
from .grids import GridFn, _lagrange_weights
from .norms import weighted_norm

__all__ = ["HomologicalProblem", "HomologicalSolution", "solve_he",
           "transport_operator", "residual_he", "estimate_check"]


# --------------------------------------------------------------------
# problem / solution containers
# --------------------------------------------------------------------

class HomologicalProblem:
    """Data (omega, f, g, z, sigma) of the linear transport equation.

    f (d components), g (d*d components) and z (d components) are
    GridFns on a common grid; an f or g whose values are all zero counts
    as absent (None), so the solve takes no coupling correction for it.
    mu is always measured: the max of |f|_{1,1} and |g|_{1,1}, 0 when
    both are absent.
    """

    def __init__(self, omega, z, f=None, g=None, sigma=1.0):
        self.omega = np.atleast_1d(np.asarray(omega, dtype=float))
        self.z = z
        self.f = None if f is None or not f.values.any() else f
        self.g = None if g is None or not g.values.any() else g
        self.sigma = float(sigma)
        self.grid = z.grid
        self.times = z.times
        self.dim = z.grid.n
        if z.components != self.dim:
            raise ValueError("z must have n components")
        self.mu = float(max((weighted_norm(h, 1, 1)
                             for h in (self.f, self.g) if h is not None),
                            default=0.0))

    def validate(self):
        ck = constants.c_kappa(self.sigma)
        if self.mu >= 1.0 / ck:
            raise NormBudgetError("mu", self.mu, 1.0 / ck)

    def manifest(self):
        return {"mu": self.mu, "sigma": self.sigma,
                "dim": self.dim, "n": self.grid.n,
                "omega": self.omega.tolist()}


@dataclass
class HomologicalSolution:
    kappa: GridFn
    tail_bound: float
    corrections: int = 0
    diagnostics: dict = field(default_factory=dict)


# --------------------------------------------------------------------
# contractions over short axes
# --------------------------------------------------------------------

def _contract(products):
    """Sum of products of broadcast array slices, an np.einsum
    contraction spelled out: each item is a tuple of factors, multiplied
    left to right, and the products are added in order onto +0.0, so an
    exact zero sum is +0.0, never -0.0.

    np.einsum does the same arithmetic where it adds the terms of each
    output element one by one: in the component contractions of length
    d <= 2 and in the moment sum of the Filon weights.  So the bytes are
    its, at a few whole-array operations per term instead of its loop
    over short rows.
    """
    acc = None
    for factors in products:
        term = factors[0]
        for factor in factors[1:]:
            term = term * factor
        if acc is None:
            acc = term + 0.0
        else:
            acc += term
    return acc


# --------------------------------------------------------------------
# Filon machinery (oscillatory quadrature with explicit phase)
# --------------------------------------------------------------------

def _osc_moments(h, theta, mmax):
    """mu_m = int_0^h u^m e^(i theta u) du for m = 0..mmax.

    theta is an array; a Taylor branch handles |theta h| < 0.7 where the
    recursion cancels.
    """
    theta = np.asarray(theta, dtype=float)
    x = theta * h
    small = np.abs(x) < 0.7
    out = np.empty((mmax + 1,) + theta.shape, dtype=complex)
    # series branch: each term (i theta h)^j / j! once, added to every
    # moment's sum
    if np.any(small):
        xs = 1j * theta[small]
        accs = [np.zeros(xs.shape, dtype=complex) for _ in range(mmax + 1)]
        term = np.ones(xs.shape, dtype=complex)
        for j in range(20):
            for m in range(mmax + 1):
                accs[m] = accs[m] + term * h ** (m + 1) / (m + j + 1)
            term = term * xs * (h / (j + 1))
        for m in range(mmax + 1):
            out[m][small] = accs[m]
    if np.any(~small):
        th = theta[~small]
        eix = np.exp(1j * th * h)
        mu = (eix - 1.0) / (1j * th)
        out[0][~small] = mu
        for m in range(1, mmax + 1):
            mu = (h ** m * eix - m * mu) / (1j * th)
            out[m][~small] = mu
    return out


# the E_p continued fraction and series stop once the next term changes
# the value by less than EXPN_EPS relative; for finite z with Re z >= 0
# that takes at most about 170 terms (the fraction at |z| = 1), so
# EXPN_MAX_TERMS only ends the loop on a non-finite z, which gives nan
EXPN_EPS = 1e-15
EXPN_MAX_TERMS = 1000


def _expn_complex(p, z):
    """Generalized exponential integral E_p(z) = int_1^inf e^(-z s) s^-p ds,
    p >= 2, for complex z with Re z >= 0.

    |z| >= 1: the continued fraction (Abramowitz & Stegun 5.1.22) in its
    even form, evaluated by the modified Lentz method (Numerical Recipes,
    3rd ed., sec. 6.3); 0 < |z| < 1: the power series (A&S 5.1.12) with
    psi(p) = -euler_gamma + sum_(k<p) 1/k; z = 0 (the non-oscillatory
    mode): E_p(0) = 1/(p-1).  Neither branch recurs in p; both are within
    about 1.2e-14 relative of the exact value, the worst being the
    fraction near |z| = 1.
    """
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, 1.0 / (p - 1), dtype=complex)
    far = np.abs(z) >= 1.0
    near = ~far & (z != 0)
    x = z[far]
    b = x + p
    c = np.full_like(x, 1e300)          # Lentz's C_0, "infinity"
    d = 1.0 / b
    h = d
    for i in range(1, EXPN_MAX_TERMS):
        a = -i * (p - 1 + i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        if np.all(np.abs(delta - 1.0) <= EXPN_EPS):
            break
    out[far] = h * np.exp(-x)
    x = z[near]
    psi = -np.euler_gamma + sum(1.0 / k for k in range(1, p))
    term = np.ones_like(x)              # (-x)^i / i!
    acc = out[near]                     # the i = 0 term 1/(p-1)
    for i in range(1, EXPN_MAX_TERMS):
        term = term * (-x / i)
        if i == p - 1:
            delta = term * (psi - np.log(x))
        else:
            delta = -term / (i - p + 1)
        acc = acc + delta
        if np.all(np.abs(delta) <= EXPN_EPS * np.abs(acc)):
            break
    out[near] = acc
    return out


# --------------------------------------------------------------------
# spectral route
# --------------------------------------------------------------------

def _mode_phases(grid, omega):
    """theta = sum_a omega_a 2 pi k_a for every mode of the half spectrum,
    flattened: each 2 pi i k_a is the derivative symbol of its axis, so a
    Nyquist frequency gets no phase, as d_q gives it none."""
    theta = sum(w * grid.torus_multiplier(np.eye(grid.n, dtype=int)[a]).imag
                for a, w in enumerate(omega))
    return theta.ravel()


# quadrature nodes per time-grid interval of the spectral route, the
# degree of the log-time Lagrange interpolation onto them and the most
# perturbation-series corrections one (f, g) solve may take
TIME_REFINE = 6
REFINE_DEGREE = 8
MAX_CORRECTIONS = 30


def _time_refine_matrix(times):
    """Quad grid (refined geometric) and interpolation weights from the
    time grid, exact on the original nodes; built once per grid."""
    def build():
        T = len(times)
        gq = times.gamma ** (1.0 / TIME_REFINE)
        P = (T - 1) * TIME_REFINE + 1
        tau = times.points[0] * gq ** np.arange(P)
        W = np.zeros((P, T))
        width = min(REFINE_DEGREE + 1, T)
        rows = np.arange(P)
        on = rows % TIME_REFINE == 0
        W[rows[on], rows[on] // TIME_REFINE] = 1.0
        # each off-node row: the width nodes around its interval
        off = rows[~on]
        lo = np.clip(off // TIME_REFINE - width // 2 + 1, 0, T - width)
        cols = lo[:, None] + np.arange(width)
        W[off[:, None], cols] = _lagrange_weights(times.log_points[cols],
                                                  np.log(tau[off]))
        return tau, W

    return times.derived(("refine", TIME_REFINE, REFINE_DEGREE), build)


# Filon panels interpolate the amplitude by a polynomial of FILON_DEGREE
# on FILON_DEGREE + 1 quad nodes; beyond the horizon the amplitude follows its
# least-squares fit c1 t^-TAIL_POWER + c2 t^-(TAIL_POWER + 1) on the last
# TAIL_NODES quad nodes, integrated analytically
FILON_DEGREE = 4
TAIL_POWER = 2
TAIL_NODES = 6


class _TransportPlan(NamedTuple):
    weights: np.ndarray     # (P-1, FILON_DEGREE+1, M) per-panel weights
    stencil: np.ndarray     # (P-1, FILON_DEGREE+1) quad node of each weight
    tail: np.ndarray        # (TAIL_NODES, M) last nodes -> tail integral
    phase: np.ndarray       # (P, M) -e^(-i theta tau)


def _transport_plan(times, theta):
    """Everything of the free transport solve that depends only on the
    quad nodes tau of `times` and the mode phases theta; read-only and
    built once per (grid, theta).

    Panel i = [tau_i, tau_(i+1)] interpolates the amplitude on the quad
    nodes stencil[i] by a polynomial in u = s/tau_i - 1, so that
      int_panel amp(s) e^(i theta s) ds
          = sum_k weights[i, k] amp[stencil[i, k]],
    weights[i, k] = tau_i e^(i theta tau_i) sum_m L_i[m, k] mu_m(theta tau_i)
    with L_i the Lagrange map from stencil values to coefficients and mu_m
    the oscillatory moments (Filon weights are moments against a fixed
    oscillator: Iserles & Norsett, Proc. R. Soc. A 461 (2005) 1383-1399).
    """
    def build():
        tau, _ = _time_refine_matrix(times)
        npts = FILON_DEGREE + 1
        gamma = tau[1] / tau[0]
        panels = np.arange(len(tau) - 1)
        starts = np.clip(panels - FILON_DEGREE // 2, 0, len(tau) - npts)
        offs = gamma ** (np.arange(npts) - (panels - starts)[:, None]) - 1.0
        lagrange = np.linalg.inv(offs[..., None] ** np.arange(npts))
        theta_tau = np.multiply.outer(tau[:-1], theta)       # (P-1, M)
        mom = _osc_moments(gamma - 1.0, theta_tau, FILON_DEGREE)
        weights = _contract((lagrange[:, m, :, None], mom[m][:, None])
                            for m in range(npts)) \
            * (tau[:-1, None] * np.exp(1j * theta_tau))[:, None]
        # least-squares projector onto the two tail powers, times their
        # integrals int_T^inf s^-p e^(i theta s) ds = E_p(-i theta T) T^(1-p)
        ts = tau[-TAIL_NODES:]
        fit = np.linalg.pinv(np.stack([ts ** -TAIL_POWER,
                                       ts ** -(TAIL_POWER + 1)], axis=1))
        z = -1j * theta * tau[-1] + 0j
        ints = np.stack([_expn_complex(p, z) * tau[-1] ** (1 - p)
                         for p in (TAIL_POWER, TAIL_POWER + 1)])
        phase = -np.exp(-1j * np.multiply.outer(tau, theta))
        return _TransportPlan(weights, starts[:, None] + np.arange(npts),
                              fit.T @ ints, phase)

    return times.derived(("transport", TIME_REFINE, theta.tobytes()), build)


def _free_transport_coeffs(plan, rhs):
    """Decaying solution kappa = -e^(-i theta t) int_t^inf rhs(s)
    e^(i theta s) ds of (d_q kappa) omega + d_t kappa = rhs, in coefficient
    space on the quad grid; rhs and kappa have shape (P, M, C).

    The interior panels read their stencils as windows of rhs, without
    a copy; only the clipped panels at the two ends gather theirs.
    """
    panels = np.empty((len(rhs) - 1,) + rhs.shape[1:], dtype=complex)
    lo = FILON_DEGREE // 2
    inner = slice(lo, lo + len(rhs) - FILON_DEGREE)
    windows = np.lib.stride_tricks.sliding_window_view(
        rhs, FILON_DEGREE + 1, axis=0)      # (P - FILON_DEGREE, M, C, k)
    np.einsum("pkm,pmck->pmc", plan.weights[inner], windows,
              out=panels[inner])
    ends = np.r_[:inner.start, inner.stop:len(panels)]
    panels[ends] = np.einsum("pkm,pkmc->pmc", plan.weights[ends],
                             rhs[plan.stencil[ends]])
    J = np.zeros_like(rhs)
    J[:-1] = np.cumsum(panels[::-1], axis=0)[::-1]
    tail = np.einsum("km,kmc->mc", plan.tail, rhs[-TAIL_NODES:])
    return plan.phase[..., None] * (J + tail)


def _spectral_solve(p, quad_tol):
    grid, times = p.grid, p.times
    d = p.dim
    plan = _transport_plan(times, _mode_phases(grid, p.omega))
    _, W = _time_refine_matrix(times)
    P = W.shape[0]

    half = grid.torus_mesh()[0].shape

    def modes(values):          # real (L, *shape, C) -> (L, M, C)
        return grid.torus_rfft(values).reshape(len(values), -1,
                                               values.shape[-1])

    def samples(coeffs):        # (L, M, C) -> real (L, *shape, C)
        return grid.torus_irfft(coeffs.reshape(
            (len(coeffs),) + half + coeffs.shape[-1:]))

    def to_quad(values):        # (T, *shape, C) -> (P, M, C), one BLAS product
        c = modes(values)
        return (W @ c.reshape(len(c), -1)).reshape((P,) + c.shape[1:])

    kap = _free_transport_coeffs(plan, to_quad(p.z.values))
    base_scale = np.abs(kap).max()
    n_corr = 0
    hist = []
    if p.f is not None or p.g is not None:
        def coupling(cur):      # (d_q kappa) f + g kappa on the time grid
            # the original nodes are a subset of the quad grid
            spec = cur[::TIME_REFINE].reshape((len(times),) + half + (d,))
            kappa = GridFn(grid, times, grid.torus_irfft(spec), spectrum=spec)
            return _add_coupling(np.zeros(p.z.values.shape), kappa, p.f, p.g)

        cur = kap
        for it in range(MAX_CORRECTIONS):
            corr = -_free_transport_coeffs(plan, to_quad(coupling(cur)))
            kap = kap + corr
            cur = corr
            n_corr = it + 1
            size = np.abs(corr).max()
            hist.append(size)
            if size <= quad_tol * max(base_scale, 1e-300):
                break
            if len(hist) >= 3 and hist[-1] > hist[-2] > hist[-3] \
                    and hist[-1] > base_scale:
                raise IntegrationError(
                    "perturbation series for (f,g) coupling diverges; "
                    f"correction sizes {hist[-3:]}")
    # restrict to the original nodes (they are a subset of the quad grid)
    kappa = GridFn(grid, times, samples(kap[::TIME_REFINE]))
    return kappa, n_corr, {"correction_history": hist}


# --------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------

def _tail_bound(p, T):
    """Integrand majorant |z|_{0,2} T^(e-1)/(1-e), e = cR0 mu, of the
    improper integral beyond T."""
    e = constants.FLOW_EXPONENTS["cR0"] * p.mu
    return float(weighted_norm(p.z, 0, 2) * T ** (e - 1.0) / (1.0 - e))


def solve_he(p, quad_tol=1e-9):
    """Solve the transport problem for the decaying solution kappa;
    tail_bound is the integrand majorant beyond t_max."""
    p.validate()
    kappa, n_corr, diagnostics = _spectral_solve(p, quad_tol)
    return HomologicalSolution(kappa=kappa,
                               tail_bound=_tail_bound(p, p.times.points[-1]),
                               corrections=n_corr, diagnostics=diagnostics)


def _add_coupling(out, kappa, f, g):
    """Add (d_q kappa) f, then g kappa, to the (T, *S, d) array out in
    place and return it; f is a GridFn with d components and g one with
    d*d, None for zero."""
    dims = range(kappa.grid.n)
    if f is not None:
        jac = kappa.jacobian_q()                  # (T,*S,d,d)
        fv = f.values
        out += _contract((jac[..., a], fv[..., a, None]) for a in dims)
    if g is not None:
        gv = g.values.reshape(out.shape + (len(dims),))
        kv = kappa.values
        out += _contract((gv[..., j], kv[..., j, None]) for j in dims)
    return out


def transport_operator(kappa, omega, f=None, g=None):
    """(grad kappa) Omega_bar + (d_q kappa) f + g kappa, where
    (grad kappa) Omega_bar = (d_q kappa) omega_bar + d_t kappa; f is a
    GridFn with d components and g one with d*d, None for zero."""
    jac = kappa.jacobian_q()                      # (T,*S,d,d)
    out = _contract((jac[..., j], omega[j]) for j in range(kappa.grid.n)) \
        + kappa.dt().values
    return GridFn(kappa.grid, kappa.times, _add_coupling(out, kappa, f, g))


def residual_he(sol, p):
    """|transport_operator(kappa) - z|_{0,2}, the residual of (HE) on the
    grid.

    d_q is spectral, d_t uses high-order stencils on the log-uniform
    grid; this is independent of the transport solve.
    """
    resf = transport_operator(sol.kappa, p.omega, p.f, p.g) - p.z
    return weighted_norm(resf, 0, 2)


def estimate_check(sol, p):
    """Measured |kappa|_{sigma,1} against the calibrated solution bound."""
    sigma = p.sigma
    ck = constants.c_kappa(sigma)
    ce = constants.c_estimate(sigma)
    kn = weighted_norm(sol.kappa, sigma, 1)
    z_s2 = weighted_norm(p.z, sigma, 2)
    z_12 = weighted_norm(p.z, 1, 2)
    fg = 0.0
    if p.f is not None:
        fg += weighted_norm(p.f, sigma, 1)
    if p.g is not None:
        fg += weighted_norm(p.g, sigma, 1)
    denom = 1.0 - ck * p.mu
    bound = ce * z_s2 / denom + ce * fg * z_12 / denom ** 2
    return {
        "sigma": sigma, "measured": kn, "bound": bound,
        "pass": kn <= bound + 1e-12,
        "c_kappa": ck, "c_estimate": ce, "mu": p.mu,
        "constants_source": "calibrated",
    }
