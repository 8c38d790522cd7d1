"""Solver for the linearized transport equation

    d_q kappa (omega_bar + f) + d_t kappa + g kappa = z

on T^n x [1, inf) for its unique decaying solution.  `solve_he` solves
each Fourier mode on the time nodes with the residual's own discrete
operator, plus a perturbation series in (f, g); the tests check it
against a solve along the characteristics (`tests/oracles.py`).
`transport_operator` is the left-hand side itself; it and the series
form the coupling (d_q kappa) f + g kappa with one helper,
`_add_coupling`.

A mode of phase theta obeys d_t kappa + i theta kappa = z.  With d_t
the stencil matrix D of `TimeGrid.dt_matrix`, the one
transport_operator takes, each mode is one product with the cached
inverse of D + i theta I (see `_transport_inverse`): transport_operator
maps the solution of an uncoupled mode with theta != 0 back to z up to
rounding.  That square system has no condition at t_max, so it is the
decaying solution only for large |theta| t_max: for z = cos(2 pi q)/t^2
on 64 time nodes the error is 1.1e-9 at theta t_max = 126 and 2.2e-1 at
0.38, with a small residual, and more nodes make it worse (ROADMAP item
14).  The mean mode (theta = 0) closes D with a two-term power-law tail
model at the horizon, integrated analytically to infinity; the solution
reports an explicit tail bound from the integrand majorant.  Each
correction of the series solves for minus the coupling of the last
correction, formed on the time nodes from its half spectrum, so every
torus FFT of a solve runs on the time grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constants
from .flow import IntegrationError, NormBudgetError
from .grids import GridFn
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
        if z.components != z.grid.n:
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
                "n": self.grid.n,
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
    output element one by one, as in the component contractions of
    length d <= 2.  So the bytes are its, at a few whole-array operations
    per term instead of its loop over short rows.
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
# spectral route
# --------------------------------------------------------------------

def _mode_phases(grid, omega):
    """theta = sum_a omega_a 2 pi k_a for every mode of the half spectrum,
    flattened: each 2 pi i k_a is the derivative symbol of its axis, so a
    Nyquist frequency gets no phase, as d_q gives it none."""
    theta = sum(w * grid.torus_multiplier(np.eye(grid.n, dtype=int)[a]).imag
                for a, w in enumerate(omega))
    return theta.ravel()


# the mean mode (theta = 0) ends at kappa(t_max) = -int_(t_max)^inf of
# the least-squares fit c1 t^-TAIL_POWER + c2 t^-(TAIL_POWER + 1) of its
# amplitude on the last TAIL_NODES time nodes; an (f, g) solve takes at
# most MAX_CORRECTIONS perturbation-series corrections, and the series
# stops at the first correction of relative size SERIES_TOL or less
TAIL_POWER = 2
TAIL_NODES = 6
MAX_CORRECTIONS = 30
SERIES_TOL = 1e-10


def _transport_inverse(times, theta):
    """(M, T, T) matrices, one per mode phase theta_m, each mapping the
    mode's amplitudes on the T time nodes from z to kappa; read-only,
    built once per (grid, theta) with one inversion per distinct phase,
    copied into the slots of its modes (Nyquist modes repeat a phase).

    theta != 0: the inverse of D + i theta I, where D = times.dt_matrix()
    is the time derivative of transport_operator, so the solve inverts
    the residual's own operator and needs no boundary condition.
    theta = 0: D maps constants to zero, so its last row gives way to the
    tail condition above, linear in the last TAIL_NODES amplitudes.
    """
    def build():
        D = times.dt_matrix()
        T = len(times)
        ts = times.points[-TAIL_NODES:]
        powers = np.array([TAIL_POWER, TAIL_POWER + 1])
        fit = np.linalg.pinv(ts[:, None] ** -powers)
        tail = (ts[-1] ** (1 - powers) / (powers - 1)) @ fit
        mean, rhs = D.copy(), np.eye(T)
        mean[-1] = rhs[-1]
        rhs[-1] = 0.0
        rhs[-1, -len(ts):] = -tail
        inv = np.empty((len(theta), T, T), dtype=complex)
        # the first mode of each phase (np.unique would import numpy.ma)
        first = {}
        for m, th in enumerate(theta.tolist()):
            k = first.setdefault(th, m)
            inv[m] = inv[k] if k < m else \
                np.linalg.inv(D + 1j * th * np.eye(T)) if th \
                else np.linalg.solve(mean, rhs)
        return inv

    return times.derived(("transport", theta.tobytes()), build)


def _spectral_solve(p, quad_tol):
    grid, times = p.grid, p.times
    inv = _transport_inverse(times, _mode_phases(grid, p.omega))
    T = len(times)
    half = grid.torus_mesh()[0].shape

    def solve(values):          # real (T, *shape, C) -> kappa's (M, T, C)
        c = grid.torus_rfft(values)
        return inv @ c.reshape(T, -1, c.shape[-1]).transpose(1, 0, 2)

    def spectrum(coeffs):       # (M, T, C) -> (T, *half, C)
        return coeffs.transpose(1, 0, 2).reshape(
            (T,) + half + coeffs.shape[-1:])

    kap = solve(p.z.values)
    base_scale = np.abs(kap).max()
    n_corr = 0
    hist = []
    if p.f is not None or p.g is not None:
        def coupling(cur):      # (d_q kappa) f + g kappa
            spec = spectrum(cur)
            kappa = GridFn(grid, times, grid.torus_irfft(spec), spectrum=spec)
            return _add_coupling(np.zeros(p.z.values.shape), kappa, p.f, p.g)

        cur = kap
        for it in range(MAX_CORRECTIONS):
            corr = -solve(coupling(cur))
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
    kappa = GridFn(grid, times, grid.torus_irfft(spectrum(kap)))
    return kappa, n_corr, {"correction_history": hist}


# --------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------

def _tail_bound(p, T):
    """Integrand majorant |z|_{0,2} T^(e-1)/(1-e), e = cR0 mu, of the
    improper integral beyond T."""
    e = constants.FLOW_EXPONENTS["cR0"] * p.mu
    return float(weighted_norm(p.z, 0, 2) * T ** (e - 1.0) / (1.0 - e))


def solve_he(p, quad_tol=SERIES_TOL):
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
