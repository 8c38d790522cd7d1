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
transport_operator takes, each mode is solved with D + i theta I by
block forward and back substitution through its block LU factors,
cached per time grid and phases (see `_transport_factors`):
transport_operator maps the solution of an uncoupled mode with
theta != 0 back to z up to rounding.  That square system has no
condition at t_max, so it is the decaying solution only for large
|theta| t_max: for z = cos(2 pi q)/t^2 on 64 time nodes the error
|kappa - kappa_exact|_{0,1} is 6e-13 at theta t_max = 126 and 1.8e-1
at 0.38, with a small residual, and more nodes make it worse (ROADMAP
item 14).  The mean mode
(theta = 0) closes D with a two-term power-law tail model at the
horizon, integrated analytically to infinity, as the last row of its
own factored matrix; the solution reports an explicit tail bound from
the integrand majorant.  Each correction of the series solves for
minus the coupling of the last correction, formed on the time nodes
from its half spectrum, so every torus FFT of a solve runs on the time
grid.
"""

from __future__ import annotations

import numpy as np

from . import constants
from .flow import IntegrationError, NormBudgetError
from .grids import DT_ORDER, GridFn
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
    both are absent.  sigma must round to an order of the calibrated
    c_kappa and c_estimate tables; any other value, NaN included, is
    refused when the problem is built.
    """

    def __init__(self, omega, z, f=None, g=None, sigma=1.0):
        self.omega = np.atleast_1d(np.asarray(omega, dtype=float))
        self.z = z
        self.f = None if f is None or not f.values.any() else f
        self.g = None if g is None or not g.values.any() else g
        self.sigma = float(sigma)
        orders = sorted(constants.HOMOLOGICAL["c_kappa"].keys()
                        & constants.HOMOLOGICAL["c_estimate"].keys())
        if not (np.isfinite(self.sigma)
                and int(round(self.sigma)) in orders):
            raise ValueError(f"sigma must round to one of {orders}, the "
                             f"orders of the calibrated constants, got "
                             f"{sigma!r}")
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


class HomologicalSolution:
    def __init__(self, kappa, tail_bound, corrections, diagnostics):
        self.kappa = kappa
        self.tail_bound = tail_bound
        self.corrections = corrections
        self.diagnostics = diagnostics


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


# every dt_matrix stencil reaches at most DT_ORDER nodes from its row, so
# D + i theta I is block tridiagonal in BLOCK x BLOCK blocks
BLOCK = DT_ORDER


def _transport_factors(times, theta):
    """Block LU factors (Golub & Van Loan, Matrix Computations, 4.5) of
    each mode's operator A_m on the T time nodes, padded with identity
    rows to nb = ceil(T / BLOCK) blocks: read-only, built once per
    (grid, theta) with batched inversions of BLOCK x BLOCK blocks.

    theta != 0: A_m = D + i theta I, where D = times.dt_matrix() is the
    time derivative of transport_operator, so the solve inverts the
    residual's own operator and needs no boundary condition.
    theta = 0 (a closed mode): D maps constants to zero, so its last row
    gives way to kappa(t_max) = the tail condition above, whose weights
    on the last TAIL_NODES amplitudes of z the solve applies.

    Returns (inv, mult, upper, closed, tail): inv[k] (nb, M, b, b) the
    inverse of the Schur block S_k = A_kk - L_k A_(k-1)k, mult[k - 1]
    (nb - 1, M, b, b) the multiplier L_k = A_k(k-1) S_(k-1)^-1, upper
    (nb - 1, b, b) the blocks A_(k-1)k, which are D's for every mode,
    closed the indices of the theta = 0 modes and tail the weights of
    their last row.
    """
    def build():
        T, b = len(times), BLOCK
        nb = -(-T // b)
        D = np.eye(nb * b)
        D[:T, :T] = times.dt_matrix()
        blocks = D.reshape(nb, b, nb, b).swapaxes(1, 2)
        upper = blocks[range(nb - 1), range(1, nb)]
        closed = np.flatnonzero(theta == 0)
        last = (T - 1) % b
        shift = 1j * theta[:, None, None] * np.eye(b)
        inv = np.empty((nb, len(theta), b, b), dtype=complex)
        mult = np.empty((nb - 1, len(theta), b, b), dtype=complex)
        for k in range(nb):
            S = blocks[k, k] + shift
            if k:
                mult[k - 1] = blocks[k, k - 1] @ inv[k - 1]
                if k == nb - 1:     # a closed row has no lower block
                    mult[k - 1][closed, last] = 0.0
                S -= mult[k - 1] @ upper[k - 1]
            if k == nb - 1:         # and is the unit row of node T - 1
                S[closed, last] = np.eye(b)[last]
            inv[k] = np.linalg.inv(S)
        ts = times.points[-TAIL_NODES:]
        powers = np.array([TAIL_POWER, TAIL_POWER + 1])
        fit = np.linalg.pinv(ts[:, None] ** -powers)
        tail = -(ts[-1] ** (1 - powers) / (powers - 1)) @ fit
        return inv, mult, upper, closed, tail

    return times.derived(("transport", theta.tobytes()), build)


def _transport_solve(factors, c):
    """kappa's (T, M, C) amplitudes for z's (T, M, C) amplitudes c: the
    closed modes' last row takes the tail condition, then one block
    forward and one block back substitution of nb batched steps, on the
    amplitudes laid out (block, C, M, BLOCK), so that each step is one
    batched matrix-vector product per mode or, for the upper blocks of
    D, one product for all modes."""
    inv, mult, upper, closed, tail = factors
    nb, M, b, _ = inv.shape
    T, C = c.shape[0], c.shape[-1]
    y = np.zeros((nb * b, C, M), dtype=complex)
    y[:T] = c.transpose(0, 2, 1)
    y[T - 1, :, closed] = tail @ c[T - len(tail):, closed].swapaxes(0, 1)
    y = np.ascontiguousarray(y.reshape(nb, b, C, M).transpose(0, 2, 3, 1))
    for k in range(1, nb):
        y[k] -= (mult[k - 1] @ y[k - 1, ..., None])[..., 0]
    y[-1] = (inv[-1] @ y[-1, ..., None])[..., 0]
    for k in range(nb - 2, -1, -1):
        y[k] -= y[k + 1] @ upper[k].T
        y[k] = (inv[k] @ y[k, ..., None])[..., 0]
    kap = y.transpose(0, 3, 1, 2).reshape(nb * b, C, M)[:T]
    return kap.transpose(0, 2, 1)


def _spectral_solve(p, quad_tol):
    grid, times = p.grid, p.times
    factors = _transport_factors(times, _mode_phases(grid, p.omega))
    T = len(times)
    half = grid.torus_mesh()[0].shape

    def solve(values):          # real (T, *shape, C) -> kappa's (T, M, C)
        c = grid.torus_rfft(values)
        return _transport_solve(factors, c.reshape(T, -1, c.shape[-1]))

    def spectrum(coeffs):       # (T, M, C) -> (T, *half, C)
        return coeffs.reshape((T,) + half + coeffs.shape[-1:])

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
