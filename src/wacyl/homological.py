"""Solver for the linearized transport equation

    d_q kappa (omega_bar + f) + d_t kappa + g kappa = z

by integration along characteristics, selecting the unique decaying
solution.  Two routes are provided:

* "spectral": per-Fourier-mode Filon quadrature of the free transport
  plus a perturbation series in (f, g).  Torus-only, fast; the default.
* "characteristics": direct ODE integration of the flow, the adjoint
  fundamental matrix and the accumulated integral per grid node.  Slow
  but assumption-free; retained as the cross-check route.

Improper integrals are truncated at the grid horizon with a two-term
power-law tail model (integrated analytically to infinity) and an
explicit tail bound from the integrand majorant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import exp1

from . import constants
from .flow import IntegrationError, NormBudgetError
from .grids import GridFn, _lagrange_weights
from .norms import weighted_norm

__all__ = ["HomologicalProblem", "HomologicalSolution", "solve_he",
           "residual_he", "estimate_check"]


# --------------------------------------------------------------------
# problem / solution containers
# --------------------------------------------------------------------

class HomologicalProblem:
    """Data (omega, f, g, z, mu, sigma) of the linear transport equation.

    f (d components), g (d*d components) and z (d components) are
    GridFns on a common grid; analytic callables may be attached for
    higher-accuracy integration.  mu defaults to the measured max of
    |f|_{1,1} and |g|_{1,1}.
    """

    def __init__(self, omega, z, f=None, g=None, mu=None, sigma=1.0,
                 z_callable=None, f_callable=None, g_callable=None):
        self.omega = np.atleast_1d(np.asarray(omega, dtype=float))
        self.z = z
        self.f = f
        self.g = g
        self.sigma = float(sigma)
        self.z_callable = z_callable
        self.f_callable = f_callable
        self.g_callable = g_callable
        self.grid = z.grid
        self.times = z.times
        self.dim = z.grid.dim
        if z.components != self.dim:
            raise ValueError("z must have n+m components")
        if mu is None:
            mu = 0.0
            if f is not None:
                mu = max(mu, weighted_norm(f, 1, 1).value)
            if g is not None:
                mu = max(mu, weighted_norm(g, 1, 1).value)
        self.mu = float(mu)

    def validate(self):
        ck = constants.c_kappa(self.sigma)
        if self.mu >= 1.0 / ck:
            raise NormBudgetError("mu", self.mu, 1.0 / ck)
        for name, gf in (("|f|_{1,1}", self.f), ("|g|_{1,1}", self.g)):
            if gf is not None:
                v = weighted_norm(gf, 1, 1).value
                if v > self.mu * (1 + 1e-9):
                    raise NormBudgetError(name, v, self.mu)

    def manifest(self):
        return {"mu": self.mu, "sigma": self.sigma,
                "dim": self.dim, "n": self.grid.n, "m": self.grid.m,
                "omega": self.omega.tolist()}


@dataclass
class HomologicalSolution:
    kappa: GridFn
    tail_bound: float
    residual_norm: float = None
    method: str = "spectral"
    corrections: int = 0
    diagnostics: dict = field(default_factory=dict)


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
    # series branch
    js = np.arange(20)
    if np.any(small):
        xs = 1j * theta[small]
        for m in range(mmax + 1):
            acc = np.zeros(xs.shape, dtype=complex)
            term = np.ones(xs.shape, dtype=complex)   # (i theta h)^j / j!
            for j in js:
                acc = acc + term * h ** (m + 1) / (m + j + 1)
                term = term * xs * (h / (j + 1))
            out[m][small] = acc
    if np.any(~small):
        th = theta[~small]
        eix = np.exp(1j * th * h)
        mu = (eix - 1.0) / (1j * th)
        out[0][~small] = mu
        for m in range(1, mmax + 1):
            mu = (h ** m * eix - m * mu) / (1j * th)
            out[m][~small] = mu
    return out


def _lagrange_matrix(offsets):
    """Map from values at `offsets` to polynomial coefficients."""
    V = np.vander(np.asarray(offsets, dtype=float), increasing=True)
    return np.linalg.inv(V)


def _filon_cumulative(tau, theta, amp, degree=4):
    """J_i = int_{tau_i}^{tau_end} amp(s) e^(i theta s) ds for every node.

    tau must be geometric (log-uniform); amp has shape (P, M, C) with P
    nodes, M modes (theta per mode) and C components.
    """
    P = len(tau)
    npts = degree + 1
    gamma = tau[1] / tau[0]
    # panel i covers [tau_i, tau_{i+1}] with stencil start s_i
    starts = np.clip(np.arange(P - 1) - degree // 2, 0, P - npts)
    rel = np.arange(P - 1) - starts            # panel position in stencil
    uniq = np.unique(rel)
    h_scaled = gamma - 1.0
    panel_int = np.zeros((P - 1,) + amp.shape[1:], dtype=complex)
    theta_tau = np.multiply.outer(tau[:-1], theta)  # (P-1, M)
    for r in uniq:
        mask = rel == r
        offs = gamma ** (np.arange(npts) - r) - 1.0
        Lmat = _lagrange_matrix(offs)
        idx = starts[mask]
        # stencil values: (npanels, npts, M, C)
        vals = amp[idx[:, None] + np.arange(npts)[None, :]]
        coef = np.einsum("cm,pm...->pc...", Lmat, vals)
        mom = _osc_moments(h_scaled, theta_tau[mask], degree)  # (deg+1, np, M)
        # d tau = tau_i d(u/tau_i): sum_m coef_m tau_i mu_m(h_scaled)
        acc = np.zeros_like(panel_int[mask])
        w = tau[:-1][mask][:, None]
        for mdeg in range(npts):
            acc = acc + coef[:, mdeg] * (w * mom[mdeg])[
                (...,) + (None,) * (amp.ndim - 2)]
        phase = np.exp(1j * theta_tau[mask])
        panel_int[mask] = acc * phase[(...,) + (None,) * (amp.ndim - 2)]
    J = np.zeros((P,) + amp.shape[1:], dtype=complex)
    J[:-1] = np.cumsum(panel_int[::-1], axis=0)[::-1]
    return J


def _expn_complex(p, z):
    """Generalized exponential integral E_p(z) for complex z, Re z >= 0.

    E_1 comes from scipy; higher orders by the downward-stable
    recurrence.  z = 0 (non-oscillatory mode) uses E_p(0) = 1/(p-1).
    """
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    zs = np.where(zero, 1.0, z)
    E = exp1(zs)
    if p == 1:
        return np.where(zero, np.inf, E)
    for k in range(1, p):
        E = (np.exp(-zs) - zs * E) / k
    return np.where(zero, 1.0 / (p - 1), E)


def _power_tail_coeffs(tau, amp, p_lead, n_fit=6):
    """Least-squares fit amp(t) ~ c1 t^-p + c2 t^-(p+1) on the last nodes."""
    ts = tau[-n_fit:]
    basis = np.stack([ts ** (-p_lead), ts ** (-(p_lead + 1))], axis=1)
    sol, *_ = np.linalg.lstsq(basis, amp[-n_fit:].reshape(n_fit, -1),
                              rcond=None)
    return sol.reshape((2,) + amp.shape[1:])


def _power_tail_integral(T, theta, coeffs, p_lead):
    """int_T^inf (c1 s^-p + c2 s^-(p+1)) e^(i theta s) ds."""
    z = -1j * np.asarray(theta, dtype=float) * T + 0j
    e_p = _expn_complex(p_lead, z) * T ** (1 - p_lead)
    e_p1 = _expn_complex(p_lead + 1, z) * T ** (-p_lead)
    pad = (...,) + (None,) * (coeffs.ndim - 2)
    return coeffs[0] * e_p[pad] + coeffs[1] * e_p1[pad]


# --------------------------------------------------------------------
# spectral route
# --------------------------------------------------------------------

def _mode_phases(grid, omega):
    """2 pi k . omega for every grid mode, flattened."""
    theta = 2 * np.pi * sum(w * k for w, k in zip(omega, grid.torus_mesh()))
    return theta.ravel()


# quadrature nodes per time-grid interval of the spectral route
TIME_REFINE = 6


def _time_refine_matrix(times, refine, degree=8):
    """Quad grid (refined geometric) and interpolation weights from the
    time grid, exact on the original nodes; built once per grid."""
    def build():
        T = len(times)
        gq = times.gamma ** (1.0 / refine)
        P = (T - 1) * refine + 1
        tau = times.points[0] * gq ** np.arange(P)
        logs = times.log_points
        W = np.zeros((P, T))
        width = min(degree + 1, T)
        lq = np.log(tau)
        for i in range(P):
            if i % refine == 0:
                W[i, i // refine] = 1.0
                continue
            j = i // refine
            lo = min(max(j - width // 2 + 1, 0), T - width)
            W[i, lo:lo + width] = _lagrange_weights(logs[lo:lo + width],
                                                    lq[i])
        return tau, W

    return times.derived(("refine", refine, degree), build)


def _grid_coeffs(f):
    axes = tuple(range(1, 1 + f.grid.n))
    scale = f.grid.torus_points ** f.grid.n
    c = np.fft.fftn(f.values, axes=axes) / scale
    return c.reshape(len(f.times), -1, f.components)


def _coeffs_to_grid(coeffs, grid, times, components):
    full = coeffs.reshape((len(times),) + grid.shape + (components,))
    axes = tuple(range(1, 1 + grid.n))
    vals = np.fft.ifftn(full * grid.torus_points ** grid.n, axes=axes).real
    return GridFn(grid, times, vals)


def _free_transport_coeffs(theta, rhs_quad, tau, p_lead):
    """Solve (d_q k) omega + d_t k = rhs for the decaying solution, in
    coefficient space on the quadrature grid.

    rhs_quad: (P, M, C) coefficients of the right side on the quad grid.
    Returns kappa coefficients on the quad grid (P, M, C).
    """
    J = _filon_cumulative(tau, theta, rhs_quad)
    tail_c = _power_tail_coeffs(tau, rhs_quad, p_lead)
    tail = _power_tail_integral(tau[-1], theta, tail_c, p_lead)
    total = J + tail[None, ...]
    kap = -np.exp(-1j * np.multiply.outer(tau, theta))[..., None] * total
    return kap


def _spectral_solve(p, quad_tol, max_corrections=30):
    grid, times = p.grid, p.times
    if grid.m:
        raise NotImplementedError("spectral route requires a torus-only grid")
    d = p.dim
    theta = _mode_phases(grid, p.omega)
    tau, W = _time_refine_matrix(times, TIME_REFINE)
    zc = _grid_coeffs(p.z)                      # (T, M, d)
    fc = _grid_coeffs(p.f) if p.f is not None else None
    gc = _grid_coeffs(p.g) if p.g is not None else None

    def to_quad(c):
        return np.einsum("pt,tmc->pmc", W, c)

    rhs = to_quad(zc)
    kap = _free_transport_coeffs(theta, rhs, tau, 2)
    base_scale = np.abs(kap).max()
    n_corr = 0
    hist = []
    if fc is not None or gc is not None:
        fq = to_quad(fc) if fc is not None else None
        gq = to_quad(gc) if gc is not None else None
        shape = grid.shape
        N = grid.torus_points ** grid.n
        kvecs = grid.torus_mesh()
        # physical (f, g) on the quad grid; fixed through the corrections
        if fq is not None:
            f_phys = np.fft.ifftn(
                fq.reshape((len(tau),) + shape + (d,)) * N,
                axes=tuple(range(1, 1 + grid.n))).real
        if gq is not None:
            g_phys = np.fft.ifftn(
                gq.reshape((len(tau),) + shape + (d * d,)) * N,
                axes=tuple(range(1, 1 + grid.n))).real
            gm = g_phys.reshape(g_phys.shape[:-1] + (d, d))
        cur = kap
        for it in range(max_corrections):
            # physical fields on the quad grid
            cur_full = cur.reshape((len(tau),) + shape + (d,))
            phys = np.fft.ifftn(cur_full * N,
                                axes=tuple(range(1, 1 + grid.n)))
            rhs_phys = np.zeros_like(phys)
            if fq is not None:
                for a in range(grid.n):
                    da = np.fft.ifftn(
                        cur_full * (2j * np.pi * kvecs[a])[None, ..., None]
                        * N, axes=tuple(range(1, 1 + grid.n)))
                    rhs_phys -= da * f_phys[..., a:a + 1]
            if gq is not None:
                rhs_phys -= np.einsum("...ij,...j->...i", gm, phys)
            rhs_c = np.fft.fftn(rhs_phys, axes=tuple(range(1, 1 + grid.n))
                                ) / N
            rhs_c = rhs_c.reshape(len(tau), -1, d)
            corr = _free_transport_coeffs(theta, rhs_c, tau, 2)
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
    sel = np.arange(len(times)) * TIME_REFINE
    kap_nodes = kap[sel]
    kappa = _coeffs_to_grid(kap_nodes, grid, times, d)
    return kappa, n_corr, {"correction_history": hist}


# --------------------------------------------------------------------
# direct route
# --------------------------------------------------------------------

def _field_evaluator(gridfn, callable_fn, decay=2.0):
    """Evaluator for a field given analytically or as grid data; grid
    data beyond the horizon follows the field's leading decay power."""
    if callable_fn is not None:
        return callable_fn
    if gridfn is None:
        return None
    interp = gridfn.interpolator()
    t_hi = gridfn.times.points[-1]

    def ev(q, s):
        return interp(q, min(s, t_hi)) * (1.0 if s <= t_hi
                                          else (t_hi / s) ** decay)

    return ev


def _direct_solve(p, t_quad_max, quad_tol):
    grid, times = p.grid, p.times
    d = p.dim
    omega_bar = np.concatenate([p.omega, np.zeros(grid.m)])
    mesh = np.stack(grid.meshgrid(), axis=-1).reshape(-1, d)
    N = len(mesh)
    z_ev = _field_evaluator(p.z, p.z_callable, decay=2.0)
    f_ev = _field_evaluator(p.f, p.f_callable, decay=1.0)
    g_ev = _field_evaluator(p.g, p.g_callable, decay=1.0)
    out = np.zeros((len(times), N, d))

    def rhs(s, yflat):
        y = yflat[:N * d].reshape(N, d)
        Psi = yflat[N * d:N * d + N * d * d].reshape(N, d, d)
        yr = y.copy()
        yr[:, :grid.n] %= 1.0
        dy = np.broadcast_to(omega_bar, (N, d)).copy()
        if f_ev is not None:
            dy = dy + np.asarray(f_ev(yr, s)).reshape(N, d)
        if g_ev is not None:
            G = np.asarray(g_ev(yr, s)).reshape(N, d, d)
            dPsi = np.einsum("nij,njk->nik", Psi, G)
        else:
            dPsi = np.zeros_like(Psi)
        zval = np.asarray(z_ev(yr, s)).reshape(N, d)
        dI = np.einsum("nij,nj->ni", Psi, zval)
        return np.concatenate([dy.ravel(), dPsi.ravel(), dI.ravel()])

    eye = np.broadcast_to(np.eye(d), (N, d, d)).copy()
    for i, t in enumerate(times.points):
        y0 = np.concatenate([mesh.ravel(), eye.ravel(),
                             np.zeros(N * d)])
        sol = solve_ivp(rhs, (t, t_quad_max), y0, method="DOP853",
                        rtol=quad_tol, atol=quad_tol * 1e-2)
        if not sol.success:
            raise IntegrationError(
                f"quadrature failed from t = {t}: {sol.message}")
        out[i] = -sol.y[N * d + N * d * d:, -1].reshape(N, d)
    vals = out.reshape((len(times),) + grid.shape + (d,))
    return GridFn(grid, times, vals)


# --------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------

def solve_he(p, t_quad_max=None, quad_tol=1e-9, method="auto"):
    """Solve the transport problem for the decaying solution kappa.

    t_quad_max defaults to 4 * t_max; the reported tail_bound is the
    integrand majorant  |z|_{0,2} T^(e-1)/(1-e), e = cR0 mu, beyond T.
    """
    p.validate()
    t_max = p.times.points[-1]
    if t_quad_max is None:
        t_quad_max = 4.0 * t_max
    if t_quad_max < 4.0 * t_max * (1 - 1e-12):
        raise ValueError("t_quad_max must be at least 4 * t_max")
    if method == "auto":
        method = "spectral" if p.grid.m == 0 else "characteristics"
    diagnostics = {}
    if method == "spectral":
        kappa, n_corr, diagnostics = _spectral_solve(p, quad_tol)
    elif method == "characteristics":
        kappa = _direct_solve(p, t_quad_max, quad_tol)
        n_corr = 0
    else:
        raise ValueError(f"unknown method {method!r}")
    e = constants.FLOW_EXPONENTS["cR0"] * p.mu
    z_norm = weighted_norm(p.z, 0, 2).value
    T_ref = t_max if method == "spectral" else t_quad_max
    tail = z_norm * T_ref ** (e - 1.0) / (1.0 - e)
    diagnostics = dict(diagnostics)
    diagnostics["t_quad_max"] = t_quad_max
    diagnostics["quad_tol"] = quad_tol
    return HomologicalSolution(kappa=kappa, tail_bound=float(tail),
                               method=method, corrections=n_corr,
                               diagnostics=diagnostics)


def residual_he(sol, p):
    """Pointwise residual of (HE) on the grid; sets sol.residual_norm.

    d_q is spectral, d_t uses high-order stencils on the log-uniform
    grid; this is independent of the characteristic integration.
    """
    kappa = sol.kappa
    d = p.dim
    jac = kappa.jacobian_q()                      # (T,*S,d,d)
    omega_bar = np.concatenate([p.omega, np.zeros(p.grid.m)])
    Fv = np.broadcast_to(omega_bar, kappa.values.shape).copy()
    if p.f is not None:
        Fv = Fv + p.f.values
    adv = np.einsum("...ij,...j->...i", jac, Fv)
    dt = kappa.dt().values
    res = adv + dt - p.z.values
    if p.g is not None:
        gm = p.g.values.reshape(p.g.values.shape[:-1] + (d, d))
        res = res + np.einsum("...ij,...j->...i", gm, kappa.values)
    resf = GridFn(p.grid, p.times, res)
    sol.residual_norm = weighted_norm(resf, 0, 2).value
    return resf


def estimate_check(sol, p):
    """Measured |kappa|_{sigma,1} against the calibrated solution bound."""
    sigma = p.sigma
    ck = constants.c_kappa(sigma)
    ce = constants.c_estimate(sigma)
    kn = weighted_norm(sol.kappa, sigma, 1).value
    z_s2 = weighted_norm(p.z, sigma, 2).value
    z_12 = weighted_norm(p.z, 1, 2).value
    fg = 0.0
    if p.f is not None:
        fg += weighted_norm(p.f, sigma, 1).value
    if p.g is not None:
        fg += weighted_norm(p.g, sigma, 1).value
    denom = 1.0 - ck * p.mu
    bound = ce * z_s2 / denom + ce * fg * z_12 / denom ** 2
    return {
        "sigma": sigma, "measured": kn, "bound": bound,
        "pass": kn <= bound + 1e-12,
        "c_kappa": ck, "c_estimate": ce, "mu": p.mu,
        "constants_source": "calibrated",
    }
