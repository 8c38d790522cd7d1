"""Independent reference routes the library is tested against; imported
by the tests, not collected by pytest.

The ODE layer on the torus T^n, which no command runs: the flow of
`VectorFieldSpec` (omega + f(q, t)) by `integrate_flow`, its spatial
Jacobian `flow_jacobian` and the fundamental matrix `fundamental_matrix`
of the zeroth-order transport system, the last two from one variational
solve (`_variational`).  Every solve is scipy's DOP853 through
`_solve`, which refuses a tolerance that is not positive; the library's
DOP853 (`wacyl.dop853`) copies it bit for bit but runs only forward to
`t_eval` points, and `tests/test_dop853.py` holds the two together.
`rk4` is a fixed-step classical Runge-Kutta integrator, the oracle of
the adaptive flow.  `characteristics_solve` solves the transport
problem along the characteristics, the second route of the spectral
`solve_he`; it keeps `_solve` and the library's tail bound
(`homological._tail_bound`).

`eval_Hc` is the comet interaction at a comet position, and `grad_Hc`
and `hess_Hc` are its first and second derivatives, all three through
`_comet_gravity`, which refuses a body within `celestial.PROXIMITY` of
the comet; `apply_DF` is the derivative of the residual functional in a
direction.  The calibration sweeps measure through them too.

`chain_gradient` is the gradient of `HExtension` as the chain of steps
that `HExtension._gradient` folds into one pass: the chart's circles
(`chart_circles`), its body positions (`chart_positions`), the comet's
pull, its negation and the pullback by B (`chart_pullback`); the one
pass must give the same bytes.

`GridFnInterpolant` evaluates a `GridFn` off the grid: by the
trigonometric interpolant of its torus spectrum (exact for band-limited
data) and by degree-TIME_DEGREE Lagrange interpolation in log t on the
stencil window of the time grid, its weights the order-0
`grids.fornberg_weights`.

`einsum_eval_F`, `einsum_linearize` and `einsum_transport_operator`
are the residual functional, its linearization and the transport
operator written with `np.einsum` over the component axes; the library
spells the same sums out component by component and must give the
same bytes.

Two checks of a solved section against trajectories, which integrate
ODEs and so stay out of the Newton core: `conjugacy_check` compares the
phase-space flow started on the section with the section carried by
the base flow of omega_bar + Gamma, and `lagrangian_check` pulls the
2-form of a section back along that base flow.
`vector_field_from_gridfn` is the base flow's field built from a
sampled `GridFn` (trigonometric in q, local polynomial in log t).

`loop_asymptotic_metric` and `loop_confinement_check` are the two
trajectory checks of the comet run taken one sample at a time, with the
embedding phi0 and the rigid base flow as per-sample callables; the
library's array passes must give the same bytes.

`csv_writer_csv` writes a CLI table with `csv.writer`, as the CLI once
did; its own writer must give the same bytes.

`table_pair_gravity` is Newtonian pair gravity as one loop over a table
of point pairs, the form the library's unrolled force passes replaced;
`PAIRS` (the three bodies) and `COMET_PAIRS` (each body and the comet
as point 3) are its tables, and the unrolled passes must give the same
bytes.
"""

import csv
import math

import numpy as np
from scipy.integrate import solve_ivp

from wacyl.celestial import PROXIMITY, _close_encounter, _comet_pull, \
    _floats, _mass_products
from wacyl.flow import IntegrationError
from wacyl.functional import _check_ball, linearize
from wacyl.grids import GridFn, fornberg_weights
from wacyl.homological import HomologicalSolution, _tail_bound, \
    transport_operator


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
    """y(t1) of y' = fun(t, y), y(t0) = y0 by scipy's DOP853 with rtol =
    tol and atol = 1e-2 tol, forward or backward; a tol that is not
    positive (nan included) raises ValueError, a failed integration
    IntegrationError."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if t0 == t1:
        return y0.copy()
    sol = solve_ivp(fun, (t0, t1), y0, method="DOP853", rtol=tol,
                    atol=tol * 1e-2)
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


def _comet_gravity(positions, c, masses):
    """_comet_pull with the comet at c, an (x, y) pair, on the bodies
    at positions, (3, 2) or flat; a body within PROXIMITY of the comet
    raises ZeroDivisionError naming its distance."""
    x = np.asarray(positions, dtype=float).ravel().tolist()
    cx, cy = _floats(c)
    out = _comet_pull(*x, cx, cy, _mass_products(masses)[1])
    if out[0] is None:
        raise ZeroDivisionError(f"a body is {out[2]:.3e} from the comet "
                                f"(limit {PROXIMITY:g})")
    return out


def eval_Hc(positions, c, masses):
    """Interaction with the comet at c: - sum_i m_i m_c / |x_i - c|."""
    return _comet_gravity(positions, c, masses)[1]


def chart_circles(chart, theta, r):
    """cos, sin and radius of circle 1, then of circle 2."""
    ang1 = 2 * math.pi * (theta[0] + theta[2])
    ang2 = 2 * math.pi * (theta[1] + theta[3])
    return (math.cos(ang1), math.sin(ang1),
            chart.a1 * (1.0 + chart.kappa * r[0]),
            math.cos(ang2), math.sin(ang2),
            chart.a2 * (1.0 + chart.kappa * r[1]))


def chart_positions(chart, circles, xi):
    """The three body positions on the circles, flat."""
    c1, s1, rad1, c2, s2, rad2 = circles
    X1x, X1y, X2x, X2y = rad1 * c1, rad1 * s1, rad2 * c2, rad2 * s2
    x, y = xi
    m = chart.masses
    M = m.M
    out = []
    for a, b in ((m.m1, m.m2), (-(m.m0 + m.m2), m.m2),
                 (m.m1, -(m.m0 + m.m1))):
        out += (x + (a * X1x + b * X2x) / M, y + (a * X1y + b * X2y) / M)
    return out


def chart_pullback(chart, circles, dx):
    """A covector dx on the body positions, flat, pulled back:
    ((a1, a2), d_xi, d_r) with d_theta = (a1, a2, a1, a2)."""
    c1, s1, rad1, c2, s2, rad2 = circles
    u0, v0, u1, v1, u2, v2 = dx
    d_xi, (g1x, g1y), (g2x, g2y) = [
        (b0 * u0 + b1 * u1 + b2 * u2, b0 * v0 + b1 * v1 + b2 * v2)
        for b0, b1, b2 in chart._B]
    a1 = 2 * math.pi * rad1 * (g1y * c1 - g1x * s1)
    a2 = 2 * math.pi * rad2 * (g2y * c2 - g2x * s2)
    return ((a1, a2), d_xi,
            (chart.kappa * (chart.a1 * (g1x * c1 + g1y * s1)),
             chart.kappa * (chart.a2 * (g2x * c2 + g2y * s2))))


def chain_gradient(hexf, theta, xi, r, t):
    """HExtension._gradient step by step, on float sequences theta, xi,
    r: the cutoff, the chart's circles and positions, the comet's pull,
    minus it, the pullback and the cutoff's chain rule."""
    cx, cy, radius = hexf.comet._ephemeris(t)
    w, dw = hexf._weight(xi, radius)
    x, y = xi
    circles = chart_circles(hexf.chart, theta, r)
    force, _, dmin = _comet_pull(
        *chart_positions(hexf.chart, circles, (x * w, y * w)), cx, cy,
        _mass_products(hexf.masses)[1])
    if force is None:
        raise _close_encounter(t, dmin)
    d_theta, (gx, gy), d_r = chart_pullback(hexf.chart, circles,
                                            [-f for f in force])
    s = dw * (gx * x + gy * y)
    return d_theta, (w * gx + s * x, w * gy + s * y), d_r


def grad_Hc(positions, c, masses):
    """Exact gradient d H_c / d x_i: + m_i m_c (x_i - c)/|x_i - c|^3,
    minus the pull of the comet at c on body i."""
    force = _comet_gravity(positions, c, masses)[0]
    return np.negative(force).reshape(3, 2)


def hess_Hc(positions, c, masses):
    """Per-body Hessian of the interaction with the comet at c:
    m_i m_c (I - 3 rhat rhat^T)/d^3."""
    _comet_gravity(positions, c, masses)        # for its refusal only
    c = np.asarray(c, dtype=float)
    m = masses.as_array()
    out = np.zeros((3, 2, 2))
    for i in range(3):
        r = positions[i] - c
        d = np.linalg.norm(r)
        rh = r / d
        out[i] = m[i] * masses.mc * (np.eye(2) - 3 * np.outer(rh, rh)) \
            / d ** 3
    return out


def apply_DF(H, v, vhat):
    """D_v F(v) vhat = (grad vhat) Omega_bar + (d_q vhat) f + g vhat."""
    return transport_operator(vhat, H.omega, *linearize(H, v))


# degree of GridFnInterpolant's Lagrange interpolation in log t
TIME_DEGREE = 6


class GridFnInterpolant:
    """Callable (q, t) -> components for a GridFn.

    q has shape (..., n); broadcasting over leading axes is supported.
    Spatial evaluation happens in Fourier space per torus axis, so the
    cost per call scales with torus_points * n.
    """

    def __init__(self, f):
        self.f = f
        # half-spectrum coefficients per time slice, (T, *modes, comp),
        # weighted 2 on the last axis's bins that stand for a +-k pair and
        # 1 on its zero and Nyquist bins, so the real part of the sum is
        # the full trigonometric interpolant
        N = f.grid.torus_points
        w = np.full(N // 2 + 1, 2.0)
        w[[0, N // 2]] = 1.0
        self.coeff = f.spectrum() * w[:, None]

    def _coeff_at(self, t):
        lt = np.log(t)
        logs = self.f.times.log_points
        win = self.f.times.window(int(np.searchsorted(logs, lt)),
                                  TIME_DEGREE + 1)
        w = fornberg_weights(lt, logs[win], 0)
        return np.tensordot(w, self.coeff[win], axes=(0, 0))

    def __call__(self, q, t):
        """Evaluate at points q (shape (..., n)) and scalar time t."""
        q = np.atleast_2d(np.asarray(q, dtype=float))
        c = self._coeff_at(t)  # (*modes, comp)
        # accumulate exp(2 pi i k.q) sums axis by axis
        for a, k in enumerate(self.f.grid.torus_half_freqs()):
            ph = np.exp(2j * np.pi * np.outer(q[..., a].ravel(), k))
            c = np.tensordot(ph, c, axes=(1, 0)) if a == 0 else \
                np.einsum("pk,pk...->p...", ph, c)
        out = c.real
        return out.reshape(q.shape[:-1] + (self.f.components,))


def rk4(fun, y0, t0, t1, n_steps):
    """Classical fixed-step RK4."""
    y = np.asarray(y0, dtype=float).copy()
    h = (t1 - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        k1 = fun(t, y)
        k2 = fun(t + h / 2, y + h / 2 * k1)
        k3 = fun(t + h / 2, y + h / 2 * k2)
        k4 = fun(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def characteristics_solve(p, z, f, g, quad_tol):
    """Reference solution of the problem p whose fields are given
    analytically: z(q, s), f(q, s) and g(q, s) evaluate at (N, d) points.

    Per grid node it integrates the characteristic, the adjoint
    fundamental matrix and the accumulated integral of z up to
    T = 4 t_max; tail_bound is the integrand majorant beyond T.
    """
    p.validate()
    grid, times = p.grid, p.times
    d = p.grid.n
    mesh = np.stack(grid.meshgrid(), axis=-1).reshape(-1, d)
    N = len(mesh)
    T = 4.0 * times.points[-1]
    out = np.zeros((len(times), N, d))

    def rhs(s, yflat):
        y = yflat[:N * d].reshape(N, d)
        Psi = yflat[N * d:N * d + N * d * d].reshape(N, d, d)
        yr = y % 1.0
        dy = np.broadcast_to(p.omega, (N, d)) \
            + np.asarray(f(yr, s)).reshape(N, d)
        G = np.asarray(g(yr, s)).reshape(N, d, d)
        dPsi = np.einsum("nij,njk->nik", Psi, G)
        zval = np.asarray(z(yr, s)).reshape(N, d)
        dI = np.einsum("nij,nj->ni", Psi, zval)
        return np.concatenate([dy.ravel(), dPsi.ravel(), dI.ravel()])

    eye = np.broadcast_to(np.eye(d), (N, d, d)).copy()
    for i, t in enumerate(times.points):
        y0 = np.concatenate([mesh.ravel(), eye.ravel(), np.zeros(N * d)])
        out[i] = -_solve(rhs, y0, t, T, quad_tol)[N * d + N * d * d:] \
            .reshape(N, d)
    kappa = GridFn(grid, times, out.reshape((len(times),) + grid.shape
                                            + (d,)))
    return HomologicalSolution(kappa=kappa, tail_bound=_tail_bound(p, T),
                               corrections=0, diagnostics={})


def _einsum_coefficients(H, v):
    _check_ball(H, v)
    d = H.d
    vv = v.values
    lead = vv.shape[:-1]
    mbar = 2.0 * H.M0.values.reshape(lead + (d, d))
    gamma = H.b.values + np.einsum("...ij,...j->...i", mbar, vv)
    jac_v = v.jacobian_q()
    db = H.b.jacobian_q()
    mg = H.M0.jacobian_q().reshape(lead + (d, d, d))
    return mbar, gamma, jac_v, db, mg


def einsum_transport_operator(kappa, omega, f=None, g=None):
    """(grad kappa) Omega_bar + (d_q kappa) f + g kappa."""
    jac = kappa.jacobian_q()
    out = np.einsum("...ij,j->...i", jac, omega) + kappa.dt().values
    if f is not None:
        out = out + np.einsum("...ia,...a->...i", jac, f.values)
    if g is not None:
        d = kappa.grid.n
        out = out + np.einsum("...ij,...j->...i",
                              g.values.reshape(g.values.shape[:-1] + (d, d)),
                              kappa.values)
    return GridFn(kappa.grid, kappa.times, out)


def einsum_eval_F(H, v):
    """The residual field F(v)."""
    _, gamma, jac_v, db, mg = _einsum_coefficients(H, v)
    vv = v.values
    transport = einsum_transport_operator(v, H.omega).values
    adv = np.einsum("...ia,...a->...i", jac_v, gamma)
    grad_a = H.a.jacobian_q()[..., 0, :]
    b_term = np.einsum("...ja,...j->...a", db, vv)
    out = transport + adv + grad_a + b_term
    m_term = np.einsum("...ija,...i,...j->...a", mg, vv, vv)
    out = out + m_term
    return GridFn(H.grid, H.times, out)


def einsum_linearize(H, v):
    """The transport coefficients (f, g) of D_v F."""
    mbar, gamma, jac_v, db, mg = _einsum_coefficients(H, v)
    d = H.d
    vv = v.values
    f = GridFn(H.grid, H.times, gamma)
    g = np.swapaxes(db, -1, -2).copy()
    g = g + np.einsum("...ia,...ak->...ik", jac_v, mbar)
    g = g + 2.0 * np.einsum("...ija,...i->...aj", mg, vv)
    gf = GridFn(H.grid, H.times, g.reshape(vv.shape[:-1] + (d * d,)))
    return f, gf


def vector_field_from_gridfn(omega, f):
    """The field omega + f of a sampled f, through its interpolant."""
    interp = GridFnInterpolant(f)
    return VectorFieldSpec(omega, f=lambda q, t: interp(q, t),
                           jac_f=interp_jacobian(f))


def interp_jacobian(f):
    """Spatial Jacobian d(components)/d(q) of a GridFn off the grid, as a
    callable (q, t): the interpolants of its derivatives f.dq(a) along
    each torus axis, stacked on the last axis."""
    interps = [GridFnInterpolant(f.dq(a)) for a in range(f.grid.n)]
    return lambda q, t: np.stack([i(q, t) for i in interps], axis=-1)


# geometric checkpoints of conjugacy_check after t0
CONJUGACY_CHECKPOINTS = 4


def conjugacy_check(X, phi_family, Gamma, t0, t1, samples, omega,
                    tol=1e-9):
    """Max over samples and checkpoint times of
    |psi^t_{t0,X}(phi^{t0}(q)) - phi^t(psi^t_{t0, omega_bar+Gamma}(q))|.

    X(state, t) is the phase-space field, phi_family(q, t) the embedding,
    Gamma a GridFn on the base (pass a zero GridFn for the invariant
    case).  Torus components compare modulo 1.
    """
    if np.abs(Gamma.values).max() == 0.0:
        base_field = VectorFieldSpec(omega)
    else:
        base_field = vector_field_from_gridfn(omega, Gamma)
    n = len(np.atleast_1d(omega))
    times = np.geomspace(t0, t1, CONJUGACY_CHECKPOINTS + 1)[1:]
    worst = 0.0
    records = []

    def rhs(s, y):
        return np.asarray(X(y, s), dtype=float)

    for q in np.atleast_2d(samples):
        state = np.asarray(phi_family(q, t0), dtype=float)
        base = q.copy()
        t_prev = t0
        for t in times:
            state = _solve(rhs, state, t_prev, t, tol)
            base = integrate_flow(base_field, base, t_prev, t, tol)
            t_prev = t
            predicted = np.asarray(phi_family(base, t), dtype=float)
            diff = state - predicted
            diff[:n] = (diff[:n] + 0.5) % 1.0 - 0.5
            err = float(np.abs(diff).max())
            worst = max(worst, err)
            records.append({"q": q.tolist(), "t": float(t), "error": err})
    return {"max_error": worst, "records": records}


def lagrangian_check(sol, H, times, samples, tol=1e-9):
    """Pullback 2-form coefficients of the section along the transported
    flow from t = 1; reports the max |alpha^t| per time and a decay
    verdict.

    On a 1-dimensional base the form vanishes identically.
    """
    v = sol.v
    n_base = v.grid.n
    out = []
    if n_base < 2:
        return {"per_time": [{"t": float(t), "max_alpha": 0.0}
                             for t in times],
                "decay_pass": True, "degenerate": True}
    field = vector_field_from_gridfn(H.omega, sol.gamma)
    jacobian = interp_jacobian(v)
    samples = np.atleast_2d(samples)
    for t in times:
        worst = 0.0
        for q in samples:
            y = integrate_flow(field, q, 1.0, t, tol)
            J = flow_jacobian(field, q, 1.0, t, tol)
            dv = jacobian(y[None, :] % 1.0, min(
                t, v.times.points[-1]))[0]
            A = dv - dv.T                      # d_i v_j - d_j v_i
            M = J.T @ A @ J
            worst = max(worst, float(np.abs(M).max()) / 2)
        out.append({"t": float(t), "max_alpha": worst})
    vals = [r["max_alpha"] for r in out]
    decay = all(vals[i + 1] <= vals[i] * (1 + 1e-6) or vals[i + 1] < 1e-12
                for i in range(len(vals) - 1))
    return {"per_time": out, "decay_pass": decay, "degenerate": False}


def loop_asymptotic_metric(traj, omega, q0, t0):
    """celestial.asymptotic_metric sample by sample."""
    def phi0(q):
        return np.concatenate([q[:4], q[4:6], np.zeros(4)])

    def base_flow(q0, t0, t):
        return np.concatenate([q0[:4] + omega * (t - t0), q0[4:6]])

    profile = []
    for t, state in zip(traj["t"], traj["states"]):
        d = state - np.asarray(phi0(base_flow(q0, t0, t)), dtype=float)
        d[:4] = (d[:4] + 0.5) % 1.0 - 0.5
        profile.append(float(np.linalg.norm(d)))
    profile = np.asarray(profile)
    return {"t": np.asarray(traj["t"]).tolist(), "profile": profile.tolist(),
            "max": float(profile.max()), "final": float(profile[-1])}


def loop_confinement_check(times, xi_values, comet, eps, C_bar):
    """celestial.confinement_check sample by sample: its rows and first
    violation."""
    xi_norm = np.linalg.norm(np.asarray(xi_values, dtype=float), axis=1)
    rows = []
    violation = None
    for t, xn in zip(times, xi_norm):
        log_bound = xi_norm[0] + (1.0 + C_bar) * np.log(t / times[0])
        ratio = xn / comet.radius(t)
        ok = xn <= log_bound * (1 + 1e-9) + 1e-12 and ratio < eps / 6.0
        rows.append({"t": float(t), "xi": float(xn),
                     "log_bound": float(log_bound),
                     "ratio": float(ratio), "pass": bool(ok)})
        if not ok and violation is None:
            violation = rows[-1]
    return {"first_violation": violation, "rows": rows}


def csv_writer_csv(path, header, rows):
    """The table through csv.writer, numpy scalars as their Python
    values (a numpy scalar would repr as "np.float64(...)")."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([v.item() if isinstance(v, np.generic) else v
                     for v in row] for row in rows)


def _pair_table(pairs):
    """Point pairs (i, j) as (i, j, 2i, 2i + 1, 2j, 2j + 1): the mass
    indices and the flat indices of x_i, y_i, x_j and y_j."""
    return tuple((i, j, 2 * i, 2 * i + 1, 2 * j, 2 * j + 1)
                 for i, j in pairs)


PAIRS = _pair_table(((0, 1), (0, 2), (1, 2)))
# body i and the comet as point 3
COMET_PAIRS = _pair_table(((0, 3), (1, 3), (2, 3)))


def table_pair_gravity(x, m, energy=0.0, pairs=PAIRS):
    """Newtonian gravity between point masses m (floats) at the flat
    positions x = [x0, y0, x1, y1, ...] (floats), one visit per pair
    i < j in the order of pairs (a _pair_table), on Python floats
    (numpy call overhead dominates on 2-vectors).

    Returns the forces -dV/dx in the layout of x, energy + V with
    V = -sum m_i m_j / |x_i - x_j| over the pairs, and the smallest
    pair distance; coincident points raise Python's ZeroDivisionError.
    """
    force = [0.0] * len(x)
    dmin = math.inf
    for i, j, ix, iy, jx, jy in pairs:
        rx = x[ix] - x[jx]
        ry = x[iy] - x[jy]
        d = math.sqrt(rx * rx + ry * ry)
        mm = m[i] * m[j]
        d3 = d ** 3
        fx = mm * rx / d3
        fy = mm * ry / d3
        force[ix] -= fx
        force[iy] -= fy
        force[jx] += fx
        force[jy] += fy
        energy -= mm / d
        if d < dmin:
            dmin = d
    return force, energy, dmin
