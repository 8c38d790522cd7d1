"""Independent reference routes the library is tested against; imported
by the tests, not collected by pytest.

`rk4` is a fixed-step classical Runge-Kutta integrator, the oracle of
the adaptive flow.  `characteristics_solve` solves the transport
problem along the characteristics, the second route of the spectral
`solve_he`; it keeps the library's DOP853 solve (`flow._solve`) and tail
bound (`homological._tail_bound`).  `time_refine_weights` builds the
interpolation matrix of `homological._time_refine_matrix` row by row,
with the scalar product-formula Lagrange weights.
"""

import numpy as np

from wacyl.flow import _solve
from wacyl.grids import GridFn
from wacyl.homological import (REFINE_DEGREE, TIME_REFINE,
                               HomologicalSolution, _tail_bound)


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
    d = p.dim
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
    return HomologicalSolution(kappa=kappa, tail_bound=_tail_bound(p, T))


def _scalar_lagrange_weights(xs, x):
    """Lagrange weights for nodes xs at one point x, by the product
    formula in a double loop."""
    w = np.ones(len(xs))
    for i in range(len(xs)):
        for j in range(len(xs)):
            if i != j:
                w[i] *= (x - xs[j]) / (xs[i] - xs[j])
    return w


def time_refine_weights(times):
    """The (P, T) map from the nodes of `times` to its refined quad grid:
    identity rows on the nodes, and between them the Lagrange weights in
    log t of the REFINE_DEGREE + 1 nodes around the interval."""
    T = len(times)
    gq = times.gamma ** (1.0 / TIME_REFINE)
    P = (T - 1) * TIME_REFINE + 1
    lq = np.log(times.points[0] * gq ** np.arange(P))
    logs = times.log_points
    W = np.zeros((P, T))
    width = min(REFINE_DEGREE + 1, T)
    for i in range(P):
        if i % TIME_REFINE == 0:
            W[i, i // TIME_REFINE] = 1.0
            continue
        j = i // TIME_REFINE
        lo = min(max(j - width // 2 + 1, 0), T - width)
        W[i, lo:lo + width] = _scalar_lagrange_weights(logs[lo:lo + width],
                                                       lq[i])
    return W
