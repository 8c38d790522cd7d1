"""Hölder norms |.|_{C^sigma} and the time-weighted norms |.|_{sigma,l}.

The weighted norm of a time-dependent function is the sup over the time
grid of the spatial Hölder norm multiplied by t^l.  Hölder quotients for
fractional sigma are taken over axis-aligned grid-point pairs only, at
every separation up to half the points of the axis.

The Hölder profile over the time grid is computed in one pass: each
derivative is taken once on the whole (T, ...) array, each periodic pair
shift once per offset, and the maxima are reduced per time slice.  Every
multi-index derivative comes straight from the GridFn's cached torus
spectrum, one irfftn each, zero at the Nyquist frequency of every
differentiated axis.  The profile is kept on the GridFn (GridFn.derived)
and shared by every weight t^l; weighted_norm returns the float
max_i h_i t_i^l and keeps it there too.  GridFn values are finite and
its time grid has at least two nodes, so neither is checked here.
"""

from __future__ import annotations

import numpy as np

from .grids import GridFn

__all__ = ["holder_norm", "weighted_norm", "product", "compose_torus",
           "convexity_check", "norm_algebra_check", "random_modes"]


def _shifted_diff(arr, axis, offset):
    """|arr(x + offset e_axis) - arr(x)| on every time slice of a
    (T, *torus, components) array, wrapped periodically."""
    return np.abs(np.roll(arr, -offset, axis=axis + 1) - arr)


def _slice_max(arr):
    """Max over every axis but the leading time axis."""
    return arr.max(axis=tuple(range(1, arr.ndim)))


def _holder_quotient(grid, top_derivs, mu):
    """Per time slice, max over axis-aligned grid-point pairs of
    |D(x)-D(y)| / dist^mu."""
    best = np.zeros(len(top_derivs[0]))
    max_off = grid.torus_points // 2
    for axis in range(grid.n):
        for off in range(1, max_off + 1):
            dist = off / grid.torus_points
            for arr in top_derivs:
                diff = _slice_max(_shifted_diff(arr, axis, off))
                best = np.maximum(best, diff / dist ** mu)
    return best


def holder_norm(f, sigma):
    """Hölder norms |f^t|_{C^sigma} of a GridFn, one float per time slice.

    Derivatives are spectral (from f.spectrum()), taken once per
    multi-index on the whole (T, ...) array; the fractional part adds the
    maximal discrete Hölder quotient of the order-floor(sigma)
    derivatives.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    k = int(np.floor(sigma))
    mu = sigma - k
    if abs(mu) < 1e-12:
        mu = 0.0
    grid = f.grid
    spec = f.spectrum() if k else None
    level = {(0,) * grid.n: f.values}
    best = _slice_max(np.abs(f.values))
    tops = [f.values] if k == 0 else []
    for order in range(1, k + 1):
        new_level = {}
        for alpha in level:
            for axis in range(grid.n):
                beta = tuple(a + (b == axis) for b, a in enumerate(alpha))
                if beta not in new_level:
                    new_level[beta] = grid.torus_derivative(spec, beta)
        level = new_level
        for arr in level.values():
            best = np.maximum(best, _slice_max(np.abs(arr)))
            if order == k:
                tops.append(arr)
    if mu > 0:
        best = np.maximum(best, _holder_quotient(f.grid, tops, mu))
    return best.tolist()


def weighted_norm(f, sigma, l):
    """|f|_{sigma,l} = max over the time grid of |f^t|_{C^sigma} t^l, a
    float kept on f per (sigma, l), from the Hölder profile kept on f per
    sigma."""
    if sigma < 0 or l < 0:
        raise ValueError("sigma and l must be nonnegative")
    skey, lkey = round(float(sigma), 12), round(float(l), 12)
    # an all-zero field (b = m = 0 in the power-law preset) has the zero
    # profile; skip the spectral derivatives
    hvals = f.derived(("holder", skey), lambda: (
        holder_norm(f, sigma) if f.values.any()
        else [0.0] * len(f.values)))
    return f.derived(("norm", skey, lkey), lambda: float(max(
        h * float(t) ** l for t, h in zip(f.times.points, hvals))))


def product(f, g):
    """Pointwise product; a scalar (1-component) g broadcasts."""
    if f.grid != g.grid or not (f.times == g.times):
        raise ValueError("grid mismatch")
    if f.components == g.components or g.components == 1:
        return GridFn(f.grid, f.times, f.values * g.values)
    raise ValueError("incompatible component counts")


def compose_torus(f, u):
    """f composed with the torus self-map z(q) = q + u(q), per time slice.

    Evaluation through the trigonometric interpolant.
    """
    interp = f.interpolator()
    mesh = np.stack(f.grid.meshgrid(), axis=-1)
    out = np.empty_like(f.values)
    for i, t in enumerate(f.times.points):
        pts = mesh + u.values[i]
        out[i] = interp(pts.reshape(-1, f.grid.n), t).reshape(
            f.grid.shape + (f.components,))
    return GridFn(f.grid, f.times, out)


def convexity_check(f, lambda1, lambda2, alpha, l=0.0):
    """Ratio |f|_lam / (|f|_{lam1}^{1-alpha} |f|_{lam2}^alpha) with
    lam = (1-alpha) lam1 + alpha lam2, for boundedness testing."""
    if not (0 <= lambda1 <= lambda2):
        raise ValueError("need 0 <= lambda1 <= lambda2")
    if not (0 <= alpha <= 1):
        raise ValueError("alpha must lie in [0,1]")
    lam = (1 - alpha) * lambda1 + alpha * lambda2
    n_mid = weighted_norm(f, lam, l)
    n_lo = weighted_norm(f, lambda1, l)
    n_hi = weighted_norm(f, lambda2, l)
    denom = n_lo ** (1 - alpha) * n_hi ** alpha
    ratio = n_mid / denom if denom > 0 else (0.0 if n_mid == 0 else np.inf)
    return {"lambda": lam, "norm_mid": n_mid, "norm_lo": n_lo,
            "norm_hi": n_hi, "ratio": ratio}


def norm_algebra_check(f, g, sigma, l, m, u=None):
    """The product ratio of the weighted-norm calculus and, when a
    displacement u is supplied, its composition ratio, for comparison
    against documented constants.  (The derivative restriction and
    l-monotonicity hold for every GridFn: f.dq is the derivative that
    holder_norm takes, and t >= 1 on every TimeGrid.)
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    fg = product(f, g)
    num = weighted_norm(fg, sigma, l + m)
    den = (weighted_norm(f, 0, l)
           * weighted_norm(g, sigma, m)
           + weighted_norm(f, sigma, l)
           * weighted_norm(g, 0, m))
    report = {"product_ratio": num / den if den > 0 else 0.0}
    # composition ratio, torus self-map z = id + u
    if u is not None:
        fz = compose_torus(f, u)
        jac = u.jacobian_q()
        eye = np.eye(u.grid.n)
        nz = GridFn(u.grid, u.times,
                    (jac + eye).reshape(jac.shape[:-2] + (-1,)))
        num = weighted_norm(fz, sigma, l + m)
        den = (weighted_norm(f, sigma, l)
               * weighted_norm(nz, 0, m) ** sigma
               + weighted_norm(f, 1, l)
               * weighted_norm(nz, max(sigma - 1, 0), m)
               + weighted_norm(f, 0, l + m))
        report["composition_ratio"] = num / den if den > 0 else 0.0
    return report


def random_modes(rng, grid, times, power):
    """The GridFn f(q, t) = sum_k a_k sin(2 pi (k q + phi_k)) / t over
    k = 1..32 on a 1-torus grid, with a_k = N(0, 1) / k^power and phi_k
    uniform in [0, 1), drawn from rng in that order."""
    amps = rng.standard_normal(32) / np.arange(1, 33) ** power
    phases = rng.uniform(0, 1, 32)

    def fn(q, t):
        acc = 0.0
        for k in range(32):
            acc = acc + amps[k] * np.sin(
                2 * np.pi * ((k + 1) * q + phases[k]))
        return acc / t

    return GridFn.from_callable(grid, times, fn)
