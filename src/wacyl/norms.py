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

__all__ = ["holder_norm", "weighted_norm", "product", "norm_algebra_check",
           "random_modes"]


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


def norm_algebra_check(f, g, sigma, l, m):
    """The product ratio of the weighted-norm calculus, for comparison
    against documented constants.  (The derivative restriction and
    l-monotonicity hold for every GridFn: f.dq is the derivative that
    holder_norm takes, and t >= 1 on every TimeGrid.  The composition
    ratio is a calibration check, in tests/calibration.py.)
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    fg = product(f, g)
    num = weighted_norm(fg, sigma, l + m)
    den = (weighted_norm(f, 0, l)
           * weighted_norm(g, sigma, m)
           + weighted_norm(f, sigma, l)
           * weighted_norm(g, 0, m))
    return {"product_ratio": num / den if den > 0 else 0.0}


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
