"""Low-pass smoothing operators S_tau with quantitative bounds.

S_tau is a Fourier multiplier: identity on modes |k| <= tau/2, zero for
|k| >= tau, with a quintic C^2 ramp in between.  Window axes are handled
by even reflection (periodification) before the transform.  The operator
is applied on the half spectrum of the real field as
f + irfft((mult - 1) fhat), so inputs supported in the plateau pass
through bit-exactly.  On torus-only grids fhat is the GridFn's own
spectrum, and the result carries mult fhat as its spectrum: every
derivative of a smoothed field is then exactly band-limited to |k| < tau.
"""

from __future__ import annotations

import numpy as np

from .grids import GridFn
from .norms import weighted_norm

__all__ = ["multiplier_profile", "smooth", "verify_smoothing_bounds"]


def _ramp(u):
    """1 for u <= 0, 0 for u >= 1, quintic C^2 in between, in [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    return np.clip(1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2),
                   0.0, 1.0)


def _ramp_derivative(u):
    """d _ramp / du: -30 u^2 (1 - u)^2 on (0, 1), 0 elsewhere."""
    u = np.clip(u, 0.0, 1.0)
    return -30.0 * u ** 2 * (1.0 - u) ** 2


def multiplier_profile(u):
    """Radial symbol: 1 for u <= 1/2, 0 for u >= 1, quintic C^2 ramp."""
    return _ramp(2.0 * np.asarray(u, dtype=float) - 1.0)


def _freq_radius(grid, reflected_shapes):
    """|k| on the half-spectrum mesh of the (reflected) array: fftfreq on
    every axis but the last, rfftfreq on the last."""
    if not grid.m:
        return np.sqrt(sum(k ** 2 for k in grid.torus_mesh()))
    axes = [grid.torus_freqs] * grid.n
    for a, npts in enumerate(reflected_shapes):
        width = grid.window_axes[a][1] - grid.window_axes[a][0]
        freq = np.fft.rfftfreq if a == grid.m - 1 else np.fft.fftfreq
        axes.append(freq(npts, d=width))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(k ** 2 for k in mesh))


def _chop(spec, axes):
    """spec with roundoff leakage zeroed, so that plateau-band-limited
    inputs pass bit-exactly."""
    tol = 64 * np.finfo(float).eps * np.abs(spec).max(axis=axes,
                                                       keepdims=True)
    return np.where(np.abs(spec) > tol, spec, 0.0)


def smooth(f, tau):
    """Apply S_tau to every time slice of a GridFn."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    grid = f.grid
    axes = tuple(range(1, 1 + grid.dim))
    if not grid.m:
        spec = f.spectrum()
        mult = multiplier_profile(_freq_radius(grid, ()) / tau)[
            None, ..., None]
        delta = grid.torus_irfft(_chop(spec, axes) * (mult - 1.0))
        return GridFn(grid, f.times, f.values + delta, spectrum=spec * mult)
    # even reflection on window axes
    reflected_shapes = []
    ref = f.values
    for a in range(grid.m):
        axis = 1 + grid.n + a
        body = np.flip(ref, axis=axis)
        sl = [slice(None)] * ref.ndim
        sl[axis] = slice(1, -1)
        ref = np.concatenate([ref, body[tuple(sl)]], axis=axis)
        reflected_shapes.append(ref.shape[axis])
    mult = multiplier_profile(_freq_radius(grid, reflected_shapes) / tau)[
        None, ..., None]
    spec = _chop(np.fft.rfftn(ref, axes=axes), axes)
    out = ref + np.fft.irfftn(spec * (mult - 1.0), s=ref.shape[1:-1],
                              axes=axes)
    # restrict back to the window
    for a in reversed(range(grid.m)):
        axis = 1 + grid.n + a
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(0, grid.window_points)
        out = out[tuple(sl)]
    return GridFn(grid, f.times, out)


def verify_smoothing_bounds(f, tau, m, d, l=0.0):
    """Empirical ratios for the two smoothing inequalities.

    ratio1 = |S_tau f|_m / (tau^(m-d) |f|_d)
    ratio2 = |(S_tau - 1) f|_d / (tau^-(m-d) |f|_m)
    """
    if d > m:
        raise ValueError("need d <= m")
    sf = smooth(f, tau)
    rf = sf - f
    n_sf_m = weighted_norm(sf, m, l).value
    n_f_d = weighted_norm(f, d, l).value
    n_rf_d = weighted_norm(rf, d, l).value
    n_f_m = weighted_norm(f, m, l).value
    ratio1 = n_sf_m / (tau ** (m - d) * n_f_d) if n_f_d > 0 else 0.0
    ratio2 = n_rf_d / (tau ** (-(m - d)) * n_f_m) if n_f_m > 0 else 0.0
    return {
        "tau": tau, "m": m, "d": d,
        "smoothed_norm_high": n_sf_m, "input_norm_low": n_f_d,
        "remainder_norm_low": n_rf_d, "input_norm_high": n_f_m,
        "ratio_S1": ratio1, "ratio_S2": ratio2,
    }
