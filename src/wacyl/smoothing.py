"""Low-pass smoothing operators S_tau with quantitative bounds.

S_tau is a Fourier multiplier on the torus: identity on modes
|k| <= tau/2, zero for |k| >= tau, with a quintic C^2 ramp in between.
The operator is applied on the GridFn's own half spectrum fhat as
f + irfft((mult - 1) fhat), so inputs supported in the plateau pass
through bit-exactly.  The result carries mult fhat as its spectrum:
every derivative of a smoothed field is then exactly band-limited to
|k| < tau.  A field whose values are all zero is returned as it is.
"""

from __future__ import annotations

import numpy as np

from .grids import GridFn
from .norms import weighted_norm

__all__ = ["multiplier_profile", "smooth", "verify_smoothing_bounds"]


def _ramp(u):
    """Quintic C^2 step 1 - u^3 (10 - 15 u + 6 u^2): 1 at u = 0, 0 at
    u = 1.  The caller clips u, and the value, to [0, 1] (np.clip on
    arrays; min/max on a float, where np.clip costs ten times more)."""
    return 1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)


def _ramp_derivative(u):
    """d _ramp / du = -30 u^2 (1 - u)^2, for u in [0, 1]."""
    return -30.0 * u ** 2 * (1.0 - u) ** 2


def multiplier_profile(u):
    """Radial symbol: 1 for u <= 1/2, 0 for u >= 1, quintic C^2 ramp."""
    u = np.clip(2.0 * np.asarray(u, dtype=float) - 1.0, 0.0, 1.0)
    return np.clip(_ramp(u), 0.0, 1.0)


def _chop(spec):
    """A (T, *modes, C) spectrum with roundoff leakage zeroed per time
    slice and component, so that plateau-band-limited inputs pass
    bit-exactly."""
    tol = 64 * np.finfo(float).eps * np.abs(spec).max(
        axis=tuple(range(1, spec.ndim - 1)), keepdims=True)
    return np.where(np.abs(spec) > tol, spec, 0.0)


def smooth(f, tau):
    """Apply S_tau to every time slice of a GridFn."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if not f.values.any():
        return f
    grid = f.grid
    spec = f.spectrum()
    radius = grid.derived("radius", lambda: np.sqrt(
        sum(k ** 2 for k in grid.torus_mesh())))
    mult = multiplier_profile(radius / tau)[None, ..., None]
    delta = grid.torus_irfft(_chop(spec) * (mult - 1.0))
    return GridFn(grid, f.times, f.values + delta, spectrum=spec * mult)


def verify_smoothing_bounds(f, tau, m, d):
    """Empirical ratios for the two smoothing inequalities in the
    unweighted norms |.|_k = |.|_{k,0}.

    ratio1 = |S_tau f|_m / (tau^(m-d) |f|_d)
    ratio2 = |(S_tau - 1) f|_d / (tau^-(m-d) |f|_m)
    """
    if d > m:
        raise ValueError("need d <= m")
    sf = smooth(f, tau)
    rf = sf - f
    n_sf_m = weighted_norm(sf, m, 0.0)
    n_f_d = weighted_norm(f, d, 0.0)
    n_rf_d = weighted_norm(rf, d, 0.0)
    n_f_m = weighted_norm(f, m, 0.0)
    ratio1 = n_sf_m / (tau ** (m - d) * n_f_d) if n_f_d > 0 else 0.0
    ratio2 = n_rf_d / (tau ** (-(m - d)) * n_f_m) if n_f_m > 0 else 0.0
    return {
        "tau": tau, "m": m, "d": d,
        "smoothed_norm_high": n_sf_m, "input_norm_low": n_f_d,
        "remainder_norm_low": n_rf_d, "input_norm_high": n_f_m,
        "ratio_S1": ratio1, "ratio_S2": ratio2,
    }
