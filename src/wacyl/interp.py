"""Evaluation of GridFn data off the grid.

Torus axes use the trigonometric interpolant of the sampled Fourier
coefficients (exact for band-limited data), summed over the half
spectrum of the real field; time uses degree-6 local Lagrange
interpolation on the log-uniform grid.
"""

from __future__ import annotations

import numpy as np

from .grids import _lagrange_weights

__all__ = ["GridFnInterpolant"]


class GridFnInterpolant:
    """Callable (q, t) -> components for a GridFn.

    q has shape (..., n); broadcasting over leading axes is supported.
    Spatial evaluation happens in Fourier space per torus axis, so the
    cost per call scales with torus_points * n.
    """

    def __init__(self, f):
        self.f = f
        self.grid = f.grid
        self.times = f.times
        self.time_degree = min(6, len(f.times) - 1)
        # half-spectrum coefficients per time slice, (T, *modes, comp),
        # weighted 2 on the last axis's bins that stand for a +-k pair and
        # 1 on its zero and Nyquist bins, so the real part of the sum is
        # the full trigonometric interpolant
        N = self.grid.torus_points
        w = np.full(N // 2 + 1, 2.0)
        w[[0, N // 2]] = 1.0
        self.coeff = f.spectrum() * w[:, None]

    def _time_weights(self, t):
        lt = np.log(t)
        logs = self.times.log_points
        width = self.time_degree + 1
        i = int(np.searchsorted(logs, lt))
        lo = min(max(i - width // 2, 0), len(logs) - width)
        return lo, _lagrange_weights(logs[lo:lo + width], lt)

    def _coeff_at(self, t):
        lo, w = self._time_weights(t)
        return np.tensordot(w, self.coeff[lo:lo + len(w)], axes=(0, 0))

    def __call__(self, q, t):
        """Evaluate at points q (shape (..., n)) and scalar time t."""
        q = np.atleast_2d(np.asarray(q, dtype=float))
        c = self._coeff_at(t)  # (*modes, comp)
        # accumulate exp(2 pi i k.q) sums axis by axis
        for a, k in enumerate(self.grid.torus_half_freqs()):
            ph = np.exp(2j * np.pi * np.outer(q[..., a].ravel(), k))
            c = np.tensordot(ph, c, axes=(1, 0)) if a == 0 else \
                np.einsum("pk,pk...->p...", ph, c)
        out = c.real
        return out.reshape(q.shape[:-1] + (self.f.components,))
