"""Discrete carriers for time-dependent functions on T^n x R^m x J.

Functions live on a tensor grid: a geometric time grid on [1, t_max]
crossed with a uniform torus grid (spectral differentiation) and an
optional symmetric bounded window replacing the R^m factor (centered
finite differences, value-clamped at the boundary).
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["TimeGrid", "SpatialGrid", "GridFn", "fornberg_weights"]


def _lagrange_weights(xs, x):
    """Lagrange interpolation weights for nodes xs at point x, by the
    product formula (exact for polynomials up to degree len(xs)-1)."""
    w = np.ones(len(xs))
    for i in range(len(xs)):
        for j in range(len(xs)):
            if i != j:
                w[i] *= (x - xs[j]) / (xs[i] - xs[j])
    return w


def fornberg_weights(x0, x, order):
    """Finite-difference weights for d^order/dx^order at x0 on nodes x.

    Fornberg's recursion; exact for polynomials up to degree len(x)-1.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    c = np.zeros((n, order + 1))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


class TimeGrid:
    """Geometric time grid t_k = gamma^k on [1, t_max].

    The grid is uniform in log t, which keeps high-order time
    differentiation stable for the power-law profiles in scope.
    """

    def __init__(self, t_max, n_points=None, gamma=None):
        if t_max <= 1.0:
            raise ValueError("t_max must exceed t_start = 1")
        if n_points is None and gamma is None:
            gamma = 1.05
        if gamma is None:
            if n_points < 2:
                raise ValueError("need at least two time points")
            gamma = t_max ** (1.0 / (n_points - 1))
        else:
            if gamma <= 1.0:
                raise ValueError("gamma must exceed 1")
            n_points = int(np.ceil(np.log(t_max) / np.log(gamma))) + 1
        k = np.arange(n_points)
        self.gamma = float(gamma)
        self.points = self.gamma ** k
        self.t_start = 1.0
        self.t_max = float(t_max)
        if self.points[-1] < t_max * (1 - 1e-12):
            self.points = np.append(self.points, self.points[-1] * self.gamma)
        self._set_points(self.points)

    @classmethod
    def from_points(cls, points):
        """Rebuild a grid from its stored nodes (as written by GridFn.save)."""
        grid = cls.__new__(cls)
        grid._set_points(np.array(points, dtype=float))
        grid.t_start = float(grid.points[0])
        grid.t_max = float(grid.points[-1])
        grid.gamma = float(grid.points[1] / grid.points[0]) \
            if len(grid.points) > 1 else 1.05
        return grid

    def _set_points(self, points):
        self.points = points
        self.log_points = np.log(points)
        self.points.flags.writeable = False
        self.log_points.flags.writeable = False

    def derived(self, key, build):
        """The read-only array (or tuple of arrays) build() returns, built
        once per key and kept on the grid, which never changes."""
        cache = self.__dict__.setdefault("_derived", {})
        if key not in cache:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                arr.flags.writeable = False
            cache[key] = value
        return cache[key]

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and len(self) == len(other) \
            and np.allclose(self.points, other.points)

    def dt_matrix(self, order=8):
        """Differentiation weights in t as a dense, read-only (T, T)
        matrix, built once per order.

        Built from local stencils of `order`+1 nodes on the log-uniform
        grid; d/dt = (1/t) d/d(log t).
        """
        return self.derived(("dt", order), lambda: self._dt_matrix(order))

    def _dt_matrix(self, order):
        T = len(self.points)
        width = min(order + 1, T)
        D = np.zeros((T, T))
        for i in range(T):
            lo = min(max(i - width // 2, 0), T - width)
            nodes = self.log_points[lo:lo + width]
            w = fornberg_weights(self.log_points[i], nodes, 1)
            D[i, lo:lo + width] = w / self.points[i]
        return D


class SpatialGrid:
    """Uniform torus grid (n axes, power-of-two points) plus an optional
    window grid (m axes, symmetric about 0, odd point count)."""

    def __init__(self, n, torus_points, m=0, window_halfwidth=1.0,
                 window_points=17):
        if m not in (0, 2):
            raise ValueError("window dimension m must be 0 or 2")
        if torus_points < 1 or torus_points & (torus_points - 1):
            raise ValueError(f"torus_points must be a power of two, "
                             f"got {torus_points!r}")
        if m > 0 and (window_points < 3 or window_points % 2 == 0):
            raise ValueError(f"window_points must be odd (symmetric about 0) "
                             f"and at least 3, got {window_points!r}")
        if m > 0 and not 0 < float(window_halfwidth) < np.inf:
            raise ValueError(f"window_halfwidth must be finite and positive, "
                             f"got {window_halfwidth!r}")
        self.n = int(n)
        self.m = int(m)
        self.torus_points = int(torus_points)
        self.window_halfwidth = float(window_halfwidth)
        self.window_points = int(window_points) if m else 0
        self.torus_axes = tuple(np.arange(torus_points) / torus_points
                                for _ in range(n))
        # physical frequencies (cycles per period), shared by every torus axis
        self.torus_freqs = np.fft.fftfreq(self.torus_points,
                                          d=1.0 / self.torus_points)
        self.torus_freqs.flags.writeable = False
        if m:
            self.window_axes = tuple(
                np.linspace(-window_halfwidth, window_halfwidth, window_points)
                for _ in range(m))
        else:
            self.window_axes = ()

    @property
    def dim(self):
        return self.n + self.m

    @property
    def shape(self):
        return (self.torus_points,) * self.n + (self.window_points,) * self.m

    def __eq__(self, other):
        return (isinstance(other, SpatialGrid) and self.n == other.n
                and self.m == other.m
                and self.torus_points == other.torus_points
                and self.window_points == other.window_points
                and self.window_halfwidth == other.window_halfwidth)

    def meshgrid(self):
        return np.meshgrid(*self.torus_axes, *self.window_axes, indexing="ij")

    def torus_mesh(self):
        """Frequency of every torus axis on the full mode grid ("ij")."""
        return np.meshgrid(*(self.torus_freqs,) * self.n, indexing="ij")

    def torus_fft(self, values):
        """Fourier coefficients over the torus axes of (L, *shape, C)
        samples, scaled by 1/N so that the zero mode is the mean."""
        return np.fft.fftn(values, axes=tuple(range(1, 1 + self.n)),
                           norm="forward")

    def torus_ifft(self, coeffs):
        """Complex samples of torus Fourier coefficients; the inverse of
        torus_fft."""
        return np.fft.ifftn(coeffs, axes=tuple(range(1, 1 + self.n)),
                            norm="forward")


class GridFn:
    """Sampled vector-valued function on SpatialGrid x TimeGrid.

    values has shape (T, *spatial_shape, components).  Torus axes are
    periodic by construction; all values must be finite.
    """

    def __init__(self, grid, times, values):
        values = np.asarray(values, dtype=float)
        expected = (len(times),) + grid.shape
        if values.shape[:-1] != expected:
            raise ValueError(f"values shape {values.shape} does not match "
                             f"grid (want {expected} + components)")
        if not np.all(np.isfinite(values)):
            raise ValueError("GridFn values must be finite")
        self.grid = grid
        self.times = times
        self.values = values
        self.values.flags.writeable = False
        self._norm_cache = {}

    @property
    def components(self):
        return self.values.shape[-1]

    @classmethod
    def from_callable(cls, grid, times, fn, components=None):
        """Sample fn(*coords, t) -> scalar or vector on the grid."""
        mesh = grid.meshgrid()
        slices = []
        for t in times.points:
            out = np.asarray(fn(*mesh, t), dtype=float)
            if out.ndim == len(grid.shape):
                out = out[..., None]
            elif out.shape[:len(grid.shape)] != grid.shape:
                out = np.moveaxis(out, 0, -1)
            slices.append(out)
        vals = np.stack(slices, axis=0)
        if components is not None and vals.shape[-1] != components:
            raise ValueError("component count mismatch")
        return cls(grid, times, vals)

    @classmethod
    def zeros(cls, grid, times, components=1):
        return cls(grid, times,
                   np.zeros((len(times),) + grid.shape + (components,)))

    # ---- algebra ------------------------------------------------------

    def _like(self, values):
        return GridFn(self.grid, self.times, values)

    def __add__(self, other):
        if isinstance(other, GridFn):
            return self._like(self.values + other.values)
        return self._like(self.values + other)

    def __sub__(self, other):
        if isinstance(other, GridFn):
            return self._like(self.values - other.values)
        return self._like(self.values - other)

    def __mul__(self, scalar):
        return self._like(self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.values)

    # ---- differentiation ---------------------------------------------

    def dq(self, axis, order=1):
        """Spatial derivative along one axis (0-based among spatial axes).

        Spectral on torus axes, centered finite differences (np.gradient)
        on window axes.
        """
        arr_axis = 1 + axis
        if axis < self.grid.n:
            k = self.grid.torus_freqs
            shape = [1] * self.values.ndim
            shape[arr_axis] = len(k)
            mult = (2j * np.pi * k.reshape(shape)) ** order
            spec = np.fft.fft(self.values, axis=arr_axis)
            out = np.fft.ifft(spec * mult, axis=arr_axis).real
        else:
            ax = self.grid.window_axes[axis - self.grid.n]
            out = self.values
            for _ in range(order):
                out = np.gradient(out, ax, axis=arr_axis)
        return self._like(out)

    def dt(self):
        """Time derivative via 8th-order stencils on the log-uniform grid."""
        D = self.times.dt_matrix()
        flat = self.values.reshape(len(self.times), -1)
        out = (D @ flat).reshape(self.values.shape)
        return self._like(out)

    def jacobian_q(self):
        """All first spatial derivatives with the gradient axis last:
        (T, *S, comp) -> (T, *S, comp, d)."""
        return np.stack([self.dq(a).values for a in range(self.grid.dim)],
                        axis=-1)

    # ---- evaluation ---------------------------------------------------

    def interpolator(self):
        from .interp import GridFnInterpolant
        return GridFnInterpolant(self)

    # ---- serialization -------------------------------------------------

    def save(self, path):
        """Binary format: one JSON header line, then little-endian float64
        values in (time, space, component) order."""
        header = {
            "n": self.grid.n, "m": self.grid.m,
            "torus_points": self.grid.torus_points,
            "window_points": self.grid.window_points,
            "window_halfwidth": self.grid.window_halfwidth,
            "time_points": list(map(float, self.times.points)),
            "components": self.components,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            fh.write(self.values.astype("<f8").tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            buf = fh.read()
        times = TimeGrid.from_points(header["time_points"])
        grid = SpatialGrid(header["n"], header["torus_points"], header["m"],
                           header["window_halfwidth"],
                           header["window_points"])
        shape = (len(times),) + grid.shape + (header["components"],)
        expected = int(np.prod(shape))
        if len(buf) != 8 * expected:
            raise ValueError(f"{path}: header promises {expected} float64 "
                             f"values {shape}, file holds {len(buf)} bytes "
                             f"({len(buf) / 8:g} values)")
        values = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        return cls(grid, times, values)
