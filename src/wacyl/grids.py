"""Discrete carriers for time-dependent functions on T^n x J.

Functions live on a tensor grid: a geometric time grid on [1, t_max]
crossed with a uniform torus grid (spectral differentiation).  The
sections v(q, t) of the Nash-Moser scheme live on T^n alone; the R^2
centre of mass of the comet application is carried by the ODE of
celestial.SurrogateSystem, not by grids.

Torus axes are handled on the half spectrum of real fields: one rfftn
over the torus axes per GridFn, built on first use and kept on it.  A
torus derivative d^alpha is one irfftn of that spectrum times
(2 pi i k)^alpha.  A derivative of order >= 1 along a torus axis is zero
at that axis's Nyquist frequency N/2, whose mode has no partner -N/2 and
so no real derivative (Trefethen, Spectral Methods in MATLAB, ch. 3).

No command evaluates a GridFn off the grid; the tests' interpolant
(`tests/oracles.py`) does, on the stencil window of the time grid and
the order-0 fornberg_weights.
"""

from __future__ import annotations

import json
import operator

import numpy as np

__all__ = ["TimeGrid", "SpatialGrid", "GridFn", "fornberg_weights"]


def fornberg_weights(x0, x, order):
    """Weights of d^order/dx^order at x0 on nodes x by Fornberg's
    recursion (Math. Comp. 51 (1988) 699): order 0 interpolates (the
    Lagrange weights), order 1 differentiates; exact for polynomials up
    to degree len(x)-1.  An (R,) x0 with (R, n) nodes x gives the (R, n)
    weights of each row, each by the same operations in the same order
    as a call for that row alone."""
    x0 = np.asarray(x0, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    c = np.zeros((n, order + 1) + x0.shape)
    x = np.moveaxis(x, -1, 0)
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
    return np.moveaxis(c[:, order], 0, -1)


class _Derived:
    """Immutable object whose derived data are built once and kept."""

    def derived(self, key, build):
        """The value build() returns, built once per key and kept on the
        object, which never changes.  An array, or each array of a tuple,
        is marked read-only; any other value is kept as it is."""
        cache = self.__dict__.setdefault("_derived", {})
        if key not in cache:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False
            cache[key] = value
        return cache[key]


# order of the time derivative's stencils on the log-uniform grid
DT_ORDER = 8

# relative spread of the ratios t_{k+1}/t_k that TimeGrid.from_points
# accepts (TimeGrid and np.geomspace nodes spread by at most 1.2e-15)
GEOMETRIC_RTOL = 1e-9


class TimeGrid(_Derived):
    """Geometric time grid t_k = gamma^k on [1, t_max].

    The grid is uniform in log t, which keeps high-order time
    differentiation stable for the power-law profiles in scope.
    """

    def __init__(self, t_max, n_points):
        n_points = _grid_int("n_points", n_points)
        if not 1.0 < t_max < np.inf:
            raise ValueError(f"t_max must be finite and exceed 1 (the grid "
                             f"starts at t = 1), got {t_max!r}")
        if n_points < 2:
            raise ValueError(f"need at least two time points, got "
                             f"{n_points!r}")
        gamma = float(t_max ** (1.0 / (n_points - 1)))
        self._set_points(gamma ** np.arange(n_points))

    @classmethod
    def from_points(cls, points):
        """Rebuild a grid from its stored nodes (as written by GridFn.save).
        The nodes must be finite, strictly increasing, >= 1, at least two
        and geometric (a TimeGrid is t_0 gamma^k by definition, and the
        DT_ORDER stencils are stable on log-uniform nodes); a ValueError
        names the first one that is not."""
        points = np.array(points, dtype=float)
        if points.ndim != 1 or not len(points):
            raise ValueError(f"time nodes must be a non-empty list, got "
                             f"shape {points.shape}")
        bad = ~np.isfinite(points) | (points < 1.0)
        bad[1:] |= ~(points[1:] > points[:-1])
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"time nodes must be finite, strictly "
                             f"increasing and >= 1: node {k} is "
                             f"{float(points[k])!r}")
        if len(points) < 2:
            raise ValueError(f"need at least two time nodes: node 0 is "
                             f"{float(points[0])!r} and the only one")
        ratios = points[1:] / points[:-1]
        off = np.abs(ratios / ratios[0] - 1.0) > GEOMETRIC_RTOL
        if off.any():
            k = int(np.argmax(off)) + 1
            raise ValueError(f"time nodes must be geometric, ratios within "
                             f"{GEOMETRIC_RTOL:g} of {float(ratios[0])!r}: "
                             f"node {k} is {float(points[k])!r}")
        grid = cls.__new__(cls)
        grid._set_points(points)
        return grid

    def _set_points(self, points):
        self.points = points
        self.log_points = np.log(points)
        self.points.flags.writeable = False
        self.log_points.flags.writeable = False

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and np.array_equal(
            self.points, other.points)

    def window(self, i, width):
        """The slice of min(width, T) consecutive nodes centred on
        insertion index i, shifted inside the grid at its ends: the
        stencil of dt_matrix's row i and of the tests' time
        interpolation."""
        width = min(width, len(self))
        lo = min(max(i - width // 2, 0), len(self) - width)
        return slice(lo, lo + width)

    def dt_matrix(self):
        """Differentiation weights in t as a dense, read-only (T, T)
        matrix, built once.

        Built from local stencils of DT_ORDER + 1 nodes on the
        log-uniform grid; d/dt = (1/t) d/d(log t).
        """
        return self.derived("dt", self._dt_matrix)

    def _dt_matrix(self):
        T = len(self.points)
        rows = np.arange(T)[:, None]
        cols = np.array([self.window(i, DT_ORDER + 1).start
                         for i in range(T)])[:, None] \
            + np.arange(min(DT_ORDER + 1, T))
        w = fornberg_weights(self.log_points, self.log_points[cols], 1)
        D = np.zeros((T, T))
        D[rows, cols] = w / self.points[:, None]
        return D


def _grid_int(name, value):
    """value as a Python int; a non-integer raises ValueError naming the
    field (numpy integers are accepted)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") \
            from None


class SpatialGrid(_Derived):
    """Uniform grid on the n-torus T^n, torus_points (a power of two) per
    axis."""

    def __init__(self, n, torus_points):
        n = _grid_int("n", n)
        torus_points = _grid_int("torus_points", torus_points)
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if torus_points < 1 or torus_points & (torus_points - 1):
            raise ValueError(f"torus_points must be a power of two, "
                             f"got {torus_points!r}")
        self.n = n
        self.torus_points = torus_points
        self.torus_axes = tuple(np.arange(torus_points) / torus_points
                                for _ in range(n))

    @property
    def shape(self):
        return (self.torus_points,) * self.n

    def __eq__(self, other):
        return (isinstance(other, SpatialGrid) and self.n == other.n
                and self.torus_points == other.torus_points)

    def meshgrid(self):
        return np.meshgrid(*self.torus_axes, indexing="ij")

    def torus_half_freqs(self):
        """Physical frequencies (cycles per period) of each torus axis on
        the half spectrum: fftfreq on every axis but the last, rfftfreq
        on the last; read-only and built once."""
        N = self.torus_points
        return self.derived("half_freqs", lambda: (
            (np.fft.fftfreq(N, d=1.0 / N),) * (self.n - 1)
            + (np.fft.rfftfreq(N, d=1.0 / N),)))

    def torus_mesh(self):
        """Frequency of every torus axis on the half-spectrum mode grid
        ("ij"), the grid of torus_rfft's coefficients; read-only."""
        return self.derived("mesh", lambda: tuple(
            np.meshgrid(*self.torus_half_freqs(), indexing="ij")))

    # both transforms run with the component axis moved next to the
    # leading one, so that the torus lines are contiguous: pocketfft runs
    # them faster there (1.3-1.4x on a (379, 16, 16, 2) array, one
    # thread), with the same result to the bit
    def torus_rfft(self, values):
        """Half-spectrum Fourier coefficients over the torus axes of real
        (L, *shape, C) samples, scaled by 1/N so that the zero mode is the
        mean."""
        moved = np.ascontiguousarray(np.moveaxis(values, -1, 1))
        return np.moveaxis(np.fft.rfftn(
            moved, axes=tuple(range(2, 2 + self.n)), norm="forward"), 1, -1)

    def torus_irfft(self, coeffs):
        """Real samples of half-spectrum torus coefficients; the inverse
        of torus_rfft."""
        moved = np.ascontiguousarray(np.moveaxis(coeffs, -1, 1))
        return np.moveaxis(np.fft.irfftn(
            moved, s=(self.torus_points,) * self.n,
            axes=tuple(range(2, 2 + self.n)), norm="forward"), 1, -1)

    def torus_multiplier(self, alpha):
        """Symbol (2 pi i k)^alpha of the torus derivative of multi-index
        alpha (one order per torus axis) on the half spectrum, zero at the
        Nyquist frequency of every axis with alpha_a >= 1; shaped to
        multiply a torus_rfft spectrum, read-only and built once."""
        alpha = tuple(int(a) for a in alpha)

        def build():
            mult = np.full(self.torus_mesh()[0].shape + (1,),
                           (1, 1j, -1, -1j)[sum(alpha) % 4], dtype=complex)
            freqs = self.torus_half_freqs()
            for a, (k, order) in enumerate(zip(freqs, alpha)):
                if order:
                    sym = (2 * np.pi * k) ** order
                    sym[self.torus_points // 2] = 0.0
                    shape = [1] * mult.ndim
                    shape[a] = len(k)
                    mult = mult * sym.reshape(shape)
            return mult

        return self.derived(("dq", alpha), build)

    def torus_derivative(self, coeffs, alpha):
        """Real samples of d^alpha over the torus axes of the field whose
        torus_rfft is coeffs: one irfftn."""
        return self.torus_irfft(coeffs * self.torus_multiplier(alpha))


class GridFn(_Derived):
    """Sampled vector-valued function on SpatialGrid x TimeGrid.

    values has shape (T, *spatial_shape, components).  Torus axes are
    periodic by construction; all values must be finite.  spectrum, when
    the caller already holds it, is the torus spectrum the derivatives
    are taken from (see spectrum()).  Its spectrum, Jacobian, time
    derivative, gradient field and weighted norms are kept on it by
    derived.
    """

    def __init__(self, grid, times, values, spectrum=None):
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
        if spectrum is not None:
            self.derived("spectrum", lambda: spectrum)

    @property
    def components(self):
        return self.values.shape[-1]

    @classmethod
    def from_callable(cls, grid, times, fn):
        """Sample fn(*coords, t) -> scalar or vector, the components on the
        last axis, on the grid."""
        mesh = grid.meshgrid()
        slices = []
        for t in times.points:
            out = np.asarray(fn(*mesh, t), dtype=float)
            if out.ndim == len(grid.shape):
                out = out[..., None]
            slices.append(out)
        return cls(grid, times, np.stack(slices, axis=0))

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

    def spectrum(self):
        """The torus half spectrum grid.torus_rfft(values), built on first
        use and kept read-only; a smoothed GridFn carries its filtered
        spectrum instead (see smoothing.smooth)."""
        return self.derived("spectrum",
                            lambda: self.grid.torus_rfft(self.values))

    def dq(self, axis):
        """Spectral derivative along one torus axis: one irfftn of the
        spectrum, zero at the axis's Nyquist frequency."""
        alpha = [0] * self.grid.n
        alpha[axis] = 1
        return self._like(self.grid.torus_derivative(self.spectrum(), alpha))

    def dt(self):
        """Time derivative via order-DT_ORDER stencils on the log-uniform
        grid; built once."""
        return self.derived("dt", lambda: self._like(
            (self.times.dt_matrix() @ self.values.reshape(len(self.times), -1))
            .reshape(self.values.shape)))

    def jacobian_q(self):
        """All first spatial derivatives with the gradient axis last:
        (T, *S, comp) -> (T, *S, comp, d); built once, read-only."""
        return self.derived("jacobian", lambda: np.stack(
            [self.dq(a).values for a in range(self.grid.n)], axis=-1))

    def gradient_field(self):
        """jacobian_q() as a GridFn of comp * d components (the gradient
        axis folded into the components); built once, so its norm cache
        is shared by every caller."""
        jac = self.jacobian_q()
        return self.derived("gradient", lambda: self._like(
            jac.reshape(jac.shape[:-2] + (-1,))))

    # ---- serialization -------------------------------------------------

    def save(self, path):
        """Binary format: one JSON header line, then little-endian float64
        values in (time, space, component) order."""
        header = {
            "n": self.grid.n, "torus_points": self.grid.torus_points,
            "time_points": list(map(float, self.times.points)),
            "components": self.components,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            fh.write(self.values.astype("<f8").tobytes())

    @classmethod
    def load(cls, path):
        """Read a file written by save.  A header with non-torus axes
        (non-zero "m", which older writers recorded) is refused."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            buf = fh.read()
        if header.get("m", 0):
            raise ValueError(f"{path}: header has m = {header['m']!r} "
                             f"non-torus axes; grids are torus-only (m = 0)")
        components = header["components"]
        if type(components) is not int or components < 1:
            raise ValueError(f"{path}: components must be a positive "
                             f"integer, got {components!r}")
        times = TimeGrid.from_points(header["time_points"])
        grid = SpatialGrid(header["n"], header["torus_points"])
        shape = (len(times),) + grid.shape + (components,)
        expected = int(np.prod(shape))
        if len(buf) != 8 * expected:
            raise ValueError(f"{path}: header promises {expected} float64 "
                             f"values {shape}, file holds {len(buf)} bytes "
                             f"({len(buf) / 8:g} values)")
        values = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        return cls(grid, times, values)

