"""Planar three-body problem with a prescribed hyperbolic comet.

Coordinates and splitting, comet ephemeris, the comet interaction and
its cutoff extension through a surrogate torus chart, trajectory
integration, and the convergence metrics of weakly asymptotic dynamics.
The interaction's derivatives and its decay diagnostics are test and
calibration checks (`tests/oracles.py`, `tests/calibration.py`).

The invariant torus of the unperturbed system is not computable at
desk scale; a synthetic integrable normal form and a hierarchical
circular-circular chart stand in for it, and every report derived from
them says so.
"""

from __future__ import annotations

import math

import numpy as np

from .dop853 import check_span, solve_ivp
from .flow import IntegrationError
from .smoothing import _ramp, _ramp_derivative

__all__ = ["Masses", "CometOrbit", "CartesianState", "SplitCoords",
           "ExtensionParams", "solve_hyperbolic_kepler",
           "check_speed_window", "split_coordinates",
           "eval_H0_cartesian", "eval_H0_split", "extend_Hc",
           "CircularChart", "HExtension", "SurrogateSystem",
           "integrate_system", "asymptotic_metric", "confinement_check"]


class Masses:
    """The three bodies' masses and the comet's; the instance holds the
    four in this order and nothing else (the manifest records
    vars(masses))."""

    def __init__(self, m0, m1, m2, mc=0.0):
        self.m0 = m0
        self.m1 = m1
        self.m2 = m2
        self.mc = mc
        for name, m in vars(self).items():
            if not (np.isfinite(m) and m >= 0) or (name == "m0" and m == 0):
                raise ValueError(f"mass {name} = {m}: masses must be "
                                 "finite and >= 0, and m0 > 0")

    @property
    def M(self):
        return self.m0 + self.m1 + self.m2

    @property
    def mu1(self):
        return self.m0 * self.m1 / (self.m0 + self.m1)

    @property
    def mu2(self):
        return self.m0 * self.m2 / (self.m0 + self.m2)

    def as_array(self):
        return np.array([self.m0, self.m1, self.m2])


class CartesianState:
    def __init__(self, x, y):
        self.x = x      # (3, 2) positions
        self.y = y      # (3, 2) momentum covectors


class SplitCoords:
    def __init__(self, X, Y):
        self.X = X      # (3, 2): X0 center of mass, X1, X2 relative
        self.Y = Y      # (3, 2): Y0 total momentum, Y1, Y2


# the cutoff of the extension is 1 for |xi| below CUTOFF_INNER epsilon r
# and 0 above CUTOFF_OUTER epsilon r, r the comet distance
CUTOFF_INNER = 1.0 / 6.0
CUTOFF_OUTER = 1.0 / 3.0


class ExtensionParams:
    def __init__(self, epsilon):
        if not (0 < epsilon <= 0.5):
            raise ValueError(f"epsilon must lie in (0, 1/2] (got {epsilon})")
        self.epsilon = epsilon


def _floats(v):
    """An array or a (nested) sequence of numbers as (nested) lists of
    Python floats: the input of the float passes below, where numpy's
    per-call overhead would dominate on 2-vectors and scalars."""
    return np.asarray(v, dtype=float).tolist()


# --------------------------------------------------------------------
# comet ephemeris
# --------------------------------------------------------------------

# Newton steps of solve_hyperbolic_kepler before it gives up, and its
# residual tolerance relative to max(1, |M_h|)
KEPLER_MAX_ITER = 60
KEPLER_TOL = 1e-13


def solve_hyperbolic_kepler(e, M_h):
    """Solve e sinh H - H = M_h by safeguarded Newton with a bisection
    fallback; |residual| <= KEPLER_TOL * max(1, |M_h|) at return (the
    residual is a difference of M_h-sized terms, so the bound is
    relative).  Python floats throughout: numpy's sinh and cosh cost
    more than the solve on a scalar."""
    if e <= 1.0:
        raise ValueError("hyperbolic orbit requires e > 1")
    M = float(M_h)
    if not math.isfinite(M):
        # the Newton loop would end on a nan residual and return nan
        raise ValueError(f"mean anomaly M_h = {M} must be finite")
    sign = 1.0 if M >= 0 else -1.0
    M = abs(M)
    tol_eff = KEPLER_TOL * max(1.0, M)
    # bracket
    hi = max(1.0, math.asinh((M + 2.0) / e) + 1.0)
    lo = 0.0
    H = math.asinh(M / e)
    for _ in range(KEPLER_MAX_ITER):
        f = e * math.sinh(H) - H - M
        if abs(f) <= tol_eff:
            return sign * H
        if f > 0:
            hi = H
        else:
            lo = H
        df = e * math.cosh(H) - 1.0
        step = f / df
        H_new = H - step
        if not (lo < H_new < hi):
            H_new = 0.5 * (lo + hi)
        H = H_new
    f = e * math.sinh(H) - H - M
    if abs(f) > tol_eff:
        raise IntegrationError(
            f"hyperbolic Kepler solve stalled: residual {f:.2e}")
    return sign * H


class CometOrbit:
    """Hyperbolic Keplerian ephemeris c(t).

    a_h is the magnitude of the (negative) semi-major axis, mu_grav the
    gravitational parameter, t_peri the pericenter passage time (placed
    before t = 1 so |c| is increasing on the whole window).  The
    pericenter lies on the +x axis.
    """

    def __init__(self, eccentricity, a_h, mu_grav, t_peri=0.0):
        for name, value in (("eccentricity", eccentricity), ("a_h", a_h),
                            ("mu_grav", mu_grav), ("t_peri", t_peri)):
            if not math.isfinite(value):
                raise ValueError(f"comet orbit {name} = {value} must be "
                                 "finite")
        if eccentricity <= 1.0:
            raise ValueError("need e > 1")
        if a_h <= 0 or mu_grav <= 0:
            raise ValueError("a_h and mu_grav must be positive")
        self.e = float(eccentricity)
        self.a_h = float(a_h)
        self.mu_grav = float(mu_grav)
        self.t_peri = float(t_peri)
        self.mean_motion = math.sqrt(mu_grav / a_h ** 3)
        # the scale a_h sqrt(e^2 - 1) of the ephemeris' y
        self._y_scale = self.a_h * math.sqrt(self.e ** 2 - 1.0)

    @property
    def v_asymptotic(self):
        return math.sqrt(self.mu_grav / self.a_h)

    def _ephemeris(self, t):
        """c(t) as two floats and |c(t)|, from one solve of the Kepler
        equation."""
        H = solve_hyperbolic_kepler(
            self.e, self.mean_motion * (t - self.t_peri))
        ch = math.cosh(H)
        return (self.a_h * (self.e - ch),
                self._y_scale * math.sinh(H),
                self.a_h * (self.e * ch - 1.0))

    def radius(self, t):
        return self._ephemeris(t)[2]

    def _radial(self, t):
        """|c(t)| and d|c|/dt, from one solve of the Kepler equation."""
        H = solve_hyperbolic_kepler(
            self.e, self.mean_motion * (t - self.t_peri))
        ech = self.e * math.cosh(H) - 1.0
        return (self.a_h * ech,
                self.a_h * self.e * math.sinh(H) * self.mean_motion / ech)


def check_speed_window(orbit, t_grid, eps):
    """Verify v/2 <= d|c|/dt <= 2v, |c(1)| > 1/eps, v > 2/eps and
    sup_t t/|c(t)| < eps on the sampled window."""
    v = orbit.v_asymptotic
    rows = []
    sup_ratio = 0.0
    speed_ok = True
    for t in t_grid:
        r, s = orbit._radial(t)
        sup_ratio = max(sup_ratio, t / r)
        ok = v / 2 <= s <= 2 * v
        speed_ok = speed_ok and ok
        rows.append({"t": float(t), "radius": float(r),
                     "radial_speed": float(s), "speed_in_window": ok})
    c1 = orbit.radius(max(t_grid[0], 1.0))
    report = {
        "v_asymptotic": v,
        "radius_at_1": c1,
        "precondition_c1": c1 > 1.0 / eps,
        "precondition_v": v > 2.0 / eps,
        "speed_window_pass": speed_ok,
        "sup_t_over_c": sup_ratio,
        "sup_ratio_below_eps": sup_ratio < eps,
        "rows": rows,
    }
    report["pass"] = (report["precondition_c1"] and report["precondition_v"]
                      and speed_ok and report["sup_ratio_below_eps"])
    return report


# --------------------------------------------------------------------
# splitting and Hamiltonians
# --------------------------------------------------------------------

def _split_matrices(masses):
    m0, m1, m2 = masses.m0, masses.m1, masses.m2
    M = masses.M
    A = np.array([[m0 / M, m1 / M, m2 / M],
                  [1.0, -1.0, 0.0],
                  [1.0, 0.0, -1.0]])
    B = np.array([[1.0, 1.0, 1.0],
                  [m1 / M, -(m0 + m2) / M, m1 / M],
                  [m2 / M, m2 / M, -(m0 + m1) / M]])
    return A, B


def split_coordinates(state, masses):
    """Linear symplectic map to center-of-mass / relative variables."""
    A, B = _split_matrices(masses)
    return SplitCoords(X=A @ state.x, Y=B @ state.y)


def _mass_products(masses):
    """The pair products (m0 m1, m0 m2, m1 m2) of the bodies' force pass
    in _cartesian_rhs and (m0 mc, m1 mc, m2 mc) of _comet_pull, as
    floats; formed once per system, not per force pass."""
    m0, m1, m2, mc = (float(masses.m0), float(masses.m1),
                      float(masses.m2), float(masses.mc))
    return (m0 * m1, m0 * m2, m1 * m2), (m0 * mc, m1 * mc, m2 * mc)


# Newtonian pair gravity runs on Python floats, since numpy's per-call
# overhead dominates on 2-vectors, unrolled for the fixed topology: the
# bodies' forces in _cartesian_rhs, their energy in eval_H0_cartesian
# and the comet's pull on them in _comet_pull.  Each pair (i, j) gives
# f = m_i m_j (x_i - x_j) / |x_i - x_j|^3, subtracted from body i's
# force and added to body j's, starting from 0.0, in pair order, and
# -m_i m_j / |x_i - x_j| to the energy.  A force pass refuses a pair
# closer than PROXIMITY before it divides: the bodies' pass in
# _cartesian_rhs and every comet pass, each one a call of _comet_pull.
PROXIMITY = 1e-4


def _close_encounter(t, dmin):
    """The IntegrationError of a force pass at time t whose smallest
    distance dmin is below PROXIMITY."""
    return IntegrationError(f"close encounter at t = {t:.6f} (smallest "
                            f"distance {dmin:.3e} < {PROXIMITY:g})")


def _comet_pull(x0, y0, x1, y1, x2, y2, cx, cy, mmc):
    """The comet at (cx, cy) on the three bodies, mmc the body-comet
    products (_mass_products), over the pairs (0, c), (1, c), (2, c).

    Returns the forces on the bodies as (f0x, f0y, f1x, f1y, f2x, f2y),
    the interaction energy -sum m_i m_c / |x_i - c| and the smallest
    body-comet distance, or (None, None, that distance) before any
    division when it is below PROXIMITY (from math.inf, so that a nan
    distance is passed over).
    """
    rx0, ry0 = x0 - cx, y0 - cy
    d0 = math.sqrt(rx0 * rx0 + ry0 * ry0)
    rx1, ry1 = x1 - cx, y1 - cy
    d1 = math.sqrt(rx1 * rx1 + ry1 * ry1)
    rx2, ry2 = x2 - cx, y2 - cy
    d2 = math.sqrt(rx2 * rx2 + ry2 * ry2)
    dmin = math.inf
    if d0 < dmin:
        dmin = d0
    if d1 < dmin:
        dmin = d1
    if d2 < dmin:
        dmin = d2
    if dmin < PROXIMITY:
        return None, None, dmin
    mm0, mm1, mm2 = mmc
    d3 = d0 ** 3
    fx0, fy0 = mm0 * rx0 / d3, mm0 * ry0 / d3
    d3 = d1 ** 3
    fx1, fy1 = mm1 * rx1 / d3, mm1 * ry1 / d3
    d3 = d2 ** 3
    fx2, fy2 = mm2 * rx2 / d3, mm2 * ry2 / d3
    return ((0.0 - fx0, 0.0 - fy0, 0.0 - fx1, 0.0 - fy1,
             0.0 - fx2, 0.0 - fy2),
            0.0 - mm0 / d0 - mm1 / d1 - mm2 / d2, dmin)


def eval_H0_cartesian(state, masses):
    """H0 = sum |y_i|^2 / 2 m_i + V at state, or the (n,) array of it at
    the n states of a state whose x and y are (n, 3, 2); V is
    -m0 m1 / d01 - m0 m2 / d02 - m1 m2 / d12, subtracted in pair order."""
    m0, m1, m2 = masses.as_array().tolist()
    mm01, mm02, mm12 = _mass_products(masses)[0]
    rows = np.concatenate([np.reshape(state.x, (-1, 6)),
                           np.reshape(state.y, (-1, 6))], axis=1).tolist()
    h0 = []
    for x0, y0, x1, y1, x2, y2, p0x, p0y, p1x, p1y, p2x, p2y in rows:
        kinetic = (0.5 * (p0x * p0x + p0y * p0y) / m0
                   + 0.5 * (p1x * p1x + p1y * p1y) / m1
                   + 0.5 * (p2x * p2x + p2y * p2y) / m2)
        rx, ry = x0 - x1, y0 - y1
        d01 = math.sqrt(rx * rx + ry * ry)
        rx, ry = x0 - x2, y0 - y2
        d02 = math.sqrt(rx * rx + ry * ry)
        rx, ry = x1 - x2, y1 - y2
        d12 = math.sqrt(rx * rx + ry * ry)
        h0.append(kinetic - mm01 / d01 - mm02 / d02 - mm12 / d12)
    return h0[0] if np.ndim(state.x) == 2 else np.array(h0)


def eval_H0_split(sc, masses):
    """|Y0|^2/2M plus the translation-reduced Hamiltonian K."""
    X, Y = sc.X, sc.Y
    # Python floats, on which a zero distance raises ZeroDivisionError
    d1, d2, d12 = map(float, map(np.linalg.norm, (X[1], X[2], X[2] - X[1])))
    H = (Y[0] ** 2).sum() / (2 * masses.M)
    H += (Y[1] ** 2).sum() / (2 * masses.mu1) - masses.m0 * masses.m1 / d1
    H += (Y[2] ** 2).sum() / (2 * masses.mu2) - masses.m0 * masses.m2 / d2
    H += (Y[1] * Y[2]).sum() / masses.m0 - masses.m1 * masses.m2 / d12
    return float(H)


# --------------------------------------------------------------------
# surrogate chart and extension
# --------------------------------------------------------------------

class CircularChart:
    """Hierarchical circular-circular stand-in for the invariant torus.

    theta = (lambda_1, lambda_2, phase_1, phase_2) drive the two
    near-decoupled Keplerian circles of radii a1 (1 + kappa r_1) and
    a2 (1 + kappa r_2); xi and eta are the center of mass and total
    momentum.  The two extra angles rotate the pericenter references,
    so the map is 4-torus-periodic, and only the Keplerian pair is
    dynamically active (circular limit).  Reports built on this chart
    carry surrogate=True.

    The chart map has one implementation, _frame, on Python floats, as
    numpy's per-call overhead dominates on 2-vectors; positions and
    momenta wrap its results in arrays once, and HExtension reads it
    directly and pulls covectors back through B = A^-T.
    """

    # relative change of each circle's radius per unit action r_k
    kappa = 0.2

    def __init__(self, masses, a1=0.05, a2=1.0):
        self.masses = masses
        self.a1 = float(a1)
        self.a2 = float(a2)
        self.n1 = math.sqrt((masses.m0 + masses.m1) / a1 ** 3)
        self.n2 = math.sqrt((masses.m0 + masses.m2) / a2 ** 3)
        self.omega = np.array([self.n1, self.n2, 0.0, 0.0])
        # positions are A^-1 (xi, X1, X2), so covectors on them pull
        # back to (xi, X1, X2) by A^-T = B, the momentum split
        self._B = _split_matrices(masses)[1].tolist()
        # _frame's constants: the circles' scales, M and each (a_i, b_i)
        m = masses
        self._frame_constants = (self.a1, self.a2, self.kappa, m.M,
                                 m.m1, m.m2, -(m.m0 + m.m2), m.m2,
                                 m.m1, -(m.m0 + m.m1))

    def _frame(self, theta, r, xi):
        """cos, sin and radius of circle 1, then of circle 2, and the
        three body positions x_i = xi + (a_i X1 + b_i X2) / M, flat:
        one 12-tuple of floats for float sequences theta, r, xi."""
        a1, a2, kappa, M, p0, q0, p1, q1, p2, q2 = self._frame_constants
        ang1 = math.tau * (theta[0] + theta[2])
        ang2 = math.tau * (theta[1] + theta[3])
        c1, s1, c2, s2 = (math.cos(ang1), math.sin(ang1), math.cos(ang2),
                          math.sin(ang2))
        rad1, rad2 = a1 * (1.0 + kappa * r[0]), a2 * (1.0 + kappa * r[1])
        X1x, X1y, X2x, X2y = rad1 * c1, rad1 * s1, rad2 * c2, rad2 * s2
        x, y = xi
        return (c1, s1, rad1, c2, s2, rad2,
                x + (p0 * X1x + q0 * X2x) / M, y + (p0 * X1y + q0 * X2y) / M,
                x + (p1 * X1x + q1 * X2x) / M, y + (p1 * X1y + q1 * X2y) / M,
                x + (p2 * X1x + q2 * X2x) / M, y + (p2 * X1y + q2 * X2y) / M)

    def positions(self, theta, xi, r):
        """Cartesian body positions x_i = xi + (a_i X1 + b_i X2) / M."""
        return np.array(self._frame(_floats(theta), _floats(r),
                                    _floats(xi))[6:]).reshape(3, 2)

    def momenta(self, theta, r, eta):
        """Covector momenta of the two circles plus the drift eta."""
        m = self.masses
        c1, s1, rad1, c2, s2, rad2 = self._frame(_floats(theta), _floats(r),
                                                 (0.0, 0.0))[:6]
        k1 = m.mu1 * self.n1 * rad1
        k2 = m.mu2 * self.n2 * rad2
        return np.array([_floats(eta), [k1 * -s1, k1 * c1],
                         [k2 * -s2, k2 * c2]])

    def state(self, theta, xi, r, eta):
        pos = self.positions(theta, xi, r)
        Y = self.momenta(theta, r, eta)
        y = np.linalg.solve(self._B, Y)
        return CartesianState(x=pos, y=y)


class HExtension:
    """Comet interaction composed with the chart and the radial cutoff.

    Identity on |xi| <= eps |c(t)|/6, constant in xi beyond
    eps |c(t)|/3, with a quintic C^2 radial ramp in between.  value and
    _gradient read the ephemeris, the chart (_frame) and the comet's
    pull once each, on Python floats, and refuse a close encounter.
    """

    def __init__(self, params, comet, masses, chart):
        self.params = params
        self.comet = comet
        self.masses = masses
        self.chart = chart
        self._mmc = _mass_products(masses)[1]
        # the chart Jacobian's kappa, a1, a2 and rows of B onto X1, X2
        self._jacobian = (chart.kappa, chart.a1, chart.a2, *chart._B[1],
                          *chart._B[2])

    def _weight(self, xi, radius):
        """w(|xi|) of the cutoff xi w(|xi|) at comet distance radius,
        and w'(|xi|) / |xi| (0 wherever w is flat), for an (x, y) pair
        xi."""
        rin = self.params.epsilon * radius * CUTOFF_INNER
        rout = self.params.epsilon * radius * CUTOFF_OUTER
        x, y = xi
        rho = math.sqrt(x * x + y * y)
        u = min(max((rho - rin) / (rout - rin), 0.0), 1.0)
        dw = _ramp_derivative(u)
        return (min(max(_ramp(u), 0.0), 1.0),
                dw / ((rout - rin) * rho) if dw else 0.0)

    def value(self, theta, xi, r, t):
        """H_ex = - sum_i m_i m_c / |x_i - c(t)| at the chart's body
        positions, with its center of mass at xi w(|xi|)."""
        cx, cy, radius = self.comet._ephemeris(t)
        x, y = xi = _floats(xi)
        w = self._weight(xi, radius)[0]
        frame = self.chart._frame(_floats(theta), _floats(r), (x * w, y * w))
        _, energy, dmin = _comet_pull(*frame[6:], cx, cy, self._mmc)
        if energy is None:
            raise _close_encounter(t, dmin)
        return energy

    def _gradient(self, theta, xi, r, t):
        """Exact gradient of value by the chain rule through d H_c / d x,
        the chart Jacobian and the cutoff, on float sequences theta, xi,
        r: ((a1, a2), d_xi, d_r) with d_theta = (a1, a2, a1, a2)."""
        cx, cy, radius = self.comet._ephemeris(t)
        w, dw = self._weight(xi, radius)
        x, y = xi
        c1, s1, rad1, c2, s2, rad2, x0, y0, x1, y1, x2, y2 = \
            self.chart._frame(theta, r, (x * w, y * w))
        force, _, dmin = _comet_pull(x0, y0, x1, y1, x2, y2, cx, cy,
                                     self._mmc)
        if force is None:
            raise _close_encounter(t, dmin)
        # d H_c / d x: minus the comet's pull on each body, pulled back
        # to (xi, X1, X2) by B, whose row onto xi is ones
        f0x, f0y, f1x, f1y, f2x, f2y = force
        u0, v0, u1, v1, u2, v2 = -f0x, -f0y, -f1x, -f1y, -f2x, -f2y
        kappa, a1, a2, b10, b11, b12, b20, b21, b22 = self._jacobian
        gx, gy = u0 + u1 + u2, v0 + v1 + v2
        g1x = b10 * u0 + b11 * u1 + b12 * u2
        g1y = b10 * v0 + b11 * v1 + b12 * v2
        g2x = b20 * u0 + b21 * u1 + b22 * u2
        g2y = b20 * v0 + b21 * v1 + b22 * v2
        # d (xi w(|xi|)) / d xi = w I + (w'(|xi|) / |xi|) xi xi^T
        s = dw * (gx * x + gy * y)
        # X_k = rad_k e_k, and d e_k / d theta is 2 pi e_k turned a quarter
        return ((math.tau * rad1 * (g1y * c1 - g1x * s1),
                 math.tau * rad2 * (g2y * c2 - g2x * s2)),
                (w * gx + s * x, w * gy + s * y),
                (kappa * (a1 * (g1x * c1 + g1y * s1)),
                 kappa * (a2 * (g2x * c2 + g2y * s2))))


def extend_Hc(params, comet, masses, chart):
    """Build the globally defined extension of the comet interaction."""
    return HExtension(params, comet, masses, chart)


# --------------------------------------------------------------------
# trajectory integration
# --------------------------------------------------------------------

def _cartesian_rhs(masses, comet):
    """d/dt of the flat state [x (3, 2), y (3, 2)]: [y / m, force] as a
    float list, the bodies' forces over the pairs (0, 1), (0, 2), (1, 2),
    plus _comet_pull of the comet at c(t) when it has mass.

    A force pass whose smallest distance, the comet's included when it
    has mass, is below PROXIMITY raises IntegrationError before any
    force is formed.  DOP853 calls rhs on every stage it tries and on
    its initial-step probe, so the check reads those states too, not
    only the accepted steps.
    """
    m0, m1, m2 = masses.as_array().tolist()
    (mm01, mm02, mm12), mmc = _mass_products(masses)
    if not (masses.mc > 0 and comet is not None):
        comet = None

    def rhs(t, yflat):
        x0, y0, x1, y1, x2, y2, p0x, p0y, p1x, p1y, p2x, p2y = \
            yflat.tolist()
        rx01, ry01 = x0 - x1, y0 - y1
        d01 = math.sqrt(rx01 * rx01 + ry01 * ry01)
        rx02, ry02 = x0 - x2, y0 - y2
        d02 = math.sqrt(rx02 * rx02 + ry02 * ry02)
        rx12, ry12 = x1 - x2, y1 - y2
        d12 = math.sqrt(rx12 * rx12 + ry12 * ry12)
        # from math.inf, so that a nan distance is passed over
        dmin = math.inf
        if d01 < dmin:
            dmin = d01
        if d02 < dmin:
            dmin = d02
        if d12 < dmin:
            dmin = d12
        if comet is not None:
            cx, cy, _ = comet._ephemeris(t)
            pull, _, dc = _comet_pull(x0, y0, x1, y1, x2, y2, cx, cy, mmc)
            if dc < dmin:
                dmin = dc
        if dmin < PROXIMITY:
            raise _close_encounter(t, dmin)
        d3 = d01 ** 3
        fx01, fy01 = mm01 * rx01 / d3, mm01 * ry01 / d3
        d3 = d02 ** 3
        fx02, fy02 = mm02 * rx02 / d3, mm02 * ry02 / d3
        d3 = d12 ** 3
        fx12, fy12 = mm12 * rx12 / d3, mm12 * ry12 / d3
        f0x, f0y = (0.0 - fx01) - fx02, (0.0 - fy01) - fy02
        f1x, f1y = (0.0 + fx01) - fx12, (0.0 + fy01) - fy12
        f2x, f2y = (0.0 + fx02) + fx12, (0.0 + fy02) + fy12
        if comet is not None:
            g0x, g0y, g1x, g1y, g2x, g2y = pull
            # a + (0.0 - f) is a - f: the bytes of one pass over all pairs
            f0x, f0y, f1x, f1y, f2x, f2y = (f0x + g0x, f0y + g0y, f1x + g1x,
                                            f1y + g1y, f2x + g2x, f2y + g2y)
        return [p0x / m0, p0y / m0, p1x / m1, p1y / m1, p2x / m2, p2y / m2,
                f0x, f0y, f1x, f1y, f2x, f2y]

    return rhs


# integrate_system samples its trajectory at TRAJECTORY_SAMPLES uniform
# times, SurrogateSystem.integrate at SURROGATE_SAMPLES geometric times
TRAJECTORY_SAMPLES = 200
SURROGATE_SAMPLES = 120


def integrate_system(state0, comet, masses, t0, t1, tol=1e-11):
    """Trajectory of the full time-dependent system with energy-drift
    reporting, forward from t0 to t1 (dop853.check_span refuses any
    other span before the samples are built); a close encounter
    (_cartesian_rhs) raises IntegrationError naming its time and
    distance."""
    if not min(masses.m1, masses.m2) > 0:
        raise ValueError(f"the Cartesian velocities y / m need m1, m2 > 0 "
                         f"(got m1 = {masses.m1}, m2 = {masses.m2})")
    rhs = _cartesian_rhs(masses, comet)
    y0 = np.concatenate([state0.x.ravel(), state0.y.ravel()])
    check_span(t0, t1)
    ts = np.linspace(t0, t1, TRAJECTORY_SAMPLES)
    sol = solve_ivp(rhs, (t0, t1), y0, rtol=tol, atol=tol * 1e-2, t_eval=ts)
    xs = sol.y[:6].T.reshape(-1, 3, 2)
    ys = sol.y[6:].T.reshape(-1, 3, 2)
    h0 = eval_H0_cartesian(CartesianState(xs, ys), masses)
    y0tot = ys.sum(axis=1)
    return {
        "t": sol.t, "x": xs, "y": ys,
        "H0": h0, "H0_drift": float(np.abs(h0 - h0[0]).max()),
        "Y0": y0tot,
        "Y0_drift": float(np.abs(y0tot - y0tot[0]).max()),
        "nfev": int(sol.nfev),
    }


# --------------------------------------------------------------------
# surrogate normal-form system with the comet coupling
# --------------------------------------------------------------------

# leading_drift_momentum integrates on geometric nodes over
# [t, DRIFT_TAIL_FACTOR t] and adds the A/s^2 tail beyond; asymptotic_metric
# reduces the N_ANGLES angle components of the chart modulo 1
DRIFT_TAIL_FACTOR = 40.0
DRIFT_NODES = 160
N_ANGLES = 4


class SurrogateSystem:
    """Normal-form dynamics with the extended comet coupling on
    T^4 x R^2 x B^2 x B^2 (the two Keplerian actions are active):

        theta' = (omega_1 + d_r1 H, omega_2 + d_r2 H, 0, 0)
        xi'    = eta / M
        r'     = -d_(theta1,theta2) H_ex
        eta'   = -d_xi H_ex

    with H = omega.r + |eta|^2/2M + H_ex(theta, xi, r, t).
    State layout: [theta(4), xi(2), r(2), eta(2)].
    """

    def __init__(self, hex_field):
        self.hex = hex_field
        self.chart = hex_field.chart
        self.omega = self.chart.omega
        self.M = hex_field.masses.M

    def rhs(self, t, yflat):
        theta1, theta2, phase1, phase2, x, y, r1, r2, eta_x, eta_y = \
            yflat.tolist()
        (a1, a2), (gx, gy), (dr1, dr2) = self.hex._gradient(
            (theta1, theta2, phase1, phase2), (x, y), (r1, r2), t)
        return [self.chart.n1 + dr1, self.chart.n2 + dr2, 0.0, 0.0,
                eta_x / self.M, eta_y / self.M, -a1, -a2, -gx, -gy]

    def integrate(self, state0, t0, t1, tol=1e-9):
        """The trajectory at geometric times, forward from t0 to t1
        (dop853.check_span refuses any other span before the samples
        are built)."""
        check_span(t0, t1)
        ts = np.geomspace(t0, t1, SURROGATE_SAMPLES)
        sol = solve_ivp(self.rhs, (t0, t1), np.asarray(state0, float),
                        rtol=tol, atol=tol * 1e-3, t_eval=ts)
        return {"t": sol.t, "states": sol.y.T, "nfev": int(sol.nfev)}

    def leading_drift_momentum(self, theta, xi, t):
        """eta(t) = int_t^inf d_xi H_ex along the frozen rotation; the
        decaying-momentum initial condition of the transported section."""
        taus = np.geomspace(t, DRIFT_TAIL_FACTOR * t, DRIFT_NODES)
        theta, xi, omega = _floats(theta), _floats(xi), self.omega.tolist()
        vals = np.array([
            self.hex._gradient([a + w * (s - t) for a, w in zip(theta, omega)],
                               xi, (0.0, 0.0), s)[1]
            for s in taus.tolist()])
        acc = np.trapezoid(vals, taus, axis=0)
        # integrand ~ A/s^2 beyond the horizon: remaining mass A/T
        return acc + vals[-1] * taus[-1]


def asymptotic_metric(traj, omega, q0, t0):
    """Profile t -> |g(t) - phi0(psi^t(q0))| over traj = {"t", "states"}:
    psi^t turns the angles of q0 = (theta(4), xi(2)) by omega (t - t0),
    phi0 embeds at r = eta = 0, and the N_ANGLES angles compare modulo
    1.  The profile, its max and its final value are reported; no
    decay verdict is drawn from them.
    """
    ts = traj["t"]
    ref = np.zeros_like(traj["states"])
    ref[:, :len(q0)] = q0
    ref[:, :N_ANGLES] += np.multiply.outer(ts - t0, omega)
    d = traj["states"] - ref
    d[:, :N_ANGLES] = (d[:, :N_ANGLES] + 0.5) % 1.0 - 0.5
    # a dot per row, as np.linalg.norm of a vector (axis=1 sums otherwise)
    profile = np.sqrt([row.dot(row) for row in d])
    return {"t": ts.tolist(), "profile": profile.tolist(),
            "max": float(profile.max()),
            "final": float(profile[-1])}


def confinement_check(times, xi_values, comet, eps, C_bar):
    """|xi(t)| <= |xi(1)| + (1 + C_bar) ln t and |xi(t)|/|c(t)| < eps/6
    at every sample, in array passes; rows hold Python floats and bools,
    and first_violation is the first failing row (None when all pass)."""
    times = np.asarray(times, dtype=float)
    xi_norm = np.linalg.norm(np.asarray(xi_values, dtype=float), axis=1)
    log_bound = xi_norm[0] + (1.0 + C_bar) * np.log(times / times[0])
    ratio = xi_norm / np.array([comet.radius(t) for t in times.tolist()])
    ok = (xi_norm <= log_bound * (1 + 1e-9) + 1e-12) & (ratio < eps / 6.0)
    rows = [{"t": t, "xi": xn, "log_bound": b, "ratio": r, "pass": p}
            for t, xn, b, r, p in zip(times.tolist(), xi_norm.tolist(),
                                      log_bound.tolist(), ratio.tolist(),
                                      ok.tolist())]
    violation = next((row for row in rows if not row["pass"]), None)
    threshold = 12.0 * (1.0 + C_bar) / eps
    return {
        "pass": violation is None,
        "first_violation": violation,
        "v_asymptotic": comet.v_asymptotic,
        "v_threshold": threshold,
        "v_above_threshold": comet.v_asymptotic > threshold,
        "rows": rows,
    }
