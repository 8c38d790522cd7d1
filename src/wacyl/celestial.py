"""Planar three-body problem with a prescribed hyperbolic comet.

Coordinates and splitting, comet ephemeris, interaction-decay
diagnostics, the cutoff extension of the interaction through a
surrogate torus chart, trajectory integration, and the convergence
metrics of weakly asymptotic dynamics.

The invariant torus of the unperturbed system is not computable at
desk scale; a synthetic integrable normal form and a hierarchical
circular-circular chart stand in for it, and every report derived from
them says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .dop853 import solve_ivp
from .flow import IntegrationError
from .smoothing import _ramp, _ramp_derivative

__all__ = ["Masses", "CometOrbit", "CartesianState", "SplitCoords",
           "ExtensionParams", "solve_hyperbolic_kepler",
           "check_speed_window", "split_coordinates",
           "eval_H0_cartesian", "eval_H0_split", "eval_Hc", "grad_Hc",
           "hess_Hc", "decay_diagnostics", "extend_Hc",
           "CircularChart", "HExtension", "SurrogateSystem",
           "integrate_system", "asymptotic_metric", "confinement_check"]


@dataclass
class Masses:
    m0: float
    m1: float
    m2: float
    mc: float = 0.0

    def __post_init__(self):
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


@dataclass
class CartesianState:
    x: np.ndarray     # (3, 2) positions
    y: np.ndarray     # (3, 2) momentum covectors


@dataclass
class SplitCoords:
    X: np.ndarray     # (3, 2): X0 center of mass, X1, X2 relative
    Y: np.ndarray     # (3, 2): Y0 total momentum, Y1, Y2


# the cutoff of the extension is 1 for |xi| below CUTOFF_INNER epsilon r
# and 0 above CUTOFF_OUTER epsilon r, r the comet distance
CUTOFF_INNER = 1.0 / 6.0
CUTOFF_OUTER = 1.0 / 3.0


@dataclass
class ExtensionParams:
    epsilon: float

    def __post_init__(self):
        if not (0 < self.epsilon <= 0.5):
            raise ValueError(
                f"epsilon must lie in (0, 1/2] (got {self.epsilon})")


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

    @property
    def v_asymptotic(self):
        return math.sqrt(self.mu_grav / self.a_h)

    def anomaly(self, t):
        return solve_hyperbolic_kepler(
            self.e, self.mean_motion * (t - self.t_peri))

    def _ephemeris(self, t):
        """c(t) as two floats and |c(t)|, from one solve of the Kepler
        equation."""
        H = self.anomaly(t)
        ch = math.cosh(H)
        return (self.a_h * (self.e - ch),
                self.a_h * math.sqrt(self.e ** 2 - 1.0) * math.sinh(H),
                self.a_h * (self.e * ch - 1.0))

    def position(self, t):
        """c(t) as a (2,) array."""
        cx, cy, _ = self._ephemeris(t)
        return np.array([cx, cy])

    def radius(self, t):
        return self._ephemeris(t)[2]

    def _radial(self, t):
        """|c(t)| and d|c|/dt, from one solve of the Kepler equation."""
        H = self.anomaly(t)
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
# -m_i m_j / |x_i - x_j| to the energy.

def _comet_pull(x0, y0, x1, y1, x2, y2, cx, cy, mmc):
    """The comet at (cx, cy) on the three bodies, mmc the body-comet
    products (_mass_products), over the pairs (0, c), (1, c), (2, c).

    Returns the forces on the bodies as (f0x, f0y, f1x, f1y, f2x, f2y),
    the interaction energy -sum m_i m_c / |x_i - c| and the smallest
    body-comet distance.
    """
    mm0, mm1, mm2 = mmc
    dmin = math.inf
    rx, ry = x0 - cx, y0 - cy
    d0 = math.sqrt(rx * rx + ry * ry)
    if d0 == 0:
        raise ZeroDivisionError("collision configuration")
    d3 = d0 ** 3
    fx0, fy0 = mm0 * rx / d3, mm0 * ry / d3
    if d0 < dmin:
        dmin = d0
    rx, ry = x1 - cx, y1 - cy
    d1 = math.sqrt(rx * rx + ry * ry)
    if d1 == 0:
        raise ZeroDivisionError("collision configuration")
    d3 = d1 ** 3
    fx1, fy1 = mm1 * rx / d3, mm1 * ry / d3
    if d1 < dmin:
        dmin = d1
    rx, ry = x2 - cx, y2 - cy
    d2 = math.sqrt(rx * rx + ry * ry)
    if d2 == 0:
        raise ZeroDivisionError("collision configuration")
    d3 = d2 ** 3
    fx2, fy2 = mm2 * rx / d3, mm2 * ry / d3
    if d2 < dmin:
        dmin = d2
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
        if d01 == 0 or d02 == 0 or d12 == 0:
            raise ZeroDivisionError("collision configuration")
        h0.append(kinetic - mm01 / d01 - mm02 / d02 - mm12 / d12)
    return h0[0] if np.ndim(state.x) == 2 else np.array(h0)


def eval_H0_split(sc, masses):
    """|Y0|^2/2M plus the translation-reduced Hamiltonian K."""
    X, Y = sc.X, sc.Y
    for v in (X[1], X[2], X[2] - X[1]):
        if np.linalg.norm(v) == 0:
            raise ZeroDivisionError("collision configuration")
    H = (Y[0] ** 2).sum() / (2 * masses.M)
    H += (Y[1] ** 2).sum() / (2 * masses.mu1) \
        - masses.m0 * masses.m1 / np.linalg.norm(X[1])
    H += (Y[2] ** 2).sum() / (2 * masses.mu2) \
        - masses.m0 * masses.m2 / np.linalg.norm(X[2])
    H += (Y[1] * Y[2]).sum() / masses.m0 \
        - masses.m1 * masses.m2 / np.linalg.norm(X[2] - X[1])
    return float(H)


# eval_Hc, grad_Hc and hess_Hc refuse a body closer than this to the comet
HC_PROXIMITY = 1e-9


def _comet_gravity(positions, c, masses):
    """_comet_pull with the comet at c, an (x, y) pair, on the bodies
    at positions, (3, 2) or flat; refuses a body within HC_PROXIMITY of
    the comet."""
    x = np.asarray(positions, dtype=float).ravel().tolist()
    cx, cy = _floats(c)
    try:
        out = _comet_pull(*x, cx, cy, _mass_products(masses)[1])
        dmin = out[2]
    except ZeroDivisionError:
        # a body on the comet, or so close that d^3 underflows to 0
        dmin = min(math.hypot(x[k] - cx, x[k + 1] - cy) for k in (0, 2, 4))
    if dmin < HC_PROXIMITY:
        raise ZeroDivisionError(
            f"a body is {dmin:.3e} from the comet (limit {HC_PROXIMITY})")
    return out


def eval_Hc(positions, c, masses):
    """Interaction with the comet at c: - sum_i m_i m_c / |x_i - c|."""
    return _comet_gravity(positions, c, masses)[1]


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


def decay_diagnostics(sampler, comet, masses, eps, k, t_grid,
                      n_samples=40, seed=0):
    """sup over the admissible region of |H_c^t| and |d_x H_c^t| t^2
    (plus second derivatives when k = 1), against C(k) M m_c eps for
    k in {0, 1}, the orders constants.CELESTIAL_CK holds.

    sampler(rng, t) must yield position triples inside the region
    |x_i|/|c(t)| < eps; configurations violating it are refused.  c(t)
    comes from one Kepler solve per time node.
    """
    rng = np.random.default_rng(seed)
    Ck = constants.CELESTIAL_CK[k]
    scale = Ck * masses.M * masses.mc * eps
    rows = []
    sup_h, sup_g = 0.0, 0.0
    for t in t_grid:
        *c, rt = comet._ephemeris(t)
        h_t, g_t = 0.0, 0.0
        for _ in range(n_samples):
            pos = np.asarray(sampler(rng, t), dtype=float)
            if (np.linalg.norm(pos, axis=1) / rt >= eps).any():
                raise ValueError(
                    "sampler left the admissible region |x|/|c(t)| < eps")
            h_t = max(h_t, abs(eval_Hc(pos, c, masses)))
            g = np.abs(grad_Hc(pos, c, masses)).max()
            if k >= 1:
                g = max(g, np.abs(hess_Hc(pos, c, masses)).max())
            g_t = max(g_t, g)
        sup_h = max(sup_h, h_t)
        sup_g = max(sup_g, g_t * t ** 2)
        rows.append({"t": float(t), "sup_Hc": h_t,
                     "sup_gradHc_t2": g_t * t ** 2})
    return {
        "k": k, "eps": eps, "bound": scale,
        "sup_Hc": sup_h, "sup_Hc_pass": sup_h <= scale,
        "sup_gradHc_t2": sup_g, "sup_grad_pass": sup_g <= scale,
        "rows": rows, "constants_source": "calibrated",
        "pass": sup_h <= scale and sup_g <= scale,
    }


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

    _circles, _positions and _pullback work on Python floats, with
    positions and covectors on them flat, [x0, y0, x1, y1, x2, y2], the
    layout in which _comet_pull takes positions and gives forces, since
    numpy's per-call overhead dominates on 2-vectors; positions and
    momenta wrap their results in arrays once.
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
        # the (a_i, b_i) of positions
        m = masses
        self._ab = ((m.m1, m.m2), (-(m.m0 + m.m2), m.m2),
                    (m.m1, -(m.m0 + m.m1)))
        # positions are A^-1 (xi, X1, X2), so covectors on them pull
        # back to (xi, X1, X2) by A^-T = B, the momentum split
        self._B = _split_matrices(masses)[1].tolist()

    def _circles(self, theta, r):
        """cos, sin and radius of circle 1, then of circle 2."""
        ang1 = 2 * math.pi * (theta[0] + theta[2])
        ang2 = 2 * math.pi * (theta[1] + theta[3])
        return (math.cos(ang1), math.sin(ang1),
                self.a1 * (1.0 + self.kappa * r[0]),
                math.cos(ang2), math.sin(ang2),
                self.a2 * (1.0 + self.kappa * r[1]))

    def _positions(self, circles, xi):
        """The three body positions, flat."""
        c1, s1, rad1, c2, s2, rad2 = circles
        X1x, X1y, X2x, X2y = rad1 * c1, rad1 * s1, rad2 * c2, rad2 * s2
        x, y = xi
        M = self.masses.M
        out = []
        for a, b in self._ab:
            out += (x + (a * X1x + b * X2x) / M, y + (a * X1y + b * X2y) / M)
        return out

    def _pullback(self, circles, dx):
        """A covector dx on the body positions, flat, pulled back:
        ((a1, a2), d_xi, d_r) with d_theta = (a1, a2, a1, a2)."""
        c1, s1, rad1, c2, s2, rad2 = circles
        u0, v0, u1, v1, u2, v2 = dx
        d_xi, (g1x, g1y), (g2x, g2y) = [
            (b0 * u0 + b1 * u1 + b2 * u2, b0 * v0 + b1 * v1 + b2 * v2)
            for b0, b1, b2 in self._B]
        # X_k = rad_k e_k, and d e_k / d theta is 2 pi e_k turned a quarter
        a1 = 2 * math.pi * rad1 * (g1y * c1 - g1x * s1)
        a2 = 2 * math.pi * rad2 * (g2y * c2 - g2x * s2)
        return ((a1, a2), d_xi,
                (self.kappa * (self.a1 * (g1x * c1 + g1y * s1)),
                 self.kappa * (self.a2 * (g2x * c2 + g2y * s2))))

    def positions(self, theta, xi, r):
        """Cartesian body positions x_i = xi + (a_i X1 + b_i X2) / M."""
        return np.array(self._positions(
            self._circles(_floats(theta), _floats(r)),
            _floats(xi))).reshape(3, 2)

    def momenta(self, theta, r, eta):
        """Covector momenta of the two circles plus the drift eta."""
        m = self.masses
        c1, s1, rad1, c2, s2, rad2 = self._circles(_floats(theta),
                                                   _floats(r))
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
    eps |c(t)|/3, with a quintic C^2 radial ramp in between.  Like the
    chart, it evaluates on Python floats.
    """

    def __init__(self, params, comet, masses, chart):
        self.params = params
        self.comet = comet
        self.masses = masses
        self.chart = chart
        self._mmc = _mass_products(masses)[1]

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
        cx, cy, radius = self.comet._ephemeris(t)
        x, y = xi = _floats(xi)
        w = self._weight(xi, radius)[0]
        pos = self.chart._positions(
            self.chart._circles(_floats(theta), _floats(r)), (x * w, y * w))
        return eval_Hc(pos, (cx, cy), self.masses)

    def _gradient(self, theta, xi, r, t):
        """Exact gradient of value by the chain rule through grad_Hc,
        the chart Jacobian and the cutoff, on float sequences theta, xi,
        r: ((a1, a2), d_xi, d_r) with d_theta = (a1, a2, a1, a2)."""
        cx, cy, radius = self.comet._ephemeris(t)
        w, dw = self._weight(xi, radius)
        x, y = xi
        circles = self.chart._circles(theta, r)
        force = _comet_pull(
            *self.chart._positions(circles, (x * w, y * w)), cx, cy,
            self._mmc)[0]
        # grad_Hc: minus the comet's pull on each body
        d_theta, (gx, gy), d_r = self.chart._pullback(
            circles, [-f for f in force])
        # d (xi w(|xi|)) / d xi = w I + (w'(|xi|) / |xi|) xi xi^T
        s = dw * (gx * x + gy * y)
        return d_theta, (w * gx + s * x, w * gy + s * y), d_r


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

    rhs.min_distance(t, y) is the smallest pair distance at (t, y).  On
    the y and t of the last rhs call it reuses that call's force pass:
    DOP853 evaluates its event on the state its last stage just saw.
    """
    m0, m1, m2 = masses.as_array().tolist()
    (mm01, mm02, mm12), mmc = _mass_products(masses)
    if not (masses.mc > 0 and comet is not None):
        comet = None
    last_t = last_y = None            # the state of the last force pass
    last_dmin = math.inf              # and its smallest pair distance

    def rhs(t, yflat):
        nonlocal last_t, last_y, last_dmin
        x0, y0, x1, y1, x2, y2, p0x, p0y, p1x, p1y, p2x, p2y = \
            yflat.tolist()
        rx, ry = x0 - x1, y0 - y1
        d01 = math.sqrt(rx * rx + ry * ry)
        if d01 == 0:
            raise ZeroDivisionError("collision configuration")
        d3 = d01 ** 3
        fx01, fy01 = mm01 * rx / d3, mm01 * ry / d3
        rx, ry = x0 - x2, y0 - y2
        d02 = math.sqrt(rx * rx + ry * ry)
        if d02 == 0:
            raise ZeroDivisionError("collision configuration")
        d3 = d02 ** 3
        fx02, fy02 = mm02 * rx / d3, mm02 * ry / d3
        rx, ry = x1 - x2, y1 - y2
        d12 = math.sqrt(rx * rx + ry * ry)
        if d12 == 0:
            raise ZeroDivisionError("collision configuration")
        d3 = d12 ** 3
        fx12, fy12 = mm12 * rx / d3, mm12 * ry / d3
        f0x, f0y = (0.0 - fx01) - fx02, (0.0 - fy01) - fy02
        f1x, f1y = (0.0 + fx01) - fx12, (0.0 + fy01) - fy12
        f2x, f2y = (0.0 + fx02) + fx12, (0.0 + fy02) + fy12
        # from math.inf, so that a nan distance is passed over
        dmin = math.inf
        if d01 < dmin:
            dmin = d01
        if d02 < dmin:
            dmin = d02
        if d12 < dmin:
            dmin = d12
        if comet is not None:
            cx, cy = comet.position(t).tolist()
            (g0x, g0y, g1x, g1y, g2x, g2y), _, dc = _comet_pull(
                x0, y0, x1, y1, x2, y2, cx, cy, mmc)
            # a + (0.0 - f) is a - f: the bytes of one pass over all pairs
            f0x, f0y, f1x, f1y, f2x, f2y = (f0x + g0x, f0y + g0y, f1x + g1x,
                                            f1y + g1y, f2x + g2x, f2y + g2y)
            if dc < dmin:
                dmin = dc
        last_t, last_y, last_dmin = t, yflat, dmin
        return [p0x / m0, p0y / m0, p1x / m1, p1y / m1, p2x / m2, p2y / m2,
                f0x, f0y, f1x, f1y, f2x, f2y]

    def min_distance(t, y):
        if not (y is last_y and t == last_t):
            rhs(t, y)
        return last_dmin

    rhs.min_distance = min_distance
    return rhs


# integrate_system samples its trajectory at TRAJECTORY_SAMPLES uniform
# times and aborts once two bodies come closer than PROXIMITY;
# SurrogateSystem.integrate samples at SURROGATE_SAMPLES geometric times
TRAJECTORY_SAMPLES = 200
PROXIMITY = 1e-4
SURROGATE_SAMPLES = 120


def integrate_system(state0, comet, masses, t0, t1, tol=1e-11):
    """Trajectory of the full time-dependent system with energy-drift
    reporting; aborts with a timestamp on close encounters."""
    if not t1 > t0:
        raise ValueError(f"need t1 > t0 (got t0 = {t0}, t1 = {t1})")
    if not min(masses.m1, masses.m2) > 0:
        raise ValueError(f"the Cartesian velocities y / m need m1, m2 > 0 "
                         f"(got m1 = {masses.m1}, m2 = {masses.m2})")
    rhs = _cartesian_rhs(masses, comet)
    y0 = np.concatenate([state0.x.ravel(), state0.y.ravel()])

    def encounter(t, y):
        return rhs.min_distance(t, y) - PROXIMITY

    ts = np.linspace(t0, t1, TRAJECTORY_SAMPLES)
    sol = solve_ivp(rhs, (t0, t1), y0, rtol=tol, atol=tol * 1e-2, t_eval=ts,
                    events=encounter)
    if not sol.success:
        raise IntegrationError(f"trajectory failed: {sol.message}")
    if sol.t_events[0].size:
        raise IntegrationError(
            f"close encounter at t = {sol.t_events[0][0]:.6f}")
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
        if not t1 > t0:
            raise ValueError(f"need t1 > t0 (got t0 = {t0}, t1 = {t1})")
        ts = np.geomspace(t0, t1, SURROGATE_SAMPLES)
        sol = solve_ivp(self.rhs, (t0, t1), np.asarray(state0, float),
                        rtol=tol, atol=tol * 1e-3, t_eval=ts)
        if not sol.success:
            raise IntegrationError(sol.message)
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
