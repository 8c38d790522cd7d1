"""Frozen calibrated constants that a command reads.

The underlying estimates assert existence of constants without giving
numbers.  The values below were produced once by the seeded corpus
sweeps in ``tests/calibration.py`` (maximum measured ratio plus margin)
and then frozen; tests compare measured ratios against these.  They are
calibrated metadata, not derived quantities, and every report that uses
them says so.  A constant that no command reads is frozen with the
calibration checks, in ``tests/calibration.py``: among the smoothing and
norm-calculus bounds, ``verify-norms`` reads the (2, 0) and (4, 1)
smoothing pairs and the sigma = 2 product bound alone.
"""

from __future__ import annotations

__all__ = ["CDOC", "FLOW_EXPONENTS", "HOMOLOGICAL", "MONITOR_C", "cdoc",
           "c_kappa", "c_estimate"]

# Smoothing and product ratio bounds that verify-norms checks, over the
# seeded 32-mode corpus (calibration.sweep_smoothing /
# sweep_norm_algebra).  The S1 constants carry the (2 pi)^(m-d) factor
# between derivative norms and the cycles-per-period frequency scale of
# the multiplier plateau; a single mode k held at tau = 2k saturates
# pi^(m-d), which the frozen values cover.
CDOC = {
    ("S1", 2, 0): 10.4,
    ("S1", 4, 1): 36.0,
    ("S2", 2, 0): 0.030,
    ("S2", 4, 1): 0.0060,
    ("product", 2): 1.0,
}

# Gronwall-type growth exponent of the fundamental matrix
# (calibration.sweep_flow_exponents): fitted exponent <= constant * mu;
# the flow Jacobian's cbar1 is frozen with the sweep.
FLOW_EXPONENTS = {
    "cR0": 1.20,     # |R^t_tau|_{C^0} <= (tau/t)^(cR0 mu)
}

# Transport-solution constants, per reported sigma
# (calibration.sweep_homological).  c_kappa gates the mu budget
# (conservative upper bounds for the measured exponent chain); the
# constant-in-q case saturates c_estimate at 1.
HOMOLOGICAL = {
    "c_kappa": {0: 2.5, 1: 4.0, 2: 6.0},
    "c_estimate": {0: 1.25, 1: 1.25, 2: 1.25},
}

# Envelope prefactor for the low-norm step bound in the iteration
# monitor; calibrated alongside the manufactured runs.
MONITOR_C = 5.0


def cdoc(kind, *key):
    return CDOC[(kind,) + key]


def c_kappa(sigma):
    return HOMOLOGICAL["c_kappa"][int(round(sigma))]


def c_estimate(sigma):
    return HOMOLOGICAL["c_estimate"][int(round(sigma))]
