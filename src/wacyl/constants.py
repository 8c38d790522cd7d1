"""Frozen calibrated constants.

The underlying estimates assert existence of constants without giving
numbers.  The values below were produced once by the seeded corpus
sweeps in ``calibration.py`` (maximum measured ratio plus margin) and
then frozen; tests compare measured ratios against these.  They are
calibrated metadata, not derived quantities, and every report that uses
them says so.
"""

from __future__ import annotations

__all__ = ["CDOC", "FLOW_EXPONENTS", "HOMOLOGICAL", "HYPOTHESES",
           "MONITOR_C", "CELESTIAL_CK", "cdoc", "c_kappa", "c_estimate"]

# Smoothing and norm-calculus ratio bounds over the seeded 32-mode
# corpus (calibration.sweep_smoothing / sweep_norm_algebra).  The S1
# constants carry the (2 pi)^(m-d) factor between derivative norms and
# the cycles-per-period frequency scale of the multiplier plateau; a
# single mode k held at tau = 2k saturates pi^(m-d), which the frozen
# values cover.
CDOC = {
    ("S1", 2, 0): 10.4,
    ("S1", 4, 1): 36.0,
    ("S1", 6, 2): 205.0,
    ("S2", 2, 0): 0.030,
    ("S2", 4, 1): 0.0060,
    ("S2", 6, 2): 0.0012,
    ("product", 1): 1.0,
    ("product", 2): 1.0,
    ("composition", 1): 1.0,
    ("composition", 2): 1.0,
    ("convexity",): 1.10,
}

# Gronwall-type growth exponents of the flow and fundamental matrix
# (calibration.sweep_flow_exponents): fitted exponent <= constant * mu.
FLOW_EXPONENTS = {
    "cbar1": 0.30,   # |d_q psi^t_t0|_{C^0} <= C (t/t0)^(cbar1 mu)
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

# Solvability-hypotheses constants over the zeta-ball corpus
# (calibration.sweep_hypotheses): first/second differential bound,
# Lipschitz ratio in the data, and the tame ratio.
HYPOTHESES = {"H1": 2.0, "H2": 1.5, "H4": 2.0}

# Envelope prefactor for the low-norm step bound in the iteration
# monitor; calibrated alongside the manufactured runs.
MONITOR_C = 5.0

# Comet interaction decay: sup_t |d^k H_c^t| (t^2-weighted for the
# gradient) <= C(k) M m_c eps over compliant orbits
# (calibration.sweep_comet_decay).
CELESTIAL_CK = {0: 0.40, 1: 0.40}


def cdoc(kind, *key):
    return CDOC[(kind,) + key]


def c_kappa(sigma):
    return HOMOLOGICAL["c_kappa"][int(round(sigma))]


def c_estimate(sigma):
    return HOMOLOGICAL["c_estimate"][int(round(sigma))]
