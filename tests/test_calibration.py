"""Provenance of the frozen constants: the calibration sweeps, re-run,
stay at or below every value frozen in ``constants``."""

import pytest

from wacyl import calibration, constants

# sweep name -> the frozen constant that a key of its report calibrates
FROZEN_BY_SWEEP = {
    "smoothing": lambda key: ("CDOC", key),
    "norm_algebra": lambda key: ("CDOC", key),
    "flow": lambda key: ("FLOW_EXPONENTS", key),
    "homological": lambda key: ("HOMOLOGICAL", "c_estimate", key[1]),
    "hypotheses": lambda key: ("HYPOTHESES", key),
    "comet": lambda key: ("CELESTIAL_CK", key[1]),
}

# frozen by hand or from runs outside the sweeps
NOT_SWEPT = {
    ("FLOW_EXPONENTS", "c1"), ("FLOW_EXPONENTS", "cbarR1"),
    ("CELESTIAL_CK", 2), ("HOMOLOGICAL", "c_kappa"), ("MONITOR_C",),
    ("CDOC", ("product", 0)),
}


def frozen_constants():
    out = {("CDOC", key): v for key, v in constants.CDOC.items()}
    out.update({("FLOW_EXPONENTS", k): v
                for k, v in constants.FLOW_EXPONENTS.items()})
    out[("HOMOLOGICAL", "c_kappa")] = constants.HOMOLOGICAL["c_kappa"]
    out.update({("HOMOLOGICAL", "c_estimate", s): v
                for s, v in constants.HOMOLOGICAL["c_estimate"].items()})
    out.update({("HYPOTHESES", k): v
                for k, v in constants.HYPOTHESES.items()})
    out[("MONITOR_C",)] = constants.MONITOR_C
    out.update({("CELESTIAL_CK", k): v
                for k, v in constants.CELESTIAL_CK.items()})
    return out


@pytest.mark.slow
def test_sweeps_reproduce_frozen_constants():
    frozen = frozen_constants()
    produced = {}
    for sweep, values in calibration.run_all().items():
        for key, value in values.items():
            produced[FROZEN_BY_SWEEP[sweep](key)] = value
    assert set(produced) <= set(frozen)
    above = {name: (value, frozen[name]) for name, value in produced.items()
             if not value <= frozen[name]}
    assert not above, f"measured above frozen (measured, frozen): {above}"
    assert set(frozen) - set(produced) == NOT_SWEPT
