"""Provenance of the frozen constants: the calibration sweeps, re-run,
stay at or below every value frozen in ``wacyl.constants`` and in
``calibration``."""

import ast
from pathlib import Path

import pytest

import calibration
from wacyl import cli, constants, homological

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
NOT_SWEPT = {("HOMOLOGICAL", "c_kappa"), ("MONITOR_C",)}


def frozen_constants():
    """Every frozen constant: those a command reads, from
    wacyl.constants, and those only the calibration checks read, frozen
    with them in calibration; a CDOC key is frozen in one of the two."""
    assert not constants.CDOC.keys() & calibration.CDOC.keys()
    out = {("CDOC", key): v
           for key, v in {**constants.CDOC, **calibration.CDOC}.items()}
    out.update({("FLOW_EXPONENTS", k): v
                for k, v in constants.FLOW_EXPONENTS.items()})
    out[("FLOW_EXPONENTS", "cbar1")] = calibration.CBAR1
    out[("HOMOLOGICAL", "c_kappa")] = constants.HOMOLOGICAL["c_kappa"]
    out.update({("HOMOLOGICAL", "c_estimate", s): v
                for s, v in constants.HOMOLOGICAL["c_estimate"].items()})
    out.update({("HYPOTHESES", k): v
                for k, v in calibration.HYPOTHESES.items()})
    out[("MONITOR_C",)] = constants.MONITOR_C
    out.update({("CELESTIAL_CK", k): v
                for k, v in calibration.CELESTIAL_CK.items()})
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


def test_verify_norms_reads_every_cdoc_entry(tmp_path, monkeypatch):
    # wacyl.constants holds what a command reads: verify-norms reads
    # every CDOC entry, and an entry only the tests read lives in
    # calibration.CDOC
    read = set()
    cdoc = constants.cdoc

    def recording(kind, *key):
        read.add((kind,) + key)
        return cdoc(kind, *key)

    monkeypatch.setattr(constants, "cdoc", recording)
    assert cli.main(["--out", str(tmp_path), "--set", "norms.trials=1",
                     "verify-norms"]) == cli.EXIT_PASS
    assert read == set(constants.CDOC)


def test_flow_sweep_reads_gronwall_diagnostics(monkeypatch):
    # the sweep's constants are the exponents gronwall_diagnostics
    # reports, over mu (0.9 mu for R), times SAFETY
    calls = []

    def stub(F, g, mu, sample_points, time_pairs):
        calls.append((mu, list(time_pairs)))
        return {"flow_exponent": 0.007, "R_exponent": 0.011}

    monkeypatch.setattr(calibration, "gronwall_diagnostics", stub)
    out = calibration.sweep_flow_exponents()
    mus = [mu for mu, _ in calls]
    assert len(mus) == 3
    assert all(pairs == [(t, 1.0) for t in (2, 4, 8, 16)]
               for _, pairs in calls)
    c_psi = max(0.007 / mu for mu in mus)
    c_R = max(0.011 / (0.9 * mu) for mu in mus)
    assert out == {"cbar1": c_psi * calibration.SAFETY,
                   "cR0": c_R * calibration.SAFETY}


def test_homological_sweep_reads_estimate_check(monkeypatch):
    # the implied c_estimate is measured * c_estimate / bound of
    # estimate_check, the worst per sigma, times SAFETY
    sigmas = []

    def stub(sol, p):
        sigmas.append(p.sigma)
        return {"measured": 2.0, "c_estimate": 1.5 + p.sigma, "bound": 3.0}

    monkeypatch.setattr(homological, "estimate_check", stub)
    out = calibration.sweep_homological()
    assert sorted(sigmas) == [0.0] * 5 + [1.0] * 5 + [2.0] * 5
    assert out == {("c_estimate", s): 2.0 * (1.5 + s) / 3.0
                   * calibration.SAFETY for s in (0, 1, 2)}


def test_calibration_imports_no_private_name():
    # the sweeps measure through the public checks, not copies of their
    # internals
    tree = ast.parse(Path(calibration.__file__).read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("wacyl"))
               for alias in node.names if alias.name.startswith("_")]
    assert not private
