import numpy as np
import pytest

from calibration import cdoc, corpus_32
from wacyl.grids import GridFn, SpatialGrid, TimeGrid
from wacyl.norms import weighted_norm
from wacyl.smoothing import _chop, multiplier_profile, smooth, \
    verify_smoothing_bounds


def fn_grid(fn, torus_points=128, n_times=8, t_max=10.0):
    tg = TimeGrid(t_max, n_points=n_times)
    sg = SpatialGrid(1, torus_points)
    return GridFn.from_callable(sg, tg, fn)


def test_multiplier_plateau_and_support():
    u = np.array([0.0, 0.25, 0.5, 0.6, 0.99, 1.0, 3.0])
    m = multiplier_profile(u)
    assert m[0] == 1.0 and m[1] == 1.0 and m[2] == 1.0
    assert 0.0 < m[3] < 1.0 and 0.0 < m[4] < 1.0
    assert m[5] == 0.0 and m[6] == 0.0
    # C^2 ramp: symmetric about the midpoint
    assert multiplier_profile(np.array([0.75]))[0] == pytest.approx(0.5)


def test_constant_preserved():
    c = fn_grid(lambda q, t: 2.5 + 0 * q)
    assert np.array_equal(smooth(c, 1.0).values, c.values)


def test_all_zero_field_returned_with_the_fft_route_values():
    # S_tau 0 = 0 without a transform: the values and spectrum are those
    # the route through rfft, _chop and irfft gives
    z = GridFn.zeros(SpatialGrid(2, 16), TimeGrid(10.0, n_points=6), 2)
    tau = 5.0
    out = smooth(z, tau)
    assert out is z
    spec = z.spectrum()
    radius = np.sqrt(sum(k ** 2 for k in z.grid.torus_mesh()))
    mult = multiplier_profile(radius / tau)[None, ..., None]
    values = z.values + z.grid.torus_irfft(_chop(spec) * (mult - 1.0))
    assert out.values.tobytes() == values.tobytes()
    # equal, though not in the sign of every zero: the rfft of zeros
    # holds some -0.0 that the product with mult turns into +0.0
    assert np.array_equal(out.spectrum(), spec * mult)


def test_plateau_mode_unchanged_bit_exact():
    f = fn_grid(lambda q, t: np.cos(2 * np.pi * 3 * q) / t)
    assert np.array_equal(smooth(f, 8.0).values, f.values)


def test_support_mode_killed():
    f = fn_grid(lambda q, t: np.cos(2 * np.pi * 9 * q) / t)
    assert np.abs(smooth(f, 8.0).values).max() < 1e-13


def test_rejects_bad_tau():
    f = fn_grid(lambda q, t: np.cos(2 * np.pi * q))
    with pytest.raises(ValueError):
        smooth(f, 0.0)


def test_linearity_machine_precision():
    f = fn_grid(lambda q, t: np.cos(2 * np.pi * 3 * q) / t)
    g = fn_grid(lambda q, t: np.sin(2 * np.pi * 7 * q) / t ** 2)
    h = GridFn(f.grid, f.times, 0.3 * f.values + 1.7 * g.values)
    lhs = smooth(h, 10.0).values
    rhs = 0.3 * smooth(f, 10.0).values + 1.7 * smooth(g, 10.0).values
    assert np.abs(lhs - rhs).max() < 1e-13


def test_commutes_with_spatial_derivative():
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * 5 * q) / t)
    lhs = smooth(f.dq(0), 12.0).values
    rhs = smooth(f, 12.0).dq(0).values
    bound = 1e-10 * weighted_norm(f, 1, 0)
    assert np.abs(lhs - rhs).max() <= bound


def test_s2_numerator_exactly_zero_on_plateau_band():
    # all modes within |k| <= tau/2: the remainder vanishes identically
    f = fn_grid(lambda q, t: (np.sin(2 * np.pi * q)
                              + 0.3 * np.cos(2 * np.pi * 3 * q)) / t)
    rep = verify_smoothing_bounds(f, 8.0, 2, 0)
    assert rep["remainder_norm_low"] == 0.0
    assert rep["ratio_S2"] == 0.0


def test_single_mode_ratio_sharp_constant():
    # with the cycles-frequency plateau the sharp single-mode S1 factor
    # is pi^(m-d); the documented constants cover it
    for k, tau in ((1, 2.0), (2, 4.0), (3, 8.0)):
        f = fn_grid(lambda q, t, k=k: np.sin(2 * np.pi * k * q) / t)
        for (m, d) in ((2, 0), (4, 1)):
            rep = verify_smoothing_bounds(f, tau, m, d)
            assert rep["ratio_S1"] <= np.pi ** (m - d) * (1 + 1e-9)
            assert rep["ratio_S1"] <= cdoc("S1", m, d)


def test_corpus_ratios_within_frozen_constants():
    # the frozen C_doc values were swept on this corpus (same seed)
    for f in corpus_32(20240901, n_fns=3):
        for tau in (8.0, 16.0, 32.0, 64.0):
            for (m, d) in ((2, 0), (4, 1), (6, 2)):
                rep = verify_smoothing_bounds(f, tau, m, d)
                assert rep["ratio_S1"] <= cdoc("S1", m, d)
                assert rep["ratio_S2"] <= cdoc("S2", m, d)


def test_verify_bounds_rejects_d_above_m():
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q))
    with pytest.raises(ValueError):
        verify_smoothing_bounds(f, 8.0, 1, 2)
