import numpy as np
import pytest

from wacyl.grids import GridFn, SpatialGrid, TimeGrid
from calibration import cdoc, compose_torus, composition_check, \
    convexity_check
from wacyl.norms import holder_norm, norm_algebra_check, product, \
    weighted_norm


def fn_grid(fn, torus_points=128, n_times=16, t_max=10.0, n=1):
    tg = TimeGrid(t_max, n_points=n_times)
    sg = SpatialGrid(n, torus_points)
    return GridFn.from_callable(sg, tg, fn)


def test_holder_constant():
    f = fn_grid(lambda q, t: 1.0 + 0 * q)
    assert holder_norm(f, 2.0)[0] == pytest.approx(1.0)


def test_holder_sin_first_derivative():
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q))
    assert holder_norm(f, 1.0)[0] == pytest.approx(2 * np.pi, rel=1e-10)


def test_holder_fractional_quotient_brute_force():
    # sup |f'| Hölder-1/2 quotient of sin(2 pi q) exceeds 2 pi; the
    # expected value comes from a dense pairwise sweep on the same grid
    N = 4096
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q), torus_points=N,
                n_times=2, t_max=1.2)
    got = holder_norm(f, 1.5)[0]
    q = np.arange(N) / N
    fp = 2 * np.pi * np.cos(2 * np.pi * q)
    best = 0.0
    for off in range(1, N // 2 + 1):
        d = min(off / N, 1 - off / N)
        best = max(best, np.abs(np.roll(fp, -off) - fp).max() / d ** 0.5)
    expected = max(2 * np.pi, best)
    assert got == pytest.approx(expected, rel=1e-12)


def test_holder_rejects_bad_sigma():
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q))
    with pytest.raises(ValueError):
        holder_norm(f, -1.0)


def test_weighted_norm_t_decay():
    f = fn_grid(lambda q, t: 1.0 / t + 0 * q)
    value = weighted_norm(f, 0, 1)
    assert type(value) is float
    assert value == pytest.approx(1.0, rel=1e-12)
    # profile is flat: t * (1/t) = 1 at every node
    assert all(abs(h * t - 1.0) < 1e-12
               for t, h in zip(f.times.points, holder_norm(f, 0)))


def test_weighted_norm_sin_over_t2():
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q) / t ** 2)
    assert weighted_norm(f, 0, 2) == pytest.approx(1.0, rel=1e-10)


def test_weighted_norm_derivative_dominates():
    f = fn_grid(lambda q, t: np.cos(2 * np.pi * q) / t)
    assert weighted_norm(f, 1, 1) == pytest.approx(
        2 * np.pi, rel=1e-10)


@pytest.mark.parametrize("sigma", [0.0, 1.5, 2.0])
def test_weighted_norm_of_a_zero_field(sigma):
    # an all-zero field skips holder_norm; its norm is the one the
    # spectral profile gives, zero at every node
    f = fn_grid(lambda q1, q2, t: np.zeros_like(q1), n=2, torus_points=16)
    value = weighted_norm(f, sigma, 1.0)
    assert type(value) is float and value == 0.0
    assert holder_norm(f, sigma) == [0.0] * len(f.times)


def test_weighted_norm_rejects_bad_params():
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q))
    with pytest.raises(ValueError):
        weighted_norm(f, 1, -0.5)


def test_l_monotonicity_exact():
    # t >= 1 forces |f|_{sigma,l} <= |f|_{sigma,l+m} node by node
    rng = np.random.default_rng(5)
    for _ in range(4):
        amp = rng.standard_normal(5)

        def fn(q, t, amp=amp):
            acc = 0.0
            for k, a in enumerate(amp):
                acc = acc + a * np.sin(2 * np.pi * (k + 1) * q)
            return acc / t ** rng.uniform(0.5, 2.0)

        f = fn_grid(fn, torus_points=64)
        lo = weighted_norm(f, 1, 1)
        hi = weighted_norm(f, 1, 2)
        assert lo <= hi * (1 + 1e-12)


def test_derivative_restriction_exact():
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q) / t, torus_points=64)
    for s, beta in ((1.0, 1), (0.0, 2)):
        df = f
        for _ in range(beta):
            df = df.dq(0)
        assert weighted_norm(df, s, 1) <= \
            weighted_norm(f, s + beta, 1) * (1 + 1e-12)


def test_product_trivial():
    one = fn_grid(lambda q, t: 1.0 + 0 * q, torus_points=32)
    fg = product(one, one)
    num = weighted_norm(fg, 2, 2)
    den = (weighted_norm(one, 0, 1) * weighted_norm(one, 2, 1)
           + weighted_norm(one, 2, 1)
           * weighted_norm(one, 0, 1))
    assert num <= den


def test_norm_algebra_check_full():
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q) / t, torus_points=64)
    g = fn_grid(lambda q, t: np.cos(2 * np.pi * q) / t, torus_points=64)
    u = fn_grid(lambda q, t: 0.03 * np.sin(2 * np.pi * q) / t,
                torus_points=64)
    rep = {**norm_algebra_check(f, g, 2.0, 1.0, 1.0),
           **composition_check(f, u, 2.0, 1.0, 1.0)}
    # the derivative restriction and l-monotonicity hold for every
    # input (test_derivative_restriction_exact, test_l_monotonicity_exact)
    assert set(rep) == {"product_ratio", "composition_ratio"}
    assert rep["product_ratio"] <= cdoc("product", 2)
    assert rep["composition_ratio"] <= cdoc("composition", 2)
    # direct-evaluation oracle for the product norm
    fg = product(f, g)
    direct = weighted_norm(fg, 2, 2)
    half_angle = fn_grid(lambda q, t: 0.5 * np.sin(4 * np.pi * q) / t ** 2,
                         torus_points=64)
    assert direct == pytest.approx(
        weighted_norm(half_angle, 2, 2), rel=1e-10)


def test_norm_algebra_grid_mismatch():
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q), torus_points=64)
    g = fn_grid(lambda q, t: np.sin(2 * np.pi * q), torus_points=32)
    with pytest.raises(ValueError):
        norm_algebra_check(f, g, 1.0, 1.0, 1.0)


def test_convexity_endpoints_exact():
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q) / t, torus_points=64)
    assert convexity_check(f, 0.0, 2.0, 0.0)["ratio"] == pytest.approx(1.0)
    assert convexity_check(f, 0.0, 2.0, 1.0)["ratio"] == pytest.approx(1.0)


def test_convexity_interior_bounded():
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q) / t, torus_points=64)
    rep = convexity_check(f, 0.0, 2.0, 0.5, l=1.0)
    assert rep["ratio"] <= cdoc("convexity")
    with pytest.raises(ValueError):
        convexity_check(f, 2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        convexity_check(f, 0.0, 2.0, 1.5)


def test_compose_torus_shift():
    # composing with a constant shift equals sampling the shifted wave
    f = fn_grid(lambda q, t: np.sin(2 * np.pi * q) / t, torus_points=64)
    u = fn_grid(lambda q, t: 0.25 + 0 * q, torus_points=64)
    fz = compose_torus(f, u)
    want = fn_grid(lambda q, t: np.sin(2 * np.pi * (q + 0.25)) / t,
                   torus_points=64)
    assert np.abs(fz.values - want.values).max() < 1e-10
