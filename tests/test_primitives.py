"""Property tests of the shared numerical primitives: Lagrange weights
(Fornberg's recursion at order 0), the .wgf round trip, the smoothing
symbol, the three-body pair gravity, the Hölder profile over the time
grid and the time-grid matrix cache."""

import itertools
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wacyl.celestial import CartesianState, CometOrbit, Masses, \
    _cartesian_rhs, _comet_pull, _mass_products, eval_H0_cartesian, grad_Hc
from wacyl.grids import GridFn, SpatialGrid, TimeGrid, fornberg_weights
from wacyl.norms import holder_norm, weighted_norm
from wacyl.smoothing import multiplier_profile, smooth

from oracles import COMET_PAIRS, PAIRS, table_pair_gravity

# deterministic example sequences, no example database on disk
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


# ---- Lagrange weights: Fornberg's recursion at order 0 -------------

@st.composite
def nodes_and_point(draw):
    gaps = draw(st.lists(st.floats(0.05, 0.5), min_size=1, max_size=8))
    xs = draw(finite) + np.concatenate([[0.0], np.cumsum(gaps)])
    x = draw(st.floats(xs[0], xs[-1]))
    return xs, x


@PROPERTY
@given(nodes_and_point())
def test_lagrange_weights_partition_of_unity(case):
    xs, x = case
    w = fornberg_weights(x, xs, 0)
    assert abs(w.sum() - 1.0) <= 1e-12 * np.abs(w).sum()


@PROPERTY
@given(nodes_and_point(), st.lists(finite, min_size=9, max_size=9))
def test_lagrange_weights_reproduce_polynomials(case, coeffs):
    xs, x = case
    w = fornberg_weights(x, xs, 0)
    for degree in range(len(xs)):
        c = coeffs[:degree + 1]
        # centred variable keeps the monomials O(1)
        vals = np.polynomial.polynomial.polyval(xs - xs[0], c)
        want = np.polynomial.polynomial.polyval(x - xs[0], c)
        scale = np.abs(w * vals).sum() + abs(want) + 1.0
        assert abs(w @ vals - want) <= 1e-11 * scale


def test_lagrange_weights_at_a_node():
    xs = np.array([0.0, 0.4, 0.9, 1.3])
    assert np.array_equal(fornberg_weights(0.9, xs, 0), [0.0, 0.0, 1.0, 0.0])


# ---- .wgf round trip -----------------------------------------------

@PROPERTY
@given(st.sampled_from([1, 2]),
       st.sampled_from([4, 8, 16]), st.integers(2, 12),
       st.floats(1.5, 50.0), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_wgf_round_trip_exact(n, torus_points, n_times, t_max, components,
                              seed):
    tg = TimeGrid(t_max, n_points=n_times)
    sg = SpatialGrid(n, torus_points)
    rng = np.random.default_rng(seed)
    f = GridFn(sg, tg, rng.standard_normal(
        (len(tg),) + sg.shape + (components,)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.wgf")
        f.save(path)
        g = GridFn.load(path)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(g.times.points, f.times.points)
    assert np.array_equal(g.times.log_points, f.times.log_points)
    assert np.array_equal(g.times.dt_matrix(), f.times.dt_matrix())


# ---- smoothing symbol ------------------------------------------------

@PROPERTY
@given(st.floats(0.0, 0.5))
def test_multiplier_plateau_is_exactly_one(u):
    assert multiplier_profile(np.array([u]))[0] == 1.0


@PROPERTY
@given(st.floats(1.0, 1e6))
def test_multiplier_vanishes_on_support_complement(u):
    assert multiplier_profile(np.array([u]))[0] == 0.0


@PROPERTY
@given(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
@example(0.9989999999999998)   # the polynomial rounds below 0 at u + 1e-3
def test_multiplier_ramp_decreases_and_is_symmetric(u):
    a, b, mirror = multiplier_profile(np.array([u, min(u + 1e-3, 1.0),
                                                1.5 - u]))
    assert 0.0 <= b <= a + 1e-15 and a <= 1.0
    assert abs(a + mirror - 1.0) <= 1e-14


@PROPERTY
@given(st.sampled_from([8.0, 12.0, 16.0, 24.0]),
       st.lists(st.tuples(st.integers(0, 4), st.floats(0.1, 1.0),
                          st.floats(0.0, 1.0)), min_size=1, max_size=3))
def test_smooth_passes_plateau_modes_bit_exactly(tau, modes):
    # every drawn mode |k| <= 4 lies in the plateau |k| <= tau/2
    tg = TimeGrid(10.0, n_points=6)
    sg = SpatialGrid(1, 64)

    def fn(q, t):
        out = 0.0 * q
        for k, amp, phase in modes:
            out = out + amp * np.cos(2 * np.pi * (k * q + phase))
        return out / t

    f = GridFn.from_callable(sg, tg, fn)
    assert np.array_equal(smooth(f, tau).values, f.values)


# ---- pair gravity ----------------------------------------------------

def _body_pass(x, masses):
    """The bodies' forces and smallest pair distance from the Cartesian
    right-hand side, and their potential from eval_H0_cartesian, all at
    the positions x (3, 2) at rest."""
    at_rest = np.zeros((3, 2))
    state = np.concatenate([np.ravel(x), at_rest.ravel()])
    rhs = _cartesian_rhs(masses, None)
    return (rhs(0.0, state)[6:],
            eval_H0_cartesian(CartesianState(x, at_rest), masses),
            rhs.min_distance(0.0, state))


@PROPERTY
@given(st.lists(finite, min_size=6, max_size=6),
       st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0),
                 st.floats(1e-3, 1.0)))
def test_pair_forces_are_minus_potential_gradient(coords, ms):
    x = np.array(coords).reshape(3, 2)
    assume(min(np.linalg.norm(x[i] - x[j])
               for i, j in ((0, 1), (0, 2), (1, 2))) >= 0.1)
    masses = Masses(*ms)
    force, _, dmin = _body_pass(x, masses)
    force = np.reshape(force, (3, 2))
    at_rest = np.zeros((3, 2))
    assert dmin >= 0.1
    h = 1e-6
    grad = np.zeros((3, 2))
    for i in range(3):
        for a in range(2):
            e = np.zeros((3, 2))
            e[i, a] = h
            grad[i, a] = (
                eval_H0_cartesian(CartesianState(x + e, at_rest), masses)
                - eval_H0_cartesian(CartesianState(x - e, at_rest), masses)
            ) / (2 * h)
    assert np.abs(force + grad).max() <= 1e-6 * np.abs(force).max()


def _numpy_pair_gravity(x, m, pairs):
    """The numpy formulas the float kernel replaced: np.linalg.norm per
    pair on (n, 2) arrays."""
    force = np.zeros_like(x)
    energy, dmin = 0.0, np.inf
    for i, j in pairs:
        r = x[i] - x[j]
        d = np.linalg.norm(r)
        mm = m[i] * m[j]
        f = mm * r / d ** 3
        force[i] -= f
        force[j] += f
        energy -= mm / d
        dmin = min(dmin, d)
    return force, energy, dmin


def _close(got, want, rel=1e-14):
    return np.abs(np.asarray(got) - want).max() <= rel * np.abs(want).max()


@PROPERTY
@given(st.lists(finite, min_size=8, max_size=8),
       st.lists(finite, min_size=6, max_size=6),
       st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0),
                 st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
       st.floats(-1.0, 1.0))
def test_pair_gravity_matches_numpy_oracle(coords, momenta, ms, lag):
    # point 3 is the comet, anywhere in the box; the float kernel may
    # differ from np.linalg.norm in the last bit of each distance,
    # nothing more
    x = np.array(coords).reshape(4, 2)
    body_pairs = ((0, 1), (0, 2), (1, 2))
    comet_pairs = ((0, 3), (1, 3), (2, 3))
    assume(min(np.linalg.norm(x[i] - x[j])
               for i, j in body_pairs + comet_pairs) >= 0.1)
    masses = Masses(*ms)
    m = masses.as_array()
    mm = np.append(m, masses.mc)

    force, potential, dmin = _body_pass(x[:3], masses)
    f_ref, v_ref, d_ref = _numpy_pair_gravity(x[:3], m, body_pairs)
    assert _close(force, f_ref.ravel())
    assert abs(potential - v_ref) <= 1e-14 * abs(v_ref)
    assert abs(dmin - d_ref) <= 1e-15 * d_ref

    g_ref = -_numpy_pair_gravity(x, mm, comet_pairs)[0][:3]
    assert _close(grad_Hc(x[:3], x[3], masses), g_ref)

    # at t = 2 the comet is lag after (lag > 0, y > 0) or before (y < 0)
    # its pericentre (0.5, 0)
    orbit = CometOrbit(1.5, 1.0, 1.0, t_peri=2.0 - lag)
    xc = np.concatenate([x[:3], orbit.position(2.0)[None]])
    assume(min(np.linalg.norm(xc[i] - xc[3]) for i in range(3)) >= 0.1)
    gc_ref = -_numpy_pair_gravity(xc, mm, comet_pairs)[0][:3]

    y = np.array(momenta).reshape(3, 2)
    state = np.concatenate([x[:3].ravel(), y.ravel()])
    for comet, f_want in ((None, f_ref), (orbit, f_ref - gc_ref)):
        dstate = _cartesian_rhs(masses, comet)(2.0, state)
        assert np.array_equal(dstate[:6], (y / m[:, None]).ravel())
        assert _close(dstate[6:], f_want.ravel())


def _outcome(fn, *args):
    """The bytes of fn(*args), its values flattened to doubles, or the
    type and message of what it raised."""
    try:
        out = fn(*args)
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)
    flat = []
    for v in out:
        flat.extend(v if isinstance(v, (list, tuple)) else [v])
    return struct.pack(f"<{len(flat)}d", *flat)


def _table_rhs(masses, comet, t, state):
    """The Cartesian right-hand side and its smallest pair distance by
    one table_pair_gravity pass over all pairs, the comet as point 3."""
    m = masses.as_array().tolist()
    m0, m1, m2 = m
    v = state.tolist()
    x, pairs = v[:6], PAIRS
    if masses.mc > 0 and comet is not None:
        m.append(masses.mc)
        x += comet.position(t).tolist()
        pairs = PAIRS + COMET_PAIRS
    force, _, dmin = table_pair_gravity(x, m, 0.0, pairs)
    return [v[6] / m0, v[7] / m0, v[8] / m1, v[9] / m1,
            v[10] / m2, v[11] / m2] + force[:6], dmin


def _rhs_and_distance(masses, comet, t, state):
    rhs = _cartesian_rhs(masses, comet)
    return rhs(t, state), rhs.min_distance(t, state)


# coordinates that often coincide in a component (signed-zero forces)
# or as points (collisions), and masses that may vanish
coordinate = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.25]),
                       st.floats(-1e3, 1e3))
mass = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@PROPERTY
@given(st.lists(coordinate, min_size=8, max_size=8),
       st.lists(finite, min_size=6, max_size=6),
       st.floats(1e-3, 10.0), mass, mass, mass, st.floats(-1.0, 1.0))
@example([0.0, 0.0, 0.0, 1.0, 0.0, -2.0, 0.0, 0.5], [1.0] * 6,
         1.0, 0.0, 1e-3, 0.0, 0.5)
# every mass positive, so that the right-hand side returns its forces:
# the x-components of all three bodies share +0.0
@example([0.0, 0.0, 0.0, 1.0, 0.0, -2.0, 0.0, 0.5], [1.0] * 6,
         1.0, 1e-3, 1e-3, 1e-3, 0.5)
# every mass positive, and values whose kinetic, energy and comet-energy
# sums each change under reassociation or reordering
@example([-1.37, -1.303, 0.312, -0.228, 0.196, 0.366, 0.448, 0.914],
         [0.181, 1.724, 0.593, -0.15, 1.961, 1.235], 1.72, 2.51, 0.3, 2.41,
         0.99)
def test_force_passes_keep_the_bytes_of_the_pair_table_loop(
        coords, momenta, m0, m1, m2, mc, lag):
    # the unrolled passes accumulate in the table's pair order: forces
    # from 0.0 (signed zeros included), the energy from the kinetic
    # energy, the comet's pull after the bodies'; collisions and zero
    # masses raise as the loop did
    x, (cx, cy) = coords[:6], coords[6:]
    masses = Masses(m0, m1, m2, mc)
    m = masses.as_array().tolist()
    mmc = _mass_products(masses)[1]

    comet_want = _outcome(table_pair_gravity, x + [cx, cy], m + [mc], 0.0,
                          COMET_PAIRS)
    if isinstance(comet_want, bytes):
        # the loop also returns the comet's own force, doubles 6 and 7
        comet_want = comet_want[:48] + comet_want[64:]
    assert _outcome(_comet_pull, *x, cx, cy, mmc) == comet_want

    xs, ys = np.reshape(x, (3, 2)), np.reshape(momenta, (3, 2))

    def table_h0():
        kinetic = 0.0
        for (px, py), mi in zip(ys.tolist(), m):
            kinetic += 0.5 * (px * px + py * py) / mi
        return (table_pair_gravity(x, m, kinetic)[1],) * 3

    def h0_of_one_and_of_a_stack():
        stack = CartesianState(np.stack([xs, xs]), np.stack([ys, ys]))
        return (eval_H0_cartesian(CartesianState(xs, ys), masses),
                *eval_H0_cartesian(stack, masses).tolist())

    assert _outcome(h0_of_one_and_of_a_stack) == _outcome(table_h0)

    state = np.array(x + momenta)
    orbit = CometOrbit(1.5, 1.0, 1.0, t_peri=2.0 - lag)
    for comet in (None, orbit):
        assert _outcome(_rhs_and_distance, masses, comet, 2.0, state) \
            == _outcome(_table_rhs, masses, comet, 2.0, state)


# ---- Hölder profile over the time grid -------------------------------

def _oracle_holder_norm(f, sigma, i, pair_radius):
    """The Hölder norm of time slice i, one slice at a time: each
    multi-index derivative from the slice's own torus spectrum, each
    quotient over the periodic axis pairs of one slice."""
    grid = f.grid
    k = int(np.floor(sigma))
    mu = sigma - k
    spec = grid.torus_rfft(f.values[i:i + 1])
    best = float(np.abs(f.values[i]).max())
    tops = [f.values[i]] if k == 0 else []
    for beta in itertools.product(range(k + 1), repeat=grid.n):
        if 0 < sum(beta) <= k:
            arr = grid.torus_derivative(spec, beta)[0]
            best = max(best, float(np.abs(arr).max()))
            if sum(beta) == k:
                tops.append(arr)
    if mu == 0:
        return best
    npts = grid.torus_points
    reach = npts // 2 if pair_radius is None else min(npts // 2, pair_radius)
    for axis in range(grid.n):
        for off in range(1, reach + 1):
            dist = min(off / npts, 1.0 - off / npts)
            for arr in tops:
                diff = np.abs(np.roll(arr, -off, axis=axis) - arr).max()
                best = max(best, diff / dist ** mu)
    return best


@pytest.mark.parametrize("pair_radius", [None, 8])
@pytest.mark.parametrize("grid_case", [(1, 16), (2, 8), (2, 16)])
@settings(PROPERTY, max_examples=20)
@given(st.sampled_from([0.0, 1.0, 2.0, 0.5, 1.25, 2.75]), st.integers(1, 2),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_holder_profile_equals_per_slice_oracle(grid_case, pair_radius,
                                                sigma, components, wave,
                                                seed):
    # (n, torus points): 1-torus, and 2-tori with and without a
    # pair_radius below half the points
    n, torus_points = grid_case
    tg = TimeGrid(5.0, n_points=3)
    sg = SpatialGrid(n, torus_points)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((len(tg),) + sg.shape + (components,))
    if wave:
        # white noise peaks on pairs at offset 1, a smooth wave on wide
        # pairs
        phase = sum(rng.integers(1, 4) * q for q in sg.meshgrid())
        values = 1e-3 * values + np.cos(2 * np.pi * phase)[
            None, ..., None] * rng.uniform(0.5, 2.0, (len(tg), 1))[
            (...,) + (None,) * n]
    f = GridFn(sg, tg, values)
    want = [_oracle_holder_norm(f, sigma, i, pair_radius)
            for i in range(len(tg))]
    got = holder_norm(f, sigma, pair_radius)
    assert got == want and all(type(h) is float for h in got)
    assert weighted_norm(f, sigma, 0.0, pair_radius) == max(want)


def test_holder_quotient_takes_axis_pairs_only():
    # f = cos 2 pi (q1 + q2) / t on an 8 x 8 2-torus: on the first slice a
    # diagonal pair quotient at sigma = 1/2 (3.36 at offset (1, 1)) beats
    # every axis pair quotient (at most 2 sqrt 2); diagonal pairs are not
    # Hölder pairs and must not raise the norm
    tg = TimeGrid(5.0, n_points=3)
    sg = SpatialGrid(2, 8)
    f = GridFn.from_callable(
        sg, tg, lambda q1, q2, t: np.cos(2 * np.pi * (q1 + q2)) / t)
    v = f.values[0]
    axis_max = max(np.abs(np.roll(v, -off, axis=axis) - v).max()
                   / (off / 8) ** 0.5
                   for axis in (0, 1) for off in range(1, 5))
    diagonal = np.abs(np.roll(v, (-1, -1), axis=(0, 1)) - v).max() \
        / (np.sqrt(2) / 8) ** 0.5
    assert axis_max == pytest.approx(2 * np.sqrt(2), rel=1e-14)
    assert diagonal > 3.36 > axis_max
    assert holder_norm(f, 0.5)[0] == axis_max


def test_time_grid_matrices_are_cached_read_only():
    for tg in (TimeGrid(8.0, n_points=12),
               TimeGrid.from_points(np.geomspace(1.0, 8.0, 12))):
        D = tg.dt_matrix()
        assert tg.dt_matrix() is D and not D.flags.writeable
        assert not tg.points.flags.writeable
        assert not tg.log_points.flags.writeable


# ---- smoothing against differentiation -------------------------------

@PROPERTY
@given(st.sampled_from([1, 2]),
       st.sampled_from([4.0, 6.0, 10.0, 40.0]), st.integers(0, 1),
       st.integers(0, 2 ** 32 - 1))
def test_smooth_commutes_with_torus_derivative(n, tau, axis, seed):
    # both are Fourier multipliers along a torus axis
    axis = min(axis, n - 1)
    tg = TimeGrid(5.0, n_points=3)
    sg = SpatialGrid(n, 16)
    rng = np.random.default_rng(seed)
    f = GridFn(sg, tg, rng.standard_normal((len(tg),) + sg.shape + (2,)))
    a = smooth(f.dq(axis), tau).values
    b = smooth(f, tau).dq(axis).values
    assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
