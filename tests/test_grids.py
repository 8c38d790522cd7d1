import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import TIME_DEGREE, GridFnInterpolant
from wacyl import norms
from wacyl.grids import DT_ORDER, GridFn, SpatialGrid, TimeGrid, \
    fornberg_weights


def test_time_grid_geometric():
    tg = TimeGrid(20.0, n_points=64)
    assert tg.points[0] == 1.0
    assert tg.points[-1] >= 20.0 * (1 - 1e-12)
    ratios = tg.points[1:] / tg.points[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    assert ratios[0] > 1.0
    assert np.allclose(tg.points, np.geomspace(1.0, 20.0, 64), rtol=1e-13)


def test_time_grids_compare_node_for_node():
    # nodes that differ by a relative 3e-6 make another grid, so fields
    # sampled at different times are not multiplied
    grid = TimeGrid(20.0, n_points=64)
    assert grid == TimeGrid(20.0, n_points=64)
    assert grid != TimeGrid(20.0001, n_points=64)
    assert grid != TimeGrid(20.0, n_points=65)
    sg = SpatialGrid(1, 8)
    with pytest.raises(ValueError, match="grid mismatch"):
        norms.product(GridFn.zeros(sg, grid, 1),
                      GridFn.zeros(sg, TimeGrid(20.0001, n_points=64), 1))


def test_window_is_centred_and_shifted_inside():
    tg = TimeGrid(20.0, n_points=64)
    assert tg.window(30, 9) == slice(26, 35)
    assert tg.window(0, 9) == slice(0, 9)
    assert tg.window(2, 9) == slice(0, 9)
    # insertion index T: a time past the last node
    assert tg.window(64, 9) == slice(55, 64)
    assert tg.window(30, 8) == slice(26, 34)
    # a window wider than the grid is the whole grid
    assert TimeGrid(20.0, n_points=5).window(2, 9) == slice(0, 5)


@pytest.mark.parametrize("T", [2, 5, 9, 64])
def test_dt_matrix_rows_live_on_their_window(T):
    # every row of dt_matrix is a stencil on window(i, DT_ORDER + 1); only
    # a centred stencil's own node may carry a zero weight
    tg = TimeGrid(20.0, n_points=T)
    D = tg.dt_matrix()
    width = min(DT_ORDER + 1, T)
    for i in range(T):
        win = tg.window(i, DT_ORDER + 1)
        assert win.stop - win.start == width and win.start <= i < win.stop
        outside = np.ones(T, dtype=bool)
        outside[win] = False
        assert not D[i, outside].any()
        assert np.count_nonzero(D[i, win]) >= width - 1


def test_time_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        TimeGrid(0.5, n_points=8)
    with pytest.raises(ValueError):
        TimeGrid(10.0, n_points=1)
    # unrefused, a non-finite horizon builds nodes [1, nan, ...] or
    # [1, inf, ...], and a fractional count 9 nodes past t_max
    for t_max in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"t_max .* got {t_max}"):
            TimeGrid(t_max, n_points=8)
    with pytest.raises(ValueError, match="n_points must be an integer, "
                                         "got 8.5"):
        TimeGrid(20.0, n_points=8.5)


def test_spatial_grid_invariants():
    with pytest.raises(ValueError):
        SpatialGrid(1, 100)          # not a power of two
    with pytest.raises(ValueError, match="torus_points.*0"):
        SpatialGrid(1, 0)            # passes the power-of-two bit test
    sg = SpatialGrid(2, 32)
    assert sg.shape == (32, 32)
    assert sg.torus_axes[1][0] == 0.0 and sg.torus_axes[1][-1] == 31 / 32
    # numpy integers are sizes too
    assert SpatialGrid(np.int64(2), np.int32(32)) == sg


@pytest.mark.parametrize("n, torus_points, field", [
    (0, 8, "n"), (-1, 8, "n"), (1.5, 8, "n"), (1, 8.0, "torus_points"),
    (1, "8", "torus_points")],
    ids=["n-0", "n-minus-1", "n-float", "torus-points-float",
         "torus-points-str"])
def test_spatial_grid_rejects_non_integer_sizes(n, torus_points, field):
    # n = 0 used to build a shape () grid whose spectrum() raised
    # IndexError; a float size raised TypeError
    bad = n if field == "n" else torus_points
    with pytest.raises(ValueError, match=f"{field} must be .*{bad!r}"):
        SpatialGrid(n, torus_points)


def test_gridfn_rejects_nonfinite():
    tg = TimeGrid(4.0, n_points=4)
    sg = SpatialGrid(1, 8)
    vals = np.zeros((4, 8, 1))
    vals[1, 2, 0] = np.inf
    with pytest.raises(ValueError):
        GridFn(sg, tg, vals)


def test_spectral_derivative_exact_for_modes():
    tg = TimeGrid(4.0, n_points=4)
    sg = SpatialGrid(1, 64)
    f = GridFn.from_callable(sg, tg, lambda q, t: np.sin(2 * np.pi * 3 * q))
    df = f.dq(0)
    exact = GridFn.from_callable(
        sg, tg, lambda q, t: 6 * np.pi * np.cos(2 * np.pi * 3 * q))
    assert np.abs(df.values - exact.values).max() < 1e-10


@pytest.mark.parametrize("torus_points", [8, 16])
def test_derivative_of_nyquist_wave_is_zero(torus_points):
    # the Nyquist mode N/2 has no partner -N/2, so no real derivative:
    # every torus derivative of order >= 1 drops it exactly
    tg = TimeGrid(4.0, n_points=3)
    sg = SpatialGrid(2, torus_points)
    j0, j1 = (np.rint(q * torus_points).astype(int) for q in sg.meshgrid())
    for wave in ((-1.0) ** j0, (-1.0) ** j1, (-1.0) ** (j0 + j1)):
        f = GridFn(sg, tg, np.broadcast_to(wave[None, ..., None],
                                           (len(tg),) + sg.shape + (1,)))
        for axis in (0, 1):
            for order in (1, 2, 3):
                alpha = [order * (a == axis) for a in (0, 1)]
                assert not np.any(
                    sg.torus_derivative(f.spectrum(), alpha))


@pytest.mark.parametrize("n, torus_points", [(1, 32), (2, 16)])
def test_dq_matches_complex_fft_derivative(n, torus_points):
    # the complex round trip ifft(fft(f) 2 pi i k).real per axis, chained
    # for higher orders; its .real drops the Nyquist term as dq does
    tg = TimeGrid(4.0, n_points=3)
    sg = SpatialGrid(n, torus_points)
    values = np.random.default_rng(7).standard_normal(
        (len(tg),) + sg.shape + (2,))
    f = GridFn(sg, tg, values)
    k = np.fft.fftfreq(torus_points, d=1.0 / torus_points)
    for axis in range(n):
        shape = [1] * values.ndim
        shape[1 + axis] = torus_points
        mult = 2j * np.pi * k.reshape(shape)
        want = values
        for order in (1, 2, 3):
            want = np.fft.ifft(np.fft.fft(want, axis=1 + axis) * mult,
                               axis=1 + axis).real
            alpha = [order * (a == axis) for a in range(n)]
            got = sg.torus_derivative(f.spectrum(), alpha)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_spectrum_and_jacobian_are_cached_read_only(monkeypatch):
    # spectrum, Jacobian, gradient field and weighted norms each live in
    # the GridFn's one derived cache and are built on first use only
    tg = TimeGrid(4.0, n_points=3)
    sg = SpatialGrid(2, 8)
    f = GridFn.from_callable(sg, tg, lambda q1, q2, t: np.sin(
        2 * np.pi * (q1 + 2 * q2)) / t)
    calls = {"rfft": 0, "dq": 0, "holder": 0}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper
    monkeypatch.setattr(sg, "torus_rfft", counted("rfft", sg.torus_rfft))
    monkeypatch.setattr(GridFn, "dq", counted("dq", GridFn.dq))
    monkeypatch.setattr(norms, "holder_norm",
                        counted("holder", norms.holder_norm))

    def build():
        return (f.spectrum(), f.jacobian_q(), f.gradient_field(),
                norms.weighted_norm(f, 1.5, 1.0),
                norms.weighted_norm(f, 1.5, 2.0))
    first = build()
    assert all(a is b for a, b in zip(first, build()))
    assert calls == {"rfft": 1, "dq": 2, "holder": 1}
    spec, jac, grad = first[:3]
    unbuildable = None
    for key, value in (("spectrum", spec), ("jacobian", jac),
                       ("gradient", grad)):
        assert f.derived(key, unbuildable) is value
    assert not spec.flags.writeable and not jac.flags.writeable
    with pytest.raises(ValueError):
        jac[0, 0, 0, 0, 0] = 1.0
    assert grad.components == 2
    assert np.array_equal(grad.values, jac.reshape(jac.shape[:-2] + (-1,)))

    # a spectrum passed in is kept as given, read-only, and not rebuilt
    given = np.array(spec)
    g = GridFn(sg, tg, f.values, spectrum=given)
    assert g.spectrum() is given
    assert g.derived("spectrum", unbuildable) is given
    assert not given.flags.writeable and calls["rfft"] == 1


def test_torus_half_freqs_are_built_once_read_only():
    # the interpolant reads them on every evaluation
    sg = SpatialGrid(3, 8)
    freqs = sg.torus_half_freqs()
    assert sg.torus_half_freqs() is freqs
    assert [len(k) for k in freqs] == [8, 8, 5]
    assert np.array_equal(freqs[0], np.fft.fftfreq(8, d=1.0 / 8))
    assert np.array_equal(freqs[-1], np.fft.rfftfreq(8, d=1.0 / 8))
    for k in freqs:
        assert not k.flags.writeable


def _c2c_fft_calls(tree):
    """Names of the complex-to-complex numpy FFTs a module calls or
    imports (x.fft.fft(...), from numpy.fft import ifftn, ...)."""
    c2c = {"fft", "ifft", "fftn", "ifftn"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            owner = node.func.value
            if node.func.attr in c2c and "fft" in (
                    getattr(owner, "attr", None), getattr(owner, "id", None)):
                found.append(node.func.attr)
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.endswith("fft"):
            found += [a.name for a in node.names if a.name in c2c]
    return found


def test_no_complex_to_complex_fft_in_library():
    # every transform of a real field is the real pair rfftn / irfftn
    assert sorted(_c2c_fft_calls(ast.parse(
        "np.fft.fftn(x)\nnumpy.fft.ifft(y)\nfrom numpy.fft import ifftn"
    ))) == ["fftn", "ifft", "ifftn"]
    src = Path(__file__).resolve().parents[1] / "src" / "wacyl"
    users = {path.name: calls for path in sorted(src.glob("*.py"))
             if (calls := _c2c_fft_calls(ast.parse(path.read_text())))}
    assert users == {}


def test_time_derivative_high_order():
    # d/dt of -1/t is 1/t^2; the t^2-weighted error stays tiny
    tg = TimeGrid(20.0, n_points=64)
    sg = SpatialGrid(1, 8)
    f = GridFn.from_callable(sg, tg, lambda q, t: -1.0 / t + 0 * q)
    df = f.dt()
    err = np.abs(df.values[:, 0, 0] - 1.0 / tg.points ** 2)
    assert (err * tg.points ** 2).max() < 1e-9


def test_time_derivative_is_kept():
    # dt is built once per GridFn, with the bytes of one product with
    # dt_matrix
    tg, sg = TimeGrid(20.0, n_points=24), SpatialGrid(2, 8)
    f = GridFn.from_callable(sg, tg, lambda q1, q2, t: np.stack(
        [np.cos(2 * np.pi * q1) / t, np.sin(2 * np.pi * q2) / t ** 2], -1))
    df = f.dt()
    assert f.dt() is df and not df.values.flags.writeable
    want = tg.dt_matrix() @ f.values.reshape(24, -1)
    assert df.values.tobytes() == want.reshape(f.values.shape).tobytes()


@pytest.mark.parametrize("order", [0, 1, 2])
def test_fornberg_weights_of_many_rows_are_those_of_each_row(order):
    # an (R,) x0 with (R, n) nodes runs each row's recursion: the bytes
    # of R single calls
    rng = np.random.default_rng(order)
    x = np.sort(rng.standard_normal((7, 9)), axis=-1)
    x0 = rng.standard_normal(7)
    rows = fornberg_weights(x0, x, order)
    assert rows.shape == (7, 9)
    for r in range(7):
        assert rows[r].tobytes() == fornberg_weights(x0[r], x[r],
                                                     order).tobytes()


def test_fornberg_weights_differentiate_polynomials():
    x = np.array([0.0, 0.3, 0.7, 1.1, 1.6])
    w = fornberg_weights(0.7, x, 1)
    coeffs = np.array([2.0, -1.0, 0.5, 0.25, -0.1])
    vals = sum(c * x ** k for k, c in enumerate(coeffs))
    deriv = sum(k * c * 0.7 ** (k - 1)
                for k, c in enumerate(coeffs) if k >= 1)
    assert abs(w @ vals - deriv) < 1e-12


def test_serialization_roundtrip(tmp_path):
    tg = TimeGrid(6.0, n_points=10)
    sg = SpatialGrid(1, 16)
    f = GridFn.from_callable(
        sg, tg, lambda q, t: np.stack(
            [np.sin(2 * np.pi * q) / t, np.cos(2 * np.pi * q) / t ** 2],
            axis=-1))
    path = tmp_path / "f.wgf"
    f.save(path)
    g = GridFn.load(path)
    assert g.components == 2
    assert np.array_equal(g.values, f.values)
    # the nodes come back bit for bit
    assert g.times == f.times


def test_load_rejects_truncated_file(tmp_path):
    tg = TimeGrid(6.0, n_points=10)
    sg = SpatialGrid(1, 16)
    f = GridFn.from_callable(sg, tg, lambda q, t: np.sin(2 * np.pi * q) / t)
    path = tmp_path / "f.wgf"
    f.save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-8 * 5])
    with pytest.raises(ValueError, match=r"160 float64 values.*"
                       r"1240 bytes \(155 values\)"):
        GridFn.load(path)


def _rewrite_header(path, **entries):
    header, body = path.read_bytes().split(b"\n", 1)
    header = {**json.loads(header), **entries}
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def test_load_rejects_window_axes(tmp_path):
    # torus-only headers of older writers carry "m": 0 and the window
    # keys, and still load; a header with m = 2 window axes of 5 points
    # is refused even when the file holds exactly the bytes it promises
    tg = TimeGrid(6.0, n_points=4)
    path = tmp_path / "f.wgf"
    GridFn.zeros(SpatialGrid(1, 8), tg).save(path)
    _rewrite_header(path, m=0, window_points=0, window_halfwidth=1.0)
    assert GridFn.load(path).grid == SpatialGrid(1, 8)
    _rewrite_header(path, m=2, window_points=5)
    path.write_bytes(path.read_bytes() + bytes(8 * 4 * 8 * 24))
    with pytest.raises(ValueError, match=r"f\.wgf.*m = 2"):
        GridFn.load(path)


@pytest.mark.parametrize("field, bad", [("n", 0), ("n", -1), ("n", 1.5),
                                        ("torus_points", 8.0)])
def test_load_rejects_non_integer_sizes(tmp_path, field, bad):
    # the header's sizes reach the same SpatialGrid checks
    tg = TimeGrid(6.0, n_points=4)
    path = tmp_path / "f.wgf"
    GridFn.zeros(SpatialGrid(1, 8), tg).save(path)
    _rewrite_header(path, **{field: bad})
    with pytest.raises(ValueError, match=f"{field} must be .*{bad!r}"):
        GridFn.load(path)


@pytest.mark.parametrize("bad", [0, -2, 1.5, "1", True, None])
def test_load_rejects_bad_components(tmp_path, bad):
    # "components": 0 with an empty body promises 0 bytes and would load
    # a (T, 8, 0) field
    path = tmp_path / "f.wgf"
    GridFn.zeros(SpatialGrid(1, 8), TimeGrid(6.0, n_points=4)).save(path)
    _rewrite_header(path, components=bad)
    path.write_bytes(path.read_bytes().split(b"\n", 1)[0] + b"\n")
    with pytest.raises(ValueError, match=r"f\.wgf.*components.*"
                       + re.escape(repr(bad))):
        GridFn.load(path)


@pytest.mark.parametrize("points, k", [
    ([2.0, 1.0, 3.0], 1), ([1.0, 2.0, 2.0], 2), ([0.5, 1.0, 2.0], 0),
    ([1.0, float("nan"), 3.0], 1), ([1.0, 2.0, float("inf")], 2),
    ([1.0, 2.0, 3.0], 2), ([1.0, 2.0, 4.0, 8.1], 3), ([3.0], 0)])
def test_load_rejects_bad_time_nodes(tmp_path, points, k):
    # the nodes that save writes still load (the round-trip tests);
    # rewritten ones that decrease, repeat, start below 1, are not
    # finite, are not geometric (the transport solve's quadrature is
    # built on t_0 gamma^k) or are a single node are refused, naming the
    # first bad node
    path = tmp_path / "f.wgf"
    GridFn.zeros(SpatialGrid(1, 8), TimeGrid(6.0, n_points=3)).save(path)
    _rewrite_header(path, time_points=points)
    with pytest.raises(ValueError,
                       match=rf"node {k} is {re.escape(repr(points[k]))}"):
        GridFn.load(path)


def test_time_grid_from_no_points_is_refused():
    with pytest.raises(ValueError, match="non-empty"):
        TimeGrid.from_points([])


@pytest.mark.parametrize("field, good, bad", [("torus_points", 8, 0)])
def test_load_rejects_degenerate_sizes(tmp_path, field, good, bad):
    tg = TimeGrid(6.0, n_points=4)
    sg = SpatialGrid(1, 8)
    path = tmp_path / "f.wgf"
    GridFn.zeros(sg, tg).save(path)
    header, body = path.read_bytes().split(b"\n", 1)
    entry = f'"{field}": '.encode()
    assert entry + b"%d" % good in header
    header = header.replace(entry + b"%d" % good, entry + b"%d" % bad)
    path.write_bytes(header + b"\n" + body)
    with pytest.raises(ValueError, match=f"{field}.*{bad}"):
        GridFn.load(path)


@pytest.mark.parametrize("k", [0, 10, 30])
def test_interpolant_reads_only_its_window(k):
    # at an off-node t between nodes k and k + 1 the interpolant reads
    # the TIME_DEGREE + 1 slices of its window and no other
    tg = TimeGrid(20.0, n_points=32)
    sg = SpatialGrid(2, 8)
    rng = np.random.default_rng(k)
    values = rng.standard_normal((32,) + sg.shape + (2,))
    t = float(np.sqrt(tg.points[k] * tg.points[k + 1]))
    win = tg.window(k + 1, TIME_DEGREE + 1)
    q = rng.uniform(0, 1, (5, 2))
    want = GridFnInterpolant(GridFn(sg, tg, values))(q, t)
    outside = np.ones(32, dtype=bool)
    outside[win] = False
    altered = values.copy()
    altered[outside] += rng.standard_normal(altered[outside].shape)
    assert np.array_equal(
        GridFnInterpolant(GridFn(sg, tg, altered))(q, t), want)
    altered = values.copy()
    altered[win.start] += 1.0
    assert not np.array_equal(
        GridFnInterpolant(GridFn(sg, tg, altered))(q, t), want)


def test_interpolant_matches_band_limited():
    tg = TimeGrid(8.0, n_points=24)
    sg = SpatialGrid(1, 32)
    f = GridFn.from_callable(
        sg, tg, lambda q, t: np.sin(2 * np.pi * 2 * q) / t)
    interp = GridFnInterpolant(f)
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = rng.uniform(0, 1, (1, 1))
        t = rng.uniform(1.0, 8.0)
        got = interp(q, t)[0, 0]
        assert abs(got - np.sin(2 * np.pi * 2 * q[0, 0]) / t) < 1e-7
    # the interpolant of the derivative
    got = GridFnInterpolant(f.dq(0))(np.array([[0.2]]), 2.0)[0, 0]
    want = 4 * np.pi * np.cos(2 * np.pi * 2 * 0.2) / 2.0
    assert abs(got - want) < 1e-7
