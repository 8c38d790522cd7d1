import ast
from pathlib import Path

import numpy as np
import pytest

from calibration import gronwall_diagnostics
from oracles import (VectorFieldSpec, flow_jacobian, fundamental_matrix,
                     integrate_flow, rk4, vector_field_from_gridfn)
from wacyl.grids import GridFn, SpatialGrid, TimeGrid


def small_field(mu=0.1):
    return VectorFieldSpec(
        [1.0],
        f=lambda q, t, mu=mu: mu * np.sin(2 * np.pi * q) / t,
        jac_f=lambda q, t, mu=mu:
            (2 * np.pi * mu * np.cos(2 * np.pi * q) / t)[..., None])


def test_straight_line_flow():
    F = VectorFieldSpec([1.0])
    out = integrate_flow(F, np.array([0.25]), 1.0, 2.0, 1e-10)
    assert out[0] == pytest.approx(1.25, abs=1e-12)


def test_group_law_both_orientations():
    F = small_field()
    q0 = np.array([0.1])
    for (ta, tb) in ((1.0, 7.0), (7.0, 1.0), (2.0, 5.0)):
        mid = integrate_flow(F, q0, ta, tb, 1e-11)
        back = integrate_flow(F, mid, tb, ta, 1e-11)
        assert abs(back[0] - q0[0]) < 1e-8


def test_flow_vs_rk4_oracle():
    F = small_field()
    q0 = np.array([0.0])
    tol = 1e-9
    a = integrate_flow(F, q0, 1.0, 10.0, tol)
    b = rk4(lambda t, y: F.eval(y[None, :], t)[0], q0, 1.0, 10.0, 20000)
    assert abs(a[0] - b[0]) <= 10 * tol


def test_jacobian_trivial_and_inverse():
    F = VectorFieldSpec([1.0])
    J = flow_jacobian(F, np.array([0.3]), 1.0, 5.0, 1e-10)
    assert np.allclose(J, np.eye(1), atol=1e-12)
    F2 = small_field()
    tol = 1e-11
    J1 = flow_jacobian(F2, np.array([0.3]), 1.0, 6.0, tol)
    q1 = integrate_flow(F2, np.array([0.3]), 1.0, 6.0, tol)
    J2 = flow_jacobian(F2, q1, 6.0, 1.0, tol)
    assert np.abs(J1 @ J2 - np.eye(1)).max() <= 100 * 1e-8


def test_jacobian_vs_finite_differences():
    F = small_field(mu=0.05)
    q0 = np.array([0.2])
    J = flow_jacobian(F, q0, 1.0, 10.0, 1e-11)
    h = 1e-6
    fd = (integrate_flow(F, q0 + h, 1.0, 10.0, 1e-12)
          - integrate_flow(F, q0 - h, 1.0, 10.0, 1e-12)) / (2 * h)
    assert abs(J[0, 0] - fd[0]) / abs(fd[0]) < 1e-5


def test_fundamental_matrix_identity_for_zero_g():
    F = VectorFieldSpec([1.0])

    def g(q, t):
        return np.zeros((len(np.atleast_2d(q)), 1, 1))

    R = fundamental_matrix(g, F, np.array([0.1]), 3.0, 5.0)
    assert np.allclose(R, np.eye(1), atol=1e-12)


@pytest.mark.parametrize("c", [0.1, 0.3, 0.9])
@pytest.mark.parametrize("ratio", [2.0, 4.0, 16.0])
def test_fundamental_matrix_scalar_closed_form(c, ratio):
    # scalar g = c/t integrates to R^t_tau = (tau/t)^c exactly
    F = VectorFieldSpec([1.0])

    def g(q, t, c=c):
        return np.full((len(np.atleast_2d(q)), 1, 1), c / t)

    R = fundamental_matrix(g, F, np.array([0.3]), 1.0, ratio, tol=1e-12)
    assert abs(R[0, 0] - ratio ** c) < 1e-8


def test_fundamental_matrix_cocycle():
    F = small_field(mu=0.05)

    def g(q, t):
        q = np.atleast_2d(q)
        return (0.2 * np.cos(2 * np.pi * q[..., 0]) / t)[..., None, None]

    tol = 1e-11
    q = np.array([0.4])
    R_ts = fundamental_matrix(g, F, q, 2.0, 5.0, tol=tol)
    R_st = fundamental_matrix(g, F, q, 5.0, 9.0, tol=tol)
    R_tt = fundamental_matrix(g, F, q, 2.0, 9.0, tol=tol)
    assert np.abs(R_ts @ R_st - R_tt).max() <= 100 * 1e-8


def test_fundamental_matrix_growth_bound():
    # ||R^t_tau|| <= (tau/t)^c with c = sup_s ||g^s|| s (spectral norm)
    F = small_field(mu=0.05)
    amp = 0.25

    def g(q, t, amp=amp):
        q = np.atleast_2d(q)
        return (amp * np.cos(2 * np.pi * q[..., 0]) / t)[..., None, None]

    c = amp  # sup over s of |g^s| s
    for (t, tau) in ((1.0, 3.0), (2.0, 8.0), (1.0, 16.0)):
        R = fundamental_matrix(g, F, np.array([0.15]), t, tau, tol=1e-11)
        norm = np.linalg.norm(R, 2)
        assert norm <= (tau / t) ** c * (1 + 1e-6)


def test_liouville_trace_identity():
    # d/dt log det R = -trace g along the flow, checked by quadrature
    from scipy.integrate import quad
    F = VectorFieldSpec([1.0, 0.5])

    def g(q, t):
        q = np.atleast_2d(q)
        out = np.zeros((len(q), 2, 2))
        out[:, 0, 0] = 0.2 / t
        out[:, 0, 1] = 0.1 * np.sin(2 * np.pi * q[..., 0]) / t
        out[:, 1, 1] = 0.3 / t
        return out

    q0 = np.array([0.3, 0.6])
    t0, tau, t1 = 1.0, 1.0, 6.0
    R = fundamental_matrix(g, F, q0, t1, tau, tol=1e-12)
    logdet = np.log(np.linalg.det(R))

    def trace_at(s):
        pos = integrate_flow(F, q0, t0, s, 1e-12)
        G = g(pos[None, :], s)[0]
        return np.trace(G)

    integral, _ = quad(trace_at, tau, t1, limit=200)
    assert abs(logdet + integral) < 1e-6


def test_gronwall_diagnostics_zero_fields():
    F = VectorFieldSpec([1.0])

    def g(q, t):
        return np.zeros((len(np.atleast_2d(q)), 1, 1))

    rep = gronwall_diagnostics(
        F, g, mu=0.01,
        sample_points=np.linspace(0, 1, 4)[:-1][:, None],
        time_pairs=[(1.0, 2.0), (1.0, 4.0)])
    assert abs(rep["flow_exponent"]) < 1e-6
    assert abs(rep["R_exponent"]) < 1e-6
    assert rep["flow_pass"] and rep["R_pass"]
    assert all("pair" in r and "measured_norm" in r
               for r in rep["records"])


def test_gronwall_scalar_exponent_exact():
    # scalar g = c/t gives |R^t_tau| = (tau/t)^c: fitted exponent = c
    F = VectorFieldSpec([1.0])
    c = 0.3

    def g(q, t, c=c):
        return np.full((len(np.atleast_2d(q)), 1, 1), c / t)

    rep = gronwall_diagnostics(
        F, g, mu=c, sample_points=np.array([[0.0]]),
        time_pairs=[(1.0, 2.0), (1.0, 4.0), (1.0, 8.0)])
    assert rep["R_exponent"] == pytest.approx(c, abs=1e-6)


def test_gronwall_calibrated_bound():
    mu = 0.05
    tg = TimeGrid(16.0, n_points=24)
    sg = SpatialGrid(1, 64)
    fg = GridFn.from_callable(
        sg, tg, lambda q, t: mu * np.sin(2 * np.pi * q) / (2 * np.pi * t))
    F = vector_field_from_gridfn([1.0], fg)

    def g(q, t):
        return np.zeros((len(np.atleast_2d(q)), 1, 1))

    rep = gronwall_diagnostics(
        F, g, mu=mu,
        sample_points=np.linspace(0, 1, 5)[:-1][:, None],
        time_pairs=[(1.0, 2.0), (1.0, 4.0), (1.0, 8.0)])
    assert rep["flow_pass"]


def test_gronwall_refuses_a_single_ratio():
    # one distinct ratio leaves the growth fit underdetermined: for
    # g = 0.3/t the fit through (4, 4^0.3) alone would report 0.197
    F = VectorFieldSpec([1.0])

    def g(q, t):
        return np.full((len(np.atleast_2d(q)), 1, 1), 0.3 / t)

    for pairs in ([(1.0, 4.0)], [(1.0, 4.0), (4.0, 1.0), (2.0, 8.0)]):
        with pytest.raises(ValueError, match="1 distinct ratio"):
            gronwall_diagnostics(F, g, mu=0.3,
                                 sample_points=np.array([[0.0]]),
                                 time_pairs=pairs)


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan])
@pytest.mark.parametrize("solve", [
    lambda F, tol: integrate_flow(F, np.array([0.3]), 1.0, 2.0, tol),
    lambda F, tol: flow_jacobian(F, np.array([0.3]), 1.0, 2.0, tol),
    lambda F, tol: fundamental_matrix(
        lambda q, t: np.zeros((1, 1, 1)), F, np.array([0.3]), 1.0, 2.0,
        tol=tol),
], ids=["integrate_flow", "flow_jacobian", "fundamental_matrix"])
def test_flow_entry_points_refuse_a_bad_tol(solve, tol):
    with pytest.raises(ValueError, match=f"tol must be positive, got {tol}"):
        solve(small_field(), tol)


def test_solve_ivp_only_in_celestial_and_dop853():
    # celestial keeps its own call, whose name the benchmark tracer
    # hooks, and dop853 defines the integrator; the ODE layer's solves
    # live with the test oracles (oracles._solve, on scipy), so no other
    # library module calls it
    src = Path(__file__).resolve().parents[1] / "src" / "wacyl"
    users = {path.name for path in src.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if "solve_ivp" in (getattr(node, "id", None),
                                getattr(node, "attr", None),
                                getattr(node, "name", None))}
    assert users == {"celestial.py", "dop853.py"}


@pytest.mark.parametrize("module", ["functional.py", "nashmoser.py"])
def test_newton_core_imports_only_error_classes_from_flow(module):
    # the Newton core integrates no ODE: trajectory checks of a solution
    # live with the test oracles, so only the error classes cross over
    path = Path(__file__).resolve().parents[1] / "src" / "wacyl" / module
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in (
                "flow", "wacyl.flow"):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # the module itself, as `from . import flow` or `import
            # wacyl.flow`
            names |= {alias.name for alias in node.names
                      if alias.name in ("flow", "wacyl.flow")}
    assert names and names <= {"NumericalError", "IntegrationError",
                               "NormBudgetError"}


def test_flow_imports_no_wacyl_module():
    # flow holds the error classes alone: it imports nothing of wacyl,
    # so every module, dop853 included, can import it
    path = Path(__file__).resolve().parents[1] / "src" / "wacyl" / "flow.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from .x import y` names x, `from . import x` names x
            names |= ({node.module} if node.module
                      else {alias.name for alias in node.names})
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # an absolute `wacyl` import is named in full, so it fails
            mods = ([alias.name for alias in node.names]
                    if isinstance(node, ast.Import) else [node.module])
            names |= {m for m in mods if m.split(".")[0] == "wacyl"}
    assert names == set()
