"""The DOP853 integrator against scipy's `solve_ivp(method="DOP853")`, whose
tableau and numpy expressions it copies: on the inputs of every wacyl
caller the trajectory and the evaluation count are bit-identical."""

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from oracles import VectorFieldSpec, integrate_flow
from wacyl import celestial
from wacyl.celestial import (CartesianState, CircularChart, CometOrbit,
                             ExtensionParams, Masses, SurrogateSystem,
                             extend_Hc, integrate_system)
from wacyl.dop853 import RTOL_MIN, solve_ivp
from wacyl.flow import IntegrationError

MASSES = Masses(1.0, 1e-3, 1e-3, mc=1e-3)
CHART = CircularChart(MASSES, a1=0.05, a2=1.0)


def comet_orbit(v):
    mu = MASSES.M + MASSES.mc
    return CometOrbit(eccentricity=1.5, a_h=mu / v ** 2, mu_grav=mu,
                      t_peri=-1.0)


def scipy_reference(fun, t_span, y0, rtol, atol, t_eval=None):
    """scipy's DOP853 on the same problem."""
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol,
                           atol=atol, t_eval=t_eval)


@pytest.fixture
def calls(monkeypatch):
    """Route celestial's solve_ivp through a recorder that also runs
    scipy on the same arguments; each call's pair of results is appended
    to the returned list."""
    pairs = []

    def recorder(*args, **kwargs):
        ours = solve_ivp(*args, **kwargs)
        pairs.append((ours, scipy_reference(*args, **kwargs)))
        return ours

    monkeypatch.setattr(celestial, "solve_ivp", recorder)
    return pairs


def assert_bitwise(a, b):
    """The same values with the same bits: np.array_equal alone takes
    -0.0 for 0.0, while trajectory.csv writes each value by repr."""
    assert np.array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_identical(ours, ref):
    assert ref.success
    assert ours.nfev == ref.nfev
    assert_bitwise(ours.t, ref.t)
    assert_bitwise(ours.y, ref.y)


def recorded(fun, seen):
    """fun, appending the (t, bytes of y) of each call to seen."""
    def rec(t, y):
        seen.append((t, y.tobytes()))
        return fun(t, y)

    return rec


def test_conservative_comet_matches_scipy(calls):
    # the Cartesian right-hand side with its comet and t_eval; no force
    # pass comes within PROXIMITY here
    st0 = CHART.state(np.array([0.1, 0.6, 0.0, 0.0]), np.zeros(2),
                      np.zeros(2), np.zeros(2))
    traj = integrate_system(st0, comet_orbit(25.0), MASSES, 1.0, 2.0,
                            tol=1e-11)
    (ours, ref), = calls
    assert_identical(ours, ref)
    assert traj["nfev"] == ref.nfev


def test_surrogate_matches_scipy(calls):
    system = SurrogateSystem(extend_Hc(ExtensionParams(epsilon=0.1),
                                       comet_orbit(250.0), MASSES, CHART))
    theta0 = np.array([0.1, 0.7, 0.0, 0.0])
    xi0 = np.array([0.3, -0.2])
    eta0 = system.leading_drift_momentum(theta0, xi0, 1.0)
    state0 = np.concatenate([theta0, xi0, np.zeros(2), eta0])
    system.integrate(state0, 1.0, 21.0, tol=1e-10)
    (ours, ref), = calls
    assert_identical(ours, ref)


def test_flow_solve_matches_scipy():
    # the torus flow of the test oracles on a block of two points, with
    # t_eval; the oracle itself solves on scipy, to the step end at t1
    mu = 0.05
    F = VectorFieldSpec([1.0, 0.5],
                        f=lambda q, t: mu * np.sin(2 * np.pi * q[..., ::-1])
                        / t)
    pts = np.array([[0.1, 0.2], [0.4, 0.9]])

    def rhs(t, y):
        return F.eval(y.reshape(pts.shape), t).ravel()

    args = (rhs, (1.0, 7.0), pts.ravel(), 1e-11, 1e-13)
    t_eval = np.linspace(1.0, 7.0, 13)
    assert_identical(solve_ivp(*args, t_eval=t_eval),
                     scipy_reference(*args, t_eval=t_eval))
    assert_bitwise(integrate_flow(F, pts, 1.0, 7.0, 1e-11),
                   scipy_reference(*args).y[:, -1].reshape(pts.shape))


def test_close_encounter_fails_on_scipys_force_pass(monkeypatch):
    # two bodies fall head-on from rest and meet near t = 1.39: under
    # scipy the right-hand side sees the same states, bit for bit, up to
    # the first force pass within PROXIMITY, which raises the same error
    masses = Masses(1.0, 1e-3, 1e-12, mc=0.0)
    x = np.array([[0.0, 0.0], [0.5, 0.0], [-50.0, 0.0]])
    make_rhs = celestial._cartesian_rhs
    runs = []
    monkeypatch.setattr(
        celestial, "_cartesian_rhs",
        lambda masses, comet: recorded(make_rhs(masses, comet), runs[-1]))
    messages = []
    for solver in (solve_ivp, scipy_reference):
        monkeypatch.setattr(celestial, "solve_ivp", solver)
        runs.append([])
        with pytest.raises(IntegrationError, match="close encounter") as err:
            integrate_system(CartesianState(x, np.zeros((3, 2))), None,
                             masses, 1.0, 2.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert runs[0] == runs[1]


def test_step_size_underflow_fails_as_scipy_does():
    # y' = y^2 from y(0) = 1 blows up at t = 1: where scipy returns
    # success=False, DOP853 raises after the same right-hand-side calls,
    # bit for bit, naming the last accepted step's t; with t_eval points
    # before the blow-up and with the end point alone
    def blowup(t, y):
        return y ** 2

    args = ((0.0, 2.0), [1.0], 1e-9, 1e-12)
    last_t = float(scipy_reference(blowup, *args).t[-1])
    for t_eval in (np.linspace(0.0, 2.0, 41), [2.0]):
        runs = ([], [])
        ref = scipy_reference(recorded(blowup, runs[1]), *args,
                              t_eval=t_eval)
        assert not ref.success
        with pytest.raises(IntegrationError, match=re.escape(
                f"step size underflow at t = {last_t!r}: the step ")):
            solve_ivp(recorded(blowup, runs[0]), *args, t_eval=t_eval)
        assert runs[0] == runs[1] and len(runs[0]) == ref.nfev


def test_several_t_eval_points_in_one_step_match_scipy():
    # a loose tolerance on a smooth oscillator takes steps that each hold
    # several t_eval points, so the dense output is evaluated on a batch
    def oscillator(t, y):
        return np.array([y[1], -y[0]])

    t_eval = np.linspace(0.0, 10.0, 400)
    args = (oscillator, (0.0, 10.0), [1.0, 0.0], 1e-6, 1e-9)
    ours = solve_ivp(*args, t_eval=t_eval)
    assert_identical(ours, scipy_reference(*args, t_eval=t_eval))
    steps = scipy_reference(*args).t
    assert np.diff(np.searchsorted(t_eval, steps, side="right")).max() >= 2


def kepler_list(t, s):
    x, y, vx, vy = s.tolist()
    r3 = (x * x + y * y) ** 1.5
    return [vx, vy, -x / r3, -y / r3]


def kepler_array(t, s):
    return np.array(kepler_list(t, s))


def test_t_eval_at_span_and_step_ends_matches_scipy():
    # the interpolant at x = 0 and x = 1: t0 is output on the first step,
    # and tf and every point equal to an accepted step's end on the step
    # that ends there
    e = 0.9
    y0 = [1 + e, 0.0, 0.0, ((1 - e) / (1 + e)) ** 0.5]
    args = ((0.0, 10.0), y0, 1e-9, 1e-12)
    step_ends = scipy_reference(kepler_array, *args).t
    for t_eval in ([0.0], [10.0], step_ends[1::3], step_ends):
        assert_identical(solve_ivp(kepler_array, *args, t_eval=t_eval),
                         scipy_reference(kepler_array, *args, t_eval=t_eval))


def test_empty_t_eval_and_the_returned_t_owns_its_points():
    args = (lambda t, y: -y, (0.0, 1.0), [1.0, 2.0], 1e-9, 1e-12)
    ours = solve_ivp(*args, t_eval=[])
    ref = scipy_reference(*args, t_eval=[])
    assert ours.t.shape == (0,) and ours.y.shape == (2, 0)
    assert ref.success and ours.nfev == ref.nfev
    # sol.t is no view of the caller's t_eval
    t_eval = np.linspace(0.0, 1.0, 5)
    ours = solve_ivp(*args, t_eval=t_eval)
    t_eval[:] = -1.0
    assert_bitwise(ours.t, np.linspace(0.0, 1.0, 5))


def test_a_list_and_an_array_rhs_fill_the_same_stage_rows():
    # an eccentric Kepler orbit from apocentre, once round and on: the
    # steps near pericentre are rejected and retried from f.  A list and
    # an array right-hand side give scipy's bits; an f_new that aliased
    # a row of K would start those retries from the overwritten row
    e = 0.9
    y0 = [1 + e, 0.0, 0.0, ((1 - e) / (1 + e)) ** 0.5]
    t_eval = np.linspace(0.0, 10.0, 50)
    args = ((0.0, 10.0), y0, 1e-9, 1e-12)
    ref = scipy_reference(kepler_array, *args, t_eval=t_eval)
    for fun in (kepler_list, kepler_array):
        assert_identical(solve_ivp(fun, *args, t_eval=t_eval), ref)
    # without t_eval, nfev = 2 + 12 (steps tried)
    free = scipy_reference(kepler_list, *args)
    assert (free.nfev - 2) // 12 > len(free.t) - 1


@pytest.mark.parametrize("t_eval, bad", [
    ([-0.5, 0.5, 2.0], r"t_eval\[0\] = -0\.5 lies outside"),
    ([0.0, 0.5, 2.0], r"t_eval\[2\] = 2\.0 lies outside"),
    ([0.2, 0.7, 0.5], r"t_eval\[2\] = 0\.5 follows 0\.7"),
    ([0.2, 0.2], r"t_eval\[1\] = 0\.2 follows 0\.2"),
    ([[0.2, 0.5]], r"`t_eval` must be 1-dimensional\."),
    (0.5, r"`t_eval` must be 1-dimensional\."),
], ids=["below", "above", "unsorted", "repeated", "2-d", "scalar"])
def test_t_eval_outside_the_span_or_out_of_order_is_refused(t_eval, bad):
    # scipy refuses these too; an extrapolated value or a dropped point
    # would otherwise come back with success=True
    with pytest.raises(ValueError, match=bad):
        solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0], rtol=1e-9,
                  atol=1e-12, t_eval=t_eval)
    with pytest.raises(ValueError):
        scipy_reference(lambda t, y: -y, (0.0, 1.0), [1.0], 1e-9, 1e-12,
                        t_eval=t_eval)


def test_t_eval_on_a_backward_span_is_refused():
    with pytest.raises(ValueError, match=r"t0 = 2\.0, t1 = 1\.0"):
        solve_ivp(lambda t, y: -y, (2.0, 1.0), [1.0], rtol=1e-9, atol=1e-12,
                  t_eval=[1.5])


def test_an_infinite_span_is_refused():
    # a run towards t1 = inf would never reach its end
    for t0, t1 in ((1.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"(got t0 = {t0}, t1 = {t1})")):
            solve_ivp(lambda t, y: pytest.fail("fun was called"), (t0, t1),
                      [1.0], rtol=1e-9, atol=1e-12, t_eval=[1.0])


def test_the_encounter_check_adds_no_force_pass(monkeypatch):
    # the right-hand side checks the distances of its own force pass:
    # one pass per evaluation counted in nfev, and none besides.  A pass
    # over the three bodies, in the right-hand side or in H0, takes one
    # square root per pair
    roots = []

    def counted(v):
        roots.append(1)
        return math.sqrt(v)

    counting_math = SimpleNamespace(**vars(math))
    counting_math.sqrt = counted
    monkeypatch.setattr(celestial, "math", counting_math)
    st0 = CHART.state(np.array([0.1, 0.6, 0.0, 0.0]), np.zeros(2),
                      np.zeros(2), np.zeros(2))
    traj = integrate_system(st0, None, MASSES, 1.0, 2.0)
    passes, rest = divmod(len(roots), 3)
    assert rest == 0
    # + 1 per H0 sample
    assert passes == traj["nfev"] + celestial.TRAJECTORY_SAMPLES


def test_nfev_is_the_number_of_calls():
    # nfev is counted as 2 + 12 per step tried + 3 per dense output;
    # a wrapping fun counts the calls themselves
    def oscillator(t, y):
        return np.array([y[1], -y[0]])

    e = 0.9
    kepler_y0 = [1 + e, 0.0, 0.0, ((1 - e) / (1 + e)) ** 0.5]
    runs = {
        "end point only": (oscillator, (0.0, 10.0), [1.0, 0.0], 1e-9,
                           1e-12, [10.0]),
        "t_eval points in one step": (
            oscillator, (0.0, 10.0), [1.0, 0.0], 1e-6, 1e-9,
            np.linspace(0.0, 10.0, 400)),
        "rejected steps": (kepler_list, (0.0, 10.0), kepler_y0, 1e-9,
                           1e-12, np.linspace(0.0, 10.0, 50)),
    }
    for name, (fun, t_span, y0, rtol, atol, t_eval) in runs.items():
        calls = []

        def counted(t, y, fun=fun):
            calls.append(t)
            return fun(t, y)

        sol = solve_ivp(counted, t_span, y0, rtol=rtol, atol=atol,
                        t_eval=t_eval)
        assert sol.nfev == len(calls), name
        ref = scipy_reference(fun, t_span, y0, rtol, atol, t_eval=t_eval)
        assert sol.nfev == ref.nfev, name
        if name == "rejected steps":
            # more steps tried than taken
            assert (sol.nfev - 2) // 12 > len(
                scipy_reference(fun, t_span, y0, rtol, atol).t) - 1


def test_non_finite_initial_state_is_refused():
    # a non-finite state or tolerance is refused up front; a nan rtol or
    # atol used to loop forever in the step-size control
    for y0, rtol, atol in (([0.0, np.nan], 1e-9, 1e-12),
                           ([1.0, 0.0], np.nan, 1e-12),
                           ([1.0, 0.0], 1e-9, np.nan),
                           ([1.0, 0.0], np.inf, 1e-12)):
        with pytest.raises(ValueError, match="must be finite"):
            solve_ivp(lambda t, y: y, (0.0, 1.0), y0, rtol=rtol,
                      atol=atol, t_eval=[1.0])


def test_rtol_below_the_floor_is_refused():
    # scipy raises an rtol below 100 eps to that floor with a warning, so
    # a run would not be at the tolerance its caller asked for; at the
    # floor itself scipy runs as asked, and so does DOP853
    args = ((0.0, 1.0), [1.0, 2.0])
    below = math.nextafter(RTOL_MIN, 0.0)
    with pytest.warns(UserWarning, match="`rtol` is too small"):
        scipy_reference(lambda t, y: -y, *args, below, 1e-20)
    with pytest.raises(ValueError, match=re.escape(
            f"rtol = {below} is below DOP853's floor 100 eps = "
            f"{RTOL_MIN}")):
        solve_ivp(lambda t, y: pytest.fail("fun was called"), *args,
                  rtol=below, atol=1e-20, t_eval=[1.0])
    assert_identical(
        solve_ivp(lambda t, y: -y, *args, RTOL_MIN, 1e-20, t_eval=[1.0]),
        scipy_reference(lambda t, y: -y, *args, RTOL_MIN, 1e-20,
                        t_eval=[1.0]))


def surrogate_run(t1):
    system = SurrogateSystem(extend_Hc(ExtensionParams(epsilon=0.1),
                                       comet_orbit(250.0), MASSES, CHART))
    system.rhs = lambda t, y: pytest.fail("the right-hand side ran")
    system.integrate(np.zeros(10), 1.0, t1)


def conservative_run(t1):
    st0 = CHART.state(np.array([0.1, 0.6, 0.0, 0.0]), np.zeros(2),
                      np.zeros(2), np.zeros(2))
    integrate_system(st0, None, MASSES, 1.0, t1)


@pytest.mark.parametrize("t1", [1.0, 0.5, math.nan, math.inf, -1.0],
                         ids=["empty", "backward", "nan", "infinite",
                              "negative"])
@pytest.mark.parametrize("run", [conservative_run, surrogate_run],
                         ids=["integrate_system", "surrogate"])
def test_a_span_that_does_not_run_forward_is_refused(monkeypatch, run, t1):
    # both trajectories run forward from t0 = 1; the span is refused,
    # naming it, before the right-hand side runs and before the samples
    # are built, on which t1 = inf (both) and t1 <= 0 (geomspace) meet
    # numpy's invalid-value RuntimeWarning, an error in this suite
    monkeypatch.setattr(celestial, "_cartesian_rhs", lambda masses, comet:
                        lambda t, y: pytest.fail("the right-hand side ran"))
    with pytest.raises(ValueError, match=re.escape(
            f"t_span must be finite with t0 < t1: DOP853 runs forward "
            f"(got t0 = 1.0, t1 = {t1})")):
        run(t1)


# ---- scipy and warnings stay out of the library ----------------------

SRC = Path(__file__).resolve().parents[1] / "src"

NO_SCIPY = """
import sys
import wacyl.cli
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
assert wacyl.cli.main(["--out", sys.argv[1], "--set", "norms.trials=1",
                       "verify-norms"]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
"""


def test_cli_loads_no_scipy(tmp_path):
    # importing scipy.integrate used to cost most of every subcommand's
    # start-up; neither the import nor a verify-norms run may load scipy
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def library_importers(package):
    """The modules under src/wacyl that import package or a submodule."""
    importers = set()
    for path in (SRC / "wacyl").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == package or n.startswith(package + ".")
                   for n in names):
                importers.add(path.name)
    return importers


def test_no_library_module_imports_scipy():
    assert library_importers("scipy") == set()


def test_no_library_module_imports_warnings():
    # bad input is refused, not degraded with a warning: DOP853 once
    # raised a too-small rtol to its floor and warned
    assert library_importers("warnings") == set()
