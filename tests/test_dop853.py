"""The DOP853 integrator against scipy's `solve_ivp(method="DOP853")`, whose
tableau and numpy expressions it copies: on the inputs of every wacyl
caller the trajectory and the evaluation count are bit-identical."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from wacyl import celestial, flow
from wacyl.celestial import (CartesianState, CircularChart, CometOrbit,
                             ExtensionParams, Masses, SurrogateSystem,
                             extend_Hc, integrate_system)
from wacyl.dop853 import solve_ivp
from wacyl.flow import IntegrationError, VectorFieldSpec, integrate_flow

MASSES = Masses(1.0, 1e-3, 1e-3, mc=1e-3)
CHART = CircularChart(MASSES, a1=0.05, a2=1.0)


def comet_orbit(v):
    mu = MASSES.M + MASSES.mc
    return CometOrbit(eccentricity=1.5, a_h=mu / v ** 2, mu_grav=mu,
                      t_peri=-1.0)


def scipy_reference(fun, t_span, y0, rtol, atol, t_eval=None, events=None):
    """scipy's DOP853 on the same problem; the event is terminal."""
    if events is not None:
        event = events

        def events(t, y):
            return event(t, y)

        events.terminal = True
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol,
                           atol=atol, t_eval=t_eval, events=events)


@pytest.fixture
def calls(monkeypatch):
    """Route the solve_ivp of flow and celestial through a recorder that
    also runs scipy on the same arguments; each call's pair of results
    is appended to the returned list."""
    pairs = []

    def recorder(*args, **kwargs):
        ours = solve_ivp(*args, **kwargs)
        pairs.append((ours, scipy_reference(*args, **kwargs)))
        return ours

    monkeypatch.setattr(flow, "solve_ivp", recorder)
    monkeypatch.setattr(celestial, "solve_ivp", recorder)
    return pairs


def assert_bitwise(a, b):
    """The same values with the same bits: np.array_equal alone takes
    -0.0 for 0.0, while trajectory.csv writes each value by repr."""
    assert np.array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_identical(ours, ref):
    assert ours.success and ref.success
    assert ours.message == ref.message
    assert ours.nfev == ref.nfev
    assert_bitwise(ours.t, ref.t)
    assert_bitwise(ours.y, ref.y)


def test_conservative_comet_matches_scipy(calls):
    # the Cartesian right-hand side with its comet, t_eval and the
    # encounter event, which stays positive here
    st0 = CHART.state(np.array([0.1, 0.6, 0.0, 0.0]), np.zeros(2),
                      np.zeros(2), np.zeros(2))
    traj = integrate_system(st0, comet_orbit(25.0), MASSES, 1.0, 2.0,
                            tol=1e-11)
    (ours, ref), = calls
    assert_identical(ours, ref)
    assert ours.t_events[0].size == ref.t_events[0].size == 0
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
    assert ours.t_events is None


@pytest.mark.parametrize("t0, t1", [(1.0, 7.0), (7.0, 1.0)],
                         ids=["forward", "backward"])
def test_flow_solve_matches_scipy(calls, t0, t1):
    mu = 0.05
    F = VectorFieldSpec([1.0, 0.5],
                        f=lambda q, t: mu * np.sin(2 * np.pi * q[..., ::-1])
                        / t)
    integrate_flow(F, np.array([[0.1, 0.2], [0.4, 0.9]]), t0, t1, 1e-11)
    (ours, ref), = calls
    assert_identical(ours, ref)
    assert ours.t[-1] == t1


def test_close_encounter_root_matches_brentq(calls):
    # two bodies fall head-on from rest and meet near t = 1.39: the
    # bisection and scipy's brentq bracket the same sign change
    masses = Masses(1.0, 1e-3, 1e-12, mc=0.0)
    x = np.array([[0.0, 0.0], [0.5, 0.0], [-50.0, 0.0]])
    with pytest.raises(IntegrationError, match="close encounter"):
        integrate_system(CartesianState(x, np.zeros((3, 2))), None, masses,
                         1.0, 2.0)
    (ours, ref), = calls
    assert ours.message == ref.message == "A termination event occurred."
    assert ours.nfev == ref.nfev
    assert_bitwise(ours.t, ref.t)
    assert_bitwise(ours.y, ref.y)
    root, = ours.t_events[0]
    ref_root, = ref.t_events[0]
    assert abs(root - ref_root) <= 1e-12


def test_step_size_underflow_fails_as_scipy_does():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    def blowup(t, y):
        return y ** 2

    ours = solve_ivp(blowup, (0.0, 2.0), [1.0], rtol=1e-9, atol=1e-12)
    ref = scipy_reference(blowup, (0.0, 2.0), [1.0], 1e-9, 1e-12)
    assert not ours.success and not ref.success
    assert ours.message == ref.message
    assert ours.nfev == ref.nfev
    assert_bitwise(ours.t, ref.t)
    assert_bitwise(ours.y, ref.y)


def test_several_t_eval_points_in_one_step_match_scipy():
    # a loose tolerance on a smooth oscillator takes steps that each hold
    # several t_eval points, so the dense output is evaluated on a batch
    def oscillator(t, y):
        return np.array([y[1], -y[0]])

    t_eval = np.linspace(0.0, 10.0, 400)
    args = (oscillator, (0.0, 10.0), [1.0, 0.0], 1e-6, 1e-9)
    ours = solve_ivp(*args, t_eval=t_eval)
    assert_identical(ours, scipy_reference(*args, t_eval=t_eval))
    steps = solve_ivp(*args).t
    assert np.diff(np.searchsorted(t_eval, steps, side="right")).max() >= 2


def kepler_list(t, s):
    x, y, vx, vy = s.tolist()
    r3 = (x * x + y * y) ** 1.5
    return [vx, vy, -x / r3, -y / r3]


def kepler_array(t, s):
    return np.array(kepler_list(t, s))


def test_a_list_and_an_array_rhs_fill_the_same_stage_rows():
    # an eccentric Kepler orbit from apocentre: the steps near pericentre
    # are rejected and retried from f, and the terminal event stops the
    # run just after it.  A list and an array right-hand side give
    # scipy's bits; an f_new that aliased a row of K would start those
    # retries from the overwritten row
    e = 0.9
    y0 = [1 + e, 0.0, 0.0, ((1 - e) / (1 + e)) ** 0.5]
    t_eval = np.linspace(0.0, 10.0, 50)

    def past_pericentre(t, s):
        return s[1] + 0.01

    args = ((0.0, 10.0), y0, 1e-9, 1e-12)
    ref = scipy_reference(kepler_array, *args, t_eval=t_eval,
                          events=past_pericentre)
    assert ref.message == "A termination event occurred."
    for fun in (kepler_list, kepler_array):
        ours = solve_ivp(fun, *args, t_eval=t_eval, events=past_pericentre)
        assert ours.message == ref.message
        assert ours.nfev == ref.nfev
        assert_bitwise(ours.t, ref.t)
        assert_bitwise(ours.y, ref.y)
        # bisection and scipy's brentq bracket the same sign change
        assert abs(ours.t_events[0][0] - ref.t_events[0][0]) <= 1e-12
    # without t_eval and events, nfev = 2 + 12 (steps tried)
    free = solve_ivp(kepler_list, (0.0, ours.t_events[0][0]), y0,
                     rtol=1e-9, atol=1e-12)
    assert (free.nfev - 2) // 12 > len(free.t) - 1


@pytest.mark.parametrize("t_eval, bad", [
    ([-0.5, 0.5, 2.0], r"t_eval\[0\] = -0\.5 lies outside"),
    ([0.0, 0.5, 2.0], r"t_eval\[2\] = 2\.0 lies outside"),
    ([0.2, 0.7, 0.5], r"t_eval\[2\] = 0\.5 follows 0\.7"),
    ([0.2, 0.2], r"t_eval\[1\] = 0\.2 follows 0\.2"),
], ids=["below", "above", "unsorted", "repeated"])
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


def test_encounter_event_reuses_the_last_force_pass(monkeypatch):
    # the event reads the smallest distance of the force pass that the
    # accepted step's last stage made on the same state: one extra pass
    # for the event at t0, none per step
    passes = []
    body_gravity = celestial._body_gravity

    def counted(*args):
        passes.append(1)
        return body_gravity(*args)

    monkeypatch.setattr(celestial, "_body_gravity", counted)
    st0 = CHART.state(np.array([0.1, 0.6, 0.0, 0.0]), np.zeros(2),
                      np.zeros(2), np.zeros(2))
    traj = integrate_system(st0, None, MASSES, 1.0, 2.0)
    # + 1 for the event at t0, + 1 per H0 sample
    assert len(passes) == traj["nfev"] + 1 + celestial.TRAJECTORY_SAMPLES


def test_non_finite_initial_state_is_refused():
    # a non-finite state or tolerance is refused up front; a nan rtol or
    # atol used to loop forever in the step-size control
    for y0, rtol, atol in (([0.0, np.nan], 1e-9, 1e-12),
                           ([1.0, 0.0], np.nan, 1e-12),
                           ([1.0, 0.0], 1e-9, np.nan),
                           ([1.0, 0.0], np.inf, 1e-12)):
        with pytest.raises(ValueError, match="must be finite"):
            solve_ivp(lambda t, y: y, (0.0, 1.0), y0, rtol=rtol,
                      atol=atol)


# ---- scipy stays out of the library ----------------------------------

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


def test_no_library_module_imports_scipy():
    importers = set()
    for path in (SRC / "wacyl").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.add(path.name)
    assert importers == set()
