"""The adaptive stepper against SciPy's RK45, which it reproduces double for
double.  SciPy is a test oracle only: no runtime module imports it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45, cumulative_trapezoid

import rigidform.simulate as simulate_mod
from rigidform import IntegratorConfig, TerminationCriteria, integrate
from rigidform.cli import main
from rigidform.scenarios import builtin_names, builtin_scenario

SRC = Path(__file__).resolve().parents[1] / "src"


def _oracle(rhs, x0, cfg: IntegratorConfig) -> RK45:
    return RK45(rhs, 0.0, x0, t_bound=cfg.t_max, max_step=cfg.dt_max, rtol=cfg.rtol,
                atol=cfg.atol, **({"first_step": cfg.dt_init} if cfg.dt_init else {}))


def _assert_same_state(state, solver: RK45):
    t, x, u, last = state
    assert solver.status != "failed"
    assert t == solver.t
    assert last == (solver.status == "finished")
    assert np.array_equal(x, solver.y)
    assert np.array_equal(u, solver.f)


def test_tableau_is_scipys():
    assert np.array_equal(simulate_mod._DP_C, RK45.C)
    assert np.array_equal(simulate_mod._DP_A, RK45.A)
    assert np.array_equal(simulate_mod._DP_B, RK45.B)
    assert np.array_equal(simulate_mod._DP_E, RK45.E)
    assert simulate_mod._ERROR_EXPONENT == -1 / (RK45.error_estimator_order + 1)


def _simulate_runs():
    for name in builtin_names():
        kinds = ("gradient", "model")
        if builtin_scenario(name).orientation is not None:
            kinds += ("directed",)
        for kind in kinds:
            for seed in (None, 4):
                yield name, kind, seed


@pytest.mark.parametrize("name, kind, seed", list(_simulate_runs()))
def test_builtin_runs_step_as_scipy_does(capsys, monkeypatch, name, kind, seed):
    # every state a CLI run consumes is checked against SciPy's, stepped
    # alongside on the same field
    ours = simulate_mod._rk45_steps
    checked = []

    def lockstep(rhs, x0, u0, cfg):
        solver = _oracle(rhs, x0, cfg)
        for state in ours(rhs, x0, u0, cfg):
            solver.step()
            _assert_same_state(state, solver)
            checked.append(state[0])
            yield state

    monkeypatch.setattr(simulate_mod, "_rk45_steps", lockstep)
    argv = ["simulate", name, "--controller", kind]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    # square-flex's explicit start is an equilibrium: that run takes no step
    assert checked or "converged at t=0 " in capsys.readouterr().out


@st.composite
def linear_systems(draw):
    """(M, x0, config) of x' = M x: up to six states, short horizons."""
    n = draw(st.integers(1, 6))
    entry = st.floats(-3.0, 3.0)
    M = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    x0 = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    cfg = IntegratorConfig(
        t_max=draw(st.floats(0.1, 2.0)),
        rtol=draw(st.sampled_from([1e-3, 1e-6, 1e-8, 1e-11])),
        atol=draw(st.sampled_from([1e-4, 1e-8, 1e-10, 1e-13])),
        dt_max=draw(st.floats(0.05, 1.0)),
        dt_init=draw(st.none() | st.floats(1e-5, 0.1)),
    )
    return M, x0, cfg


@settings(max_examples=60, deadline=None)
@given(linear_systems())
def test_linear_systems_step_as_scipy_does(system):
    M, x0, cfg = system

    def rhs(t, x):
        return M @ x

    states = list(simulate_mod._rk45_steps(rhs, x0, rhs(0.0, x0), cfg))
    solver = _oracle(rhs, x0, cfg)
    for state in states:
        solver.step()
        _assert_same_state(state, solver)
    assert solver.status == "finished"


def test_failed_step_fails_where_scipy_does():
    # x' = x^2 blows up at t = 1 / 2; both steppers give up at the same state
    def rhs(t, x):
        return x**2

    x0, cfg = np.full(3, 2.0), IntegratorConfig(t_max=1.0)
    solver = _oracle(rhs, x0, cfg)
    steps = simulate_mod._rk45_steps(rhs, x0, rhs(0.0, x0), cfg)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(simulate_mod._StepFailed):
        for state in steps:
            solver.step()
            _assert_same_state(state, solver)
    solver.step()
    assert solver.status == "failed"


@pytest.mark.parametrize("method, sample_every", [("rk45", 1), ("rk45", 3), ("rk4", 1)])
def test_energy_is_scipys_cumulative_trapezoid(method, sample_every):
    for name in builtin_names():
        scn = builtin_scenario(name)
        cfg = IntegratorConfig(method=method, t_max=2.0, sample_every=sample_every)
        traj = integrate(scn.controller_spec(), scn.initial_configuration(4), cfg,
                         TerminationCriteria(tol_edge=1e-12))
        expected = cumulative_trapezoid(traj.speed**2, traj.times, initial=0.0)
        assert np.array_equal(traj.energy, expected)


def test_runtime_loads_no_scipy():
    code = (
        "import sys, rigidform\n"
        "from rigidform.cli import main\n"
        "assert main(['simulate', 'w5-undirected', '--t-max', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
