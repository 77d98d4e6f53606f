"""Closed-loop integration: convergence, termination, energy, decay fits."""

from dataclasses import fields, replace

import numpy as np
import pytest

import rigidform.simulate as simulate_mod
from rigidform import (
    Configuration,
    ControllerSpec,
    IntegratorConfig,
    Measurement,
    RankDeficiencyError,
    TerminationCriteria,
    build_graph,
    control_energy,
    decay_rate,
    detect_convergence,
    distance_map,
    eta_matrix,
    integrate,
    linearized_edge_matrix,
    orient,
)
from rigidform.scenarios import ScenarioError, builtin_scenario, scenario_from_dict

PAIR = build_graph(2, [(1, 2)])


def _pair_spec():
    return ControllerSpec(PAIR, "gradient", Measurement([4.0]))


def test_single_edge_converges_to_target_length():
    # 1-D gradient flow on one edge: monotone approach to squared length 4
    traj = integrate(
        _pair_spec(),
        Configuration(1, [[0.0], [1.0]]),
        IntegratorConfig(t_max=5.0),
        TerminationCriteria(tol_edge=1e-10),
    )
    assert traj.termination == "converged"
    gap = abs(np.linalg.norm(traj.positions[-1, 0] - traj.positions[-1, 1]) - 2.0)
    assert gap < 1e-6
    assert traj.edge_error[-1] < 1e-6
    # edge error decreases monotonically for this scalar flow
    assert np.all(np.diff(traj.edge_error) <= 1e-12)


def test_single_edge_decay_rate_matches_linearization():
    # at the equilibrium |p1-p2| = 2 the restriction is A = 2RR^T = 16,
    # so log(edge error) should decay at slope ~16 near the end
    spec = _pair_spec()
    traj = integrate(
        spec,
        Configuration(1, [[0.0], [1.9]]),
        IntegratorConfig(t_max=5.0),
        TerminationCriteria(tol_edge=1e-9),
    )
    rate = decay_rate(traj)
    p_eq = Configuration(1, [[0.0], [2.0]])
    lam = linearized_edge_matrix(spec, p_eq).spectrum[0].real
    assert lam == pytest.approx(16.0, abs=1e-9)
    assert abs(rate - lam) < 0.2 * lam


def test_equilibrium_start_is_constant():
    scn = builtin_scenario("w5-undirected")
    traj = integrate(scn.controller_spec(), scn.target, scn.integrator, scn.termination)
    assert traj.termination == "converged"
    assert len(traj.times) == 1
    assert traj.termination_time == 0.0
    assert control_energy(traj) == 0.0
    with pytest.raises(ValueError):
        decay_rate(traj)


def test_gradient_run_converges_and_is_congruent():
    scn = builtin_scenario("w5-undirected")
    p0 = scn.initial_configuration(1)
    traj = integrate(scn.controller_spec(), p0, scn.integrator, scn.termination)
    assert traj.termination == "converged"
    out = detect_convergence(traj, scn.target, scn.termination)
    assert out.edge_converged and out.node_converged and out.congruent
    assert decay_rate(traj) > 0


def test_limit_cycle_detection_on_bad_wheel_target():
    scn = builtin_scenario("w5-directed-bad")
    traj = integrate(scn.controller_spec(), scn.initial_configuration(0),
                     scn.integrator, scn.termination)
    assert traj.termination == "limit-cycle-suspect"
    # error has leveled at a positive value while the formation keeps moving
    tail = traj.edge_error[-scn.termination.window:]
    assert tail.min() > 0
    assert tail.max() - tail.min() < 0.1 * tail.mean()
    assert traj.speed[-1] > scn.termination.min_speed
    out = detect_convergence(traj, scn.target, scn.termination)
    assert not out.edge_converged
    assert not out.node_converged


def test_measurements_recomputed_from_positions():
    # S1: samples sit on the measurement manifold exactly
    scn = builtin_scenario("w5-undirected")
    traj = integrate(scn.controller_spec(), scn.initial_configuration(2),
                     scn.integrator, scn.termination)
    for k in range(0, len(traj.times), 7):
        p = Configuration(2, traj.positions[k])
        assert np.array_equal(traj.measurements[k], distance_map(scn.graph, p).values)


def test_chain_rule_along_samples():
    # S2: between close samples, d/dt ||e||^2 ~ -2 e^T eta e within 5%
    scn = builtin_scenario("w5-undirected")
    spec = scn.controller_spec()
    cfg = IntegratorConfig(method="rk4", dt=0.002, t_max=1.0)
    traj = integrate(spec, scn.initial_configuration(3), cfg,
                     TerminationCriteria(tol_edge=1e-12))
    m_star = spec.m_star.values
    checked = 0
    for k in range(0, len(traj.times) - 1, 25):
        e0 = m_star - traj.measurements[k]
        e1 = m_star - traj.measurements[k + 1]
        v0, v1 = float(e0 @ e0), float(e1 @ e1)
        if v0 < 1e-6:
            continue
        h = traj.times[k + 1] - traj.times[k]
        fd = (v1 - v0) / h
        mid = Configuration(2, 0.5 * (traj.positions[k] + traj.positions[k + 1]))
        e_mid = m_star - distance_map(scn.graph, mid).values
        predicted = -2.0 * float(e_mid @ eta_matrix(spec, mid) @ e_mid)
        assert abs(fd - predicted) <= 0.05 * abs(predicted)
        checked += 1
    assert checked >= 10


def test_gradient_potential_descends_between_samples():
    # C2 along an actual trajectory: V(t) is non-increasing sample to sample
    scn = builtin_scenario("w5-undirected")
    traj = integrate(scn.controller_spec(), scn.initial_configuration(4),
                     scn.integrator, scn.termination)
    V = 0.25 * traj.edge_error**2
    assert np.all(np.diff(V) <= 1e-12)


def test_bitwise_determinism():
    # S3: same inputs, same bits
    scn = builtin_scenario("w5-directed-good")
    runs = [
        integrate(scn.controller_spec(), scn.initial_configuration(5),
                  scn.integrator, scn.termination)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].times, runs[1].times)
    assert np.array_equal(runs[0].positions, runs[1].positions)
    assert np.array_equal(runs[0].energy, runs[1].energy)
    assert runs[0].termination == runs[1].termination


def test_rk4_agrees_with_rk45():
    scn = builtin_scenario("w5-undirected")
    p0 = scn.initial_configuration(6)
    spec = scn.controller_spec()
    t45 = integrate(spec, p0, scn.integrator, scn.termination)
    t4 = integrate(spec, p0, IntegratorConfig(method="rk4", dt=0.01, t_max=60.0),
                   scn.termination)
    assert t4.termination == "converged"
    ok, res = True, 0.0
    from rigidform import congruence_check
    ok, res = congruence_check(
        Configuration(2, t4.positions[-1]), Configuration(2, t45.positions[-1]),
        tol=1e-4,
    )
    assert ok, res


def test_energy_is_nondecreasing_and_stride_insensitive():
    # the fastest mode decays at ~60/s, so "small steps" here means
    # h well under 0.01; dt = 0.002 puts the trapezoid error < 1%
    scn = builtin_scenario("w5-undirected")
    spec = scn.controller_spec()
    p0 = scn.initial_configuration(7)
    base = IntegratorConfig(method="rk4", dt=0.002, t_max=3.0)
    coarse = IntegratorConfig(method="rk4", dt=0.002, t_max=3.0, sample_every=2)
    crit = TerminationCriteria(tol_edge=1e-12)
    tb = integrate(spec, p0, base, crit)
    tc = integrate(spec, p0, coarse, crit)
    assert np.all(np.diff(tb.energy) >= -1e-15)
    eb, ec = control_energy(tb), control_energy(tc)
    assert abs(eb - ec) < 0.01 * eb


def test_model_rank_loss_aborts_immediately():
    tri = build_graph(3, [(1, 2), (1, 3), (2, 3)])
    spec = ControllerSpec(tri, "model", Measurement([1.0, 1.0, 1.0]))
    collinear = Configuration(2, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(RankDeficiencyError) as raised:
        integrate(spec, collinear, IntegratorConfig(t_max=1.0))
    # the field's own cause and rank survive
    assert str(raised.value) == ("initial configuration is rank deficient: "
                                 "not a regular point: rank 2 != generic rank 3")
    assert raised.value.rank == 2


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_mid_run_rank_loss_terminates_aborted(monkeypatch, method):
    scn = builtin_scenario("w5-undirected")
    spec = scn.controller_spec()
    real = simulate_mod.evaluate_field

    def failing(spec_, p, seed=0):
        if failing.calls > 40:
            raise RankDeficiencyError("synthetic rank loss")
        failing.calls += 1
        return real(spec_, p, seed)

    failing.calls = 0
    monkeypatch.setattr(simulate_mod, "evaluate_field", failing)
    cfg = replace(scn.integrator, method=method)
    traj = integrate(spec, scn.initial_configuration(8), cfg, scn.termination)
    assert traj.termination == "aborted"
    assert len(traj.times) >= 1
    assert traj.termination_time == traj.times[-1]


@pytest.mark.parametrize("method, poison", [
    pytest.param("rk45", "state", id="rk45"),
    pytest.param("rk4", "state", id="rk4"),
    pytest.param("rk4", "value", id="rk4-value"),
])
def test_model_run_onto_non_finite_state_terminates_aborted(capfd, monkeypatch, method, poison):
    # the model field meets a NaN state mid-run: a named rank verdict ends the
    # run, where LAPACK would fail on the matrix or print to stderr; or the
    # field returns NaN at a finite state, and the divergence check ends it
    scn = builtin_scenario("w5-undirected")
    real = simulate_mod.evaluate_field

    def poisoned(spec_, p, seed=0):
        poisoned.calls += 1
        if poisoned.calls > 40:
            if poison == "value":
                return np.full(p.d * p.n, np.nan)
            p = Configuration(p.d, np.where(np.arange(p.n)[:, None] == 2, np.nan, p.points))
        return real(spec_, p, seed)

    poisoned.calls = 0
    monkeypatch.setattr(simulate_mod, "evaluate_field", poisoned)
    cfg = replace(scn.integrator, method=method)
    traj = integrate(scn.controller_spec("model"), scn.initial_configuration(8), cfg,
                     scn.termination)
    assert traj.termination == "aborted"
    assert np.isfinite(traj.positions).all()
    assert capfd.readouterr().err == ""
    if poison == "value":
        # the start takes one field call and each RK4 step (dt = 0.01) four,
        # the last at its new state: call 41 is state 10's value, so states
        # 0-9 are kept
        assert len(traj.times) == 10
        assert all(np.isfinite(a).all() for a in (traj.times, traj.measurements,
                                                   traj.edge_error, traj.speed, traj.energy))


def test_failed_adaptive_step_terminates_aborted(monkeypatch):
    # x' = x^2 blows up at t = 1 / x0, where RK45's step falls below the
    # spacing of floats and the solver reports "failed"
    scn = builtin_scenario("w5-undirected")

    def blowup(spec_, p, seed=0):
        return p.vector**2

    monkeypatch.setattr(simulate_mod, "evaluate_field", blowup)
    p0 = Configuration(2, np.full((5, 2), 2.0))
    traj = integrate(scn.controller_spec(), p0, IntegratorConfig(t_max=1.0),
                     TerminationCriteria(window=10**6))
    assert traj.termination == "aborted"
    assert traj.termination_time == pytest.approx(0.5, abs=1e-6)


def test_an_aborted_run_says_why(monkeypatch):
    # each way to end "aborted" is named on the trajectory, with its detail;
    # a run that ends any other way has no cause
    scn = builtin_scenario("w5-undirected")
    spec, p0 = scn.controller_spec(), scn.initial_configuration(8)
    traj = integrate(spec, p0, scn.integrator, scn.termination)
    assert (traj.termination, traj.cause) == ("converged", None)

    real = simulate_mod.evaluate_field

    def losing(spec_, p, seed=0):
        losing.calls += 1
        if losing.calls > 40:
            exc = RankDeficiencyError("not a regular point: rank 6 != generic rank 7")
            exc.rank = 6
            raise exc
        return real(spec_, p, seed)

    losing.calls = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_mod, "evaluate_field", losing)
        traj = integrate(spec, p0, scn.integrator, scn.termination)
    assert traj.cause == "rank loss: not a regular point: rank 6 != generic rank 7"

    fig4 = builtin_scenario("fig4-nonpersistent")
    traj = integrate(fig4.controller_spec("gradient"), fig4.initial_configuration(2),
                     IntegratorConfig(method="rk4", dt=0.03, t_max=30.0, sample_every=7),
                     fig4.termination)
    assert traj.termination == "aborted" and traj.cause.startswith("diverged: ")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_mod, "evaluate_field", lambda spec_, p, seed=0: p.vector**2)
        traj = integrate(spec, Configuration(2, np.full((5, 2), 2.0)),
                         IntegratorConfig(t_max=1.0), TerminationCriteria(window=10**6))
    assert traj.cause.startswith("step failed: step size fell below the spacing of floats at t=0.5")

    monkeypatch.setattr(simulate_mod, "_STEP_BUDGET", 30)
    tiny = IntegratorConfig(method="rk4", dt=1e-300, t_max=1.0)
    traj = integrate(spec, p0, tiny, scn.termination)
    assert (traj.termination, traj.cause) == ("aborted", "step budget: 30 accepted steps, the cap of 30")


def test_diverged_rk4_run_terminates_aborted():
    # dt = 0.03 is too long a step for this start: the state overflows to
    # NaN within the first seven steps, before the second sample
    scn = builtin_scenario("fig4-nonpersistent")
    cfg = IntegratorConfig(method="rk4", dt=0.03, t_max=30.0, sample_every=7)
    traj = integrate(scn.controller_spec("gradient"), scn.initial_configuration(2),
                     cfg, scn.termination)
    assert traj.termination == "aborted"
    assert traj.termination_time == traj.times[-1] < 30.0
    assert np.isfinite(traj.positions).all() and np.isfinite(traj.edge_error).all()


@pytest.mark.parametrize("kind", ["gradient", "directed"])
@pytest.mark.parametrize("seed, shown", [(-1, "-1"), (True, "True")], ids=["negative", "bool"])
def test_bad_seed_is_named_for_every_controller(kind, seed, shown):
    # only the model field draws with the seed; the others are named too
    orientation = orient(PAIR, [(1, 2)]) if kind == "directed" else None
    spec = ControllerSpec(PAIR, kind, Measurement([4.0]), orientation)
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {shown}"):
        integrate(spec, Configuration(1, [[0.0], [1.0]]), seed=seed)


def test_non_finite_start_is_an_input_error():
    spec = _pair_spec()
    with pytest.raises(ValueError, match="initial configuration is not finite"):
        integrate(spec, Configuration(1, [[0.0], [np.nan]]))
    # finite coordinates past COORD_LIMIT, where the squared lengths overflow
    with pytest.raises(ValueError, match="initial configuration has an entry of magnitude 1e\\+75 or more"):
        integrate(spec, Configuration(1, [[0.0], [1e200]]))
    # coordinates within the bound whose field value overflows against a huge target
    with pytest.raises(ValueError, match="field value .* not finite"):
        integrate(ControllerSpec(PAIR, "gradient", Measurement([1e308])),
                  Configuration(1, [[0.0], [1e10]]))


def test_rk4_evaluates_the_field_once_per_state(monkeypatch):
    # four stages per step, the last shared with the sample at the new state,
    # plus the initial state: 1 + 4 * steps, with every step sampled
    scn = builtin_scenario("w5-undirected")
    real = simulate_mod.evaluate_field
    calls = []

    def counting(spec_, p, seed=0):
        calls.append(p)
        return real(spec_, p, seed)

    monkeypatch.setattr(simulate_mod, "evaluate_field", counting)
    cfg = IntegratorConfig(method="rk4", dt=0.01, t_max=0.25)
    traj = integrate(scn.controller_spec(), scn.initial_configuration(1), cfg,
                     TerminationCriteria(tol_edge=1e-12))
    steps = len(traj.times) - 1
    assert traj.termination == "horizon" and steps == 25
    assert len(calls) == 1 + 4 * steps


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_thinned_run_samples_its_final_state(method):
    # 7 does not divide the step count, yet the state at t_max is sampled
    scn = builtin_scenario("w5-undirected")
    full, thin = (
        integrate(scn.controller_spec(), scn.initial_configuration(3),
                  IntegratorConfig(method=method, t_max=0.25, sample_every=k),
                  TerminationCriteria(tol_edge=1e-12))
        for k in (1, 7)
    )
    assert (len(full.times) - 1) % 7 != 0
    assert full.termination == thin.termination == "horizon"
    assert thin.times[-1] == full.times[-1] == pytest.approx(0.25)
    assert np.array_equal(thin.times, np.append(full.times[::7], full.times[-1]))
    assert np.array_equal(thin.positions[-1], full.positions[-1])


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    with pytest.raises(ValueError):
        TerminationCriteria(tol_edge=0.0)
    with pytest.raises(ValueError):
        TerminationCriteria(window=1)
    # counts are integers, never truncated: a fractional window once failed as
    # a slice bound mid-run, and sample_every=2.5 kept every 5th step
    for cls, field, value, rule in [
        (IntegratorConfig, "sample_every", 2.5, "a positive integer, got 2.5"),
        (IntegratorConfig, "sample_every", 1.0, "a positive integer, got 1.0"),
        (TerminationCriteria, "window", 2.5, "an integer >= 2, got 2.5"),
        (TerminationCriteria, "window", 50.0, "an integer >= 2, got 50.0"),
        (TerminationCriteria, "window", "50", "an integer >= 2, got '50'"),
    ]:
        with pytest.raises(ValueError, match=f"^{field} must be {rule}$"):
            cls(**{field: value})


@pytest.mark.parametrize("field", ["t_max", "dt", "rtol", "atol", "dt_max", "dt_init", "sample_every"])
def test_integrator_config_rejects_non_finite(field):
    # a NaN passes every "<= 0" comparison, so it needs its own check
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            IntegratorConfig(**{field: value})


@pytest.mark.parametrize("field", ["tol_edge", "tol_node", "window", "min_speed"])
def test_termination_criteria_rejects_non_finite(field):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TerminationCriteria(**{field: value})


def test_directed_rate_respects_spectral_bound():
    # loose sanity bound: fitted decay at least half the slowest linear mode
    scn = builtin_scenario("w5-directed-good")
    spec = scn.controller_spec()
    traj = integrate(spec, scn.initial_configuration(0), scn.integrator, scn.termination)
    assert traj.termination == "converged"
    rate = decay_rate(traj)
    slowest = min(z.real for z in linearized_edge_matrix(spec, scn.target).spectrum)
    assert rate >= 0.5 * slowest


# every number field of both settings classes, with a string and with None
# (None is dt_init's default, so not a bad value there)
_NON_NUMBERS = [(cls, f.name, value) for cls in (IntegratorConfig, TerminationCriteria)
                for f in fields(cls) if f.type.startswith("float")
                for value in ("1", None) if not (value is None and f.name == "dt_init")]


@pytest.mark.parametrize("cls, name, value", _NON_NUMBERS,
                         ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in _NON_NUMBERS])
def test_non_number_settings_are_named(cls, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
        cls(**{name: value})


def test_scenario_integrator_string_names_its_key():
    doc = builtin_scenario("w5-undirected").to_dict()
    doc["integrator"]["t_max"] = "1"
    with pytest.raises(ScenarioError, match="^scenario[.]integrator: t_max must be a real number, got '1'$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_step_budget_aborts_a_run_that_cannot_end(monkeypatch, method):
    # a step of 1e-300 never reaches t_max (rk4 stops advancing t once
    # t + dt == t); the run ends "aborted" at its budget, with every
    # accepted state up to it sampled, and a run whose last step is the
    # budget's ends at its horizon as before
    spec = _pair_spec()
    p0 = Configuration(1, [[0.0], [1.0]])
    monkeypatch.setattr(simulate_mod, "_STEP_BUDGET", 30)
    tiny = IntegratorConfig(method=method, dt=1e-300, dt_max=1e-300, t_max=1.0)
    traj = integrate(spec, p0, tiny)
    assert traj.termination == "aborted" and len(traj.times) == 31
    assert np.all(np.diff(traj.times) >= 0.0) and traj.times[-1] < 1e-290
    with pytest.raises(ValueError, match="too near t = 0"):
        decay_rate(traj)
    exact = IntegratorConfig(method="rk4", dt=0.05, t_max=1.5)
    traj = integrate(spec, p0, exact, TerminationCriteria(tol_edge=1e-300))
    assert traj.termination == "horizon" and len(traj.times) == 31
