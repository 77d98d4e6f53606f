"""Closed-loop integration of formation controllers.

The state is the stacked node configuration x = vec(p); the vector field is
the controller's node velocity u(p).  A stepper only steps: it yields each
accepted state as (t, x, u, last), with u = rhs(t, x) and ``last`` marking
the step that reaches t_max.  The adaptive stepper wraps scipy's RK45; the
fixed-step one is classical RK4, whose last stage at a state is the next
step's first.  One loop in :func:`integrate` samples, judges and ends every
run, whichever stepper drives it.  A run ends in one of four ways:

* ``converged``           edge error dropped below ``tol_edge``;
* ``limit-cycle-suspect`` the edge error has leveled off over the trailing
                          window while the nodes keep moving -- the signature
                          of convergence to a rigidly rotating formation
                          with the wrong shape;
* ``horizon``             reached t_max;
* ``aborted``             the controller hit a rank-deficient configuration
                          (only the minimum-norm controller can), the
                          adaptive stepper failed, or the run diverged: a
                          state or its field value is not finite (NaN or
                          infinite).  The trajectory then ends at the last
                          sample recorded before, which is finite.

Samples are taken every ``sample_every`` accepted steps (plus the initial
and final states), so CSV output is deterministic for a given run.  A
sample's speed is the field value the stepper yielded with its state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np
from scipy.integrate import RK45, cumulative_trapezoid

from rigidform.controllers import ControllerSpec, evaluate_field
from rigidform.graphs import Configuration
from rigidform.rigidity import RankDeficiencyError, congruence_check, distance_map

TERMINATIONS = ("converged", "limit-cycle-suspect", "horizon", "aborted")


def _require_finite(config) -> None:
    """Raise ValueError naming the first float field that is NaN or infinite
    (a NaN passes every ``<= 0`` check)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical integration switches.

    ``dt`` is the fixed RK4 step; the adaptive method ignores it and uses
    (rtol, atol, dt_max) instead.  ``sample_every`` thins the recorded
    trajectory to every k-th accepted step.
    """

    method: str = "rk45"
    t_max: float = 100.0
    dt: float = 0.01
    rtol: float = 1e-8
    atol: float = 1e-10
    dt_max: float = 0.1
    dt_init: float | None = None
    sample_every: int = 1

    def __post_init__(self):
        _require_finite(self)
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.t_max <= 0 or self.dt <= 0 or self.sample_every < 1:
            raise ValueError("t_max, dt must be positive and sample_every >= 1")
        if self.rtol <= 0 or self.atol <= 0 or self.dt_max <= 0:
            raise ValueError("rtol, atol, dt_max must be positive")
        if self.dt_init is not None and self.dt_init <= 0:
            raise ValueError("dt_init must be positive when given")


@dataclass(frozen=True)
class TerminationCriteria:
    """Thresholds for run termination and post-hoc convergence checks.

    ``window`` counts recorded samples.  A limit cycle is suspected when the
    edge error's spread over the window is below 10% of its mean while the
    mean speed stays above ``min_speed`` and some node travels farther than
    ``tol_node``.
    """

    tol_edge: float = 1e-6
    tol_node: float = 1e-4
    window: int = 50
    min_speed: float = 1e-4

    def __post_init__(self):
        _require_finite(self)
        if min(self.tol_edge, self.tol_node, self.min_speed) <= 0 or self.window < 2:
            raise ValueError("termination thresholds must be positive (window >= 2)")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded closed-loop run.

    All arrays share the leading sample axis: times (k,), positions
    (k, n, d), measurements (k, |E|), edge_error / speed / energy (k,).
    ``energy`` is the running integral of the squared node speed.
    """

    spec: ControllerSpec = field(repr=False)
    times: np.ndarray = field(repr=False)
    positions: np.ndarray = field(repr=False)
    measurements: np.ndarray = field(repr=False)
    edge_error: np.ndarray = field(repr=False)
    speed: np.ndarray = field(repr=False)
    energy: np.ndarray = field(repr=False)
    termination: str
    termination_time: float

    @property
    def final_configuration(self) -> Configuration:
        return Configuration(self.positions.shape[2], self.positions[-1])


@dataclass(frozen=True)
class ConvergenceOutcome:
    """Post-hoc verdicts of a finished run against a target configuration."""

    edge_converged: bool
    node_converged: bool
    congruent: bool
    final_edge_error: float
    final_speed: float
    congruence_residual: float


class _Recorder:
    def __init__(self, criteria: TerminationCriteria):
        self.criteria = criteria
        self.times: list[float] = []
        self.positions: list[np.ndarray] = []
        self.measurements: list[np.ndarray] = []
        self.edge_error: list[float] = []
        self.speed: list[float] = []

    def add(self, t: float, p: np.ndarray, m: np.ndarray, err: float, spd: float):
        self.times.append(t)
        self.positions.append(p)
        self.measurements.append(m)
        self.edge_error.append(err)
        self.speed.append(spd)

    def verdict(self) -> str | None:
        """Termination reason at the newest sample, if any."""
        c = self.criteria
        if self.edge_error[-1] < c.tol_edge:
            return "converged"
        if len(self.times) >= c.window:
            err = np.asarray(self.edge_error[-c.window:])
            spd = np.asarray(self.speed[-c.window:])
            pos = self.positions[-c.window:]
            leveled = err.max() - err.min() < 0.1 * err.mean()
            moving = spd.mean() > c.min_speed
            travel = float(np.linalg.norm(pos[-1] - pos[0], axis=1).max())
            if leveled and moving and travel > c.tol_node:
                return "limit-cycle-suspect"
        return None


def _finish(spec: ControllerSpec, rec: _Recorder, termination: str) -> Trajectory:
    times = np.asarray(rec.times)
    speed = np.asarray(rec.speed)
    energy = cumulative_trapezoid(speed**2, times, initial=0.0)
    return Trajectory(
        spec=spec,
        times=times,
        positions=np.asarray(rec.positions),
        measurements=np.asarray(rec.measurements),
        edge_error=np.asarray(rec.edge_error),
        speed=speed,
        energy=energy,
        termination=termination,
        termination_time=float(times[-1]),
    )


def integrate(
    spec: ControllerSpec,
    p0: Configuration,
    integrator: IntegratorConfig = IntegratorConfig(),
    criteria: TerminationCriteria = TerminationCriteria(),
    seed: int = 0,
) -> Trajectory:
    """Run the closed loop from p0 until convergence, cycling, or t_max.

    Raises ValueError when p0 or the field value there is not finite.
    """
    graph, d, n = spec.graph, p0.d, p0.n
    if len(spec.m_star) != graph.num_edges:
        raise ValueError("target measurement does not match the graph")

    def rhs(t: float, x: np.ndarray) -> np.ndarray:
        del t
        return evaluate_field(spec, Configuration.from_vector(d, x), seed).u

    x0 = p0.vector
    if not np.isfinite(x0).all():
        raise ValueError("initial configuration is not finite")
    try:
        u0 = rhs(0.0, x0)
    except RankDeficiencyError:
        raise RankDeficiencyError("initial configuration is rank deficient")
    if not np.isfinite(u0).all():
        raise ValueError("field value at the initial configuration is not finite")
    if integrator.method == "rk45":
        steps = _rk45_steps(rhs, x0, integrator)
    else:
        steps = _rk4_steps(rhs, x0, u0, integrator)

    # the start is state 0, sampled and judged before the first step is taken
    rec = _Recorder(criteria)
    termination = "horizon"
    try:
        for k, (t, x, u, last) in enumerate(chain([(0.0, x0, u0, False)], steps)):
            if not (np.isfinite(x).all() and np.isfinite(u).all()):
                termination = "aborted"  # diverged
                break
            if k % integrator.sample_every == 0 or last:
                p = Configuration.from_vector(d, x)
                m = distance_map(graph, p).values
                err = float(np.linalg.norm(m - spec.m_star.values))
                rec.add(t, p.points, m, err, float(np.linalg.norm(u)))
                verdict = rec.verdict()
                if verdict is not None:
                    termination = verdict
                    break
    except (RankDeficiencyError, _StepFailed):
        termination = "aborted"
    return _finish(spec, rec, termination)


class _StepFailed(Exception):
    """The adaptive stepper could not continue (SciPy's status "failed")."""


def _rk45_steps(rhs, x0, cfg: IntegratorConfig):
    """Accepted states (t, x, rhs(t, x), last) of SciPy's adaptive RK45."""
    solver = RK45(
        rhs,
        0.0,
        x0,
        t_bound=cfg.t_max,
        max_step=cfg.dt_max,
        rtol=cfg.rtol,
        atol=cfg.atol,
        **({"first_step": cfg.dt_init} if cfg.dt_init else {}),
    )
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise _StepFailed(message)
        yield solver.t, solver.y, solver.f, solver.status == "finished"


def _rk4_steps(rhs, x0, u0, cfg: IntegratorConfig):
    """Accepted states (t, x, rhs(t, x), last) of classical RK4 with step dt."""
    t, x, k1 = 0.0, x0.copy(), u0
    while t < cfg.t_max - 1e-12:
        h = min(cfg.dt, cfg.t_max - t)
        k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = rhs(t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        k1 = rhs(t, x)  # the next step's first stage, and this state's field value
        yield t, x, k1, t >= cfg.t_max - 1e-12


def detect_convergence(
    traj: Trajectory,
    target: Configuration,
    criteria: TerminationCriteria = TerminationCriteria(),
) -> ConvergenceOutcome:
    """Judge a finished run: edge error small, motion stopped, shape matched.

    Congruence compares the final configuration to ``target`` modulo rigid
    motion (reflections allowed), with ``tol_node`` as the residual bound.
    """
    final_err = float(traj.edge_error[-1])
    final_speed = float(traj.speed[-1])
    congruent, residual = congruence_check(
        traj.final_configuration, target, tol=criteria.tol_node
    )
    return ConvergenceOutcome(
        edge_converged=final_err < criteria.tol_edge,
        node_converged=final_speed < criteria.min_speed,
        congruent=congruent,
        final_edge_error=final_err,
        final_speed=final_speed,
        congruence_residual=float(residual),
    )


def decay_rate(traj: Trajectory, tail_fraction: float = 0.5) -> float:
    """Exponential decay rate of the edge error over the trailing samples.

    Least-squares slope of log(edge error) against time over the last
    ``tail_fraction`` of the run, sign-flipped so decay is positive.
    Raises ValueError when fewer than two positive-error samples remain
    (e.g. a run that started at the equilibrium).
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must be in (0, 1]")
    k = len(traj.times)
    start = min(k - 1, int(np.floor(k * (1.0 - tail_fraction))))
    t = traj.times[start:]
    e = traj.edge_error[start:]
    keep = e > 0.0
    if keep.sum() < 2:
        raise ValueError("fit window has fewer than two positive edge-error samples")
    slope = np.polyfit(t[keep], np.log(e[keep]), 1)[0]
    return float(-slope)


def control_energy(traj: Trajectory) -> float:
    """Total integral of squared node speed over the run."""
    return float(traj.energy[-1])
