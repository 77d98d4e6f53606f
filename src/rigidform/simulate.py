"""Closed-loop integration of formation controllers.

The state is the stacked node configuration x = vec(p); the vector field is
the controller's node velocity u(p).  A stepper only steps: it yields each
accepted state as (t, x, u, last), with u = rhs(t, x) and ``last`` marking
the step that reaches t_max.  The adaptive stepper is the Dormand--Prince
5(4) pair (1980) with the step control of Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.4; it takes SciPy's RK45 steps double for double.  The
fixed-step one is classical RK4.  Neither evaluates the field twice at a
state: both start from the field value at x0 and reuse each step's last
stage as the next step's first.  One loop in :func:`integrate` samples,
judges and ends every run, whichever stepper drives it.  A run ends in one
of four ways:

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
import numbers
import sys
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from rigidform.controllers import ControllerSpec, evaluate_field
from rigidform.graphs import Configuration, _require_count
from rigidform.rigidity import RankDeficiencyError, congruence_check, distance_map

# least relative tolerance: a tighter error test would ask for rounding noise
RTOL_MIN = 100 * np.finfo(float).eps


def _require_finite(config) -> None:
    """Raise ValueError naming the first field that is annotated ``float``
    but holds no real number (a string, a bool, or None where None is not
    allowed), that is a NaN or infinite float (a NaN passes every ``<= 0``
    check), or that is an int beyond float range (which no float operation
    takes)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type.startswith("float") and not (value is None and f.type.endswith("None")):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
        if isinstance(value, int) and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{f.name} must be finite, got an integer beyond float range")


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
        _require_count("sample_every", self.sample_every, 1)
        if self.t_max <= 0 or self.dt <= 0:
            raise ValueError("t_max, dt must be positive")
        if self.rtol <= 0 or self.atol <= 0 or self.dt_max <= 0:
            raise ValueError("rtol, atol, dt_max must be positive")
        if self.rtol < RTOL_MIN:
            raise ValueError(f"rtol must be at least {RTOL_MIN:.3g} (100 machine epsilons)")
        if self.dt_init is not None and not 0 < self.dt_init <= self.t_max:
            raise ValueError("dt_init must be positive and at most t_max when given")


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
        _require_count("window", self.window, 2)
        if min(self.tol_edge, self.tol_node, self.min_speed) <= 0:
            raise ValueError("termination thresholds must be positive")


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

    @property
    def termination_time(self) -> float:
        return float(self.times[-1])

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
    power = speed**2
    # the trapezoid rule, summed in order from 0
    energy = np.concatenate(([0.0], np.cumsum(np.diff(times) * (power[1:] + power[:-1]) / 2.0)))
    return Trajectory(
        spec=spec,
        times=times,
        positions=np.asarray(rec.positions),
        measurements=np.asarray(rec.measurements),
        edge_error=np.asarray(rec.edge_error),
        speed=speed,
        energy=energy,
        termination=termination,
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
    graph, d = spec.graph, p0.d

    def rhs(t: float, x: np.ndarray) -> np.ndarray:
        del t
        return evaluate_field(spec, Configuration.from_vector(d, x), seed)

    x0 = p0.vector
    if not np.isfinite(x0).all():
        raise ValueError("initial configuration is not finite")
    # a diverging state overflows inside the field; the finite checks below,
    # not NumPy's warnings, turn that into an input error or "aborted"
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            u0 = rhs(0.0, x0)
        except RankDeficiencyError:
            raise RankDeficiencyError("initial configuration is rank deficient")
        if not np.isfinite(u0).all():
            raise ValueError("field value at the initial configuration is not finite")
        if integrator.method == "rk45":
            steps = _rk45_steps(rhs, x0, u0, integrator)
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
    """The adaptive step fell below ten float spacings of t: the stepper
    cannot continue."""


# Dormand & Prince (1980) 5(4) tableau: stage times C, stage weights A, the
# fifth-order weights B, and E = B - (fourth-order weights), padded with the
# weight of the stage at the new state
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # the error estimate is of fourth order


def _rms(v: np.ndarray):
    return np.linalg.norm(v) / v.size ** 0.5


def _initial_step(rhs, x0, u0, cfg: IntegratorConfig):
    """Starting step of Hairer, Norsett & Wanner, sec. II.4: one trial
    Euler step, at the cost of one field evaluation."""
    scale = cfg.atol + np.abs(x0) * cfg.rtol
    d0, d1 = _rms(x0 / scale), _rms(u0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, cfg.t_max)
    d2 = _rms((rhs(h0, x0 + h0 * u0) - u0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, cfg.t_max, cfg.dt_max)


def _rk45_steps(rhs, x0, u0, cfg: IntegratorConfig):
    """Accepted states (t, x, rhs(t, x), last) of adaptive Dormand--Prince
    5(4) from (0, x0) with u0 = rhs(0, x0).

    A step is accepted when the RMS of its error estimate, each component
    scaled by atol + rtol * max(|x|, |x_new|), is below one; the next step
    is scaled by 0.9 * err^(-1/5), clamped to [0.2, 10] and, right after a
    rejection, to at most 1.  Raises _StepFailed when the step must fall
    below ten float spacings of t.
    """
    t, x, u = 0.0, x0, u0
    h_abs = cfg.dt_init if cfg.dt_init is not None else _initial_step(rhs, x0, u0, cfg)
    K = np.empty((len(_DP_C) + 1, x0.size))  # the stages, and the field at the new state
    while t < cfg.t_max:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = cfg.dt_max if h_abs > cfg.dt_max else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise _StepFailed("step size fell below the spacing of floats at t")
            t_new = min(t + h_abs, cfg.t_max)
            h = h_abs = t_new - t
            K[0] = u
            for s in range(1, len(_DP_C)):
                K[s] = rhs(t + _DP_C[s] * h, x + np.dot(K[:s].T, _DP_A[s, :s]) * h)
            x_new = x + h * np.dot(K[:-1].T, _DP_B)
            u_new = rhs(t_new, x_new)
            K[-1] = u_new
            scale = cfg.atol + np.maximum(np.abs(x), np.abs(x_new)) * cfg.rtol
            error = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error < 1:
                factor = _MAX_FACTOR
                if error > 0:
                    factor = min(_MAX_FACTOR, _SAFETY * error**_ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error**_ERROR_EXPONENT)
            rejected = True
        t, x, u = t_new, x_new, u_new
        yield t, x, u, t >= cfg.t_max


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


def decay_rate(traj: Trajectory) -> float:
    """Exponential decay rate of the edge error over the trailing samples.

    Least-squares slope of log(edge error) against time over the last half
    of the k samples (from index k // 2), sign-flipped so decay is positive.
    Raises ValueError when fewer than two positive-error samples remain
    (e.g. a run that started at the equilibrium).
    """
    start = len(traj.times) // 2
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
