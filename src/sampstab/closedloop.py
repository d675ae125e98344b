"""Closed-loop simulation under four observation/feedback regimes.

Regimes (gain F constant unless noted):

* cc: y' = (A + B F) y                      -- continuous observation
* dc: y' = A y + B F y(kT) on [kT,(k+1)T)   -- sampled observation
* dp: y' = A y + B F(t) y(kT), F(t) T-periodic operator-valued
* cp: y' = A y + B F(t) y,     F(t) T-periodic operator-valued

cc propagates exactly through the closed-loop matrix exponential.  dc and dp
share one exact sample-and-hold propagator: on [kT, (k+1)T) the input is
B F exp(H tau) y(kT) with H = 0 (dc) or H = A + B F (dp), so the augmented
state (y, w) with y' = A y + B F w, w' = H w, y(kT) = w(kT) has the block
generator [[A, B F], [0, H]], whose exponential over one substep (Van Loan,
IEEE TAC 1978) advances both.  cp integrates the time-varying generator with
a fixed-step classical Runge-Kutta scheme whose grid is locked to the period.
Neither evaluates the periodic law F(t) = F exp((A + B F)(t - kT)) pointwise:
dp folds it into the block generator, and cp builds it on its half-step grid
by repeated multiplication with one exponential.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .linsys import ContinuousSystem

__all__ = [
    "FeedbackLaw",
    "Trajectory",
    "build_periodic_feedback",
    "simulate_cc",
    "simulate_dc",
    "simulate_dp",
    "simulate_cp",
    "fit_decay",
    "trajectory_to_csv",
]

@dataclass(frozen=True, eq=False)
class FeedbackLaw:
    """T-periodic operator-valued law F(t) = F exp((A + B F)(t - kT)) on [kT, (k+1)T).

    It carries the closed-loop generator A + B F from which the simulators
    build the law.
    """

    F: np.ndarray
    T: float
    closed_loop_generator: np.ndarray

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("periodic law requires a period T > 0")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated states/controls on a time grid, with an optional decay fit."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    decay_rate: float | None = None
    decay_constant: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", np.asarray(self.states, dtype=complex))
        object.__setattr__(self, "controls", np.asarray(self.controls, dtype=complex))

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def build_periodic_feedback(sys: ContinuousSystem, F: np.ndarray, T: float) -> FeedbackLaw:
    """Periodic law schedule(tau) = F exp((A + B F) tau) on [0, T)."""
    F = np.atleast_2d(np.asarray(F, dtype=complex))
    if F.shape != (sys.input_dim, sys.state_dim):
        raise ValueError(f"gain must be {sys.input_dim}x{sys.state_dim}, got {F.shape}")
    return FeedbackLaw(F=F, T=T, closed_loop_generator=sys.A + sys.B @ F)


def _num_periods(horizon: float, T: float) -> int:
    K = int(np.ceil(horizon / T - 1e-12))
    return max(K, 1)


def simulate_cc(sys: ContinuousSystem, F: np.ndarray, y0: np.ndarray,
                horizon: float, dt: float) -> Trajectory:
    """Closed loop y' = (A + B F) y, exact on the grid via the closed-loop flow."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    F = np.atleast_2d(np.asarray(F, dtype=complex))
    y0 = np.asarray(y0, dtype=complex).ravel()
    n_steps = max(int(np.ceil(horizon / dt - 1e-12)), 1)
    E = expm((sys.A + sys.B @ F) * dt)
    states = np.empty((n_steps + 1, sys.state_dim), dtype=complex)
    states[0] = y0
    for j in range(n_steps):
        states[j + 1] = E @ states[j]
    times = np.arange(n_steps + 1) * dt
    controls = states @ F.T
    return Trajectory(times, states, controls)


def _sample_and_hold(sys: ContinuousSystem, F: np.ndarray, H: np.ndarray, T: float,
                     y0: np.ndarray, horizon: float, steps_per_period: int) -> Trajectory:
    """Loop y' = A y + B F exp(H (t - kT)) y(kT) on [kT, (k+1)T), exactly.

    With E = expm([[A, B F], [0, H]] h) and X_j = E^j [I; I], the state at
    kT + j h is X_j[:n] y(kT) and the control is F X_j[n:] y(kT).
    """
    if horizon < T:
        raise ValueError("horizon must cover at least one period")
    if steps_per_period < 1:
        raise ValueError("steps_per_period must be >= 1")
    y0 = np.asarray(y0, dtype=complex).ravel()
    n, S = sys.state_dim, steps_per_period
    h = T / S
    M = np.zeros((2 * n, 2 * n), dtype=complex)
    M[:n, :n], M[:n, n:], M[n:, n:] = sys.A, sys.B @ F, H
    E = expm(M * h)
    # rows[j] = [X_j[:n]; F X_j[n:]] maps y(kT) to [state; control] at kT + j h.
    rows = np.empty((S + 1, n + F.shape[0], n), dtype=complex)
    X = np.vstack([np.eye(n), np.eye(n)])
    for j in range(S + 1):
        rows[j] = np.vstack([X[:n], F @ X[n:]])
        X = E @ X

    K = _num_periods(horizon, T)
    samples = np.empty((K + 1, n), dtype=complex)
    samples[0] = y0
    for k in range(K):
        samples[k + 1] = rows[S, :n] @ samples[k]
    grid = np.empty((K * S + 1, rows.shape[1]), dtype=complex)
    grid[:-1].reshape(K, S, -1)[:] = (rows[:S] @ samples[:K].T).transpose(2, 0, 1)
    grid[-1] = rows[0] @ samples[K]
    return Trajectory(np.arange(K * S + 1) * h, grid[:, :n], grid[:, n:])


def simulate_dc(sys: ContinuousSystem, F: np.ndarray, T: float, y0: np.ndarray,
                horizon: float, steps_per_period: int) -> Trajectory:
    """Sampled-observation loop with constant gain, propagated exactly.

    On [kT, (k+1)T): y(kT + tau) = exp(A tau) y(kT) + J_tau B F y(kT) with
    J_tau the integrated flow; successive samples follow
    y((k+1)T) = (Phi + D F) y(kT).
    """
    if not T > 0:
        raise ValueError("T must be > 0")
    F = np.atleast_2d(np.asarray(F, dtype=complex))
    return _sample_and_hold(sys, F, np.zeros_like(sys.A), T, y0, horizon,
                            steps_per_period)


def simulate_dp(sys: ContinuousSystem, law: FeedbackLaw, y0: np.ndarray,
                horizon: float, steps_per_period: int) -> Trajectory:
    """Sampled observation under a periodic law: y' = A y + B F(t) y(kT).

    With F(t) = F exp((A + B F)(t - kT)) the loop reproduces the continuous
    loop y' = (A + B F) y exactly, between samples too.
    """
    return _sample_and_hold(sys, law.F, law.closed_loop_generator, law.T, y0,
                            horizon, steps_per_period)


def simulate_cp(sys: ContinuousSystem, law: FeedbackLaw, y0: np.ndarray,
                horizon: float, dt: float) -> Trajectory:
    """Continuous observation under a periodic law: y' = (A + B F(t)) y.

    Classical fixed-step 4th-order Runge-Kutta; dt must divide the period so
    period boundaries land on grid points.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    T = law.T
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > 1e-12 * T:
        raise ValueError("dt must divide the period T to within 1e-12")
    y0 = np.asarray(y0, dtype=complex).ravel()

    # Schedule on the half-step grid over one period, reused every period.
    E_half = expm(law.closed_loop_generator * (dt / 2.0))
    sched = [law.F.copy()]
    for _ in range(2 * steps):
        sched.append(sched[-1] @ E_half)
    M = [sys.A + sys.B @ S for S in sched]

    n_steps = max(int(np.ceil(horizon / dt - 1e-12)), 1)
    states = np.empty((n_steps + 1, sys.state_dim), dtype=complex)
    controls = np.empty((n_steps + 1, law.F.shape[0]), dtype=complex)
    states[0] = y0
    for j in range(n_steps):
        idx = 2 * (j % steps)
        M0, M1, M2 = M[idx], M[idx + 1], M[idx + 2]
        y = states[j]
        k1 = M0 @ y
        k2 = M1 @ (y + 0.5 * dt * k1)
        k3 = M1 @ (y + 0.5 * dt * k2)
        k4 = M2 @ (y + dt * k3)
        states[j + 1] = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        controls[j] = sched[idx] @ y
    controls[-1] = sched[2 * (n_steps % steps)] @ states[-1]
    times = np.arange(n_steps + 1) * dt
    return Trajectory(times, states, controls)


def fit_decay(traj: Trajectory) -> tuple[float, float]:
    """Least-squares decay fit over the trailing half of the horizon.

    Fits log||y(t)|| = log c - omega t; omega is clipped to 0 when the slope
    is not meaningfully negative.  A state hitting exact zero in the window
    makes the fit degenerate, reported as omega = inf.
    """
    norms = traj.norms()
    t = traj.times
    window = t >= 0.5 * t[-1]
    if np.count_nonzero(norms) < 10:
        raise ValueError("decay fit needs at least 10 grid points with nonzero states")
    t_w, n_w = t[window], norms[window]
    if np.any(n_w == 0.0):
        return math.inf, 0.0
    slope, intercept = np.polyfit(t_w, np.log(n_w), 1)
    omega = -slope if slope < -1e-9 else 0.0
    return float(omega), float(np.exp(intercept))


def with_decay(traj: Trajectory) -> Trajectory:
    omega, c = fit_decay(traj)
    return replace(traj, decay_rate=omega, decay_constant=c)


def system_hash(sys: ContinuousSystem) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(sys.A).tobytes())
    digest.update(np.ascontiguousarray(sys.B).tobytes())
    return digest.hexdigest()[:12]


def trajectory_to_csv(traj: Trajectory, path, header: dict | None = None) -> None:
    """CSV export: t, ||y||, Re/Im of each state and control component.

    A JSON header line (prefixed '#') records provenance metadata plus the
    fitted decay parameters when present.
    """
    meta = dict(header or {})
    meta.setdefault("schema", 1)
    if traj.decay_rate is not None:
        meta["omega"] = traj.decay_rate
        meta["c"] = traj.decay_constant
    n = traj.states.shape[1]
    m = traj.controls.shape[1]
    cols = ["t", "norm_y"]
    cols += [f"y{i}_{p}" for i in range(n) for p in ("re", "im")]
    cols += [f"u{j}_{p}" for j in range(m) for p in ("re", "im")]
    # Viewing complex as float interleaves Re/Im, matching the column order.
    table = np.column_stack([traj.times, traj.norms(),
                             np.ascontiguousarray(traj.states).view(float),
                             np.ascontiguousarray(traj.controls).view(float)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(cols) + "\n")
        np.savetxt(fh, table, fmt="%.16g", delimiter=",")
