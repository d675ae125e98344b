"""Closed-loop simulation under four observation/feedback regimes.

Regimes (gain F constant unless noted):

* cc: y' = (A + B F) y                      -- continuous observation
* dc: y' = A y + B F y(kT) on [kT,(k+1)T)   -- sampled observation
* dp: y' = A y + B F(t) y(kT), F(t) T-periodic operator-valued
* cp: y' = A y + B F(t) y,     F(t) T-periodic operator-valued

with the periodic law F(t) = F exp((A + B F)(t - kT)) on [kT, (k+1)T).

Every loop is linear and T-periodic, so each simulator only builds its
one-period maps: maps[j] takes y(kT) to [state; control] at kT + j h, for
h = T / steps_per_period and j = 0..steps_per_period.  One tabulator runs the
sample recursion y((k+1)T) = maps[-1][:n] y(kT) and fills the period-locked
grid from the maps, so all four loops share one signature and one grid, the
horizon rounded up to whole periods.

* cc: maps[j] = [E^j; F E^j] with E = exp((A + B F) h).
* dc, dp: on [kT, (k+1)T) the input is B F exp(H tau) y(kT) with H = 0 (dc)
  or H = A + B F (dp), so the augmented state (y, w) with y' = A y + B F w,
  w' = H w, y(kT) = w(kT) has the block generator [[A, B F], [0, H]], whose
  exponential over one substep (Van Loan, IEEE TAC 1978) advances both.
* cp: classical fixed-step Runge-Kutta at step h.  RK4 on a linear ODE is a
  linear map, so each step's stages are applied to the matrix of the map
  itself, with F(t) built on the half-step grid by repeated multiplication
  with one exponential.

A spectral system with a per-mode gain (the 1-D F that lqsynth gives a
diagonal pair) stays diagonal: every map is a row of per-mode factors, 2n
wide for state and control, with A = diag(lambda), B = diag(b), mu = lambda + b f
and tau = j h.  cc is exp(mu tau); dc and dp are the top row of the 2 x 2
block above, exp(lambda tau) + b f int_0^tau exp(lambda (tau - s) + H s) ds
with H = 0 or mu; cp is the same RK4 on the 1-D factors.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys as _sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericOverflowError
from .linsys import ContinuousSystem, SpectralSystem, _check_count, _expm_on_first_use, _phi1

__all__ = [
    "Trajectory",
    "check_grid",
    "simulate_cc",
    "simulate_dc",
    "simulate_dp",
    "simulate_cp",
    "fit_decay",
    "trajectory_to_csv",
]

# scipy's expm, imported by the first dense loop map.
__getattr__ = _expm_on_first_use(globals())
_module = _sys.modules[__name__]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated states/controls on a time grid."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", np.asarray(self.states, dtype=complex))
        object.__setattr__(self, "controls", np.asarray(self.controls, dtype=complex))

    def norms(self) -> np.ndarray:
        """Row 2-norms of the states, each row scaled first by the exact power
        of two that brings its largest real or imaginary part to [0.5, 1), so
        that squaring neither overflows nor underflows.  Computed on the first
        call and kept: the array returned is read-only."""
        return self._norms

    @cached_property
    def _norms(self) -> np.ndarray:
        x = np.ascontiguousarray(self.states).view(float)
        e = np.frexp(np.abs(x).max(axis=1, initial=0.0))[1]
        norms = np.ldexp(np.linalg.norm(np.ldexp(x, -e[:, None]).view(complex), axis=1), e)
        norms.flags.writeable = False
        return norms


# Ceiling on simulation grid cells, (K S + 1)(n + m) complex entries (160 MB).
_MAX_GRID_CELLS = 10 ** 7


def check_grid(T: float, horizon: float, steps_per_period: int, width: int) -> int:
    """Validate a grid of rows of width n + m; return the whole periods covering the horizon."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be finite and > 0")
    if not (math.isfinite(horizon) and horizon >= T):
        raise ValueError("horizon must be finite and cover at least one period")
    _check_count(steps_per_period, "steps_per_period")
    cells = (horizon / T * steps_per_period + 1) * width
    if cells > _MAX_GRID_CELLS:
        raise ValueError(f"simulation grid needs {cells:.3g} cells, over the ceiling of "
                         f"{_MAX_GRID_CELLS:.0e}; lower --horizon or --steps-per-period")
    return math.ceil(horizon / T - 1e-12)


def _gain(sys: ContinuousSystem | SpectralSystem, F) -> np.ndarray:
    """F as the loop takes it: m x n, or n per-mode entries for a spectral system."""
    if isinstance(sys, SpectralSystem):
        F = np.asarray(F, dtype=complex)
        if F.shape != (sys.state_dim,):
            raise ValueError(f"gain of a spectral system must hold {sys.state_dim} "
                             f"per-mode entries, got shape {F.shape}")
        return F
    F = np.atleast_2d(np.asarray(F, dtype=complex))
    if F.shape != (sys.input_dim, sys.state_dim):
        raise ValueError(f"gain must be {sys.input_dim}x{sys.state_dim}, got {F.shape}")
    return F


def _tabulate(one_period, sys: ContinuousSystem | SpectralSystem, F, T: float,
              y0: np.ndarray, horizon: float, steps_per_period: int) -> Trajectory:
    """The loop whose one-period maps one_period(sys, F, h, S) builds, on the grid.

    Dense maps are (S+1) x (n+m) x n matrices; a spectral system's are
    (S+1) x 2n per-mode factors.  Raises NumericOverflowError, without numpy
    warnings, when a state or control is not finite.
    """
    K = check_grid(T, horizon, steps_per_period, sys.state_dim + sys.input_dim)
    F = _gain(sys, F)
    y0 = np.asarray(y0, dtype=complex).ravel()
    n, S = sys.state_dim, steps_per_period
    if y0.size != n:
        raise ValueError(f"y0 must have {n} entries, got {y0.size}")
    if not np.isfinite(y0).all():
        raise ValueError("y0 must have finite entries")
    h = T / S
    with np.errstate(over="ignore", invalid="ignore"):
        maps = one_period(sys, F, h, S)
        samples = np.empty((K + 1, n), dtype=complex)
        samples[0] = y0
        grid = np.empty((K * S + 1, maps.shape[1]), dtype=complex)
        if maps.ndim == 2:
            for k in range(K):
                samples[k + 1] = maps[S, :n] * samples[k]
            held = np.hstack([samples, samples])
            np.multiply(maps[:S], held[:K, None], out=grid[:-1].reshape(K, S, -1))
            grid[-1] = maps[0] * held[K]
        else:
            for k in range(K):
                samples[k + 1] = maps[S, :n] @ samples[k]
            grid[:-1].reshape(K, S, -1)[:] = (maps[:S] @ samples[:K].T).transpose(2, 0, 1)
            grid[-1] = maps[0] @ samples[K]
    bad = ~np.isfinite(grid).all(axis=1)
    if bad.any():
        raise NumericOverflowError(
            f"closed loop overflowed at t = {np.argmax(bad) * h:.6g}: the loop is "
            "unstable, or the cp loop's RK4 step is too long for the system "
            "(raise --steps-per-period)")
    return Trajectory(np.arange(K * S + 1) * h, grid[:, :n], grid[:, n:])


def _parts(sys: ContinuousSystem | SpectralSystem):
    """(A, B, product, exponential, identity) of the loop's generator: matrices
    with matmul and expm, or a spectral system's per-mode diagonals with their
    elementwise product and exp."""
    if isinstance(sys, SpectralSystem):
        return (sys.symbol_values, sys.control_mask, np.multiply, np.exp,
                np.ones(sys.state_dim, dtype=complex))
    return sys.A, sys.B, np.matmul, _module.expm, np.eye(sys.state_dim, dtype=complex)


def _power_maps(E, X, F, S, mul=np.matmul):
    """maps[j] = [first n rows of E^j X; F times its last n rows], j = 0..S."""
    n = F.shape[-1]
    maps = np.empty((S + 1, n + F.shape[0]) + X.shape[1:], dtype=complex)
    for j in range(S + 1):
        maps[j, :n], maps[j, n:] = X[:n], mul(F, X[-n:])
        X = mul(E, X)
    return maps


def _cc_maps(sys, F, h, S):
    A, B, mul, exp, I = _parts(sys)
    return _power_maps(exp((A + mul(B, F)) * h), I, F, S, mul)


def _hold_maps(sys, F, h, S, periodic: bool):
    """Sample-and-hold maps: the input on [kT, (k+1)T) is B F exp(H tau) y(kT),
    with H = 0 (dc) or H = A + B F (dp, periodic).

    Dense: with E = expm([[A, B F], [0, H]] h) and X_j = E^j [I; I], the state
    at kT + j h is X_j[:n] y(kT) and the control is F X_j[n:] y(kT).  Per mode,
    the state factor is exp(lambda tau) + b f I(tau), where I(tau) is the
    integral of exp(lambda (tau - s) + H s) over [0, tau], factored on the
    exponent with the larger real part so that phi1 sees a non-positive one
    and a stiff mode does not overflow.
    """
    if isinstance(sys, SpectralSystem):
        lam, bf = sys.symbol_values, sys.control_mask * F
        H = lam + bf if periodic else np.zeros_like(lam)
        tau = h * np.arange(S + 1)[:, None]
        lead = H.real > lam.real
        hi, lo = np.where(lead, H, lam), np.where(lead, lam, H)
        held = np.exp(hi * tau) * _phi1(lo - hi, tau)
        return np.hstack([np.exp(lam * tau) + bf * held, F * np.exp(H * tau)])
    A, B = sys.A, sys.B
    n = A.shape[0]
    M = np.zeros((2 * n, 2 * n), dtype=complex)
    M[:n, :n], M[:n, n:] = A, B @ F
    if periodic:
        M[n:, n:] = A + B @ F
    return _power_maps(_module.expm(M * h), np.vstack([np.eye(n), np.eye(n)]), F, S)


def _cp_maps(sys, F, h, S):
    A, B, mul, exp, X = _parts(sys)
    n = sys.state_dim
    # At t = j h: F0, F1, F2 = F(t), F(t + h/2), F(t + h), one exponential
    # per half step, as the RK4 stages need them.
    E_half = exp((A + mul(B, F)) * (h / 2.0))
    maps = np.empty((S + 1, n + F.shape[0]) + X.shape[1:], dtype=complex)
    F0 = F
    M0 = A + mul(B, F0)
    for j in range(S):
        maps[j, :n], maps[j, n:] = X, mul(F0, X)
        F1 = mul(F0, E_half)
        F2 = mul(F1, E_half)
        M1, M2 = A + mul(B, F1), A + mul(B, F2)
        k1 = mul(M0, X)
        k2 = mul(M1, X + 0.5 * h * k1)
        k3 = mul(M1, X + 0.5 * h * k2)
        k4 = mul(M2, X + h * k3)
        X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        F0, M0 = F2, M2
    maps[S, :n], maps[S, n:] = X, mul(F0, X)
    return maps


def simulate_cc(sys: ContinuousSystem | SpectralSystem, F: np.ndarray, T: float,
                y0: np.ndarray, horizon: float, steps_per_period: int) -> Trajectory:
    """Closed loop y' = (A + B F) y, exact on the grid via the closed-loop flow.

    T only sets the grid: the loop has no period of its own.
    """
    return _tabulate(_cc_maps, sys, F, T, y0, horizon, steps_per_period)


def simulate_dc(sys: ContinuousSystem | SpectralSystem, F: np.ndarray, T: float,
                y0: np.ndarray, horizon: float, steps_per_period: int) -> Trajectory:
    """Sampled-observation loop with constant gain, propagated exactly.

    On [kT, (k+1)T): y(kT + tau) = exp(A tau) y(kT) + J_tau B F y(kT) with
    J_tau the integrated flow; successive samples follow
    y((k+1)T) = (Phi + D F) y(kT).
    """
    return _tabulate(lambda sys, F, h, S: _hold_maps(sys, F, h, S, periodic=False),
                     sys, F, T, y0, horizon, steps_per_period)


def simulate_dp(sys: ContinuousSystem | SpectralSystem, F: np.ndarray, T: float,
                y0: np.ndarray, horizon: float, steps_per_period: int) -> Trajectory:
    """Sampled observation under the periodic law: y' = A y + B F(t) y(kT).

    With F(t) = F exp((A + B F)(t - kT)) the loop reproduces the continuous
    loop y' = (A + B F) y exactly, between samples too.
    """
    return _tabulate(lambda sys, F, h, S: _hold_maps(sys, F, h, S, periodic=True),
                     sys, F, T, y0, horizon, steps_per_period)


def simulate_cp(sys: ContinuousSystem | SpectralSystem, F: np.ndarray, T: float,
                y0: np.ndarray, horizon: float, steps_per_period: int) -> Trajectory:
    """Continuous observation under the periodic law: y' = (A + B F(t)) y.

    Classical fixed-step 4th-order Runge-Kutta at step T / steps_per_period.
    Explicit: a step too long for the system's fastest modes makes the loop
    blow up, reported as NumericOverflowError once it overflows.
    """
    return _tabulate(_cp_maps, sys, F, T, y0, horizon, steps_per_period)


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


def system_hash(sys: ContinuousSystem | SpectralSystem) -> str:
    """12 hex digits of the SHA-256 of the system's arrays: A and B, or a
    spectral system's per-mode symbol values and control mask."""
    arrays = ((sys.symbol_values, sys.control_mask) if isinstance(sys, SpectralSystem)
              else (sys.A, sys.B))
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:12]


def trajectory_to_csv(traj: Trajectory, path, header: dict | None = None) -> None:
    """CSV export: t, ||y||, Re/Im of each state and control component.

    A JSON header line (prefixed '#') records the header's metadata, with
    sorted keys and a schema number.  Cells are "%.16g", as np.savetxt writes
    them; a column that is +0.0 on every row (the imaginary parts of a real
    loop) is written as the literal 0 without formatting each cell.
    """
    meta = dict(header or {})
    meta.setdefault("schema", 1)
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
        zero = ~(table.any(axis=0) | np.signbit(table).any(axis=0))
        row = ",".join(np.where(zero, "0", "%.16g")) + "\n"
        for cells in table[:, ~zero].tolist():
            fh.write(row % tuple(cells))
