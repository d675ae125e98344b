"""Canonical benchmark systems and their special-purpose analyses.

Three families: the controlled harmonic oscillator (whose sampled
observability degenerates exactly at periods that are multiples of pi), a
spectral truncation of a shifted fractional diffusion with a masked control
set, and a spectral truncation of the free Schroedinger flow, which admits a
counterexample witness: unit states whose interval-integrated observations
are arbitrarily small even though the flow preserves their norm.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse
from .linsys import (ContinuousSystem, SpectralSystem, _check_count, _phi1, frac_heat_symbol,
                     schrodinger_symbol)

__all__ = [
    "harmonic_oscillator",
    "det_lambda",
    "fractional_heat",
    "schrodinger",
    "schrodinger_witness",
    "witness_band",
    "ThickSetSpec",
    "CounterexampleWitness",
    "is_thick",
]

# Minimum number of grid points that must resolve the witness support.
_MIN_SUPPORT_POINTS = 32


def harmonic_oscillator() -> ContinuousSystem:
    """Rotation generator with force input on the velocity component."""
    return ContinuousSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                            np.array([[0.0], [1.0]]))


def det_lambda(T: float) -> float:
    """Determinant of the 2x2 matrix of interval-integrated sin/cos observations.

    Rows integrate sin t and cos t over [(j-1)T, jT] for j = 1, 2; the
    determinant is -2 sin(T) (1 - cos(T)) in closed form.  Its zeros are
    exactly the degenerate sampling periods of the oscillator.
    """
    if not T > 0:
        raise ValueError("T must be > 0")
    return -2.0 * math.sin(T) * (1.0 - math.cos(T))


@dataclass(frozen=True)
class ThickSetSpec:
    """A union of disjoint intervals inside [0, domain_length] with a claimed
    lower density gamma over windows."""

    intervals: tuple
    domain_length: float
    gamma: float

    def __post_init__(self):
        if not self.domain_length > 0:
            raise ValueError("domain_length must be > 0")
        if not (0 < self.gamma <= 1):
            raise ValueError("gamma must lie in (0, 1]")
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        for a, b in ivs:
            if not (0.0 <= a < b <= self.domain_length):
                raise ValueError(f"interval ({a}, {b}) not inside the domain")
        for (a1, b1), (a2, b2) in zip(sorted(ivs), sorted(ivs)[1:]):
            if b1 > a2:
                raise ValueError("intervals must be disjoint")
        object.__setattr__(self, "intervals", tuple(sorted(ivs)))

    def measure_in(self, lo: float, hi: float) -> float:
        return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in self.intervals)

    def indicator(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for a, b in self.intervals:
            out[(x >= a) & (x < b)] = 1.0
        return out


ThicknessResult = namedtuple("ThicknessResult", ["thick", "gamma_measured"])


def is_thick(spec: ThickSetSpec, L: float) -> ThicknessResult:
    """Exact minimum relative measure of a window of length L over the truncated domain.

    The measure inside [x, x + L] is piecewise linear in x, with kinks where
    an interval end a or b meets either window edge, so its minimum over
    [0, span] lies in {0, span} or at an end a, b, a - L or b - L inside it.
    The set is thick for window length L iff that minimum reaches the claimed gamma.
    """
    if not 0 < L <= spec.domain_length:
        raise ValueError("window length must satisfy 0 < L <= domain_length")
    span = spec.domain_length - L
    kinks = (x for iv in spec.intervals for end in iv for x in (end, end - L))
    positions = {0.0, span, *(x for x in kinks if 0.0 <= x <= span)}
    gamma_measured = min(spec.measure_in(x, x + L) for x in positions) / L
    return ThicknessResult(thick=gamma_measured >= spec.gamma - 1e-12,
                           gamma_measured=gamma_measured)


def fractional_heat(n_modes: int, s: float, c: float,
                    mask: ThickSetSpec | np.ndarray | None = None,
                    *, modes: np.ndarray | None = None,
                    xi_max: float = 4.0) -> SpectralSystem:
    """Spectral truncation of u_t = -( -Lap )^{s/2} u + c u with a masked input.

    The default mode grid is symmetric, [-xi_max, xi_max]; the generator
    diagonal is c - |xi|^s, so a positive shift c leaves the low modes
    unstable under zero control.  mask may be a ThickSetSpec (indicator of its
    intervals on the |xi| grid), a raw per-mode array, or None for the
    identity input.
    """
    if not math.isfinite(xi_max):
        raise ValueError("xi_max must be finite")
    if modes is not None:
        grid = np.asarray(modes, dtype=float)
    elif n_modes == 1:
        grid = np.array([0.0])
    else:
        grid = np.linspace(-xi_max, xi_max, n_modes)
    if isinstance(mask, ThickSetSpec):
        mask_arr = mask.indicator(np.abs(grid))
    elif mask is None:
        mask_arr = np.ones(grid.size)
    else:
        mask_arr = np.asarray(mask, dtype=float)
    return SpectralSystem(grid, frac_heat_symbol(s, c), mask_arr,
                          symbol_spec={"symbol": "frac_heat", "s": float(s), "c": float(c)})


def schrodinger(n_modes: int, xi_max: float) -> SpectralSystem:
    """Spectral truncation of the free Schroedinger flow on a one-sided grid.

    The generator diagonal i xi^2 has modulus-one flow entries; the identity
    control mask stands in for the full-strength input operator, whose
    unit-modulus scalar factor changes no norm used downstream.
    """
    if not (math.isfinite(xi_max) and xi_max > 0):
        raise ValueError("xi_max must be finite and > 0")
    grid = np.linspace(0.0, xi_max, n_modes)
    return SpectralSystem(grid, schrodinger_symbol(), np.ones(n_modes),
                          symbol_spec={"symbol": "schrodinger"})


@dataclass(frozen=True, eq=False)
class CounterexampleWitness:
    """Unit state in mode space defeating the sampled observability sum.

    The state is a normalized smooth bump supported on the frequency band
    where the one-period phase xi^2 T wraps to 2 pi, so each interval integral
    of the flow nearly cancels.  `observed` is the resulting sum of squared
    interval norms; `bound` is the a-priori guarantee N (eta T / (2 pi - eta))^2.
    """

    T: float
    N: int
    epsilon: float
    eta: float
    support: tuple
    grid: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    bound: float
    observed: float
    grid_spacing: float

    def __post_init__(self):
        if not (0 < self.eta < 2 * math.pi):
            raise ValueError("eta must lie in (0, 2 pi)")
        w = _trapezoid_weights(self.grid)
        norm = math.sqrt(float(np.sum(w * np.abs(self.phi) ** 2)))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"witness state norm {norm} differs from 1 beyond 1e-12")
        if self.observed > self.bound + 1e-10:
            raise ValueError("observed observability sum exceeds its guaranteed bound")

    def norm(self) -> float:
        w = _trapezoid_weights(self.grid)
        return math.sqrt(float(np.sum(w * np.abs(self.phi) ** 2)))

    def to_json(self) -> dict:
        return {
            "T": self.T,
            "N": self.N,
            "epsilon": self.epsilon,
            "eta": self.eta,
            "support": [self.support[0], self.support[1]],
            "bound": self.bound,
            "observed": self.observed,
            "grid_spacing": self.grid_spacing,
        }


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    w = np.zeros(grid.size)
    d = np.diff(grid)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def _bump(u: np.ndarray) -> np.ndarray:
    """Smooth compactly supported profile exp(-1/(1-u^2)) on (-1, 1)."""
    out = np.zeros(u.shape)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def _witness_observed(grid: np.ndarray, phi: np.ndarray, T: float, N: int) -> float:
    """Sum over intervals of || int_{(i-1)T}^{iT} flow* phi dt ||^2 on the grid.

    The per-mode time integral is exact: the adjoint flow multiplier is
    exp(-i xi^2 t), whose interval integral has modulus |exp(i xi^2 T) - 1| / xi^2
    independent of the interval index, so the sum is N times the first term.
    """
    w = _trapezoid_weights(grid)
    coef = _phi1(-1j * grid.astype(float) ** 2, T)
    return N * float(np.sum(w * np.abs(coef * phi) ** 2))


def witness_band(T: float, N: int, epsilon: float) -> tuple[float, float, float]:
    """(eta, lo, hi): the witness bump's half-width and its support band.

    eta solves (eta T / (2 pi - eta))^2 = epsilon / N, so the guaranteed bound
    equals epsilon; the support is (sqrt((2 pi - eta)/T), sqrt((2 pi + eta)/T)).
    """
    if not 0 < T < math.inf:
        raise ValueError("T must be finite and > 0")
    _check_count(N, "N")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and > 0")
    rho = math.sqrt(epsilon / N)
    eta = 2.0 * math.pi * rho / (T + rho)
    lo, hi = math.sqrt((2.0 * math.pi - eta) / T), math.sqrt((2.0 * math.pi + eta) / T)
    if not (lo > 0 and hi < math.inf):  # eta rounds to 2 pi, or 2 pi / T overflows
        raise ValueError(f"the witness band ({lo:.6g}, {hi:.6g}) is not a finite band above 0; "
                         "raise T or lower epsilon / N")
    return eta, lo, hi


def schrodinger_witness(T: float, N: int, epsilon: float,
                        grid: np.ndarray) -> CounterexampleWitness:
    """Construct the witness state for given period, horizon, and target bound.

    The bump lives on the band of ``witness_band``, and the grid must place
    at least 32 points inside it, else GridTooCoarse is raised.  No
    quadrature error can break the bound: for xi in the band, xi^2 T lies in
    (2 pi - eta, 2 pi + eta), so the per-mode coefficient has modulus
    2 |sin(xi^2 T / 2)| / xi^2 < eta / xi^2 < eta T / (2 pi - eta), and
    observed < N (eta T / (2 pi - eta))^2 sum w |phi|^2 = bound on every grid
    on which phi is normalized.
    """
    eta, lo, hi = witness_band(T, N, epsilon)
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")

    bound = N * (eta * T / (2.0 * math.pi - eta)) ** 2

    inside = (grid > lo) & (grid < hi)
    if int(inside.sum()) < _MIN_SUPPORT_POINTS:
        raise GridTooCoarse(
            f"support ({lo:.6g}, {hi:.6g}) holds {int(inside.sum())} grid points; "
            f"need >= {_MIN_SUPPORT_POINTS}"
        )

    f = _bump((2.0 * grid - (lo + hi)) / (hi - lo))
    nrm = math.sqrt(float(np.sum(_trapezoid_weights(grid) * f ** 2)))
    if nrm == 0.0:
        raise GridTooCoarse("bump vanished on the grid")
    phi = (f / nrm).astype(complex)
    observed = _witness_observed(grid, phi, T, N)

    spacing = float(np.median(np.diff(grid[inside])))
    return CounterexampleWitness(
        T=float(T), N=int(N), epsilon=float(epsilon), eta=float(eta),
        support=(lo, hi), grid=grid, phi=phi, bound=float(bound),
        observed=float(observed), grid_spacing=spacing,
    )
