"""Discrete LQ synthesis for a sampled pair (Phi, D) with unit cost weights.

The stabilizing kernel is the fixed point of

    K = Phi* K (I + D D* K)^{-1} Phi + I,

whose value iteration from K_0 = 0 is the finite-horizon optimal cost
(``dp_value_iterate``, kept as the brute-force oracle).  ``riccati_solve``
reaches the fixed point by structure-preserving doubling (Lin & Xu, SIAM
J. Matrix Anal. Appl. 28, 2006): its k-th iterate equals 2^k value steps.
The feedback gain is

    F_K = -(I + D* K D)^{-1} D* K Phi,

and stability of Phi + D F_K is certified by its spectral radius.

A diagonal pair (1-D Phi and D, sampled from a spectral system) decouples
into scalar problems, solved per mode in closed form: with phi, d the mode's
entries, k is the positive root of |d|^2 k^2 + (1 - |phi|^2 - |d|^2) k - 1 = 0,
f = -conj(d) k phi / (1 + |d|^2 k), and the kernel, gain and closed loop are
1-D arrays of per-mode entries.

``to_json`` hands each array to a ``save(name, array)`` callable and reports
what it returns in the array's place (the CLI saves a ``.npy`` file and
returns its descriptor), so no array is expanded into JSON lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SpectralRadiusError
from .linsys import SampledSystem, _hermitize

__all__ = [
    "RiccatiSolution",
    "FeedbackGain",
    "riccati_solve",
    "dp_value_iterate",
    "feedback_gain",
    "lq_optimal_cost",
    "closed_loop_cost",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 64
# trace(K) beyond this reports structural divergence rather than slow progress.
_DIVERGENCE_TRACE = 1e12


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Hermitian PSD kernel K with the fixed-point residual of the final iterate."""

    K: np.ndarray
    residual: float
    iterations: int
    converged: bool

    def to_json(self, save: Callable[[str, np.ndarray], object]) -> dict:
        return {
            "K": save("K", self.K),
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True, eq=False)
class FeedbackGain:
    """Gain F with its closed-loop matrix Phi + D F and spectral radius."""

    F: np.ndarray
    closed_loop: np.ndarray
    spectral_radius: float

    def to_json(self, save: Callable[[str, np.ndarray], object]) -> dict:
        return {
            "F": save("F", self.F),
            "closed_loop": save("closed_loop", self.closed_loop),
            "spectral_radius": self.spectral_radius,
        }


def _value_step(K: np.ndarray, Phi: np.ndarray, D: np.ndarray) -> np.ndarray:
    """One backward step K -> Phi* K (I + D D* K)^{-1} Phi + I."""
    n = Phi.shape[0]
    X = np.linalg.solve(np.eye(n) + D @ D.conj().T @ K, Phi)
    return _hermitize(Phi.conj().T @ K @ X + np.eye(n))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing iterate ends the doubling
def riccati_solve(sys: SampledSystem, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> RiccatiSolution:
    """Double the value recursion until its relative step drops to tol.

    From A_0 = Phi, G_0 = D D*, H_0 = I, each doubling sets W = (I + G H)^{-1}
    and A <- A W A, G <- G + A W G A*, H <- H + A* H W A; H_k equals the
    value iterate after 2^k steps.  Stops when ||H_{k+1} - H_k|| <= tol
    ||H_{k+1}|| (2-norms); max_iter counts doublings.  A non-converged result
    (doubling cap, non-finite entries, or trace blow-up past 1e12) signals
    that the sampled pair is likely not stabilizable; cross-check with the
    observability decision procedure.

    A diagonal pair is solved per mode in closed form (_riccati_modes); tol
    and max_iter then go unused, and iterations is 0.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    Phi, D = sys.Phi, sys.D
    if Phi.ndim == 1:
        return _riccati_modes(Phi, D)
    n = Phi.shape[0]
    A, G, H = Phi, D @ D.conj().T, np.eye(n, dtype=complex)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        WA, WG = np.hsplit(np.linalg.solve(np.eye(n) + G @ H, np.hstack([A, G])), 2)
        H_next = _hermitize(H + A.conj().T @ H @ WA)
        if not np.isfinite(H_next).all():
            break
        G = _hermitize(G + A @ WG @ A.conj().T)
        A = A @ WA
        step = np.linalg.norm(H_next - H, 2)
        H = H_next
        if step <= tol * np.linalg.norm(H, 2):
            converged = True
            break
        if np.trace(H).real > _DIVERGENCE_TRACE:
            break
    gap = H - _value_step(H, Phi, D)
    residual = float(np.linalg.norm(gap, 2)) if np.isfinite(gap).all() else np.inf
    return RiccatiSolution(K=H, residual=residual, iterations=iterations,
                           converged=converged)


def _riccati_modes(phi: np.ndarray, d: np.ndarray) -> RiccatiSolution:
    """Per-mode fixed point k = |phi|^2 k / (1 + |d|^2 k) + 1 of a diagonal pair.

    k is the positive root of |d|^2 k^2 + beta k - 1 = 0, beta = 1 - |phi|^2 - |d|^2,
    taken as 2 / (beta + sqrt(beta^2 + 4 |d|^2)) when beta > 0, so that it does
    not cancel.  An unstable or neutral mode with d = 0 has no root (inf or
    NaN); such a k, a non-positive one, or sum(k) past 1e12 is not converged,
    as for doubling.  The residual max |k - step(k)| is the 2-norm of the
    diagonal residual.
    """
    p2, d2 = np.abs(phi) ** 2, np.abs(d) ** 2
    beta = 1.0 - p2 - d2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.sqrt(beta ** 2 + 4.0 * d2)
        k = np.where(beta > 0, 2.0 / (beta + root), (root - beta) / (2.0 * d2))
        residual = float(np.max(np.abs(k - (p2 * k / (1.0 + d2 * k) + 1.0))))
    converged = bool(np.isfinite(k).all() and (k > 0).all()
                     and k.sum() <= _DIVERGENCE_TRACE)
    return RiccatiSolution(K=k, residual=residual, iterations=0, converged=converged)


def dp_value_iterate(sys: SampledSystem, n: int) -> np.ndarray:
    """Finite-horizon optimal cost operator after n backward steps from P = 0.

    riccati_solve's k-th doubling equals n = 2^k of these steps; serves as
    its brute-force oracle.
    """
    if n < 1:
        raise ValueError("horizon n must be >= 1")
    P = np.zeros((sys.state_dim, sys.state_dim), dtype=complex)
    for _ in range(n):
        P = _value_step(P, sys.Phi, sys.D)
    return P


def feedback_gain(sol: RiccatiSolution, sys: SampledSystem) -> FeedbackGain:
    """F = -(I + D* K D)^{-1} D* K Phi, with the spectral-radius < 1 certificate."""
    if not sol.converged:
        raise ValueError("feedback gain requires a converged Riccati solution")
    Phi, D, K = sys.Phi, sys.D, sol.K
    if Phi.ndim == 1:
        F = -D.conj() * K * Phi / (1.0 + np.abs(D) ** 2 * K)
        closed = Phi + D * F
        radius = float(np.abs(closed).max())
    else:
        m = D.shape[1]
        F = -np.linalg.solve(np.eye(m) + D.conj().T @ K @ D, D.conj().T @ K @ Phi)
        closed = Phi + D @ F
        radius = float(np.abs(np.linalg.eigvals(closed)).max())
    if radius >= 1.0:
        raise SpectralRadiusError(
            f"closed-loop spectral radius {radius:.6g} >= 1 "
            f"(Riccati residual {sol.residual:.3g}); numerical pathology"
        )
    return FeedbackGain(F=F, closed_loop=closed, spectral_radius=radius)


def lq_optimal_cost(sol: RiccatiSolution, y0: np.ndarray) -> float:
    """Quadratic form <K y0, y0> of the kernel at the initial state."""
    if not sol.converged:
        raise ValueError("optimal cost requires a converged Riccati solution")
    y0 = np.asarray(y0, dtype=complex).ravel()
    if sol.K.ndim == 1:
        return float(sol.K @ np.abs(y0) ** 2)
    return float(np.real(y0.conj() @ sol.K @ y0))


def closed_loop_cost(gain: FeedbackGain, y0: np.ndarray) -> float:
    """Cost sum_{i>=1} (||y_i||^2 + ||u_i||^2) of the feedback recursion, exactly.

    With y_i = M y_{i-1}, u_i = F y_{i-1} and M = Phi + D F the gain's
    closed loop, the sum is y0* X y0 for the solution X = M* X M + M* M + F* F
    of the discrete Lyapunov equation.  For the LQ-optimal gain X = K - I, so
    the cost equals lq_optimal_cost - ||y0||^2.  Dense X is summed by Smith
    doubling, X <- X + A* X A, A <- A^2 from A = M, until a step no longer
    moves X; a diagonal loop solves it per mode, x = (|m|^2 + |f|^2) / (1 - |m|^2).
    """
    y = np.asarray(y0, dtype=complex).ravel()
    F, M = gain.F, gain.closed_loop
    if F.ndim == 1:
        m2 = np.abs(M) ** 2
        return float(((m2 + np.abs(F) ** 2) / (1.0 - m2)) @ np.abs(y) ** 2)
    X, A = M.conj().T @ M + F.conj().T @ F, M
    for _ in range(DEFAULT_MAX_ITER):
        step = A.conj().T @ X @ A
        X = X + step
        if np.linalg.norm(step) <= np.finfo(float).eps * np.linalg.norm(X):
            break
        A = A @ A
    return float(np.real(y.conj() @ X @ y))
