"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

from sampstab import (ContinuousSystem, GramianBundle, SampledSystem,
                      SpectralSystem, check_inequality, min_delta_on_kernel,
                      to_dense)
from sampstab.obscheck import KERNEL_ONE_TOL


def expm_taylor(M: np.ndarray) -> np.ndarray:
    """Independent matrix exponential: Taylor series with scaling and squaring.

    Deliberately avoids the Pade route used by the implementation.
    """
    M = np.asarray(M, dtype=complex)
    norm = np.linalg.norm(M, 1)
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    X = M / (2 ** s)
    out = np.eye(M.shape[0], dtype=complex)
    term = np.eye(M.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ X / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def random_complex(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_stable_system(seed: int, n: int = 4, m: int = 2,
                         margin: float = 0.3) -> ContinuousSystem:
    """Dense system with spectral abscissa at most -margin."""
    rng = np.random.default_rng(seed)
    A = random_complex(rng, (n, n)) / np.sqrt(n)
    A -= (np.linalg.eigvals(A).real.max() + margin) * np.eye(n)
    B = random_complex(rng, (n, m)) / np.sqrt(m)
    return ContinuousSystem(A, B)


def random_neutral_system(seed: int, n: int = 4) -> ContinuousSystem:
    """Skew-Hermitian generator: the flow is unitary."""
    rng = np.random.default_rng(seed)
    X = random_complex(rng, (n, n))
    return ContinuousSystem(X - X.conj().T, random_complex(rng, (n, 1)))


def random_mixed_system(seed: int, n: int = 4, m: int = 2,
                        shift: float = 0.2) -> ContinuousSystem:
    """Generic dense system with mildly unstable modes allowed."""
    rng = np.random.default_rng(seed)
    A = random_complex(rng, (n, n)) / np.sqrt(n)
    A -= (np.linalg.eigvals(A).real.max() - shift) * np.eye(n)
    B = random_complex(rng, (n, m)) / np.sqrt(m)
    return ContinuousSystem(A, B)


def _pbh_stabilizable(Phi: np.ndarray, D: np.ndarray) -> bool:
    n = Phi.shape[0]
    for lam in np.linalg.eigvals(Phi):
        if abs(lam) < 1.0 - 1e-9:
            continue
        pencil = np.hstack([lam * np.eye(n) - Phi, D])
        if np.linalg.svd(pencil, compute_uv=False)[-1] <= 1e-8:
            return False
    return True


def random_stabilizable_pair(seed: int, n: int = 4) -> SampledSystem:
    """Random complex sampled pair, verified stabilizable by the PBH rank test.

    Alternates between square and thin input maps; the transition is rescaled
    to a spectral radius in [0.5, 1.5], so genuinely unstable transitions occur.
    """
    rng = np.random.default_rng(seed)
    m = n if seed % 2 == 0 else max(n // 2, 1)
    Phi = random_complex(rng, (n, n)) / np.sqrt(2 * n)
    Phi *= rng.uniform(0.5, 1.5) / np.abs(np.linalg.eigvals(Phi)).max()
    D = random_complex(rng, (n, m)) / np.sqrt(2 * m)
    assert _pbh_stabilizable(Phi, D)
    return SampledSystem(Phi, D, 1.0)


def random_cc_stabilized(seed: int, n: int = 3, m: int = 2):
    """(system, gain) with A + B F made Hurwitz by shifting A."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    F = rng.standard_normal((m, n))
    abscissa = np.linalg.eigvals(A + B @ F).real.max()
    A = A - (abscissa + 0.5) * np.eye(n)
    return ContinuousSystem(A, B), F


def random_unit_states(rng, n: int, count: int) -> np.ndarray:
    """Columns: unit-norm complex states."""
    phis = rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))
    return phis / np.linalg.norm(phis, axis=0)


def scratch_bundle(sys, T: float, N: int, mode: str) -> GramianBundle:
    """Gramian bundle at horizon N T built from scratch, without the horizon walk.

    R = expm(A N T).  Discrete: G = sum W_i* W_i = sum D_i D_i* with
    D_i = (J(iT) - J((i-1)T)) B, where J(t) = int_0^t exp(As) ds comes from its
    own block exponential at each t.  Continuous: the block exponential of
    [[-A, B B*], [0, A*]] over N T.
    """
    dense = to_dense(sys) if isinstance(sys, SpectralSystem) else sys
    A, B = dense.A, dense.B
    n = A.shape[0]
    R = expm(A * (N * T))
    if mode == "continuous":
        aug = np.zeros((2 * n, 2 * n), dtype=complex)
        aug[:n, :n], aug[:n, n:], aug[n:, n:] = -A, B @ B.conj().T, A.conj().T
        F = expm(aug * (N * T))
        return GramianBundle(R, F[n:, n:].conj().T @ F[:n, n:], mode, N * T, N * T)
    aug = np.zeros((2 * n, 2 * n), dtype=complex)
    aug[:n, :n], aug[:n, n:] = A, np.eye(n)
    J = [expm(aug * (i * T))[:n, n:] for i in range(N + 1)]
    D = [(J[i] - J[i - 1]) @ B for i in range(1, N + 1)]
    G = sum(d @ d.conj().T for d in D)
    return GramianBundle(R, G, mode, T, float(N))


def bisect_constant(g: GramianBundle, delta: float, steps: int = 60,
                    doublings: int = 60) -> float | None:
    """Oracle: smallest C with check_inequality(g, C, delta) feasible.

    Probes C = 0, doubles from C = 1 up to 2**doublings, then bisects the
    bracket; None when even the largest probe is infeasible.
    """
    if check_inequality(g, 0.0, delta).feasible:
        return 0.0
    hi = 1.0
    while not check_inequality(g, hi, delta).feasible:
        if hi >= 2.0 ** doublings:
            return None
        hi *= 2.0
    lo = 0.0 if hi == 1.0 else hi / 2.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if check_inequality(g, mid, delta).feasible:
            hi = mid
        else:
            lo = mid
    return hi


def bisect_verdict(bundles, delta: float):
    """Oracle horizon search: ("feasible", horizon, C), ("blocked",) or ("exhausted",).

    Blocked means every horizon carried a norm-preserving kernel.
    """
    blocked = True
    for g in bundles:
        kn = min_delta_on_kernel(g)
        if kn >= 1.0 - KERNEL_ONE_TOL:
            continue
        blocked = False
        if kn > delta:
            continue
        C = bisect_constant(g, delta)
        if C is not None:
            return "feasible", g.horizon, C
    return ("blocked",) if blocked else ("exhausted",)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
