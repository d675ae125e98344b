"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import json
import math
import warnings
from itertools import count

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import expm

from sampstab import (ContinuousSystem, GramianBundle, NumericOverflowError,
                      ObservabilityCertificate, SampledSystem, SearchExhausted,
                      SpectralSystem, check_inequality, continuous_gramian,
                      min_delta_on_kernel)
from sampstab import linsys, obscheck
from sampstab.obscheck import _C_CEILING, _NUDGES, KERNEL_ONE_TOL, PSD_TOL, RANK_RTOL

# Every property test draws the same examples on every run.
settings.register_profile("sampstab", derandomize=True, deadline=None)
settings.load_profile("sampstab")


def to_dense(sys: SpectralSystem) -> ContinuousSystem:
    """Materialize a spectral system as diagonal (A, B) matrices."""
    return ContinuousSystem(np.diag(sys.symbol_values),
                            np.diag(sys.control_mask.astype(complex)))


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


def _pbh_full_rank(M: np.ndarray, D: np.ndarray, eigenvalues) -> bool:
    """rank [lam I - M, D] = n at each of the given eigenvalues lam of M."""
    n = M.shape[0]
    return all(np.linalg.svd(np.hstack([lam * np.eye(n) - M, D]), compute_uv=False)[-1] > 1e-8
               for lam in eigenvalues)


def pbh_discrete(Phi: np.ndarray, D: np.ndarray) -> bool:
    """Popov-Belevitch-Hautus test: (Phi, D) is stabilizable, checked at every |mu| >= 1."""
    mu = np.linalg.eigvals(Phi)
    return _pbh_full_rank(Phi, D, mu[np.abs(mu) >= 1.0 - 1e-9])


def pbh_continuous(A: np.ndarray, B: np.ndarray) -> bool:
    """Popov-Belevitch-Hautus test: (A, B) is stabilizable, checked at every Re lam >= 0."""
    lam = np.linalg.eigvals(A)
    return _pbh_full_rank(A, B, lam[lam.real >= -1e-9])


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
    assert pbh_discrete(Phi, D)
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


def kernel_basis(g: GramianBundle) -> np.ndarray:
    """Orthonormal columns spanning ker G: the leading eigenvectors, or unit modes of a 1-D G."""
    if g.eigenvectors is not None:
        return g.eigenvectors[:, :g.kernel_dim]
    modes = np.flatnonzero(g.kernel_mask)
    P = np.zeros((g.G.size, modes.size), dtype=complex)
    P[modes, np.arange(modes.size)] = 1.0
    return P


def periodic_schedule(sys: ContinuousSystem, F, T: float, t: float) -> np.ndarray:
    """Oracle: the periodic law F exp((A + B F)(t mod T)), one exponential per call.

    A float t sitting just under a period boundary wraps to 0, not T.
    """
    F = np.atleast_2d(np.asarray(F, dtype=complex))
    u = t / T
    frac = u - math.floor(u)
    if frac > 1.0 - 1e-12 * max(1.0, abs(u)):
        frac = 0.0
    return F @ expm((sys.A + sys.B @ F) * (frac * T))


def cc_stepper(sys: ContinuousSystem, F, y0, horizon: float, dt: float):
    """Oracle: the cc loop advanced one exponential step dt at a time.

    Returns (times, states, controls) on ceil(horizon / dt) + 1 points.
    """
    F = np.atleast_2d(np.asarray(F, dtype=complex))
    n_steps = max(int(np.ceil(horizon / dt - 1e-12)), 1)
    E = expm((sys.A + sys.B @ F) * dt)
    states = np.empty((n_steps + 1, sys.state_dim), dtype=complex)
    states[0] = np.asarray(y0, dtype=complex).ravel()
    for j in range(n_steps):
        states[j + 1] = E @ states[j]
    return np.arange(n_steps + 1) * dt, states, states @ F.T


def cp_stepper(sys: ContinuousSystem, F, T: float, y0, horizon: float, dt: float):
    """Oracle: the cp loop by classical RK4 on the state vector, one step dt at a time.

    dt must divide T; the law is built on the half-step grid of one period.
    Returns (times, states, controls) on ceil(horizon / dt) + 1 points.
    """
    F = np.atleast_2d(np.asarray(F, dtype=complex))
    steps = int(round(T / dt))
    assert steps >= 1 and abs(steps * dt - T) <= 1e-12 * T
    E_half = expm((sys.A + sys.B @ F) * (dt / 2.0))
    sched = [F]
    for _ in range(2 * steps):
        sched.append(sched[-1] @ E_half)
    M = [sys.A + sys.B @ S for S in sched]
    n_steps = max(int(np.ceil(horizon / dt - 1e-12)), 1)
    states = np.empty((n_steps + 1, sys.state_dim), dtype=complex)
    controls = np.empty((n_steps + 1, F.shape[0]), dtype=complex)
    states[0] = np.asarray(y0, dtype=complex).ravel()
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
    return np.arange(n_steps + 1) * dt, states, controls


def det_lambda_quadrature(T: float) -> float:
    """Oracle for det_lambda: the 2x2 determinant with each interval integral
    of sin t and cos t over [(j-1)T, jT] taken by adaptive quadrature."""
    a = np.empty((2, 2))
    with warnings.catch_warnings():
        # The tolerance request sits at the roundoff floor by design.
        warnings.simplefilter("ignore", IntegrationWarning)
        for j in (1, 2):
            a[0, j - 1] = quad(math.sin, (j - 1) * T, j * T, epsabs=1e-14, epsrel=1e-14)[0]
            a[1, j - 1] = quad(math.cos, (j - 1) * T, j * T, epsabs=1e-14, epsrel=1e-14)[0]
    return float(np.linalg.det(a))


def witness_observed_loop(grid: np.ndarray, phi: np.ndarray, T: float, N: int) -> float:
    """Oracle: the witness observability sum, one interval at a time.

    Interval i contributes || exp(-i xi^2 (i-1) T) c(xi) phi ||^2 on the
    trapezoid rule, where c = (exp(-i xi^2 T) - 1) / (-i xi^2) integrates the
    adjoint flow over one period (c = T at xi = 0).
    """
    d = np.diff(grid)
    w = np.zeros(grid.size)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    lam = -1j * grid.astype(float) ** 2
    coef = np.full(grid.shape, complex(T))
    nz = lam != 0
    coef[nz] = np.expm1(lam[nz] * T) / lam[nz]
    total = 0.0
    for i in range(1, N + 1):
        g = np.exp(lam * (i - 1) * T) * coef * phi
        total += float(np.sum(w * np.abs(g) ** 2))
    return total


def witness_grid_padded(lo: float, hi: float, support_points: int) -> np.ndarray:
    """Oracle: a witness grid padded out to [0, 1.02 hi], with support_points
    spacings across the band (lo, hi).  The state is zero on every point
    outside the band."""
    spacing = (hi - lo) / support_points
    return np.linspace(0.0, 1.02 * hi, int(math.ceil(1.02 * hi / spacing)) + 1)


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


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _offdiagonal_scale(inner, outer):
    """2^-k, the least k >= 0 bringing outer to at most max(inner, 1).  Times it,
    the off-diagonal block (of 1-norm outer; inner is that of the diagonal blocks)
    of a block triangular matrix adds no squarings to an exponential, which would
    cost the diagonal blocks accuracy; the same block of the exponential scales alike."""
    with np.errstate(divide="ignore"):
        return np.exp2(-np.maximum(np.ceil(np.log2(outer / np.maximum(inner, 1.0))), 0.0))


def van_loan_oracle(X: np.ndarray, Y: np.ndarray):
    """Oracle: linsys._van_loan's (E, F) from the whole order-2n block exponential
    linsys.expm(M), M = [[-X, c Y], [0, X*]], c = _offdiagonal_scale: E = exp(X)
    read off M's bottom-right block as its adjoint, and F its top-right block
    over c.  test_linsys pins linsys.expm to scipy's."""
    n = X.shape[0]
    c = _offdiagonal_scale(max(np.linalg.norm(X, 1), np.linalg.norm(X, np.inf)),
                           np.linalg.norm(Y, 1))
    M = linsys.expm(np.block([[-X, c * Y], [np.zeros_like(X), X.conj().T]]))
    return M[n:, n:].conj().T, M[:n, n:] / c


def sampled_pairs_oracle(sys: ContinuousSystem, periods):
    """Oracle: linsys.sample_periods' dense pairs from scipy's stacked order-(n+m)
    exponential exp([[A, c B], [0, 0]] T) = [[Phi, c D], [0, I]], with
    c = _offdiagonal_scale of each period's blocks."""
    n, m = sys.state_dim, sys.input_dim
    T = np.asarray(periods, dtype=float)[:, None, None]
    c = _offdiagonal_scale(np.linalg.norm(sys.A, 1) * T, np.linalg.norm(sys.B, 1) * T)
    aug = np.zeros((T.size, n + m, n + m), dtype=complex)
    aug[:, :n, :n] = sys.A * T
    aug[:, :n, n:] = sys.B * (T * c)
    top = expm(aug)[:, :n]
    return top[:, :, :n], top[:, :, n:] / c


def _oracle_pair(sys, T: float):
    """Oracle: the sampled pair of one period, from the program's linsys.sample.

    This is an oracle of the stacked search, which must reproduce the
    one-period pair bit for bit; test_linsys pins the pair and linsys.expm
    to scipy's and to exact exponentials.
    """
    pair = linsys.sample(sys, T)
    return pair.Phi, pair.D


def _oracle_decomposed(R, G, mode: str):
    """Oracle: (R, G, w, V) of one bundle, checked and decomposed on its own."""
    if not np.isfinite(G).all():
        raise NumericOverflowError(f"{mode} Gramian has non-finite entries")
    if G.ndim == 1:
        G = np.asarray(G, dtype=float)
        w, V = G, None
    else:
        G = _herm(np.asarray(G, dtype=complex))
        w, V = np.linalg.eigh(G)
    if w.min() < -1e-12 * max(np.abs(w).max(), 1.0):
        raise NumericOverflowError("Gramian has a significantly negative eigenvalue")
    return R, G, w, V


def _oracle_margin(R, G, C: float, delta: float) -> float:
    if G.ndim == 1:
        return float(np.max(np.abs(R) ** 2 - C * G - delta))
    M = _herm(R @ R.conj().T - C * G - delta * np.eye(R.shape[0]))
    return float(np.linalg.eigvalsh(M).max())


def _oracle_kernel(w) -> np.ndarray:
    return w <= RANK_RTOL * max(w.max(), 0.0)


def _oracle_kernel_norm(R, w, V) -> float:
    kernel = _oracle_kernel(w)
    if V is None:
        return float(np.max(np.abs(R[kernel]) ** 2, initial=0.0))
    Y = V[:, :np.count_nonzero(kernel)].conj().T @ R
    return float(np.linalg.eigvalsh(_herm(Y @ Y.conj().T)).max(initial=0.0))


def _oracle_min_constant(R, G, w, V, delta: float) -> float:
    """Oracle: the closed-form smallest C of one bundle, one period at a time."""
    kernel = _oracle_kernel(w)
    if V is None:
        r = ~kernel
        with np.errstate(over="ignore"):
            excess = np.maximum(np.abs(R[r]) ** 2 - delta, 0.0) / G[r]
        return float(np.max(excess, initial=0.0))
    d = int(np.count_nonzero(kernel))
    X = V.conj().T @ R
    scale = np.concatenate([np.ones(d), 1.0 / np.sqrt(w[d:])])
    with np.errstate(over="ignore", invalid="ignore"):
        M = _herm(X @ X.conj().T - delta * np.eye(w.size)) * np.outer(scale, scale)
    if not np.isfinite(M).all():
        return np.inf
    H = M[d:, d:] - M[d:, :d] @ np.linalg.solve(M[:d, :d], M[:d, d:])
    C = float(np.linalg.eigvalsh(_herm(H)).max(initial=0.0))
    if d == 0 or C == 0.0:
        return C
    # The program's pencil step, on a stack of one; test_obscheck pins it to
    # scipy's generalized eigh.
    return float(obscheck._pencil_constants(M[None], w[None, :d], np.array([C]))[0])


def search_oracle(bundles, T: float, mode: str, N_max: int, delta: float, exhausted: str):
    """Oracle: one period's horizon search, the scalar loop the stacked search replaced.

    bundles yields (R, G, w, V, T, horizon) per horizon and may raise
    NumericOverflowError.  Returns the certificate, the SearchExhausted, or,
    when the first horizon fails, the NumericOverflowError the search gives.
    """
    best_margin, worst_kernel, worst_dim = np.inf, 0.0, 0
    all_blocked, last = True, None
    bundles = iter(bundles)
    for _ in range(N_max):
        try:
            R, G, w, V, T_g, horizon = g = next(bundles)
        except NumericOverflowError:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            RR = np.abs(R) ** 2 if R.ndim == 1 else np.vdot(R, R).real
        if not np.isfinite(RR).all():
            break
        last = g
        dim = int(np.count_nonzero(_oracle_kernel(w)))
        kn = _oracle_kernel_norm(R, w, V)
        if kn > worst_kernel:
            worst_kernel, worst_dim = kn, dim
        if kn >= 1.0 - KERNEL_ONE_TOL:
            best_margin = min(best_margin, _oracle_margin(R, G, 1.0, delta))
            continue
        all_blocked = False
        if kn >= delta:
            best_margin = min(best_margin, kn - delta)
            continue
        C = _oracle_min_constant(R, G, w, V, delta)
        if not C <= _C_CEILING:
            best_margin = min(best_margin, _oracle_margin(R, G, _C_CEILING, delta))
            continue
        for i in range(_NUDGES):
            margin = _oracle_margin(R, G, C, delta)
            if margin <= PSD_TOL:
                return ObservabilityCertificate(
                    mode=mode, T=T_g, N=horizon, C=float(C), delta=float(delta), margin=margin,
                    feasible=True, kernel_dim=dim, kernel_norm=kn)
            C *= 1.0 + np.finfo(float).eps * 4.0 ** i
        best_margin = min(best_margin, margin)
    if last is None:
        return NumericOverflowError(f"the first {mode} horizon at T = {float(T)!r} "
                                    "has non-finite entries or an indefinite Gramian")
    if all_blocked:
        return ObservabilityCertificate(
            mode=mode, T=last[4], N=last[5], C=0.0, delta=delta, margin=float(best_margin),
            feasible=False, kernel_dim=worst_dim, kernel_norm=worst_kernel)
    return SearchExhausted(exhausted, best_margin=float(best_margin))


def decide_dc_oracle(sys, T: float, N_max: int = 16, delta: float = 0.9):
    """Oracle: decide_dc at one period by the scalar walk and search; the certificate,
    or the SearchExhausted or NumericOverflowError decide_dc raises."""
    def bundles():
        Phi, D = _oracle_pair(sys, T)
        spectral = Phi.ndim == 1
        with np.errstate(over="ignore", invalid="ignore"):
            G_1 = np.abs(D) ** 2 if spectral else _herm(D @ D.conj().T)
        R, G = Phi, G_1
        for k in count(1):
            yield (*_oracle_decomposed(R, G, "discrete"), T, float(k))
            with np.errstate(over="ignore", invalid="ignore"):
                if spectral:
                    G, R = G + np.abs(R) ** 2 * G_1, R * Phi
                else:
                    G, R = G + R @ G_1 @ R.conj().T, R @ Phi

    return search_oracle(bundles(), T, "discrete", N_max, delta,
                         f"no feasible (N, C) with N <= {N_max} at delta = {delta}; "
                         "infeasibility not proven")


def decide_cc_oracle(sys, T: float, N_max: int = 16, delta: float = 0.9):
    """Oracle: decide_cc by the scalar search on continuous_gramian at every horizon."""
    def bundles():
        for k in count(1):
            g = continuous_gramian(sys, k * T)
            yield g.R, g.G, g.eigenvalues, g.eigenvectors, g.T, g.horizon

    return search_oracle(bundles(), T, "continuous", N_max, delta,
                         f"no feasible horizon k*T with k <= {N_max} at delta = {delta}")


def outcome_fields(outcome) -> tuple:
    """A search outcome as the exact text of every field a report or sweep row shows."""
    if isinstance(outcome, SearchExhausted):
        return ("search-exhausted", str(outcome), repr(outcome.best_margin))
    if isinstance(outcome, NumericOverflowError):
        return ("numeric-failure", str(outcome))
    return ("feasible" if outcome.feasible else "infeasible", outcome.mode, repr(outcome.T),
            repr(outcome.N), repr(outcome.C), repr(outcome.delta), repr(outcome.margin),
            outcome.kernel_dim, repr(outcome.kernel_norm))


def pathological_periods_loop(A, T_max: float) -> list:
    """Oracle: pathological_periods as a double loop over eigenvalue pairs,
    each pair's multiples walked k = 1, 2, ... up to T_max."""
    lam = np.linalg.eigvals(np.asarray(A, dtype=complex))
    periods = []
    for i in range(lam.size):
        for j in range(i + 1, lam.size):
            scale = 1.0 + max(abs(lam[i]), abs(lam[j]))
            if abs(lam[i].real - lam[j].real) > 1e-9 * scale:
                continue
            gap = abs(lam[i].imag - lam[j].imag)
            if gap <= 1e-9 * scale:
                continue
            base = 2.0 * np.pi / gap
            k = 1
            while k * base <= T_max * (1 + 1e-12):
                periods.append(k * base)
                k += 1
    periods.sort()
    out = []
    for p in periods:
        if not out or p - out[-1] > 1e-9 * (1.0 + p):
            out.append(p)
    return out


def gramian_quadratic_form(g: GramianBundle, phis: np.ndarray) -> np.ndarray:
    """phi* G phi for each column of phis."""
    if g.G.ndim == 1:
        return g.G @ np.abs(phis) ** 2
    return np.real(np.einsum("ij,ij->j", phis.conj(), g.G @ phis))


def transition_quadratic_form(g: GramianBundle, phis: np.ndarray) -> np.ndarray:
    """||R* phi||^2 for each column of phis."""
    if g.G.ndim == 1:
        return np.abs(g.R) ** 2 @ np.abs(phis) ** 2
    v = g.R.conj().T @ phis
    return np.real(np.einsum("ij,ij->j", v.conj(), v))


def gaussian_violations_oracle(g: GramianBundle, C: float, delta: float,
                               n_samples: int, seed: int) -> np.ndarray:
    """||R* phi||^2 - C phi*G phi - delta at each column phi of one normalized
    n x n_samples complex Gaussian draw: the inequality at random states."""
    rng = np.random.default_rng(seed)
    n = g.R.shape[0]
    phis = rng.standard_normal((n, n_samples)) + 1j * rng.standard_normal((n, n_samples))
    phis /= np.linalg.norm(phis, axis=0)
    return transition_quadratic_form(g, phis) - C * gramian_quadratic_form(g, phis) - delta


def json_dump_oracle(obj) -> str:
    """What serialize.dump_json must write: the standard library's text and a newline,
    each NaN, Infinity and -Infinity token read back as null."""
    obj = json.loads(json.dumps(obj), parse_constant=lambda token: None)
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def matrix_to_json_loop(m) -> list:
    """Oracle: matrix_to_json as a per-entry [re, im] recursion over any shape."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 0:
        return [complex(m).real, complex(m).imag]
    return [matrix_to_json_loop(sub) for sub in m]


def _oracle_real(x) -> float:
    """Oracle: a JSON number as a float; booleans, strings and containers are errors."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"number out of float range: {x}") from exc


def _oracle_entry(e) -> complex:
    """Oracle: one matrix entry, a plain number or an [re, im] pair."""
    if isinstance(e, (list, tuple)):
        if len(e) != 2:
            raise ValueError(f"complex entry must be [re, im], got {e!r}")
        return complex(_oracle_real(e[0]), _oracle_real(e[1]))
    return complex(_oracle_real(e))


def matrix_from_json_loop(obj) -> np.ndarray:
    """Oracle: matrix_from_json reading entry by entry.  A matrix is complex,
    also one whose rows are empty."""
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValueError("matrix must be a non-empty list of rows")
    rows = [[_oracle_entry(e) for e in row] for row in obj]
    if len({len(r) for r in rows}) != 1:
        raise ValueError("matrix rows have unequal lengths")
    return np.array(rows, dtype=complex)


def vector_from_json_loop(obj) -> np.ndarray:
    """Oracle: vector_from_json reading entry by entry."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("vector must be a non-empty list")
    return np.array([_oracle_entry(e) for e in obj])


def reals_from_json_loop(obj) -> np.ndarray:
    """Oracle: reals_from_json reading entry by entry."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("vector must be a non-empty list")
    return np.array([_oracle_real(x) for x in obj])


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
