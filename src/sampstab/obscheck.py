"""Observability Gramians and weak observability feasibility checks.

The decision problem: do constants (N, C, delta) with delta < 1 exist so that

    || exp(A NT)* phi ||^2  <=  C * sum_i || W_i phi ||^2  +  delta * ||phi||^2

holds for every phi, where W_i integrates B* exp(At)* over the i-th sampling
interval?  Quantifying over phi reduces to one Hermitian eigenvalue: the
inequality holds iff lambda_max(R R* - C G - delta I) <= 0 with R the
N-period transition and G the Gramian sum of W_i* W_i.  A continuous-mode
variant replaces the sum with int_0^T exp(At) B B* exp(At)* dt.

Feasibility searches walk N upward and take the smallest C in closed form.
The discrete search extends G and R by one period per step from the sampled
pair (Phi, D) of linsys.sample: W_1* W_1 = D D* and W_{i+1} = W_i Phi*.  The
continuous search decides on continuous_gramian at every horizon.  The kernel
of G supplies a structural obstruction: on ker G the inequality collapses to
||R* phi||^2 <= delta ||phi||^2, so if the transition preserves norm on the
kernel no constant C can help at that horizon.

A spectral (diagonal) system stays diagonal: R and G are 1-D arrays of
per-mode entries, and each eigenvalue problem above becomes a maximum over
modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import count, islice

import numpy as np

from . import linsys
from .errors import NumericOverflowError, SearchExhausted
from .linsys import ContinuousSystem, SpectralSystem, _hermitize, sample, semigroup

__all__ = [
    "GramianBundle",
    "ObservabilityCertificate",
    "discrete_gramian",
    "continuous_gramian",
    "check_inequality",
    "min_delta_on_kernel",
    "decide_dc",
    "decide_cc",
    "pathological_periods",
]

# Relative singular-value cutoff separating a structural kernel from noise.
RANK_RTOL = 1e-10
# Margin below which lambda_max(R R* - C G - delta I) counts as feasible.
PSD_TOL = 1e-10
# Kernel transition norm within this of 1 certifies structural infeasibility.
KERNEL_ONE_TOL = 1e-9
# Largest constant a search certifies; a horizon needing more counts as failed.
_C_CEILING = 2.0 ** 60
# Re-checks of a closed-form constant, each nudging C up by 4**k relative ulps.
_NUDGES = 26


@dataclass(frozen=True, eq=False)
class GramianBundle:
    """Transition R, PSD Gramian G, and its eigendecomposition G = V diag(w) V*.

    mode is "discrete" (horizon = N periods of length T) or "continuous"
    (horizon = integration time, and T echoes it).  ker G is spanned by the
    eigenvectors with w <= RANK_RTOL * max w.  For a dense G, w ascends, so
    these are the leading columns of V.  A 1-D G holds the diagonal of a
    diagonal system's Gramian (and R the diagonal of its transition): w is G
    itself, V is None (the identity), and ker G is spanned by unit modes.
    """

    R: np.ndarray
    G: np.ndarray
    mode: str
    T: float
    horizon: float
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.G).all():
            raise NumericOverflowError(f"{self.mode} Gramian has non-finite entries")
        if np.ndim(self.G) == 1:
            G = np.asarray(self.G, dtype=float)
            if np.shape(self.R) != G.shape:
                raise ValueError("a 1-D Gramian needs a 1-D transition of the same length")
            w, V = G, None
        else:
            G = _hermitize(np.asarray(self.G, dtype=complex))
            w, V = np.linalg.eigh(G)
        if w.min() < -1e-12 * max(np.abs(w).max(), 1.0):
            raise NumericOverflowError("Gramian has a significantly negative eigenvalue")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "R", np.asarray(self.R, dtype=complex))
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", V)

    @property
    def kernel_mask(self) -> np.ndarray:
        """True at the eigenvalues that span ker G."""
        w = self.eigenvalues
        return w <= RANK_RTOL * max(w.max(), 0.0)

    @property
    def kernel_dim(self) -> int:
        return int(np.count_nonzero(self.kernel_mask))

    @property
    def kernel_basis(self) -> np.ndarray:
        if self.eigenvectors is not None:
            return self.eigenvectors[:, :self.kernel_dim]
        modes = np.flatnonzero(self.kernel_mask)
        P = np.zeros((self.G.size, modes.size), dtype=complex)
        P[modes, np.arange(modes.size)] = 1.0
        return P


@dataclass(frozen=True)
class ObservabilityCertificate:
    """Outcome of one weak-observability inequality check.

    margin = lambda_max(R R* - C G - delta I); feasible iff margin <= PSD_TOL.
    N is the horizon in periods for discrete mode, or the horizon time for
    continuous mode.  kernel_norm records the worst transition norm found on
    ker G during a search (None when not probed).  bundle is the Gramian
    bundle check_inequality decided on (None on a search's infeasible
    verdict, which spans horizons); it takes no part in equality or JSON.
    """

    mode: str
    T: float
    N: float
    C: float
    delta: float
    margin: float
    feasible: bool
    kernel_dim: int = 0
    kernel_norm: float | None = None
    bundle: GramianBundle | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.feasible:
            if not (0 < self.delta < 1):
                raise ValueError("feasible certificate requires delta in (0, 1)")
            if self.C < 0:
                raise ValueError("feasible certificate requires C >= 0")
            if self.margin > PSD_TOL:
                raise ValueError("feasible certificate requires margin <= 0 (tolerance)")

    def to_json(self) -> dict:
        out = {
            "mode": self.mode,
            "T": self.T,
            "N": self.N,
            "C": self.C,
            "delta": self.delta,
            "margin": self.margin,
            "feasible": self.feasible,
            "kernel_dim": self.kernel_dim,
        }
        if self.kernel_norm is not None:
            out["kernel_norm"] = self.kernel_norm
        return out


def _walk(sys: ContinuousSystem | SpectralSystem, T: float):
    """(R, G) at horizons k T, k = 1, 2, ...: G_{k+1} = G_k + R_k G_1 R_k*, R_{k+1} = R_k Phi.

    (Phi, D) is the sampled pair of linsys.sample, which validates T, and
    G_1 = W_1* W_1 = D D*; the step adds W_{k+1}* W_{k+1} = R_k W_1* W_1 R_k*.
    A spectral system walks the 1-D diagonals of its 1-D pair, G_1 = |D|^2.
    A step may overflow, silently, to inf or NaN entries: its bundle then fails.
    """
    pair = sample(sys, T)
    Phi, D = pair.Phi, pair.D
    spectral = Phi.ndim == 1
    with np.errstate(over="ignore", invalid="ignore"):
        G_1 = np.abs(D) ** 2 if spectral else _hermitize(D @ D.conj().T)
    R, G = Phi, G_1
    while True:
        yield R, G
        with np.errstate(over="ignore", invalid="ignore"):
            if spectral:
                G, R = G + np.abs(R) ** 2 * G_1, R * Phi
            else:
                G, R = G + R @ G_1 @ R.conj().T, R @ Phi


def discrete_gramian(sys: ContinuousSystem | SpectralSystem, T: float, N: int) -> GramianBundle:
    """Gramian of the N interval-integrated observation blocks, G = sum W_i* W_i.

    A spectral system gives a 1-D bundle (per-mode diagonals).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    R, G = next(islice(_walk(sys, T), N - 1, None))
    return GramianBundle(R, G, "discrete", T, float(N))


def continuous_gramian(sys: ContinuousSystem | SpectralSystem, T_h: float) -> GramianBundle:
    """G = int_0^{T_h} exp(At) B B* exp(At)* dt and R = exp(A T_h).

    Dense G by scaling and squaring: the block exponential
    exp([[-A, B B*], [0, A*]] h) gives G(h) at h = T_h / 2^s, ||A||_1 h <= 1
    (Van Loan, IEEE TAC 23, 1978); s doublings G(2t) = G(t) + E G(t) E*,
    E = exp(At) <- E^2, reach T_h without the exp(-A T_h) that loses digits
    or overflows on long or stiff horizons.  Spectral G is the 1-D per-mode
    b^2 phi1(2 Re lambda, T_h).  R is semigroup(sys, T_h), 1-D for a spectral
    system.  A non-finite G or R raises NumericOverflowError.
    """
    if not (math.isfinite(T_h) and T_h > 0):
        raise ValueError("T_h must be finite and > 0")
    R = semigroup(sys, T_h)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(sys, SpectralSystem):
            G = sys.control_mask ** 2 * linsys._phi1(2.0 * sys.symbol_values.real, T_h).real
        else:
            A, B, n = sys.A, sys.B, sys.state_dim
            s = max(math.frexp(np.linalg.norm(A, 1) * T_h)[1], 0)
            aug = np.block([[-A, B @ B.conj().T], [np.zeros_like(A), A.conj().T]])
            F = linsys._quiet_expm(aug * (T_h / 2 ** s))
            E = F[n:, n:].conj().T
            G = E @ F[:n, n:]
            for _ in range(s):
                G, E = G + E @ G @ E.conj().T, E @ E
    return GramianBundle(R, G, "continuous", T_h, T_h)


def check_inequality(g: GramianBundle, C: float, delta: float) -> ObservabilityCertificate:
    """Decide the inequality at fixed constants by the eigenvalue reformulation."""
    if C < 0:
        raise ValueError("C must be >= 0")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if g.G.ndim == 1:
        margin = float(np.max(np.abs(g.R) ** 2 - C * g.G - delta))
    else:
        n = g.R.shape[0]
        M = _hermitize(g.R @ g.R.conj().T - C * g.G - delta * np.eye(n))
        margin = float(np.linalg.eigvalsh(M).max())
    return ObservabilityCertificate(
        mode=g.mode, T=g.T, N=g.horizon, C=float(C), delta=float(delta),
        margin=margin, feasible=margin <= PSD_TOL, kernel_dim=g.kernel_dim, bundle=g,
    )


def min_delta_on_kernel(g: GramianBundle) -> float:
    """Largest ||R* phi||^2 over unit phi in ker G; 0 when the kernel is trivial.

    This is the infimum of admissible delta in the C -> infinity limit: some
    (C, delta < 1) satisfies the inequality only if this value is < 1.
    """
    if g.G.ndim == 1:
        return float(np.max(np.abs(g.R[g.kernel_mask]) ** 2, initial=0.0))
    Y = g.kernel_basis.conj().T @ g.R
    return float(np.linalg.eigvalsh(_hermitize(Y @ Y.conj().T)).max(initial=0.0))


def _min_constant(g: GramianBundle, delta: float) -> float:
    """Smallest C >= 0 with lambda_max(R R* - C G - delta I) <= 0.

    In the eigenbasis of G, kernel first and the range scaled by G_r^-1/2,
    M = R R* - delta I has blocks S (kernel), Q (range-kernel), P (range) and
    G becomes B = diag(W_k, I) with W_k the kernel eigenvalues, clipped at 0.
    Taking W_k = 0 gives the Schur-complement bound
    C_t = lambda_max(P - Q S^-1 Q*)_+, which needs S < 0, i.e.
    min_delta_on_kernel(g) < delta (the caller's guard), and is exact for a
    trivial kernel.  Otherwise N = 2 C_t B - M > 0 and the definite pencil
    gives C_min = 2 C_t - 1 / lambda_max(N^-1 B) exactly.  Per mode of a
    1-D bundle this is C_min = max over range modes of (|R|^2 - delta)_+ / G;
    kernel modes need no C since |R|^2 < delta there.  A range eigenvalue so
    small that the scaling overflows gives C = inf, which fails the caller's
    ceiling.
    """
    if g.G.ndim == 1:
        r = ~g.kernel_mask
        with np.errstate(over="ignore"):
            excess = np.maximum(np.abs(g.R[r]) ** 2 - delta, 0.0) / g.G[r]
        return float(np.max(excess, initial=0.0))
    d, w = g.kernel_dim, g.eigenvalues
    X = g.eigenvectors.conj().T @ g.R
    scale = np.concatenate([np.ones(d), 1.0 / np.sqrt(w[d:])])
    with np.errstate(over="ignore", invalid="ignore"):
        M = _hermitize(X @ X.conj().T - delta * np.eye(w.size)) * np.outer(scale, scale)
    if not np.isfinite(M).all():
        return np.inf
    H = M[d:, d:] - M[d:, :d] @ np.linalg.solve(M[:d, :d], M[:d, d:])
    C = float(np.linalg.eigvalsh(_hermitize(H)).max(initial=0.0))
    if d == 0 or C == 0.0:
        return C
    from scipy.linalg import eigh  # a non-trivial dense kernel only: slow to import
    b = np.concatenate([np.maximum(w[:d], 0.0), np.ones(w.size - d)])
    try:
        mu = eigh(np.diag(b), 2.0 * C * np.diag(b) - M, eigvals_only=True)[-1]
    except np.linalg.LinAlgError:
        return C  # not numerically definite: keep the bound, which is re-checked
    return max(2.0 * C - 1.0 / mu, 0.0)


def _search_horizons(bundles, N_max: int, delta_target: float, exhausted: str,
                     best_horizon) -> ObservabilityCertificate:
    """Decide on the bundles of horizons k T, k = 1..N_max; return the first feasible certificate.

    Returns an infeasible certificate when every horizon carried a
    norm-preserving kernel (a structural proof that no (C, delta<1) works at
    the searched horizons), else raises SearchExhausted(exhausted).  C is
    computed on, and nudged until check_inequality passes on, the bundle the
    public Gramian function returns at that horizon; the certificate carries
    that bundle.  From k = 2 on, the search stops before the first horizon
    whose bundle raises NumericOverflowError or whose squared transition
    overflows (|R|^2 per mode; trace R R* for a dense R, which bounds every
    entry of R R*), and decides on the horizons before it: an infeasible
    certificate then stands at the last finite one.
    """
    if N_max < 1:
        raise ValueError("N_max must be >= 1")
    if not (0 < delta_target < 1):
        raise ValueError("delta_target must lie in (0, 1)")
    best_margin = np.inf
    worst_kernel = 0.0
    worst_dim = 0
    all_blocked = True
    last = None
    bundles = iter(bundles)
    for _ in range(N_max):
        try:
            g = next(bundles)
        except NumericOverflowError:
            if last is None:
                raise
            break
        with np.errstate(over="ignore", invalid="ignore"):
            RR = np.abs(g.R) ** 2 if g.R.ndim == 1 else np.vdot(g.R, g.R).real
        if not np.isfinite(RR).all():
            break
        last = g
        kn = min_delta_on_kernel(g)
        if kn > worst_kernel:
            worst_kernel, worst_dim = kn, g.kernel_dim
        if kn >= 1.0 - KERNEL_ONE_TOL:
            # No C can rescue this horizon; record a margin data point.
            best_margin = min(best_margin, check_inequality(g, 1.0, delta_target).margin)
            continue
        all_blocked = False
        if kn >= delta_target:
            # Kernel slack already reaches the requested delta: C-search futile
            # here, but a larger delta < 1 might work, so this is not proof.
            best_margin = min(best_margin, kn - delta_target)
            continue
        C = _min_constant(g, delta_target)
        if not C <= _C_CEILING:
            best_margin = min(best_margin, check_inequality(g, _C_CEILING, delta_target).margin)
            continue
        for i in range(_NUDGES):
            cert = check_inequality(g, C, delta_target)
            if cert.feasible:
                return replace(cert, kernel_norm=kn)
            C *= 1.0 + np.finfo(float).eps * 4.0 ** i
        best_margin = min(best_margin, cert.margin)
    if all_blocked and last is not None:
        return ObservabilityCertificate(
            mode=last.mode, T=last.T, N=last.horizon, C=0.0, delta=delta_target,
            margin=float(best_margin), feasible=False, kernel_dim=worst_dim,
            kernel_norm=worst_kernel,
        )
    raise SearchExhausted(exhausted, best_margin=float(best_margin), best_horizon=best_horizon)


def decide_dc(sys: ContinuousSystem | SpectralSystem, T: float, N_max: int = 16,
              delta_target: float = 0.9) -> ObservabilityCertificate:
    """Search horizons N = 1..N_max for a feasible (N, C) at the target delta.

    Returns the first feasible certificate (smallest N, then the exact smallest
    C, checked on discrete_gramian(sys, T, N)).  If every horizon is
    blocked by a norm-preserving kernel (transition norm on ker G within
    KERNEL_ONE_TOL of 1), returns an infeasible certificate: growing N or C
    provably cannot help at the searched horizons.  Otherwise a fruitless
    search raises SearchExhausted, which does not claim anything beyond the
    horizon.
    """
    return _search_horizons(
        (GramianBundle(R, G, "discrete", T, float(k))
         for k, (R, G) in enumerate(_walk(sys, T), start=1)), N_max, delta_target,
        f"no feasible (N, C) with N <= {N_max} at delta = {delta_target}; "
        "infeasibility not proven", N_max)


def decide_cc(sys: ContinuousSystem | SpectralSystem, T: float, N_max: int = 16,
              delta_target: float = 0.9) -> ObservabilityCertificate:
    """Continuous-mode analogue of decide_dc over horizons T_h = k T, k <= N_max.

    Every horizon is decided on continuous_gramian(sys, k T).
    """
    return _search_horizons(
        (continuous_gramian(sys, k * T) for k in count(1)), N_max, delta_target,
        f"no feasible horizon k*T with k <= {N_max} at delta = {delta_target}", N_max * T)


def pathological_periods(A: np.ndarray, T_max: float) -> list[float]:
    """Sampling periods 2 k pi / |Im(lam_i - lam_j)| up to T_max.

    Eigenvalue pairs qualify when their real parts agree within
    1e-9 * (1 + |lam|) and their imaginary parts differ.  Sorted, deduplicated.
    """
    if not T_max > 0:
        raise ValueError("T_max must be > 0")
    lam = np.linalg.eigvals(np.asarray(A, dtype=complex))
    periods: list[float] = []
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
    out: list[float] = []
    for p in periods:
        if not out or p - out[-1] > 1e-9 * (1.0 + p):
            out.append(p)
    return out


# Random values the per-mode brute force draws per chunk (1 MiB of float64).
_DRAW_CELLS = 1 << 17
# Ceiling on the brute force's draw: n x n_samples complex states for a dense
# bundle (160 MB per array), n_samples per accumulator for a per-mode one.
_MAX_DRAW_CELLS = 10 ** 7


def check_draw(n_samples: int, n: int, per_mode: bool) -> None:
    """Validate a brute-force draw of n_samples states of dimension n before it is allocated."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    cells = n_samples if per_mode else n * n_samples
    if cells > _MAX_DRAW_CELLS:
        raise ValueError(f"brute force needs {cells:.3g} cells, over the ceiling of "
                         f"{_MAX_DRAW_CELLS:.0e}; lower --brute-samples")


def brute_force_max_violation(g: GramianBundle, C: float, delta: float,
                              n_samples: int, seed: int) -> float:
    """Max over random unit phi of ||R* phi||^2 - C phi*G phi - delta.

    Random sampling can only under-detect violations; it never exceeds the
    eigenvalue margin (up to roundoff).  The states are the columns of an
    n x n_samples complex Gaussian draw, real parts first, then imaginary
    parts.  A 1-D bundle streams that draw in row chunks: per mode, the
    value is sum_i w_i |phi_i|^2 / ||phi||^2 - delta with w = |R|^2 - C G,
    so memory stays O(n_samples) however many modes there are.
    """
    n = g.R.shape[0]
    check_draw(n_samples, n, g.G.ndim == 1)
    rng = np.random.default_rng(seed)
    if g.G.ndim == 1:
        w = np.abs(g.R) ** 2 - C * g.G
        rows = max(1, _DRAW_CELLS // n_samples)
        weighted, norm2 = np.zeros(n_samples), np.zeros(n_samples)
        for _ in ("real", "imaginary"):
            for lo in range(0, n, rows):
                x2 = rng.standard_normal((min(rows, n - lo), n_samples)) ** 2
                weighted += w[lo:lo + rows] @ x2
                norm2 += x2.sum(axis=0)
        return float((weighted / norm2).max() - delta)
    phis = rng.standard_normal((n, n_samples)) + 1j * rng.standard_normal((n, n_samples))
    phis /= np.linalg.norm(phis, axis=0)
    v = g.R.conj().T @ phis
    vals = (np.real(np.einsum("ij,ij->j", v.conj(), v))
            - C * np.real(np.einsum("ij,ij->j", phis.conj(), g.G @ phis)) - delta)
    return float(vals.max())
