"""Observability Gramians and weak observability feasibility checks.

The decision problem: do constants (N, C, delta) with delta < 1 exist so that

    || exp(A NT)* phi ||^2  <=  C * sum_i || W_i phi ||^2  +  delta * ||phi||^2

holds for every phi, where W_i integrates B* exp(At)* over the i-th sampling
interval?  Quantifying over phi reduces to one Hermitian eigenvalue: the
inequality holds iff lambda_max(R R* - C G - delta I) <= 0 with R the
N-period transition and G the Gramian sum of W_i* W_i.  A continuous-mode
variant replaces the sum with int_0^T exp(At) B B* exp(At)* dt.

Feasibility searches walk N upward and take the smallest C in closed form.
One search decides both modes on the raw (R, G) that a source yields per
horizon.  The discrete source (_walk) extends G and R by one period per step
from the sampled pair (Phi, D): W_1* W_1 = D D* and W_{i+1} = W_i Phi*.  The
continuous one (_continuous_horizons) builds every horizon k T; a dense 2k T,
k a power of two, continues the doubling of k T by one step where a fresh
build makes that doubling last, so it builds no first step and its Gramian is
the same bits.  Only the search and the GramianBundle constructor decompose.
The kernel of G supplies a structural obstruction: on ker G the inequality
collapses to ||R* phi||^2 <= delta ||phi||^2, so if the transition preserves
norm on the kernel no constant C can help at that horizon.

The sampling period is an array axis.  sweep_dc decides a grid of periods in
one search: the sampled pairs come from one stacked exponential
(linsys.sample_periods), and the walk, the Gramian eigendecompositions, the
kernel norms, the constants and the margins act on stacks with a leading
period axis.  Each period stops at its own horizon: the search keeps a mask
of the periods still undecided.  A grid is cut into chunks of at most
_CHUNK_CELLS entries per stacked array, so memory stays bounded however many
periods it holds.  decide_dc is the one-period slice of sweep_dc, decide_cc
feeds the continuous horizons through the same search, and the public
one-period functions are slices of the same stacked kernels.

A spectral (diagonal) system stays diagonal: R and G are 1-D arrays of
per-mode entries ((P, n) stacks), and each eigenvalue problem above becomes a
maximum over modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, count, islice

import numpy as np

from .errors import NumericOverflowError, SearchExhausted
from .linsys import (ContinuousSystem, SpectralSystem, _check_count, _hermitize, _phi1,
                     _van_loan, sample_periods, semigroup)

__all__ = [
    "GramianBundle",
    "ObservabilityCertificate",
    "discrete_gramian",
    "continuous_gramian",
    "check_inequality",
    "min_delta_on_kernel",
    "sweep_dc",
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
# Most horizons a search walks: a period blocked at every horizon walks them all.
_MAX_HORIZONS = 10 ** 5
# Re-checks of a closed-form constant, each nudging C up by 4**k relative ulps.
_NUDGES = 26
# Entries per stacked array in one chunk of a sweep (4 MiB of complex128): a period
# takes n (n + m) of them for a dense system (its widest array), n for a spectral one.
_CHUNK_CELLS = 1 << 18
# Candidate periods over which pathological_periods refuses before allocating them.
_MAX_PATHOLOGICAL_PERIODS = 10 ** 6
# Modes of a 1-D bundle that the brute force re-decides in dense form (one order-32
# linsys._expm_phi1 samples them).
_BINDING_MODES = 32


def _set(obj, **fields) -> None:
    """Set fields of a frozen dataclass instance."""
    vars(obj).update(fields)


def _kernel_mask(w: np.ndarray) -> np.ndarray:
    """True at the eigenvalues that span ker G, along the last axis of w."""
    return w <= RANK_RTOL * np.maximum(w.max(axis=-1, keepdims=True), 0.0)


def _decompose(G: np.ndarray, per_mode: bool):
    """(G, w, V, ok) of a stack of Gramians, each as GramianBundle takes one.

    A dense G is hermitized and decomposed, G = V diag(w) V*, by one stacked
    eigh with each non-finite G replaced by 0, whose w and V are then NaN; a
    per-mode G is its own spectrum and V is None.  ok is False where G has
    non-finite entries or a significantly negative eigenvalue.
    """
    finite = np.isfinite(G).all(axis=tuple(range(1, G.ndim)))
    if per_mode:
        G = np.asarray(G, dtype=float)
        w, V = G, None
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # rows that are not finite
            G = _hermitize(np.asarray(G, dtype=complex))
        w, V = np.linalg.eigh(np.where(finite[:, None, None], G, 0.0))
        w[~finite], V[~finite] = np.nan, np.nan
    ok = finite & ~(w.min(axis=-1) < -1e-12 * np.maximum(np.abs(w).max(axis=-1), 1.0))
    return G, w, V, ok


@dataclass(frozen=True, eq=False)
class GramianBundle:
    """Transition R, PSD Gramian G, and its eigendecomposition G = V diag(w) V*.

    mode is "discrete" (horizon = N periods of length T) or "continuous"
    (horizon = integration time, and T echoes it).  ker G is spanned by the
    eigenvectors with w <= RANK_RTOL * max w.  For a dense G, w ascends, so
    these are the leading columns of V.  A 1-D G holds the diagonal of a
    diagonal system's Gramian (and R the diagonal of its transition): w is G
    itself, V is None (the identity), and ker G is spanned by unit modes.
    A non-finite R or G or an indefinite G raises NumericOverflowError.
    """

    R: np.ndarray
    G: np.ndarray
    mode: str
    T: float
    horizon: float
    eigenvalues: np.ndarray = field(init=False, repr=False)
    eigenvectors: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        per_mode = np.ndim(self.G) == 1
        if per_mode and np.shape(self.R) != np.shape(self.G):
            raise ValueError("a 1-D Gramian needs a 1-D transition of the same length")
        R = np.asarray(self.R, dtype=complex)
        G, w, V, ok = _decompose(np.asarray(self.G)[None], per_mode)
        if not (ok[0] and np.isfinite(R).all()):
            raise NumericOverflowError(f"{self.mode} bundle has non-finite entries or a "
                                       "significantly negative eigenvalue")
        _set(self, R=R, G=G[0], eigenvalues=w[0], eigenvectors=None if V is None else V[0])

    @property
    def kernel_mask(self) -> np.ndarray:
        """True at the eigenvalues that span ker G."""
        return _kernel_mask(self.eigenvalues)

    @property
    def kernel_dim(self) -> int:
        return int(np.count_nonzero(self.kernel_mask))


class _Stack:
    """The bundles of one horizon stacked over periods: GramianBundle's fields
    with a leading period axis (T and horizon hold one entry per period), and
    RR = |R|^2 per mode, or R R*, which every margin of the horizon reuses."""

    def __init__(self, mode: str, T: np.ndarray, horizon: np.ndarray, R: np.ndarray,
                 G: np.ndarray, w: np.ndarray, V: np.ndarray | None, RR: np.ndarray | None = None):
        if RR is None:
            with np.errstate(over="ignore", invalid="ignore"):
                RR = np.abs(R) ** 2 if V is None else R @ R.conj().mT
        self.mode, self.T, self.horizon = mode, T, horizon
        self.R, self.G, self.w, self.V, self.RR = R, G, w, V, RR

    @classmethod
    def of(cls, g: GramianBundle) -> _Stack:
        V = None if g.eigenvectors is None else g.eigenvectors[None]
        return cls(g.mode, np.array([g.T]), np.array([g.horizon]), g.R[None], g.G[None],
                   g.eigenvalues[None], V)

    def take(self, idx: np.ndarray) -> _Stack:
        """The periods idx (sorted, distinct) of the stack; the stack itself for all of them."""
        if idx.size == self.T.size:
            return self
        return _Stack(self.mode, self.T[idx], self.horizon[idx], self.R[idx], self.G[idx],
                      self.w[idx], None if self.V is None else self.V[idx], self.RR[idx])

    def margins(self, C: np.ndarray, delta: float) -> np.ndarray:
        """lambda_max(R R* - C G - delta I) of each period, at its constant in C."""
        if self.V is None:
            return np.max(self.RR - C[:, None] * self.G - delta, axis=-1)
        n = self.G.shape[-1]
        M = _hermitize(self.RR - C[:, None, None] * self.G - delta * np.eye(n))
        return np.linalg.eigvalsh(M).max(axis=-1)

    def bundles(self, idx: np.ndarray) -> list[GramianBundle]:
        """The bundles of periods idx, already decomposed: slices of copies that
        hold only those periods."""
        R, G, w = self.R[idx], self.G[idx], self.w[idx]
        V = [None] * idx.size if self.V is None else self.V[idx]
        out = []
        for j, (T, horizon) in enumerate(zip(self.T[idx].tolist(), self.horizon[idx].tolist())):
            g = object.__new__(GramianBundle)
            _set(g, R=R[j], G=G[j], mode=self.mode, T=T, horizon=horizon, eigenvalues=w[j],
                 eigenvectors=V[j])
            out.append(g)
        return out

    def finite_transition(self) -> np.ndarray:
        """False where |R|^2 overflows in some mode, or trace R R* (a bound on every entry) does."""
        if self.V is None:
            return np.isfinite(self.RR).all(axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.isfinite(np.trace(self.RR, axis1=1, axis2=2).real)


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


def _walk(Phi: np.ndarray, D: np.ndarray):
    """(R, G) at horizons k T, k = 1, 2, ..., of stacked sampled pairs (Phi, D).

    G_{k+1} = G_k + R_k G_1 R_k*, R_{k+1} = R_k Phi, with G_1 = W_1* W_1 = D D*:
    the step adds W_{k+1}* W_{k+1} = R_k W_1* W_1 R_k*.  Per-mode pairs ((P, n)
    stacks) walk the diagonals, G_1 = |D|^2.  Send an index array to keep only
    those periods from the next step on.  A step may overflow, silently, to inf
    or NaN entries: its bundle then fails.
    """
    per_mode = Phi.ndim == 2
    with np.errstate(over="ignore", invalid="ignore"):
        G_1 = np.abs(D) ** 2 if per_mode else _hermitize(D @ D.conj().mT)
    R, G = Phi, G_1
    while True:
        keep = yield R, G
        if keep is not None:
            Phi, G_1, R, G = Phi[keep], G_1[keep], R[keep], G[keep]
        with np.errstate(over="ignore", invalid="ignore"):
            if per_mode:
                G, R = G + np.abs(R) ** 2 * G_1, R * Phi
            else:
                G, R = G + R @ G_1 @ R.conj().mT, R @ Phi


def discrete_gramian(sys: ContinuousSystem | SpectralSystem, T: float, N: int) -> GramianBundle:
    """Gramian of the N interval-integrated observation blocks, G = sum W_i* W_i.

    Horizon N of _walk over the period T, as the search takes it.  A spectral
    system gives a 1-D bundle (per-mode diagonals).
    """
    _check_count(N, "N")
    R, G = next(islice(_walk(*sample_periods(sys, [T])), N - 1, None))
    return GramianBundle(R[0], G[0], "discrete", T, float(N))


def continuous_gramian(sys: ContinuousSystem | SpectralSystem, T_h: float) -> GramianBundle:
    """G = int_0^{T_h} exp(At) B B* exp(At)* dt and R = exp(A T_h).

    Dense G by scaling and squaring.  The first step takes h = T_h / 2^s, s
    the least s >= 0 with max(||A||_1, ||A||_inf) h < 1, and reads E = exp(Ah)
    and G(h) = E F off the block exponential exp([[-A, B B*], [0, A*]] h),
    whose top-right block is F = exp(-Ah) G(h) (Van Loan, IEEE TAC 23, 1978);
    linsys._van_loan evaluates E and F from polynomials in Ah of order n, and
    F is linear in B B*, so its size adds no squarings.  Then s doublings
    G(2t) = G(t) + E G(t) E*, E <- E^2, reach T_h without the exp(-A T_h) that
    loses digits or overflows on long or stiff horizons.  Spectral G is the
    1-D per-mode b^2 phi1(2 Re lambda, T_h).  R is semigroup(sys, T_h), 1-D
    for a spectral system.  The first horizon of _continuous_horizons(sys, T_h).
    """
    R, G = next(_continuous_horizons(sys, T_h))
    return GramianBundle(R[0], G[0], "continuous", float(T_h), float(T_h))


def check_inequality(g: GramianBundle, C: float, delta: float) -> ObservabilityCertificate:
    """Decide the inequality at fixed constants by the eigenvalue reformulation."""
    if C < 0:
        raise ValueError("C must be >= 0")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    margin = float(_Stack.of(g).margins(np.array([C], dtype=float), delta)[0])
    return ObservabilityCertificate(
        mode=g.mode, T=g.T, N=g.horizon, C=float(C), delta=float(delta),
        margin=margin, feasible=margin <= PSD_TOL, kernel_dim=g.kernel_dim, bundle=g,
    )


def _by_kernel_dim(dims: np.ndarray):
    """(d, indices of the periods whose kernel dimension is d), for each d present."""
    for d in sorted(set(dims.tolist())):
        yield d, np.flatnonzero(dims == d)


def _kernel_norms(s: _Stack, mask: np.ndarray) -> np.ndarray:
    """min_delta_on_kernel of each period of s; mask is s's kernel mask."""
    if s.V is None:
        return np.max(s.RR, axis=-1, where=mask, initial=0.0)
    out = np.zeros(len(s.w))
    for d, idx in _by_kernel_dim(mask.sum(axis=-1)):
        if d:
            Y = s.V[idx, :, :d].conj().mT @ s.R[idx]
            out[idx] = np.linalg.eigvalsh(_hermitize(Y @ Y.conj().mT)).max(axis=-1)
    return out


def min_delta_on_kernel(g: GramianBundle) -> float:
    """Largest ||R* phi||^2 over unit phi in ker G; 0 when the kernel is trivial.

    This is the infimum of admissible delta in the C -> infinity limit: some
    (C, delta < 1) satisfies the inequality only if this value is < 1.
    """
    return float(_kernel_norms(_Stack.of(g), g.kernel_mask[None])[0])


def _min_constants(s: _Stack, mask: np.ndarray, delta: float) -> np.ndarray:
    """Smallest C >= 0 with lambda_max(R R* - C G - delta I) <= 0, per period of s.

    In the eigenbasis of G, kernel first and the range scaled by G_r^-1/2,
    M = R R* - delta I has blocks S (kernel), Q (range-kernel), P (range) and
    G becomes B = diag(W_k, I) with W_k the kernel eigenvalues, clipped at 0.
    Taking W_k = 0 gives the Schur-complement bound
    C_t = lambda_max(P - Q S^-1 Q*)_+, which needs S < 0, i.e.
    min_delta_on_kernel(g) < delta (the caller's guard), and is exact for a
    trivial kernel.  Otherwise N = 2 C_t B - M > 0 and the definite pencil
    gives C_min = 2 C_t - 1 / lambda_max(N^-1 B) exactly.  Per mode this is
    C_min = max over range modes of (|R|^2 - delta)_+ / G; kernel modes need
    no C since |R|^2 < delta there.  A range eigenvalue so small that the
    scaling overflows gives C = inf, which fails the caller's ceiling.  The
    kernel is the one block whose size varies between periods: the dense
    steps run stacked over the periods of each kernel dimension.
    """
    if s.V is None:
        with np.errstate(over="ignore"):
            excess = np.maximum(s.RR - delta, 0.0)
            excess = np.divide(excess, s.G, out=np.zeros_like(s.G), where=~mask)
        return excess.max(axis=-1, initial=0.0)
    C = np.empty(len(s.w))
    for d, idx in _by_kernel_dim(mask.sum(axis=-1)):
        C[idx] = _dense_constants(s.R[idx], s.w[idx], s.V[idx], d, delta)
    return C


def _dense_constants(R, w, V, d: int, delta: float) -> np.ndarray:
    """_min_constants of dense periods that share the kernel dimension d."""
    n = w.shape[-1]
    X = V.conj().mT @ R
    scale = np.concatenate([np.ones((len(w), d)), 1.0 / np.sqrt(w[:, d:])], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        M = (_hermitize(X @ X.conj().mT - delta * np.eye(n))
             * (scale[:, :, None] * scale[:, None, :]))
    C = np.full(len(w), np.inf)
    fin = np.flatnonzero(np.isfinite(M).all(axis=(1, 2)))
    M = M[fin]
    H = M[:, d:, d:] - M[:, d:, :d] @ np.linalg.solve(M[:, :d, :d], M[:, :d, d:]) if d else M
    C[fin] = C_t = np.linalg.eigvalsh(_hermitize(H)).max(axis=-1, initial=0.0)
    pencil = np.flatnonzero(C_t != 0.0)
    if d and pencil.size:
        C[fin[pencil]] = _pencil_constants(M[pencil], w[fin[pencil], :d], C_t[pencil])
    return C


def _pencil_constants(M, w_k, C_t) -> np.ndarray:
    """max(2 C_t - 1 / mu, 0) per period, mu = lambda_max(L^-1 B L^-*) for the
    pencil (B, N = 2 C_t B - M), positive definite N = L L* by construction.

    If Cholesky refuses a period's N as not numerically definite, that period
    keeps its bound C_t, which the search re-checks.
    """
    P, n = M.shape[:2]
    b = np.concatenate([np.maximum(w_k, 0.0), np.ones((P, n - w_k.shape[1]))], axis=1)
    N = (2.0 * C_t[:, None] * b)[:, :, None] * np.eye(n) - M
    solved = np.ones(P, dtype=bool)
    try:
        L = np.linalg.cholesky(N)
    except np.linalg.LinAlgError:  # retry one period at a time
        L = np.broadcast_to(np.eye(n, dtype=N.dtype), N.shape).copy()
        for j in range(P):
            try:
                L[j] = np.linalg.cholesky(N[j])
            except np.linalg.LinAlgError:
                solved[j] = False
    Z = np.linalg.solve(L, np.sqrt(b)[:, :, None] * np.eye(n))
    mu = np.linalg.eigvalsh(Z @ Z.conj().mT)[:, -1]
    C = 2.0 * C_t - 1.0 / mu
    return np.where(solved, np.where(C < 0.0, 0.0, C), C_t)


def _constants(s: _Stack, c: np.ndarray, mask: np.ndarray, delta: float):
    """The smallest constants of the periods c of s, each nudged until its margin passes.

    Returns (ok, C, margin) aligned with c: ok where the margin passes within
    _NUDGES re-checks, and C and its margin at the last re-check.  Where the
    smallest constant exceeds _C_CEILING, ok is False, C is the ceiling and
    margin the margin there.
    """
    s = s.take(c)
    C = _min_constants(s, mask[c], delta)
    over = ~(C <= _C_CEILING)
    C[over] = _C_CEILING
    margin = s.margins(C, delta)
    todo = np.flatnonzero(~over & ~(margin <= PSD_TOL))
    for i in range(_NUDGES - 1):
        if not todo.size:
            break
        C[todo] *= 1.0 + np.finfo(float).eps * 4.0 ** i
        margin[todo] = s.take(todo).margins(C[todo], delta)
        todo = todo[~(margin[todo] <= PSD_TOL)]
    return ~over & (margin <= PSD_TOL), C, margin


def _search(horizons, periods: np.ndarray, mode: str, N_max: int, delta: float,
            exhausted: str) -> list:
    """Decide periods on the stacked bundles of horizons k = 1..N_max; one outcome per period.

    horizons yields the raw stacked (R, G) of each horizon over the periods
    still undecided, and is sent the indices of those to keep; the search
    decomposes each and labels it (T, k), or (k T, k T) in continuous mode.
    A period stops before its first horizon whose Gramian failed (_decompose)
    or whose squared transition overflows, and is decided on the horizons
    before it; one stopped at k = 1 has none, and its outcome is a
    NumericOverflowError naming T.  Otherwise its outcome is its first
    feasible certificate: C computed on, and nudged until its margin passes
    on, the bundle of that horizon, which the certificate carries.  An
    infeasible certificate, at the last horizon reached, stands when every
    horizon reached carried a norm-preserving kernel (a structural proof
    that no (C, delta<1) works there); else SearchExhausted(exhausted).
    """
    P = periods.size
    best = np.full(P, np.inf)
    worst, worst_dim = np.zeros(P), np.zeros(P, dtype=int)
    blocked_all, seen = np.ones(P, dtype=bool), np.zeros(P, dtype=bool)
    last_T, last_h = np.zeros(P), np.zeros(P)
    found = {}
    rows, keep = np.arange(P), None
    for k in range(1, N_max + 1):
        R, G = horizons.send(keep)
        G, w, V, ok = _decompose(G, G.ndim == 2)
        with np.errstate(over="ignore"):  # a k T past the float range fails its transition
            h = k * periods[rows] if mode == "continuous" else np.full(rows.size, float(k))
        s = _Stack(mode, h if mode == "continuous" else periods[rows], h, R, G, w, V)
        acc = np.flatnonzero(ok & s.finite_transition())
        if not acc.size:
            break
        s = s.take(acc)
        r = rows[acc]
        seen[r], last_T[r], last_h[r] = True, s.T, s.horizon
        mask = _kernel_mask(s.w)
        dims = mask.sum(axis=-1)
        kn = _kernel_norms(s, mask)
        up = kn > worst[r]
        worst[r[up]], worst_dim[r[up]] = kn[up], dims[up]
        blocked = kn >= 1.0 - KERNEL_ONE_TOL
        blocked_all[r[~blocked]] = False
        # One margin data point per period, NaN for a certificate.  No C can
        # rescue a blocked horizon: its margin at C = 1.  Kernel slack that
        # already reaches the requested delta makes the C-search futile here,
        # but a larger delta < 1 might work, so it is no proof: kn - delta.  A
        # failed constant: its last margin.
        point = np.full(acc.size, np.nan)
        b = np.flatnonzero(blocked)
        if b.size:
            point[b] = s.take(b).margins(np.ones(b.size), delta)
        slack = ~blocked & (kn >= delta)
        point[slack] = kn[slack] - delta
        c = np.flatnonzero(~blocked & (kn < delta))
        keep = acc
        if c.size:
            passes, C, margin = _constants(s, c, mask, delta)
            point[c] = np.where(passes, np.nan, margin)
            passed = c[passes]
            for j, Cj, mj, g in zip(passed.tolist(), C[passes].tolist(),
                                    margin[passes].tolist(), s.bundles(passed)):
                found[int(r[j])] = ObservabilityCertificate(
                    mode=g.mode, T=g.T, N=g.horizon, C=Cj, delta=float(delta), margin=mj,
                    feasible=True, kernel_dim=int(dims[j]), kernel_norm=float(kn[j]), bundle=g)
            keep = np.delete(acc, passed)
        best[r] = np.where(point < best[r], point, best[r])
        rows = rows[keep]
        del s, R, G, w, V  # before the next horizon is built
        if not rows.size:
            break
    return [found[p] if p in found
            else NumericOverflowError(f"the first {mode} horizon at T = {float(periods[p])!r} "
                                      "has non-finite entries or an indefinite Gramian")
            if not seen[p]
            else ObservabilityCertificate(
                mode=mode, T=float(last_T[p]), N=float(last_h[p]), C=0.0, delta=delta,
                margin=float(best[p]), feasible=False, kernel_dim=int(worst_dim[p]),
                kernel_norm=float(worst[p]))
            if blocked_all[p]
            else SearchExhausted(exhausted, best_margin=float(best[p]))
            for p in range(P)]


def _check_search(N_max: int, delta_target: float) -> None:
    if not 1 <= N_max <= _MAX_HORIZONS:
        raise ValueError(f"N_max must lie in [1, {_MAX_HORIZONS:.0e}]")
    if not (0 < delta_target < 1):
        raise ValueError("delta_target must lie in (0, 1)")


def _continuous_horizons(sys: ContinuousSystem | SpectralSystem, T: float):
    """Raw (R, G) of the continuous horizons k T, k = 1, 2, ..., as one-period stacks.

    Each is built as continuous_gramian says: one first step (linsys._van_loan,
    of order n) and s doublings.  A dense horizon 2k T, k a power of two,
    instead continues the raw (G, E) of k T by one doubling when
    max(||A||_1, ||A||_inf) k T >= 1/2: a fresh build then makes s + 1
    doublings from the same step h, so the bits agree.  A horizon k T past
    the float range yields NaN for R and G, one whose semigroup overflows NaN
    for R; an overflowing G is yielded as it comes out.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T_h must be finite and > 0")
    spectral = isinstance(sys, SpectralSystem)
    shape = (sys.state_dim,) * (1 if spectral else 2)
    pair = None  # the raw (G, E) of the last power-of-two horizon, if one doubling continues it
    for k in count(1):
        T_h, power = k * T, k & (k - 1) == 0
        if not math.isfinite(T_h):  # stand-ins built only here: one of n^2 NaNs raises peak RSS
            nan = np.full((1, *shape), np.nan)
            yield nan, nan
            continue
        try:
            R = semigroup(sys, T_h)
        except NumericOverflowError:
            R = np.full(shape, np.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            if spectral:
                G = sys.control_mask ** 2 * _phi1(2.0 * sys.symbol_values.real, T_h).real
            else:
                A, B = sys.A, sys.B
                x = max(np.linalg.norm(A, 1), np.linalg.norm(A, np.inf)) * T_h
                s = max(math.frexp(x)[1], 0)
                if power and pair is not None:
                    (G, E), steps = pair, 1
                else:  # F = exp(-Ah) G(h)
                    h = math.ldexp(T_h, -s)
                    E, F = _van_loan(h * A, h * (B @ B.conj().T))
                    G, steps = E @ F, s
                for _ in range(steps):
                    G, E = G + E @ G @ E.conj().T, E @ E
                if power:
                    pair = (G, E) if max(math.frexp(2.0 * x)[1], 0) == s + 1 else None
        yield R[None], G[None]


def sweep_dc(sys: ContinuousSystem | SpectralSystem, periods, N_max: int = 16,
             delta_target: float = 0.9):
    """decide_dc at every period of a 1-D grid: an iterator over the outcomes, in grid order.

    Each outcome is the certificate decide_dc(sys, T, N_max, delta_target)
    returns, or the SearchExhausted it raises.  The grid is decided chunk by
    chunk, each of at most _CHUNK_CELLS entries per stacked array (n (n + m)
    a dense period, n a spectral one) by one stacked search, so a
    certificate's bundle (its period's slice) lives only as long as the
    caller keeps it.  A period whose first horizon overflows has its
    NumericOverflowError as its outcome, which decide_dc raises.
    """
    _check_search(N_max, delta_target)
    periods = np.asarray(periods, dtype=float)
    if periods.ndim != 1:
        raise ValueError("periods must be a 1-D grid")
    n = sys.state_dim
    cells = n if isinstance(sys, SpectralSystem) else n * (n + sys.input_dim)
    step = max(1, _CHUNK_CELLS // cells)
    chunks = (periods[lo:lo + step] for lo in range(0, periods.size, step))
    exhausted = (f"no feasible (N, C) with N <= {N_max} at delta = {delta_target}; "
                 "infeasibility not proven")
    return chain.from_iterable(
        _search(_walk(*sample_periods(sys, Ts)), Ts, "discrete", N_max, delta_target, exhausted)
        for Ts in chunks)


def _certificate(outcome) -> ObservabilityCertificate:
    """The certificate of a search outcome; a SearchExhausted or NumericOverflowError is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def decide_dc(sys: ContinuousSystem | SpectralSystem, T: float, N_max: int = 16,
              delta_target: float = 0.9) -> ObservabilityCertificate:
    """Search horizons N = 1..N_max for a feasible (N, C) at the target delta.

    Returns the first feasible certificate (smallest N, then the exact smallest
    C, checked on discrete_gramian(sys, T, N)).  If every horizon is
    blocked by a norm-preserving kernel (transition norm on ker G within
    KERNEL_ONE_TOL of 1), returns an infeasible certificate: growing N or C
    provably cannot help at the searched horizons.  Otherwise a fruitless
    search raises SearchExhausted, which does not claim anything beyond the
    horizon, and a period with no finite first horizon NumericOverflowError.
    The one-period slice of sweep_dc.
    """
    [outcome] = sweep_dc(sys, [T], N_max, delta_target)
    return _certificate(outcome)


def decide_cc(sys: ContinuousSystem | SpectralSystem, T: float, N_max: int = 16,
              delta_target: float = 0.9) -> ObservabilityCertificate:
    """Continuous-mode analogue of decide_dc over horizons T_h = k T, k <= N_max.

    Every horizon is decided on continuous_gramian(sys, k T), as
    _continuous_horizons builds it, by the search of sweep_dc over one period.
    """
    _check_search(N_max, delta_target)
    [outcome] = _search(
        _continuous_horizons(sys, T), np.array([T], dtype=float), "continuous", N_max,
        delta_target, f"no feasible horizon k*T with k <= {N_max} at delta = {delta_target}")
    return _certificate(outcome)


def pathological_periods(A: np.ndarray, T_max: float) -> list[float]:
    """Sampling periods 2 k pi / |Im(lam_i - lam_j)| up to T_max.

    Eigenvalue pairs qualify when their real parts agree within
    1e-9 * (1 + |lam|) and their imaginary parts differ.  Sorted, deduplicated.
    """
    if not 0 < T_max < math.inf:
        raise ValueError("T_max must be finite and > 0")
    lam = np.linalg.eigvals(np.asarray(A, dtype=complex))
    i, j = np.triu_indices(lam.size, 1)
    scale = 1.0 + np.maximum(np.abs(lam[i]), np.abs(lam[j]))
    gap = np.abs(lam[i].imag - lam[j].imag)
    base = 2.0 * np.pi / gap[(np.abs(lam[i].real - lam[j].real) <= 1e-9 * scale)
                             & (gap > 1e-9 * scale)]
    # The multiples k base <= limit, compared as the float products k * base:
    # k = 1 .. floor(limit / base) + 1 includes every k that passes.
    limit = T_max * (1 + 1e-12)
    counts = np.floor(limit / base) + 1
    if counts.sum() > _MAX_PATHOLOGICAL_PERIODS:  # inf past the float range
        raise ValueError(f"{counts.sum():.3g} candidate periods up to T_max, over the ceiling")
    counts = counts.astype(int)
    k = np.arange(1, counts.sum() + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    periods = k * np.repeat(base, counts)
    out: list[float] = []
    for p in np.sort(periods[periods <= limit]).tolist():
        if not out or p - out[-1] > 1e-9 * (1.0 + p):
            out.append(p)
    return out


def brute_force_max_violation(sys: ContinuousSystem | SpectralSystem, g: GramianBundle,
                              C: float, delta: float, seed: int) -> tuple[float, float]:
    """(margin, tolerance): g's inequality re-decided on a dense system built apart from g.

    g is a discrete bundle of sys.  The margin is check_inequality's on the
    discrete_gramian of a system with the same margin, so the check samples,
    walks and decomposes matrices the search never formed.  Dense:
    ContinuousSystem(Q* A Q, Q* B), Q the unitary factor of the QR of an
    n x n complex Gaussian drawn from seed; the inequality is invariant under
    a unitary change of basis.  1-D: a diagonal system's margin is decided at
    its largest w = |R|^2 - C G, so the dense ContinuousSystem of the
    min(_BINDING_MODES, n) modes of largest w (ties by index) has the
    per-mode margin.  The two margins differ by rounding, which the tolerance
    max(1e-8, 64 eps (C ||G||_2 + ||R||_2^2)) bounds; ||R||_F^2 stands in for
    a dense ||R||_2^2.
    """
    if g.G.ndim == 1:
        RR = np.abs(g.R) ** 2
        w = RR - C * g.G
        k = min(_BINDING_MODES, w.size)
        modes = np.flatnonzero(w >= np.partition(w, w.size - k)[w.size - k])
        modes = modes[np.argsort(-w[modes], kind="stable")[:k]]
        dense = ContinuousSystem(np.diag(sys.symbol_values[modes]),
                                 np.diag(sys.control_mask[modes]))
        R2 = RR.max()
    else:
        n = g.R.shape[0]
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        dense = ContinuousSystem(Q.conj().T @ sys.A @ Q, Q.conj().T @ sys.B)
        R2 = np.linalg.norm(g.R) ** 2
    margin = check_inequality(discrete_gramian(dense, g.T, int(g.horizon)), C, delta).margin
    return margin, max(1e-8, 64.0 * np.finfo(float).eps * float(C * g.eigenvalues.max() + R2))
