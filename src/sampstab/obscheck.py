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
continuous search takes every horizon k T from one generator, whose first
horizon is continuous_gramian; a dense horizon 2k T, k a power of two,
continues the doubling of k T by one step where a fresh build makes that
doubling last, so it builds no block exponential and its Gramian is the same
bits.  The kernel of G supplies a structural obstruction: on ker G the
inequality collapses to ||R* phi||^2 <= delta ||phi||^2, so if the transition
preserves norm on the kernel no constant C can help at that horizon.

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
                     _quiet_expm, sample, sample_periods, semigroup)

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
# Re-checks of a closed-form constant, each nudging C up by 4**k relative ulps.
_NUDGES = 26
# Entries per stacked array in one chunk of a sweep (4 MiB of complex128):
# a period takes (n + m)^2 of them for a dense system, n for a spectral one.
_CHUNK_CELLS = 1 << 18


def _set(obj, **fields) -> None:
    """Set fields of a frozen dataclass instance."""
    vars(obj).update(fields)


def _kernel_mask(w: np.ndarray) -> np.ndarray:
    """True at the eigenvalues that span ker G, along the last axis of w."""
    return w <= RANK_RTOL * np.maximum(w.max(axis=-1, keepdims=True), 0.0)


def _decompose(G: np.ndarray, per_mode: bool):
    """(G, w, V, ok) of a stack of Gramians, each as GramianBundle takes one.

    A dense G is hermitized and decomposed, G = V diag(w) V*, by one stacked
    eigh over the periods whose G is finite; a per-mode G is its own spectrum
    and V is None.  ok is False where G has non-finite entries or a
    significantly negative eigenvalue.
    """
    finite = np.isfinite(G).all(axis=tuple(range(1, G.ndim)))
    if per_mode:
        G = np.asarray(G, dtype=float)
        w, V = G, None
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # rows that are not finite
            G = _hermitize(np.asarray(G, dtype=complex))
        if finite.all():
            w, V = np.linalg.eigh(G)
        else:
            w = np.full(G.shape[:-1], np.nan)
            V = np.full(G.shape, np.nan, dtype=complex)
            w[finite], V[finite] = np.linalg.eigh(G[finite])
    ok = finite & ~(w.min(axis=-1) < -1e-12 * np.maximum(np.abs(w).max(axis=-1), 1.0))
    return G, w, V, ok


def _decompose_one(G: np.ndarray, per_mode: bool, mode: str):
    """_decompose's (G, w, V) of one Gramian G; NumericOverflowError where ok is False."""
    if not np.isfinite(G).all():
        raise NumericOverflowError(f"{mode} Gramian has non-finite entries")
    G, w, V, ok = _decompose(G[None], per_mode)
    if not ok[0]:
        raise NumericOverflowError("Gramian has a significantly negative eigenvalue")
    return G, w, V


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
        per_mode = np.ndim(self.G) == 1
        if per_mode and np.shape(self.R) != np.shape(self.G):
            raise ValueError("a 1-D Gramian needs a 1-D transition of the same length")
        G, w, V = _decompose_one(np.asarray(self.G), per_mode, self.mode)
        _set(self, R=np.asarray(self.R, dtype=complex), G=G[0], eigenvalues=w[0],
             eigenvectors=None if V is None else V[0])

    @property
    def kernel_mask(self) -> np.ndarray:
        """True at the eigenvalues that span ker G."""
        return _kernel_mask(self.eigenvalues)

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

    A spectral system gives a 1-D bundle (per-mode diagonals).
    """
    _check_count(N, "N")
    pair = sample(sys, T)
    R, G = next(islice(_walk(pair.Phi[None], pair.D[None]), N - 1, None))
    return GramianBundle(R[0], G[0], "discrete", T, float(N))


def continuous_gramian(sys: ContinuousSystem | SpectralSystem, T_h: float) -> GramianBundle:
    """G = int_0^{T_h} exp(At) B B* exp(At)* dt and R = exp(A T_h).

    Dense G by scaling and squaring: the block exponential
    exp([[-A, B B*], [0, A*]] h) gives G(h) at h = T_h / 2^s, ||A||_1 h <= 1
    (Van Loan, IEEE TAC 23, 1978); s doublings G(2t) = G(t) + E G(t) E*,
    E = exp(At) <- E^2, reach T_h without the exp(-A T_h) that loses digits
    or overflows on long or stiff horizons.  Spectral G is the 1-D per-mode
    b^2 phi1(2 Re lambda, T_h).  R is semigroup(sys, T_h), 1-D for a spectral
    system.  A non-finite G or R raises NumericOverflowError.  The first
    horizon of _continuous_horizons(sys, T_h).
    """
    _, s = next(_continuous_horizons(sys, T_h))
    return s.bundles(np.zeros(1, dtype=int))[0]


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
    if (dims == dims[0]).all():
        yield int(dims[0]), slice(None)
        return
    for d in np.unique(dims):
        yield int(d), np.flatnonzero(dims == d)


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
    """max(2 C_t - 1 / lambda_max(N^-1 B), 0) per period, from scipy's generalized eigh.

    If LAPACK refuses a period's pencil as not numerically definite, that
    period keeps its bound C_t, which the search re-checks.
    """
    from scipy.linalg import eigh  # a non-trivial dense kernel only: slow to import
    P, n = M.shape[:2]
    diag = np.arange(n)
    B = np.zeros((P, n, n))
    B[:, diag, diag] = np.concatenate([np.maximum(w_k, 0.0), np.ones((P, n - w_k.shape[1]))],
                                      axis=1)
    N = (2.0 * C_t)[:, None, None] * B - M
    solved = np.ones(P, dtype=bool)
    try:
        mu = eigh(B, N, eigvals_only=True)[:, -1]
    except np.linalg.LinAlgError:  # retry one period at a time
        mu = np.ones(P)
        for j in range(P):
            try:
                mu[j] = eigh(B[j], N[j], eigvals_only=True)[-1]
            except np.linalg.LinAlgError:
                solved[j] = False
    C = 2.0 * C_t - 1.0 / mu
    return np.where(solved, np.where(C < 0.0, 0.0, C), C_t)


def _lower(best: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """best[rows] = min(best[rows], values), keeping best where values is NaN."""
    best[rows] = np.where(values < best[rows], values, best[rows])


def _constants(s: _Stack, c: np.ndarray, mask: np.ndarray, delta: float):
    """The smallest constants of the periods c of s, each nudged until its margin passes.

    Returns (passed, C, margin) for the periods whose margin passes within
    _NUDGES re-checks, and (failed, margin) for the others: the margin at
    the ceiling where C exceeds it, else at the last re-check.
    """
    C = _min_constants(s.take(c), mask[c], delta)
    over = ~(C <= _C_CEILING)
    failed = [c[over]]
    failed_margins = ([s.take(c[over]).margins(np.full(over.sum(), _C_CEILING), delta)]
                      if over.any() else [])
    j, C = c[~over], C[~over]
    passed, passed_C, passed_margins = [], [], []
    for i in range(_NUDGES):
        margin = s.take(j).margins(C, delta)
        ok = margin <= PSD_TOL
        passed.append(j[ok])
        passed_C.append(C[ok])
        passed_margins.append(margin[ok])
        j, C, margin = j[~ok], C[~ok], margin[~ok]
        if not j.size:
            break
        C = C * (1.0 + np.finfo(float).eps * 4.0 ** i)
    else:
        failed.append(j)
        failed_margins.append(margin)
    return (np.concatenate(passed), np.concatenate(passed_C), np.concatenate(passed_margins),
            np.concatenate(failed), np.concatenate(failed_margins or [np.zeros(0)]))


def _search(horizons, P: int, N_max: int, delta: float, exhausted: str,
            best_horizon) -> list:
    """Decide P periods on the stacked bundles of horizons k = 1..N_max; one outcome per period.

    horizons yields (ok, stack) per horizon over the periods still undecided,
    and is sent the indices of those to keep.  A period's outcome is its
    first feasible certificate: C computed on, and nudged until its margin
    passes on, the bundle of that horizon, which the certificate carries.  An
    infeasible certificate stands when every horizon carried a
    norm-preserving kernel (a structural proof that no (C, delta<1) works at
    the searched horizons); else the outcome is SearchExhausted(exhausted).
    From k = 2 on, a period stops before the first horizon whose bundle failed
    (ok False) or whose squared transition overflows, and is decided on the
    horizons before it: an infeasible certificate then stands at the last
    finite one.  At k = 1 the source raises the first period's failure itself.
    """
    best = np.full(P, np.inf)
    worst, worst_dim = np.zeros(P), np.zeros(P, dtype=int)
    blocked_all, seen = np.ones(P, dtype=bool), np.zeros(P, dtype=bool)
    last_T, last_h = np.zeros(P), np.zeros(P)
    found, mode = {}, None
    rows, keep = np.arange(P), None
    for _ in range(N_max):
        ok, s = horizons.send(keep)
        acc = np.flatnonzero((ok & s.finite_transition()) if s is not None else ok)
        if not acc.size:
            break
        s = s.take(acc)
        r, mode = rows[acc], s.mode
        seen[r], last_T[r], last_h[r] = True, s.T, s.horizon
        mask = _kernel_mask(s.w)
        dims = mask.sum(axis=-1)
        kn = _kernel_norms(s, mask)
        up = kn > worst[r]
        worst[r[up]], worst_dim[r[up]] = kn[up], dims[up]
        blocked = kn >= 1.0 - KERNEL_ONE_TOL
        blocked_all[r[~blocked]] = False
        if blocked.any():
            # No C can rescue a blocked horizon; record a margin data point.
            b = np.flatnonzero(blocked)
            _lower(best, r[b], s.take(b).margins(np.ones(b.size), delta))
        slack = ~blocked & (kn >= delta)
        if slack.any():
            # Kernel slack already reaches the requested delta: C-search futile
            # here, but a larger delta < 1 might work, so this is not proof.
            _lower(best, r[slack], kn[slack] - delta)
        c = np.flatnonzero(~blocked & (kn < delta))
        if c.size:
            passed, C, margin, failed, failed_margin = _constants(s, c, mask, delta)
            _lower(best, r[failed], failed_margin)
            for j, Cj, mj, g in zip(passed.tolist(), C.tolist(), margin.tolist(),
                                    s.bundles(passed)):
                found[int(r[j])] = ObservabilityCertificate(
                    mode=g.mode, T=g.T, N=g.horizon, C=Cj, delta=float(delta), margin=mj,
                    feasible=True, kernel_dim=int(dims[j]), kernel_norm=float(kn[j]), bundle=g)
            keep = np.delete(acc, passed)
        else:
            keep = acc
        rows = rows[keep]
        del s  # before the next horizon is built
        if not rows.size:
            break
    return [found[p] if p in found
            else ObservabilityCertificate(
                mode=mode, T=float(last_T[p]), N=float(last_h[p]), C=0.0, delta=delta,
                margin=float(best[p]), feasible=False, kernel_dim=int(worst_dim[p]),
                kernel_norm=float(worst[p]))
            if blocked_all[p] and seen[p]
            else SearchExhausted(exhausted, best_margin=float(best[p]), best_horizon=best_horizon)
            for p in range(P)]


def _check_search(N_max: int, delta_target: float) -> None:
    _check_count(N_max, "N_max")
    if not (0 < delta_target < 1):
        raise ValueError("delta_target must lie in (0, 1)")


def _discrete_horizons(sys: ContinuousSystem | SpectralSystem, periods: np.ndarray):
    """Stacked discrete bundles of horizons k T, k = 1, 2, ..., over periods, for _search.

    At k = 1 a period whose sampled pair or first bundle fails raises its own
    error, as discrete_gramian(sys, T, 1) does; the earliest such period's.
    """
    Phi, D = sample_periods(sys, periods)
    per_mode = Phi.ndim == 2
    axes = tuple(range(1, Phi.ndim))
    sampled = np.isfinite(Phi).all(axis=axes) & np.isfinite(D).all(axis=axes)
    walk = _walk(Phi, D)
    R, G = next(walk)
    T = periods
    for k in count(1):
        G, w, V, ok = _decompose(G, per_mode)
        if k == 1 and not (ok & sampled).all():
            first = float(T[np.argmin(ok & sampled)])
            discrete_gramian(sys, first, 1)  # raises that period's NumericOverflowError
            raise AssertionError(f"stacked and one-period bundles disagree at T = {first!r}")
        keep = yield ok, _Stack("discrete", T, np.full(T.size, float(k)), R, G, w, V)
        if keep is not None:
            T = T[keep]
        R, G = walk.send(keep)


def _continuous_horizons(sys: ContinuousSystem | SpectralSystem, T: float):
    """Continuous bundles of horizons k T, k = 1, 2, ..., as one-period stacks for _search.

    Each is built as continuous_gramian says, but a dense horizon 2k T, k a
    power of two, continues the raw (G, E) of k T by one doubling when
    ||A||_1 k T >= 1/2: a fresh build then makes s + 1 doublings from the same
    step h, so the bits agree.  An overflow raises at k = 1, later it stops.
    """
    spectral = isinstance(sys, SpectralSystem)
    pair = None  # the raw (G, E) of the last power-of-two horizon, if one doubling continues it
    for k in count(1):
        T_h, power = k * T, k & (k - 1) == 0
        if not (math.isfinite(T_h) and T_h > 0):
            raise ValueError("T_h must be finite and > 0")
        try:
            R = semigroup(sys, T_h)
            with np.errstate(over="ignore", invalid="ignore"):
                if spectral:
                    G = sys.control_mask ** 2 * _phi1(2.0 * sys.symbol_values.real, T_h).real
                else:
                    A, B, n = sys.A, sys.B, sys.state_dim
                    x = np.linalg.norm(A, 1) * T_h
                    s = max(math.frexp(x)[1], 0)
                    if power and pair is not None:
                        (G, E), steps = pair, 1
                    else:  # G holds [[., G(h)], [0, E*]] until G(h) replaces it
                        G = _quiet_expm(math.ldexp(T_h, -s) * np.block(
                            [[-A, B @ B.conj().T], [np.zeros_like(A), A.conj().T]]))
                        E = G[n:, n:].conj().T
                        G, steps = E @ G[:n, n:], s
                    for _ in range(steps):
                        G, E = G + E @ G @ E.conj().T, E @ E
                    if power:
                        pair = (G, E) if max(math.frexp(2.0 * x)[1], 0) == s + 1 else None
            G, w, V = _decompose_one(G, spectral, "continuous")
        except NumericOverflowError:
            if k == 1:
                raise
            yield np.zeros(1, dtype=bool), None
            return
        yield np.ones(1, dtype=bool), _Stack("continuous", np.array([T_h]), np.array([T_h]),
                                             R[None], G, w, V)


def sweep_dc(sys: ContinuousSystem | SpectralSystem, periods, N_max: int = 16,
             delta_target: float = 0.9):
    """decide_dc at every period of a 1-D grid: an iterator over the outcomes, in grid order.

    Each outcome is the certificate decide_dc(sys, T, N_max, delta_target)
    returns, or the SearchExhausted it raises.  The grid is decided chunk by
    chunk, each chunk of at most _CHUNK_CELLS entries per stacked array by one
    stacked search, so a certificate's bundle (its period's slice) lives only
    as long as the caller keeps it.  A period whose first horizon overflows
    raises its NumericOverflowError, as decide_dc does, and ends the iteration.
    """
    _check_search(N_max, delta_target)
    periods = np.asarray(periods, dtype=float)
    if periods.ndim != 1:
        raise ValueError("periods must be a 1-D grid")
    n = sys.state_dim
    cells = n if isinstance(sys, SpectralSystem) else (n + sys.input_dim) ** 2
    step = max(1, _CHUNK_CELLS // cells)
    chunks = (periods[lo:lo + step] for lo in range(0, periods.size, step))
    exhausted = (f"no feasible (N, C) with N <= {N_max} at delta = {delta_target}; "
                 "infeasibility not proven")
    return chain.from_iterable(
        _search(_discrete_horizons(sys, Ts), Ts.size, N_max, delta_target, exhausted, N_max)
        for Ts in chunks)


def _certificate(outcome) -> ObservabilityCertificate:
    """The certificate of a search outcome; a SearchExhausted is raised."""
    if isinstance(outcome, SearchExhausted):
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
    horizon.  The one-period slice of sweep_dc.
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
        _continuous_horizons(sys, T), 1, N_max, delta_target,
        f"no feasible horizon k*T with k <= {N_max} at delta = {delta_target}", N_max * T)
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
    counts = np.floor(limit / base).astype(int) + 1
    k = np.arange(1, counts.sum() + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    periods = k * np.repeat(base, counts)
    out: list[float] = []
    for p in np.sort(periods[periods <= limit]).tolist():
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
    _check_count(n_samples, "n_samples")
    cells = float(n_samples) * (1 if per_mode else n)  # inf past the float range
    if cells > _MAX_DRAW_CELLS:
        raise ValueError(f"brute force needs {cells:.3g} cells, over the ceiling of "
                         f"{_MAX_DRAW_CELLS:.0e}; lower --brute-samples")


def brute_force_max_violation(g: GramianBundle, C: float, delta: float,
                              n_samples: int, seed: int) -> float:
    """Max over random unit phi of ||R* phi||^2 - C phi*G phi - delta.

    Random sampling can only under-detect violations; it never exceeds the
    eigenvalue margin (up to roundoff).  A dense bundle's states are the
    columns of an n x n_samples complex Gaussian draw, real parts first, then
    imaginary parts.  A 1-D bundle needs only |phi_i|^2 per mode: the value is
    sum_i w_i |phi_i|^2 / ||phi||^2 - delta with w = |R|^2 - C G, and
    |phi_i|^2 of a standard complex Gaussian is 2 Exp(1), a factor the ratio
    does not see.  So one standard exponential per mode and sample is drawn,
    in row chunks of about 1 MiB, each accumulated into both sums by one
    [w; 1] @ e product: the statistic has the Gaussian draw's distribution,
    and memory stays O(n_samples) however many modes there are.
    """
    n = g.R.shape[0]
    check_draw(n_samples, n, g.G.ndim == 1)
    rng = np.random.default_rng(seed)
    if g.G.ndim == 1:
        W = np.stack([np.abs(g.R) ** 2 - C * g.G, np.ones(n)])
        rows = max(1, _DRAW_CELLS // n_samples)
        sums = np.zeros((2, n_samples))
        for lo in range(0, n, rows):
            sums += W[:, lo:lo + rows] @ rng.standard_exponential((min(rows, n - lo), n_samples))
        return float((sums[0] / sums[1]).max() - delta)
    phis = rng.standard_normal((n, n_samples)) + 1j * rng.standard_normal((n, n_samples))
    phis /= np.linalg.norm(phis, axis=0)
    v = g.R.conj().T @ phis
    vals = (np.real(np.einsum("ij,ij->j", v.conj(), v))
            - C * np.real(np.einsum("ij,ij->j", phis.conj(), g.G @ phis)) - delta)
    return float(vals.max())
