"""Continuous-time linear systems, their flows, and one-period sampled operators.

Systems come in two representations: a dense pair (A, B) driving y' = Ay + Bu,
and a diagonal spectral form given by a mode grid, a symbol xi -> lambda(xi),
and a diagonal control mask.  Both are validated once, at construction: every
entry, mode, mask weight and symbol value must be finite.  The flow exp(At) is
evaluated by expm, a degree-13 Pade scaling-and-squaring matrix exponential
that acts on one matrix or on a stack of them.  The one-period sampled pair
is the top block row of exp([[A, B], [0, 0]] T) = [[Phi, D], [0, I]] (Van
Loan, IEEE TAC 23, 1978), so no quadrature tolerance enters it; _expm_phi1
forms it from blocks of order n, and expm is its case with no input columns.
sample_periods stacks the pairs of many periods on a leading period axis;
sample is its one-period slice.  The continuous Gramian's first step needs
two blocks of exp([[-A, B B*], [0, A*]] h); _van_loan forms them from the
same Pade polynomials in Ah of order n (_pade13).
"""

from __future__ import annotations

import json
import math
import sys as _sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericOverflowError
from .serialize import matrix_from_json, matrix_to_json, reals_from_json

__all__ = [
    "ContinuousSystem",
    "SpectralSystem",
    "SampledSystem",
    "expm",
    "semigroup",
    "sample",
    "sample_periods",
    "frac_heat_symbol",
    "schrodinger_symbol",
    "system_from_json",
    "system_to_json",
    "load_system",
]


def _as_complex_matrix(m, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(m, dtype=complex))
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class ContinuousSystem:
    """Dense generator/input pair for y' = Ay + Bu."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = _as_complex_matrix(self.A, "A")
        B = _as_complex_matrix(self.B, "B")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B has {B.shape[0]} rows, expected {A.shape[0]}")
        if A.shape[0] < 1 or B.shape[1] < 1:
            raise ValueError("state and input dimensions must be >= 1")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class SpectralSystem:
    """Diagonal system on a frequency grid: generator entries lambda(xi_k).

    The control mask is a diagonal 0/1 (or weighted) input pattern; a mask of
    ones is the identity input operator.  Any unit-modulus scalar factor on the
    input operator is absorbed into the mask, since it changes no norm used by
    the Gramian or inequality machinery.
    """

    modes: np.ndarray
    symbol: Callable[[np.ndarray], np.ndarray]
    control_mask: np.ndarray
    symbol_spec: dict | None = None
    symbol_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        modes = np.asarray(self.modes, dtype=float).ravel()
        mask = np.asarray(self.control_mask, dtype=float).ravel()
        if modes.size < 1:
            raise ValueError("at least one mode required")
        if not np.isfinite(modes).all():
            raise ValueError("modes must be finite")
        if np.unique(modes).size != modes.size:
            raise ValueError("modes must be pairwise distinct")
        if mask.size != modes.size:
            raise ValueError("control_mask must have one entry per mode")
        if not np.all((mask >= 0) & (mask <= 1)):
            raise ValueError("control_mask entries must lie in [0, 1]")
        with np.errstate(over="ignore", invalid="ignore"):
            lam = np.asarray(self.symbol(modes), dtype=complex).ravel()
        if lam.size != modes.size:
            raise ValueError("symbol must map the mode grid elementwise")
        if not np.isfinite(lam).all():
            raise ValueError("symbol values must be finite on the mode grid")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "control_mask", mask)
        object.__setattr__(self, "symbol_values", lam)

    @property
    def state_dim(self) -> int:
        return self.modes.size

    @property
    def input_dim(self) -> int:
        return self.modes.size


@dataclass(frozen=True, eq=False)
class SampledSystem:
    """One-period transition Phi = exp(AT) and input map D = (int_0^T exp(As) ds) B.

    A diagonal pair, as sampled from a spectral system, is held as two 1-D
    arrays of per-mode entries.
    """

    Phi: np.ndarray
    D: np.ndarray
    T: float

    def __post_init__(self):
        if np.ndim(self.Phi) == 1:
            Phi = np.asarray(self.Phi, dtype=complex)
            D = np.asarray(self.D, dtype=complex)
            if D.shape != Phi.shape:
                raise ValueError("a diagonal Phi needs a diagonal D of the same length")
            if not (np.isfinite(Phi).all() and np.isfinite(D).all()):
                raise ValueError("Phi and D must have finite entries")
        else:
            Phi = _as_complex_matrix(self.Phi, "Phi")
            D = _as_complex_matrix(self.D, "D")
            if Phi.shape[0] != Phi.shape[1]:
                raise ValueError("Phi must be square")
            if D.shape[0] != Phi.shape[0]:
                raise ValueError("D row count must match Phi")
        if not self.T > 0:
            raise ValueError("sampling period T must be > 0")
        object.__setattr__(self, "Phi", Phi)
        object.__setattr__(self, "D", D)

    @property
    def state_dim(self) -> int:
        return self.Phi.shape[0]

    @property
    def input_dim(self) -> int:
        return self.D.shape[-1]


def frac_heat_symbol(s: float, c: float) -> Callable[[np.ndarray], np.ndarray]:
    """Fourier symbol of the shifted fractional diffusion generator: c - |xi|^s, s > 1, c >= 0."""
    if not s > 1:
        raise ValueError("exponent s must be > 1")
    if not c >= 0:
        raise ValueError("shift c must be >= 0")

    def lam(xi):
        return c - np.abs(np.asarray(xi, dtype=float)) ** s + 0j

    return lam


def schrodinger_symbol() -> Callable[[np.ndarray], np.ndarray]:
    """Free-particle dispersion multiplier: lambda(xi) = i xi^2 (unitary flow)."""

    def lam(xi):
        return 1j * np.asarray(xi, dtype=float) ** 2

    return lam


def _check_count(value, name: str) -> None:
    """Refuse a count below 1, or past the float range that arithmetic on it converts to."""
    if not 1 <= value <= _sys.float_info.max:
        raise ValueError(f"{name} must lie in [1, {_sys.float_info.max:.2g}]")


def _check_finite(m: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise NumericOverflowError(f"{what} produced non-finite entries")
    return m


def _hermitize(m: np.ndarray) -> np.ndarray:
    """(m + m*) / 2 of a matrix, or of each matrix of a stack."""
    return 0.5 * (m + m.conj().mT)


# Coefficients C(13, k) / P(26, k) of the degree-13 Pade approximant to exp, and the largest
# 1-norm it serves in double precision (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).
_PADE13 = [math.comb(13, k) / math.perm(26, k) for k in range(14)]
_THETA13 = 5.371920351148152


def _pade13(X: np.ndarray):
    """Degree-13 Pade pieces of X: (X^2, X^4, X^6), inner parts (pu, pv), w, U = X w, V."""
    b, I = _PADE13, np.eye(X.shape[-1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    pu = b[13] * X6 + b[11] * X4 + b[9] * X2
    pv = b[12] * X6 + b[10] * X4 + b[8] * X2
    w = X6 @ pu + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * I
    v = X6 @ pv + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * I
    return (X2, X4, X6), (pu, pv), w, X @ w, v


def _expm_phi1(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(X), phi1(X) Y), phi1(X) = int_0^1 exp(Xt) dt, of stacks (P, n, n) X, (P, n, m) Y.

    The top block row of exp([[X, Y], [0, 0]]) (Van Loan, IEEE TAC 23, 1978)
    from order-n blocks: the block is linear in Y, so ||X||_1 alone sets the
    scaling 2^-s (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 30(4), 2009),
    the Pade approximant is [[(v - u)^-1 (v + u), 2 (v - u)^-1 w Y], [0, I]]
    and a squaring maps (E, D) to (E^2, E D + D).  An upper triangular X gets
    each stage's diagonal exact (ibid. 31(3), 2009).  Members go in order of
    decreasing s, so a squaring acts on a prefix, and each gets the bits of its
    own call.  A non-finite 1-norm of X, or overflow, gives non-finite entries.
    """
    n = X.shape[-1]
    with np.errstate(all="ignore"):
        norm = np.abs(X).sum(axis=1).max(axis=1)
        bad = ~np.isfinite(norm)
        s = np.where(bad, 0.0, np.maximum(np.ceil(np.log2(norm / _THETA13)), 0.0)).astype(int)
        order = None if (s[:-1] >= s[1:]).all() else np.argsort(-s, kind="stable")
        if order is not None:
            s, bad, X, Y = s[order], bad[order], X[order], Y[order]
        lam, tri = np.diagonal(X, 0, 1, 2), ~np.tril(X, -1).any(axis=(1, 2))
        X = np.where(bad[:, None, None], 0.0, X)
        X, Y = X * np.exp2(-s)[:, None, None], Y * np.exp2(-s)[:, None, None]
        w, u, v = _pade13(X)[2:]
        ED = np.linalg.solve(v - u, np.concatenate([v + u, 2.0 * (w @ Y)], axis=-1))
        E, D, diag = ED[..., :n], ED[..., n:], np.arange(n)
        for k in range(s[0] + 1 if s.size else 0):
            j = np.count_nonzero(s >= k)
            if k:
                E[:j], D[:j] = E[:j] @ E[:j], E[:j] @ D[:j] + D[:j]
            fix = np.flatnonzero(tri[:j])
            if fix.size:
                E[fix[:, None], diag, diag] = np.exp(lam[fix] * np.exp2(k - s[fix])[:, None])
    ED[bad] = np.nan
    if order is not None:
        ED[order] = ED.copy()
    return np.ascontiguousarray(ED[..., :n]), np.ascontiguousarray(ED[..., n:])


def expm(M) -> np.ndarray:
    """exp(M) of a square matrix, or of each matrix of a stack on leading axes:
    _expm_phi1 with no input columns, degree-13 Pade scaling and squaring."""
    M = np.asarray(M, dtype=complex)
    X = M.reshape(-1, M.shape[-1], M.shape[-1])
    return _expm_phi1(X, np.zeros(X.shape[:-1] + (0,), dtype=complex))[0].reshape(M.shape)


def _van_loan(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E, F): E = exp(X), F the top-right block of exp([[-X, Y], [0, X*]]), all n x n.

    The block's degree-13 Pade approximant, evaluated block by block without
    squaring; F is linear in Y, so only max(||X||_1, ||X||_inf) must lie
    within theta_13.  Each power of the block is [[(-X)^k, Y_k], [0, (X^k)*]],
    so U and V have diagonal blocks -u, u* and v, v* for the _pade13
    polynomials of X, and E is expm(X) bit for bit.  An off-diagonal block of
    a product costs two order-n products, and (v - u) E = v + u, then
    (v + u) F = (V + U)_12 - (V - U)_12 E*.  A non-finite X or Y gives NaNs.
    """
    n = X.shape[-1]
    with np.errstate(all="ignore"):  # columns of [[-X], [0]], then of [[0], [X*]]
        norm = max(np.abs(X).sum(axis=0).max(), np.abs(X).sum(axis=1).max())
    if not (np.isfinite(norm) and np.isfinite(Y).all()):
        return np.full((n, n), np.nan, dtype=complex), np.full((n, n), np.nan, dtype=complex)
    if norm > _THETA13:
        raise ValueError(f"1-norm {norm:.3g} of X exceeds theta_13; scale the step down")
    b, H = _PADE13, lambda m: m.conj().T
    (X2, X4, X6), (pu, pv), wu, u, v = _pade13(X)
    Y2 = Y @ H(X) - X @ Y
    Y4 = X2 @ Y2 + Y2 @ H(X2)
    Y6 = X4 @ Y2 + Y4 @ H(X2)
    Yp = b[13] * Y6 + b[11] * Y4 + b[9] * Y2
    Yu = Y @ H(wu) - X @ (X6 @ Yp + Y6 @ H(pu) + b[7] * Y6 + b[5] * Y4 + b[3] * Y2)
    Yp = b[12] * Y6 + b[10] * Y4 + b[8] * Y2
    Yv = X6 @ Yp + Y6 @ H(pv) + b[6] * Y6 + b[4] * Y4 + b[2] * Y2
    E = np.linalg.solve(v - u, v + u)
    F = np.linalg.solve(v + u, Yv + Yu - (Yv - Yu) @ H(E))
    if not np.tril(X, -1).any():
        E[np.diag_indices(n)] = np.exp(np.diagonal(X))
    return E, F


def _phi1(lam: np.ndarray, t) -> np.ndarray:
    """Elementwise int_0^t exp(lam s) ds = (exp(lam t) - 1) / lam, with lam=0 -> t.

    lam and t broadcast against each other.  A subnormal lam also gives t:
    complex division by it overflows.
    """
    lam, t = np.broadcast_arrays(np.asarray(lam, dtype=complex), np.asarray(t, dtype=float))
    out = t.astype(complex)
    nz = np.abs(lam) >= np.finfo(float).tiny
    out[nz] = np.expm1(lam[nz] * t[nz]) / lam[nz]
    return out


def semigroup(sys: ContinuousSystem | SpectralSystem, t: float) -> np.ndarray:
    """Flow operator exp(At), finite t >= 0; the 1-D exp(lambda t) for spectral systems."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("semigroup time t must be finite and >= 0")
    if isinstance(sys, SpectralSystem):
        with np.errstate(over="ignore", invalid="ignore"):
            return _check_finite(np.exp(sys.symbol_values * t), "semigroup")
    return _check_finite(expm(sys.A * t), "semigroup")


def sample(sys: ContinuousSystem | SpectralSystem, T: float) -> SampledSystem:
    """Sampled pair over one finite period: Phi = exp(AT), D = (int_0^T exp(As) ds) B.

    The one-period slice of sample_periods.  Non-finite entries raise
    NumericOverflowError; a spectral system's Phi is its semigroup.
    """
    Phi, D = sample_periods(sys, [T])
    _check_finite(Phi, "semigroup" if isinstance(sys, SpectralSystem) else "sampled pair")
    return SampledSystem(Phi[0], _check_finite(D, "sampled pair")[0], T)


def sample_periods(sys: ContinuousSystem | SpectralSystem, periods) -> tuple[np.ndarray, np.ndarray]:
    """The sampled pairs (Phi, D) of a 1-D array of finite periods > 0, stacked on a leading axis.

    Dense systems take both from one stacked _expm_phi1(A T, B T): Phi =
    exp(AT) is (P, n, n), bit for bit semigroup(sys, T), and D = phi1(AT) B T
    is (P, n, m), the top block row of exp([[A, B], [0, 0]] T).  A spectral
    system gives the per-mode pairs Phi = exp(lambda T),
    D = b phi1(lambda, T), each (P, n).  Entries that overflow are returned
    non-finite, unchecked: the caller decides per period.
    """
    T = np.asarray(periods, dtype=float)
    if T.ndim != 1 or not np.all(np.isfinite(T) & (T > 0)):
        raise ValueError("sampling period T must be finite and > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(sys, SpectralSystem):
            lam = sys.symbol_values
            return np.exp(lam * T[:, None]), _phi1(lam, T[:, None]) * sys.control_mask
        return _expm_phi1(sys.A * T[:, None, None], sys.B * T[:, None, None])


# ---------------------------------------------------------------------------
# JSON system definitions
# ---------------------------------------------------------------------------

_SPECTRAL_SYMBOLS = ("frac_heat", "schrodinger")


def system_from_json(obj: dict) -> ContinuousSystem | SpectralSystem:
    """Build a system from its JSON document.

    Dense form: {"A": [[...]], "B": [[...]]}.  Spectral form:
    {"symbol": "frac_heat" | "schrodinger", "s": ..., "c": ...,
     "modes": [...], "mask": [...]}.  Complex entries are [re, im] pairs.
    """
    if not isinstance(obj, dict):
        raise ValueError("system definition must be a JSON object")
    if "symbol" in obj:
        name = obj["symbol"]
        if name not in _SPECTRAL_SYMBOLS:
            raise ValueError(f"unknown symbol {name!r}, expected one of {_SPECTRAL_SYMBOLS}")
        modes = reals_from_json(_field(obj, "modes"))
        mask = reals_from_json(obj["mask"]) if "mask" in obj else np.ones(modes.size)
        if name == "frac_heat":
            s, c = reals_from_json([_field(obj, "s"), _field(obj, "c")]).tolist()
            sym = frac_heat_symbol(s, c)
            spec = {"symbol": "frac_heat", "s": s, "c": c}
        else:
            sym = schrodinger_symbol()
            spec = {"symbol": "schrodinger"}
        return SpectralSystem(modes, sym, mask, symbol_spec=spec)
    return ContinuousSystem(matrix_from_json(_field(obj, "A")), matrix_from_json(_field(obj, "B")))


def _field(obj: dict, key: str):
    if key not in obj:
        raise ValueError(f"system definition lacks key {key!r}")
    return obj[key]


def system_to_json(sys: ContinuousSystem | SpectralSystem) -> dict:
    if isinstance(sys, SpectralSystem):
        if not sys.symbol_spec:
            raise ValueError("spectral system with anonymous symbol is not serializable")
        out = dict(sys.symbol_spec)
        out["modes"] = sys.modes.tolist()
        out["mask"] = sys.control_mask.tolist()
        return out
    return {"A": matrix_to_json(sys.A), "B": matrix_to_json(sys.B)}


def load_system(path) -> ContinuousSystem | SpectralSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_json(json.load(fh))

