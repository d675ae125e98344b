"""Continuous-time linear systems, their flows, and one-period sampled operators.

Systems come in two representations: a dense pair (A, B) driving y' = Ay + Bu,
and a diagonal spectral form given by a mode grid, a symbol xi -> lambda(xi),
and a diagonal control mask.  Both are validated once, at construction: every
entry, mode, mask weight and symbol value must be finite.  The flow exp(At) is
evaluated by scipy's Pade scaling-and-squaring matrix exponential.  The
one-period sampled pair comes from one block exponential,
exp([[A, B], [0, 0]] T) = [[Phi, D], [0, I]] (Van Loan, IEEE TAC 23, 1978),
so no quadrature tolerance enters it.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .errors import NumericOverflowError
from .serialize import matrix_from_json, matrix_to_json, reals_from_json

__all__ = [
    "ContinuousSystem",
    "SpectralSystem",
    "SampledSystem",
    "semigroup",
    "sample",
    "to_dense",
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


@dataclass(frozen=True, eq=False)
class SampledSystem:
    """One-period transition Phi = exp(AT) and input map D = (int_0^T exp(As) ds) B."""

    Phi: np.ndarray
    D: np.ndarray
    T: float

    def __post_init__(self):
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
        return self.D.shape[1]


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


def to_dense(sys: SpectralSystem) -> ContinuousSystem:
    """Materialize a spectral system as diagonal (A, B) matrices."""
    return ContinuousSystem(np.diag(sys.symbol_values),
                            np.diag(sys.control_mask.astype(complex)))


def _check_finite(m: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise NumericOverflowError(f"{what} produced non-finite entries")
    return m


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _quiet_expm(M: np.ndarray) -> np.ndarray:
    """expm with overflow surfaced as NumericOverflowError, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return expm(M)


def _phi1(lam: np.ndarray, t: float) -> np.ndarray:
    """Elementwise int_0^t exp(lam s) ds = (exp(lam t) - 1) / lam, with lam=0 -> t.

    A subnormal lam also gives t: complex division by it overflows.
    """
    lam = np.asarray(lam, dtype=complex)
    out = np.full(lam.shape, complex(t))
    nz = np.abs(lam) >= np.finfo(float).tiny
    out[nz] = np.expm1(lam[nz] * t) / lam[nz]
    return out


def semigroup(sys: ContinuousSystem | SpectralSystem, t: float) -> np.ndarray:
    """Flow operator exp(At), t >= 0; diagonal exp(lambda t) for spectral systems."""
    if t < 0:
        raise ValueError("negative time is not defined for the semigroup")
    if isinstance(sys, SpectralSystem):
        with np.errstate(over="ignore", invalid="ignore"):
            return _check_finite(np.diag(np.exp(sys.symbol_values * t)), "semigroup")
    if t == 0:
        return np.eye(sys.state_dim, dtype=complex)
    return _check_finite(_quiet_expm(sys.A * t), "semigroup")


def sample(sys: ContinuousSystem | SpectralSystem, T: float) -> SampledSystem:
    """Sampled pair over one period: Phi = exp(AT), D = (int_0^T exp(As) ds) B.

    Dense systems read both from the top block row of one exponential,
    exp([[A, B], [0, 0]] T) = [[Phi, D], [0, I]].
    """
    if not T > 0:
        raise ValueError("sampling period T must be > 0")
    if isinstance(sys, SpectralSystem):
        with np.errstate(over="ignore", invalid="ignore"):
            D = _check_finite(np.diag(_phi1(sys.symbol_values, T) * sys.control_mask),
                              "sampled pair")
        return SampledSystem(semigroup(sys, T), D, T)
    n, m = sys.state_dim, sys.input_dim
    aug = np.zeros((n + m, n + m), dtype=complex)
    aug[:n, :n] = sys.A
    aug[:n, n:] = sys.B
    top = _check_finite(_quiet_expm(aug * T)[:n], "sampled pair")
    return SampledSystem(top[:, :n], top[:, n:], T)




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
        out["modes"] = [float(x) for x in sys.modes]
        out["mask"] = [float(x) for x in sys.control_mask]
        return out
    return {"A": matrix_to_json(sys.A), "B": matrix_to_json(sys.B)}


def load_system(path) -> ContinuousSystem | SpectralSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_json(json.load(fh))

