"""Continuous-time linear systems, their flows, and one-period sampled operators.

Systems come in two representations: a dense pair (A, B) driving y' = Ay + Bu,
and a diagonal spectral form given by a mode grid, a symbol xi -> lambda(xi),
and a diagonal control mask.  Both are validated once, at construction: every
entry, mode, mask weight and symbol value must be finite.  The flow exp(At) is
evaluated by scipy's Pade scaling-and-squaring matrix exponential, imported
on the first dense exponential: spectral systems never load scipy.linalg.  The
one-period sampled pair comes from one block exponential,
exp([[A, B], [0, 0]] T) = [[Phi, D], [0, I]] (Van Loan, IEEE TAC 23, 1978),
so no quadrature tolerance enters it.  sample_periods stacks the pairs of many
periods on a leading period axis, from one stacked exponential; sample is its
one-period slice.
"""

from __future__ import annotations

import json
import math
import sys as _sys
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericOverflowError
from .serialize import matrix_from_json, matrix_to_json, reals_from_json

__all__ = [
    "ContinuousSystem",
    "SpectralSystem",
    "SampledSystem",
    "semigroup",
    "sample",
    "sample_periods",
    "frac_heat_symbol",
    "schrodinger_symbol",
    "system_from_json",
    "system_to_json",
    "load_system",
]


def _expm_on_first_use(namespace: dict):
    """PEP 562 ``__getattr__`` for a module whose ``expm`` is scipy.linalg's.

    scipy.linalg is imported on the first lookup, by the first dense operator,
    and its expm is stored in namespace, the module's globals, so later lookups
    never get here.  Callers read ``expm`` as an attribute of their module and
    so find that global, or whatever has since replaced it.
    """
    def __getattr__(name: str):
        if name != "expm":
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from scipy.linalg import expm
        namespace["expm"] = expm
        return expm
    return __getattr__


# _quiet_expm reads expm through the module, never as a bare global name.
__getattr__ = _expm_on_first_use(globals())
_module = _sys.modules[__name__]


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


def _quiet_expm(M: np.ndarray) -> np.ndarray:
    """expm with overflow surfaced as NumericOverflowError, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _module.expm(M)


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
    if t == 0:
        return np.eye(sys.state_dim, dtype=complex)
    return _check_finite(_quiet_expm(sys.A * t), "semigroup")


def sample(sys: ContinuousSystem | SpectralSystem, T: float) -> SampledSystem:
    """Sampled pair over one finite period: Phi = exp(AT), D = (int_0^T exp(As) ds) B.

    The one-period slice of sample_periods.  Non-finite entries raise
    NumericOverflowError; a spectral system's Phi is its semigroup.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError("sampling period T must be finite and > 0")
    Phi, D = sample_periods(sys, [T])
    if isinstance(sys, SpectralSystem):
        _check_finite(Phi, "semigroup")
    _check_finite(Phi, "sampled pair")
    return SampledSystem(Phi[0], _check_finite(D, "sampled pair")[0], T)


def sample_periods(sys: ContinuousSystem | SpectralSystem, periods) -> tuple[np.ndarray, np.ndarray]:
    """The sampled pairs (Phi, D) of a 1-D array of finite periods > 0, stacked on a leading axis.

    Dense systems read both from the top block rows of one stacked exponential,
    exp([[A, B], [0, 0]] T) = [[Phi, D], [0, I]]: Phi is (P, n, n) and D is
    (P, n, m).  A spectral system gives the per-mode pairs Phi = exp(lambda T),
    D = b phi1(lambda, T), each (P, n).  Entries that overflow are returned
    non-finite, unchecked: the caller decides per period.
    """
    T = np.asarray(periods, dtype=float)
    if T.ndim != 1 or not np.all(np.isfinite(T) & (T > 0)):
        raise ValueError("sampling period T must be finite and > 0")
    if isinstance(sys, SpectralSystem):
        lam = sys.symbol_values
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(lam * T[:, None]), _phi1(lam, T[:, None]) * sys.control_mask
    n, m = sys.state_dim, sys.input_dim
    aug = np.zeros((n + m, n + m), dtype=complex)
    aug[:n, :n] = sys.A
    aug[:n, n:] = sys.B
    top = _quiet_expm(aug * T[:, None, None])[:, :n]
    return top[:, :, :n], top[:, :, n:]


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

