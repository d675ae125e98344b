"""Closed-loop simulation under four observation/feedback regimes.

Regimes (gain F constant unless noted):

* cc: y' = (A + B F) y                      -- continuous observation
* dc: y' = A y + B F y(kT) on [kT,(k+1)T)   -- sampled observation
* dp: y' = A y + B F(t) y(kT), F(t) T-periodic operator-valued
* cp: y' = A y + B F(t) y,     F(t) T-periodic operator-valued

with the periodic law F(t) = F exp((A + B F)(t - kT)) on [kT, (k+1)T).

Every loop is linear and T-periodic, so each simulator only builds its
one-period maps: maps[j] takes y(kT) to [state; control] at kT + j h, for
h = T / steps_per_period and j = 0..steps_per_period.  One tabulator runs the
sample recursion y((k+1)T) = maps[-1][:n] y(kT) and fills the period-locked
grid from the maps, so all four loops share one signature and one grid, the
horizon rounded up to whole periods.  The trajectory keeps maps[-1][:n], the
loop's one-period map (exact for cc, dc and dp, RK4's for cp).

* cc, dp: maps[j] = [E^j; F E^j] with E = exp((A + B F) h).  Under the
  periodic law, y(t) = exp((A + B F)(t - kT)) y(kT) solves dp and its
  control F(t) y(kT) is F y(t), so dp is the cc loop.
* dc: on [kT, (k+1)T) the input is B F y(kT); [[Phi, D F], [0, I]], of the
  sampled pair (Phi, D) of one substep, advances the state and the held
  sample together.
* cp: classical fixed-step Runge-Kutta at step h.  RK4 on a linear ODE is a
  linear map, so each step's stages are applied to the matrix of the map
  itself, with F(t) built on the half-step grid by repeated multiplication
  with one exponential.

A spectral system with a per-mode gain (the 1-D F that lqsynth gives a
diagonal pair) stays diagonal: every map is a row of per-mode factors, 2n
wide for state and control, with A = diag(lambda), B = diag(b), mu = lambda + b f
and tau = j h.  cc and dp are exp(mu tau); dc is the per-mode sampled pair,
exp(lambda tau) + b phi1(lambda, tau) f; cp is the same RK4 on the 1-D factors.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericOverflowError
from .linsys import ContinuousSystem, SpectralSystem, _check_count, expm, sample_periods
from .serialize import nulled

__all__ = [
    "Trajectory",
    "check_grid",
    "simulate_cc",
    "simulate_dc",
    "simulate_dp",
    "simulate_cp",
    "fit_decay",
    "trajectory_to_csv",
]

@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated states/controls on a time grid, and the loop's one-period map
    y(kT) -> y((k+1)T) when a simulator made it: n x n, or n per-mode factors."""

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    monodromy: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("times must start at 0 and increase strictly")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", np.asarray(self.states, dtype=complex))
        object.__setattr__(self, "controls", np.asarray(self.controls, dtype=complex))

    def norms(self) -> np.ndarray:
        """Row 2-norms of the states, each row scaled first by the exact power
        of two that brings its largest real or imaginary part to [0.5, 1), so
        that squaring neither overflows nor underflows.  Computed on the first
        call and kept: the array returned is read-only."""
        return self._norms

    @cached_property
    def _norms(self) -> np.ndarray:
        x = np.ascontiguousarray(self.states).view(float)
        e = np.frexp(np.abs(x).max(axis=1, initial=0.0))[1]
        norms = np.ldexp(np.linalg.norm(np.ldexp(x, -e[:, None]).view(complex), axis=1), e)
        norms.flags.writeable = False
        return norms

    def loop_radius(self) -> float:
        """Spectral radius of the one-period map: the largest |eigenvalue| of
        the n x n map, or the largest |factor| per mode.  The loop decays from
        every initial state exactly when it is below 1."""
        if self.monodromy is None:
            raise ValueError("the trajectory carries no one-period map")
        M = self.monodromy
        return float(np.abs(M if M.ndim == 1 else np.linalg.eigvals(M)).max(initial=0.0))


# Ceiling on simulation grid cells, (K S + 1)(n + m) complex entries (160 MB).
_MAX_GRID_CELLS = 10 ** 7


def check_grid(T: float, horizon: float, steps_per_period: int, width: int) -> int:
    """Validate a grid of rows of width n + m; return the whole periods covering the horizon."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError("T must be finite and > 0")
    if not (math.isfinite(horizon) and horizon >= T):
        raise ValueError("horizon must be finite and cover at least one period")
    _check_count(steps_per_period, "steps_per_period")
    cells = (horizon / T * steps_per_period + 1) * width
    if cells > _MAX_GRID_CELLS:
        raise ValueError(f"simulation grid needs {cells:.3g} cells, over the ceiling of "
                         f"{_MAX_GRID_CELLS:.0e}; lower --horizon or --steps-per-period")
    return math.ceil(horizon / T - 1e-12)


def _gain(sys: ContinuousSystem | SpectralSystem, F) -> np.ndarray:
    """F as the loop takes it: m x n, or n per-mode entries for a spectral system."""
    if isinstance(sys, SpectralSystem):
        F = np.asarray(F, dtype=complex)
        if F.shape != (sys.state_dim,):
            raise ValueError(f"gain of a spectral system must hold {sys.state_dim} "
                             f"per-mode entries, got shape {F.shape}")
        return F
    F = np.atleast_2d(np.asarray(F, dtype=complex))
    if F.shape != (sys.input_dim, sys.state_dim):
        raise ValueError(f"gain must be {sys.input_dim}x{sys.state_dim}, got {F.shape}")
    return F


def _tabulate(one_period, sys: ContinuousSystem | SpectralSystem, F, T: float,
              y0: np.ndarray, horizon: float, steps_per_period: int) -> Trajectory:
    """The loop whose one-period maps one_period(sys, F, h, S) builds, on the grid.

    Dense maps are (S+1) x (n+m) x n matrices; a spectral system's are
    (S+1) x 2n per-mode factors.  Raises NumericOverflowError, without numpy
    warnings, when a state or control is not finite.
    """
    K = check_grid(T, horizon, steps_per_period, sys.state_dim + sys.input_dim)
    F = _gain(sys, F)
    y0 = np.asarray(y0, dtype=complex).ravel()
    n, S = sys.state_dim, steps_per_period
    if y0.size != n:
        raise ValueError(f"y0 must have {n} entries, got {y0.size}")
    if not np.isfinite(y0).all():
        raise ValueError("y0 must have finite entries")
    h = T / S
    with np.errstate(over="ignore", invalid="ignore"):
        maps = one_period(sys, F, h, S)
        samples = np.empty((K + 1, n), dtype=complex)
        samples[0] = y0
        grid = np.empty((K * S + 1, maps.shape[1]), dtype=complex)
        if maps.ndim == 2:
            for k in range(K):
                samples[k + 1] = maps[S, :n] * samples[k]
            held = np.hstack([samples, samples])
            np.multiply(maps[:S], held[:K, None], out=grid[:-1].reshape(K, S, -1))
            grid[-1] = maps[0] * held[K]
        else:
            for k in range(K):
                samples[k + 1] = maps[S, :n] @ samples[k]
            grid[:-1].reshape(K, S, -1)[:] = (maps[:S] @ samples[:K].T).transpose(2, 0, 1)
            grid[-1] = maps[0] @ samples[K]
    bad = ~np.isfinite(grid).all(axis=1)
    if bad.any():
        raise NumericOverflowError(
            f"closed loop overflowed at t = {np.argmax(bad) * h:.6g}: the loop is "
            "unstable, or the cp loop's RK4 step is too long for the system "
            "(raise --steps-per-period)")
    return Trajectory(np.arange(K * S + 1) * h, grid[:, :n], grid[:, n:], maps[S, :n].copy())


def _parts(sys: ContinuousSystem | SpectralSystem):
    """(A, B, product, exponential, identity) of the loop's generator: matrices
    with matmul and expm, or a spectral system's per-mode diagonals with their
    elementwise product and exp."""
    if isinstance(sys, SpectralSystem):
        return (sys.symbol_values, sys.control_mask, np.multiply, np.exp,
                np.ones(sys.state_dim, dtype=complex))
    return sys.A, sys.B, np.matmul, expm, np.eye(sys.state_dim, dtype=complex)


def _power_maps(E, X, F, S, mul=np.matmul):
    """maps[j] = [first n rows of E^j X; F times its last n rows], j = 0..S."""
    n = F.shape[-1]
    maps = np.empty((S + 1, n + F.shape[0]) + X.shape[1:], dtype=complex)
    for j in range(S + 1):
        maps[j, :n], maps[j, n:] = X[:n], mul(F, X[-n:])
        X = mul(E, X)
    return maps


def _cc_maps(sys, F, h, S):
    A, B, mul, exp, I = _parts(sys)
    return _power_maps(exp((A + mul(B, F)) * h), I, F, S, mul)


def _hold_maps(sys, F, h, S):
    """Maps for the held input B F y(kT): per mode the state at kT + tau is (Phi + D f) y(kT),
    (Phi, D) the sampled pair of period tau; dense, X_j[:n] with X_j = E^j [I; I] and E =
    [[Phi, D F], [0, I]] at period h, so a large F adds no squarings to the exponential."""
    n = sys.state_dim
    if isinstance(sys, SpectralSystem):
        Phi, D = sample_periods(sys, h * np.arange(1, S + 1))
        state = np.vstack([np.ones(n), Phi + D * F])
        return np.hstack([state, np.broadcast_to(F, state.shape)])
    (Phi,), (D,) = sample_periods(sys, [h])
    E = np.block([[Phi, D @ F], [np.zeros((n, n)), np.eye(n)]])
    return _power_maps(E, np.vstack([np.eye(n), np.eye(n)]), F, S)


def _cp_maps(sys, F, h, S):
    A, B, mul, exp, X = _parts(sys)
    n = sys.state_dim
    # At t = j h: F0, F1, F2 = F(t), F(t + h/2), F(t + h), one exponential
    # per half step, as the RK4 stages need them.
    E_half = exp((A + mul(B, F)) * (h / 2.0))
    maps = np.empty((S + 1, n + F.shape[0]) + X.shape[1:], dtype=complex)
    F0 = F
    M0 = A + mul(B, F0)
    for j in range(S):
        maps[j, :n], maps[j, n:] = X, mul(F0, X)
        F1 = mul(F0, E_half)
        F2 = mul(F1, E_half)
        M1, M2 = A + mul(B, F1), A + mul(B, F2)
        k1 = mul(M0, X)
        k2 = mul(M1, X + 0.5 * h * k1)
        k3 = mul(M1, X + 0.5 * h * k2)
        k4 = mul(M2, X + h * k3)
        X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        F0, M0 = F2, M2
    maps[S, :n], maps[S, n:] = X, mul(F0, X)
    return maps


def simulate_cc(sys: ContinuousSystem | SpectralSystem, F: np.ndarray, T: float,
                y0: np.ndarray, horizon: float, steps_per_period: int) -> Trajectory:
    """Closed loop y' = (A + B F) y, exact on the grid via the closed-loop flow.

    T only sets the grid: the loop has no period of its own.
    """
    return _tabulate(_cc_maps, sys, F, T, y0, horizon, steps_per_period)


def simulate_dc(sys: ContinuousSystem | SpectralSystem, F: np.ndarray, T: float,
                y0: np.ndarray, horizon: float, steps_per_period: int) -> Trajectory:
    """Sampled-observation loop with constant gain, propagated exactly.

    On [kT, (k+1)T): y(kT + tau) = exp(A tau) y(kT) + J_tau B F y(kT) with
    J_tau the integrated flow; successive samples follow
    y((k+1)T) = (Phi + D F) y(kT).
    """
    return _tabulate(_hold_maps, sys, F, T, y0, horizon, steps_per_period)


def simulate_dp(sys: ContinuousSystem | SpectralSystem, F: np.ndarray, T: float,
                y0: np.ndarray, horizon: float, steps_per_period: int) -> Trajectory:
    """Sampled observation under the periodic law: y' = A y + B F(t) y(kT).

    With F(t) = F exp((A + B F)(t - kT)), y(t) = exp((A + B F)(t - kT)) y(kT)
    solves the loop and its control F(t) y(kT) is F y(t): the loop is the
    continuous loop y' = (A + B F) y, between samples too, and is tabulated
    by the maps of simulate_cc.
    """
    return _tabulate(_cc_maps, sys, F, T, y0, horizon, steps_per_period)


def simulate_cp(sys: ContinuousSystem | SpectralSystem, F: np.ndarray, T: float,
                y0: np.ndarray, horizon: float, steps_per_period: int) -> Trajectory:
    """Continuous observation under the periodic law: y' = (A + B F(t)) y.

    Classical fixed-step 4th-order Runge-Kutta at step T / steps_per_period.
    Explicit: a step too long for the system's fastest modes makes the loop
    blow up, reported as NumericOverflowError once it overflows.
    """
    return _tabulate(_cp_maps, sys, F, T, y0, horizon, steps_per_period)


def fit_decay(traj: Trajectory) -> tuple[float, float]:
    """Least-squares decay fit over the trailing half of the horizon.

    Fits log||y(t)|| = log c - omega t; omega is clipped to 0 when the slope
    is not meaningfully negative.  A window of one grid point fits no line and
    is refused.  A state hitting exact zero in the window makes the fit
    degenerate, reported as omega = inf.
    """
    norms = traj.norms()
    t = traj.times
    window = t >= 0.5 * t[-1]
    if np.count_nonzero(window) < 2:
        raise ValueError("decay fit needs at least 2 grid points in the trailing half")
    t_w, n_w = t[window], norms[window]
    if np.any(n_w == 0.0):
        return math.inf, 0.0
    slope, intercept = np.polyfit(t_w, np.log(n_w), 1)
    omega = -slope if slope < -1e-9 else 0.0
    return float(omega), float(np.exp(intercept))


def system_hash(sys: ContinuousSystem | SpectralSystem) -> str:
    """12 hex digits of the SHA-256 of the system's arrays: A and B, or a
    spectral system's per-mode symbol values and control mask."""
    arrays = ((sys.symbol_values, sys.control_mask) if isinstance(sys, SpectralSystem)
              else (sys.A, sys.B))
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:12]


def trajectory_to_csv(traj: Trajectory, path, header: dict | None = None) -> None:
    """CSV export: t, ||y||, Re/Im of each state and control component.

    A JSON header line (prefixed '#') records the header's metadata, with
    sorted keys, a schema number and non-finite floats as null.  Cells are
    "%.16g", the bytes np.savetxt writes, formatted by the _csv_rows kernel
    (exact: a cell it cannot certify is formatted by Python).  The header,
    the column line and the rows go through one binary handle.
    """
    meta = dict(header or {})
    meta.setdefault("schema", 1)
    n = traj.states.shape[1]
    m = traj.controls.shape[1]
    cols = ["t", "norm_y"]
    cols += [f"y{i}_{p}" for i in range(n) for p in ("re", "im")]
    cols += [f"u{j}_{p}" for j in range(m) for p in ("re", "im")]
    # Viewing complex as float interleaves Re/Im, matching the column order.
    table = np.column_stack([traj.times, traj.norms(),
                             np.ascontiguousarray(traj.states).view(float),
                             np.ascontiguousarray(traj.controls).view(float)])
    head = "# " + json.dumps(nulled(meta), sort_keys=True, allow_nan=False) + "\n"
    with open(path, "wb") as fh:
        fh.write((head + ",".join(cols) + "\n").encode("ascii"))
        fh.writelines(_csv_rows(table))


# Cells per kernel chunk: its temporaries and its 32-byte cell rows stay near 1 MB.
_CHUNK = 1 << 13
# Exponents E = floor(log10 |x|) of finite non-zero doubles, subnormals included.
_E_LO, _E_HI = -324, 308
# Bound on |y' - y| / y' for y' = |x| * 10^(15 - E) computed in long double from
# the correctly rounded power: two roundings of half an ulp each, doubled as margin.
_ERR = 2 * float(np.finfo(np.longdouble).eps)
# A cell whose log10 is this close to an integer (E may be off by one, and y
# near 10^15 or 10^16) takes the exact fallback.
_DECADE = 1e-12
_LE64 = np.dtype("<u8")


def _ratio_bits(p: int, q: int, bits: int) -> tuple[int, int]:
    """(m, e) with m * 2^e the p/q > 0 rounded to nearest, m at most 2^bits.

    Ties are not handled: a power of ten is never halfway between two floats
    (10^k is exact for 5^k below 2^bits, and a tie needs an odd part that
    short; 10^-k is not dyadic)."""
    e = p.bit_length() - q.bit_length() - bits
    m, r = divmod(p << max(-e, 0), q << max(e, 0))
    if m >> bits:
        e += 1
        m, r = divmod(p << max(-e, 0), q << max(e, 0))
    return m + (2 * r > q << max(e, 0)), e


def _word(s: bytes) -> int:
    """The little-endian 64-bit word holding up to 8 bytes, NUL-padded."""
    return int.from_bytes(s.ljust(8, b"\0"), "little")


@functools.cache
def _tables():
    """The kernel's read-only tables, built on first use.

    pow10[E - _E_LO] is 10^(15 - E) correctly rounded to long double.  A cell
    is written into four little-endian words, whose NUL bytes are dropped:
    the sign byte then prefix[E - _E_LO] ("0." and zeros for E = -1..-4), the
    16-digit mantissa in words 1-3, the exponent suffix[E - _E_LO] after the
    mantissa's 17th byte, and the separator in the last byte.  For the
    mantissa's three words, low[i][k] keeps its first k bytes, high[i][q] its
    bytes past q, and dot[i][q] is "." at byte q.
    """
    bits = np.finfo(np.longdouble).nmant + 1
    pow10 = np.empty(_E_HI - _E_LO + 1, dtype=np.longdouble)
    with np.errstate(over="ignore"):  # a long double as narrow as a double
        for i, k in enumerate(range(15 - _E_LO, 15 - _E_HI - 1, -1)):
            m, e = _ratio_bits(10 ** max(k, 0), 10 ** max(-k, 0), bits)
            pow10[i] = np.ldexp(np.longdouble(m >> 32) * 2 ** 32 + (m & 0xFFFFFFFF), e)

    def mantissa(byte_string, count):
        return np.array([[_word(byte_string(k)[8 * i:8 * i + 8]) for k in range(count)]
                         for i in range(3)], dtype=np.uint64)

    exponents = range(_E_LO, _E_HI + 1)
    tables = (
        pow10,
        mantissa(lambda k: b"\xff" * k, 25),
        ~mantissa(lambda q: b"\xff" * (q + 1), 25),
        mantissa(lambda q: b"\0" * q + b".", 25),
        np.array([_word(b"\0" + (b"0." + b"0" * (-E - 1) if -4 <= E < 0 else b""))
                  for E in exponents], dtype=np.uint64),
        np.array([_word(b"\0" + (b"" if -4 <= E < 16 else b"e%+03d" % E))
                  for E in exponents], dtype=np.uint64),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _ascii8(n: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each n < 10^8 as byte values 0..9, the most
    significant in the lowest byte (SWAR: 4-, 2-, then 1-digit lanes)."""
    u = np.uint64
    v = (n * u(109951163)) >> u(40)  # n // 10^4, exact for n < 10^8
    v |= (n - v * u(10000)) << u(32)
    t = (v * u(10486)) >> u(20) & u(0x0000007F0000007F)  # lane // 100
    v = t | (v - t * u(100)) << u(16)
    t = (v * u(103)) >> u(10) & u(0x000F000F000F000F)  # lane // 10
    return t | (v - t * u(10)) << u(8)


def _used_bytes(r: np.ndarray) -> np.ndarray:
    """Bytes up to the highest non-zero one of each digit word: a digit byte is
    below 16, so the float conversion cannot round its bit length past the byte."""
    return (np.frexp(r.astype(float))[1] + 7) // 8


def _exact_cells(x: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """'%.16g' % x and its separator, per cell, as NUL-padded 32-byte rows."""
    cells = [b"%.16g%c" % pair for pair in zip(x.tolist(), sep.tolist())]
    return np.array(cells, dtype="S32").view(np.uint8).reshape(-1, 32)


# A long double as narrow as a double rounds the largest powers to inf: y - r
# is then nan, which fails the half-integer test and takes the fallback.
@np.errstate(invalid="ignore")
def _chunk_bytes(x: np.ndarray, sep: np.ndarray, words: np.ndarray) -> bytes:
    """The cells x, each followed by its separator byte, as "%.16g" text.

    A finite non-zero |x| = D 10^(E - 15), with D = rint(y) for y = |x|
    10^(15 - E) in long double: unless y lies within _ERR y of a half-integer
    or log10 |x| within _DECADE of an integer, D is the correctly rounded
    16-digit mantissa.  Those cells and the non-finite ones take _exact_cells.
    words is the (len(x), 4) little-endian scratch the rows are built in.
    """
    pow10, low, high, dot, prefix, suffix = _tables()
    u = np.uint64
    a = np.abs(x)
    zero = a == 0
    i = np.flatnonzero(~zero & (a <= np.finfo(float).max))
    v = a[i]
    f = np.log10(v)
    Ef = np.floor(f)
    k = Ef.astype(np.intp) - _E_LO
    y = v.astype(np.longdouble) * pow10[k]
    r = np.rint(y)
    exact = ((np.abs(f - Ef - 0.5) < 0.5 - _DECADE)
             & (np.abs((y - r).astype(float)) < 0.5 - _ERR * y.astype(float)))
    D = r.astype(u)
    hi = D // u(10 ** 8)
    r0, r1 = _ascii8(hi), _ascii8(D - hi * u(10 ** 8))
    nsig = np.where(r1 != 0, 8 + _used_bytes(r1), _used_bytes(r0))
    # %g: fixed for -4 <= E < 16, else d.ddd e+XX; trailing zeros and a bare
    # "." dropped.  nd digits are written, with "." at byte q (24: none).
    E = k + _E_LO
    whole = (E >= 0) & (E < 16)
    nd = np.where(whole, np.maximum(nsig, E + 1), nsig)
    q = np.where(whole, E + 1, 1)
    q[(nsig <= q) | ((E < 0) & (E >= -4))] = 24
    m0 = (r0 | u(0x3030303030303030)) & low[0][nd]
    m1 = (r1 | u(0x3030303030303030)) & low[1][nd]
    sign = np.signbit(x).astype(u) * u(ord("-"))
    last = sep.astype(u) << u(56)
    rows = np.empty((i.size, 4), _LE64)
    rows[:, 0] = prefix[k] | sign[i]
    rows[:, 1] = m0 & low[0][q] | (m0 << u(8)) & high[0][q] | dot[0][q]
    rows[:, 2] = m1 & low[1][q] | (m1 << u(8) | m0 >> u(56)) & high[1][q] | dot[1][q]
    rows[:, 3] = (m1 >> u(56)) & high[2][q] | suffix[k] | last[i]
    words[:, 0] = sign | u(ord("0") << 8)  # +-0; every other row is overwritten
    words[:, 1:3] = 0
    words[:, 3] = last
    np.put(words.view("V32").reshape(-1), i, rows.view("V32").reshape(-1))
    cells = words.view(np.uint8)
    fallback = ~np.isfinite(x)
    fallback[i[~exact]] = True
    fallback = np.flatnonzero(fallback)
    if fallback.size:
        cells[fallback] = _exact_cells(x[fallback], sep[fallback])
    return cells[cells != 0].tobytes()


def _csv_rows(table: np.ndarray):
    """The rows of a 2-D float table as CSV bytes: each cell exactly
    '%.16g' % x, joined by "," and ended by a newline.  Yields one bytes object per
    chunk of at most _CHUNK cells, so the text is never held whole."""
    flat = np.ascontiguousarray(table, dtype=float).reshape(-1)
    cols = table.shape[1]
    words = np.empty((min(flat.size, _CHUNK), 4), _LE64)
    for start in range(0, flat.size, _CHUNK):
        x = flat[start:start + _CHUNK]
        ends = np.arange(start, start + x.size) % cols == cols - 1
        sep = np.where(ends, ord("\n"), ord(",")).astype(np.uint8)
        yield _chunk_bytes(x, sep, words[:x.size])
