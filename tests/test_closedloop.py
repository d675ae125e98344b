"""Closed-loop simulators, the periodic feedback law, and decay fits."""

import io
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from numpy.testing import assert_allclose
from scipy.linalg import expm

import sampstab as st
from sampstab import closedloop
from sampstab.closedloop import system_hash

from conftest import (cc_stepper, cp_stepper, csv_bytes_oracle, csv_rows_oracle,
                      periodic_schedule, random_cc_stabilized, random_complex,
                      random_stable_system, to_dense)

SCALAR = st.ContinuousSystem([[0.0]], [[1.0]])
LOOPS = {"cc": st.simulate_cc, "dc": st.simulate_dc, "dp": st.simulate_dp, "cp": st.simulate_cp}


def _frac_heat_64():
    heat = st.fractional_heat(64, 1.5, 1.0)
    pair = st.sample(heat, 1.0)
    return to_dense(heat), np.diag(st.feedback_gain(st.riccati_solve(pair), pair).F)


@pytest.mark.parametrize("loop", ["cc", "cp"])
@pytest.mark.parametrize("case", ["seed0", "seed1", "seed2", "seed3", "frac-heat-64"])
def test_tabulated_loop_matches_step_by_step_oracle(loop, case):
    # The period tabulator against the loop advanced one step at a time.
    if case == "frac-heat-64":
        (sys, F), T, S, K = _frac_heat_64(), 1.0, 16, 40
    else:
        (sys, F), T, S, K = random_cc_stabilized(int(case[4:])), 0.6, 8, 15
    y0 = np.ones(sys.state_dim) / math.sqrt(sys.state_dim)
    traj = LOOPS[loop](sys, F, T, y0, K * T, S)
    if loop == "cc":
        times, states, controls = cc_stepper(sys, F, y0, K * T, T / S)
    else:
        times, states, controls = cp_stepper(sys, F, T, y0, K * T, T / S)
    assert_allclose(traj.times, times, rtol=1e-15)
    for got, ref in ((traj.states, states), (traj.controls, controls)):
        err = np.linalg.norm(got - ref, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=1))


@hs.composite
def spectral_systems(draw):
    """Frac-heat or Schroedinger truncations of up to 64 modes, some masked.

    A mask with zeros leaves modes uncontrolled, which the unstable or neutral
    ones cannot afford: both forms must then fail to converge."""
    n = draw(hs.integers(1, 64))
    xi_max = draw(hs.sampled_from([1.0, 2.5, 4.0]))
    mask = None
    if draw(hs.booleans()):
        weights = draw(hs.sampled_from([(0.3, 1.0), (0.0, 0.3, 1.0)]))
        mask = np.array(draw(hs.lists(hs.sampled_from(weights), min_size=n, max_size=n)))
    if draw(hs.booleans()):
        s, c = draw(hs.sampled_from([1.2, 1.5, 2.0])), draw(hs.sampled_from([0.0, 0.5, 1.0]))
        return st.fractional_heat(n, s, c, xi_max=xi_max, mask=mask)
    sch = st.schrodinger(n, xi_max)
    return sch if mask is None else st.SpectralSystem(sch.modes, sch.symbol, mask)


def _rows_close(got, ref, rtol):
    """Each grid row agrees to rtol relative to that row's largest entry."""
    scale = np.abs(ref).max(axis=1, keepdims=True)
    return np.all(np.abs(got - ref) <= rtol * scale)


@settings(max_examples=60, deadline=None)
@given(system=spectral_systems(), T=hs.sampled_from([0.5, 1.0, 1.7]))
def test_spectral_loops_match_their_dense_form(system, T):
    # Per-mode synthesis and simulation against the same system densified.
    dense = to_dense(system)
    pair, dense_pair = st.sample(system, T), st.sample(dense, T)
    sol, dense_sol = st.riccati_solve(pair), st.riccati_solve(dense_pair)
    assert sol.converged == dense_sol.converged
    if not sol.converged:
        return
    n = system.state_dim
    K, F = sol.K, st.feedback_gain(sol, pair)
    dense_F = st.feedback_gain(dense_sol, dense_pair)
    assert K.shape == F.F.shape == (n,)
    assert np.abs(np.diag(K) - dense_sol.K).max() <= 1e-12 * np.abs(dense_sol.K).max()
    assert np.abs(np.diag(F.F) - dense_F.F).max() <= 1e-12 * max(np.abs(dense_F.F).max(), 1.0)
    assert abs(F.spectral_radius - dense_F.spectral_radius) <= 1e-12
    y0 = np.linspace(1.0, 2.0, n) / n
    for loop, simulate in LOOPS.items():
        traj = simulate(system, F.F, T, y0, 3 * T, 8)
        ref = simulate(dense, dense_F.F, T, y0, 3 * T, 8)
        assert_allclose(traj.times, ref.times, rtol=0, atol=0)
        assert _rows_close(traj.states, ref.states, 1e-12), loop
        assert _rows_close(traj.controls, ref.controls, 1e-12), loop


class TestSpectralLoops:
    def test_gain_must_be_per_mode(self):
        heat = st.fractional_heat(4, 1.5, 1.0)
        with pytest.raises(ValueError, match="per-mode"):
            st.simulate_cc(heat, -np.eye(4), 1.0, np.ones(4), 2.0, 4)

    def test_stiff_hold_does_not_overflow(self):
        # exp(1600 tau) overflows; the held integral is factored on exp(-1600 tau).
        heat = st.system_from_json({"symbol": "frac_heat", "s": 2, "c": 0, "modes": [0, 40]})
        F = np.array([-0.5, -0.5])
        for loop in ("dc", "dp"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                traj = LOOPS[loop](heat, F, 1.0, [1.0, 1.0], 3.0, 16)
            ref = LOOPS[loop](to_dense(heat), np.diag(F), 1.0, [1.0, 1.0], 3.0, 16)
            assert _rows_close(traj.states, ref.states, 1e-12), loop


class TestSimulateCc:
    def test_open_loop_matches_flow(self):
        sys = st.ContinuousSystem([[-1.0]], [[1.0]])
        traj = st.simulate_cc(sys, [[0.0]], 1.0, [1.0], 5.0, 4)
        assert_allclose(traj.states[:, 0].real, np.exp(-traj.times), rtol=1e-12)

    def test_scalar_closed_loop(self):
        traj = st.simulate_cc(SCALAR, [[-1.0]], 1.0, [2.0], 3.0, 10)
        assert_allclose(traj.states[:, 0].real, 2 * np.exp(-traj.times), rtol=1e-12)

    def test_schrodinger_uniform_damping(self):
        sch = to_dense(st.schrodinger(17, 3.0))
        y0 = np.ones(17) / math.sqrt(17)
        traj = st.simulate_cc(sch, -0.3 * np.eye(17), 1.0, y0, 10.0, 10)
        assert_allclose(traj.norms(), np.exp(-0.3 * traj.times), rtol=1e-10)


class TestSimulateDc:
    def test_open_loop(self):
        sys = st.ContinuousSystem([[-1.0]], [[1.0]])
        traj = st.simulate_dc(sys, [[0.0]], 1.0, [1.0], 4.0, 8)
        assert_allclose(traj.states[:, 0].real, np.exp(-traj.times), rtol=1e-12)

    def test_scalar_sample_recursion(self):
        traj = st.simulate_dc(SCALAR, [[-0.5]], 1.0, [1.0], 3.0, 4)
        for k in range(4):
            assert_allclose(traj.states[4 * k, 0].real, 0.5 ** k, atol=1e-14)
        assert_allclose(traj.states[-1, 0].real, 0.125, atol=1e-14)

    def test_piecewise_hold_control(self):
        traj = st.simulate_dc(SCALAR, [[-0.5]], 1.0, [1.0], 2.0, 4)
        # Control is constant on each period: F y(kT).
        assert_allclose(traj.controls[:4, 0].real, -0.5, atol=1e-14)
        assert_allclose(traj.controls[4:8, 0].real, -0.25, atol=1e-14)

    def test_sample_instants_follow_closed_pair(self):
        osc = st.harmonic_oscillator()
        T = 1.0
        pair = st.sample(osc, T)
        gain = st.feedback_gain(st.riccati_solve(pair), pair)
        y0 = np.array([1.0, -0.5])
        steps = 7
        traj = st.simulate_dc(osc, gain.F, T, y0, 12 * T, steps)
        M = pair.Phi + pair.D @ gain.F
        y = y0.astype(complex)
        for k in range(12):
            assert np.abs(traj.states[k * steps] - y).max() <= 1e-10
            y = M @ y

    def test_intra_period_solves_the_ode(self):
        # Between samples the state obeys y' = A y + B u with held u.
        osc = st.harmonic_oscillator()
        F = np.array([[-0.4, -0.7]])
        T, steps = 0.8, 16
        traj = st.simulate_dc(osc, F, T, [1.0, 0.0], 2 * T, steps)
        h = T / steps
        for idx in (3, 10, steps + 5):
            y, u = traj.states[idx], traj.controls[idx]
            ydot_fd = (traj.states[idx + 1] - traj.states[idx - 1]) / (2 * h)
            resid = ydot_fd - (osc.A @ y + osc.B @ u)
            assert np.abs(resid).max() < 1e-2  # second-order stencil error only
            # Exactly: y(kT + tau) = exp(A tau) y_k + J_tau B F y_k.
            k, j = divmod(idx, steps)
            y_k = traj.states[k * steps]
            exact = st.semigroup(osc, j * h) @ y_k + st.sample(osc, j * h).D @ F @ y_k
            assert np.linalg.norm(y - exact) <= 1e-12 * np.linalg.norm(exact)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("gain_norm", [1.0, 1e4, 1e8, 1e12])
    def test_large_gain_keeps_the_dense_maps_exact(self, seed, gain_norm):
        # The gain enters after the exponential, so a large one adds no
        # squarings: the state rows stay Phi + D F of each substep, and the
        # control rows F itself.  The exponential of [[A, B F], [0, 0]] h was
        # off by 1e-9 relative at |F| = 1e8 and by 1e-5 at 1e12.
        sys = random_stable_system(seed, n=4, m=2)
        F = random_complex(np.random.default_rng(seed), (2, 4))
        F *= gain_norm / np.linalg.norm(F, 2)
        h, S = 1 / 16, 16
        maps = closedloop._hold_maps(sys, F, h, S)
        Phi, D = st.sample_periods(sys, h * np.arange(1, S + 1))
        for j, want in enumerate(Phi + D @ F, start=1):
            assert np.linalg.norm(maps[j, :4] - want, 1) <= 1e-12 * np.linalg.norm(want, 1)
        assert (maps[:, 4:] == F).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            st.simulate_dc(SCALAR, [[0.0]], 1.0, [1.0], 0.5, 4)


class TestPeriodicLaw:
    def test_zero_gain_schedule(self):
        for t in (0.0, 0.3, 2.7):
            assert_allclose(periodic_schedule(SCALAR, [[0.0]], 1.0, t), 0.0, atol=1e-15)

    def test_scalar_schedule_decay(self):
        for tau in (0.0, 0.25, 0.9):
            assert_allclose(periodic_schedule(SCALAR, [[-1.0]], 1.0, tau)[0, 0].real,
                            -np.exp(-tau), atol=1e-14)

    def test_schedule_at_zero_is_gain(self):
        sys, F = random_cc_stabilized(5)
        assert_allclose(periodic_schedule(sys, F, 0.7, 0.0), F, atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(tau=hs.floats(0.0, 0.499), k=hs.integers(1, 40))
    def test_periodicity_exact_shift(self, tau, k):
        # Dyadic period: tau + kT is an exact float shift of tau mod T.
        sys, F = random_cc_stabilized(7)
        a = periodic_schedule(sys, F, 0.5, tau)
        b = periodic_schedule(sys, F, 0.5, tau + 0.5 * k)
        assert np.abs(a - b).max() <= 1e-14

    @settings(max_examples=30, deadline=None)
    @given(tau=hs.floats(0.0, 0.69), k=hs.integers(1, 40))
    def test_periodicity_inexact_shift(self, tau, k):
        # Non-dyadic period: the shift itself carries float error.
        sys, F = random_cc_stabilized(7)
        a = periodic_schedule(sys, F, 0.7, tau)
        b = periodic_schedule(sys, F, 0.7, tau + 0.7 * k)
        assert np.abs(a - b).max() <= 1e-12

    def test_validation(self):
        # The law is (sys, F, T): every simulator rejects a misshapen F and T <= 0.
        for simulate in LOOPS.values():
            with pytest.raises(ValueError, match="gain must be 1x1"):
                simulate(SCALAR, [[0.0, 1.0]], 1.0, [1.0], 2.0, 4)
            for T in (0.0, -1.0):
                with pytest.raises(ValueError, match="T must be"):
                    simulate(SCALAR, [[0.0]], T, [1.0], 2.0, 4)


class TestSimulateDp:
    def test_zero_schedule_is_open_loop(self):
        sys = st.ContinuousSystem([[-0.3]], [[1.0]])
        traj = st.simulate_dp(sys, [[0.0]], 1.0, [1.0], 4.0, 8)
        assert_allclose(traj.states[:, 0].real, np.exp(-0.3 * traj.times), rtol=1e-11)

    def test_scalar_first_period(self):
        traj = st.simulate_dp(SCALAR, [[-1.0]], 1.0, [1.0], 2.0, 10)
        idx = 10  # t = 1
        assert_allclose(traj.states[idx, 0].real, np.exp(-1), atol=1e-12)

    def test_matches_continuous_loop_at_samples(self):
        for seed in range(3):
            sys, F = random_cc_stabilized(seed)
            T = 0.6
            rng = np.random.default_rng(seed)
            y0 = rng.standard_normal(sys.state_dim)
            steps = 8
            dp = st.simulate_dp(sys, F, T, y0, 15 * T, steps)
            cc = st.simulate_cc(sys, F, T, y0, 15 * T, steps)
            for k in range(16):
                ref = cc.states[k * steps]
                err = np.linalg.norm(dp.states[k * steps] - ref)
                assert err <= 1e-8 * max(np.linalg.norm(ref), 1e-30)
            # The periodic law reproduces the continuous loop between samples too.
            assert dp.times.shape == cc.times.shape
            for got, ref in ((dp.states, cc.states), (dp.controls, cc.controls)):
                err = np.linalg.norm(got - ref, axis=1)
                assert np.all(err <= 1e-10 * np.linalg.norm(ref, axis=1))

    def test_controls_follow_the_schedule(self):
        # On [kT, (k+1)T) the control is F(t) y(kT), with the law's oracle F(t).
        sys, F = random_cc_stabilized(4)
        T, steps = 0.7, 6
        traj = st.simulate_dp(sys, F, T, [1.0, -0.5, 0.25], 3 * T, steps)
        for idx in range(3 * steps):
            want = periodic_schedule(sys, F, T, traj.times[idx]) @ traj.states[idx - idx % steps]
            assert np.abs(traj.controls[idx] - want).max() <= 1e-12 * np.abs(want).max()


class TestSimulateCp:
    def test_zero_schedule_is_open_loop(self):
        sys = st.ContinuousSystem([[-0.4]], [[1.0]])
        traj = st.simulate_cp(sys, [[0.0]], 1.0, [1.0], 3.0, 100)
        assert_allclose(traj.states[:, 0].real, np.exp(-0.4 * traj.times), rtol=1e-9)

    def test_scalar_closed_form(self):
        traj = st.simulate_cp(SCALAR, [[-1.0]], 1.0, [1.0], 1.0, 1000)
        assert_allclose(traj.states[-1, 0].real, np.exp(np.exp(-1) - 1), atol=1e-12)

    def test_constant_schedule_reduces_to_continuous_loop(self):
        # A + B F = 0 makes the periodic schedule literally constant.
        osc = st.harmonic_oscillator()
        sys = st.ContinuousSystem(osc.A, np.eye(2))
        F = -osc.A
        T = 0.5
        for tau in (0.0, 0.2, 0.45):
            assert_allclose(periodic_schedule(sys, F, T, tau), F, atol=1e-14)
        y0 = np.array([0.3, -1.1])
        cp = st.simulate_cp(sys, F, T, y0, 4 * T, 1000)
        cc = st.simulate_cc(sys, F, T, y0, 4 * T, 1000)
        assert np.abs(cp.states - cc.states).max() <= 1e-8

    def test_open_loop_oscillator_accuracy(self):
        # F = 0: fixed-step integration against the exact rotation flow.
        osc = st.harmonic_oscillator()
        y0 = np.array([1.0, 0.0])
        cp = st.simulate_cp(osc, np.zeros((1, 2)), 1.0, y0, 5.0, 1000)
        cc = st.simulate_cc(osc, np.zeros((1, 2)), 1.0, y0, 5.0, 1000)
        assert np.abs(cp.states - cc.states).max() <= 1e-8

    def test_controls_follow_the_schedule(self):
        # The control is F(t) y(t) on the grid, with the law's oracle F(t).
        sys, F = random_cc_stabilized(6)
        T = 0.5
        traj = st.simulate_cp(sys, F, T, [0.3, 1.0, -0.7], 3 * T, 20)
        for t, y, u in zip(traj.times, traj.states, traj.controls):
            want = periodic_schedule(sys, F, T, t) @ y
            assert np.abs(u - want).max() <= 1e-12 * np.abs(want).max()

    def test_overflow_is_numeric_failure(self):
        # h lambda = -100 is far outside RK4's stability region: the state
        # overflows, reported without numpy warnings, per mode as in dense form.
        heat = st.system_from_json({"symbol": "frac_heat", "s": 2, "c": 0, "modes": [0, 40]})
        for sys, F in ((to_dense(heat), np.zeros((2, 2))), (heat, np.zeros(2))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(st.NumericOverflowError, match="--steps-per-period"):
                    st.simulate_cp(sys, F, 1.0, [1.0, 1.0], 3.0, 16)


class TestFitDecay:
    def test_exact_exponential(self):
        sys = st.ContinuousSystem([[-2.0]], [[1.0]])
        traj = st.simulate_cc(sys, [[0.0]], 1.0, [1.0], 8.0, 20)
        omega, c = st.fit_decay(traj)
        assert abs(omega - 2.0) <= 1e-6
        assert abs(c - 1.0) <= 1e-6

    def test_unitary_flow_reports_zero(self):
        sch = to_dense(st.schrodinger(9, 2.0))
        y0 = np.ones(9) / 3.0
        traj = st.simulate_cc(sch, np.zeros((9, 9)), 1.0, y0, 12.0, 10)
        assert st.fit_decay(traj)[0] == 0.0

    def test_sampled_sequence_rate(self):
        # Pure sample recursion y_{k+1} = r y_k: omega = -ln(r) / T.
        r = 1 / (1 + (1 + np.sqrt(5)) / 2)
        traj = st.simulate_dc(SCALAR, [[r - 1.0]], 1.0, [1.0], 30.0, 1)
        omega, _ = st.fit_decay(traj)
        assert abs(omega - (-np.log(r))) <= 1e-6

    def test_zero_state_sentinel(self):
        times = np.arange(20.0)
        states = np.ones((20, 1), dtype=complex)
        states[15:, 0] = 0.0
        traj = st.Trajectory(times, states, np.zeros((20, 1)))
        omega, _ = st.fit_decay(traj)
        assert math.isinf(omega)

    def test_needs_enough_points(self):
        # A trailing half of one grid point fits no line; two points fit one.
        traj = st.Trajectory(np.arange(2.0), np.ones((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="at least 2 grid points"):
            st.fit_decay(traj)
        times = np.arange(3.0)
        traj = st.Trajectory(times, np.exp(-0.5 * times)[:, None], np.zeros((3, 1)))
        omega, c = st.fit_decay(traj)
        assert abs(omega - 0.5) <= 1e-12 and abs(c - 1.0) <= 1e-12


def test_norms_are_kept_read_only():
    traj = st.simulate_cc(st.fractional_heat(6, 1.5, 1.0), -np.ones(6), 1.0, np.ones(6), 2.0, 4)
    norms = traj.norms()
    assert traj.norms() is norms
    assert_allclose(norms, np.linalg.norm(traj.states, axis=1), rtol=1e-15)
    with pytest.raises(ValueError):
        norms[0] = 0.0


class TestTrajectoryExport:
    @pytest.mark.parametrize("case", ["real", "complex", "negative-zero"])
    def test_rows_are_the_bytes_savetxt_writes(self, tmp_path, case):
        heat = st.fractional_heat(6, 1.5, 1.0)
        pair = st.sample(heat, 1.0)
        F = st.feedback_gain(st.riccati_solve(pair), pair).F
        traj = st.simulate_dp(heat, F, 1.0, np.ones(6), 3.0, 4)
        if case == "complex":
            traj = st.simulate_dc(st.schrodinger(5, 2.0), -0.4 * np.ones(5), 1.0,
                                  np.ones(5), 3.0, 4)
        elif case == "negative-zero":
            traj.states.imag[5, 2] = -0.0
        path = tmp_path / "traj.csv"
        st.trajectory_to_csv(traj, path)
        table = np.column_stack([traj.times, traj.norms(), traj.states.view(float),
                                 traj.controls.view(float)])
        if case == "real":
            assert not table[:, 3::2].any()  # the all-zero columns are exercised
        want = io.StringIO()
        np.savetxt(want, table, fmt="%.16g", delimiter=",")
        rows = path.read_text().split("\n", 2)[2]
        assert rows == want.getvalue()
        if case == "negative-zero":
            assert rows.splitlines()[5].split(",")[2 + 2 * 2 + 1] == "-0"

    def test_spectral_hash_covers_the_per_mode_arrays(self):
        heat = st.fractional_heat(6, 1.5, 1.0)
        masked = st.fractional_heat(6, 1.5, 1.0, mask=[1, 1, 0.5, 1, 1, 1])
        hashes = {system_hash(heat), system_hash(masked), system_hash(to_dense(heat)),
                  system_hash(st.fractional_heat(6, 1.5, 1.1))}
        assert len(hashes) == 4
        assert system_hash(heat) == system_hash(st.fractional_heat(6, 1.5, 1.0))

    def test_csv_layout_and_header(self, tmp_path):
        osc = st.harmonic_oscillator()
        traj = st.simulate_cc(osc, [[-0.5, -1.0]], 1.0, [1.0, 0.0], 10.0, 20)
        omega, c = st.fit_decay(traj)
        path = tmp_path / "traj.csv"
        st.trajectory_to_csv(traj, path, header={"system_hash": system_hash(osc), "law": "cc",
                                                 "T": 1.0, "omega": omega, "c": c})
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0].lstrip("# "))
        assert meta["law"] == "cc" and "omega" in meta
        cols = lines[1].split(",")
        assert cols == ["t", "norm_y", "y0_re", "y0_im", "y1_re", "y1_im", "u0_re", "u0_im"]
        assert len(lines) == 2 + len(traj.times)
        first = [float(x) for x in lines[2].split(",")]
        assert first[0] == 0.0 and abs(first[1] - 1.0) < 1e-15

        # Edge values print exactly as the shortest-round-trip "%.16g" cell.
        edge = np.array([-0.0, 5e-324, 2.2250738585072014e-308, np.inf, -np.inf,
                         np.nan, 1.7976931348623157e308, 0.1, -1 / 3, 123456789.0])
        states = np.zeros((2, 5), dtype=complex)
        states.real[1], states.imag[1] = edge[0::2], edge[1::2]
        controls = np.array([[0.0], [-2.5e-17 + 1e300j]])
        odd = st.Trajectory([0.0, 1e-9], states, controls)
        with np.errstate(over="ignore", invalid="ignore"):
            st.trajectory_to_csv(odd, path)
            norm = odd.norms()[1]
        cells = path.read_text().splitlines()[3].split(",")
        want = [1e-9, norm, *edge, -2.5e-17, 1e300]
        assert cells == [f"{x:.16g}" for x in want]


def _kernel_bytes(table) -> bytes:
    return b"".join(closedloop._csv_rows(np.asarray(table, dtype=float)))


class TestCsvKernel:
    """closedloop._csv_rows against the writer it replaced, byte for byte."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2 ** 64, size=(1024, 1024), dtype=np.uint64)
        table = bits.view(float)
        exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
        assert (exponent == 0).any() and (exponent == 0x7FF).any()  # subnormals, inf and nan
        assert np.signbit(table).any() and not np.signbit(table).all()
        assert _kernel_bytes(table) == csv_bytes_oracle(table)

    def test_powers_of_ten_their_neighbours_and_powers_of_two(self):
        p = np.array([float(f"1e{k}") for k in range(-324, 309)])
        edges = np.column_stack([p, np.nextafter(p, 0), np.nextafter(p, np.inf), -p])
        assert _kernel_bytes(edges) == csv_bytes_oracle(edges)
        # 2^-24 = 5.9604644775390625e-08 is a 16-digit tie, like many powers of two.
        twos = np.ldexp(1.0, np.arange(-1074, 1024))[:, None] * [1.0, -1.5]
        assert _kernel_bytes(twos) == csv_bytes_oracle(twos)

    def test_exact_ties_round_half_even(self):
        table = np.array([[1234567890123456.5, 1234567890123457.5, -1234567890123456.5,
                           2.0 ** -24]])
        assert _kernel_bytes(table) == b"1234567890123456,1234567890123458,-1234567890123456,"\
                                       b"5.960464477539062e-08\n"
        assert _kernel_bytes(table) == csv_bytes_oracle(table)

    @settings(max_examples=300, deadline=None)
    @given(values=hs.lists(hs.floats(), min_size=1, max_size=48), column=hs.booleans())
    def test_any_float(self, values, column):
        table = np.array(values)[:, None] if column else np.array(values)[None, :]
        assert _kernel_bytes(table) == csv_bytes_oracle(table)

    @pytest.mark.parametrize("cells", [2 ** 13 - 1, 2 ** 13, 2 ** 13 + 1, 3 * 2 ** 13 + 5])
    @pytest.mark.parametrize("shape", ["column", "row", "block"])
    def test_chunk_boundaries(self, cells, shape):
        rng = np.random.default_rng(cells)
        x = rng.standard_normal(cells) * 10.0 ** rng.integers(-30, 30, cells)
        x[rng.random(cells) < 0.3] = 0.0
        table = {"column": x[:, None], "row": x[None, :]}.get(shape)
        if table is None:  # rows that straddle the chunks
            table = np.append(x, np.zeros(-cells % 7)).reshape(-1, 7)
        chunks = list(closedloop._csv_rows(table))
        assert len(chunks) == math.ceil(table.size / 2 ** 13)
        assert b"".join(chunks) == csv_bytes_oracle(table)

    def test_normal_draws_at_every_scale(self):
        rng = np.random.default_rng(3)
        scales = 10.0 ** np.arange(-310, 201, 10)
        table = rng.standard_normal((64, scales.size)) * scales
        assert _kernel_bytes(table) == csv_bytes_oracle(table)

    def test_powers_of_ten_are_correctly_rounded(self):
        pow10 = closedloop._tables()[0]
        assert pow10.size == closedloop._E_HI - closedloop._E_LO + 1
        for E, x in zip(range(closedloop._E_LO, closedloop._E_HI + 1), pow10):
            want = Fraction(10) ** (15 - E)
            err = abs(Fraction(*x.as_integer_ratio()) - want)
            for side in (-np.inf, np.inf):
                assert err < abs(Fraction(*np.nextafter(x, side).as_integer_ratio()) - want), E

    def test_ties_decades_and_non_finite_cells_take_the_fallback(self, monkeypatch):
        seen = []
        exact = closedloop._exact_cells

        def spy(x, sep):
            seen.extend(x.tolist())
            return exact(x, sep)

        monkeypatch.setattr(closedloop, "_exact_cells", spy)
        # Ties, log10 within 1e-12 of an integer (10^k and 1e-13 off it), non-finite.
        fallback = [1234567890123456.5, -1234567890123457.5, 100.0, 1e-300, 1.0000000000001,
                    -9.9999999999999e22, np.inf, -np.inf]
        kernel = [0.3, -2.5e-300, 123.456, 7e22, 5e-324, 1.7976931348623157e308, 0.0, -0.0]
        table = np.array([fallback + [np.nan] + kernel])
        assert _kernel_bytes(table) == csv_bytes_oracle(table)
        assert seen[:-1] == fallback and math.isnan(seen[-1])

    def test_peak_memory_is_at_most_the_old_writers(self, tmp_path):
        # The frac-heat n = 64 dc table of the benchmark's certify workload, 641 x 258.
        heat = st.fractional_heat(64, 1.5, 1.0)
        pair = st.sample(heat, 1.0)
        F = st.feedback_gain(st.riccati_solve(pair), pair).F
        traj = st.simulate_dc(heat, F, 1.0, np.ones(64) / 8, 40.0, 16)
        traj.norms()
        closedloop._tables()

        def old_writer():
            table = np.column_stack([traj.times, traj.norms(), traj.states.view(float),
                                     traj.controls.view(float)])
            assert table.shape == (641, 258)
            with open(tmp_path / "old.csv", "w", encoding="utf-8") as fh:
                fh.write("# {}\n")
                csv_rows_oracle(table, fh)

        peaks = []
        for write in (old_writer, lambda: st.trajectory_to_csv(traj, tmp_path / "new.csv")):
            tracemalloc.start()
            try:
                write()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]
        new = (tmp_path / "new.csv").read_bytes().split(b"\n", 2)[2]
        assert new == (tmp_path / "old.csv").read_bytes().split(b"\n", 1)[1]


def _monodromy(sys, F, T, loop, steps):
    """The loop's one-period map, built without closedloop: scipy's expm of
    the closed loop (cc, dp) or of the Van Loan block (dc), and the RK4
    stepper on each unit vector (cp)."""
    n = sys.state_dim
    F = np.atleast_2d(F)
    if loop in ("cc", "dp"):
        return expm((sys.A + sys.B @ F) * T)
    if loop == "dc":
        block = np.zeros((n + sys.input_dim,) * 2, dtype=complex)
        block[:n, :n], block[:n, n:] = sys.A, sys.B
        E = expm(block * T)
        return E[:n, :n] + E[:n, n:] @ F
    return np.column_stack([cp_stepper(sys, F, T, e, T, T / steps)[1][-1] for e in np.eye(n)])


class TestLoopRadius:
    @pytest.mark.parametrize("loop", ["cc", "dc", "dp", "cp"])
    @pytest.mark.parametrize("seed", range(3))
    def test_dense_radius_is_the_monodromys(self, loop, seed):
        sys = random_stable_system(seed, n=4, m=2)
        pair = st.sample(sys, 0.7)
        F = st.feedback_gain(st.riccati_solve(pair), pair).F
        traj = LOOPS[loop](sys, F, 0.7, np.ones(4), 1.4, 8)
        want = np.abs(np.linalg.eigvals(_monodromy(sys, F, 0.7, loop, 8))).max()
        assert traj.loop_radius() == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("loop", ["cc", "dc", "dp", "cp"])
    @pytest.mark.parametrize("system", ["frac-heat", "schrodinger"])
    def test_per_mode_radius_is_the_dense_monodromys(self, loop, system):
        sys = (st.fractional_heat(6, 1.5, 1.0) if system == "frac-heat"
               else st.schrodinger(5, 2.0))
        F = (st.feedback_gain(st.riccati_solve(st.sample(sys, 1.0)), st.sample(sys, 1.0)).F
             if system == "frac-heat" else -0.4 * np.ones(5))
        traj = LOOPS[loop](sys, F, 1.0, np.ones(sys.state_dim), 2.0, 8)
        assert traj.monodromy.shape == (sys.state_dim,)
        want = np.abs(np.linalg.eigvals(_monodromy(to_dense(sys), np.diag(F), 1.0, loop, 8)))
        assert traj.loop_radius() == pytest.approx(want.max(), rel=1e-10)

    @pytest.mark.parametrize("system", ["oscillator", "frac-heat"])
    def test_dc_radius_is_the_gains(self, system):
        sys = st.harmonic_oscillator() if system == "oscillator" else st.fractional_heat(16, 1.5, 1.0)
        pair = st.sample(sys, 1.0)
        gain = st.feedback_gain(st.riccati_solve(pair), pair)
        traj = st.simulate_dc(sys, gain.F, 1.0, np.ones(sys.state_dim), 3.0, 4)
        assert traj.loop_radius() == pytest.approx(gain.spectral_radius, rel=1e-12)

    def test_a_trajectory_without_a_map_has_no_radius(self):
        traj = st.Trajectory([0.0, 1.0], np.ones((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="one-period map"):
            traj.loop_radius()
