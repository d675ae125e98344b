"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import math
import time

import numpy as np
import pytest

import sampstab as st

from conftest import (det_lambda_quadrature, gaussian_violations_oracle, random_cc_stabilized,
                      random_mixed_system, random_stabilizable_pair, random_unit_states,
                      to_dense)

GOLDEN = (1 + math.sqrt(5)) / 2


class _Stopwatch:
    def __init__(self, label, budget_s):
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\nacceptance {self.label}: {verdict} [{elapsed:.2f} s]")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"{self.label} exceeded its {self.budget_s} s budget: {elapsed:.2f} s")
        return False


def test_criterion_1_riccati_golden_value():
    with _Stopwatch("1 (riccati golden value)", 1.0):
        pair = st.SampledSystem([[1.0]], [[1.0]], 1.0)
        sol = st.riccati_solve(pair)
        assert sol.converged
        assert abs(sol.K[0, 0].real - GOLDEN) <= 1e-10
        gain = st.feedback_gain(sol, pair)
        assert abs(gain.F[0, 0].real - (-GOLDEN / (1 + GOLDEN))) <= 1e-10
        assert abs(gain.spectral_radius - 1 / (1 + GOLDEN)) <= 1e-10
        assert gain.spectral_radius < 1.0


def test_criterion_2_dp_oracle_agreement():
    with _Stopwatch("2 (dp oracle agreement, 50 pairs)", 30.0):
        ladder = list(range(1, 31)) + [50, 100, 150, 200]
        for seed in range(50):
            pair = random_stabilizable_pair(seed)
            sol = st.riccati_solve(pair)
            assert sol.converged
            prev = None
            for n in ladder:
                cur = st.dp_value_iterate(pair, n)
                if prev is not None:
                    assert np.linalg.eigvalsh(cur - prev).min() >= -1e-9
                prev = cur
            assert np.linalg.norm(prev - sol.K, 2) <= 1e-6


def test_criterion_3_pathological_period_dichotomy():
    with _Stopwatch("3 (period dichotomy + determinant)", 10.0):
        osc = st.harmonic_oscillator()
        for k in (1, 2, 3):
            cert = st.decide_dc(osc, k * np.pi, N_max=8, delta_target=0.9)
            assert not cert.feasible
            assert abs(cert.kernel_norm - 1.0) <= 1e-9
        for T in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0):
            cert = st.decide_dc(osc, T, N_max=8, delta_target=0.9)
            assert cert.feasible
        rng = np.random.default_rng(314)
        for T in rng.uniform(1e-3, 10.0, size=100):
            assert abs(st.det_lambda(float(T)) - det_lambda_quadrature(float(T))) <= 1e-12


@pytest.mark.parametrize("label,system,T", [
    ("oscillator", st.harmonic_oscillator(), 1.0),
    ("fractional heat", st.fractional_heat(64, 1.5, 1.0), 1.0),
])
def test_criterion_4_stabilization_end_to_end(label, system, T):
    with _Stopwatch(f"4 (end-to-end stabilization, {label})", 20.0):
        cert = st.decide_dc(system, T, N_max=8, delta_target=0.9)
        assert cert.feasible
        pair = st.sample(system, T)
        sol = st.riccati_solve(pair)
        assert sol.converged
        gain = st.feedback_gain(sol, pair)
        assert gain.spectral_radius < 1.0
        n = system.state_dim
        y0 = np.ones(n) / math.sqrt(n)
        traj = st.simulate_dc(system, gain.F, T, y0, 40 * T, 8)
        omega, _ = st.fit_decay(traj)
        assert omega > 0.0
        norms = traj.norms()
        assert norms[-1] / norms[0] <= 1e-3


def test_criterion_5_sample_instant_equivalence():
    with _Stopwatch("5 (sampled/continuous equivalence, 20 systems)", 60.0):
        for seed in range(20):
            sys, F = random_cc_stabilized(seed, n=3, m=2)
            T = 0.5 + 0.05 * (seed % 5)
            rng = np.random.default_rng(1000 + seed)
            y0 = rng.standard_normal(3)
            steps = 8
            dp = st.simulate_dp(sys, F, T, y0, 20 * T, steps)
            cc = st.simulate_cc(sys, F, T, y0, 20 * T, steps)
            for k in range(21):
                ref = cc.states[k * steps]
                err = np.linalg.norm(dp.states[k * steps] - ref)
                assert err <= 1e-8 * max(np.linalg.norm(ref), 1e-280)


def test_criterion_6_schrodinger_witness_matrix():
    with _Stopwatch("6 (witness matrix + damped direction)", 30.0):
        for T in (0.5, 1.0, 2.0):
            for N in (1, 2, 4):
                for eps in (0.1, 0.01):
                    _, lo, hi = st.witness_band(T, N, eps)
                    spacing = (hi - lo) / 256
                    grid = np.arange(0.0, 1.05 * hi, spacing)
                    wit = st.schrodinger_witness(T, N, eps, grid)
                    assert abs(wit.norm() - 1.0) <= 1e-12
                    assert wit.observed <= eps
                    assert wit.observed <= wit.bound + 1e-10
        sch = to_dense(st.schrodinger(33, 4.0))
        y0 = np.ones(33) / math.sqrt(33)
        traj = st.simulate_cc(sch, -0.3 * np.eye(33), 1.0, y0, 15.0, 4)
        omega, _ = st.fit_decay(traj)
        assert abs(omega - 0.3) <= 1e-3


def test_criterion_7_openness_sweep():
    with _Stopwatch("7 (openness sweep over 199 periods)", 120.0):
        osc = st.harmonic_oscillator()
        grid = [round(0.05 * k, 10) for k in range(1, 200)]  # 0.05 .. 9.95
        feasible = []
        for T in grid:
            try:
                feasible.append(st.decide_dc(osc, T, N_max=8, delta_target=0.9).feasible)
            except st.SearchExhausted:
                feasible.append(False)
        degenerate = (np.pi, 2 * np.pi, 3 * np.pi)
        for T, ok in zip(grid, feasible):
            if not ok:
                assert min(abs(T - m) for m in degenerate) <= 0.05
        # Every feasible point belongs to a run of >= 3 consecutive feasible points.
        runs = []
        start = None
        for i, ok in enumerate(feasible + [False]):
            if ok and start is None:
                start = i
            elif not ok and start is not None:
                runs.append((start, i - 1))
                start = None
        for lo, hi in runs:
            assert hi - lo + 1 >= 3


def test_criterion_8_hoelder_bridge():
    with _Stopwatch("8 (interval blocks vs running energy, 50 systems)", 30.0):
        for seed in range(50):
            sys = random_mixed_system(seed)
            rng = np.random.default_rng(5000 + seed)
            T = float(rng.uniform(0.1, 2.0))
            N = int(rng.integers(1, 5))
            gd = st.discrete_gramian(sys, T, N)
            gc = st.continuous_gramian(sys, N * T)
            phis = random_unit_states(rng, sys.state_dim, 100)
            lhs = np.real(np.einsum("ij,ik,kj->j", phis.conj(), gd.G, phis))
            rhs = np.real(np.einsum("ij,ik,kj->j", phis.conj(), gc.G, phis))
            assert np.all(lhs <= T * rhs + 1e-10)


def test_criterion_9_certificate_vs_brute_force():
    with _Stopwatch("9 (certificates vs 10^4 random states, 20 systems)", 30.0):
        for seed in range(20):
            sys = random_mixed_system(seed)
            cert = st.decide_dc(sys, 0.7, N_max=8, delta_target=0.9)
            assert cert.feasible
            g = st.discrete_gramian(sys, 0.7, int(cert.N))
            violations = gaussian_violations_oracle(g, cert.C, cert.delta, 10_000, 7000 + seed)
            assert violations.max() <= 1e-8
