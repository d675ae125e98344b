"""Riccati kernel, finite-horizon oracle, and feedback gain."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from numpy.testing import assert_allclose
from scipy.linalg import solve_discrete_are

import sampstab as st
from sampstab.serialize import save_array

from conftest import random_mixed_system, random_stabilizable_pair

GOLDEN = (1 + np.sqrt(5)) / 2


def scalar_pair(phi, d):
    return st.SampledSystem([[phi]], [[d]], 1.0)


class TestRiccatiSolve:
    def test_nilpotent_transition(self):
        sol = st.riccati_solve(scalar_pair(0.0, 0.0))
        assert sol.converged and sol.iterations <= 2
        assert_allclose(sol.K, [[1.0]], atol=1e-15)

    def test_scalar_golden_ratio(self):
        sol = st.riccati_solve(scalar_pair(1.0, 1.0))
        assert sol.converged
        assert_allclose(sol.K[0, 0].real, GOLDEN, atol=1e-10)
        assert sol.residual <= 10 * st.lqsynth.DEFAULT_TOL

    def test_uncontrolled_neutral_mode_diverges(self):
        sol = st.riccati_solve(scalar_pair(1.0, 0.0), max_iter=9)
        assert not sol.converged
        # K_j = j for this recursion, and 9 doublings take j = 2^9 steps.
        assert_allclose(sol.K[0, 0].real, 512.0, atol=1e-9)

    def test_unstable_uncontrolled_trips_trace_guard(self):
        sol = st.riccati_solve(scalar_pair(2.0, 0.0))
        assert not sol.converged
        assert sol.iterations < 100

    def test_overflowing_iterate_ends_the_doubling(self):
        # The first doubling of |phi|^2 = 1e400 overflows: the last finite
        # iterate (K_0 = I) stands, unconverged, and no warning is raised.
        pair = st.SampledSystem([[1e200, 0.0], [0.0, 0.5]], [[0.0], [1.0]], 1.0)
        sol = st.riccati_solve(pair)
        assert (sol.converged, sol.iterations, sol.residual) == (False, 1, math.inf)
        assert np.array_equal(sol.K, np.eye(2))

    def test_kernel_dominates_identity(self):
        for seed in range(6):
            pair = random_stabilizable_pair(seed)
            sol = st.riccati_solve(pair)
            assert sol.converged
            K = sol.K
            assert np.abs(K - K.conj().T).max() <= 1e-12 * np.linalg.norm(K, 2)
            w = np.linalg.eigvalsh(K)
            assert w.min() >= -1e-10
            assert np.linalg.eigvalsh(K - np.eye(K.shape[0])).min() >= -1e-8

    def test_against_scipy_dare(self):
        # Same fixed point as the standard DARE with unit weights.
        for seed in range(5):
            pair = random_stabilizable_pair(seed)
            sol = st.riccati_solve(pair)
            n = pair.state_dim
            X = solve_discrete_are(pair.Phi, pair.D, np.eye(n), np.eye(pair.input_dim))
            assert np.linalg.norm(sol.K - X, 2) <= 1e-8 * np.linalg.norm(X, 2)

    def test_doublings_are_value_iterates(self):
        # The k-th doubling is the value iterate after 2^k backward steps.
        for seed in range(4):
            pair = random_stabilizable_pair(seed)
            for k in range(1, 6):
                sol = st.riccati_solve(pair, max_iter=k)
                P = st.dp_value_iterate(pair, 2 ** sol.iterations)
                assert np.linalg.norm(sol.K - P, 2) <= 1e-12 * np.linalg.norm(P, 2)

    def test_parameter_validation(self):
        # Checked for a diagonal pair too, whose closed form uses neither.
        for pair in (scalar_pair(1.0, 1.0), st.SampledSystem([1.0], [1.0], 1.0)):
            with pytest.raises(ValueError):
                st.riccati_solve(pair, tol=0.0)
            with pytest.raises(ValueError):
                st.riccati_solve(pair, max_iter=0)


class TestValueIteration:
    def test_one_step_is_identity(self):
        pair = random_stabilizable_pair(2)
        assert_allclose(st.dp_value_iterate(pair, 1), np.eye(pair.state_dim), atol=1e-15)

    def test_scalar_two_steps(self):
        assert_allclose(st.dp_value_iterate(scalar_pair(1.0, 1.0), 2), [[1.5]], atol=1e-14)

    def test_scalar_limit_is_golden(self):
        P = st.dp_value_iterate(scalar_pair(1.0, 1.0), 60)
        assert_allclose(P[0, 0].real, GOLDEN, atol=1e-12)

    def test_horizon_validation(self):
        with pytest.raises(ValueError, match="horizon n"):
            st.dp_value_iterate(scalar_pair(1.0, 1.0), 0)

    def test_monotone_and_bounded_by_kernel(self):
        for seed in range(4):
            pair = random_stabilizable_pair(seed)
            sol = st.riccati_solve(pair)
            prev = st.dp_value_iterate(pair, 1)
            for n in (2, 5, 12, 40):
                cur = st.dp_value_iterate(pair, n)
                assert np.linalg.eigvalsh(cur - prev).min() >= -1e-9
                assert np.linalg.eigvalsh(sol.K - cur).min() >= -1e-9
                prev = cur

    def test_converges_to_kernel(self):
        for seed in range(6):
            pair = random_stabilizable_pair(seed)
            sol = st.riccati_solve(pair)
            gap = np.linalg.norm(st.dp_value_iterate(pair, 200) - sol.K, 2)
            assert gap <= 1e-6


class TestFeedbackGain:
    def test_scalar_golden_gain(self):
        pair = scalar_pair(1.0, 1.0)
        gain = st.feedback_gain(st.riccati_solve(pair), pair)
        assert_allclose(gain.F[0, 0].real, -GOLDEN / (1 + GOLDEN), atol=1e-10)
        assert_allclose(gain.closed_loop[0, 0].real, 1 / (1 + GOLDEN), atol=1e-10)
        assert_allclose(gain.spectral_radius, 1 / (1 + GOLDEN), atol=1e-10)

    def test_nilpotent_gives_zero_gain(self):
        pair = st.SampledSystem(np.zeros((2, 2)), np.array([[1.0], [0.5]]), 1.0)
        gain = st.feedback_gain(st.riccati_solve(pair), pair)
        assert_allclose(gain.F, 0.0, atol=1e-14)
        assert gain.spectral_radius == 0.0

    def test_oscillator_sampled_at_regular_period(self):
        pair = st.sample(st.harmonic_oscillator(), 1.0)
        gain = st.feedback_gain(st.riccati_solve(pair), pair)
        assert gain.spectral_radius < 1.0
        # Independent eigenvalue check of the stated radius.
        radius = np.abs(np.linalg.eigvals(pair.Phi + pair.D @ gain.F)).max()
        assert abs(radius - gain.spectral_radius) <= 1e-10

    def test_gain_formula_consistency(self):
        for seed in range(5):
            pair = random_stabilizable_pair(seed)
            sol = st.riccati_solve(pair)
            gain = st.feedback_gain(sol, pair)
            m = pair.input_dim
            lhs = (np.eye(m) + pair.D.conj().T @ sol.K @ pair.D) @ gain.F
            rhs = -pair.D.conj().T @ sol.K @ pair.Phi
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(np.linalg.norm(rhs, 2), 1.0)
            assert gain.spectral_radius < 1.0

    def test_requires_convergence(self):
        bad = st.riccati_solve(scalar_pair(1.0, 0.0), max_iter=50)
        with pytest.raises(ValueError):
            st.feedback_gain(bad, scalar_pair(1.0, 0.0))

    @pytest.mark.parametrize("pair,K", [(scalar_pair(2.0, 0.0), [[1.0]]),
                                        (st.SampledSystem([2.0], [0.0], 1.0), [1.0])])
    def test_unstable_closed_loop_is_refused(self, pair, K):
        # A kernel marked converged that leaves the uncontrolled mode 2 in place.
        sol = st.RiccatiSolution(np.array(K, dtype=complex), 0.0, 1, True)
        with pytest.raises(st.SpectralRadiusError, match="spectral radius 2 >= 1"):
            st.feedback_gain(sol, pair)

    def test_closed_loop_powers_decay(self):
        for seed in range(3):
            pair = random_stabilizable_pair(seed)
            gain = st.feedback_gain(st.riccati_solve(pair), pair)
            M = gain.closed_loop
            rng = np.random.default_rng(seed)
            y0 = rng.standard_normal(pair.state_dim)
            norms = []
            y = y0.astype(complex)
            for _ in range(60):
                y = M @ y
                norms.append(np.linalg.norm(y))
            r_fit = (norms[-1] / norms[19]) ** (1.0 / 40)
            assert r_fit < 1.0


class TestOptimalCost:
    def test_zero_state(self):
        sol = st.riccati_solve(scalar_pair(1.0, 1.0))
        assert st.lq_optimal_cost(sol, [0.0]) == 0.0

    def test_scalar_values(self):
        sol = st.riccati_solve(scalar_pair(1.0, 1.0))
        assert_allclose(st.lq_optimal_cost(sol, [1.0]), GOLDEN, atol=1e-10)
        assert_allclose(st.lq_optimal_cost(sol, [2.0]), 2 * (1 + np.sqrt(5)), atol=1e-9)

    def test_requires_convergence(self):
        bad = st.riccati_solve(scalar_pair(1.0, 0.0), max_iter=5)
        with pytest.raises(ValueError, match="converged"):
            st.lq_optimal_cost(bad, [1.0])

    def test_simulated_cost_within_kernel_bound(self):
        for seed in range(4):
            pair = random_stabilizable_pair(seed)
            sol = st.riccati_solve(pair)
            gain = st.feedback_gain(sol, pair)
            rng = np.random.default_rng(seed)
            y0 = rng.standard_normal(pair.state_dim)
            simulated = st.closed_loop_cost(gain, y0)
            assert 0.0 <= simulated <= st.lq_optimal_cost(sol, y0) + 1e-6
            # Under the optimal gain the loop's cost from i = 1 is K - I.
            kernel = st.lq_optimal_cost(sol, y0) - np.linalg.norm(y0) ** 2
            assert_allclose(simulated, kernel, rtol=1e-10)


class TestPerMode:
    """A diagonal pair (1-D Phi and D) is solved per mode in closed form."""

    # (phi, d): controlled, golden ratio, uncontrolled stable, unstable, complex.
    MODES = np.array([[0.5, 0.8], [1.0, 1.0], [0.6, 0.0], [2.0, 0.3], [0.9j, 0.2 - 0.1j]])

    def test_modes_match_scalar_doubling(self):
        pair = st.SampledSystem(self.MODES[:, 0], self.MODES[:, 1], 1.0)
        sol = st.riccati_solve(pair)
        assert sol.converged and sol.iterations == 0 and sol.K.shape == (5,)
        assert sol.residual <= 1e-15 * sol.K.max()
        gain = st.feedback_gain(sol, pair)
        y0 = np.array([0.3, -1.0, 2.0, 0.5j, 1.0])
        radius = 0.0
        for i, (phi, d) in enumerate(self.MODES):
            scalar = scalar_pair(phi, d)
            ref = st.riccati_solve(scalar)
            ref_gain = st.feedback_gain(ref, scalar)
            assert_allclose(sol.K[i], ref.K[0, 0].real, rtol=1e-13)
            assert_allclose(gain.F[i], ref_gain.F[0, 0], rtol=1e-13, atol=1e-16)
            assert_allclose(gain.closed_loop[i], ref_gain.closed_loop[0, 0], rtol=1e-13)
            radius = max(radius, ref_gain.spectral_radius)
        assert_allclose(sol.K[1], GOLDEN, rtol=1e-15)
        assert_allclose(sol.K[2], 1 / (1 - 0.36), rtol=1e-15)
        assert_allclose(gain.spectral_radius, radius, rtol=1e-13)
        dense = st.SampledSystem(np.diag(pair.Phi), np.diag(pair.D), 1.0)
        dense_sol = st.riccati_solve(dense)
        dense_gain = st.feedback_gain(dense_sol, dense)
        assert_allclose(st.lq_optimal_cost(sol, y0), st.lq_optimal_cost(dense_sol, y0),
                        rtol=1e-13)
        assert_allclose(st.closed_loop_cost(gain, y0),
                        st.closed_loop_cost(dense_gain, y0), rtol=1e-12)
        assert_allclose(st.closed_loop_cost(gain, y0),
                        st.lq_optimal_cost(sol, y0) - np.linalg.norm(y0) ** 2, rtol=1e-12)

    @pytest.mark.parametrize("phi", [1.0, -1j, 1.5, np.exp(0.3j)])
    def test_uncontrolled_unstable_or_neutral_mode_diverges(self, phi):
        pair = st.SampledSystem([0.5, phi], [1.0, 0.0], 1.0)
        assert not st.riccati_solve(pair).converged
        assert not st.riccati_solve(st.SampledSystem(np.diag(pair.Phi), np.diag(pair.D),
                                                     1.0)).converged

    def test_trace_guard(self):
        # Each mode's k is finite, but their sum passes the guard.
        pair = st.SampledSystem([1.0] * 4, [3e-12] * 4, 1.0)
        sol = st.riccati_solve(pair)
        assert sol.K.max() < 1e12 < sol.K.sum()
        assert not sol.converged

    def test_report_lists_are_the_per_mode_arrays(self, tmp_path):
        # A diagonal pair saves its n per-mode entries per array, bit for bit;
        # a dense pair keeps its n x n matrices.
        modes = st.SampledSystem(self.MODES[:, 0], self.MODES[:, 1], 1.0)
        dense = st.SampledSystem(np.diag(modes.Phi), np.diag(modes.D), 1.0)
        for pair, shape in ((modes, (5,)), (dense, (5, 5))):
            sol = st.riccati_solve(pair)
            gain = st.feedback_gain(sol, pair)

            def save(name, a):
                return save_array(a, tmp_path / f"{name}.npy")

            for key, desc, want in (("K", sol.to_json(save)["K"], sol.K),
                                    ("F", gain.to_json(save)["F"], gain.F),
                                    ("closed_loop", gain.to_json(save)["closed_loop"],
                                     gain.closed_loop)):
                got = np.load(tmp_path / desc["file"])
                assert got.shape == shape and desc["shape"] == list(shape), key
                assert got.dtype == want.dtype and desc["dtype"] == str(want.dtype), key
                assert got.tobytes() == want.tobytes(), key

    def test_synthesizes_1e5_modes_in_little_memory(self):
        # The dense n x n kernel alone would take 160 GB.
        heat = st.fractional_heat(10**5, 1.5, 1.0)
        tracemalloc.start()
        try:
            pair = st.sample(heat, 1.0)
            gain = st.feedback_gain(st.riccati_solve(pair), pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert gain.F.shape == (10**5,) and gain.spectral_radius < 1.0


def synthesizes_where_feasible(system, T) -> bool:
    """analyze-feasible at T implies a converged kernel with rho < 1.

    Returns whether the discrete decision was feasible, so callers can check
    that a sweep is not vacuous.
    """
    try:
        feasible = st.decide_dc(system, T).feasible
    except st.SearchExhausted:
        return False
    if feasible:
        pair = st.sample(system, T)
        sol = st.riccati_solve(pair)
        assert sol.converged, f"T={T!r}: {sol.iterations} doublings"
        assert st.feedback_gain(sol, pair).spectral_radius < 1.0
    return feasible


class TestAnalyzeSynthesizeAgreement:
    def test_oscillator_sweep(self):
        osc = st.harmonic_oscillator()
        grid = [round(0.05 * k, 10) for k in range(1, 200)]  # 0.05 .. 9.95
        assert sum(synthesizes_where_feasible(osc, T) for T in grid) >= 190

    @pytest.mark.parametrize("T", [3.1415, 3.14159, 3.1416, 6.2831, 6.28318,
                                   math.pi - 1e-3, math.pi + 1e-3])
    def test_oscillator_near_degenerate_periods(self, T):
        assert synthesizes_where_feasible(st.harmonic_oscillator(), T)

    @settings(max_examples=25, deadline=None)
    @given(seed=hs.integers(0, 2 ** 32 - 1), T=hs.sampled_from([0.3, 1.0, 2.5]))
    def test_random_mixed_systems(self, seed, T):
        synthesizes_where_feasible(random_mixed_system(seed), T)
