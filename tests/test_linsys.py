"""System representations, flows, and sampled operators."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sampstab as st

from conftest import expm_taylor, random_neutral_system, random_stable_system, to_dense


def rotation(t):
    return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])


class TestSystemTypes:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            st.ContinuousSystem([[0.0, 1.0]], [[1.0]])
        with pytest.raises(ValueError):
            st.ContinuousSystem([[0.0]], [[1.0], [2.0]])

    def test_spectral_validation(self):
        sym = st.linsys.frac_heat_symbol(2.0, 0.0)
        with pytest.raises(ValueError):
            st.SpectralSystem([1.0, 1.0], sym, [1.0, 1.0])  # repeated modes
        with pytest.raises(ValueError):
            st.SpectralSystem([1.0, 2.0], sym, [0.5, 1.5])  # mask out of range
        with pytest.raises(ValueError):
            st.SpectralSystem([1.0, 2.0], sym, [1.0])  # mask length

    def test_sampled_validation(self):
        with pytest.raises(ValueError):
            st.SampledSystem(np.eye(2), np.ones((2, 1)), 0.0)
        with pytest.raises(ValueError):
            st.SampledSystem(np.eye(2), np.ones((3, 1)), 1.0)


class TestSemigroup:
    def test_zero_generator(self):
        sys = st.ContinuousSystem([[0.0]], [[1.0]])
        assert_allclose(st.semigroup(sys, 5.0), [[1.0]])

    def test_dense_time_zero_is_the_identity(self):
        S = st.semigroup(st.harmonic_oscillator(), 0.0)
        assert S.dtype == complex and np.array_equal(S, np.eye(2))

    @pytest.mark.parametrize("t", [0.1, 1.0, np.pi])
    def test_rotation_closed_form(self, t):
        osc = st.harmonic_oscillator()
        S = st.semigroup(osc, t)
        assert_allclose(S, rotation(t), atol=1e-14)
        assert_allclose(S, expm_taylor(osc.A * t), atol=1e-13)

    def test_schrodinger_mode_entry(self):
        sch = st.schrodinger(5, 2.0)  # grid contains xi = 2
        T = 0.7
        S = st.semigroup(sch, T)
        k = np.argmin(np.abs(sch.modes - 2.0))
        assert_allclose(S[k], np.exp(4j * T), atol=1e-14)
        assert abs(abs(S[k]) - 1.0) < 1e-15

    def test_semigroup_law(self):
        for seed in range(6):
            sys = random_stable_system(seed) if seed % 2 else random_neutral_system(seed)
            rng = np.random.default_rng(100 + seed)
            s, t = rng.uniform(0.05, 1.5, size=2)
            lhs = st.semigroup(sys, s + t)
            rhs = st.semigroup(sys, s) @ st.semigroup(sys, t)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * np.linalg.norm(lhs, 2)

    def test_unitary_modulus(self):
        sch = st.schrodinger(64, 5.0)
        for t in (0.3, 2.0):
            d = st.semigroup(sch, t)
            assert np.abs(np.abs(d) - 1.0).max() <= 1e-12

    def test_spectral_flow_is_the_1d_exponential(self):
        for sys in (st.fractional_heat(33, 1.5, 1.0), st.schrodinger(17, 3.0)):
            for t in (0.0, 0.3, 2.0):
                S = st.semigroup(sys, t)
                assert S.shape == (sys.state_dim,)
                assert np.array_equal(S, np.exp(sys.symbol_values * t))
            # The sampled transition is this flow, bit for bit.
            assert np.array_equal(st.sample(sys, 0.7).Phi, st.semigroup(sys, 0.7))

    def test_spectral_flow_in_little_memory(self):
        # An n x n diagonal at n = 2048 would take 64 MiB.
        heat = st.fractional_heat(2048, 1.5, 1.0)
        tracemalloc.start()
        try:
            st.semigroup(heat, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_time_is_refused(self, t):
        for sys in (st.harmonic_oscillator(), st.schrodinger(8, 2.0)):
            with pytest.raises(ValueError, match="finite"):
                st.semigroup(sys, t)
            with pytest.raises(ValueError, match="finite"):
                st.sample(sys, t)
            with pytest.raises(ValueError, match="finite"):
                st.continuous_gramian(sys, t)

    def test_negative_time_rules(self):
        with pytest.raises(ValueError):
            st.semigroup(st.harmonic_oscillator(), -0.1)
        heat = st.fractional_heat(5, 2.0, 0.0)
        with pytest.raises(ValueError):
            st.semigroup(heat, -0.1)
        # A unitary symbol's flow is a group, but semigroup stays on t >= 0.
        with pytest.raises(ValueError):
            st.semigroup(st.schrodinger(8, 2.0), -1.2)

    def test_overflow_reported(self):
        sys = st.ContinuousSystem([[800.0]], [[1.0]])
        with pytest.raises(st.NumericOverflowError):
            st.semigroup(sys, 10.0)


class TestSample:
    def test_zero_generator(self):
        sys = st.ContinuousSystem([[0.0]], [[1.0]])
        p = st.sample(sys, 2.0)
        assert_allclose(p.Phi, [[1.0]])
        assert_allclose(p.D, [[2.0]])

    def test_scalar_exponential(self):
        sys = st.ContinuousSystem([[1.0]], [[1.0]])
        p = st.sample(sys, 1.0)
        assert_allclose(p.Phi[0, 0], np.e, rtol=1e-14)
        assert_allclose(p.D[0, 0], np.e - 1.0, rtol=1e-13)

    def test_oscillator_half_turn(self):
        p = st.sample(st.harmonic_oscillator(), np.pi)
        assert_allclose(p.Phi, -np.eye(2), atol=1e-14)

    def test_spectral_pair_is_diagonal(self):
        heat = st.fractional_heat(9, 1.7, 0.5, mask=[1, 0.5, 0] * 3)
        p = st.sample(heat, 0.8)
        assert p.Phi.shape == p.D.shape == (9,)
        assert p.state_dim == p.input_dim == heat.input_dim == 9
        assert_allclose(p.D[2::3], 0.0)
        with pytest.raises(ValueError):
            st.SampledSystem(p.Phi, np.diag(p.D), 0.8)
        with pytest.raises(ValueError):
            st.SampledSystem(p.Phi, p.D[:-1], 0.8)
        with pytest.raises(ValueError):
            st.SampledSystem(p.Phi, np.full(9, np.nan), 0.8)

    def test_phi_matches_semigroup(self):
        for seed in range(4):
            sys = random_stable_system(seed)
            T = 0.4 + 0.2 * seed
            assert np.abs(st.sample(sys, T).Phi - st.semigroup(sys, T)).max() <= 1e-14

    def test_input_map_against_inverse_formula(self):
        # For invertible A: D = A^{-1} (exp(AT) - I) B.
        for seed in range(5):
            sys = random_stable_system(seed)
            T = 0.7
            p = st.sample(sys, T)
            n = sys.state_dim
            D_ref = np.linalg.solve(sys.A, (st.semigroup(sys, T) - np.eye(n)) @ sys.B)
            assert np.linalg.norm(p.D - D_ref, 2) <= 1e-10 * np.linalg.norm(D_ref, 2)

    def test_overflowing_input_map_is_numeric_failure(self):
        # exp(0.1 T) is finite at T = 7090, but its integral (exp(0.1 T) - 1) / 0.1 is not.
        heat = st.fractional_heat(1, 1.5, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(st.NumericOverflowError):
                st.sample(heat, 7090.0)

    def test_spectral_matches_dense(self):
        heat = st.fractional_heat(9, 1.7, 0.5)
        p_spec = st.sample(heat, 0.8)
        p_dense = st.sample(to_dense(heat), 0.8)
        assert_allclose(np.diag(p_spec.Phi), p_dense.Phi, atol=1e-12)
        assert_allclose(np.diag(p_spec.D), p_dense.D, atol=1e-12)


class TestObservationBlock:
    """The Gramian sum of the observation blocks W_i, which integrate
    B* exp(At)* over [(i-1)T, iT]: W_1 = D*, G_N = sum_{i <= N} W_i* W_i."""

    def test_scalar_integrator(self):
        sys = st.ContinuousSystem([[0.0]], [[1.0]])
        assert_allclose(st.discrete_gramian(sys, 3.0, 1).G, [[9.0]])

    def test_oscillator_against_quadrature(self):
        # W_i phi integrates phi_1 sin t + phi_2 cos t over [(i-1)T, iT].
        from scipy.integrate import quad
        osc = st.harmonic_oscillator()
        T = 0.9
        W = [np.array([quad(np.sin, (i - 1) * T, i * T, epsabs=1e-14)[0],
                       quad(np.cos, (i - 1) * T, i * T, epsabs=1e-14)[0]])
             for i in range(1, 5)]
        for N in (1, 2, 4):
            want = sum(np.outer(w, w) for w in W[:N])
            assert_allclose(st.discrete_gramian(osc, T, N).G, want, atol=1e-12)
        assert_allclose(st.sample(osc, T).D.ravel(), W[0], atol=1e-12)

    def test_oscillator_half_turn_block(self):
        assert_allclose(st.sample(st.harmonic_oscillator(), np.pi).D, [[2.0], [0.0]], atol=1e-12)
        assert_allclose(st.discrete_gramian(st.harmonic_oscillator(), np.pi, 1).G,
                        [[4.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_shift_consistency(self):
        # W_{i+1} = W_i exp(AT)*, so period i+1 adds exp(AiT) W_1* W_1 exp(AiT)*.
        for seed in range(4):
            sys = random_stable_system(seed)
            T = 0.6
            D = st.sample(sys, T).D
            for i in (1, 2, 3):
                R = st.semigroup(sys, i * T)
                step = st.discrete_gramian(sys, T, i + 1).G - st.discrete_gramian(sys, T, i).G
                assert np.abs(step - R @ D @ D.conj().T @ R.conj().T).max() <= 1e-12

    def test_index_validation(self):
        with pytest.raises(ValueError):
            st.discrete_gramian(st.harmonic_oscillator(), 1.0, 0)


class TestToDense:
    def test_single_mode(self):
        sysd = to_dense(st.SpectralSystem([0.0], lambda xi: -np.ones_like(xi) + 0j, [1.0]))
        assert_allclose(sysd.A, [[-1.0]])
        assert_allclose(sysd.B, [[1.0]])

    def test_frac_heat_symbol_values(self):
        sysd = to_dense(st.fractional_heat(2, 2.0, 0.0, modes=[1.0, 2.0]))
        assert_allclose(sysd.A, np.diag([-1.0, -4.0]), atol=1e-14)

    def test_schrodinger_single_mode(self):
        sysd = to_dense(st.SpectralSystem([1.0], st.linsys.schrodinger_symbol(), [1.0]))
        assert_allclose(sysd.A, [[1j]])
        assert_allclose(sysd.B, [[1.0]])


class TestTransitionIntegral:
    """J_T = int_0^T exp(As) ds is the input map D of the sampled pair with B = I."""

    def test_scalar(self):
        sys = st.ContinuousSystem([[-1.0]], [[1.0]])
        assert_allclose(st.sample(sys, 1.0).D[0, 0], 1 - np.exp(-1), rtol=1e-13)

    def test_matches_quadrature(self):
        from scipy.integrate import fixed_quad
        sys = random_stable_system(1, n=3)
        T = 0.8
        J = st.sample(st.ContinuousSystem(sys.A, np.eye(3)), T).D
        ref = np.zeros_like(J)
        for p in range(3):
            for q in range(3):
                re = fixed_quad(lambda s: np.array([st.semigroup(sys, x)[p, q].real for x in s]), 0, T, n=40)[0]
                im = fixed_quad(lambda s: np.array([st.semigroup(sys, x)[p, q].imag for x in s]), 0, T, n=40)[0]
                ref[p, q] = re + 1j * im
        assert_allclose(J, ref, atol=1e-9)

    def test_subnormal_spectral_entry(self):
        # Complex division by a subnormal lambda overflows; the integral is T.
        heat = st.fractional_heat(3, 2.0, 1e-310)
        J = st.sample(heat, 0.7).D
        edge = (1 - np.exp(-16 * 0.7)) / 16
        assert_allclose(J, [edge, 0.7, edge], rtol=1e-13)


class TestJson:
    def test_dense_round_trip(self):
        sys = random_stable_system(3, n=3, m=2)
        doc = st.system_to_json(sys)
        back = st.system_from_json(json.loads(json.dumps(doc)))
        assert_allclose(back.A, sys.A)
        assert_allclose(back.B, sys.B)

    def test_complex_entries_as_pairs(self):
        doc = {"A": [[[0.0, 1.0]]], "B": [[1.0]]}
        sys = st.system_from_json(doc)
        assert sys.A[0, 0] == 1j

    def test_spectral_round_trip(self):
        heat = st.fractional_heat(7, 1.5, 1.0)
        back = st.system_from_json(st.system_to_json(heat))
        assert_allclose(back.modes, heat.modes)
        assert_allclose(back.symbol_values, heat.symbol_values)
        sch = st.schrodinger(5, 2.0)
        back = st.system_from_json(st.system_to_json(sch))
        assert_allclose(back.symbol_values, sch.symbol_values)

    def test_bad_documents(self):
        with pytest.raises(ValueError):
            st.system_from_json({"A": [[0.0]]})
        with pytest.raises(ValueError):
            st.system_from_json({"symbol": "unknown", "modes": [1.0]})
        with pytest.raises(ValueError):
            st.system_from_json({"A": [[0.0, 1.0], [2.0]], "B": [[1.0], [1.0]]})
