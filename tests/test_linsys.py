"""System representations, flows, and sampled operators."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hs
from numpy.testing import assert_allclose

import sampstab as st
from sampstab import obscheck
from sampstab.linsys import _van_loan, expm

from conftest import (expm_taylor, random_mixed_system, random_neutral_system,
                      random_stable_system, sampled_pairs_oracle, to_dense, van_loan_oracle)


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


def _rel_1norm(got, want) -> float:
    return np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)


def _random_matrix(seed: int, n: int, norm: float, kind: str) -> np.ndarray:
    """A complex n x n matrix of 1-norm norm: dense, strictly upper triangular
    (nilpotent), or a Jordan-like block lambda I + N."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind != "dense":
        M = np.triu(M, 1)
    scale = np.linalg.norm(M, 1)
    M = M * (norm / scale) if scale else M
    if kind == "jordan":
        lam = complex(*rng.uniform(-1.0, 1.0, 2))
        M = M / 2 + lam * (norm / 2 / abs(lam)) * np.eye(n)
    return M


class TestExpm:
    """linsys.expm against scipy.linalg.expm and exact exponentials."""

    @settings(max_examples=300, deadline=None)
    @given(seed=hs.integers(0, 2 ** 32 - 1), n=hs.integers(1, 10), norm=hs.floats(0.0, 50.0),
           kind=hs.sampled_from(["dense", "nilpotent", "jordan"]))
    def test_matches_scipy(self, seed, n, norm, kind):
        M = _random_matrix(seed, n, norm, kind)
        assert _rel_1norm(expm(M), scipy.linalg.expm(M)) <= 1e-13

    @settings(max_examples=50, deadline=None)
    @given(seed=hs.integers(0, 2 ** 32 - 1), n=hs.integers(1, 6), size=hs.integers(1, 12))
    def test_stack_members_are_single_calls_bit_for_bit(self, seed, n, size):
        rng = np.random.default_rng(seed)
        kinds = ["dense", "nilpotent", "jordan"]
        stack = np.array([_random_matrix(seed + i, n, rng.uniform(0.0, 300.0), kinds[i % 3])
                          for i in range(size)])
        stack[rng.integers(size)] *= 1e3  # one member overflows or squares far more often
        got = expm(stack.reshape(size, 1, n, n))
        assert got.shape == (size, 1, n, n)
        for M, E in zip(stack, got[:, 0]):
            assert np.array_equal(E, expm(M), equal_nan=True)
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert np.isfinite(E).all() or not np.isfinite(scipy.linalg.expm(M)).all()

    @settings(max_examples=200, deadline=None)
    @given(seed=hs.integers(0, 2 ** 32 - 1), n=hs.integers(1, 8), log_norm=hs.floats(0.0, 3.0))
    def test_stiff_normal_matrices_match_the_exact_exponential(self, seed, n, log_norm):
        # A = Q diag(lambda) Q* with one mode at Re lambda = 0 and the others
        # down to -10**log_norm.  scipy is no reference here: it differs from
        # the exact value by about as much as expm does.
        rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        re = -rng.uniform(0.0, 1.0, n)
        re[0] = 0.0
        lam = 10.0 ** log_norm * (re + 1j * rng.uniform(-1.0, 1.0, n))
        exact = Q @ np.diag(np.exp(lam)) @ Q.conj().T
        assert _rel_1norm(expm(Q @ np.diag(lam) @ Q.conj().T), exact) <= 1e-12

    def test_triangular_diagonal_is_exact(self):
        M = np.triu(np.arange(1.0, 17.0).reshape(4, 4)) * (3.0 + 1.0j)
        assert np.array_equal(np.diag(expm(M)), np.exp(np.diag(M)))

    def test_overflow_is_non_finite_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(expm([[800.0, 1.0], [1.0, 800.0]])).all()
            assert np.isnan(expm(np.full((2, 2), 1e308))).all()  # the 1-norm overflows
            for sys in (st.ContinuousSystem([[800.0]], [[1.0]]),
                        st.ContinuousSystem([[800.0, 1.0], [1.0, 800.0]], [[1.0], [0.0]])):
                with pytest.raises(st.NumericOverflowError, match="semigroup"):
                    st.semigroup(sys, 10.0)
                with pytest.raises(st.NumericOverflowError, match="sampled pair"):
                    st.sample(sys, 10.0)


def _first_steps(monkeypatch, sys, T_h: float) -> list:
    """The (X, Y, E, F) of each linsys._van_loan call of continuous_gramian(sys, T_h)."""
    steps = []

    def spy(X, Y, step=obscheck._van_loan):
        steps.append((X, Y, *step(X, Y)))
        return steps[-1][2:]

    monkeypatch.setattr(obscheck, "_van_loan", spy)
    st.continuous_gramian(sys, T_h)
    return steps


VAN_LOAN_SYSTEMS = {
    "stable": lambda n: random_stable_system(n, n=n, m=min(n, 2)),
    "mixed": lambda n: random_mixed_system(n, n=n, m=min(n, 2)),
    "stiff-heat": lambda n: to_dense(st.fractional_heat(n, 2.0, 1.0, xi_max=20.0)),
    "schrodinger": lambda n: to_dense(st.schrodinger(n, 4.0)),
    # ||A||_inf = n - 1/2 against ||A||_1 = 3/2: the step is sized by the larger norm,
    # which bounds the block's right-hand columns.
    "one-row": lambda n: st.ContinuousSystem(np.eye(n) * -0.5 + np.eye(n, 1) @ np.ones((1, n)),
                                             np.ones((n, 1))),
    # B B* far above A: F is linear in B B*, so its size adds no squarings to the
    # step; the oracle scales its block down by a power of two.
    "B-1e3": lambda n: st.ContinuousSystem(random_mixed_system(n, n=n).A, 1e3 * np.ones((n, 1))),
    "B-1e9": lambda n: st.ContinuousSystem(random_mixed_system(n, n=n).A, 1e9 * np.ones((n, 1))),
}


class TestVanLoan:
    """linsys._van_loan against the order-2n block exponential it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 8, 128])
    @pytest.mark.parametrize("name", sorted(VAN_LOAN_SYSTEMS))
    def test_matches_the_block_exponential(self, monkeypatch, name, n):
        sys = VAN_LOAN_SYSTEMS[name](n)
        diagonal = not np.any(sys.A - np.diag(np.diagonal(sys.A)))
        for T_h in (1.0, 5.0):
            [(X, Y, E, F)] = _first_steps(monkeypatch, sys, T_h)
            E_want, F_want = van_loan_oracle(X, Y)
            assert np.abs(E - E_want).max() <= 1e-13 * np.abs(E_want).max()
            assert np.abs(F - F_want).max() <= 1e-13 * np.abs(F_want).max()
            assert np.array_equal(E, expm(X))
            if diagonal:  # the exact diagonal expm sets on the triangular block
                assert np.array_equal(np.diagonal(E), np.exp(np.diagonal(X)))
                assert np.array_equal(np.diagonal(E), np.diagonal(E_want))

    def test_a_non_finite_block_raises_at_the_first_horizon(self):
        # B B* overflows: the scaled block holds 0 * inf = NaN.
        sys = st.ContinuousSystem(random_mixed_system(1, n=3).A, 1e200 * np.ones((3, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (st.continuous_gramian, st.decide_cc):
                with pytest.raises(st.NumericOverflowError, match="non-finite"):
                    call(sys, 1.0)
            E, F = _van_loan(np.eye(3, dtype=complex), np.full((3, 3), np.nan, dtype=complex))
        assert np.isnan(E).all() and np.isnan(F).all()

    def test_refuses_a_block_that_needs_squaring(self):
        with pytest.raises(ValueError, match="theta_13"):
            _van_loan(6.0 * np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))


SAMPLED_SYSTEMS = {
    "stable": lambda n: random_stable_system(n, n=n, m=min(n, 2)),
    "mixed": lambda n: random_mixed_system(n, n=n, m=min(n, 2)),
    "stiff-heat": lambda n: to_dense(st.fractional_heat(n, 2.0, 1.0, xi_max=20.0)),
    "one-row": VAN_LOAN_SYSTEMS["one-row"],
    "triangular": lambda n: st.ContinuousSystem(np.triu(random_mixed_system(n, n=n).A),
                                                np.ones((n, 1))),
    "B-1e3": VAN_LOAN_SYSTEMS["B-1e3"],
    "B-1e9": VAN_LOAN_SYSTEMS["B-1e9"],
}


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
        periods = [0.4, 1.0, 3.1415]
        for sys in (st.harmonic_oscillator(), *(random_mixed_system(n, n=n) for n in (2, 4, 8)),
                    random_mixed_system((7, 128, 8), n=128, m=8),
                    to_dense(st.fractional_heat(64, 2.0, 1.0, xi_max=20.0))):
            Phi, _ = st.sample_periods(sys, periods)
            for T, P in zip(periods, Phi):
                assert np.array_equal(P, st.semigroup(sys, T))
                assert np.array_equal(st.sample(sys, T).Phi, P)

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("name", sorted(SAMPLED_SYSTEMS))
    def test_pair_matches_the_block_exponential(self, name, n):
        # The order-n pair against the order-(n + m) block it replaced.
        sys = SAMPLED_SYSTEMS[name](n)
        periods = [0.01, 0.5, 1.0, 3.1415, 5.0, 40.0]
        for got, want in zip(st.sample_periods(sys, periods), sampled_pairs_oracle(sys, periods)):
            err = np.abs(got - want).max(axis=(1, 2))
            assert (err <= 1e-13 * np.abs(want).max(axis=(1, 2))).all()

    def test_a_large_input_block_adds_no_squarings(self):
        # B T far above A T: the case the oracle scales its input block for.
        sys = st.ContinuousSystem([[300.0]], [[1e140]])
        for got, want in zip(st.sample_periods(sys, [0.5]), sampled_pairs_oracle(sys, [0.5])):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

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
