"""Gramians, weak observability feasibility, and period pathology."""

import tracemalloc
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from numpy.testing import assert_allclose

import sampstab as st
from sampstab import obscheck
from sampstab.linsys import schrodinger_symbol
from sampstab.obscheck import brute_force_max_violation

from conftest import (bisect_verdict, random_mixed_system, random_neutral_system,
                      random_stable_system, random_unit_states, scratch_bundle)

OSC = st.harmonic_oscillator()


def scalar_system(a, b):
    return st.ContinuousSystem([[a]], [[b]])


class TestDiscreteGramian:
    def test_scalar_integrator(self):
        g = st.discrete_gramian(scalar_system(0.0, 1.0), 1.0, 3)
        assert_allclose(g.G, [[3.0]], atol=1e-13)
        assert_allclose(g.R, [[1.0]], atol=1e-14)

    def test_oscillator_degenerate_period(self):
        g = st.discrete_gramian(OSC, np.pi, 2)
        assert g.kernel_dim == 1
        # The kernel is the cos-component direction (0, 1).
        assert abs(abs(g.kernel_basis[1, 0]) - 1.0) < 1e-12

    def test_oscillator_regular_period(self):
        g = st.discrete_gramian(OSC, np.pi / 2, 2)
        assert g.kernel_dim == 0

    def test_psd_and_hermitian(self):
        for seed in range(4):
            sys = random_mixed_system(seed)
            g = st.discrete_gramian(sys, 0.5, 3)
            assert np.abs(g.G - g.G.conj().T).max() < 1e-14
            w = np.linalg.eigvalsh(g.G)
            assert w.min() >= -1e-12 * max(np.linalg.norm(g.G, 2), 1.0)

    def test_kernel_basis_orthonormal(self):
        g = st.discrete_gramian(OSC, np.pi, 3)
        P = g.kernel_basis
        assert_allclose(P.conj().T @ P, np.eye(P.shape[1]), atol=1e-12)


class TestCheckInequality:
    def test_scalar_stable_no_control(self):
        g = st.discrete_gramian(scalar_system(-1.0, 0.0), 1.0, 1)
        cert = st.check_inequality(g, 0.0, 0.5)
        assert cert.feasible
        assert_allclose(cert.margin, np.exp(-2) - 0.5, atol=1e-12)

    def test_scalar_neutral_no_control(self):
        g = st.discrete_gramian(scalar_system(0.0, 0.0), 1.0, 1)
        for C in (0.0, 10.0, 1e6):
            assert not st.check_inequality(g, C, 0.5).feasible

    def test_oscillator_degenerate_always_infeasible(self):
        for N in (1, 2, 5):
            g = st.discrete_gramian(OSC, np.pi, N)
            for C in (0.0, 1.0, 1e9):
                assert not st.check_inequality(g, C, 0.99).feasible

    def test_parameter_validation(self):
        g = st.discrete_gramian(scalar_system(-1.0, 1.0), 1.0, 1)
        with pytest.raises(ValueError):
            st.check_inequality(g, -1.0, 0.5)
        with pytest.raises(ValueError):
            st.check_inequality(g, 1.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        C=hs.floats(0.0, 50.0),
        dC=hs.floats(0.0, 50.0),
        delta=hs.floats(0.05, 0.9),
        ddelta=hs.floats(0.0, 0.09),
    )
    def test_monotone_in_constants(self, C, dC, delta, ddelta):
        g = st.discrete_gramian(OSC, 1.0, 2)
        if st.check_inequality(g, C, delta).feasible:
            assert st.check_inequality(g, C + dC, delta + ddelta).feasible


class TestMinDeltaOnKernel:
    def test_trivial_kernel(self):
        g = st.discrete_gramian(OSC, np.pi / 2, 2)
        assert st.min_delta_on_kernel(g) == 0.0

    def test_oscillator_rotation_preserves_kernel_norm(self):
        g = st.discrete_gramian(OSC, np.pi, 2)
        assert_allclose(st.min_delta_on_kernel(g), 1.0, atol=1e-10)

    def test_scalar_decay(self):
        g = st.discrete_gramian(scalar_system(-1.0, 0.0), 1.0, 2)
        assert_allclose(st.min_delta_on_kernel(g), np.exp(-4), atol=1e-12)

    def test_unitary_group_without_control(self):
        for seed in range(4):
            base = random_neutral_system(seed)
            sys = st.ContinuousSystem(base.A, np.zeros((base.state_dim, 1)))
            g = st.discrete_gramian(sys, 0.7, 2)
            assert abs(st.min_delta_on_kernel(g) - 1.0) <= 1e-10


class TestDecideDc:
    def test_scalar_stable_costs_nothing(self):
        cert = st.decide_dc(scalar_system(-1.0, 0.0), 1.0, N_max=5, delta_target=0.5)
        assert cert.feasible and cert.N == 1 and cert.C == 0.0

    def test_oscillator_regular_period(self):
        cert = st.decide_dc(OSC, 1.0, N_max=4, delta_target=0.9)
        assert cert.feasible and cert.N == 2

    def test_oscillator_degenerate_period(self):
        cert = st.decide_dc(OSC, np.pi, N_max=8, delta_target=0.9)
        assert not cert.feasible
        assert_allclose(cert.kernel_norm, 1.0, atol=1e-9)

    def test_search_exhausted_is_distinct(self):
        # Slowly stable, no control: a longer horizon would succeed.
        with pytest.raises(st.SearchExhausted):
            st.decide_dc(scalar_system(-0.001, 0.0), 1.0, N_max=2, delta_target=0.5)

    @pytest.mark.parametrize("N_max", [1, 2, 4, 20])
    def test_overflowing_walk_keeps_the_proven_infeasibility(self, N_max):
        # |R|^2 = exp(600 k) overflows at k = 2; horizon 1 is blocked by the
        # kernel (B = 0), so both modes stop there with the same verdict, and
        # the walk's overflowing step raises no warning.
        sys = scalar_system(300.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dc = st.decide_dc(sys, 1.0, N_max=N_max)
            cc = st.decide_cc(sys, 1.0, N_max=N_max)
        for cert in (dc, cc):
            assert not cert.feasible
            assert (cert.N, cert.C, cert.kernel_dim) == (1, 0.0, 1)
            assert_allclose(cert.kernel_norm, np.exp(600.0), rtol=1e-10)

    def test_invariant_under_input_phase(self):
        for seed in range(3):
            sys = random_mixed_system(seed)
            rot = st.ContinuousSystem(sys.A, np.exp(0.73j) * sys.B)
            g1 = st.discrete_gramian(sys, 0.8, 3)
            g2 = st.discrete_gramian(rot, 0.8, 3)
            assert np.abs(g1.G - g2.G).max() <= 1e-12 * max(np.linalg.norm(g1.G, 2), 1.0)
            c1 = st.decide_dc(sys, 0.8, N_max=6, delta_target=0.9)
            c2 = st.decide_dc(rot, 0.8, N_max=6, delta_target=0.9)
            assert c1.N == c2.N
            assert_allclose(c1.C, c2.C, rtol=1e-6, atol=1e-9)


class TestContinuousGramian:
    def test_scalar_integrator(self):
        g = st.continuous_gramian(scalar_system(0.0, 1.0), 2.0)
        assert_allclose(g.G, [[2.0]], atol=1e-13)

    def test_scalar_decay(self):
        g = st.continuous_gramian(scalar_system(-1.0, 1.0), 1.0)
        assert_allclose(g.G[0, 0], (1 - np.exp(-2)) / 2, atol=1e-13)

    def test_oscillator_full_turn(self):
        g = st.continuous_gramian(OSC, 2 * np.pi)
        assert_allclose(g.G, np.pi * np.eye(2), atol=1e-10)
        assert np.linalg.eigvalsh(g.G).min() >= -1e-12
        assert_allclose(np.trace(g.G).real, 2 * np.pi, atol=1e-10)

    def test_against_quadrature_oracle(self):
        from scipy.integrate import quad
        for seed in range(2):
            sys = random_stable_system(seed, n=3)
            T_h = 0.9
            g = st.continuous_gramian(sys, T_h)

            def entry(p, q):
                def f(t, part):
                    S = st.semigroup(sys, t)
                    M = S @ sys.B @ sys.B.conj().T @ S.conj().T
                    return getattr(M[p, q], part)
                re = quad(f, 0, T_h, args=("real",), epsabs=1e-11, limit=200)[0]
                im = quad(f, 0, T_h, args=("imag",), epsabs=1e-11, limit=200)[0]
                return re + 1j * im

            ref = np.array([[entry(p, q) for q in range(3)] for p in range(3)])
            assert np.abs(g.G - ref).max() <= 1e-8

    @pytest.mark.parametrize("T_h", [5.0, 25.0])
    def test_stiff_dense_gramian_is_the_mode_integral(self, T_h):
        # One block exponential over T_h would hold exp(399 T_h) and overflow;
        # scaling and squaring never forms it, and the dense Gramian of the
        # stiff truncation is the diagonal of its spectral form.
        heat = st.fractional_heat(64, 2.0, 1.0, xi_max=20.0)
        g = st.continuous_gramian(st.to_dense(heat), T_h)
        assert_allclose(np.diag(g.G).real, st.continuous_gramian(heat, T_h).G, rtol=1e-11)
        assert np.all(g.G[~np.eye(64, dtype=bool)] == 0.0)

    def test_long_mixed_horizon_passes_the_psd_check(self):
        # A single block exponential over this horizon lost enough digits for
        # G to come out significantly indefinite.
        g = st.continuous_gramian(random_mixed_system(6), 11.34)
        assert g.eigenvalues.min() >= -1e-12 * g.eigenvalues.max()

    def test_stiff_spectral_gramian_is_the_mode_integral(self):
        # The spectral form of the same truncation needs no block exponential:
        # int_0^T_h exp(2 Re lambda t) dt per mode, with the identity mask.
        heat = st.fractional_heat(64, 2.0, 1.0, xi_max=20.0)
        g = st.continuous_gramian(heat, 5.0)
        a = 2.0 * heat.symbol_values.real
        assert g.G.shape == (64,) and np.all(a != 0)
        assert_allclose(g.G, np.expm1(a * 5.0) / a, rtol=1e-14)
        assert_allclose(g.R, np.exp(heat.symbol_values * 5.0), rtol=1e-14)

    def test_holder_bridge(self, rng):
        # Interval-integrated blocks are dominated by T times the running
        # continuous energy over the same window.
        for seed in range(6):
            sys = random_mixed_system(seed)
            T = float(np.random.default_rng(seed).uniform(0.1, 2.0))
            N = seed % 4 + 1
            gd = st.discrete_gramian(sys, T, N)
            gc = st.continuous_gramian(sys, N * T)
            phis = random_unit_states(rng, sys.state_dim, 50)
            lhs = np.real(np.einsum("ij,ik,kj->j", phis.conj(), gd.G, phis))
            rhs = np.real(np.einsum("ij,ik,kj->j", phis.conj(), gc.G, phis))
            assert np.all(lhs <= T * rhs + 1e-10)



WALK_SYSTEMS = {
    "dense-mixed": random_mixed_system(0),
    "dense-neutral": random_neutral_system(2),
    "frac-heat": st.fractional_heat(16, 1.5, 1.0),
    "schrodinger": st.schrodinger(12, 3.0),
}


class TestHorizonWalk:
    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    @pytest.mark.parametrize("name", sorted(WALK_SYSTEMS))
    def test_every_step_matches_a_scratch_build(self, name, mode):
        # Discrete horizons come from the walk, continuous ones from
        # continuous_gramian at each horizon, as decide_dc and decide_cc take them.
        sys = WALK_SYSTEMS[name]
        walk = obscheck._walk(sys, 0.4)
        for N in range(1, 17):
            if mode == "discrete":
                R, G = next(walk)
            else:
                g = st.continuous_gramian(sys, 0.4 * N)
                R, G = g.R, g.G
            if isinstance(sys, st.SpectralSystem):
                assert R.ndim == G.ndim == 1
                R, G = np.diag(R), np.diag(G)
            ref = scratch_bundle(sys, 0.4, N, mode)
            assert np.linalg.norm(G - ref.G, 2) <= 1e-10 * np.linalg.norm(ref.G, 2)
            assert np.linalg.norm(R - ref.R, 2) <= 1e-10 * np.linalg.norm(ref.R, 2)

    def test_continuous_walk_stays_accurate_on_long_stable_horizons(self):
        # A single block exponential over k T loses digits here (about 1e-5
        # relative by k = 16); scaling and squaring tracks the Lyapunov closed
        # form G(t) = X - exp(At) X exp(At)*, with A X + X A* = -B B*.
        from scipy.linalg import expm, solve_continuous_lyapunov
        sys = random_stable_system(2)
        X = solve_continuous_lyapunov(sys.A, -sys.B @ sys.B.conj().T)
        for k in range(1, 17):
            G = st.continuous_gramian(sys, 0.4 * k).G
            E = expm(sys.A * (k * 0.4))
            ref = X - E @ X @ E.conj().T
            assert np.linalg.norm(G - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)

    def test_public_gramians_are_the_walk(self):
        sys = WALK_SYSTEMS["dense-mixed"]
        for N, (R, G) in enumerate(islice(obscheck._walk(sys, 0.4), 5), start=1):
            g = st.discrete_gramian(sys, 0.4, N)
            assert np.array_equal(g.R, R) and np.array_equal(g.G, 0.5 * (G + G.conj().T))
            assert (g.T, g.horizon) == (0.4, float(N))

    def test_continuous_certificate_has_the_public_kernel(self):
        # Two stable unobserved modes: ker G is 2-dimensional at every horizon,
        # and they decay below delta = 0.9 only from the third horizon on.
        heat = st.fractional_heat(8, 2.0, 1.0, mask=np.array([1.0, 1, 0, 1, 1, 0, 1, 1]))
        for sys in (heat, st.to_dense(heat)):
            cert = st.decide_cc(sys, 0.01)
            g = st.continuous_gramian(sys, cert.N)
            assert cert.feasible and cert.N == 3 * 0.01 and g.kernel_dim == 2
            # The search decided on this very bundle: the margin repeats bit for bit.
            assert replace(cert, kernel_norm=None) == st.check_inequality(g, cert.C, cert.delta)


def _decided(sys, T, N_max, mode, delta):
    decide = st.decide_dc if mode == "discrete" else st.decide_cc
    try:
        cert = decide(sys, T, N_max=N_max, delta_target=delta)
    except st.SearchExhausted as exc:
        return ("exhausted",), exc
    return (("feasible", cert.N, cert.C) if cert.feasible else ("blocked",)), cert


def assert_matches_bisection(sys, T, N_max, mode, delta=0.9):
    """Closed-form search against the bisection oracle on the public bundles."""
    def public(h):
        if mode == "discrete":
            return st.discrete_gramian(sys, T, int(h))
        return st.continuous_gramian(sys, h)

    # Built lazily, as far as the oracle searches: a single block exponential
    # over a long horizon can lose so many digits that G fails the PSD check.
    horizons = [float(k) if mode == "discrete" else k * T for k in range(1, N_max + 1)]
    want = bisect_verdict((public(h) for h in horizons), delta)
    got, cert = _decided(sys, T, N_max, mode, delta)
    assert got[0] == want[0]
    if want[0] == "feasible":
        (_, N, C), (_, N_ref, C_ref) = got, want
        assert N == N_ref
        assert C == C_ref == 0.0 or abs(C - C_ref) <= 1e-6 * C_ref
        assert st.check_inequality(public(N), C, delta).feasible
    return cert


class TestClosedFormConstant:
    @settings(max_examples=30, deadline=None)
    @given(seed=hs.integers(0, 10_000), T=hs.floats(0.1, 2.5),
           N_max=hs.integers(1, 6), mode=hs.sampled_from(["discrete", "continuous"]))
    def test_random_systems_match_bisection(self, seed, T, N_max, mode):
        assert_matches_bisection(random_mixed_system(seed), T, N_max, mode)

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    @pytest.mark.parametrize("offset", [-1e-3, -1e-4, 0.0, 1e-5, 1e-4, 1e-2])
    def test_oscillator_near_pi_matches_bisection(self, offset, mode):
        assert_matches_bisection(OSC, np.pi + offset, 8, mode)

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_exhausted_matches_bisection(self, mode):
        assert_matches_bisection(scalar_system(-0.001, 0.0), 1.0, 2, mode, delta=0.5)

    def test_reach_ends_at_the_former_ceiling(self):
        # Scalar integrator: C_min = (1 - delta) / b^2, about 5e17 and 5e19 here,
        # on either side of 2**60.
        assert_matches_bisection(scalar_system(0.0, 1e-9), 1.0, 1, "discrete", 0.5)
        exc = assert_matches_bisection(scalar_system(0.0, 1e-10), 1.0, 1, "discrete", 0.5)
        g = st.discrete_gramian(scalar_system(0.0, 1e-10), 1.0, 1)
        assert exc.best_margin == st.check_inequality(g, 2.0 ** 60, 0.5).margin


@hs.composite
def spectral_systems(draw, n_max=64):
    """Frac-heat or Schroedinger truncations whose masks mix 0, 1 and fractions."""
    n = draw(hs.integers(1, n_max))
    xi_max = draw(hs.floats(0.5, 5.0))
    mask = draw(hs.lists(hs.one_of(hs.just(0.0), hs.just(1.0), hs.floats(0.05, 1.0)),
                         min_size=n, max_size=n))
    if draw(hs.booleans()):
        return st.fractional_heat(n, draw(hs.floats(1.1, 2.5)), draw(hs.floats(0.0, 1.5)),
                                  mask=np.array(mask), xi_max=xi_max)
    return st.SpectralSystem(np.linspace(0.0, xi_max, n), schrodinger_symbol(), mask)


class TestDenseEqualsSpectral:
    """The per-mode decision of a spectral system against its dense form."""

    @settings(max_examples=40, deadline=None)
    @given(spec=spectral_systems(), T=hs.floats(0.1, 3.0),
           mode=hs.sampled_from(["discrete", "continuous"]))
    def test_same_verdict(self, spec, T, mode):
        got, cert = _decided(spec, T, 4, mode, 0.9)
        want, dense_cert = _decided(st.to_dense(spec), T, 4, mode, 0.9)
        assert got[0] == want[0]
        if got[0] == "exhausted":
            return
        assert (cert.N, cert.kernel_dim) == (dense_cert.N, dense_cert.kernel_dim)
        if got[0] == "feasible":
            C, C_dense = got[2], want[2]
            assert C == C_dense == 0.0 or abs(C - C_dense) <= 1e-6 * C_dense
            dense = st.to_dense(spec)
            g = (st.discrete_gramian(dense, T, int(cert.N)) if mode == "discrete"
                 else st.continuous_gramian(dense, cert.N))
            assert st.check_inequality(g, C, cert.delta).feasible

    def test_bundles_are_the_dense_diagonals(self):
        spec = st.fractional_heat(9, 1.5, 1.0, mask=np.array([0, 0.5, 1] * 3))
        for mode, g, d in (
                ("discrete", st.discrete_gramian(spec, 0.7, 3),
                 st.discrete_gramian(st.to_dense(spec), 0.7, 3)),
                ("continuous", st.continuous_gramian(spec, 2.1),
                 st.continuous_gramian(st.to_dense(spec), 2.1))):
            assert g.G.shape == g.R.shape == (9,), mode
            assert_allclose(np.diag(d.G).real, g.G, rtol=1e-12, atol=1e-15)
            assert_allclose(np.diag(d.R), g.R, rtol=1e-12)
            assert g.kernel_dim == d.kernel_dim == 3
            assert_allclose(st.min_delta_on_kernel(g), st.min_delta_on_kernel(d), rtol=1e-12)
            P = g.kernel_basis
            assert_allclose(P.conj().T @ P, np.eye(3))
            assert np.all(g.G[np.flatnonzero(P.any(axis=1))] == 0.0)
            phis = random_unit_states(np.random.default_rng(4), 9, 20)
            assert_allclose(obscheck.gramian_quadratic_form(g, phis),
                            obscheck.gramian_quadratic_form(d, phis), rtol=1e-12)
            assert_allclose(obscheck.transition_quadratic_form(g, phis),
                            obscheck.transition_quadratic_form(d, phis), rtol=1e-12)
            for C in (0.0, 1.0, 50.0):
                assert_allclose(st.check_inequality(g, C, 0.5).margin,
                                st.check_inequality(d, C, 0.5).margin, rtol=1e-9, atol=1e-12)
            with pytest.raises(ValueError):
                st.GramianBundle(d.R, g.G, mode, g.T, g.horizon)

    def test_decides_1e5_modes_in_little_memory(self):
        # The dense n x n form of this truncation would take 160 GB.
        heat = st.fractional_heat(10**5, 1.5, 1.0)
        tracemalloc.start()
        try:
            dc, cc = st.decide_dc(heat, 1.0), st.decide_cc(heat, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert dc.feasible and dc.N == 1 and abs(dc.C - 2.19782) <= 1e-5
        assert cc.feasible and cc.N == 1 and abs(cc.C - 2.0313) <= 1e-4


class TestBruteForceAgreement:
    def test_feasible_certificate_never_contradicted(self, rng):
        for seed in range(4):
            sys = random_mixed_system(seed)
            cert = st.decide_dc(sys, 0.7, N_max=8, delta_target=0.9)
            assert cert.feasible
            g = st.discrete_gramian(sys, 0.7, int(cert.N))
            worst = brute_force_max_violation(g, cert.C, cert.delta, 10_000, seed)
            assert worst <= 1e-8


class TestPathologicalPeriods:
    def test_oscillator(self):
        periods = st.pathological_periods(OSC.A, 10.0)
        assert_allclose(periods, [np.pi, 2 * np.pi, 3 * np.pi], atol=1e-12)

    def test_real_distinct_eigenvalues(self):
        assert st.pathological_periods(np.diag([-1.0, -2.0]), 100.0) == []

    def test_three_imaginary_modes(self):
        # Pairs (i,-i), (i,3i), (-i,3i) give gaps 2, 2, 4: periods k pi and k pi/2.
        periods = st.pathological_periods(np.diag([1j, -1j, 3j]), 7.0)
        expected = sorted({np.pi, 2 * np.pi} | {np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi})
        assert_allclose(periods, expected, atol=1e-12)

    def test_tolerance_on_real_parts(self):
        A = np.diag([1j, 5e-10 - 1j])
        assert len(st.pathological_periods(A, 10.0)) == 3  # treated as equal real parts

    def test_validation(self):
        with pytest.raises(ValueError):
            st.pathological_periods(OSC.A, 0.0)


class TestLocalOpenness:
    def test_feasible_points_have_feasible_neighbors_near_pi(self):
        # Fine grid straddling the degenerate period pi.
        grid = np.round(np.arange(2.95, 3.36, 0.01), 10)
        feas = {}
        for T in grid:
            try:
                feas[T] = st.decide_dc(OSC, float(T), N_max=8, delta_target=0.9).feasible
            except st.SearchExhausted:
                feas[T] = False
        for T in grid[1:-1]:
            if feas[T] and abs(T - np.pi) > 0.05:
                assert feas[round(T - 0.01, 10)] and feas[round(T + 0.01, 10)]
