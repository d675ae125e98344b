"""Gramians, weak observability feasibility, and period pathology."""

import tracemalloc
import warnings
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from numpy.testing import assert_allclose

import sampstab as st
from sampstab import linsys, obscheck
from sampstab.linsys import schrodinger_symbol
from sampstab.obscheck import brute_force_max_violation

from conftest import (bisect_verdict, decide_cc_oracle, decide_dc_oracle,
                      gramian_quadratic_form, kernel_basis, outcome_fields,
                      pathological_periods_loop, pbh_continuous, pbh_discrete, random_complex,
                      random_mixed_system, random_neutral_system, random_stable_system,
                      random_unit_states, scratch_bundle, to_dense, transition_quadratic_form)

OSC = st.harmonic_oscillator()


def scalar_system(a, b):
    return st.ContinuousSystem([[a]], [[b]])


def assert_same_bundle(g, public):
    """g and public are the same bundle, bit for bit."""
    assert (g.mode, g.T, g.horizon) == (public.mode, public.T, public.horizon)
    assert np.array_equal(g.R, public.R) and np.array_equal(g.G, public.G)
    assert np.array_equal(g.eigenvalues, public.eigenvalues)
    assert (g.eigenvectors is public.eigenvectors is None
            or np.array_equal(g.eigenvectors, public.eigenvectors))


class TestDiscreteGramian:
    def test_scalar_integrator(self):
        g = st.discrete_gramian(scalar_system(0.0, 1.0), 1.0, 3)
        assert_allclose(g.G, [[3.0]], atol=1e-13)
        assert_allclose(g.R, [[1.0]], atol=1e-14)

    def test_oscillator_degenerate_period(self):
        g = st.discrete_gramian(OSC, np.pi, 2)
        assert g.kernel_dim == 1
        # The kernel is the cos-component direction (0, 1).
        assert abs(abs(kernel_basis(g)[1, 0]) - 1.0) < 1e-12

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
        P = kernel_basis(g)
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


class TestRefusals:
    def test_significantly_negative_gramian(self):
        # Roundoff below -1e-12 of the largest eigenvalue passes; -0.5 does not.
        st.GramianBundle(np.eye(2), np.diag([1.0, -1e-13]), "discrete", 1.0, 1.0)
        for R, G in ((np.eye(2), np.diag([1.0, -0.5])), (np.ones(2), np.array([1.0, -0.5]))):
            with pytest.raises(st.NumericOverflowError, match="significantly negative"):
                st.GramianBundle(R, G, "discrete", 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_bundle(self, bad):
        # Refused in the transition as in the Gramian, dense and per mode.
        for shape in ((1, 1), (1,)):
            for R, G in ((np.full(shape, bad), np.ones(shape)),
                         (np.ones(shape), np.full(shape, bad))):
                with pytest.raises(st.NumericOverflowError, match="continuous bundle has non-fin"):
                    st.GramianBundle(R, G, "continuous", 1.0, 1.0)

    @pytest.mark.parametrize("fields,match", [
        ({"delta": 1.0}, "delta in"), ({"delta": 0.0}, "delta in"), ({"C": -1.0}, "C >= 0"),
        ({"margin": 2 * obscheck.PSD_TOL}, "margin <= 0"),
    ])
    def test_feasible_certificate_checks(self, fields, match):
        cert = {"mode": "discrete", "T": 1.0, "N": 1.0, "C": 1.0, "delta": 0.5, "margin": 0.0,
                **fields}
        with pytest.raises(ValueError, match=match):
            st.ObservabilityCertificate(**cert, feasible=True)
        assert not st.ObservabilityCertificate(**cert, feasible=False).feasible

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, np.nan])
    def test_delta_target_outside_the_unit_interval(self, delta):
        for decide in (st.decide_dc, st.decide_cc):
            with pytest.raises(ValueError, match="delta_target"):
                decide(OSC, 1.0, 4, delta)
        with pytest.raises(ValueError, match="delta_target"):
            st.sweep_dc(OSC, [1.0], 4, delta)

    @pytest.mark.parametrize("N", [0, -3, 2 ** 1024], ids=["0", "-3", "2^1024"])
    def test_horizon_count_outside_the_float_range(self, N):
        # decide_cc reports N_max * T and a bundle its horizon float(N), which
        # an int past the float range overflows.
        for decide in (st.decide_dc, st.decide_cc):
            with pytest.raises(ValueError, match="N_max must lie in"):
                decide(OSC, 1.0, N)
        with pytest.raises(ValueError, match="N must lie in"):
            st.discrete_gramian(OSC, 1.0, N)

    def test_horizon_count_over_the_ceiling(self):
        # A period blocked at every horizon walks all N_max of them.
        for decide in (st.decide_dc, st.decide_cc):
            with pytest.raises(ValueError, match="N_max must lie in"):
                decide(OSC, np.pi, obscheck._MAX_HORIZONS + 1)
            assert decide(OSC, 1.0, obscheck._MAX_HORIZONS).feasible


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
        g = st.continuous_gramian(to_dense(heat), T_h)
        assert_allclose(np.diag(g.G).real, st.continuous_gramian(heat, T_h).G, rtol=1e-11)
        assert np.all(g.G[~np.eye(64, dtype=bool)] == 0.0)

    def test_a_thousand_doublings_keep_their_step(self):
        # ||A||_1 T_h = 1e308 takes s = 1024 doublings, and 2^1024 is no float:
        # the step h = T_h 2^-s is scaled, not divided by it.  G -> 1 / (2 |a|).
        g = st.continuous_gramian(st.ContinuousSystem([[-1e200]], [[1.0]]), 1e108)
        assert_allclose(g.G, [[0.5e-200]], rtol=1e-12)
        assert np.array_equal(g.R, [[0.0]])

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
        walk = obscheck._walk(*st.sample_periods(sys, [0.4]))
        for N in range(1, 17):
            if mode == "discrete":
                R, G = (stack[0] for stack in next(walk))
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
        # Each is its period's slice of the walk stacked over a grid, and a
        # sweep's certificate carries that bundle, eigenvectors and all.
        periods = [0.4, 1.3, 0.05]
        for sys in WALK_SYSTEMS.values():
            walk = obscheck._walk(*st.sample_periods(sys, periods))
            for N, (R, G) in enumerate(islice(walk, 5), start=1):
                for p, T in enumerate(periods):
                    g = st.discrete_gramian(sys, T, N)
                    G_p = G[p] if G.ndim == 2 else 0.5 * (G[p] + G[p].conj().T)
                    assert np.array_equal(g.R, R[p]) and np.array_equal(g.G, G_p)
                    assert (g.T, g.horizon) == (T, float(N))
            for T, cert in zip(periods, st.sweep_dc(sys, periods)):
                assert_same_bundle(cert.bundle, st.discrete_gramian(sys, T, int(cert.N)))

    @pytest.mark.parametrize("name", sorted(WALK_SYSTEMS))
    def test_first_step_is_the_sampled_pair(self, name, monkeypatch):
        sys = WALK_SYSTEMS[name]
        Phi, D = st.sample_periods(sys, [0.4, 1.3])
        for p, T in enumerate([0.4, 1.3]):
            pair = st.sample(sys, T)
            assert np.array_equal(pair.Phi, Phi[p]) and np.array_equal(pair.D, D[p])
        R, G = next(obscheck._walk(Phi, D))
        G_1 = np.abs(D) ** 2 if D.ndim == 2 else st.linsys._hermitize(D @ D.conj().mT)
        assert np.array_equal(R, Phi) and np.array_equal(G, G_1)
        # A sweep takes every pair of its grid from one stacked sampling.
        calls = []

        def recorded(*args):
            calls.append(args[1].tolist())
            return st.sample_periods(*args)

        monkeypatch.setattr(obscheck, "sample_periods", recorded)
        assert len(list(obscheck.sweep_dc(sys, [0.4, 1.3], N_max=3))) == 2
        assert calls == [[0.4, 1.3]]

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    @pytest.mark.parametrize("name", sorted(WALK_SYSTEMS))
    def test_certificate_carries_the_bundle_it_was_checked_on(self, name, mode):
        sys = WALK_SYSTEMS[name]
        if mode == "discrete":
            cert = st.decide_dc(sys, 0.4)
            public = st.discrete_gramian(sys, 0.4, int(cert.N))
        else:
            cert = st.decide_cc(sys, 0.4)
            public = st.continuous_gramian(sys, cert.N)
        g = cert.bundle
        assert cert.feasible and g is not None
        assert st.check_inequality(g, cert.C, cert.delta).margin == cert.margin
        assert np.array_equal(g.G, public.G) and np.array_equal(g.R, public.R)
        assert (g.mode, g.horizon) == (mode, cert.N)
        # The bundle takes no part in equality, repr or the JSON form.
        assert cert == replace(cert, bundle=None)
        assert "bundle" not in repr(cert) and "bundle" not in cert.to_json()

    def test_continuous_certificate_has_the_public_kernel(self):
        # Two stable unobserved modes: ker G is 2-dimensional at every horizon,
        # and they decay below delta = 0.9 only from the third horizon on.
        heat = st.fractional_heat(8, 2.0, 1.0, mask=np.array([1.0, 1, 0, 1, 1, 0, 1, 1]))
        for sys in (heat, to_dense(heat)):
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
    except st.NumericOverflowError as exc:
        return ("numeric-failure",), exc
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

    @settings(max_examples=100, deadline=None)
    @given(seed=hs.integers(0, 2 ** 32 - 1), P=hs.integers(1, 5), n=hs.integers(1, 8),
           data=hs.data())
    def test_cholesky_pencil_matches_scipy_eigh(self, seed, P, n, data):
        # N = 2 C_t B - M positive definite, B = diag(b) with the kernel's
        # entries max(w_k, 0), some of them 0, and ones after.
        d = data.draw(hs.integers(1, n))
        rng = np.random.default_rng(seed)
        X = random_complex(rng, (P, n, n))
        N = X @ X.conj().mT + 1e-3 * np.eye(n)
        w_k = rng.uniform(-1e-3, 1.0, (P, d))
        C_t = rng.uniform(0.1, 10.0, P)
        b = np.concatenate([np.maximum(w_k, 0.0), np.ones((P, n - d))], axis=1)
        M = 2.0 * C_t[:, None, None] * (b[:, :, None] * np.eye(n)) - N
        mu = [scipy.linalg.eigh(np.diag(b[j]), N[j], eigvals_only=True)[-1] for j in range(P)]
        want = np.maximum(2.0 * C_t - 1.0 / np.array(mu), 0.0)
        assert_allclose(obscheck._pencil_constants(M, w_k, C_t), want, rtol=1e-12, atol=0.0)

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
        want, dense_cert = _decided(to_dense(spec), T, 4, mode, 0.9)
        assert got[0] == want[0]
        if got[0] == "exhausted":
            return
        assert (cert.N, cert.kernel_dim) == (dense_cert.N, dense_cert.kernel_dim)
        if got[0] == "feasible":
            C, C_dense = got[2], want[2]
            assert C == C_dense == 0.0 or abs(C - C_dense) <= 1e-6 * C_dense
            dense = to_dense(spec)
            g = (st.discrete_gramian(dense, T, int(cert.N)) if mode == "discrete"
                 else st.continuous_gramian(dense, cert.N))
            assert st.check_inequality(g, C, cert.delta).feasible

    def test_bundles_are_the_dense_diagonals(self):
        spec = st.fractional_heat(9, 1.5, 1.0, mask=np.array([0, 0.5, 1] * 3))
        for mode, g, d in (
                ("discrete", st.discrete_gramian(spec, 0.7, 3),
                 st.discrete_gramian(to_dense(spec), 0.7, 3)),
                ("continuous", st.continuous_gramian(spec, 2.1),
                 st.continuous_gramian(to_dense(spec), 2.1))):
            assert g.G.shape == g.R.shape == (9,), mode
            assert_allclose(np.diag(d.G).real, g.G, rtol=1e-12, atol=1e-15)
            assert_allclose(np.diag(d.R), g.R, rtol=1e-12)
            assert g.kernel_dim == d.kernel_dim == 3
            assert_allclose(st.min_delta_on_kernel(g), st.min_delta_on_kernel(d), rtol=1e-12)
            P = kernel_basis(g)
            assert_allclose(P.conj().T @ P, np.eye(3))
            assert np.all(g.G[np.flatnonzero(P.any(axis=1))] == 0.0)
            phis = random_unit_states(np.random.default_rng(4), 9, 20)
            assert_allclose(gramian_quadratic_form(g, phis),
                            gramian_quadratic_form(d, phis), rtol=1e-12)
            assert_allclose(transition_quadratic_form(g, phis),
                            transition_quadratic_form(d, phis), rtol=1e-12)
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


SWEEP_SYSTEMS = {
    "oscillator": OSC,
    "mixed": random_mixed_system(5),
    # Rank-one Gramians at N = 1: a two-dimensional dense kernel, and the
    # generalized eigenvalue step of the closed-form constant.
    "thin-stable": random_stable_system(3, n=3, m=1),
    "thin-mixed": random_mixed_system(8, n=3, m=1),
    "frac-heat": st.fractional_heat(12, 1.5, 1.0, mask=np.array([1.0, 0.0, 0.5] * 4)),
    "schrodinger": st.SpectralSystem(np.linspace(0.0, 3.0, 10), schrodinger_symbol(),
                                     np.array([1.0, 1.0, 0.0, 0.3, 1.0] * 2)),
    "dense-heat": to_dense(st.fractional_heat(6, 1.5, 1.0,
                                                 mask=np.array([1.0, 0, 1, 1, 0, 1]))),
    # |R|^2 = exp(600 k T) overflows from k T > 1.183 on: from T = 1.183 on a
    # period has no finite first horizon, and from T = 2.37 on its sampled
    # pair overflows too.
    "overflow": scalar_system(300.0, 0.0),
    # sweep --example frac-heat --modes 8: |R|^2 overflows at k = 1 from T = 650 on.
    "frac-heat-8": st.fractional_heat(8, 1.5, 1.0),
}


def period_cells(sys) -> int:
    """Entries per period of the largest stacked array of a sweep."""
    n = sys.state_dim
    return n if isinstance(sys, st.SpectralSystem) else (n + sys.input_dim) ** 2


def swept(sys, periods, N_max, delta):
    return [outcome_fields(o) for o in st.sweep_dc(sys, periods, N_max, delta)]


class TestSweep:
    """sweep_dc decides a grid in stacked chunks, period by period as the scalar search did."""

    @settings(max_examples=40, deadline=None)
    @given(name=hs.sampled_from(sorted(SWEEP_SYSTEMS)),
           periods=hs.lists(hs.one_of(hs.floats(0.02, 8.0),
                                      hs.sampled_from([np.pi, 2 * np.pi, 3.1415, 1.0])),
                            min_size=1, max_size=12),
           N_max=hs.integers(1, 8), delta=hs.sampled_from([0.3, 0.5, 0.9]))
    # Grids that straddle the first horizon's overflow: numeric failures
    # between decided periods.
    @example(name="overflow", periods=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0], N_max=8, delta=0.9)
    @example(name="frac-heat-8", periods=[600.0, 650.0, 700.0, 750.0, 800.0], N_max=8,
             delta=0.9)
    def test_every_period_is_the_oracle_bit_for_bit(self, name, periods, N_max, delta):
        sys = SWEEP_SYSTEMS[name]
        want = [outcome_fields(decide_dc_oracle(sys, T, N_max, delta)) for T in periods]
        default = obscheck._CHUNK_CELLS
        for cells in (1, 7, 7 * period_cells(sys), default):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(obscheck, "_CHUNK_CELLS", cells)
                assert swept(sys, periods, N_max, delta) == want, cells

    @pytest.mark.parametrize("name", sorted(SWEEP_SYSTEMS))
    def test_decide_dc_and_decide_cc_are_the_oracle(self, name):
        sys = SWEEP_SYSTEMS[name]
        for T in (0.3, 1.7, np.pi):
            assert outcome_fields(decide_dc_oracle(sys, T, 6)) == outcome_fields(
                _decided(sys, T, 6, "discrete", 0.9)[1])
            assert outcome_fields(decide_cc_oracle(sys, T, 6)) == outcome_fields(
                _decided(sys, T, 6, "continuous", 0.9)[1])

    def test_kernel_blocked_exhausted_and_feasible_in_one_grid(self):
        periods = [1.0, np.pi, 2 * np.pi, 3.1415]
        got = swept(OSC, periods, 8, 0.9)
        assert [row[0] for row in got] == ["feasible", "infeasible", "infeasible", "feasible"]
        assert got == [outcome_fields(decide_dc_oracle(OSC, T, 8)) for T in periods]
        slow = scalar_system(-0.001, 0.0)
        assert {row[0] for row in swept(slow, [0.5, 1.0, 2.0], 2, 0.5)} == {"search-exhausted"}

    def test_one_horizon_holds_every_kind_of_period(self):
        # Inputs of 1e-9 scale every constant by 1e18, so the ceiling binds.
        # At horizon 1: the neutral mode's D vanishes at 2 pi (blocked), the
        # unobserved mode keeps |R|^2 = e^{-0.01 T} >= 0.9 at T = 3 (kernel
        # slack), the constant near 4 pi exceeds _C_CEILING (failed), and
        # T = 11.5 is certified.
        sys = st.ContinuousSystem(np.diag([1j, -0.005, -1.0]), np.diag([1e-9, 0.0, 1e-9]))
        periods = [2 * np.pi, 3.0, 4 * np.pi * (1 + 1e-3), 11.5]
        first = [st.discrete_gramian(sys, T, 1) for T in periods]
        kn = [st.min_delta_on_kernel(g) for g in first]
        assert kn[0] >= 1.0 - obscheck.KERNEL_ONE_TOL and 0.9 <= kn[1] < 1.0
        assert kn[2] < 0.9 and kn[3] < 0.9
        assert st.check_inequality(first[2], obscheck._C_CEILING, 0.9).margin > obscheck.PSD_TOL
        got = swept(sys, periods, 4, 0.9)
        assert [row[0] for row in got] == ["infeasible", "feasible", "search-exhausted",
                                           "feasible"]
        assert got[3][3] == "1.0"  # N
        assert got == [outcome_fields(decide_dc_oracle(sys, T, 4)) for T in periods]

    def test_overflow_stops_each_period_at_its_own_horizon(self):
        # |R|^2 = exp(600 k T) overflows from k T > 1.183 on: at k = 2, 3, 4, 6
        # here, each period decided on the horizons before its stop.
        sys, periods = scalar_system(300.0, 0.0), [1.0, 0.5, 0.3, 0.2, 0.1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = list(st.sweep_dc(sys, periods, N_max=16))
        assert [o.N for o in got] == [1.0, 2.0, 3.0, 5.0, 11.0]
        assert [outcome_fields(o) for o in got] == [
            outcome_fields(decide_dc_oracle(sys, T, 16)) for T in periods]

    def test_first_horizon_overflow_raises_the_first_periods_error(self):
        # exp(300 T) overflows the sampled pair from T = 2.37 on: that period's
        # outcome is its NumericOverflowError, which decide_dc raises, and the
        # grid's other periods are decided.
        sys = scalar_system(300.0, 0.0)
        got = list(st.sweep_dc(sys, [0.5, 2.5, 0.7]))
        assert [type(o) for o in got] == [st.ObservabilityCertificate, st.NumericOverflowError,
                                          st.ObservabilityCertificate]
        assert str(got[1]) == ("the first discrete horizon at T = 2.5 has non-finite entries "
                               "or an indefinite Gramian")
        with pytest.raises(st.NumericOverflowError) as err:
            st.discrete_gramian(sys, 2.5, 1)
        assert str(err.value) == ("discrete bundle has non-finite entries or a significantly "
                                  "negative eigenvalue")
        with pytest.raises(st.NumericOverflowError) as err:
            st.decide_dc(sys, 2.5)
        assert str(err.value) == str(got[1])
        # |D|^2 overflows the first Gramian at T = 0.5; the pair itself at T = 2.5.
        huge = st.ContinuousSystem([[300.0]], [[1e140]])
        with pytest.raises(st.NumericOverflowError, match="^discrete bundle has non-finite"):
            st.discrete_gramian(huge, 0.5, 1)
        for grid in ([0.01, 0.5, 2.5], [0.01, 2.5, 0.5]):
            got = swept(huge, grid, 16, 0.9)
            assert [row[0] for row in got] == ["feasible", "numeric-failure", "numeric-failure"]
            assert got == [outcome_fields(decide_dc_oracle(huge, T)) for T in grid]

    @pytest.mark.parametrize("fail", ["batch", "all"])
    def test_a_refused_pencil_keeps_the_bound_per_period(self, fail, monkeypatch):
        cholesky = np.linalg.cholesky

        def refusing(a, *args, **kwargs):
            if fail == "all" or np.ndim(a) == 3:
                raise np.linalg.LinAlgError("not definite")
            return cholesky(a, *args, **kwargs)

        sys, periods = SWEEP_SYSTEMS["thin-stable"], np.linspace(0.2, 6.0, 12).tolist()
        want = [outcome_fields(decide_dc_oracle(sys, T, 6)) for T in periods]
        monkeypatch.setattr(np.linalg, "cholesky", refusing)
        if fail == "all":
            want = [outcome_fields(decide_dc_oracle(sys, T, 6)) for T in periods]
        assert swept(sys, periods, 6, 0.9) == want

    def test_nudges_are_the_oracles(self, monkeypatch):
        # A constant a little below the smallest fails its first re-check; the
        # nudges then raise it by 4**i ulps at a time until the margin passes.
        import conftest
        real, oracle = obscheck._min_constants, conftest._oracle_min_constant
        shrink = 1.0 - 1e-9
        periods = [0.3, 0.9, 1.7, 2.9]
        for name in ("mixed", "thin-stable", "frac-heat"):
            sys = SWEEP_SYSTEMS[name]
            exact = swept(sys, periods, 6, 0.9)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(obscheck, "_min_constants", lambda *a: real(*a) * shrink)
                mp.setattr(conftest, "_oracle_min_constant", lambda *a: oracle(*a) * shrink)
                nudged = swept(sys, periods, 6, 0.9)
                assert nudged == [outcome_fields(decide_dc_oracle(sys, T, 6)) for T in periods]
            assert [row[4] for row in nudged] != [row[4] for row in exact]

    def test_no_nudge_rescues_half_the_constant(self, monkeypatch):
        # Half the smallest C fails every re-check: _NUDGES raises of 4**i ulps
        # cannot double it, so each horizon only lowers the best margin.
        import conftest
        real, oracle = obscheck._min_constants, conftest._oracle_min_constant
        monkeypatch.setattr(obscheck, "_min_constants", lambda *a: real(*a) * 0.5)
        monkeypatch.setattr(conftest, "_oracle_min_constant", lambda *a: oracle(*a) * 0.5)
        with pytest.raises(st.SearchExhausted) as err:
            st.decide_dc(OSC, 1.0, 4)
        assert outcome_fields(err.value) == outcome_fields(decide_dc_oracle(OSC, 1.0, 4))
        assert err.value.best_margin == 0.04576361304546051
        periods = [0.5, 1.0, 1.5]
        got = swept(OSC, periods, 3, 0.9)
        assert {row[0] for row in got} == {"search-exhausted"}
        assert got == [outcome_fields(decide_dc_oracle(OSC, T, 3)) for T in periods]

    def test_a_later_continuous_overflow_ends_the_search(self):
        # The Gramian of e^{100 t} overflows from the horizon 2 T = 6 on; the
        # uncontrolled mode e^{it} blocks the horizon T = 3, whose infeasible
        # certificate then stands.
        sys = st.ContinuousSystem(np.diag([100, 1j]), [[1], [0]])
        with pytest.raises(st.NumericOverflowError):
            st.continuous_gramian(sys, 6.0)
        cert = st.decide_cc(sys, 3.0, 4)
        assert (cert.feasible, cert.N, cert.kernel_dim) == (False, 3.0, 1)
        assert outcome_fields(cert) == outcome_fields(decide_cc_oracle(sys, 3.0, 4))

    @pytest.mark.parametrize("sys", [
        st.fractional_heat(3, 2.0, 0.0, mask=[1, 0, 1]),
        st.ContinuousSystem(np.diag([0.0, -1.0]), [[0.0], [1.0]]),
    ], ids=["spectral", "dense"])
    def test_an_overflowing_horizon_ends_the_search(self, sys):
        # The horizon 2 T passes the float range; the neutral unobserved mode
        # blocks the horizon T, whose infeasible certificate then stands.
        cert = st.decide_cc(sys, 1e308)
        assert (cert.feasible, cert.N) == (False, 1e308)
        assert outcome_fields(cert) == outcome_fields(decide_cc_oracle(sys, 1e308, 1))
        with pytest.raises(ValueError, match="T_h must be finite"):
            st.decide_cc(sys, np.inf)

    def test_a_first_continuous_overflow_raises(self):
        # The first Gramian overflows: the search's outcome is a numeric
        # failure naming T, which decide_cc raises and the oracle returns.
        sys = st.ContinuousSystem([[200]], [[1]])
        with pytest.raises(st.NumericOverflowError, match="non-finite"):
            st.continuous_gramian(sys, 2.0)
        with pytest.raises(st.NumericOverflowError) as err:
            st.decide_cc(sys, 2.0)
        assert str(err.value) == ("the first continuous horizon at T = 2.0 has non-finite "
                                  "entries or an indefinite Gramian")
        assert outcome_fields(err.value) == outcome_fields(decide_cc_oracle(sys, 2.0))

    def test_certificates_carry_their_periods_slice(self):
        sys = SWEEP_SYSTEMS["mixed"]
        periods = [0.3, 0.9, 1.7]
        for T, cert in zip(periods, st.sweep_dc(sys, periods, N_max=8)):
            public = st.discrete_gramian(sys, T, int(cert.N))
            g = cert.bundle
            assert (g.T, g.horizon, g.mode) == (T, cert.N, "discrete")
            assert np.array_equal(g.G, public.G) and np.array_equal(g.R, public.R)
            assert np.array_equal(g.eigenvalues, public.eigenvalues)
            assert st.check_inequality(g, cert.C, cert.delta).margin == cert.margin

    def test_memory_is_bounded_by_the_chunk(self, monkeypatch):
        # An oscillator period takes 9 entries per stacked array and about
        # 2 kB while its chunk is alive: 250-period chunks hold the peak well
        # under what one 2000-period chunk would take.
        grid = np.arange(1, 2001) * 0.005
        monkeypatch.setattr(obscheck, "_CHUNK_CELLS", 9 * 250)
        tracemalloc.start()
        try:
            assert sum(cert.feasible for cert in st.sweep_dc(OSC, grid, 8)) > 1900
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_sweeps_1e5_modes_in_little_memory(self):
        heat = st.fractional_heat(10 ** 5, 1.5, 1.0)
        tracemalloc.start()
        try:
            certs = [cert.to_json() for cert in st.sweep_dc(heat, [0.5, 1.0, 1.5, 2.0])]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert certs[1] == st.decide_dc(heat, 1.0).to_json()

    def test_validation(self):
        with pytest.raises(ValueError, match="N_max"):
            st.sweep_dc(OSC, [1.0], N_max=0)
        with pytest.raises(ValueError, match=r"N_max must lie in \[1, 1e\+05\]"):
            st.sweep_dc(OSC, [1.0], N_max=obscheck._MAX_HORIZONS + 1)
        with pytest.raises(ValueError, match="1-D"):
            st.sweep_dc(OSC, 1.0)
        with pytest.raises(ValueError, match="finite and > 0"):
            list(st.sweep_dc(OSC, [1.0, -1.0]))
        assert list(st.sweep_dc(OSC, [])) == []


CC_SYSTEMS = {
    "mixed-0": (random_mixed_system(0), 0.05, 3.0),
    "mixed-4": (random_mixed_system(4, n=5, m=1), 0.05, 3.0),
    "thin-mixed": (random_mixed_system(8, n=3, m=1), 0.05, 3.0),
    "oscillator": (OSC, 0.05, 7.0),
    # ||A||_1 k T < 1/2 up to k = 8: no horizon takes a doubling.
    "slow": (st.ContinuousSystem([[-0.01, 0.02], [0.0, 0.015j]], [[1.0], [0.5]]), 0.05, 1.5),
    # Blocked at every horizon by the uncontrolled mode e^{it}: the search
    # walks all N_max horizons.
    "blocked": (st.ContinuousSystem(np.diag([-0.7, 1j]), [[1.0], [0.0]]), 0.05, 3.0),
    # The Gramian of e^{100 t} overflows from the horizon 2 T on.
    "overflow": (st.ContinuousSystem(np.diag([100, 1j]), [[1], [0]]), 1.8, 3.5),
}


class TestPowerOfTwoHorizons:
    """decide_cc continues the doubling of horizon k T to 2k T, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(name=hs.sampled_from(sorted(CC_SYSTEMS)), frac=hs.floats(0.0, 1.0),
           N_max=hs.integers(1, 8), delta=hs.sampled_from([0.3, 0.5, 0.9]))
    def test_every_horizon_is_the_one_shot_gramian(self, name, frac, N_max, delta):
        # The source yields raw one-period stacks; decomposed as the search
        # decomposes them, each is the one-shot bundle, or fails where it is refused.
        sys, lo, hi = CC_SYSTEMS[name]
        T = lo + frac * (hi - lo)
        for k, (R, G) in enumerate(islice(obscheck._continuous_horizons(sys, T), N_max), 1):
            G, w, V, ok = obscheck._decompose(G, G.ndim == 2)
            try:
                g = st.continuous_gramian(sys, k * T)
            except st.NumericOverflowError:
                assert not (ok[0] and np.isfinite(R).all())
                break
            assert ok[0] and np.array_equal(G[0], g.G) and np.array_equal(R[0], g.R)
            assert np.array_equal(w[0], g.eigenvalues) and np.array_equal(V[0], g.eigenvectors)
        assert outcome_fields(_decided(sys, T, N_max, "continuous", delta)[1]) == (
            outcome_fields(decide_cc_oracle(sys, T, N_max, delta)))

    def test_horizon_two_builds_no_block_exponential(self, monkeypatch):
        # The benchmark's seeded dense n = 128 system (its generator seeded
        # (7, 128, 8)) is certified at horizon 3 T: horizons T and 3 T build
        # one order-n first step each, and 2 T continues the doubling of T.
        sys = random_mixed_system((7, 128, 8), n=128, m=8)
        orders, steps = [], []
        monkeypatch.setattr(linsys, "expm",
                            lambda M, expm=linsys.expm: orders.append(M.shape[-1]) or expm(M))
        monkeypatch.setattr(obscheck, "_van_loan",
                            lambda X, Y, step=obscheck._van_loan: steps.append(X.shape[-1])
                            or step(X, Y))
        built = [len(steps) for _ in islice(obscheck._continuous_horizons(sys, 1.0), 3)]
        assert built == [1, 1, 2] and steps == [128, 128]
        steps.clear()
        orders.clear()
        cert = st.decide_cc(sys, 1.0)
        assert cert.N == 3.0 and steps == [128, 128]
        assert orders == [128] * 3  # R = semigroup(sys, k T) at each horizon, nothing of order 2n
        assert outcome_fields(cert) == outcome_fields(decide_cc_oracle(sys, 1.0))

    def test_certificate_at_a_continued_horizon_carries_the_one_shot_bundle(self, monkeypatch):
        # Certified at 2 T, which continues the doubling of T (||A||_1 T >= 1/2):
        # the search builds one first step, and its bundle is continuous_gramian's.
        sys = CC_SYSTEMS["mixed-4"][0]
        steps = []
        monkeypatch.setattr(obscheck, "_van_loan",
                            lambda X, Y, step=obscheck._van_loan: steps.append(1) or step(X, Y))
        cert = st.decide_cc(sys, 0.3, delta_target=0.5)
        assert cert.N == 2 * 0.3 and steps == [1]
        assert_same_bundle(cert.bundle, st.continuous_gramian(sys, cert.N))


class TestBruteForceAgreement:
    def test_feasible_certificate_never_contradicted(self):
        for seed in range(4):
            sys = random_mixed_system(seed)
            cert = st.decide_dc(sys, 0.7, N_max=8, delta_target=0.9)
            assert cert.feasible
            g = st.discrete_gramian(sys, 0.7, int(cert.N))
            worst, tolerance = brute_force_max_violation(sys, g, cert.C, cert.delta, seed)
            assert worst <= tolerance == 1e-8

    @settings(max_examples=40, deadline=None)
    @given(seed=hs.integers(0, 10 ** 6), basis=hs.integers(0, 10 ** 6),
           T=hs.floats(0.05, 4.0), scale=hs.sampled_from([0.5, 1.0, 2.0]))
    def test_dense_margin_is_invariant_under_the_random_basis(self, seed, basis, T, scale):
        # The same inequality in another orthonormal basis: its margin moves
        # by rounding alone, within the tolerance, at the certificate's C and
        # at a halved or doubled one.
        sys = random_mixed_system(seed)
        cert = st.decide_dc(sys, T, N_max=8)
        C = cert.C * scale
        got, tolerance = brute_force_max_violation(sys, cert.bundle, C, cert.delta, basis)
        assert abs(got - st.check_inequality(cert.bundle, C, cert.delta).margin) <= tolerance

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 40])
    def test_dense_check_rotates_by_a_seeded_unitary(self, monkeypatch, seed):
        # The re-decided system is (Q* A Q, Q* B), Q unitary: each Markov
        # parameter B* A^k B and ||A||_F are kept.  One seed builds the same
        # bits twice; the next seed builds another basis.
        sys = random_mixed_system(3)
        g = st.discrete_gramian(sys, 0.7, 2)
        built = []

        def record(dense, *args, gramian=obscheck.discrete_gramian):
            built.append((dense.A, dense.B))
            return gramian(dense, *args)

        monkeypatch.setattr(obscheck, "discrete_gramian", record)
        for s in (seed, seed, seed + 1):
            brute_force_max_violation(sys, g, 1.0, 0.9, s)
        (A, B), again, other = built
        assert np.array_equal(A, again[0]) and np.array_equal(B, again[1])
        assert not np.allclose(A, other[0])
        assert_allclose(np.linalg.norm(A), np.linalg.norm(sys.A), rtol=1e-13)
        Ak, sys_Ak = np.eye(4), np.eye(4)
        for _ in range(4):
            assert_allclose(B.conj().T @ Ak @ B, sys.B.conj().T @ sys_Ak @ sys.B,
                            rtol=0, atol=1e-12)
            Ak, sys_Ak = A @ Ak, sys.A @ sys_Ak

    @pytest.mark.parametrize("C", [0.0, 3.5, 1e9])
    def test_dense_tolerance_bounds_the_rounding(self, C):
        # max(1e-8, 64 eps (C ||G||_2 + ||R||_F^2)) of the certificate's
        # bundle; at C = 1e9 the rounding term passes the floor.  Either way
        # the re-decided margin lies within it of the bundle's own.
        sys = random_mixed_system(3)
        g = st.discrete_gramian(sys, 0.7, 2)
        got, tolerance = brute_force_max_violation(sys, g, C, 0.9, 0)
        bound = 64 * np.finfo(float).eps * (C * np.linalg.norm(g.G, 2)
                                            + np.linalg.norm(g.R) ** 2)
        assert_allclose(tolerance, max(1e-8, bound), rtol=1e-12, atol=0)
        assert (tolerance > 1e-8) == (C == 1e9)
        assert abs(got - st.check_inequality(g, C, 0.9).margin) <= tolerance

    @pytest.mark.parametrize("system", [st.fractional_heat(8, 1.5, 1.0), st.schrodinger(8, 4.0)],
                             ids=["frac-heat", "schrodinger"])
    def test_spectral_and_dense_forms_re_decide_alike(self, system):
        # Under 32 modes the binding modes are all of them: the check of the
        # spectral certificate and that of its dense form in a random basis
        # re-decide one inequality, to the same verdict.
        cert = st.decide_dc(system, 1.0)
        dense = to_dense(system)
        g = st.discrete_gramian(dense, 1.0, int(cert.N))
        spectral = brute_force_max_violation(system, cert.bundle, cert.C, cert.delta, 0)
        rotated = brute_force_max_violation(dense, g, cert.C, cert.delta, 3)
        assert abs(spectral[0] - rotated[0]) <= max(spectral[1], rotated[1])
        assert spectral[0] <= spectral[1] and rotated[0] <= rotated[1]

    @pytest.mark.parametrize("system,T", [
        (st.fractional_heat(256, 1.5, 1.0), 1.0),
        (st.fractional_heat(9, 1.5, 1.0, mask=np.array([0, 0.5, 1] * 3)), 0.7),
        (st.schrodinger(128, 4.0), 1.0),
        (st.fractional_heat(64, 2.0, 1.0, xi_max=20.0), 5.0),
    ])
    def test_spectral_check_is_the_dense_margin_of_the_binding_modes(self, system, T):
        # The margin of the 32 modes of largest w, each state of their span
        # included, is the per-mode margin: a diagonal system's inequality is
        # decided mode by mode.
        g = st.discrete_gramian(system, T, 2)
        for C in (0.0, 3.5, 40.0):
            margin = st.check_inequality(g, C, 0.9).margin
            got, tolerance = brute_force_max_violation(system, g, C, 0.9, 0)
            R2 = np.abs(g.R).max() ** 2
            assert tolerance == max(1e-8, 64 * np.finfo(float).eps * (C * g.G.max() + R2))
            assert abs(got - margin) <= 1e-12 * max(R2, C * g.G.max(), 1.0)

    def test_spectral_check_takes_the_largest_weights_in_index_order(self, monkeypatch):
        # 24 modes of w = 3.5 and 10 tied at w = 1.75 across the cut at 32:
        # the lower indices of the tie are taken, whatever order the partition
        # leaves.  The distinct input entries tell the modes apart.
        mask = np.linspace(0.01, 1.0, 64)
        system = st.fractional_heat(64, 1.5, 1.0, mask=mask)
        R = np.ones(64)
        R[40:], R[10:20] = 2.0, 1.5
        g = st.GramianBundle(R, np.ones(64), "discrete", 1.0, 1.0)
        built = []
        monkeypatch.setattr(obscheck, "ContinuousSystem", lambda A, B: built.append(
            np.diag(B).real) or linsys.ContinuousSystem(A, B))
        brute_force_max_violation(system, g, 0.5, 0.9, 0)
        assert_allclose(built[0], mask[np.r_[40:64, 10:18]], rtol=0, atol=0)


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
        for T_max in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="T_max must be finite and > 0"):
                st.pathological_periods(OSC.A, T_max)

    def test_too_many_periods_are_refused_before_allocating(self):
        # A gap of 2e3 up to T_max = 1e4 has 3.2e6 multiples, just over the ceiling of 1e6.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="3.18e[+]06 candidate periods.*ceiling"):
                st.pathological_periods(np.diag([1e3j, -1e3j]), 1e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @settings(max_examples=60, deadline=None)
    @given(seed=hs.integers(0, 2 ** 32 - 1), n=hs.integers(2, 8),
           reals=hs.lists(hs.sampled_from([0.0, -0.5, 1.0]), min_size=8, max_size=8),
           imags=hs.lists(hs.one_of(hs.integers(-3, 3), hs.floats(-5.0, 5.0)),
                          min_size=8, max_size=8),
           T_max=hs.floats(0.1, 40.0))
    def test_one_pass_is_the_pair_loop(self, seed, n, reals, imags, T_max):
        # A dense A = V diag(lam) V^-1 whose eigenvalues share a few real parts,
        # and often their gaps too, so that periods coincide.
        lam = np.array(reals[:n]) + 1j * np.array(imags[:n])
        V = random_complex(np.random.default_rng(seed), (n, n)) + 2.0 * np.eye(n)
        A = V @ np.diag(lam) @ np.linalg.inv(V)
        got = st.pathological_periods(A, T_max)
        assert got == pathological_periods_loop(A, T_max)
        assert all(type(p) is float for p in got)


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


def _decoupled_system(seed: int, n: int, a: complex) -> st.ContinuousSystem:
    """random_mixed_system(seed, n, 1) plus a mode a that no input reaches, in a random basis."""
    base = random_mixed_system(seed, n, 1)
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[:n, :n], A[n, n] = base.A, a
    B = np.vstack([base.B, np.zeros((1, 1))])
    Q = np.linalg.qr(random_complex(np.random.default_rng((seed, n)), (n + 1, n + 1)))[0]
    return st.ContinuousSystem(Q.conj().T @ A @ Q, Q.conj().T @ B)


# Deterministic (system, T) cases per family: the oscillator on the README's
# sweep grid plus the multiples of pi where sampling loses stabilizability;
# dense mixed systems with n = 2..5 and m = 1..2; and dense systems with a
# decoupled mode that no input reaches, stable or not.
_PBH_CASES = {
    "oscillator": lambda: [(OSC, 0.05 + k * 0.05) for k in range(199)]
    + [(OSC, k * np.pi) for k in (1, 2, 3)],
    "mixed": lambda: [(random_mixed_system(seed, n, m), T)
                      for n in range(2, 6) for m in (1, 2) for seed in range(19)
                      for T in (0.3, 1.0, 2.5)],
    "decoupled": lambda: [(_decoupled_system(seed, n, a), T)
                          for n in (2, 3) for a in (-0.3 + 1j, 0.1 - 2j) for seed in range(4)
                          for T in (0.3, 1.0, 2.5)],
}


def _unstable_modes_have_inputs(growth: np.ndarray, inputs: np.ndarray) -> bool:
    """The PBH test of a diagonal pair with one input per mode: every mode whose
    growth does not decay has an input, with pbh_discrete's thresholds."""
    return bool(np.all(np.abs(inputs[growth >= -1e-9]) > 1e-8))


def _per_mode_pbh(sys: st.SpectralSystem, T: float) -> dict:
    """PBH per mode: dc needs b phi1(lambda, T) != 0 wherever |e^{lambda T}| >= 1,
    cc needs b != 0 wherever Re lambda >= 0; phi1 is formed here, not by linsys."""
    lam, b = sys.symbol_values, sys.control_mask
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = np.where(lam == 0, T, np.expm1(lam * T) / lam)
    return {"dc": _unstable_modes_have_inputs(np.abs(np.exp(lam * T)) - 1.0, b * phi1),
            "cc": _unstable_modes_have_inputs(lam.real, b)}


_SCHRODINGER = st.schrodinger(10, 3.0)
# Spectral (system, T) cases: frac-heat with its unstable modes (|xi| < 1)
# observed or not, and a neutral mode at xi = 0 (s = 2, c = 0) observed or not;
# Schroedinger off resonance, and at the T that puts the grid mode xi = 2 at
# xi^2 T = 2 pi, where its sampled input vanishes.
_SPECTRAL_PBH_CASES = {
    "frac-heat": lambda: [(st.fractional_heat(n, s, c, mask=np.asarray(mask, dtype=float)), T)
                          for n, s, c, mask in (
                              (12, 1.5, 1.0, [1.0] * 12),
                              (12, 1.5, 1.0, [1.0, 0.0, 0.5] * 4),
                              (12, 1.5, 1.0, [0.0] * 5 + [1.0] * 7),
                              (12, 1.5, 1.0, [1.0] * 5 + [0.0] + [1.0] * 6),
                              (13, 2.0, 0.0, [1.0] * 13),
                              (13, 2.0, 0.0, [1.0] * 6 + [0.0] + [1.0] * 6))
                          for T in (0.3, 1.0, 2.5)],
    "schrodinger": lambda: [(_SCHRODINGER, T) for T in
                            (0.3, 1.0, 2.5, 2 * np.pi / _SCHRODINGER.modes[6] ** 2)],
}


class TestPBHOracle:
    # In finite dimensions the inequalities hold for some N, C and delta < 1
    # exactly when the pair is stabilizable, which the PBH rank test decides
    # directly.  A feasible certificate must find a stabilizable pair, and a
    # structural infeasible one a pair that is not.  Exhausted searches prove
    # nothing and are only counted.
    @pytest.mark.parametrize("family", list(_PBH_CASES))
    def test_verdicts_agree_with_the_pbh_test(self, family):
        cases = _PBH_CASES[family]()
        seen = {"dc": set(), "cc": set()}
        exhausted = 0
        for sys, T in cases:
            pair = linsys.sample(sys, T)
            pbh = {"dc": pbh_discrete(pair.Phi, pair.D), "cc": pbh_continuous(sys.A, sys.B)}
            for mode, decide in (("dc", st.decide_dc), ("cc", st.decide_cc)):
                try:
                    cert = decide(sys, T)
                except st.SearchExhausted:
                    exhausted += 1
                    continue
                assert cert.feasible == pbh[mode], (family, mode, T)
                seen[mode].add(cert.feasible)
        assert exhausted <= len(cases) // 10
        want = {"oscillator": {"dc": {True, False}, "cc": {True}},
                "mixed": {"dc": {True}, "cc": {True}},
                "decoupled": {"dc": {True, False}, "cc": {True, False}}}[family]
        assert seen == want

    @pytest.mark.parametrize("family", list(_SPECTRAL_PBH_CASES))
    def test_spectral_verdicts_agree_with_the_per_mode_rule(self, family):
        # A diagonal pair has one input per mode, so its PBH test reads mode
        # by mode; it agrees with the dense test on the diagonal matrices.
        seen = {"dc": set(), "cc": set()}
        for sys, T in _SPECTRAL_PBH_CASES[family]():
            pbh = _per_mode_pbh(sys, T)
            pair = linsys.sample(sys, T)
            assert pbh["dc"] == pbh_discrete(np.diag(pair.Phi), np.diag(pair.D))
            assert pbh["cc"] == pbh_continuous(np.diag(sys.symbol_values),
                                               np.diag(sys.control_mask))
            for mode, decide in (("dc", st.decide_dc), ("cc", st.decide_cc)):
                cert = decide(sys, T)  # no case exhausts its search
                assert cert.feasible == pbh[mode], (family, mode, T)
                seen[mode].add(cert.feasible)
        want = {"frac-heat": {"dc": {True, False}, "cc": {True, False}},
                "schrodinger": {"dc": {True, False}, "cc": {True}}}[family]
        assert seen == want

    def test_oscillator_fails_pbh_only_at_degenerate_periods(self):
        # Sampling loses stabilizability where two eigenvalues alias
        # (pathological_periods) or where phi1(lambda, T) = 0 (T in 2 pi Z).
        periods = [T for sys, T in _PBH_CASES["oscillator"]()]
        degenerate = np.array(st.pathological_periods(OSC.A, max(periods))
                              + [2 * np.pi * k for k in range(1, 3)])
        failing = []
        for T in periods:
            pair = linsys.sample(OSC, T)
            if not pbh_discrete(pair.Phi, pair.D):
                failing.append(T)
                assert np.abs(degenerate - T).min() <= 1e-9, T
        assert failing == [np.pi, 2 * np.pi, 3 * np.pi]
