"""Benchmark systems: oscillator determinant, masked diffusion, witness states."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs
from numpy.testing import assert_allclose
from scipy.integrate import quad

import sampstab as st
from sampstab import benchmarks
from sampstab.benchmarks import _witness_observed

from conftest import det_lambda_quadrature, to_dense, witness_observed_loop


class TestHarmonicOscillator:
    def test_spectrum(self):
        osc = st.harmonic_oscillator()
        assert_allclose(sorted(np.linalg.eigvals(osc.A).imag), [-1.0, 1.0], atol=1e-14)
        assert_allclose(np.linalg.eigvals(osc.A).real, 0.0, atol=1e-14)

    def test_controllability_rank(self):
        osc = st.harmonic_oscillator()
        ctrb = np.hstack([osc.B, osc.A @ osc.B])
        assert np.linalg.matrix_rank(ctrb) == 2

    def test_full_turn_is_identity(self):
        assert_allclose(st.semigroup(st.harmonic_oscillator(), 2 * np.pi),
                        np.eye(2), atol=1e-13)


class TestDetLambda:
    @pytest.mark.parametrize("T,value", [(np.pi, 0.0), (np.pi / 2, -2.0), (2 * np.pi, 0.0)])
    def test_known_values(self, T, value):
        assert_allclose(st.det_lambda(T), value, atol=1e-12)
        assert_allclose(det_lambda_quadrature(T), value, atol=1e-12)

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(42)
        for T in rng.uniform(1e-3, 10.0, size=100):
            assert abs(st.det_lambda(float(T)) - det_lambda_quadrature(float(T))) <= 1e-12

    def test_zeros_exactly_at_degenerate_periods(self):
        for T in (1.0, 2.0, 2.5, 4.0):
            assert abs(st.det_lambda(T)) > 1e-3


class TestFractionalHeat:
    def test_unshifted_symbol_is_dissipative(self):
        heat = st.fractional_heat(17, 1.5, 0.0)
        lam = heat.symbol_values
        assert np.all(lam.real <= 0.0)
        k0 = np.argmin(np.abs(heat.modes))
        assert heat.modes[k0] == 0.0 and lam[k0] == 0.0  # neutral zero mode

    def test_shift_destabilizes_low_modes(self):
        heat = st.fractional_heat(33, 2.0, 1.0)
        lam = heat.symbol_values
        unstable = lam.real > 0
        assert np.array_equal(unstable, np.abs(heat.modes) < 1.0)
        assert unstable.any()

    def test_explicit_modes(self):
        heat = st.fractional_heat(2, 2.0, 0.0, modes=[1.0, 2.0])
        assert_allclose(heat.symbol_values, [-1.0, -4.0])

    def test_full_mask_is_decidable_at_every_tested_period(self):
        heat = st.fractional_heat(17, 1.5, 1.0)
        for T in (0.5, 1.0, 2.0):
            cert = st.decide_dc(heat, T, N_max=4, delta_target=0.9)
            assert cert.feasible

    def test_mask_from_interval_spec(self):
        spec = st.ThickSetSpec(intervals=((0.0, 2.0),), domain_length=4.0, gamma=0.5)
        heat = st.fractional_heat(9, 1.5, 0.0, mask=spec, xi_max=4.0)
        assert_allclose(heat.control_mask, (np.abs(heat.modes) < 2.0).astype(float))

    def test_weaker_nested_mask_needs_larger_constant(self):
        # Pointwise-smaller weighted masks order the Gramians, so the
        # smallest certificate constant grows as control authority thins out.
        n = 33
        idx = np.arange(n)
        full = np.ones(n)
        weak = np.where(idx % 2 == 0, 1.0, 0.2)
        weaker = np.where(idx % 2 == 0, 1.0, 0.05)
        costs = []
        for mask in (full, weak, weaker):
            heat = st.fractional_heat(n, 1.5, 1.0, mask=mask)
            cert = st.decide_dc(heat, 1.0, N_max=4, delta_target=0.9)
            assert cert.feasible and cert.N == 1
            costs.append(cert.C)
        assert costs[0] < costs[1] < costs[2]

    def test_zero_mask_on_unstable_mode_blocks_stabilization(self):
        # A hard-zero mask entry removes that mode from the Gramian entirely;
        # if the mode is unstable no constant can compensate.
        n = 33
        mask = np.where(np.arange(n) % 2 == 0, 1.0, 0.0)
        heat = st.fractional_heat(n, 1.5, 1.0, mask=mask)
        cert = st.decide_dc(heat, 1.0, N_max=4, delta_target=0.9)
        assert not cert.feasible
        assert cert.kernel_norm > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            st.fractional_heat(5, 1.0, 0.0)
        with pytest.raises(ValueError):
            st.fractional_heat(5, 1.5, -0.1)


class TestSchrodinger:
    def test_unitary_entries(self):
        sch = st.schrodinger(33, 4.0)
        d = st.semigroup(sch, 1.3)
        assert np.abs(np.abs(d) - 1.0).max() <= 1e-12

    def test_open_loop_does_not_decay(self):
        sch = to_dense(st.schrodinger(17, 3.0))
        y0 = np.ones(17) / math.sqrt(17)
        traj = st.simulate_cc(sch, np.zeros((17, 17)), 1.0, y0, 15.0, 4)
        assert st.fit_decay(traj)[0] == 0.0

    def test_uniform_damping_rate(self):
        sch = to_dense(st.schrodinger(17, 3.0))
        y0 = np.ones(17) / math.sqrt(17)
        traj = st.simulate_cc(sch, -0.3 * np.eye(17), 1.0, y0, 15.0, 4)
        omega, _ = st.fit_decay(traj)
        assert abs(omega - 0.3) <= 1e-3


class TestWitness:
    def grid(self, T, N, epsilon, points=400):
        _, lo, hi = st.witness_band(T, N, epsilon)
        spacing = (hi - lo) / points
        return np.arange(0.0, 1.05 * hi, spacing)

    def test_basic_guarantee(self):
        wit = st.schrodinger_witness(1.0, 1, 0.1, self.grid(1.0, 1, 0.1))
        assert wit.observed <= 0.1
        assert abs(wit.norm() - 1.0) <= 1e-12

    def test_bound_formula(self):
        wit = st.schrodinger_witness(0.5, 4, 0.01, self.grid(0.5, 4, 0.01))
        eta = wit.eta
        assert_allclose(wit.bound, 4 * (eta * 0.5 / (2 * math.pi - eta)) ** 2, rtol=1e-12)
        assert wit.bound <= 0.01 * (1 + 1e-12)
        assert_allclose(wit.support[0], math.sqrt((2 * math.pi - eta) / 0.5), rtol=1e-12)
        assert_allclose(wit.support[1], math.sqrt((2 * math.pi + eta) / 0.5), rtol=1e-12)

    def test_observed_below_bound(self):
        for T in (0.5, 2.0):
            wit = st.schrodinger_witness(T, 2, 0.05, self.grid(T, 2, 0.05))
            assert wit.observed <= wit.bound + 1e-10

    def test_support_inside_positive_axis(self):
        wit = st.schrodinger_witness(2.0, 1, 0.1, self.grid(2.0, 1, 0.1))
        assert 0.0 < wit.support[0] < wit.support[1]
        assert 0.0 < wit.eta < 2 * math.pi

    def test_grid_too_coarse(self):
        with pytest.raises(st.GridTooCoarse):
            st.schrodinger_witness(1.0, 2, 0.01, np.linspace(0.0, 4.0, 64))

    def test_bump_that_vanishes_on_the_grid(self):
        # 32 points inside the support, all where exp(-1 / (1 - u^2)) underflows.
        _, lo, hi = st.witness_band(1.0, 2, 0.01)
        u = np.concatenate([-np.linspace(0.99999, 0.9995, 16), np.linspace(0.9995, 0.99999, 16)])
        with pytest.raises(st.GridTooCoarse, match="bump vanished"):
            st.schrodinger_witness(1.0, 2, 0.01, lo + (u + 1) / 2 * (hi - lo))

    def test_quadrature_estimate_past_the_slack(self, monkeypatch):
        # The coarse grid's estimate is moved by the bound: the difference no
        # longer fits in bound - observed.
        grid = self.grid(1.0, 2, 0.01)
        observed = benchmarks._witness_observed
        calls = []

        def coarse_moved(g, phi, T, N):
            calls.append(g.size)
            return observed(g, phi, T, N) + (0.01 if len(calls) == 2 else 0.0)

        monkeypatch.setattr(benchmarks, "_witness_observed", coarse_moved)
        with pytest.raises(st.GridTooCoarse, match="quadrature error estimate"):
            st.schrodinger_witness(1.0, 2, 0.01, grid)
        assert calls == [grid.size, grid[::2].size]

    @pytest.mark.parametrize("T,N,epsilon,match", [
        (0.0, 2, 0.01, "T must be"), (math.inf, 2, 0.01, "T must be"),
        (math.nan, 2, 0.01, "T must be"), (1.0, 0, 0.01, "N must lie"),
        pytest.param(1.0, 2 ** 1024, 0.01, "N must lie", id="N-past-the-float-range"),
        (1.0, 2, 0.0, "epsilon must"),
        (1.0, 2, math.inf, "epsilon must"), (1.0, 2, math.nan, "epsilon must"),
        # eta rounds to 2 pi, so the band reaches 0; 2 pi / T overflows.
        (1e-300, 2, 0.01, "band"), (1.0, 2, 1e300, "band"), (5e-324, 2, 5e-324, "band"),
    ])
    def test_band_refusals(self, T, N, epsilon, match):
        with pytest.raises(ValueError, match=match):
            st.witness_band(T, N, epsilon)

    @pytest.mark.parametrize("change,match", [
        (lambda wit: {"eta": 0.0}, "eta must lie"),
        (lambda wit: {"eta": 2 * math.pi}, "eta must lie"),
        (lambda wit: {"phi": 2 * wit.phi}, "norm"),
        (lambda wit: {"observed": wit.bound + 1e-9}, "exceeds"),
    ], ids=["eta-0", "eta-2pi", "norm-2", "observed-past-bound"])
    def test_witness_refusals(self, change, match):
        wit = st.schrodinger_witness(1.0, 2, 0.05, self.grid(1.0, 2, 0.05))
        with pytest.raises(ValueError, match=match):
            replace(wit, **change(wit))

    @pytest.mark.parametrize("N", [1, 2, 8])
    def test_observed_sum_matches_the_interval_loop(self, N):
        # One interval times N against the interval-by-interval oracle.
        wit = st.schrodinger_witness(0.5, N, 0.001, self.grid(0.5, N, 0.001, points=4096))
        ref = witness_observed_loop(wit.grid, wit.phi, 0.5, N)
        assert_allclose(wit.observed, ref, rtol=1e-12, atol=0.0)

    def test_interval_integral_against_quadrature(self):
        # The per-mode coefficient integrates exp(-i xi^2 t) over [(i-1)T, iT].
        T, N = 0.8, 3
        grid = np.array([2.0, 2.6, 3.1])
        phi = np.array([1.0, 0.5, 0.25], dtype=complex)
        total = _witness_observed(grid, phi, T, N)
        w = np.zeros(3)
        d = np.diff(grid)
        w[:-1] += d / 2
        w[1:] += d / 2
        ref = 0.0
        for i in range(1, N + 1):
            vals = []
            for xi in grid:
                re = quad(lambda t: math.cos(xi ** 2 * t), (i - 1) * T, i * T, epsabs=1e-13)[0]
                im = quad(lambda t: -math.sin(xi ** 2 * t), (i - 1) * T, i * T, epsabs=1e-13)[0]
                vals.append(re + 1j * im)
            g = np.array(vals) * phi
            ref += float(np.sum(w * np.abs(g) ** 2))
        assert_allclose(total, ref, rtol=1e-10)


@hs.composite
def thick_sets(draw):
    """(spec, L): up to six disjoint intervals in a domain, and a window length."""
    length = draw(hs.floats(0.5, 20.0))
    ends = sorted(draw(hs.lists(hs.floats(0.0, length), min_size=2, max_size=12, unique=True)))
    ends = ends[:len(ends) // 2 * 2]
    spec = st.ThickSetSpec(tuple(zip(ends[::2], ends[1::2])), length, 0.5)
    return spec, length * draw(hs.floats(0.01, 1.0))


class TestThickness:
    @pytest.mark.parametrize("intervals,length,gamma,match", [
        (((0.0, 1.0),), 0.0, 0.5, "domain_length"),
        (((0.0, 1.0),), 2.0, 0.0, "gamma"),
        (((0.0, 1.0),), 2.0, 1.5, "gamma"),
        (((1.0, 3.0),), 2.0, 0.5, "not inside"),
        (((1.0, 1.0),), 2.0, 0.5, "not inside"),
        (((0.0, 1.0), (0.5, 1.5)), 2.0, 0.5, "disjoint"),
    ])
    def test_spec_refusals(self, intervals, length, gamma, match):
        with pytest.raises(ValueError, match=match):
            st.ThickSetSpec(intervals, length, gamma)

    def test_whole_domain(self):
        spec = st.ThickSetSpec(intervals=((0.0, 10.0),), domain_length=10.0, gamma=1.0)
        res = st.is_thick(spec, 2.0)
        assert res.thick
        assert_allclose(res.gamma_measured, 1.0, atol=1e-12)

    def test_alternating_intervals(self):
        ivs = tuple((2 * k, 2 * k + 1) for k in range(10))
        spec = st.ThickSetSpec(intervals=ivs, domain_length=20.0, gamma=0.5)
        res = st.is_thick(spec, 2.0)
        assert res.thick
        assert_allclose(res.gamma_measured, 0.5, atol=1e-12)

    def test_localized_set_is_not_thick(self):
        spec = st.ThickSetSpec(intervals=((0.0, 1.0),), domain_length=100.0, gamma=0.1)
        res = st.is_thick(spec, 10.0)
        assert not res.thick
        assert res.gamma_measured == 0.0

    def test_sliding_window_oracle(self):
        # Direct enumeration over a dense set of window positions.
        ivs = ((0.0, 1.0), (3.0, 4.5), (7.0, 7.5))
        spec = st.ThickSetSpec(intervals=ivs, domain_length=10.0, gamma=0.05)
        L = 3.0
        res = st.is_thick(spec, L)
        xs = np.linspace(0.0, 10.0 - L, 2001)
        direct = min(
            sum(max(0.0, min(b, x + L) - max(a, x)) for a, b in ivs) / L for x in xs
        )
        assert abs(res.gamma_measured - direct) <= 2e-3

    def test_empty_window_between_samples_is_found(self):
        # [0.503, 1.503] holds no part of the set; window starts L/100 apart skipped it.
        spec = st.ThickSetSpec(((0.0, 0.503), (1.503, 2.0)), 2.0, 0.002)
        res = st.is_thick(spec, 1.0)
        assert res.thick is False
        assert 0.0 <= res.gamma_measured <= 1e-15

    @given(case=thick_sets())
    def test_exact_minimum_against_enumeration(self, case):
        spec, L = case
        res = st.is_thick(spec, L)
        assert type(res.thick) is bool and type(res.gamma_measured) is float
        span = spec.domain_length - L
        enumerated = min(spec.measure_in(x, x + L) for x in np.linspace(0.0, span, 2001)) / L
        # The measure moves at most |dx| as the window slides, so the nearest
        # of the enumerated starts reads at most half a step above the minimum.
        assert res.gamma_measured <= enumerated + 1e-12
        assert enumerated - res.gamma_measured <= span / 4000 / L + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            st.ThickSetSpec(intervals=((0.0, 2.0), (1.0, 3.0)), domain_length=5.0, gamma=0.5)
        with pytest.raises(ValueError):
            st.ThickSetSpec(intervals=((0.0, 6.0),), domain_length=5.0, gamma=0.5)
        spec = st.ThickSetSpec(intervals=((0.0, 1.0),), domain_length=5.0, gamma=0.5)
        with pytest.raises(ValueError):
            st.is_thick(spec, 6.0)
