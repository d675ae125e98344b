"""Feedback synthesis through the sampled LQ kernel.

One period of the flow turns the continuous system into a discrete pair
(Phi, D).  The fixed point of K = Phi* K (I + D D* K)^{-1} Phi + I is the
stabilizing kernel whenever the pair is stabilizable; riccati_solve reaches
it by doubling, each step covering twice the horizon of the last.  The
induced gain F = -(I + D* K D)^{-1} D* K Phi puts the closed loop strictly
inside the unit disk.
"""

import numpy as np

import sampstab as st

# Scalar warm-up: Phi = D = 1 gives the golden-ratio kernel.
pair = st.SampledSystem([[1.0]], [[1.0]], 1.0)
sol = st.riccati_solve(pair)
gain = st.feedback_gain(sol, pair)
print("scalar pair Phi = D = 1:")
print(f"  K = {sol.K[0, 0].real:.12f}   (golden ratio {(1 + np.sqrt(5)) / 2:.12f})")
print(f"  F = {gain.F[0, 0].real:+.12f}  closed loop = {gain.spectral_radius:.12f}")

# The finite-horizon oracle climbs monotonically to the kernel.
print("\nfinite-horizon costs P_n converge to K:")
for n in (1, 2, 5, 10, 20, 40):
    P = st.dp_value_iterate(pair, n)
    print(f"  n = {n:3d}   P_n = {P[0, 0].real:.12f}")

# The oscillator sampled at a regular period.
osc = st.harmonic_oscillator()
T = 1.0
pair = st.sample(osc, T)
sol = st.riccati_solve(pair)
gain = st.feedback_gain(sol, pair)
print(f"\noscillator sampled at T = {T}:")
print(f"  doublings = {sol.iterations} (horizon 2^{sol.iterations}), "
      f"residual = {sol.residual:.2e}")
print(f"  gain F = {np.round(gain.F.real, 6)}")
print(f"  spectral radius of Phi + D F = {gain.spectral_radius:.6f}")

y0 = np.array([1.0, 0.0])
print(f"  kernel cost <K y0, y0>      = {st.lq_optimal_cost(sol, y0):.6f}")
print(f"  simulated closed-loop cost  = {st.closed_loop_cost(gain, y0):.6f}")
print("  (the second sums ||y_i||^2 + ||u_i||^2 from i = 1, so it is the first"
      " minus ||y0||^2)")
