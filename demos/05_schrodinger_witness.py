"""A flow that no sampled constant gain can stabilize, at any period.

The free Schroedinger truncation has unit-modulus flow entries, so states
keep their norm forever.  Uniform damping under continuous observation
stabilizes it at any rate gamma.  Under sampled observation, for every
period T, horizon N, and target epsilon there is a unit state concentrated
where the one-period phase xi^2 T wraps through 2 pi; its interval-integrated
observations nearly cancel, so the observability sum stays below epsilon
while the transition keeps norm 1.  Letting epsilon -> 0 forces the
admissible slack delta -> 1: the inequality can never close.
"""

import math

import numpy as np

import sampstab as st


def witness_grid(T, N, eps, points=512):
    # The state vanishes outside its band, so the grid covers the band alone.
    _, lo, hi = st.witness_band(T, N, eps)
    return np.linspace(lo, hi, points + 2)


print("witness table: observed observability sum vs its guarantee")
print(f"{'T':>5} {'N':>3} {'epsilon':>8} {'eta':>8} {'support':>18} "
      f"{'observed':>10} {'bound':>8}")
for T in (0.5, 1.0, 2.0):
    for N in (1, 2, 4):
        for eps in (0.1, 0.01):
            wit = st.schrodinger_witness(T, N, eps, witness_grid(T, N, eps))
            lo, hi = wit.support
            print(f"{T:5.1f} {N:3d} {eps:8.2f} {wit.eta:8.4f} "
                  f"({lo:7.4f},{hi:7.4f}) {wit.observed:10.2e} {wit.bound:8.4f}")

# The norm of every witness is exactly one; the flow preserves it, so the
# inequality left-hand side stays at 1 while the right-hand side vanishes.

print("\ncontinuous observation with uniform damping stabilizes the same flow:")
sch = st.schrodinger(33, 4.0)
y0 = np.ones(33) / math.sqrt(33)
open_loop = st.simulate_cc(sch, np.zeros(33), 1.0, y0, 15.0, 4)
damped = st.simulate_cc(sch, -0.3 * np.ones(33), 1.0, y0, 15.0, 4)
print(f"  open loop fitted rate:   {st.fit_decay(open_loop)[0]:.6f}")
print(f"  gamma = 0.3 fitted rate: {st.fit_decay(damped)[0]:.6f}")
