"""Where sampling destroys stabilizability: the harmonic oscillator.

The rotation system y' = [[0,1],[-1,0]] y + (0,1)^T u is controllable, so a
continuously-observed feedback stabilizes it.  Under sampled observation the
story changes at special periods: whenever T is a multiple of pi, the
interval-integrated observations of the cos-component vanish identically and
no constant gain seen through the sampler can stabilize the loop.
"""

import numpy as np

import sampstab as st

osc = st.harmonic_oscillator()

print("candidate degenerate periods up to T = 10:")
print("  ", [f"{p:.6f}" for p in st.pathological_periods(osc.A, 10.0)])

print("\ndeterminant of the 2x2 interval-observation matrix (zero <=> degenerate):")
for T in (1.0, np.pi / 2, 2.0, np.pi, 4.0, 2 * np.pi):
    print(f"  T = {T:8.5f}   det = {st.det_lambda(T):+.6f}")

print("\nfeasibility of the sampled observability inequality (delta = 0.9, N <= 8):")
for T in (0.5, 1.0, 2.0, 3.0, np.pi, 4.0, 2 * np.pi, 7.0):
    cert = st.decide_dc(osc, T, N_max=8, delta_target=0.9)
    if cert.feasible:
        print(f"  T = {T:8.5f}   feasible   N = {cert.N:g}  C = {cert.C:10.4f}")
    else:
        print(f"  T = {T:8.5f}   INFEASIBLE (transition norm on kernel = "
              f"{cert.kernel_norm:.6f})")

# Approaching a degenerate period, the certificate constant blows up while
# feasibility persists: the set of good periods is open.
print("\nconstant blow-up approaching T = pi:")
for T in (2.9, 3.0, 3.1, 3.14, 3.141, 3.1415):
    cert = st.decide_dc(osc, T, N_max=8, delta_target=0.9)
    print(f"  T = {T:7.4f}   C = {cert.C:14.2f}")
