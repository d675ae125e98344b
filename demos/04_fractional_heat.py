"""Masked control of an unstable fractional diffusion truncation.

The generator diagonal is c - |xi|^s on a symmetric frequency grid: with
c > 0 the low modes grow under zero control.  A diagonal mask models where
control acts.  At this finite truncation any everywhere-positive mask keeps
the decision problem feasible, but the certificate constant records how the
required control effort explodes as the mask weights thin out; a hard zero
on an unstable mode ends stabilizability outright.
"""

import numpy as np

import sampstab as st

n, s, c, T = 65, 1.5, 1.0, 1.0

heat = st.fractional_heat(n, s, c)
unstable = int((heat.symbol_values.real > 0).sum())
print(f"truncation: {n} modes, s = {s}, c = {c}; {unstable} unstable modes")

cert = st.decide_dc(heat, T, N_max=8, delta_target=0.9)
pair = st.sample(heat, T)
sol = st.riccati_solve(pair)
gain = st.feedback_gain(sol, pair)  # per-mode: F is the gain's diagonal
y0 = np.ones(n) / np.sqrt(n)
traj = st.simulate_dc(heat, gain.F, T, y0, 40 * T, 8)
omega, _ = st.fit_decay(traj)
print(f"full mask: feasible (C = {cert.C:.3f}), closed-loop radius "
      f"{gain.spectral_radius:.4f}, fitted omega {omega:.4f}, "
      f"norm ratio over 40 periods {traj.norms()[-1] / traj.norms()[0]:.2e}")

print("\ncertificate constant vs mask weight on every other mode:")
idx = np.arange(n)
for w in (1.0, 0.5, 0.2, 0.1, 0.05, 0.02):
    mask = np.where(idx % 2 == 0, 1.0, w)
    cert = st.decide_dc(st.fractional_heat(n, s, c, mask=mask), T,
                        N_max=8, delta_target=0.9)
    print(f"  weight = {w:5.2f}   C = {cert.C:14.2f}")

mask0 = np.where(idx % 2 == 0, 1.0, 0.0)
cert0 = st.decide_dc(st.fractional_heat(n, s, c, mask=mask0), T,
                     N_max=8, delta_target=0.9)
print(f"  weight =  0.00   infeasible = {not cert0.feasible} "
      f"(kernel transition norm {cert0.kernel_norm:.1f})")

# Window-density check of a control region on the frequency axis.
spec = st.ThickSetSpec(
    intervals=tuple((2.0 * k, 2.0 * k + 0.8) for k in range(10)),
    domain_length=20.0, gamma=0.35,
)
res = st.is_thick(spec, L=4.0)
print(f"\nperiodic control region: thick at L = 4 -> {res.thick} "
      f"(measured window density {res.gamma_measured:.3f})")
