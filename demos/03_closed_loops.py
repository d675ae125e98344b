"""Four observation/feedback regimes on one stabilized system.

cc: continuous observation, constant gain        y' = (A + BF) y
dc: sampled observation, constant gain           y' = A y + B F y(kT)
dp: sampled observation, periodic operator law   y' = A y + B F(t) y(kT)
cp: continuous observation, periodic law         y' = A y + B F(t) y

With the periodic law F(t) = F exp((A+BF)(t mod T)), the dp loop reproduces
the cc loop at every sampling instant: the richer feedback class pays back
exactly what sampled observation takes away.
"""

import numpy as np

import sampstab as st

rng = np.random.default_rng(3)
A = rng.standard_normal((3, 3))
B = rng.standard_normal((3, 2))
F = rng.standard_normal((2, 3))
A -= (np.linalg.eigvals(A + B @ F).real.max() + 0.4) * np.eye(3)
sys = st.ContinuousSystem(A, B)

T, steps = 0.5, 10
y0 = rng.standard_normal(3)

# One signature and one grid for all four loops; cp is RK4 at step T / steps.
cc = st.simulate_cc(sys, F, T, y0, 16 * T, steps)
dc = st.simulate_dc(sys, F, T, y0, 16 * T, steps)
dp = st.simulate_dp(sys, F, T, y0, 16 * T, steps)
cp = st.simulate_cp(sys, F, T, y0, 16 * T, steps)

print("fitted decay rates (trailing half of the horizon):")
for name, traj in (("cc", cc), ("dc", dc), ("dp", dp), ("cp", cp)):
    omega, c = st.fit_decay(traj)
    print(f"  {name}: omega = {omega:8.5f}   c = {c:8.5f}")

print("\nsample-instant agreement between dp and cc (relative error):")
for k in (1, 4, 8, 16):
    a = dp.states[k * steps]
    b = cc.states[k * steps]
    print(f"  k = {k:2d}   |z(kT) - y(kT)| / |y(kT)| = "
          f"{np.linalg.norm(a - b) / np.linalg.norm(b):.2e}")

# dc generally differs from cc between and at samples; it follows the
# one-period recursion y((k+1)T) = (Phi + D F) y(kT) instead.
pair = st.sample(sys, T)
M = pair.Phi + pair.D @ F
y = y0.astype(complex)
for _ in range(16):
    y = M @ y
print(f"\ndc endpoint against its defining recursion: "
      f"{np.linalg.norm(dc.states[-1] - y):.2e}")

print(f"dc endpoint against cc endpoint (different loops!): "
      f"{np.linalg.norm(dc.states[-1] - cc.states[-1]):.2e}")
