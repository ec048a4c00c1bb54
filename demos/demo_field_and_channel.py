"""Walk through the deployment and link model: Poisson field, sleep schedule,
detection condition, coverage contours."""

import numpy as np

from omrsim.channel import PhyConfig, coverage_contour, detection_constant, power_sum
from omrsim.field import FieldConfig, awake_mask, deploy

cfg = FieldConfig()           # 1500 nodes/km^2, duty cycle 25%, 2 km strip
phy = PhyConfig()             # 33 dBm over 64 subcarriers, alpha = 3

dep = deploy(cfg, seed=42, t_p=phy.t_p)
print(f"deployed {dep.n} nodes over x in [{dep.bounds[0]:.0f}, "
      f"{dep.bounds[1]:.0f}] m, y in [{dep.bounds[2]:.0f}, {dep.bounds[3]:.0f}] m")

awake = awake_mask(dep.sleep_phases, 0.0, phy.t_p, cfg.epsilon)
print(f"awake at t=0: {awake.mean() * 100:.1f}% (duty cycle {cfg.epsilon:.0%})")

dc = detection_constant(phy)
print(f"\ndetection constant U = {dc.u:.3e} m^-3")
print(f"single-transmitter reach U^(-1/alpha) = {dc.single_relay_radius:.1f} m")

# a lone transmitter at the origin: who detects it?
relays = np.array([[0.0, 0.0]])
for d in (0.5, 0.99, 1.01, 1.5):
    h = power_sum(d * dc.single_relay_radius, 0.0, relays[:, 0], relays[:, 1],
                  phy.alpha)
    print(f"receiver at {d:4.2f} x reach: detected = {h >= dc.u}")

# aggregation gain: several co-located transmitters push the contour out as
# the cube root of their count
# (one call solves all four relay sets, given as strip-frame coordinates
# and the index where each set starts)
print("\ncoverage contour on the axis vs transmitter count:")
ks = np.array([1, 2, 4, 8])
xs = coverage_contour(np.zeros(ks.sum()), np.zeros(ks.sum()),
                      np.cumsum(ks) - ks, dc.u, phy.alpha)
for k, x in zip(ks, xs):
    print(f"  {k} transmitters -> {x:6.1f} m  (k^(1/3) scaling: "
          f"{dc.single_relay_radius * k ** (1 / 3):6.1f} m)")
