"""The headline tradeoff: multihop relaying at reduced power against the
contention baseline at 33 dBm, cost = energy-delay product per bit."""

from omrsim.baseline import BclConfig, run_bcl
from omrsim.channel import PhyConfig
from omrsim.config import dbm_to_watts
from omrsim.engine import RetransmitPolicy, run_trial
from omrsim.field import FieldConfig
from omrsim.metrics import edp_and_cost, point_e2e

field = FieldConfig()
policy = RetransmitPolicy()
B = 24
TRIALS = 250

bcl = run_bcl(BclConfig(), field, PhyConfig(), trials=120, seed=3)
_, cost_b = edp_and_cost(bcl.e2e_energy_j, bcl.e2e_delay_s, 250e3, 0.01)
print(f"baseline at 33 dBm: E = {bcl.e2e_energy_j:.2f} J over "
      f"{bcl.e_hops:.1f} hops, latency {bcl.e2e_delay_s * 1e3:.0f} ms, "
      f"cycle stats eta={bcl.e_eta:.3f} m_e={bcl.e_m_e:.2f} m_n={bcl.e_m_n:.2f}\n")

print("OMR power sweep (cost ratio < 1 means OMR transports a bit cheaper):")
print("P_t_dBm   delivered   E/delivery_J   latency_ms   cost_ratio")
for pdbm in (24.0, 25.5, 27.0, 28.5, 30.0, 31.5, 33.0):
    phy = PhyConfig(p_t=dbm_to_watts(pdbm))
    results = [run_trial(field, phy, policy, b=B, seed=50_000 + s)
               for s in range(TRIALS)]
    ok = sum(res.reached for res in results)
    # failed trials' energy is charged to the delivered ones
    e_per, l_mean = point_e2e(results, phy)
    _, cost_o = edp_and_cost(e_per, l_mean, phy.r, phy.t_p)
    print(f"{pdbm:7.1f}   {ok:4d}/{TRIALS}    {e_per:12.3f}   "
          f"{l_mean * 1e3:10.1f}   {cost_o / cost_b:10.3f}")
print("\nThe ratio bottoms out 6-9 dB below the baseline's power: cheaper")
print("transmissions shrink each hop only by the cube root of the power cut,")
print("while the relay count keeps delay flat. Push lower and retransmissions")
print("turn the curve back up.")
