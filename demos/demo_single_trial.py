"""One forwarding trial, hop by hop: relay sets, RACH outcomes, retransmissions,
delay spread at the destination."""

from omrsim.channel import PhyConfig
from omrsim.engine import RetransmitPolicy, run_trial
from omrsim.field import FieldConfig
from omrsim.metrics import trial_e2e

field = FieldConfig()
phy = PhyConfig()
policy = RetransmitPolicy()

res = run_trial(field, phy, policy, b=24, seed=7)
print(f"trial: reached = {res.reached} "
      f"in q = {res.q} hops\n")
print("hop  transmitters  j  decoders  relays_formed  retries  contour_m")
for r in res.records:
    print(f"{r.hop:3d}  {r.k_prev:12d}  {r.j_prev:1d}  {r.l:8d}  "
          f"{r.k:13d}  {r.n_r:7d}  {r.xh0:9.1f}")

energy, delay = trial_e2e(res.records, phy)
print(f"\nforwarding delay spread at the destination: "
      f"{res.delay_spread_s * 1e6:.3f} us")
print(f"end-to-end energy {energy:.3f} J, latency {delay * 1e3:.1f} ms")
