"""Random-access position encoding: collision statistics against brute force,
and the closed-form first-resolvable-index weights."""

import numpy as np

from omrsim.analytic import p_j_pmf
from omrsim.engine import rach_round

# exhaustive enumeration of every slot assignment
import itertools


def enumerate_j(b, k):
    pmf = np.zeros(k + 1)
    for slots in itertools.product(range(b), repeat=k):
        counts = np.bincount(slots, minlength=b)
        res = [counts[s] == 1 for s in slots]
        pmf[res.index(True) + 1 if any(res) else 0] += 1
    return pmf / b ** k


b, k = 4, 3
exact = enumerate_j(b, k)
sim = np.bincount(rach_round(k, b, 200_000, np.random.default_rng(1))[1],
                  minlength=k + 1) / 200_000
formula = p_j_pmf(k, b)

print(f"{k} relays over {b} RACH slots; j = index of the first relay whose")
print("position survives the collisions (0 = all collided)\n")
print(" j   enumeration   simulated   closed form")
for j in range(k + 1):
    print(f"{j:2d}   {exact[j]:.4f}       {sim[j]:.4f}      {formula[j]:.4f}")
print("\nThe closed form tracks j=1 exactly; its inclusion-exclusion step")
print("overweights mid-range indices (its derivation treats prefix")
print("resolvability as independent), which narrows as slots multiply:")
for bb in (4, 8, 16):
    gap = np.abs(p_j_pmf(3, bb) - enumerate_j(bb, 3)).max()
    print(f"  B = {bb:2d}: max pmf deviation {gap:.4f}")
