#!/usr/bin/env python3
"""Growing the slab one cell at a time is a unit-disk iteration.

At a real frequency, the reflection coefficients r_1, r_2, r_3, ... are
successive iterates of a single linear-fractional automorphism of the
unit disk.  Its fixed points tell the story: elliptic inside bands (the
iterates rotate forever), hyperbolic inside gaps and parabolic at
non-degenerate band edges (the iterates converge to the half-infinite
reflection coefficient, which has unit modulus).  None of this needs equal
layer transit times."""
import warnings

import numpy as np

from stepslab import (UnitCell, find_bands, fixed_points, iterate_limit,
                      mobius_map, r1, r1_modulus_bound,
                      reflection_half_infinite, reflection_k)

cell = UnitCell(1.0, 4.0, 0.2)
bands = find_bands(cell, 4.0)
mid_band = 0.5 * (bands[0].lo + bands[0].hi)
mid_gap = 0.5 * (bands[0].hi + bands[1].lo)

print("One-cell reflection and the map that appends a cell")
print("---------------------------------------------------")
lam = 0.5
fmap = mobius_map(cell, lam)
z = 0.0 + 0.0j
print(f"at lambda = {lam}: iterating from the empty slab r_0 = 0")
for k in range(1, 6):
    z = fmap.apply(z)
    direct = reflection_k(cell, lam, k)
    print(f"  k={k}: iterate {z:+.8f}   direct {direct:+.8f}   diff {abs(z - direct):.1e}")
print(f"|r1| never exceeds 2|d|/(1+d^2) = {r1_modulus_bound(cell):.6f}")
sweep = np.abs(r1(cell, np.linspace(0.001, 8.0, 20000)))
print(f"sweep max |r1| = {sweep.max():.6f}")
print()

print("Fixed points classify the frequency")
print("-----------------------------------")
for label, lam in (("mid-band", mid_band), ("mid-gap", mid_gap),
                   ("non-degenerate edge", bands[0].hi)):
    fp = fixed_points(cell, lam)
    print(f"{label} (lambda = {lam:.5f}): {fp.kind.value}")
    if fp.z1 == fp.z2:
        print(f"    z1 = z2 = {fp.z1:+.6f}  |z1| = {abs(fp.z1):.6f}  (a double root)")
        continue
    print(f"    z1 = {fp.z1:+.6f}  |z1| = {abs(fp.z1):.6f}")
    print(f"    z2 = {fp.z2:+.6f}  |z2| = {abs(fp.z2):.6f}")
print()

print("Iteration limits")
print("----------------")
res = iterate_limit(cell, mid_band, r1(cell, mid_band))
print(f"mid-band: converged = {res.converged} (elliptic orbits keep rotating)")
res = iterate_limit(cell, mid_gap, r1(cell, mid_gap))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    rinf = reflection_half_infinite(cell, mid_gap)
print(f"mid-gap:  converged = {res.converged}, limit = {res.value:+.8f}")
print(f"          half-infinite medium gives  {rinf:+.8f}   (|r| = {abs(rinf):.6f})")
print()

print("Inside a gap the finite slab converges to the half-infinite medium:")
for k in (2, 4, 8, 16):
    print(f"  k={k:2d}: |r_k - r_inf| = {abs(reflection_k(cell, mid_gap, k) - rinf):.2e}")
print()

print("Unequal layer transit times: the same map, the same classes")
print("-----------------------------------------------------------")
skewed = UnitCell(1.0, 3.8, 0.2)
b1, b2 = find_bands(skewed, 4.0)[:2]
fmap = mobius_map(skewed, 0.5)
z = 0.0 + 0.0j
for k in range(1, 9):
    z = fmap.apply(z)
print(f"at lambda = 0.5, 8 iterates from r_0 = 0: |z - r_8| = "
      f"{abs(z - reflection_k(skewed, 0.5, 8)):.1e}")
for label, lam in (("mid-band", 0.5 * (b1.lo + b1.hi)), ("mid-gap", 0.5 * (b1.hi + b2.lo))):
    res = iterate_limit(skewed, lam, r1(skewed, lam))
    print(f"{label} (lambda = {lam:.5f}): {fixed_points(skewed, lam).kind.value}, "
          f"converged = {res.converged}, z_N = {res.value:+.8f}")
print(f"half-infinite medium at mid-gap gives {reflection_half_infinite(skewed, lam):+.8f}")
