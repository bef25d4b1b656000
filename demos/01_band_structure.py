#!/usr/bin/env python3
"""Band structure of a two-step periodic medium.

Walks through the dispersion function F, the band/gap/edge taxonomy and
the frequency periodicity that appears when the two layers have equal
transit times.  Run directly; a PNG is written when matplotlib is
available.
"""
import numpy as np

from stepslab import (UnitCell, find_bands, is_commensurate, lyapunov,
                      spectral_period)

cell = UnitCell(b1=1.0, b2=4.0, x2=0.2)

print("Two-step cell: slowness b2 =", cell.b2, "on [0, 0.2), b1 =", cell.b1, "on [0.2, 1)")
print(f"  interface contrast d       = {cell.contrast}")
print(f"  impedance mismatch         = {cell.mismatch}")
print(f"  cell transit time          = {cell.transit_time}")
print(f"  layer transit-time skew    = {cell.transit_skew}")
print(f"  equal transit times?       = {is_commensurate(cell)}")
print()

# Real frequencies with |F| < 1 are the spectral bands of the infinite
# periodic medium.
lambda_max = 2.0 * spectral_period(cell)
bands = find_bands(cell, lambda_max)
print(f"Bands up to lambda = {lambda_max:.5f}:")
for b in bands:
    hi_type = b.hi_type.value if b.hi_type else "clipped"
    print(f"  band {b.index}: ({b.lo:.6f}, {b.hi:.6f})  edges: {b.lo_type.value} / {hi_type}")
print()

# Equal transit times make the whole picture periodic in frequency.
T = spectral_period(cell)
print(f"Spectral period T = pi/(b2 x2) = {T:.6f}")
grid = np.linspace(0.01, T, 7)
print("F(lambda) vs F(lambda + T):")
for lam in grid:
    print(f"  {lam:8.4f}: {float(lyapunov(cell, lam)):+.6f}  {float(lyapunov(cell, lam + T)):+.6f}")
print()

# A cell with unequal transit times loses the periodicity.
skewed = UnitCell(1.0, 3.8, 0.2)
T2 = spectral_period(skewed)
print(f"Skewed cell (b2 = 3.8): equal transit times? {is_commensurate(skewed)}")
worst = max(abs(float(lyapunov(skewed, lam)) - float(lyapunov(skewed, lam + T2)))
            for lam in grid)
print(f"  max |F(lambda) - F(lambda + pi/(b2 x2))| on the grid: {worst:.3f} (nonzero)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    xs = np.linspace(0.001, lambda_max, 2000)
    fs = lyapunov(cell, xs)
    fig, ax = plt.subplots(figsize=(8, 4))
    ax.plot(xs, fs, lw=1)
    ax.axhline(1.0, color="k", lw=0.5)
    ax.axhline(-1.0, color="k", lw=0.5)
    for b in bands:
        ax.axvspan(b.lo, b.hi, alpha=0.15, color="tab:green")
    ax.set_xlabel("frequency")
    ax.set_ylabel("dispersion function F")
    ax.set_title("bands are where |F| < 1")
    fig.tight_layout()
    fig.savefig("demo_band_structure.png", dpi=120)
    print("\nwrote demo_band_structure.png")
