"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance and,
where stated, its runtime budget.  Every test prints a single
``[criterion NN] PASS`` line (visible with ``pytest -s`` or on failure).
"""

import math
import time
import warnings

import numpy as np
import pytest

from stepslab import (UnitCell, Window, audit_count, default_im_floor,
                      find_bands, fixed_points, FixedPointKind,
                      iterate_limit, lyapunov, mobius_map, monodromy,
                      perfect_transmission_frequencies, r1,
                      reflection_half_infinite, reflection_k,
                      resonances_k1, spectral_period, transfer_power,
                      transmission_sq)

from conftest import chain_reflection

CELL_A = UnitCell(1.0, 4.0, 0.2)   # equal transit times
CELL_B = UnitCell(1.0, 3.8, 0.2)   # skewed
CELL_C = UnitCell(3.8, 1.0, 0.8)   # skewed, negative contrast

# local import keeps the solver namespace explicit in this module
from stepslab import find_resonances  # noqa: E402


def _report(n, elapsed, detail):
    print(f"[criterion {n:02d}] PASS ({elapsed:.2f}s): {detail}")


def test_criterion_01_one_cell_closed_form():
    """find_resonances(k=1) reproduces the closed-form roots, < 1 s."""
    t0 = time.time()
    for cell in (CELL_A, CELL_B, CELL_C):
        step = math.pi / (cell.b2 * cell.x2)
        depth = math.log(abs(cell.contrast)) / (cell.b2 * cell.x2)
        closed = resonances_k1(cell, 2.2 * step)
        found = find_resonances(cell, 1, Window(0.0, 2.2 * step, 2.5 * depth))
        assert len(found) == len(closed) == 3
        for a, b in zip(closed, found):
            assert abs(a.lam.real - b.lam.real) <= 1e-8
            assert abs(a.lam.imag - b.lam.imag) <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, elapsed, "three cells, both coordinates within 1e-8")


def test_criterion_02_dual_route_reflection():
    """Propagator route and interface-chain route agree to 1e-9 relative, < 5 s."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    lams = rng.uniform(0.05, 4.0, 1000) + 1j * rng.uniform(-0.4, 0.4, 1000)
    for k in range(1, 9):
        poles = [r.lam for r in
                 find_resonances(CELL_A, k, Window(0.0, 4.2, -0.45))]
        keep = np.array([all(abs(lam - p) > 1e-3 for p in poles) for lam in lams])
        pts = lams[keep]
        ra = np.asarray(reflection_k(CELL_A, pts, k))
        rb = np.asarray(chain_reflection(CELL_A, pts, k))
        err = np.abs(ra - rb) / np.maximum(1.0, np.maximum(np.abs(ra), np.abs(rb)))
        assert np.max(err) <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(2, elapsed, "1000 points, k = 1..8, max relative defect <= 1e-9")


def test_criterion_03_transfer_power_oracle():
    """Chebyshev-recurrence power equals the direct matrix product, < 1 s."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    lams = rng.uniform(0.05, 8.0, 200) + 1j * rng.uniform(-1.0, 1.0, 200)
    for lam in lams:
        single = monodromy(CELL_A, lam).as_array()
        product = np.eye(2, dtype=complex)
        for k in range(1, 33):
            product = single @ product
            powered = transfer_power(CELL_A, lam, k).as_array()
            assert np.max(np.abs(powered - product)) <= 1e-9 * np.max(np.abs(product))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(3, elapsed, "200 random frequencies, k <= 32, relative 1e-9")


def test_criterion_04_unitarity():
    """|r_k|^2 + |t_k|^2 = 1 within 1e-10 on 1000 real frequencies, k <= 16."""
    t0 = time.time()
    xs = np.linspace(0.008, 8.0, 1000)
    worst = 0.0
    for k in range(1, 17):
        defect = np.abs(np.abs(reflection_k(CELL_A, xs, k)) ** 2
                        + transmission_sq(CELL_A, xs, k) - 1.0)
        worst = max(worst, float(defect.max()))
    assert worst <= 1e-10
    elapsed = time.time() - t0
    _report(4, elapsed, f"max defect {worst:.1e}")


def test_criterion_05_band_localization_and_count():
    """Resonance real parts live in bands; per-band counts are k-1 or k
    and the Newton and argument-principle counts agree, < 30 s."""
    t0 = time.time()
    bands = find_bands(CELL_A, 4.0)
    floor = default_im_floor(CELL_A)
    for k in (3, 4, 5):
        rs = find_resonances(CELL_A, k, Window(0.0, 4.0, floor))
        assert rs
        for r in rs:
            assert abs(lyapunov(CELL_A, r.lam.real)) < 1.0 + 1e-3
        for band in bands[:2]:
            newton = sum(1 for r in rs if r.band_index == band.index)
            contour = audit_count(CELL_A, k, band)
            assert newton == contour
            assert contour in (k - 1, k)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(5, elapsed, "k in {3,4,5}: localized, counts k-1 or k, oracles agree")


def test_criterion_06_spectral_periodicity():
    """Equal transit times make the resonance set periodic with period
    pi/(b2 x2); a skewed cell fails the same check by more than 1e-3."""
    t0 = time.time()
    T = spectral_period(CELL_A)
    first = find_resonances(CELL_A, 4, Window(0.0, T, -1.25))
    second = find_resonances(CELL_A, 4, Window(T, 2.0 * T, -1.25))
    assert len(first) == len(second) > 0
    worst = max(min(abs(a.lam + T - b.lam) for b in second) for a in first)
    assert worst <= 1e-6

    T2 = spectral_period(CELL_B)
    floor = default_im_floor(CELL_B)
    first = find_resonances(CELL_B, 4, Window(0.0, T2, floor))
    second = find_resonances(CELL_B, 4, Window(T2, 2.0 * T2, floor))
    assert first and second
    # at least one resonance has no translate within 1e-3
    mismatch = max(min(abs(a.lam + T2 - b.lam) for b in second) for a in first)
    assert mismatch > 1e-3
    elapsed = time.time() - t0
    _report(6, elapsed,
            f"commensurate match {worst:.1e}; skewed mismatch {mismatch:.2e}")


def test_criterion_07_convergence_to_real_axis():
    """Shallowest resonance depth shrinks strictly through k = 4, 8, 16, 32
    and by at least a factor of two overall, < 2 min."""
    t0 = time.time()
    band = find_bands(CELL_A, 4.0)[0]
    floor = default_im_floor(CELL_A)
    max_im = []
    for k in (4, 8, 16, 32):
        rs = find_resonances(CELL_A, k, Window(0.0, band.hi + 1e-3, floor))
        assert rs
        max_im.append(max(r.lam.imag for r in rs))
    assert all(b > a for a, b in zip(max_im, max_im[1:]))
    assert all(v < 0.0 for v in max_im)
    assert abs(max_im[-1]) <= abs(max_im[0]) / 2.0
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(7, elapsed, f"max Im: {', '.join(f'{v:.2e}' for v in max_im)}")


def test_criterion_08_degenerate_edge_transparency():
    """The slab reflects nothing at a degenerate band edge, for every k."""
    t0 = time.time()
    lam0 = math.pi / 0.8
    eps = 1e-9
    for k in range(1, 17):
        left = reflection_k(CELL_A, lam0 - eps, k)
        right = reflection_k(CELL_A, lam0 + eps, k)
        assert abs(left) <= 1e-6 and abs(right) <= 1e-6
        assert abs(0.5 * (left + right)) <= 1e-6
    elapsed = time.time() - t0
    _report(8, elapsed, "r_k(lam0 +- 1e-9) within 1e-6 of zero for k <= 16")


def test_criterion_09_perfect_transmission_count():
    """Exactly k-1 unit-transmission frequencies per band for k = 2..8."""
    t0 = time.time()
    bands = find_bands(CELL_A, 4.0)
    for band in bands[:2]:
        for k in range(2, 9):
            freqs = perfect_transmission_frequencies(CELL_A, band, k)
            assert len(freqs) == k - 1
            for lam in freqs:
                assert transmission_sq(CELL_A, lam, k) > 1.0 - 1e-9
    elapsed = time.time() - t0
    _report(9, elapsed, "k - 1 unit peaks per band, k = 2..8")


def test_criterion_10_disk_map_consistency():
    """The one-cell disk map reproduces the slab reflection sequence, its
    fixed-point kind tracks band membership, and hyperbolic limits equal
    the half-infinite coefficient."""
    t0 = time.time()
    bands = find_bands(CELL_A, 8.0)
    full = [b for b in bands if b.hi_type is not None]
    gaps = [(a.hi, b.lo) for a, b in zip(bands[:-1], bands[1:]) if b.lo - a.hi > 1e-9]

    # iterates from the empty slab against the direct slab formula
    pts = []
    for b in full:
        pts.extend(np.linspace(b.lo + 0.03 * b.width, b.hi - 0.03 * b.width, 12))
    for lo, hi in gaps:
        pts.extend(np.linspace(lo + 0.03 * (hi - lo), hi - 0.03 * (hi - lo), 12))
    for lam in pts:
        fmap = mobius_map(CELL_A, lam)
        z = 0.0 + 0.0j
        for k in range(1, 9):
            z = fmap.apply(z)
            assert abs(z - reflection_k(CELL_A, lam, k)) <= 1e-8

    # kind versus band/gap membership on a 1000-point grid
    checked = 0
    for lam in np.linspace(0.01, 7.8, 1000):
        in_band = any(b.lo + 1e-3 < lam < b.hi - 1e-3 for b in full)
        in_gap = any(lo + 1e-3 < lam < hi - 1e-3 for lo, hi in gaps)
        if not (in_band or in_gap):
            continue  # too close to an edge to classify either way
        kind = fixed_points(CELL_A, lam).kind
        want = FixedPointKind.ELLIPTIC if in_band else FixedPointKind.HYPERBOLIC
        assert kind is want
        checked += 1
    assert checked > 900

    # hyperbolic limits equal the half-infinite reflection coefficient
    for lo, hi in gaps:
        for lam in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 10):
            res = iterate_limit(CELL_A, lam, r1(CELL_A, lam), 50_000)
            assert res.converged
            assert abs(res.value - reflection_half_infinite(CELL_A, lam)) <= 1e-6
    elapsed = time.time() - t0
    _report(10, elapsed, "iterates, kinds and limits all consistent")


def test_criterion_11_gap_modulus():
    """|r| = 1 within 1e-9 on 100 gap frequencies for the half-infinite medium."""
    t0 = time.time()
    bands = find_bands(CELL_A, 12.0)
    gaps = [(a.hi, b.lo) for a, b in zip(bands[:-1], bands[1:]) if b.lo - a.hi > 1e-9]
    pts = []
    for lo, hi in gaps:
        pts.extend(np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 34))
    pts = pts[:100]
    assert len(pts) == 100
    for lam in pts:
        assert abs(abs(reflection_half_infinite(CELL_A, lam)) - 1.0) <= 1e-9
    elapsed = time.time() - t0
    _report(11, elapsed, "100 gap frequencies, | |r| - 1 | <= 1e-9")
