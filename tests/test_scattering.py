import itertools
import math
import warnings

import numpy as np
import pytest

from stepslab import (Band, BandMismatchError, BoundaryValueWarning, EdgeType,
                      EdgeDegeneracyError, PoleProximityError, Regime, UnitCell, bloch,
                      find_bands, perfect_transmission_frequencies,
                      reflection_half_infinite, reflection_k, resonances_k1,
                      transmission_sq, transparency_frequencies)

from stepslab.monodromy import _half_angles, _offset
from stepslab.scattering import _slab_terms

from conftest import (DEEP, EDGE_A3, mp_den_slope, mp_slab, same_bits,
                      slab_terms_tangent)


def test_unitarity(cell_family):
    xs = np.linspace(0.01, 8.0, 400)
    for cell in cell_family:
        for k in (1, 2, 4, 8, 16):
            defect = np.abs(reflection_k(cell, xs, k)) ** 2 \
                + transmission_sq(cell, xs, k) - 1.0
            assert np.max(np.abs(defect)) <= 1e-10


def test_transmission_equals_one_minus_reflection(cell_a):
    xs = np.linspace(0.05, 4.0, 200)
    for k in (1, 5, 11):
        t = transmission_sq(cell_a, xs, k)
        r = np.abs(reflection_k(cell_a, xs, k)) ** 2
        assert np.max(np.abs(t - (1.0 - r))) <= 1e-10
        assert np.all((t > 0.0) & (t <= 1.0))


def test_reflection_vanishes_at_transparency(cell_a):
    for k in range(1, 17):
        assert abs(reflection_k(cell_a, EDGE_A3, k)) < 1e-12
        assert transmission_sq(cell_a, EDGE_A3, k) == pytest.approx(1.0, abs=1e-12)


def test_homogeneous_slab_is_invisible(uniform):
    for lam in (0.3, 1.7, 6.1):
        for k in (1, 5):
            assert reflection_k(uniform, lam, k) == 0.0
            assert transmission_sq(uniform, lam, k) == 1.0


def test_transmission_gap_decreases_with_k(cell_a):
    bands = find_bands(cell_a, 4.0)
    mid_gap = 0.5 * (bands[0].hi + bands[1].lo)
    values = [transmission_sq(cell_a, mid_gap, k) for k in (1, 2, 3, 5, 8)]
    assert all(v < 1.0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_transmission_rejects_complex_frequency(cell_a):
    with pytest.raises(ValueError):
        transmission_sq(cell_a, 1.0 + 0.5j, 2)


def test_perfect_transmission_counts(cell_a):
    bands = find_bands(cell_a, 4.0)
    for band in bands[:2]:
        for k in range(2, 9):
            freqs = perfect_transmission_frequencies(cell_a, band, k)
            assert len(freqs) == k - 1
            for lam in freqs:
                assert band.lo < lam < band.hi
                assert transmission_sq(cell_a, lam, k) > 1.0 - 1e-9


@pytest.mark.parametrize("k", [7, 64])
def test_perfect_transmission_closed_form_reference_cell(cell_a, k):
    # equal transit times: F = (rho + 1) cos^2(0.8 lam) - rho, so F = cos(m pi/k)
    # where cos(1.6 lam) = (2 cos(m pi/k) + rho - 1)/(rho + 1)
    rho = cell_a.mismatch
    c = np.sort(np.arccos((2.0 * np.cos(np.arange(1, k) * math.pi / k) + rho - 1.0)
                          / (rho + 1.0)))
    band1, band2 = find_bands(cell_a, 4.0)[:2]
    assert perfect_transmission_frequencies(cell_a, band1, k) == pytest.approx(
        c / 1.6, abs=1e-11)
    assert perfect_transmission_frequencies(cell_a, band2, k) == pytest.approx(
        np.sort(2.0 * math.pi - c) / 1.6, abs=1e-11)


def test_perfect_transmission_includes_interior_transparency(cell_b):
    # with skewed transit times the one-cell transparency frequency falls
    # strictly inside a band and transmits perfectly at every k
    lam0 = transparency_frequencies(cell_b, 5.0)[0]
    band = next(b for b in find_bands(cell_b, 6.0) if b.lo < lam0 < b.hi)
    for k in (3, 5):
        freqs = perfect_transmission_frequencies(cell_b, band, k)
        assert len(freqs) == k  # k - 1 generic peaks plus the transparency
        assert any(abs(f - lam0) < 1e-9 for f in freqs)
        assert all(transmission_sq(cell_b, f, k) > 1.0 - 1e-9 for f in freqs)


def test_perfect_transmission_validates_band(cell_a, cell_b, cell_c):
    with pytest.raises(BandMismatchError, match="edges"):
        perfect_transmission_frequencies(
            cell_a, Band(1.3, 2.0, EdgeType.NONDEGENERATE, EdgeType.NONDEGENERATE, 1), 3)
    with pytest.raises(BandMismatchError, match="ill ordered"):
        perfect_transmission_frequencies(
            cell_a, Band(2.0, 1.3, EdgeType.NONDEGENERATE, EdgeType.NONDEGENERATE, 1), 3)
    clipped = find_bands(cell_a, 4.0)[2]
    with pytest.raises(BandMismatchError):
        perfect_transmission_frequencies(cell_a, clipped, 3)
    # both edges on |F| = 1, but the interval is the gap between bands 1 and 2
    bands = find_bands(cell_a, 4.0)
    gap = Band(bands[0].hi, bands[1].lo, EdgeType.NONDEGENERATE, EdgeType.NONDEGENERATE, 1)
    with pytest.raises(BandMismatchError, match="midpoint"):
        perfect_transmission_frequencies(cell_a, gap, 3)
    # k = 1: U_0 has no zeros, so only the one-cell transparency frequencies inside the
    # band remain, where |t_1|^2 = 1; A's, at m pi/0.8, are degenerate band edges
    for cell, index, want in ((cell_b, 3, [math.pi / 0.76]), (cell_c, 2, [math.pi / 0.8])):
        band = find_bands(cell, 8.0)[index - 1]
        found = perfect_transmission_frequencies(cell, band, 1)
        assert found == [lam0 for lam0 in transparency_frequencies(cell, band.hi)
                         if lam0 > band.lo] == pytest.approx(want, abs=1e-12)
        for lam0 in found:
            assert transmission_sq(cell, lam0, 1) == pytest.approx(1.0, abs=1e-12)
    assert all(perfect_transmission_frequencies(cell_a, band, 1) == []
               for band in find_bands(cell_a, 8.0) if band.hi_type is not None)
    for k in (0, 2.5, True):
        with pytest.raises(ValueError, match="cell count"):
            perfect_transmission_frequencies(cell_a, find_bands(cell_a, 4.0)[0], k)


def test_half_infinite_gap_modulus(cell_a):
    bands = find_bands(cell_a, 8.0)
    gaps = [(a.hi, b.lo) for a, b in zip(bands[:-1], bands[1:]) if b.lo - a.hi > 1e-9]
    for lo, hi in gaps:
        for lam in np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 20):
            assert abs(abs(reflection_half_infinite(cell_a, lam)) - 1.0) <= 1e-9


def test_half_infinite_is_large_slab_limit_above_axis(cell_a):
    lam = 2.0 + 1.0j
    assert abs(reflection_half_infinite(cell_a, lam)
               - reflection_k(cell_a, lam, 64)) <= 1e-6


def test_half_infinite_is_large_slab_limit_on_gap(cell_a):
    bands = find_bands(cell_a, 4.0)
    mid_gap = 0.5 * (bands[0].hi + bands[1].lo)
    target = reflection_half_infinite(cell_a, mid_gap)
    gaps_err = [abs(reflection_k(cell_a, mid_gap, k) - target) for k in (4, 8, 16, 32)]
    assert gaps_err[-1] <= 1e-6
    assert all(b <= a + 1e-15 for a, b in zip(gaps_err, gaps_err[1:]))


def test_half_infinite_band_interior_warns(cell_a):
    with pytest.warns(BoundaryValueWarning):
        value = reflection_half_infinite(cell_a, 0.58)
    assert abs(value) < 1.0


def test_half_infinite_degenerate_edge_raises(cell_a):
    with pytest.raises(EdgeDegeneracyError):
        reflection_half_infinite(cell_a, EDGE_A3)


@pytest.mark.parametrize("lam", [1e-9, 1e-8, 3e-8, math.pi / 0.8 - 3e-8, math.pi / 0.8 - 1e-8,
                                 math.pi / 0.8 + 1e-8, math.pi / 0.8 + 3e-8])
def test_points_next_to_a_tangency_are_band_points(cell_a, lam):
    # g = |F| - 1 is about -c delta^2 there, below its rounding 4 eps (rho + 1), so the
    # touching point's closed gap decides: a band point, with the band's |r| = 1/3
    assert bloch(cell_a, lam).regime is Regime.BAND
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryValueWarning)
        r = reflection_half_infinite(cell_a, lam)
    assert abs(abs(r) - 1.0 / 3.0) <= 1e-9


def test_half_infinite_near_band_edges_matches_extended_precision(cell_a, cell_b, cell_c):
    # lam = e +- i delta at every band edge e < 8: mu_plus and r = N/(S - 2 mu_plus)
    # against 60-digit mpmath from F = ((rho+1) cos(lam tau) - (rho-1) cos(lam skew))/2,
    # mu = F -+ sqrt(F^2 - 1) (smaller modulus above the axis, larger below) and the
    # closed-form S, N.  r is conditioned like 1/delta at an edge; the touching points
    # of cell_a (degenerate edges, pi/0.8 and 2 pi/0.8) have no such loss in mu_plus
    mp = pytest.importorskip("mpmath")
    for cell in (cell_a, cell_b, cell_c):
        edges = {e: t for b in find_bands(cell, 8.0)
                 for e, t in ((b.lo, b.lo_type), (b.hi, b.hi_type)) if 0.0 < e < 8.0}
        for (edge, edge_type), delta, side in itertools.product(
                edges.items(), (1e-3, 1e-6, 1e-9), (1.0, -1.0)):
            lam = complex(edge, side * delta)
            with mp.workdps(60):
                b1, b2, x2, z = mp.mpf(cell.b1), mp.mpf(cell.b2), mp.mpf(cell.x2), mp.mpc(lam)
                tau, skew = x2 * b2 + (1 - x2) * b1, x2 * b2 - (1 - x2) * b1
                rho = (b1 * b1 + b2 * b2) / (2 * b1 * b2)
                f = ((rho + 1) * mp.cos(z * tau) - (rho - 1) * mp.cos(z * skew)) / 2
                small, big = sorted((f + mp.sqrt(f * f - 1), f - mp.sqrt(f * f - 1)), key=abs)
                mu = small if side > 0.0 else big
                fwd, back = mp.exp(-1j * z * tau), mp.exp(1j * z * skew)
                s = ((b1 + b2) ** 2 * fwd - (b2 - b1) ** 2 * back) / (2 * b1 * b2)
                n = (b2 * b2 - b1 * b1) * (fwd - back) / (2 * b1 * b2)
                mu, r = complex(mu), complex(n / (s - 2 * mu))
            tol = 1e-13 if edge_type is EdgeType.DEGENERATE else 1e-10
            assert abs(bloch(cell, lam).mu_plus - mu) <= tol * abs(mu), (cell, lam)
            got = reflection_half_infinite(cell, lam)
            assert abs(got - r) <= 1e-12 / delta * abs(r), (cell, lam)


def test_half_infinite_homogeneous(uniform):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryValueWarning)
        assert reflection_half_infinite(uniform, 1.7) == 0.0


def test_reflection_pole_at_resonance(cell_a):
    root = resonances_k1(cell_a, 8.0)[1].lam
    with pytest.raises(PoleProximityError):
        reflection_k(cell_a, root, 1)


def test_reflection_matches_explicit_one_cell(cell_a):
    # independent one-cell oracle: the two-interface cavity formula
    # r = d (1 - e^(2 i lam b2 x2)) / (1 - d^2 e^(2 i lam b2 x2))
    d = cell_a.contrast
    for lam in (0.1, 0.77, 2.2, 3.4):
        eta = np.exp(2j * lam * cell_a.b2 * cell_a.x2)
        expected = d * (1.0 - eta) / (1.0 - d * d * eta)
        assert reflection_k(cell_a, lam, 1) == pytest.approx(expected, abs=1e-12)


def test_reflection_invalid_k(cell_a):
    with pytest.raises(ValueError):
        reflection_k(cell_a, 1.0, 0)


@pytest.mark.parametrize("k", [600, 4096, 100_000])
def test_large_k_real_axis_is_finite_and_unitary(cell_a, cell_b, cell_c, k):
    # the O(log k) power cannot overflow: no NaN at any k, t stays in
    # [0, 1] (0 only below the floating-point range, deep in a gap) and
    # unitarity holds wherever t is representable (about 4e-12 at 1e5)
    xs = np.linspace(0.002, 40.0, 20_000)
    for cell in (cell_a, cell_b, cell_c):
        t = transmission_sq(cell, xs, k)
        r = reflection_k(cell, xs, k)
        assert not np.any(np.isnan(t)) and not np.any(np.isnan(r))
        assert np.all((t >= 0.0) & (t <= 1.0))
        live = t > 0.0
        assert np.max(np.abs(np.abs(r[live]) ** 2 + t[live] - 1.0)) <= 1e-10


@pytest.mark.parametrize("k", [1, 16, 64, 256])
def test_reflection_matches_extended_precision_off_axis(cell_a, cell_b, k):
    # reference: the one-cell entries and the O(k) Chebyshev recurrence
    # U_j = 2F U_{j-1} - U_{j-2} evaluated in mpmath.  DEEP's default search
    # floor is Im = -20, where the entries grow like e^{|Im lam| tau} and r
    # comes from their cancellation, so the reference needs 120 digits there
    mp = pytest.importorskip("mpmath")
    cases = [(cell, lam, 50) for cell in (cell_a, cell_b)
             for lam in (0.37 + 0.21j, 1.9 - 0.12j, 3.3 + 0.05j)]
    cases += [(DEEP, lam, 120) for lam in (0.61 - 2j, 0.3 - 5j, 0.2 - 12j, 0.3 - 20j)]
    for cell, lam, dps in cases:
        with mp.workdps(dps):
            ref = complex(mp_slab(mp, cell, lam, k)[0])
        got = reflection_k(cell, lam, k)
        assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("k", [1, 2, 3, 64, 256, 1024])
def test_slab_slope_matches_extended_precision(cell_a, cell_b, cell_c, k):
    # den' from the Chebyshev derivative identity against 50-digit mpmath: inside a
    # band, in a gap, at DEEP's Im lam = -5 (|F| about 1e9), and 1/k^3 and 0.2/k^2
    # below every band edge (the near-edge roots' depths).  Near F = +-1 the identity's
    # numerators cancel: it may lose up to 16 eps/(|g| k) relative beyond the error of
    # the tangents carried through the doubling (``slab_terms_tangent``), which grows
    # like eps |lam| tau k^2 next to an edge
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    cases = [(DEEP, 0.3 - 5j), (DEEP, 0.61 - 5j)]
    for cell in (cell_a, cell_b, cell_c):
        bands = find_bands(cell, 4.0)
        edges = sorted({x for b in bands for x in (b.lo, b.hi) if b.hi_type is not None})
        cases += [(cell, 0.5 * (bands[0].lo + bands[0].hi) - 0.01j),
                  (cell, 0.5 * (bands[0].hi + bands[1].lo) - 0.01j)]
        cases += [(cell, x - 1j * depth) for x in edges for depth in (k**-3.0, 0.2 / k**2)]
    for cell, lam in cases:
        _, den, slope, e = _slab_terms(cell, lam, k, slope=True)
        _, den_t, slope_t, e_t = slab_terms_tangent(cell, lam, k)
        same_bits((den, e), (den_t, e_t))
        with mp.workdps(50):
            want = complex(mp_den_slope(mp, cell, lam, k) * mp.ldexp(1, -e))
        g = abs(_offset(cell, *_half_angles(cell, lam)[1:])[1])
        tol = abs(slope_t - want) + (1e-14 + 16.0 * eps / (g * k)) * abs(want)
        assert abs(slope - want) <= tol


@pytest.mark.parametrize("k", [1, 2, 7, 64, 1025])
def test_slab_slope_limit_where_f_rounds_to_one(cell_a, cell_b, k):
    # where F rounds to +-1 the identity is 0/0 and den' takes U_{k-1}'(+-1): at lam = 0
    # it equals the derivative that the tangents carry through the doubling bit for bit;
    # to 4 eps at A's touching points m pi/0.8 (F' = 6e-16 m, g about -5e-32 m^2) and at
    # the floats next to A's first and B's first band edge where g is 0 (F' = 2.4, 2.24);
    # for one frequency and for real and complex arrays, warning of nothing
    cases = [(cell_a, [0.0, math.pi / 0.8, 2.0 * math.pi / 0.8, 1.1591190225020154]),
             (cell_b, [1.215617911499708])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cell, lams in cases:
            assert all(1.0 + _offset(cell, *_half_angles(cell, x)[1:])[1] == 1.0 for x in lams)
            for lam in [*lams, np.array(lams), np.array(lams, dtype=complex)]:
                (*got, slope, e), (*want, slope_t, e_t) = (
                    _slab_terms(cell, lam, k, slope=True), slab_terms_tangent(cell, lam, k))
                same_bits((*got, e), (*want, e_t))
                at_zero = np.ravel(lam) == 0.0
                same_bits([np.ravel(slope)[at_zero]], [np.ravel(slope_t)[at_zero]])
                assert np.all(np.abs(slope - slope_t) <= 4.0 * np.finfo(float).eps * np.abs(slope_t))
