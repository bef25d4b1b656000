import cmath
import collections
import dataclasses
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stepslab import (BandMismatchError, ContourThroughZeroError, DeterminantOverflowError,
                      EmptyWindowWarning, InvalidRangeError, PoleProximityError,
                      RecursionPoleError, UnitCell, Window, audit_count,
                      chain_determinants, convergence_study,
                      count_zeros_rectangle, default_im_floor, find_bands,
                      find_resonances, lyapunov, perfect_transmission_frequencies,
                      q_recursion, reflection_via_q, resonances_k1, spectral_period)
import stepslab
from stepslab import resolvent
from stepslab.cli import _fmt

from conftest import (DEEP, DEPTH_A1, EDGE_A3, chain_recurrence, chain_reflection,
                      closed_form_k1_row, den_winding, half_angles_complex_trig, mp_root,
                      ladder_seeds, random_cells, slab_terms_tangent)

#: Seeded random cells.  Nine have their one-cell roots below the default floor,
#: three of them (|d| = 0.0016, 0.012 and 6e-4) 4.4 to 7.5 times as deep.
RANDOM_CELLS = random_cells(5, 20)


def test_q_base_case(cell_a):
    rng = np.random.default_rng(2)
    for lam in rng.uniform(0.0, 10.0, 20):
        q = q_recursion(cell_a, lam, 1)
        assert q == pytest.approx(0.6 * np.exp(1.6j * lam), abs=1e-14)
        assert abs(q) == pytest.approx(0.6, abs=1e-14)


def test_q_contracts_in_upper_half_plane(cell_family):
    rng = np.random.default_rng(13)
    for cell in cell_family:
        lams = rng.uniform(0.05, 8.0, 200) + 1j * rng.uniform(0.0, 2.0, 200)
        for lam in lams:
            assert all(abs(q_recursion(cell, complex(lam), j)) < 1.0 for j in range(1, 9))


def test_q_sixteen_interfaces_bounded(cell_a):
    assert abs(q_recursion(cell_a, 0.9 + 1.0j, 8)) < 1.0


def test_q_periodic_when_commensurate(cell_a):
    T = spectral_period(cell_a)
    rng = np.random.default_rng(19)
    for lam in rng.uniform(0.1, 5.0, 20) + 1j * rng.uniform(-0.5, 0.5, 20):
        a = q_recursion(cell_a, complex(lam), 4)
        b = q_recursion(cell_a, complex(lam) + T, 4)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))


def test_q_matches_determinant_route(cell_a):
    # the recursion value and the determinant quotient agree one step up:
    # Q at level 2k+1 equals exp(2 i lam b1 k) * companion / determinant
    d = cell_a.contrast
    lam = 0.37 - 0.21j
    for k in range(1, 33):
        q2k = q_recursion(cell_a, lam, k)
        q_odd = np.exp(2j * lam * 0.8) * (-d + q2k) / (1.0 - d * q2k)
        dets = chain_recurrence(cell_a, lam, k)
        assert q_odd == pytest.approx(
            np.exp(2j * lam * k) * dets.companion / dets.value, abs=1e-12)


def test_three_step_determinant_closed_form(cell_a):
    b1, b2, x2 = 1.0, 4.0, 0.2
    rng = np.random.default_rng(7)
    for lam in rng.uniform(0.1, 4.0, 10) + 1j * rng.uniform(-1.0, 1.0, 10):
        det = chain_recurrence(cell_a, complex(lam), 1).value
        expected = np.exp(1j * lam * b1 * x2) * (
            (b2 - b1) ** 2 * np.exp(1j * lam * b2 * x2)
            - (b2 + b1) ** 2 * np.exp(-1j * lam * b2 * x2))
        assert det == pytest.approx(expected, rel=1e-12)
    assert chain_recurrence(cell_a, 0.0, 1).value == pytest.approx(-4.0 * b1 * b2)


def test_determinant_overflow_guard(cell_a):
    with pytest.raises(DeterminantOverflowError):
        chain_determinants(cell_a, -10.0j, 200)


def test_chain_determinants_match_recurrence(cell_a, cell_b, cell_c):
    # the kernel's closed form against the interface recurrence, both half
    # planes, relative to the largest magnitude in each batch (the recurrence's
    # own rounding grows with its 2k steps: up to 3e-12 pointwise against a
    # 40-digit recurrence at k = 64)
    rng = np.random.default_rng(23)
    cells = [cell_a, cell_b, cell_c] + [UnitCell(*rng.uniform(0.5, 4.0, 2), rng.uniform(0.1, 0.9))
                                        for _ in range(3)]
    for cell in cells:
        for k in (1, 2, 3, 7, 20, 40, 64):
            for side in (1.0, -1.0):
                lams = rng.uniform(0.0, 4.0, 64) + side * 1j * rng.uniform(0.0, 0.5, 64)
                got, ref = chain_determinants(cell, lams, k), chain_recurrence(cell, lams, k).value
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (cell, k, side)


def test_audit_at_k96_matches_denominator_winding(cell_a, cell_b, cell_c):
    # past the old chain's overflow at k = 69: band 1 counts 99 on A and 98 on B
    for cell, count in ((cell_a, 99), (cell_b, 98)):
        band = find_bands(cell, 4.0)[0]
        rect = (band.lo - 0.05, band.hi + 0.05, default_im_floor(cell), band.width / 96)
        assert audit_count(cell, 96, band) == den_winding(cell, 96, *rect) == count
    # on C the floor is deep enough that e^{|Im lam| b1 k} still overflows
    with pytest.raises(DeterminantOverflowError):
        audit_count(cell_c, 96, find_bands(cell_c, 4.0)[0])


def test_overflow_traceback_holds_no_samples(cell_c):
    # a caller that keeps the error must not keep the contour samples with it, whether
    # it calls the determinant itself or raises through the audit's contour (band 1 of C
    # at k = 96 overflows on its 6145 start samples)
    band = find_bands(cell_c, 4.0)[0]
    calls = [lambda: chain_determinants(cell_c, np.linspace(band.lo, band.hi, 4097)
                                        + 1j * default_im_floor(cell_c), 96),
             lambda: audit_count(cell_c, 96, band)]
    for call in calls:
        with pytest.raises(DeterminantOverflowError) as err:
            call()
        tb = err.value.__traceback__
        while tb is not None:
            for name, val in tb.tb_frame.f_locals.items():
                assert not (isinstance(val, np.ndarray) and val.size > 1000), name
            tb = tb.tb_next


def test_find_resonances_imports_no_masked_arrays():
    # numpy.ma costs about 1.2 MB when first imported
    code = ("import sys; from stepslab import UnitCell, Window, find_resonances; "
            "find_resonances(UnitCell(1.0, 4.0, 0.2), 10, Window(0.0, 4.0, -1.25)); "
            "sys.exit('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(stepslab.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_recursion_pole_reports_index(cell_a):
    # with equal transit times Q_4 = eta (d + Q_3)/(1 + d Q_3), Q_3 =
    # d eta (eta - 1)/(1 - d^2 eta), eta = exp(1.6 i lam); Q's own pole
    # 1 - 2 d^2 eta + d^2 eta^2 = 0 sits at eta = 1 + i sqrt(1/d^2 - 1)
    eta = 1.0 + 1j * math.sqrt(1.0 / 0.36 - 1.0)
    lam_pole = -1j * cmath.log(eta) / 1.6
    with pytest.raises(RecursionPoleError) as err:
        q_recursion(cell_a, lam_pole, 2)
    assert err.value.index == 4
    # r = (d - Q)/(1 - d Q) is regular there: it tends to 1/d
    assert reflection_via_q(cell_a, lam_pole, 2) == pytest.approx(1.0 / 0.6, rel=1e-12)
    # the old intermediate pole (a zero of the three-step determinant) is
    # a regular point of Q, where Q_4 = eta / d
    lam_mid = 1j * math.log(0.36) / 1.6
    assert q_recursion(cell_a, complex(lam_mid), 2) == pytest.approx(
        np.exp(1.6j * lam_mid) / 0.6, rel=1e-12)


def test_one_cell_closed_form(cell_a, cell_b, cell_c, uniform):
    spacing = math.pi / 0.8
    found = resonances_k1(cell_a, 8.0)
    assert [r.lam.real for r in found] == pytest.approx([0.0, spacing, 2 * spacing], abs=1e-12)
    assert all(r.lam.imag == pytest.approx(DEPTH_A1, abs=1e-12) for r in found)
    assert all(r.residual <= 1e-12 for r in found)

    for cell in (cell_b, cell_c):
        d = abs(cell.contrast)
        depth = math.log(d) / (cell.b2 * cell.x2)
        step = math.pi / (cell.b2 * cell.x2)
        rs = resonances_k1(cell, 2.5 * step)
        assert [r.lam.real for r in rs] == pytest.approx([0.0, step, 2 * step], abs=1e-12)
        assert all(r.lam.imag == pytest.approx(depth, abs=1e-12) for r in rs)

    assert resonances_k1(uniform, 10.0) == []


def test_deep_floor_one_cell_root_list():
    # DEEP's default floor is Im = -20, where the slab denominator used to
    # cancel to noise and Newton returned roots at -20i, -5.058i and
    # 0.517 - 7i with residual 0: only the closed-form root is a resonance
    found = find_resonances(DEEP, 1, Window(0.0, 0.74, default_im_floor(DEEP)))
    assert [r.lam for r in found] == pytest.approx(
        [r.lam for r in resonances_k1(DEEP, 0.74)], abs=1e-12)


def test_one_cell_roots_kill_determinant(cell_a):
    for r in resonances_k1(cell_a, 8.0):
        scale = chain_recurrence(cell_a, r.lam, 1).peak
        assert abs(chain_determinants(cell_a, r.lam, 1)) <= 1e-8 * scale


def test_newton_matches_one_cell_closed_form(cell_a):
    closed = resonances_k1(cell_a, 8.0)
    found = find_resonances(cell_a, 1, Window(0.0, 8.0, -2.0))
    assert len(found) == len(closed)
    for a, b in zip(closed, found):
        assert abs(a.lam - b.lam) <= 1e-8


@pytest.mark.parametrize("cell", RANDOM_CELLS)
def test_k1_search_returns_closed_form_roots(cell):
    # convergence_study's k = 1 row rests on this search; the weak-contrast cells' roots
    # lie far below the default floor, so the window reaches 4x the one-cell depth
    depth = math.log(abs(cell.contrast)) / (cell.b2 * cell.x2)
    closed = resonances_k1(cell, 8.0)
    found = find_resonances(cell, 1, Window(0.0, 8.0, 4.0 * depth))
    assert len(found) == len(closed) >= 1
    for a, b in zip(closed, found):
        assert abs(a.lam - b.lam) <= 1e-9


def test_resonance_counts_and_localization(cell_a):
    bands = find_bands(cell_a, 4.0)
    for k in (2, 3):
        rs = find_resonances(cell_a, k, Window(0.0, 4.0, default_im_floor(cell_a)))
        per_band = {1: 0, 2: 0}
        for r in rs:
            assert abs(lyapunov(cell_a, r.lam.real)) < 1.0 + 1e-3
            assert r.lam.imag < 0.0
            assert r.residual <= 1e-10
            per_band[r.band_index] += 1
        assert per_band[1] in (k - 1, k)
        assert per_band[2] in (k - 1, k)


def _complete_band_counts(cell, k, re_max):
    """Roots per band, by band index, of every band that ends inside Window(0, re_max)."""
    found = find_resonances(cell, k, Window(0.0, re_max, default_im_floor(cell)))
    counts = collections.Counter(r.band_index for r in found)
    return {b.index: counts[b.index] for b in find_bands(cell, re_max) if b.hi_type is not None}


@pytest.mark.parametrize("k", [64, 128, 256, 1024, 16384])
def test_reference_cells_complete_at_large_k(cell_a, cell_b, cell_c, k):
    # the paper's count, k - 1 or k resonances in every band, as the peak law gives it:
    # bands 1 and 2 (Re <= 4) hold k and k roots on A and C, k and k - 1 on B.  Acceptance
    # on |d Q - 1| <= 1e-10 dropped converged roots there from k = 128 on C and from
    # k = 256 on A and B, whose residual read 1e-10 to 1e-7 at Newton steps below 6e-16;
    # a ceiling of -1e-12 on Im dropped the shallowest edge roots from k = 16384 on
    for cell, want in ((cell_a, {1: k, 2: k}), (cell_b, {1: k, 2: k - 1}), (cell_c, {1: k, 2: k})):
        assert _complete_band_counts(cell, k, 4.0) == want, cell


@pytest.mark.parametrize("k", [8, 32])
def test_random_cells_complete(k):
    for cell in random_cells(7, 8):
        counts = _complete_band_counts(cell, k, 4.0)
        assert all(n in (k - 1, k) for n in counts.values()), (cell, counts)


def test_window_just_below_an_edge_keeps_peak_anchors(cell_a, cell_b, cell_c):
    # re_max is the first band's upper edge printed to 12 digits and rounded down, a few
    # 1e-12 below it, so find_bands clips the band there; its transmission peaks still
    # anchor seeds, and at k = 128 the roots are those of the window ending at the edge
    k = 128
    for cell in (cell_a, cell_b, cell_c):
        band = find_bands(cell, 4.0)[0]
        re_max = float(f"{band.hi:.12g}")
        if re_max >= band.hi:
            re_max -= 10.0 ** (math.floor(math.log10(band.hi)) - 11)
        assert find_bands(cell, re_max)[0].hi_type is None
        clipped = find_resonances(cell, k, Window(band.lo, re_max, -math.inf))
        full = find_resonances(cell, k, Window(band.lo, band.hi, -math.inf))
        assert len(clipped) == len(full) == k
        assert [r.lam for r in clipped] == pytest.approx([r.lam for r in full], abs=1e-12)


def test_window_ending_mid_band_keeps_its_roots(cell_a, cell_b, cell_c):
    # the window cuts band 2 in the middle; seeded as the whole band (edges, peaks and their
    # midpoints), it holds the full window's roots below the cut at k = 128, near-edge ones too
    k = 128
    for cell in (cell_a, cell_b, cell_c):
        band = find_bands(cell, 4.0)[1]
        cut = band.lo + 0.5 * band.width
        floor = default_im_floor(cell)
        got = find_resonances(cell, k, Window(0.0, cut, floor))
        want = [r for r in find_resonances(cell, k, Window(0.0, 4.0, floor)) if r.lam.real <= cut]
        assert [r.band_index for r in got] == [r.band_index for r in want], cell
        assert [r.lam for r in got] == pytest.approx([r.lam for r in want], abs=1e-12)


def test_bands_shorter_than_two_periods():
    # find_resonances scans bands to re_max + 2 pi/tau and takes every band the window
    # touches as complete: no band may be as long as 2 pi/tau.  Strong contrast gives
    # narrow bands, weak contrast bands near pi/tau with narrow gaps
    rng = np.random.default_rng(14)
    strong = [UnitCell(1.0, math.exp(rng.uniform(math.log(0.02), math.log(50.0))),
                       rng.uniform(0.05, 0.95)) for _ in range(40)]
    weak = [UnitCell(1.0, 1.0 + math.exp(rng.uniform(math.log(1e-6), math.log(1e-2))),
                     rng.uniform(0.05, 0.95)) for _ in range(20)]
    for cell in strong + weak:
        period = 2.0 * math.pi / cell.transit_time
        bands = find_bands(cell, 15.0 * period)
        assert len(bands) >= 10
        assert max(b.width for b in bands) < period, cell


def test_resonance_set_conjugate_symmetric(cell_a):
    d = cell_a.contrast
    for r in find_resonances(cell_a, 3, Window(0.0, 4.0, -1.25)):
        mirrored = -r.lam.conjugate()
        assert abs(d * q_recursion(cell_a, mirrored, 3) - 1.0) <= 1e-8


def test_pole_zero_duality(cell_a):
    for k in (2, 3):
        for r in find_resonances(cell_a, k, Window(0.0, 4.0, -1.25)):
            dets = chain_recurrence(cell_a, r.lam, k)
            assert abs(dets.value) <= 1e-8 * dets.peak


def test_reflection_via_q_matches_matrix_route(cell_a, cell_b):
    rng = np.random.default_rng(37)
    for cell in (cell_a, cell_b):
        lams = rng.uniform(0.05, 4.0, 60) + 1j * rng.uniform(-0.3, 0.3, 60)
        for k in (1, 2, 5, 8):
            ra = np.asarray(reflection_via_q(cell, lams, k))
            rb = np.asarray(chain_reflection(cell, lams, k))
            err = np.abs(ra - rb) / np.maximum(1.0, np.abs(ra))
            assert np.max(err) <= 1e-9


def test_reflection_via_q_transparency_and_pole(cell_a):
    assert abs(reflection_via_q(cell_a, EDGE_A3, 2)) < 1e-12
    root = resonances_k1(cell_a, 8.0)[1].lam
    with pytest.raises(PoleProximityError):
        reflection_via_q(cell_a, root, 1)


def test_audit_counts_match_newton(cell_a):
    bands = find_bands(cell_a, 4.0)
    floor = default_im_floor(cell_a)
    for k in range(2, 7):
        rs = find_resonances(cell_a, k, Window(0.0, 4.0, floor))
        for band in bands[:2]:
            newton = sum(1 for r in rs if r.band_index == band.index)
            contour = audit_count(cell_a, k, band)
            assert contour == newton
            assert contour in (k - 1, k)


def test_gap_rectangle_holds_no_resonances(cell_a):
    assert count_zeros_rectangle(cell_a, 4, 1.4, 2.5, -1.25, -1e-9) == 0


def test_audit_matches_denominator_winding(cell_a, cell_b, cell_c):
    # the chain-determinant count against the phase winding of the slab
    # denominator on a dense uniform contour, for the bands (the audit's
    # rectangle, top side at Im = width/k) and for a rectangle about eight band
    # periods wide (a start grid that ignores the width miscounts it)
    for cell in (cell_a, cell_b, cell_c):
        bands = find_bands(cell, 4.0)[:2]
        for k in (8, 16, 32):
            for band in bands:
                rect = (band.lo - 0.05, band.hi + 0.05, default_im_floor(cell), band.width / k)
                assert audit_count(cell, k, band) == den_winding(cell, k, *rect)
        wide = (0.1, 16.0, default_im_floor(cell), -1e-9)
        assert count_zeros_rectangle(cell, 16, *wide) == den_winding(cell, 16, *wide)


@pytest.mark.parametrize("k", [32, 64])
def test_weak_contrast_band_complete_by_winding(k):
    # d = 5.8e-4: the residual's rounding level is about eps/d^2, so a fixed 1e-10 on it
    # dropped one band-3 root at k = 32 and one at k = 64; the rectangle runs from the
    # middle of gap 2-3 to the middle of gap 3-4
    cell = UnitCell(3.7302546077730416, 3.7345694226238706, 0.7804410078050841)
    below, band, above = find_bands(cell, 4.0 * math.pi / cell.transit_time)[1:4]
    floor = default_im_floor(cell)
    found = find_resonances(cell, k, Window(0.0, band.hi, floor))
    rect = (0.5 * (below.hi + band.lo), 0.5 * (band.hi + above.lo), floor, band.width / k)
    assert (sum(r.band_index == band.index for r in found) == count_zeros_rectangle(cell, k, *rect)
            == den_winding(cell, k, *rect) == k)


@pytest.mark.parametrize("k", [8, 16, 32, 64, 128])
def test_weakest_contrast_holds_at_most_k_roots_per_band(k):
    # |d| = 5e-6: a residual floor 16 eps/d^2 = 1.4e-4 on |d Q - 1| once let in runs 1e-6
    # from a root (band 1 held 11 roots at k = 8).  den rounds to 0 over a patch about
    # 1e-6 wide around each root, so copies lie 1e-6 to 1.4e-6 apart, and only a merge
    # radius at the markers' scale (2e-2 to 2.5e-3 at k = 8 to 64) joins them.  Band 1
    # holds the k roots den's winding counts; acceptance on the residual found 28, 61 and
    # 112 at k = 32, 64 and 128
    cell = UnitCell(1.0, 1.00001, 0.3)
    found = find_resonances(cell, k, Window(0.0, 4.0, default_im_floor(cell)))
    counts = collections.Counter(r.band_index for r in found)
    assert max(counts.values()) <= k and counts[1] == k


@pytest.mark.parametrize("shift", [1e-13, -1e-13, 3e-13, -3e-13, 1e-12, -1e-12])
def test_weakest_contrast_count_survives_edge_shifts(shift, monkeypatch):
    # find_bands promises its edges to 1e-12; seeds at edges moved within that promise
    # must not split one root into copies that survive the merge.  With a fixed 1e-6
    # radius, +3e-13 gave 9 band-1 roots at k = 8 and +-1e-13 gave 17 at k = 16
    bands = resolvent.find_bands
    monkeypatch.setattr(resolvent, "find_bands", lambda cell, lambda_max: [
        dataclasses.replace(b, lo=b.lo + shift, hi=b.hi + shift) for b in bands(cell, lambda_max)])
    cell = UnitCell(1.0, 1.00001, 0.3)
    for k in (8, 16, 32):
        found = find_resonances(cell, k, Window(0.0, 4.0, default_im_floor(cell)))
        assert found and max(collections.Counter(r.band_index for r in found).values()) <= k, k


def test_band_complete_when_residual_rounds_above_tolerance():
    # the root 3.2174662949840793 - 3.14e-7i has converged (step 6e-17 to 3e-16), but the
    # residual h = d Q - 1 reads 9.0e-11 to 4.4e-10 with the last bit of lam; a search that
    # accepted on |h| <= 1e-10 returned 125 of the winding's 127 band-4 roots.  Acceptance
    # on the step and a one-zero circle keeps all 127 (gap midpoints, down to -0.05, the
    # roots lie above -6e-4)
    cell, k = UnitCell(4.557, 0.5, 0.3), 128
    below, band, above = find_bands(cell, 6.0)[2:5]
    found = find_resonances(cell, k, Window(0.0, 6.0, default_im_floor(cell)))
    rect = (0.5 * (below.hi + band.lo), 0.5 * (band.hi + above.lo), -0.05, band.width / k)
    assert sum(r.band_index == band.index for r in found) == count_zeros_rectangle(cell, k, *rect)
    # bands 3, 4 and 5 held 127, 125 and 125 under that acceptance, 126, 126 and 124 with
    # the kernel's half angles taken from the real parts
    counts = collections.Counter(r.band_index for r in found)
    assert [counts[i] for i in range(2, 7)] == [k - 1] * 5


def test_band_one_whole_at_k_4096(cell_a, cell_b, cell_c):
    # at k = 4096 acceptance on the residual kept 3961, 3979 and 3978 of band 1's roots
    for cell in (cell_a, cell_b, cell_c):
        found = find_resonances(cell, 4096, Window(0.0, 2.0, default_im_floor(cell)))
        assert sum(r.band_index == 1 for r in found) == 4096, cell


def test_edge_roots_climb_as_k_cubed(cell_a, cell_b, cell_c):
    # the paper's limit theorem with its rate: band 1's shallowest root, next to an edge,
    # climbs like k^-3; from k = 16384 on it lies above -1e-12
    for cell, limit in ((cell_a, -2.74156), (cell_b, -3.12327), (cell_c, -3.01610)):
        band = find_bands(cell, 4.0)[0]
        scaled = []
        for k in (4096, 16384):
            found = find_resonances(cell, k, Window(0.0, band.hi, default_im_floor(cell)))
            scaled.append(k ** 3 * max(r.lam.imag for r in found))
        assert scaled[1] == pytest.approx(scaled[0], rel=1e-5), cell
        assert scaled[1] == pytest.approx(limit, rel=1e-5), cell


@pytest.mark.parametrize("k", [256, 1024])
def test_edge_roots_match_extended_precision(cell_a, k):
    # the roots next to the band edges are the ones acceptance on the residual dropped;
    # the two nearest each edge of bands 1 and 2 lie within 1e-10 of a 40-digit polish
    # of den's zero, and each reports its last Newton step as its residual
    mp = pytest.importorskip("mpmath")
    found = find_resonances(cell_a, k, Window(0.0, 4.0, default_im_floor(cell_a)))
    for band in find_bands(cell_a, 4.0)[:2]:
        roots = sorted((r for r in found if r.band_index == band.index), key=lambda r: r.lam.real)
        for r in roots[:2] + roots[-2:]:
            with mp.workdps(40):
                assert abs(r.lam - mp_root(mp, cell_a, r.lam, k)) <= 1e-10, r
            assert r.residual <= 1e-13


@pytest.mark.parametrize("k", [8, 32])
def test_weak_contrast_roots_match_extended_precision(k):
    # d = 5.8e-4: den cancels by about 1/d, so Newton's last steps wander at 1e-11; every
    # root of bands 1 to 3 still lies within 1e-10 of a 40-digit polish
    mp = pytest.importorskip("mpmath")
    cell = UnitCell(3.7302546077730416, 3.7345694226238706, 0.7804410078050841)
    band3 = find_bands(cell, 4.0 * math.pi / cell.transit_time)[2]
    found = find_resonances(cell, k, Window(0.0, band3.hi, default_im_floor(cell)))
    assert len(found) == 3 * k
    with mp.workdps(40):
        assert max(abs(r.lam - mp_root(mp, cell, r.lam, k)) for r in found) <= 1e-10


@pytest.mark.parametrize("k", [8, 32, 128])
def test_roots_unchanged_under_complex_trig_half_angles(cell_a, cell_b, cell_c, k, monkeypatch):
    # the kernel takes sin and cos of a complex half angle from sin, cos, sinh and cosh of
    # its real and imaginary parts; with complex sin and cos instead, which differ in the
    # last bits, the search finds the same roots per band, to 1e-12.  Acceptance on
    # |d Q - 1| <= 1e-10 moved roots of (4.557, 0.5, 0.3) and of the high-contrast cell
    # across that bound at k = 128
    cases = [(cell_a, 4.0), (cell_b, 4.0), (cell_c, 4.0), (UnitCell(4.557, 0.5, 0.3), 6.0),
             (UnitCell(7.353746788861326, 0.2407638817620896, 0.2698829985618346), 4.0)]

    def search(cell, re_max):
        found = find_resonances(cell, k, Window(0.0, re_max, default_im_floor(cell)))
        return [r.band_index for r in found], np.array([r.lam for r in found])

    got = [search(*case) for case in cases]
    for module in (sys.modules["stepslab.monodromy"], stepslab.scattering):
        monkeypatch.setattr(module, "_half_angles", half_angles_complex_trig)
    for case, (bands, lams) in zip(cases, got):
        want_bands, want_lams = search(*case)
        assert bands == want_bands, case
        assert np.max(np.abs(lams - want_lams)) <= 1e-12, case


def test_audit_counts_near_edge_clusters(cell_a, cell_b, cell_c, monkeypatch):
    # shallow roots crowd the band edges at large k; a flat start grid of
    # 256 points per side counts 48/46/47 at k = 48.  They lie about k^-3 below
    # the axis, and a top side at Im = width/k keeps them off the contour: each
    # audit evaluates its start grid once, where a top side at Im = -1e-9 took
    # 5-7 chain_determinants calls of refinement
    chain, calls = resolvent.chain_determinants, []

    def counted(cell, lam, k):
        calls.append(np.size(lam))
        return chain(cell, lam, k)
    monkeypatch.setattr(resolvent, "chain_determinants", counted)
    expected = {48: [(49, 49), (49, 47), (49, 48)], 64: [(66, 66), (65, 63), (65, 64)]}
    for k, counts in expected.items():
        for cell, pair in zip((cell_a, cell_b, cell_c), counts):
            for band, count in zip(find_bands(cell, 4.0)[:2], pair):
                calls.clear()
                assert audit_count(cell, k, band) == count
                assert calls == [4 * 16 * k + 1], (cell, k, band.index)


def test_contour_through_zero_raises_quickly(cell_a):
    # a one-cell root on a horizontal side and on a vertical side: the
    # refinement must stop rather than bisect forever
    root = resonances_k1(cell_a, 8.0)[1].lam
    for rect in ((root.real - 0.5, root.real + 0.7, root.imag, -1e-9),
                 (root.real, root.real + 1.0, -1.25, -1e-9)):
        start = time.perf_counter()
        with pytest.raises(ContourThroughZeroError):
            count_zeros_rectangle(cell_a, 1, *rect)
        assert time.perf_counter() - start < 1.0


def test_contour_on_a_capped_start_grid_refines(cell_a):
    # 1200 wide at k = 64, the start grid is capped at 2**17 points per side, 4 * 2**17 + 1
    # samples, and its phase jumps still need a refinement pass; the count is the sum of
    # the two halves' counts
    halves = [count_zeros_rectangle(cell_a, 64, *re, -0.3, 0.05)
              for re in ((0.1, 600.0), (600.0, 1200.0))]
    assert halves == [19391, 19403]
    assert count_zeros_rectangle(cell_a, 64, 0.1, 1200.0, -0.3, 0.05) == sum(halves)


def test_audit_reraises_after_fifth_attempt(cell_a, monkeypatch):
    # a floor on the one-cell root line puts the bottom side of every
    # widened contour through the roots of band 2
    rects = []
    count = resolvent.count_zeros_rectangle

    def recorder(*args):
        rects.append(args[2:])
        return count(*args)

    monkeypatch.setattr(resolvent, "count_zeros_rectangle", recorder)
    band = find_bands(cell_a, 4.0)[1]
    start = time.perf_counter()
    with pytest.raises(ContourThroughZeroError):
        audit_count(cell_a, 1, band, im_floor=DEPTH_A1)
    assert time.perf_counter() - start < 1.0
    assert len(rects) == 5
    assert len({rect[0] for rect in rects}) == 5  # each attempt widens the margin
    assert all(rect[2] == DEPTH_A1 for rect in rects)


def test_ill_ordered_ranges_raise(cell_a):
    for rect in ((2.0, 1.0, -1.0, -1e-9), (1.0, 2.0, -1e-9, -1.0), (1.0, 1.0, -1.0, -1e-9)):
        with pytest.raises(InvalidRangeError, match="ill ordered"):
            count_zeros_rectangle(cell_a, 2, *rect)
    for rect in ((1.0, math.inf, -1.0, -1e-9), (1.0, 2.0, -math.inf, -1e-9)):
        with pytest.raises(InvalidRangeError, match="not finite"):
            count_zeros_rectangle(cell_a, 2, *rect)
    with pytest.raises(InvalidRangeError):
        resonances_k1(cell_a, 1.0, 2.0)
    with pytest.raises(InvalidRangeError):
        resonances_k1(cell_a, 4.0, -1.0)


def test_cell_count_validation(cell_a):
    # every entry taking a cell count shares the kernel's check
    band = find_bands(cell_a, 4.0)[0]
    for k in (0, -3, 2.5, True):
        for call in (lambda: chain_determinants(cell_a, 1.0 - 0.1j, k),
                     lambda: count_zeros_rectangle(cell_a, k, 0.0, 1.0, -1.0, -1e-9),
                     lambda: audit_count(cell_a, k, band),
                     lambda: find_resonances(cell_a, k, Window(0.0, 4.0, -1.25)),
                     lambda: convergence_study(cell_a, band, [k])):
            with pytest.raises(ValueError, match="cell count"):
                call()


def test_empty_window_warns(cell_a):
    with pytest.warns(EmptyWindowWarning):
        assert find_resonances(cell_a, 3, Window(1.3, 2.6, -1.0)) == []


def test_homogeneous_has_no_resonances(uniform):
    assert find_resonances(uniform, 5, Window(0.0, 5.0, -2.0)) == []


def test_window_validation():
    with pytest.raises(InvalidRangeError):
        Window(-0.1, 4.0, -1.0)
    with pytest.raises(InvalidRangeError):
        Window(2.0, 1.0, -1.0)
    with pytest.raises(InvalidRangeError):
        Window(0.0, 4.0, 0.5)
    for bounds in ((math.nan, 4.0, -1.0), (0.0, math.nan, -1.0), (0.0, 4.0, math.nan),
                   (0.0, math.inf, -1.0)):
        with pytest.raises(InvalidRangeError):
            Window(*bounds)
    assert Window(0.0, 4.0, -math.inf).im_min == -math.inf  # an unbounded floor stays allowed


def test_convergence_study_rows(cell_a):
    band = find_bands(cell_a, 4.0)[0]
    rows = convergence_study(cell_a, band, [4, 8])
    assert [row.k for row in rows] == [4, 8]
    assert rows[1].max_im > rows[0].max_im
    assert all(row.count > 0 for row in rows)
    again = convergence_study(cell_a, band, [5, 5])
    assert again[0] == again[1]
    with pytest.raises(ValueError):
        convergence_study(cell_a, band, [4, 1])
    with pytest.raises(ValueError):
        convergence_study(cell_a, band, [8, 4])
    for k_list in ([1], [4]):  # the window is checked before any k is searched
        with pytest.raises(InvalidRangeError):
            convergence_study(cell_a, band, k_list, im_floor=math.nan)
    with pytest.raises(BandMismatchError):  # band 3 clipped at 4: its window misses roots
        convergence_study(cell_a, find_bands(cell_a, 4.0)[2], [4, 8])


def test_convergence_study_k1_row_equals_closed_form(cell_a, cell_b, cell_c):
    # the k = 1 row comes from find_resonances; to 12 digits it is the closed form's, at the
    # default floor and at 4x the one-cell depth, in the first three whole bands
    row = convergence_study(cell_a, find_bands(cell_a, 4.0)[0], [1, 4])[0]
    assert row.k == 1 and row.count == 1
    assert row.max_im == pytest.approx(DEPTH_A1, abs=1e-12)
    for cell in (cell_a, cell_b, cell_c, *RANDOM_CELLS):
        depth = math.log(abs(cell.contrast)) / (cell.b2 * cell.x2)
        for band in [b for b in find_bands(cell, 8.0) if b.hi_type is not None][:3]:
            for floor in (default_im_floor(cell), 4.0 * depth):
                row = convergence_study(cell, band, [1], im_floor=floor)[0]
                assert tuple(map(_fmt, row)) == closed_form_k1_row(cell, band, floor), cell


def test_convergence_study_homogeneous(uniform):
    band = find_bands(uniform, 5.0)[0]
    rows = convergence_study(uniform, band, [2, 4])
    assert all(row.count == 0 and row.max_im is None for row in rows)


def test_find_resonances_deterministic(cell_a):
    w = Window(0.0, 4.0, -1.25)
    first = find_resonances(cell_a, 4, w)
    second = find_resonances(cell_a, 4, w)
    assert [(r.lam, r.residual) for r in first] == [(r.lam, r.residual) for r in second]


@pytest.mark.parametrize("k", [1, 2, 7, 64, 256])
def test_resonance_condition_slope_matches_extended_precision(cell_a, cell_b, cell_c, k):
    # Newton's step den/den' on the slab denominator, and the residual h = d Q - 1 of
    # q_recursion, against mpmath, both built from the one-cell entries and the O(k)
    # Chebyshev recurrence (den' by mpmath's numerical derivative, Q = (d - r)/(1 - d r));
    # at DEEP's Im lam = -5 the entries cancel by 1e9
    mp = pytest.importorskip("mpmath")
    cases = [(cell, (0.37 - 0.21j, 1.9 - 0.0003j, 2.6 - 0.02j, 3.3 - 0.5j))
             for cell in (cell_a, cell_b, cell_c)]
    cases.append((DEEP, (0.3 - 5j, 0.61 - 2j)))
    for cell, lams in cases:
        step_got = resolvent._resonance_condition(cell, np.array(lams), k)
        h_got = cell.contrast * q_recursion(cell, np.array(lams), k) - 1.0
        with mp.workdps(60):
            b1, b2, x2 = (mp.mpf(v) for v in (cell.b1, cell.b2, cell.x2))
            c = (b2 - b1) / (b2 + b1)

            def num_den(z):
                arg_sum = z * (x2 * b2 + (1 - x2) * b1)
                arg_diff = z * (b1 * (1 - x2) - b2 * x2)
                p, m = b2 + b1, b2 - b1
                a = (p * mp.cos(arg_sum) + m * mp.cos(arg_diff)) / (2 * b2)
                b = (p * mp.sin(arg_sum) - m * mp.sin(arg_diff)) / 2
                g = -(p * mp.sin(arg_sum) + m * mp.sin(arg_diff)) / (2 * b1 * b2)
                d = (p * mp.cos(arg_sum) - m * mp.cos(arg_diff)) / (2 * b1)
                u, v = mp.mpf(1), mp.mpf(0)
                for _ in range(k - 1):
                    u, v = (a + d) * u - v, u
                ak, bk, gk, dk = u * a - v, u * b, u * g, u * d - v
                return (dk - ak - 1j * (b1 * gk + bk / b1),
                        dk + ak + 1j * (b1 * gk - bk / b1))

            def h(z):
                num, den = num_den(z)
                r = num / den
                return c * (c - r) / (1 - c * r) - 1

            h_want = [complex(h(mp.mpc(lam))) for lam in lams]
            step_want = [complex(num_den(mp.mpc(lam))[1]
                                 / mp.diff(lambda z: num_den(z)[1], mp.mpc(lam)))
                         for lam in lams]
        for got, ref in zip([*h_got, *step_got], h_want + step_want):
            assert abs(got - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("k", [8, 32, 128])
def test_roots_unchanged_under_the_tangent_derivative(cell_a, cell_b, cell_c, k, monkeypatch):
    # Newton takes den' from the Chebyshev derivative identity, which can lose digits
    # next to F = +-1; with den' from the tangents carried through the doubling
    # instead, the search finds the same roots per band, to 1e-13
    def search(cell):
        found = find_resonances(cell, k, Window(0.0, 4.0, default_im_floor(cell)))
        return sorted((r.band_index, r.lam.real, r.lam.imag) for r in found)

    def tangent_terms(cell, lam, k, slope=False):
        return slab_terms_tangent(cell, lam, k) if slope else kernel_terms(cell, lam, k)

    kernel_terms = resolvent._slab_terms
    cells = (cell_a, cell_b, cell_c)
    got = [search(cell) for cell in cells]
    monkeypatch.setattr(resolvent, "_slab_terms", tangent_terms)
    for ours, theirs in zip(got, map(search, cells)):
        assert [r[0] for r in ours] == [r[0] for r in theirs]
        assert max(abs(complex(*a[1:]) - complex(*b[1:])) for a, b in zip(ours, theirs)) <= 1e-13


def _merge_radius(cell, k, window):
    """1/20 of the smallest spacing of neighbouring markers, the edges and the transmission
    peaks, over the bands the window touches (reference)."""
    bands = find_bands(cell, window.re_max + 2.0 * math.pi / cell.transit_time)
    return min(np.min(np.diff([b.lo, *perfect_transmission_frequencies(cell, b, k), b.hi]))
               for b in bands
               if b.hi > window.re_min - 1e-9 and b.lo < window.re_max + 1e-9) / 20.0


def test_dedup_matches_one_root_loop(cell_a, cell_b, monkeypatch):
    # reference: the loop that compared each candidate with every kept root
    newton, seen = resolvent._newton_batch, {}

    def recorded(cell, k, seeds, tol):
        seen["out"] = newton(cell, k, seeds, tol)
        return seen["out"]
    monkeypatch.setattr(resolvent, "_newton_batch", recorded)
    weakest = UnitCell(1.0, 1.00001, 0.3)  # copies of one root 1e-6 to 1.4e-6 apart
    for cell, k, window in ((cell_b, 24, Window(0.2, 3.5, default_im_floor(cell_b))),
                            (cell_a, 128, Window(0.0, 4.0, default_im_floor(cell_a))),
                            (weakest, 16, Window(0.0, 4.0, default_im_floor(weakest)))):
        got = [r.lam for r in find_resonances(cell, k, window)]
        roots, steps, _ = seen["out"]
        radius = _merge_radius(cell, k, window)
        candidates, kept = 0, []
        for i in np.argsort(steps, kind="stable"):  # in the order of the last step's size
            lam = complex(roots[i])
            if (not steps[i] <= resolvent._STEP_SHARE * radius
                    or lam.imag >= 0.0
                    or not window.im_min - 1e-9 <= lam.imag
                    or not window.re_min - 1e-9 <= lam.real <= window.re_max + 1e-9):
                continue
            candidates += 1
            if all(abs(lam - other) > radius for other in kept):
                kept.append(lam)
        assert candidates > len(kept)
        assert sorted(kept, key=lambda z: (z.real, z.imag)) == got, (cell, k)


def _stall_stop_agrees(cell, k, monkeypatch, re_max=4.0, tol=1e-12):
    """find_resonances with the stall stop against the same search without it (a window
    above the iteration cap runs every seed to the cap or the tolerance) in Window(0, re_max,
    default floor): equal per-band counts and every root within tol."""
    window = Window(0.0, re_max, default_im_floor(cell))
    with monkeypatch.context() as patch:
        patch.setattr(resolvent, "_STALL_STEPS", resolvent._NEWTON_MAX_ITER + 1)
        want = find_resonances(cell, k, window)
    got = find_resonances(cell, k, window)
    assert (collections.Counter(r.band_index for r in got)
            == collections.Counter(r.band_index for r in want)), (cell, k)
    assert len(got) == len(want) and all(
        abs(g.lam - w.lam) <= tol for g, w in zip(got, want)), (cell, k)


@pytest.mark.parametrize("k", [8, 32, 64, 128])
def test_stall_stop_keeps_reference_roots(cell_a, cell_b, cell_c, k, monkeypatch):
    for cell in (cell_a, cell_b, cell_c):
        _stall_stop_agrees(cell, k, monkeypatch)


@pytest.mark.parametrize("k", [2, 8, 32])
def test_stall_stop_keeps_random_cell_roots(k, monkeypatch):
    for cell in random_cells(7, 8):
        _stall_stop_agrees(cell, k, monkeypatch)


@pytest.mark.parametrize("k", [8, 16])
def test_stall_stop_keeps_weak_contrast_roots(k, monkeypatch):
    # weak contrast converges slowly: an 8-step window loses roots here (UnitCell(1, 1.001,
    # 0.3) holds 22 and 46 at k = 8 and 16, an 8-step window finds 21 and 42).  Copies of
    # one root spread by up to 2e-11 on the second cell (d = 5.8e-4), so roots agree to 1e-10
    for cell in (UnitCell(1.0, 1.001, 0.3),
                 UnitCell(3.7302546077730416, 3.7345694226238706, 0.7804410078050841)):
        band3 = find_bands(cell, 4.0 * math.pi / cell.transit_time)[2]
        _stall_stop_agrees(cell, k, monkeypatch, re_max=band3.hi, tol=1e-10)


def test_stall_stop_cuts_kernel_work(cell_a, monkeypatch):
    # A at k = 128: 92 712 kernel points when every run of the old seven-rung depth
    # ladder went to the cap or its step bound, 50 615 with the stall stop, 30 997 once
    # the ladder's seeds where den is one Bloch wave by more than e^64 stayed unlaunched,
    # and 8 505 with one seed per marker (the edges, the k - 1 transmission peaks and
    # the midpoints between them) where den's two Bloch waves balance: Newton's 4 329
    # evaluations and the 16 points of each root's certificate circle (4 176)
    terms, points = resolvent._slab_terms, [0]

    def counted(cell, lam, k, slope=False):
        points[0] += np.size(lam)
        return terms(cell, lam, k, slope)
    monkeypatch.setattr(resolvent, "_slab_terms", counted)
    find_resonances(cell_a, 128, Window(0.0, 4.0, default_im_floor(cell_a)))
    assert 0 < points[0] <= 12_000


HIGH_CONTRAST = UnitCell(7.353746788861326, 0.2407638817620896, 0.2698829985618346)


@pytest.mark.parametrize("k", [2, 3, 8, 32, 128])
def test_balance_seeds_keep_every_ladder_root(cell_a, cell_b, cell_c, k, monkeypatch):
    # the depth ladder that the balance seeds replaced (``conftest.ladder_seeds``): no band
    # holds fewer roots with one seed per marker where den's waves balance, and every root
    # of the ladder lies within 1e-12 of one of them.  The ladder misses roots of the
    # high-contrast cell's bands 3-7, which the balance seeds find
    cases = [(cell_a, 4.0), (cell_b, 4.0), (cell_c, 4.0), (UnitCell(4.557, 0.5, 0.3), 6.0),
             (HIGH_CONTRAST, 4.0)]
    weakest = UnitCell(1.0, 1.00001, 0.3)

    def search(cell, re_max):
        found = find_resonances(cell, k, Window(0.0, re_max, default_im_floor(cell)))
        return collections.Counter(r.band_index for r in found), np.array([r.lam for r in found])

    got = [search(*case) for case in cases]
    weak_counts = search(weakest, 4.0)[0]
    monkeypatch.setattr(resolvent, "_seeds", ladder_seeds)
    for case, (counts, lams) in zip(cases, got):
        want_counts, want_lams = search(*case)
        assert all(counts[band] >= n for band, n in want_counts.items()), case
        assert all(np.min(np.abs(lams - lam)) <= 1e-12 for lam in want_lams), case
    # there the two searches' copies of one root lie up to 1.9e-6 apart (k = 128), den's
    # rounding (ROADMAP item 16), so only the counts are compared
    assert weak_counts == search(weakest, 4.0)[0]


@pytest.mark.parametrize("cell", [UnitCell(1.0, 4.0, 0.2), UnitCell(3.8, 1.0, 0.8)])
def test_seeds_sit_where_the_bloch_waves_balance(cell, monkeypatch):
    # each seed lies on the line where ln r, r = |subdominant wave / dominant wave| of den,
    # changes sign on its vertical line, to 1%: ln r > 0 at 0.99 times its depth and not
    # above 0 at 1.01 times it; a line without a sign change seeds by a bracket end, the
    # window's floor or 1e-16 (A and C at k = 128: 2 of 527 and 516 seeds, at 1e-16)
    k, seeds, seen = 128, resolvent._seeds, []

    def recorded(cell, k, re, im_min):
        seen.append(seeds(cell, k, re, im_min))
        return seen[-1]
    monkeypatch.setattr(resolvent, "_seeds", recorded)
    find_resonances(cell, k, Window(0.0, 4.0, default_im_floor(cell)))
    z, floor = seen[0], -default_im_floor(cell)
    depth = -z.imag
    above = resolvent._wave_ratio(cell, z.real - 0.99j * depth, k) > 0.0
    below = ~(resolvent._wave_ratio(cell, z.real - 1.01j * depth, k) > 0.0)
    ends = (np.abs(depth / 1e-16 - 1.0) <= 0.01) | (np.abs(depth / floor - 1.0) <= 0.01)
    assert np.all((above & below) | ends)
    assert np.sum(above & below) >= 4 * k


@pytest.mark.parametrize("k", [8, 32, 128])
def test_high_contrast_bands_whole(k):
    # bands 2-7 hold k - 1 roots each, one per transmission peak; the depth ladder's
    # shallowest rung sat far deeper than these roots and found 7, 6, 5, 5, 5 and 5 at
    # k = 8, 31, 30, 29, 29, 29 and 29 at k = 32 and 127, 126, 126, 125, 125 and 125 at 128
    found = find_resonances(HIGH_CONTRAST, k, Window(0.0, 4.0, default_im_floor(HIGH_CONTRAST)))
    counts = collections.Counter(r.band_index for r in found)
    bands = find_bands(HIGH_CONTRAST, 4.0)[1:7]
    assert [counts[b.index] for b in bands] == [k - 1] * 6


def test_k1_root_between_the_ladder_rungs():
    # b2 x2 = 0.0057 puts the one-cell root at -14.6i.  Newton from the depth ladder's
    # rungs at -8.8i and -17.6i stalls 0.3i and 10i away from it, so the ladder returned
    # no root; the balance seed sits on it and converges in 3 steps
    cell = UnitCell(2.5991892814958355, 0.10788820865549674, 0.0526882677891561)
    found = find_resonances(cell, 1, Window(0.0, 4.0, default_im_floor(cell)))
    closed = resonances_k1(cell, 4.0)
    assert len(found) == len(closed) == 1
    assert abs(found[0].lam - closed[0].lam) <= 1e-12
    assert abs(found[0].lam + 14.6126j) <= 1e-4
