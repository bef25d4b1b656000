import cmath
import math
import warnings

import numpy as np
import pytest

from stepslab import (BoundaryValueWarning, EdgeDegeneracyError,
                      FixedPointKind, HomogeneousCellError, UnitCell,
                      find_bands, fixed_points, iterate_limit, mobius_map,
                      r1, r1_modulus_bound, reflection_half_infinite,
                      reflection_k)

from conftest import EDGE_A1, EDGE_A3


def _regime_points(cell, n_per=25):
    """Real frequencies split into band interiors and gap interiors."""
    bands = find_bands(cell, 8.0)
    band_pts, gap_pts = [], []
    for b in bands:
        if b.hi_type is None:
            continue
        pad = 0.05 * b.width
        band_pts.extend(np.linspace(b.lo + pad, b.hi - pad, n_per))
    for a, b in zip(bands[:-1], bands[1:]):
        if b.lo - a.hi > 1e-9:
            pad = 0.05 * (b.lo - a.hi)
            gap_pts.extend(np.linspace(a.hi + pad, b.lo - pad, n_per))
    return band_pts, gap_pts


def test_r1_matches_one_cell_slab(cell_a, cell_b):
    # the closed form holds for every cell, commensurate or not
    for cell in (cell_a, cell_b):
        for lam in np.linspace(0.05, 6.0, 101):
            assert abs(r1(cell, lam) - reflection_k(cell, lam, 1)) <= 1e-10


def test_r1_transparency_zero(cell_a):
    assert abs(r1(cell_a, EDGE_A3)) < 1e-12


def test_r1_modulus_bound_is_sharp(cell_a):
    bound = r1_modulus_bound(cell_a)
    assert bound == pytest.approx(2.0 * 0.6 / 1.36, rel=1e-15)
    sweep = np.abs(r1(cell_a, np.linspace(0.001, 8.0, 5000)))
    assert np.max(sweep) <= bound + 1e-12
    # attained mid-gap, where the layer round trip is a half wave
    lam_star = math.pi / 1.6
    assert abs(r1(cell_a, lam_star)) == pytest.approx(bound, abs=1e-12)


def test_map_advances_slab_reflection(cell_a):
    band_pts, gap_pts = _regime_points(cell_a, 10)
    for lam in band_pts + gap_pts:
        fmap = mobius_map(cell_a, lam)
        for k in range(1, 9):
            advanced = fmap.apply(reflection_k(cell_a, lam, k))
            assert abs(advanced - reflection_k(cell_a, lam, k + 1)) <= 1e-9


def test_iterates_from_empty_slab(cell_a):
    band_pts, gap_pts = _regime_points(cell_a, 25)
    for lam in band_pts + gap_pts:
        fmap = mobius_map(cell_a, lam)
        z = 0.0 + 0.0j
        for k in range(1, 13):
            z = fmap.apply(z)
            assert abs(z - reflection_k(cell_a, lam, k)) <= 1e-8


def test_map_fixes_zero_at_transparency(cell_a):
    fmap = mobius_map(cell_a, EDGE_A3)
    assert abs(fmap.apply(0.0)) < 1e-12


def test_map_and_fixed_points_on_skewed_cells(cell_b, cell_c):
    # unequal layer transit times: the map still advances the slab, and its fixed
    # points are fixed
    for cell in (cell_b, cell_c):
        band_pts, gap_pts = _regime_points(cell, 10)
        for lam in band_pts + gap_pts:
            fmap = mobius_map(cell, lam)
            for k in range(1, 9):
                advanced = fmap.apply(reflection_k(cell, lam, k))
                assert abs(advanced - reflection_k(cell, lam, k + 1)) <= 1e-9, (cell, lam, k)
            fp = fixed_points(cell, lam)
            for z in (fp.z1, fp.z2):
                assert abs(fmap.apply(z) - z) <= 1e-10, (cell, lam)


def test_transparent_cell_map_is_a_rotation():
    # at a one-cell transparency frequency of a skewed cell N = 0 exactly: the map is
    # a rotation with fixed points 0 and infinity.  Next to it z2 = 1/conj(z1) is
    # large, and both roots stay fixed to rounding relative to their size
    cell = UnitCell(0.29217818972231885, 2.155727995675875, 0.23054605158829566)
    lam = 6.321180943501459
    assert mobius_map(cell, lam).w[1] == 0.0
    fp = fixed_points(cell, lam)
    assert fp.kind is FixedPointKind.ELLIPTIC
    assert (fp.z1, fp.z2) == (0.0, complex(math.inf))
    for off in (-1e-9, -1e-12, 1e-12, 1e-9):
        fmap, fp = mobius_map(cell, lam + off), fixed_points(cell, lam + off)
        assert fp.z2 == 1.0 / fp.z1.conjugate()
        for z in (fp.z1, fp.z2):
            assert abs(fmap.apply(z) - z) <= 1e-12 * abs(z), off


def test_homogeneous_map_is_rotation(uniform):
    lam = 1.7
    fmap = mobius_map(uniform, lam)
    z = 0.3 + 0.1j
    assert abs(fmap.apply(z) - cmath.exp(2j * lam * uniform.transit_time) * z) <= 1e-15
    with pytest.raises(HomogeneousCellError):
        fixed_points(uniform, 1.7)


def test_fixed_points_elliptic_mid_band(cell_a):
    fp = fixed_points(cell_a, 0.58)
    assert fp.kind is FixedPointKind.ELLIPTIC
    assert abs(fp.z1) < 1.0 < abs(fp.z2)
    assert fp.z1 * fp.z2.conjugate() == pytest.approx(1.0, abs=1e-10)


def test_fixed_points_hyperbolic_mid_gap(cell_a):
    lam = math.pi / 1.6
    fp = fixed_points(cell_a, lam)
    assert fp.kind is FixedPointKind.HYPERBOLIC
    expected = {1j * cmath.exp(-1j * lam * 0.8), -1j * cmath.exp(-1j * lam * 0.8)}
    for z in (fp.z1, fp.z2):
        assert abs(abs(z) - 1.0) <= 1e-10
        assert min(abs(z - w) for w in expected) <= 1e-10


def test_fixed_points_hyperbolic_order_by_real_part(cell_a):
    # both roots are unimodular on a gap, so z1 is the one of larger real part
    for lam in np.linspace(1.17, 2.75, 400):
        fp = fixed_points(cell_a, lam)
        assert fp.kind is FixedPointKind.HYPERBOLIC
        assert fp.z1.real >= fp.z2.real, lam


def test_fixed_points_parabolic_at_edge(cell_a):
    fp = fixed_points(cell_a, EDGE_A1)
    assert fp.kind is FixedPointKind.PARABOLIC
    assert fp.z1 == fp.z2  # mu_plus = mu_minus = -1: the double root is double
    assert abs(abs(fp.z1) - 1.0) <= 1e-10


def test_fixed_points_residual(cell_a):
    band_pts, gap_pts = _regime_points(cell_a, 10)
    for lam in band_pts + gap_pts:
        fmap = mobius_map(cell_a, lam)
        fp = fixed_points(cell_a, lam)
        for z in (fp.z1, fp.z2):
            assert abs(fmap.apply(z) - z) <= 1e-10


def test_fixed_points_degenerate_edge_raises(cell_a):
    with pytest.raises(EdgeDegeneracyError):
        fixed_points(cell_a, EDGE_A3)


def test_regime_agreement(cell_a):
    band_pts, gap_pts = _regime_points(cell_a, 100)
    for lam in band_pts:
        assert fixed_points(cell_a, lam).kind is FixedPointKind.ELLIPTIC
    for lam in gap_pts:
        assert fixed_points(cell_a, lam).kind is FixedPointKind.HYPERBOLIC


def test_disk_preservation(cell_a):
    rng = np.random.default_rng(53)
    lams = rng.uniform(0.05, 8.0, 100)
    radii = np.sqrt(rng.uniform(0.0, 1.0, 100)) * 0.999
    angles = rng.uniform(0.0, 2.0 * math.pi, 100)
    for lam in lams:
        fmap = mobius_map(cell_a, lam)
        zs = radii * np.exp(1j * angles)
        assert np.all(np.abs(fmap.apply(zs)) < 1.0)


def test_iterate_limit_equals_repeated_apply(cell_a):
    band_pts, gap_pts = _regime_points(cell_a, 4)
    for lam in band_pts + gap_pts:
        fmap = mobius_map(cell_a, lam)
        z0 = r1(cell_a, lam)
        z = z0
        for n in range(1, 51):
            z = fmap.apply(z)
            assert abs(iterate_limit(cell_a, lam, z0, n).value - z) <= 1e-10


def test_iterate_limit_hyperbolic(cell_a):
    lam = math.pi / 1.6
    res = iterate_limit(cell_a, lam, r1(cell_a, lam))
    assert res.converged
    assert res.kind is FixedPointKind.HYPERBOLIC
    fp = fixed_points(cell_a, lam)
    assert min(abs(res.value - fp.z1), abs(res.value - fp.z2)) <= 1e-8
    assert abs(res.value - reflection_half_infinite(cell_a, lam)) <= 1e-6


def test_iterate_limit_elliptic_keeps_rotating(cell_a):
    res = iterate_limit(cell_a, 0.58, r1(cell_a, 0.58))
    assert not res.converged
    assert res.kind is FixedPointKind.ELLIPTIC
    assert abs(res.value) < 1.0


def test_iterate_limit_at_degenerate_edge(cell_a):
    res = iterate_limit(cell_a, EDGE_A3, 0.0)
    assert res.converged
    assert res.value == 0.0


def test_iterate_limit_rejects_outside_disk(cell_a):
    with pytest.raises(ValueError):
        iterate_limit(cell_a, 0.5, 1.0 + 0.0j)


def test_iterate_limit_near_an_edge_matches_the_slab():
    # iterating N times from r1 gives r_{N+1}; within 1e-12 to 1e-3 of A's first
    # edge the Chebyshev argument must not cancel (sign F - 1 formed from the map's
    # trace loses about 1e-10 here), and from 1e-11 of A's touching points pi/0.8
    # and 2 pi/0.8 the map is not yet +-I: band points, iterated like any other
    cell = UnitCell(1.0, 4.0, 0.2)
    n = 1000
    for edge, smallest in ((EDGE_A1, -12), (math.pi / 0.8, -11), (2.0 * math.pi / 0.8, -11)):
        for delta in 10.0 ** np.arange(smallest, -2):
            for lam in (edge - delta, edge + delta):
                got = iterate_limit(cell, lam, r1(cell, lam), n).value
                assert abs(got - reflection_k(cell, lam, n + 1)) <= 1e-13, lam


def test_iterate_limit_near_a_touching_point_matches_extended_precision():
    # 4e-5 from the touching point 5 pi at A: N = 10 000 map steps against the
    # 40-digit matrix power W^N = (S diag(eta, 1))^(2N), S the interface involution
    mp = pytest.importorskip("mpmath")
    cell, lam, n = UnitCell(1.0, 4.0, 0.2), 15.708, 10_000
    z0 = r1(cell, lam)
    with mp.workdps(40):
        b1, b2, x2 = mp.mpf(cell.b1), mp.mpf(cell.b2), mp.mpf(cell.x2)
        d = (b2 - b1) / (b2 + b1)
        eta = mp.expj(2 * mp.mpf(lam) * b2 * x2)
        step = mp.matrix([[-1, d], [-d, 1]]) * mp.matrix([[eta, 0], [0, 1]])
        w = (step * step) ** n
        want = complex((w[0, 0] * z0 + w[0, 1]) / (w[1, 0] * z0 + w[1, 1]))
    assert abs(iterate_limit(cell, lam, z0, n).value - want) <= 1e-10
