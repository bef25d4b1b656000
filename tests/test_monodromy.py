import cmath
import math
import sys
import warnings

import numpy as np
import pytest

from stepslab import (EdgeDegeneracyError, EdgeType, FixedPointKind, InvalidRangeError,
                      IterateResult, Regime, UnitCell, bloch, find_bands, fixed_points,
                      iterate_limit, lyapunov, monodromy, reflection_half_infinite,
                      spectral_period, transfer_power)
from stepslab.monodromy import _bisect, _half_angles, _offset, chebyshev_pair

from conftest import (DEEP, EDGE_A1, EDGE_A2, EDGE_A3, chebyshev_pair_per_level,
                      lyapunov_curvature, lyapunov_derivative, random_cells, same_bits)


def _random_lams(rng, n, re=(0.05, 8.0), im=(-1.0, 1.0)):
    return rng.uniform(*re, n) + 1j * rng.uniform(*im, n)


def test_identity_at_zero(cell_family):
    for cell in cell_family:
        m = monodromy(cell, 0.0)
        assert m.alpha == pytest.approx(1.0, abs=1e-15)
        assert m.delta == pytest.approx(1.0, abs=1e-15)
        assert m.beta == pytest.approx(0.0, abs=1e-15)
        assert m.gamma == pytest.approx(0.0, abs=1e-15)


def test_determinant_is_one(cell_family):
    rng = np.random.default_rng(3)
    for cell in cell_family:
        for lam in _random_lams(rng, 40):
            m = monodromy(cell, lam)
            assert abs(m.det - 1.0) <= 1e-12 * (1.0 + abs(lam))


def test_entries_real_for_real_frequency(cell_a):
    m = monodromy(cell_a, 1.37)
    for entry in (m.alpha, m.beta, m.gamma, m.delta):
        assert np.imag(entry) == 0.0


def test_trace_matches_dispersion_function(cell_family):
    rng = np.random.default_rng(17)
    for cell in cell_family:
        for lam in _random_lams(rng, 20):
            m = monodromy(cell, lam)
            assert m.trace == pytest.approx(2.0 * lyapunov(cell, lam), rel=1e-12)


def test_trace_closed_form_reference_cell(cell_a):
    # equal transit times collapse the trace to a single cosine
    rng = np.random.default_rng(23)
    for lam in rng.uniform(0.0, 10.0, 20):
        m = monodromy(cell_a, lam)
        assert m.trace == pytest.approx(3.125 * math.cos(1.6 * lam) - 1.125, abs=1e-12)


def test_dispersion_reference_values(cell_a):
    assert lyapunov(cell_a, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert lyapunov(cell_a, EDGE_A3) == pytest.approx(1.0, abs=1e-12)
    assert abs(lyapunov_derivative(cell_a, EDGE_A3)) < 1e-12
    assert lyapunov(cell_a, 1.15912) == pytest.approx(-1.0, abs=1e-4)
    assert lyapunov(cell_a, EDGE_A1) == pytest.approx(-1.0, abs=1e-12)


def test_dispersion_derivatives_match_finite_differences(cell_a, cell_b):
    for cell in (cell_a, cell_b):
        for lam in (0.3, 1.1, 2.9, 4.4):
            h = 1e-6
            fd1 = (lyapunov(cell, lam + h) - lyapunov(cell, lam - h)) / (2 * h)
            assert lyapunov_derivative(cell, lam) == pytest.approx(fd1, abs=1e-7)
            h = 1e-4  # second difference loses ~eps/h^2 to rounding
            fd2 = (lyapunov(cell, lam + h) - 2 * lyapunov(cell, lam)
                   + lyapunov(cell, lam - h)) / h ** 2
            assert lyapunov_curvature(cell, lam) == pytest.approx(fd2, abs=1e-6)


def test_transfer_power_k1_is_monodromy(cell_a):
    lam = 0.9 - 0.4j
    assert np.allclose(transfer_power(cell_a, lam, 1).as_array(),
                       monodromy(cell_a, lam).as_array(), rtol=0, atol=1e-15)


def test_transfer_power_matches_direct_product(cell_family):
    rng = np.random.default_rng(41)
    for cell in cell_family:
        for lam in _random_lams(rng, 8):
            single = monodromy(cell, lam).as_array()
            product = np.eye(2, dtype=complex)
            for k in range(1, 13):
                product = single @ product
                powered = transfer_power(cell, lam, k).as_array()
                scale = np.max(np.abs(product))
                assert np.max(np.abs(powered - product)) <= 1e-9 * scale


def test_transfer_power_entry_relations(cell_a):
    # off-diagonal entries of the power are the one-cell entries times a
    # common factor, and the trace collapses to 2 cos(k theta) on bands
    lam = 0.58
    m = monodromy(cell_a, lam)
    mk = transfer_power(cell_a, lam, 5)
    ratio = mk.beta / m.beta
    assert mk.gamma == pytest.approx(ratio * m.gamma, rel=1e-12)
    assert (mk.alpha - mk.delta) == pytest.approx(ratio * (m.alpha - m.delta), rel=1e-12)
    theta = math.acos(float(lyapunov(cell_a, lam)))
    assert mk.trace == pytest.approx(2.0 * math.cos(5 * theta), abs=1e-10)


def test_transfer_power_unit_determinant(cell_a):
    # the determinant is structurally 1; the computable bound scales with
    # the squared entry size through cancellation of the two products
    rng = np.random.default_rng(4)
    for lam in _random_lams(rng, 10, im=(-0.6, 0.6)):
        for k in (2, 7, 19):
            mk = transfer_power(cell_a, lam, k)
            scale = max(abs(mk.alpha), abs(mk.beta), abs(mk.gamma), abs(mk.delta))
            assert abs(mk.det - 1.0) <= 1e-13 * (1.0 + scale) ** 2


def test_cell_count_validation(cell_a):
    # the Chebyshev kernel rejects cell counts that are not positive integers
    for k in (0, -3, 2.5, True):
        with pytest.raises(ValueError):
            transfer_power(cell_a, 1.0, k)
    with pytest.raises(ValueError):
        transfer_power(cell_a, np.linspace(0.1, 2.0, 5), 2.5)


def test_multiplier_selection_upper_half(cell_family):
    rng = np.random.default_rng(29)
    for cell in cell_family:
        for lam in rng.uniform(0.1, 6.0, 30) + 1j * rng.uniform(1e-3, 2.0, 30):
            bd = bloch(cell, lam)
            assert abs(bd.mu_plus) < 1.0 < abs(bd.mu_minus)
            assert abs(bd.mu_plus * bd.mu_minus - 1.0) <= 1e-12


def test_multiplier_on_band(cell_a):
    bd = bloch(cell_a, 0.58)
    assert bd.regime is Regime.BAND
    assert abs(abs(bd.mu_plus) - 1.0) <= 1e-10
    assert bd.mu_minus == pytest.approx(bd.mu_plus.conjugate(), abs=1e-12)


def test_multiplier_on_gap(cell_a):
    lam = math.pi / 1.6
    bd = bloch(cell_a, lam)
    assert bd.regime is Regime.GAP
    assert bd.mu_plus.imag == 0.0 and bd.mu_minus.imag == 0.0
    assert abs(bd.mu_plus) < 1.0
    assert abs(bd.mu_plus * bd.mu_minus - 1.0) <= 1e-12
    assert bd.lyapunov.real == pytest.approx(-2.125, abs=1e-12)


def test_multiplier_continuity_from_above(cell_a):
    # real-axis selection must be the upper-half-plane limit on every band
    for lam in (0.3, 0.58, 0.9, 2.9, 3.3, 3.8):
        mu_real = bloch(cell_a, lam).mu_plus
        mu_up = bloch(cell_a, lam + 1e-7j).mu_plus
        assert abs(mu_real - mu_up) < 1e-5


def test_multiplier_lower_half_expands(cell_a):
    for lam in (0.5 - 0.2j, 3.0 - 0.4j):
        bd = bloch(cell_a, lam)
        assert abs(bd.mu_plus) > 1.0 > abs(bd.mu_minus)


def test_bloch_at_degenerate_edge(cell_a):
    # EDGE_A3, and 1e-12 from the touching point 0 of two cells whose beta and
    # mu_plus - delta round to 0 there
    cases = [(cell_a, EDGE_A3)]
    for params in ((0.44068951581111326, 0.17401693350199587, 0.4523257919833155),
                   (1.4943060671229178, 0.36548891231884756, 0.6651150828381049)):
        cases += [(UnitCell(*params), 1e-12), (UnitCell(*params), -1e-12)]
    for cell, lam in cases:
        bd = bloch(cell, lam)
        assert bd.regime is Regime.DEGENERATE_EDGE, (cell, lam)
        assert bd.mu_plus == bd.mu_minus == 1.0


def test_nondegenerate_edge_regime(cell_a):
    bd = bloch(cell_a, EDGE_A1)
    assert bd.regime is Regime.NONDEGENERATE_EDGE
    assert bd.mu_plus == bd.mu_minus == -1.0


def test_find_bands_reference_cell(cell_a, cell_c):
    # C's side (-1)^39 F - 1 rounds to +5e-29 at its touching point 39 pi/tau but is
    # negative 1e-12 on either side: the gap is closed, both its edges are 39 pi/tau
    bands = find_bands(cell_c, 80.0)
    assert bands[38].hi_type is bands[39].lo_type is EdgeType.DEGENERATE
    assert bands[38].hi == bands[39].lo == math.pi / cell_c.transit_time * 39
    bands = find_bands(cell_a, 4.0)
    assert [b.index for b in bands] == [1, 2, 3]
    assert bands[0].lo == 0.0
    assert bands[0].hi == pytest.approx(EDGE_A1, abs=1e-9)
    assert bands[1].lo == pytest.approx(EDGE_A2, abs=1e-9)
    assert bands[1].hi == pytest.approx(EDGE_A3, abs=1e-9)
    assert bands[0].lo_type is EdgeType.DEGENERATE
    assert bands[0].hi_type is EdgeType.NONDEGENERATE
    assert bands[1].hi_type is EdgeType.DEGENERATE
    assert bands[2].hi_type is None  # clipped at lambda_max


def test_gap_reads_closed_only_with_both_edges_near_bragg_frequency():
    # on (1, 20, 0.1/18.1), b2 x2 = tau/10, gap 10 nearly closes with x = 10 pi/tau off
    # its centre, its lower edge about 6 times farther from x than its upper edge; with
    # x2 up by 1e-15 the lower edge lies 2.9e-12 below x and the upper 3.2e-13 above,
    # so the gap is open although its side is not positive at x + 1e-12
    for dx2, closed in ((0.0, True), (1e-15, False)):
        cell = UnitCell(1.0, 20.0, 0.1 / 18.1 + dx2)
        x = math.pi / cell.transit_time * 10
        below, above = find_bands(cell, 30.0)[9:11]
        assert below.hi_type is above.lo_type is (
            EdgeType.DEGENERATE if closed else EdgeType.NONDEGENERATE)
        assert (below.hi == above.lo == x) if closed else (
            2e-12 < x - below.hi < 4e-12 and 0.0 < above.lo - x < 1e-12)
    # above 16384 one ulp of x exceeds 1e-12: C's side rounds above 0 at its touching
    # point x = 8190 pi/tau but is negative one ulp to either side, so the gap is closed
    cell = UnitCell(3.8, 1.0, 0.8)
    x = math.pi / cell.transit_time * 8190
    below, above = find_bands(cell, 16500.0)[8189:8191]
    assert below.hi == above.lo == x and below.hi_type is EdgeType.DEGENERATE
    assert bloch(cell, x).regime is Regime.DEGENERATE_EDGE


def test_regime_needs_no_bisection(cell_a, cell_c, monkeypatch):
    # next to A's open edge, at its touching point pi/0.8 and at C's touching point
    # 39 pi/tau, whose side rounds above 0, the regime and the disk map's kind come
    # from the faced gap's side at two points, with every bisection failing
    def fail(*args):
        raise AssertionError("bisection in a regime decision")

    monkeypatch.setattr(sys.modules["stepslab.monodromy"], "_bisect", fail)
    lam = EDGE_A1
    assert bloch(cell_a, lam).regime is Regime.NONDEGENERATE_EDGE
    assert fixed_points(cell_a, lam).kind is FixedPointKind.PARABOLIC
    assert iterate_limit(cell_a, lam, 0.1 + 0.2j).kind is FixedPointKind.PARABOLIC
    assert abs(reflection_half_infinite(cell_a, lam)) == pytest.approx(1.0)
    for cell, lam in ((cell_a, EDGE_A3), (cell_c, math.pi / cell_c.transit_time * 39)):
        assert bloch(cell, lam).regime is Regime.DEGENERATE_EDGE
        assert iterate_limit(cell, lam, 0.1 + 0.2j) == IterateResult(True, 0.1 + 0.2j, None)
        for fn in (fixed_points, reflection_half_infinite):
            with pytest.raises(EdgeDegeneracyError):
                fn(cell, lam)


def test_find_bands_edge_slopes(cell_a):
    for band in find_bands(cell_a, 8.0):
        for lam, kind in ((band.lo, band.lo_type), (band.hi, band.hi_type)):
            if kind is EdgeType.NONDEGENERATE:
                assert abs(lyapunov_derivative(cell_a, lam)) > 1e-8
            elif kind is EdgeType.DEGENERATE:
                assert abs(lyapunov_derivative(cell_a, lam)) <= 1e-8
                assert abs(lyapunov_curvature(cell_a, lam)) > 1e-8


def test_one_rule_for_edges_bands_and_gaps(cell_family):
    # every edge find_bands returns is an edge of the same type for bloch and
    # a parabolic or degenerate disk map; 1e-11 off a nondegenerate edge and
    # 1e-5 off a degenerate one, |F| - 1 decides
    edge_regime = {EdgeType.NONDEGENERATE: Regime.NONDEGENERATE_EDGE,
                   EdgeType.DEGENERATE: Regime.DEGENERATE_EDGE}
    kind = {Regime.BAND: FixedPointKind.ELLIPTIC, Regime.GAP: FixedPointKind.HYPERBOLIC}
    for cell in cell_family:
        edges = {}
        for band in find_bands(cell, 40.0):
            edges[band.lo] = band.lo_type
            if band.hi_type is not None:
                edges[band.hi] = band.hi_type
        for lam, edge_type in edges.items():
            assert bloch(cell, lam).regime is edge_regime[edge_type], (cell, lam)
            if edge_type is EdgeType.NONDEGENERATE:
                assert fixed_points(cell, lam).kind is FixedPointKind.PARABOLIC
            else:
                with pytest.raises(EdgeDegeneracyError):
                    fixed_points(cell, lam)
            step = 1e-11 if edge_type is EdgeType.NONDEGENERATE else 1e-5
            for off in (lam - step, lam + step):
                want = Regime.BAND if abs(lyapunov(cell, off)) < 1.0 else Regime.GAP
                assert bloch(cell, off).regime is want, (cell, off)
                assert fixed_points(cell, off).kind is kind[want], (cell, off)


def test_near_tangency_is_a_narrow_gap():
    # F peaks at 1 + 1e-10 near lam = 29.9914 on the first low-contrast cell: a gap
    # about 1.7e-5 wide between two nondegenerate edges, not a touching point; the
    # second cell's gap is 1.7e-6 wide, and |F'| is far below 1e-8 in its middle
    for params, at, width in (
            ((1.6754175651385717, 1.6767342320622913, 0.4376704321762081), 29.99145, 1.7e-5),
            ((1.1898688233539296, 1.189863856868906, 0.46117172989579575), 5.2805799080626909,
             1.7e-6)):
        cell = UnitCell(*params)
        bands = find_bands(cell, at + 0.5)
        left, right = next((a, b) for a, b in zip(bands, bands[1:]) if a.hi < at < b.lo)
        assert right.lo - left.hi == pytest.approx(width, rel=0.05)
        assert left.hi_type is right.lo_type is EdgeType.NONDEGENERATE
        for lam in (at, 0.5 * (left.hi + right.lo)):
            assert bloch(cell, lam).regime is Regime.GAP, (cell, lam)


def test_find_bands_uniform_cell(uniform):
    bands = find_bands(uniform, 10.0)
    assert len(bands) == 1
    assert (bands[0].lo, bands[0].hi) == (0.0, 10.0)
    assert bands[0].hi_type is None


def test_find_bands_periodicity(cell_a):
    T = spectral_period(cell_a)
    base = find_bands(cell_a, 4.0)
    extended = find_bands(cell_a, 4.0 + T)
    shifted = [b for b in extended if b.lo >= T - 1e-9 and b.hi <= 4.0 + T + 1e-9]
    assert len(shifted) == len(base)
    for b, s in zip(base, shifted):
        assert s.lo - T == pytest.approx(b.lo, abs=1e-8)
        if s.hi_type is not None and b.hi_type is not None:
            assert s.hi - T == pytest.approx(b.hi, abs=1e-8)


def test_dispersion_periodicity_commensurate(cell_a):
    T = spectral_period(cell_a)
    xs = np.linspace(0.01, 2.0 * T, 400)
    assert np.max(np.abs(lyapunov(cell_a, xs) - lyapunov(cell_a, xs + T))) <= 1e-10


def test_find_bands_invalid_range(cell_a):
    for lambda_max in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(InvalidRangeError):
            find_bands(cell_a, lambda_max)


def _seeded_cells(seed, n):
    rng = np.random.default_rng(seed)
    return [(*rng.uniform(0.2, 8.0, 2), rng.uniform(0.02, 0.98)) for _ in range(n)]


@pytest.mark.parametrize("params, lambda_max", [
    ((0.3, 6.0, 0.5), 6.0), *((c, 6.0) for c in _seeded_cells(13, 3)), ((1.0, 1.001, 0.5), 6.0),
    ((0.1, 10.0, 0.5), 40.0),
], ids=["strong_contrast", "seeded0", "seeded1", "seeded2", "weak_contrast", "bands_below_grid_step"])
def test_narrow_feature_cell_bands_consistent(params, lambda_max):
    # strong contrast produces narrow bands, weak contrast narrow gaps; every
    # reported band interior must satisfy |F| < 1 and the complement |F| >= 1
    # on a fine grid.  Above lambda ~ 18.5 the bands of (0.1, 10, 0.5) are narrower
    # than 0.01: F runs from above +1 to below -1 within a step of that size
    cell = UnitCell(*params)
    bands = find_bands(cell, lambda_max)
    assert bands
    xs = np.linspace(1e-3, lambda_max, round(20000 * lambda_max / 6.0) + 1)
    inside = np.zeros_like(xs, dtype=bool)
    for b in bands:
        inside |= (xs > b.lo + 1e-6) & (xs < b.hi - 1e-6)
    fvals = np.abs(lyapunov(cell, xs))
    assert np.all(fvals[inside] < 1.0 + 1e-12)
    outside = ~inside
    for b in bands:
        outside &= ~((xs >= b.lo - 1e-6) & (xs <= b.hi + 1e-6))
    assert np.all(fvals[outside] >= 1.0 - 1e-6)


@pytest.mark.parametrize("params, lambda_max, index, edges", [
    # a 0.01 grid puts no point in this 0.0011 gap, where F peaks at 1.0000019
    ((2.69, 4.4, 0.38), 4.0, 2, (1.88073542486205888, 1.88187663884627041)),
    # this 0.008 gap holds the 0.01 grid point 126.60, where F = 1.000016
    ((0.7, 2.4, 0.61), 400.0, 70, (126.598704034697447, 126.606684257513012)),
], ids=["empty_gap", "gap_with_grid_point"])
def test_find_bands_gap_narrower_than_grid_step(params, lambda_max, index, edges):
    # F pokes just past +1 inside a gap narrower than a 0.01 step; the
    # references are 40-digit mpmath roots of F - 1 for the same double parameters
    cell = UnitCell(*params)
    left, right = find_bands(cell, lambda_max)[index - 1:index + 1]
    assert (left.index, right.index) == (index, index + 1)
    assert right.lo - left.hi < 0.01
    for edge, ref in zip((left.hi, right.lo), edges):
        assert abs(abs(lyapunov(cell, edge)) - 1.0) <= 1e-9
        assert edge == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("b2, x2, lambda_max, n_edges", [
    pytest.param(1.001, 0.5, 30.5, 10, id="0.5"),
    pytest.param(1.001, 0.2, 30.5, 10, id="0.2"),
    # rho - 1 = 5e-11, which mismatch - 1 gets only to 1.2e-6 relative: an edge 6e-12 off
    pytest.param(1.00001, 0.3, 10.0, 6, id="1.00001-0.3"),
])
def test_weak_contrast_edges_match_extended_precision(b2, x2, lambda_max, n_edges):
    # UnitCell(1, 1.001, x2) has gaps as narrow as 3e-6, with |F'| down to 1.6e-6 at
    # their edges, so a rounding of F - 1 in the cos form of F moves an edge by 1e-10;
    # every edge must be within 1e-12 of the 40-digit root of F -+ 1 for the
    # same double parameters
    mp = pytest.importorskip("mpmath")
    cell = UnitCell(1.0, b2, x2)
    edges = [e for b in find_bands(cell, lambda_max) for e in (b.lo, b.hi)
             if 0.0 < e < lambda_max]
    assert len(edges) >= n_edges
    with mp.workdps(40):
        b1, b2, x = mp.mpf(cell.b1), mp.mpf(cell.b2), mp.mpf(cell.x2)
        rho = (b1 * b1 + b2 * b2) / (2 * b1 * b2)
        tau, skew = x * b2 + (1 - x) * b1, x * b2 - (1 - x) * b1

        def lyap(lam):
            return ((rho + 1) * mp.cos(lam * tau) - (rho - 1) * mp.cos(lam * skew)) / 2
        for edge in edges:
            target = mp.sign(lyap(mp.mpf(edge)))
            root = mp.findroot(lambda lam: lyap(lam) - target,
                               (mp.mpf(edge) - 1e-8, mp.mpf(edge) + 1e-8), solver="anderson")
            assert abs(edge - root) <= 1e-12


@pytest.mark.parametrize("params, gap, edges", [
    ((1.1898688233539296, 1.189863856868906, 0.46117172989579575), 2,
     (5.2805790606885564, 5.2805807554370919)),
    ((4.714820362608928, 4.714821380187749, 0.3957276312047888), 1,
     (0.6663227735754422, 0.66632286025898389)),
], ids=["gap2", "gap1"])
def test_weak_gap_at_a_bragg_frequency_is_open(params, gap, edges):
    # |d| <= 2.1e-4: gap n, 1e-7 to 2e-6 wide, straddles n pi/tau with |F'| below 1e-8
    # there, and is no tangency; both edges are roots of (-1)^n F - 1 within 1e-12 of the
    # 40-digit roots (the edges above) and are typed non-degenerate
    mp = pytest.importorskip("mpmath")
    cell = UnitCell(*params)
    bands = find_bands(cell, (gap + 1) * math.pi / cell.transit_time)
    left, right = bands[gap - 1], bands[gap]
    with mp.workdps(40):
        b1, b2, x = mp.mpf(cell.b1), mp.mpf(cell.b2), mp.mpf(cell.x2)
        rho = (b1 * b1 + b2 * b2) / (2 * b1 * b2)
        tau, skew = x * b2 + (1 - x) * b1, x * b2 - (1 - x) * b1
        bragg = gap * mp.pi / tau

        def side(lam):  # (-1)^n F - 1
            f = ((rho + 1) * mp.cos(lam * tau) - (rho - 1) * mp.cos(lam * skew)) / 2
            return (-1) ** gap * f - 1
        roots = [mp.findroot(side, bracket, solver="anderson")
                 for bracket in ((bragg - mp.mpf("1e-5"), bragg), (bragg, bragg + mp.mpf("1e-5")))]
    for edge, edge_type, root, ref in zip((left.hi, right.lo), (left.hi_type, right.lo_type),
                                          roots, edges):
        assert root == pytest.approx(ref, abs=1e-15)
        assert abs(edge - root) <= 1e-12
        assert edge_type is EdgeType.NONDEGENERATE


def test_band_edges_independent_of_lambda_max(cell_a, cell_b, cell_c):
    # each of the first 12 bands, found again with lambda_max just past its upper edge,
    # is bitwise the same band: the brackets are the Bragg intervals, whatever lambda_max
    for cell in (cell_a, cell_b, cell_c):
        for band in find_bands(cell, 40.0)[:12]:
            for delta in (1e-4, 5e-4, 1.2e-3, 4e-3, 9e-3):
                again = find_bands(cell, band.hi + delta)[band.index - 1]
                assert again == band, (cell, band.index, delta)


def _bisect_one(fn, a, b, tol):
    """The one-bracket loop that the array bisection replaced (reference)."""
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def test_bisect_matches_one_bracket_loop(cell_b):
    # brackets of different widths finish after different numbers of halvings
    bands = [b for b in find_bands(cell_b, 12.0) if b.hi_type is not None]
    targets = np.random.default_rng(41).uniform(-0.99, 0.99, len(bands))
    lo, hi = np.array([b.lo for b in bands]), np.array([b.hi for b in bands])
    got = _bisect(lambda x: lyapunov(cell_b, x) - targets, lo, hi)
    want = [_bisect_one(lambda x: float(lyapunov(cell_b, x)) - t, a, b, 1e-12)
            for t, a, b in zip(targets, lo, hi)]
    assert got.tolist() == want


def test_bisect_stops_at_one_ulp_beyond_8192():
    # one ulp there exceeds 1e-12, so a bracket of two neighbouring doubles is final
    root = 10000.0 + 1.0 / 3.0
    got = _bisect(lambda x: x - root, [8192.0, 10000.0], [16384.0, 10001.0])
    assert np.all(np.abs(got - root) <= np.spacing(root))


def test_bisect_exact_zeros_and_bad_brackets():
    # zeros at a lower end, an upper end, the first midpoint and the third
    # midpoint come back exactly; the last bracket converges to sqrt(2)
    c = np.array([1.0, 4.0, 0.25, 0.140625, 2.0])
    a, b = np.array([1.0, 0.0, 0.0, 0.0, 1.0]), np.array([3.0, 2.0, 1.0, 1.0, 2.0])
    got = _bisect(lambda x: x * x - c, a, b)
    assert got[:4].tolist() == [1.0, 2.0, 0.5, 0.375]
    assert got[4] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert _bisect(lambda x: x, [], []).size == 0
    with pytest.raises(ValueError, match="sign"):
        _bisect(lambda x: x * x - c[:2], [1.5, 0.0], [3.0, 3.0])


def test_chebyshev_pair_independent_of_batch_length(cell_a):
    # NumPy multiplies a temporary of 16384 or more elements in place; the
    # kernel must not let that swap the operands of a complex product
    rng = np.random.default_rng(47)
    lams = rng.uniform(0.1, 8.0, 20_000) + 1j * rng.uniform(-1.0, 0.5, 20_000)
    sign, g = _offset(cell_a, *_half_angles(cell_a, lams)[1:])
    whole = chebyshev_pair(sign, g, 1000)
    parts = [chebyshev_pair(sign[i:i + 4000], g[i:i + 4000], 1000)
             for i in range(0, lams.size, 4000)]
    for one, five in zip(whole, zip(*parts)):
        assert one.tobytes() == np.concatenate(five).tobytes()


#: single levels, powers of two and their neighbours, the benchmark's 4096, and k up
#: to 1e9 + 7 (30 levels)
_RESCALE_KS = (1, 2, 3, 7, 8, 64, 127, 128, 513, 1000, 4096, 65537, 10**5, 2**20 + 3,
               10**9 + 7)


def _rescale_corpus(seed):
    """(cell, real grid, complex grid) on A, B, C, DEEP, a high-contrast cell, a weak-
    and a strong-contrast cell and three random cells.  The real grids hold every band
    edge below 12 and points 1e-12 above, 1e-9 below and 1e-6 above each; the complex
    grids Im lam in (-3, 2) and points down to |Im lam| tau = 200."""
    rng = np.random.default_rng(seed)
    cells = [UnitCell(1.0, 4.0, 0.2), UnitCell(1.0, 3.8, 0.2), UnitCell(3.8, 1.0, 0.8), DEEP,
             UnitCell(7.353746788861326, 0.2407638817620896, 0.2698829985618346),
             UnitCell(1.0, 1.00001, 0.3), UnitCell(0.02, 50.0, 0.5), *random_cells(seed, 3)]
    for cell in cells:
        edges = np.array([x for band in find_bands(cell, 12.0) for x in (band.lo, band.hi)])
        real = np.concatenate([rng.uniform(0.0, 12.0, 100), edges, edges + 1e-12,
                               edges - 1e-9, edges + 1e-6])
        deep = rng.uniform(0.0, 12.0, 20) - 1j * rng.uniform(0.0, 200.0 / cell.transit_time, 20)
        yield cell, real, np.concatenate([_random_lams(rng, 100, (0.0, 12.0), (-3.0, 2.0)), deep])


def test_chebyshev_pair_matches_per_level_rescale():
    # rescaling every r levels leaves each value off by a power of two until the
    # next rescale, which no product, sum or rounding sees: values and e equal the
    # per-level loop's bit for bit, for arrays and for single frequencies
    for cell, real, cplx in _rescale_corpus(67):
        for lams in (real, cplx):
            sign, g = _offset(cell, *_half_angles(cell, lams)[1:])
            for k in _RESCALE_KS:
                same_bits(chebyshev_pair(sign, g, k), chebyshev_pair_per_level(sign, g, k))
            for lam in lams[::lams.size // 6].tolist():
                sign, g = _offset(cell, *_half_angles(cell, lam)[1:])
                for k in _RESCALE_KS:
                    same_bits(chebyshev_pair(sign, g, k), chebyshev_pair_per_level(sign, g, k))


def test_chebyshev_pair_rescale_at_the_float_range(cell_a):
    # DEEP at Im lam = -20 (|2g| near 1e36) rescales at every level, and so does a
    # batch holding an infinite or NaN frequency: both match the per-level loop
    sign, g = _offset(DEEP, *_half_angles(DEEP, np.linspace(0.1, 8.0, 200) - 20j)[1:])
    for k in (2, 64, 4096, 10**5):
        same_bits(chebyshev_pair(sign, g, k), chebyshev_pair_per_level(sign, g, k))
    lams = np.array([0.3, np.inf, np.nan, 2.0 - 0.5j, complex(np.inf, 0.0), 1.0 - 1j * np.inf])
    with np.errstate(invalid="ignore", over="ignore"):
        for batch in (lams[:3].real, lams):
            sign, g = _offset(cell_a, *_half_angles(cell_a, batch)[1:])
            for k in (2, 64, 4096):
                same_bits(chebyshev_pair(sign, g, k), chebyshev_pair_per_level(sign, g, k))


def _outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (OverflowError, ValueError) as err:
        return type(err)


def test_overflow_outcomes_match_per_level_rescale(cell_a, monkeypatch):
    # which entry parts of M^1000 below the axis come out infinite must not depend
    # on how often the doubling rescales; nor whether a single frequency raises.
    # At |Im lam| tau = 700 (|2g| near 1e304) the per-level loop overflows inside a
    # level and gives NaN; the kernel keeps the promise of infinite parts there
    rng = np.random.default_rng(71)
    lams = rng.uniform(0.1, 8.0, 4000) - 1j * rng.uniform(0.0, 1.0, 4000)
    scalars = [1.3 - 1j * y / cell_a.transit_time for y in (700.0, 1000.0, 1430.0)]
    kernel = sys.modules["stepslab.monodromy"]
    runs = []
    for pair in (chebyshev_pair, chebyshev_pair_per_level):
        monkeypatch.setattr(kernel, "chebyshev_pair", pair)
        runs.append([_outcome(transfer_power, cell_a, lam, 1000) for lam in (lams, *scalars)])
    (many, *one), (many_ref, *one_ref) = runs
    got, want = (np.stack([m.alpha, m.beta, m.gamma, m.delta]) for m in (many, many_ref))
    assert got.tobytes() == want.tobytes()
    assert np.any(np.isinf(want)) and not np.any(np.isnan(want))
    parts = [complex(x) for x in (one[0].alpha, one[0].beta, one[0].gamma, one[0].delta)]
    assert all(math.isinf(x.real) and math.isinf(x.imag) for x in parts)
    assert math.isnan(complex(one_ref[0].alpha).real)
    assert list(map(repr, one[1:])) == list(map(repr, one_ref[1:]))  # repr: NaN parts compare
    assert OverflowError in one_ref
    # |2g| past the float range with finite parts: abs raises in both loops.  Where the
    # per-level loop gives NaN from inside a level at finite 2g, the kernel rescales
    # first and gives a NaN-free pair, or raises where abs does
    for g in (complex(7e307, 7e307), complex(1.5e308, 1.5e308), 1.7e308, 1e300 + 1e300j):
        for k in (1, 2, 3, 5, 1000):
            got, want = (_outcome(pair, 1.0, g, k)
                         for pair in (chebyshev_pair, chebyshev_pair_per_level))
            if isinstance(want, type):
                assert got is want
            elif cmath.isfinite(2.0 * g) and cmath.isnan(want[0]):
                assert got is OverflowError or not cmath.isnan(got[0] + got[1])
            else:
                same_bits(got, want)
    assert _outcome(chebyshev_pair, 1.0, complex(7e307, 7e307), 2) is OverflowError


def test_doubling_past_half_the_float_range_has_no_nan(cell_a):
    # from |2g| = 2**500 the bit step would form 2g u' of size |2g|**2: the kernel
    # rescales before it.  On A at 1.3 - iy/tau, y = 360 to 700 (|2g| from 1e156 to
    # 1e304), M^1000 has no NaN part and warns of nothing, for arrays and single
    # frequencies, and the pair equals the per-level loop wherever that has no NaN
    lams = 1.3 - 1j * np.arange(200.0, 701.0, 10.0) / cell_a.transit_time
    sign, g = _offset(cell_a, *_half_angles(cell_a, lams)[1:])
    assert np.max(np.abs(2.0 * g)) > 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (2, 3, 5, 1000, 1025):
            got = chebyshev_pair(sign, g, k)
            with np.errstate(invalid="ignore", over="ignore"):
                want = chebyshev_pair_per_level(sign, g, k)
            clean = ~(np.isnan(want[0]) | np.isnan(want[1]))
            assert not np.any(np.isnan(got[0]) | np.isnan(got[1]))
            same_bits([x[clean] for x in got], [x[clean] for x in want])
        many = transfer_power(cell_a, lams, 1000)
        ones = [transfer_power(cell_a, lam, 1000) for lam in lams.tolist()]
    for entries in (np.stack([many.alpha, many.beta, many.gamma, many.delta]),
                    np.array([[m.alpha, m.beta, m.gamma, m.delta] for m in ones]).T):
        assert not np.any(np.isnan(entries)) and np.all(np.isinf(entries[:, -1]))


def test_transfer_power_overflows_to_inf_not_nan(cell_a):
    rng = np.random.default_rng(59)
    lams = rng.uniform(0.1, 8.0, 4000) - 1j * rng.uniform(0.0, 1.0, 4000)
    with np.errstate(over="ignore"):
        mk = transfer_power(cell_a, lams, 1000)
    entries = np.stack([mk.alpha, mk.beta, mk.gamma, mk.delta])
    assert not np.any(np.isnan(entries))
    assert np.any(np.isinf(entries))  # the points do leave the floating-point range


def test_transfer_power_overflow_is_silent(cell_a):
    # an infinite part is the documented result, not a numpy overflow warning
    rng = np.random.default_rng(61)
    lams = rng.uniform(0.1, 8.0, 4000) - 1j * rng.uniform(0.0, 1.0, 4000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mk = transfer_power(cell_a, lams, 1000)
    assert np.any(np.isinf(mk.alpha))


def test_complex_half_angles_match_extended_precision(cell_b):
    # sin and cos of a = lam tau/2 and b = lam skew/2 from the real sin, cos, sinh and cosh
    # of their parts, against 40-digit mpmath at the same float angles, for |Im a| up to
    # 30 and Re a on and next to multiples of pi/2: each part within 4 eps cosh(Im), and
    # one frequency within that of the array
    mp = pytest.importorskip("mpmath")
    tau, skew = cell_b.transit_time, cell_b.transit_skew
    re = [m * math.pi / 2.0 + d for m in range(7) for d in (0.0, 1e-15, -1e-9, 1e-3, 0.4)]
    im = [0.0, 1e-12, -1e-3, 0.5, -2.0, 7.5, -18.0, 30.0, -30.0]
    lams = [complex(2.0 * x / tau, 2.0 * y / tau) for x in re for y in im]
    many = _half_angles(cell_b, np.array(lams))[2]
    eps = np.finfo(float).eps
    with mp.workdps(40):
        for i, lam in enumerate(lams):
            one = _half_angles(cell_b, lam)[2]
            angles = (0.5 * lam * tau, 0.5 * lam * skew)
            for j, (angle, fn) in enumerate(zip(np.repeat(angles, 2), (mp.sin, mp.cos) * 2)):
                want = complex(fn(mp.mpc(angle)))
                bound = 4.0 * eps * math.cosh(angle.imag)
                for got in (one[j], many[j][i]):
                    assert abs(got.real - want.real) <= bound, (lam, j)
                    assert abs(got.imag - want.imag) <= bound, (lam, j)
                assert abs(one[j] - many[j][i]) <= bound, (lam, j)


def test_complex_half_angles_leave_the_float_range(cell_a):
    # the _arith contract: past |Im a| of about 710 one frequency raises OverflowError and
    # an array gives parts that are not finite; just inside it both are finite
    tau = cell_a.transit_time
    for y, finite in ((700.0, True), (711.0, False), (900.0, False)):
        lam = 1.3 - 2j * y / tau
        if finite:
            assert all(cmath.isfinite(x) for x in _half_angles(cell_a, lam)[2])
        else:
            with pytest.raises(OverflowError):
                _half_angles(cell_a, lam)
        with np.errstate(over="ignore", invalid="ignore"):
            sa, ca, _, _ = _half_angles(cell_a, np.array([lam, 0.5 - 0.1j]))[2]
        assert np.all(np.isfinite([sa[1], ca[1]]))
        assert np.isfinite(sa[0]) == finite and np.isfinite(ca[0]) == finite
