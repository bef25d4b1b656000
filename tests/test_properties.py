"""Property tests over random cells (hypothesis, derandomized in conftest)."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

import numpy as np

from stepslab import (DeterminantOverflowError, FixedPointKind, Regime, UnitCell,
                      audit_count, bloch, default_im_floor, find_bands, fixed_points,
                      lyapunov, mobius_map, reflection_half_infinite, reflection_k)
from stepslab.scattering import _slab_terms

from conftest import den_winding, slab_terms_tangent


def budget(n: int) -> int:
    """n examples under the tier-1 profile, scaled by the loaded profile's max_examples
    over hypothesis' default of 100 (8 n under ``stepslab-heavy``)."""
    return n * settings.default.max_examples // 100


@settings(max_examples=budget(25))
@given(b1=st.floats(0.5, 5.0), b2=st.floats(0.5, 5.0), x2=st.floats(0.1, 0.9),
       k=st.integers(1, 16))
def test_audit_matches_denominator_winding(b1, b2, x2, k):
    cell = UnitCell(b1, b2, x2)
    # the reference's u S - 2v cancels to about 4 d^2 of its terms deep in
    # the lower half plane, so it cannot resolve a (near-)homogeneous cell
    assume(abs(cell.contrast) >= 0.05)
    # band 1 ends below pi / transit time, where F <= -1
    band = find_bands(cell, 1.5 * math.pi / cell.transit_time)[0]
    rect = (band.lo - 0.05, band.hi + 0.05, default_im_floor(cell), band.width / k)
    try:
        count = audit_count(cell, k, band)
    except DeterminantOverflowError:
        # deep rectangles overflow the chain determinant, a known limit;
        # a typed error is an allowed outcome, a wrong count is not
        return
    assert count == den_winding(cell, k, *rect, n=1 << 13)


@settings(max_examples=budget(60))
@given(b1=st.floats(0.05, 20.0), b2=st.floats(0.05, 20.0), x2=st.floats(0.005, 0.995),
       lambda_max=st.floats(0.5, 60.0))
def test_each_band_lies_in_its_bragg_interval(b1, b2, x2, lambda_max):
    cell = UnitCell(b1, b2, x2)
    assume(not cell.homogeneous)
    period = math.pi / cell.transit_time
    bands = find_bands(cell, lambda_max)
    # band m starts below lambda_max for every m < lambda_max/period, band m = ceil of it may
    assert [b.index for b in bands] == list(range(1, len(bands) + 1))
    assert math.ceil(lambda_max / period) - len(bands) in (0, 1)
    for b in bands:
        assert (b.index - 1) * period <= b.lo < b.hi <= min(b.index * period, lambda_max)
        for edge, edge_type in ((b.lo, b.lo_type), (b.hi, b.hi_type)):
            if edge_type is not None:
                assert abs(abs(lyapunov(cell, edge)) - 1.0) <= 1e-9


@settings(max_examples=budget(40))
@given(b1=st.floats(-2.0, 2.0), b2=st.floats(-2.0, 2.0), x2=st.floats(0.05, 0.95),
       log2_k=st.floats(0.0, 12.0), re=st.floats(0.0, 1.0), log10_depth=st.floats(-6.0, 0.0))
@example(b1=-2.0, b2=-1.0, x2=0.05, log2_k=12.0, re=0.0, log10_depth=-6.0)
def test_newton_step_matches_the_tangent_derivative(b1, b2, x2, log2_k, re, log10_depth):
    # Newton's step den/den' with den' from the Chebyshev derivative identity against
    # den' from the tangents carried through the doubling, within 1e-10 (relative
    # past a step of 1): b log-uniform in [e^-2, e^2], k log-uniform in [1, 4096], lam
    # over the first two Bragg intervals at depths 1e-6 to 1, for one frequency and
    # for an array.  The example, next to lam = 0 at k = 4096, is one where den' =
    # u'S - 2v' + uS' with both derivatives from the identity misses by 7e-9
    cell = UnitCell(math.exp(b1), math.exp(b2), x2)
    assume(abs(cell.contrast) >= 0.05)
    k = round(2.0 ** log2_k)
    lam = complex(2.0 * math.pi / cell.transit_time * re, -(10.0 ** log10_depth))
    _, den, slope, _ = slab_terms_tangent(cell, lam, k)
    want = den / slope
    for at in (lam, np.array([lam])):
        _, den, slope, _ = _slab_terms(cell, at, k, slope=True)
        assert abs(complex(np.squeeze(den / slope)) - want) <= 1e-10 * max(1.0, abs(want))


# the disk map over the whole accepted cell space: b log-uniform in [e^-4, e^4]
cells = st.builds(lambda b1, b2, x2: UnitCell(math.exp(b1), math.exp(b2), x2),
                  st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(0.005, 0.995))


@settings(max_examples=budget(40))
@given(cell=cells, lam=st.floats(0.05, 20.0), k=st.integers(0, 64))
def test_disk_map_appends_one_cell(cell, lam, k):
    # W(r_k) = r_{k+1}, r_0 = 0, for every two-step cell
    r_k = reflection_k(cell, lam, k) if k else 0.0
    assert abs(mobius_map(cell, lam).apply(r_k) - reflection_k(cell, lam, k + 1)) <= 1e-10


@settings(max_examples=budget(40))
@given(cell=cells, lam=st.floats(0.05, 20.0), radius=st.floats(0.0, 0.999),
       angle=st.floats(0.0, 2.0 * math.pi))
def test_disk_map_keeps_the_disk(cell, lam, radius, angle):
    z = radius * complex(math.cos(angle), math.sin(angle))
    assert abs(mobius_map(cell, lam).apply(z)) < 1.0


@settings(max_examples=budget(40))
@given(cell=cells, n=st.integers(1, 8))
def test_attracting_fixed_point_is_the_half_infinite_limit(cell, n):
    # at a Bragg frequency inside an open gap, the fixed point where |W'| = 1/|c z + e|^2
    # is below 1 is reflection_half_infinite, bit for bit: the same expression
    lam = n * math.pi / cell.transit_time
    assume(not cell.homogeneous and bloch(cell, lam).regime is Regime.GAP)
    fp = fixed_points(cell, lam)
    assert fp.kind is FixedPointKind.HYPERBOLIC
    _, _, c, e = mobius_map(cell, lam).w
    attracting = max((fp.z1, fp.z2), key=lambda z: abs(c * z + e))
    assert abs(c * attracting + e) > 1.0
    assert attracting == reflection_half_infinite(cell, lam)
