"""Property tests over random cells (hypothesis, derandomized in conftest)."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from stepslab import (DeterminantOverflowError, UnitCell, audit_count,
                      default_im_floor, find_bands, lyapunov)

from conftest import den_winding


@settings(max_examples=25)
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


@settings(max_examples=60)
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
