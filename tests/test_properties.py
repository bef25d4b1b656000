"""Property tests over random cells (hypothesis, derandomized in conftest)."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from stepslab import (DeterminantOverflowError, UnitCell, audit_count,
                      default_im_floor, find_bands)

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
