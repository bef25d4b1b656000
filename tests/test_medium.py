import math

import numpy as np
import pytest

from stepslab import (UnitCell, is_commensurate, spectral_period,
                      transparency_frequencies)


def test_derived_constants_reference_cell(cell_a):
    assert cell_a.contrast == pytest.approx(0.6, abs=1e-15)
    assert cell_a.mismatch == pytest.approx(2.125, abs=1e-15)
    assert cell_a.transit_time == pytest.approx(1.6, abs=1e-15)
    assert cell_a.transit_skew == pytest.approx(0.0, abs=1e-15)


def test_derived_constants_uniform(uniform):
    assert (uniform.contrast, uniform.mismatch, uniform.transit_time,
            uniform.transit_skew) == (0.0, 1.0, 1.0, 0.0)


def test_derived_constants_reversed_cell(cell_c):
    assert cell_c.contrast == pytest.approx((1.0 - 3.8) / 4.8, abs=1e-15)
    assert cell_c.mismatch == pytest.approx((3.8 ** 2 + 1.0) / (2.0 * 3.8), abs=1e-15)


@pytest.mark.parametrize("b1,b2,x2,expected", [
    (1.0, 4.0, 0.2, True),
    (1.0, 3.8, 0.2, False),
    (1.0, 1.0, 0.5, True),
    (3.8, 1.0, 0.8, False),
])
def test_is_commensurate(b1, b2, x2, expected):
    assert is_commensurate(UnitCell(b1, b2, x2)) is expected


def test_commensurate_scale_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        b1, b2 = rng.uniform(0.2, 5.0, 2)
        x2 = rng.uniform(0.05, 0.95)
        cell = UnitCell(b1, b2, x2)
        for c in (1e-3, 0.7, 13.0):
            scaled = UnitCell(c * b1, c * b2, x2)
            assert is_commensurate(scaled) is is_commensurate(cell)


def test_cell_invariants_random_family():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cell = UnitCell(rng.uniform(0.1, 9.0), rng.uniform(0.1, 9.0),
                        rng.uniform(0.01, 0.99))
        assert abs(cell.contrast) < 1.0
        assert cell.mismatch >= 1.0
        assert cell.transit_time > abs(cell.transit_skew)


def test_derived_constants_kept_per_cell():
    # computed once per cell, bitwise the formulas; eq, hash and repr see the fields only
    b1, b2, x2 = 1.5134323549576634, 1.8507482821005143, 0.7988427563170095
    cell, fresh = UnitCell(b1, b2, x2), UnitCell(b1, b2, x2)
    want = ((b2 - b1) / (b2 + b1), (b1 * b1 + b2 * b2) / (2.0 * b1 * b2),
            x2 * b2 + (1.0 - x2) * b1, x2 * b2 - (1.0 - x2) * b1)
    for _ in range(2):
        got = (cell.contrast, cell.mismatch, cell.transit_time, cell.transit_skew)
        assert [x.hex() for x in got] == [x.hex() for x in want]
    assert cell.transit_time is cell.transit_time
    assert cell == fresh and hash(cell) == hash(fresh) and repr(cell) == repr(fresh)
    assert repr(cell) == f"UnitCell(b1={b1!r}, b2={b2!r}, x2={x2!r})"


def test_mismatch_is_one_only_for_uniform():
    assert UnitCell(2.0, 2.0, 0.3).mismatch == 1.0
    assert UnitCell(2.0, 2.0001, 0.3).mismatch > 1.0


@pytest.mark.parametrize("b1,b2,x2", [
    (0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (1.0, 0.0, 0.5),
    (1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, -0.2),
    (math.inf, 1.0, 0.5), (1.0, math.inf, 0.5),
])
def test_unit_cell_validation(b1, b2, x2):
    with pytest.raises(ValueError):
        UnitCell(b1, b2, x2)


def test_spectral_period(cell_a):
    assert spectral_period(cell_a) == pytest.approx(math.pi / 0.8, rel=1e-15)


def test_transparency_frequencies(cell_a):
    step = math.pi / 0.8
    assert transparency_frequencies(cell_a, 4.0) == pytest.approx([step])
    assert transparency_frequencies(cell_a, 8.0) == pytest.approx([step, 2 * step])
    assert transparency_frequencies(cell_a, 0.5) == []

