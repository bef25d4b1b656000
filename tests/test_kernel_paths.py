"""One frequency runs the kernel in Python arithmetic (``math``, ``cmath``), an
array runs it in numpy.  Both take the same formula for each kind of input, so a
scalar call and the same frequency inside an array call agree."""

import numpy as np
import pytest

from stepslab import (UnitCell, find_bands, q_recursion, reflection_k, transfer_power,
                      transmission_sq, transparency_frequencies)
from stepslab.scattering import _slab_terms

from conftest import DEEP, mp_slab

CELLS = {"A": UnitCell(1.0, 4.0, 0.2), "B": UnitCell(1.0, 3.8, 0.2),
         "C": UnitCell(3.8, 1.0, 0.8), "DEEP": DEEP}


def _assert_close(one, many, tol):
    """|one - many| <= tol |many|, entry by entry; equal where many is not finite."""
    one, many = np.asarray(one, dtype=complex), np.asarray(many, dtype=complex)
    live = np.isfinite(many)
    assert np.array_equal(one[~live], many[~live])
    assert np.all(np.abs(one[live] - many[live]) <= tol * np.abs(many[live]))


def _entries(m):
    return np.stack([m.alpha, m.beta, m.gamma, m.delta], axis=-1)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_one_frequency_matches_array_call(name):
    # the bar is 1e-12 relative: the final quotient of r and Q divides in Python
    # for one frequency and in numpy for an array.  Complex points at k = 4096
    # get 1e-11: numpy's vector loops fuse complex products and Python does not,
    # and U_{k-1} magnifies that last-bit difference about k-fold (2.2e-12 on A
    # at 30.44 - 0.061i, the same before the kernel ran in Python arithmetic).
    # lam = 0 and DEEP at 0.3 - 20i are where math/cmath could raise first.  By the
    # transparency frequencies N = c (E - E') cancels, so there two formulas for
    # E, E' (exp against half angles) would differ by up to 4e-11
    cell = CELLS[name]
    rng = np.random.default_rng(71)
    marks = [c + o for c in transparency_frequencies(cell, 130.0)[:2] for o in (-1e-6, 0.0, 1e-6)]
    real = np.concatenate([rng.uniform(0.0, 40.0, 300), [0.0], marks])
    cplx = rng.uniform(0.0, 40.0, 300) + 1j * rng.uniform(-1.0, 1.0, 300)
    if cell is DEEP:
        cplx = np.append(cplx, 0.3 - 20j)
    for lams in (real, cplx):
        for k in (1, 2, 64, 4096):
            tol = 1e-11 if k == 4096 and lams is cplx else 1e-12
            points = lams.tolist()
            _assert_close([reflection_k(cell, x, k) for x in points], reflection_k(cell, lams, k), tol)
            _assert_close([q_recursion(cell, x, k) for x in points], q_recursion(cell, lams, k), tol)
            _assert_close([_entries(transfer_power(cell, x, k)) for x in points],
                          _entries(transfer_power(cell, lams, k)), tol)
            if lams is real:
                _assert_close([transmission_sq(cell, x, k) for x in points],
                              transmission_sq(cell, lams, k), tol)
            for slope in (False, True):
                *many, e = _slab_terms(cell, lams, k, slope)
                e = np.broadcast_to(e, lams.shape)
                for i, x in enumerate(points):
                    *one, e1 = _slab_terms(cell, x, k, slope)
                    scale = 2.0 ** (e1 - int(e[i]))  # the same 2**e split either way
                    _assert_close([v * scale for v in one], [v[i] for v in many], tol)


def test_real_axis_accuracy_near_transparency_and_edges():
    # reference: 40-digit mpmath at the same double lam, within 1e-6 of the
    # first two transparency frequencies m pi/(b2 x2) and of the first band
    # edges.  Both sides round lam tau once, so r carries an absolute error of
    # about eps lam tau times the slab's growth; the largest seen, 1.1e-12 for r
    # (DEEP, k = 8, by 125.66) and 1.4e-10 relative for t (DEEP, k = 512, by an
    # edge, t = 3.8e-5), are the same with exp phases as with half angles
    mp = pytest.importorskip("mpmath")
    for cell in CELLS.values():
        centres = transparency_frequencies(cell, 130.0)[:2]
        centres += [e for b in find_bands(cell, 8.0) if b.hi_type is not None
                    for e in (b.lo, b.hi) if e > 0.0][:4]
        lams = np.array([c + o for c in centres for o in (-1e-6, -1e-7, -1e-8, 1e-8, 1e-7, 1e-6)])
        for k in (1, 8, 512):
            t, r = transmission_sq(cell, lams, k), reflection_k(cell, lams, k)
            with mp.workdps(40):
                refs = [mp_slab(mp, cell, x, k) for x in lams.tolist()]
            r_ref = np.array([complex(v) for v, _ in refs])
            t_ref = np.array([float(v) for _, v in refs])
            assert np.max(np.abs(r - r_ref)) <= 2e-12
            assert np.max(np.abs(t - t_ref) / t_ref) <= 3e-10
