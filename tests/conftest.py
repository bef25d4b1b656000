import math
from typing import NamedTuple

import numpy as np
import pytest

from stepslab import UnitCell, lyapunov, resonances_k1
from stepslab.monodromy import _arith, _half_angles, _offset
from stepslab.resolvent import _wave_ratio
from stepslab.scattering import _closed_s_n

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # fixed examples and no example database, so every run tests the same cells.  The
    # heavy profile runs 8 times the examples (``--hypothesis-profile stepslab-heavy``);
    # the properties scale their budgets by max_examples / 100
    settings.register_profile("stepslab", derandomize=True, database=None, deadline=None)
    settings.register_profile("stepslab-heavy", settings.get_profile("stepslab"),
                              max_examples=800)
    settings.load_profile("stepslab")


@pytest.fixture
def cell_a() -> UnitCell:
    """Equal layer transit times, contrast 0.6."""
    return UnitCell(1.0, 4.0, 0.2)


@pytest.fixture
def cell_b() -> UnitCell:
    """Skewed transit times."""
    return UnitCell(1.0, 3.8, 0.2)


@pytest.fixture
def cell_c() -> UnitCell:
    """Skewed, negative contrast."""
    return UnitCell(3.8, 1.0, 0.8)


@pytest.fixture
def uniform() -> UnitCell:
    return UnitCell(1.0, 1.0, 0.5)


@pytest.fixture
def cell_family() -> list[UnitCell]:
    return [
        UnitCell(1.0, 4.0, 0.2),
        UnitCell(1.0, 3.8, 0.2),
        UnitCell(3.8, 1.0, 0.8),
        UnitCell(2.0, 1.0, 0.35),
        UnitCell(0.7, 2.4, 0.61),
    ]


# Analytic band-edge locations of cell_a.  With equal transit times the
# dispersion function reduces to F = (rho + 1) cos^2(0.8 lam) - rho, so
# F = -1 at cos(1.6 lam) = (rho - 3)/(rho + 1) = -0.28 and F = +1 with
# F' = 0 at lam = pi/0.8.
EDGE_A1 = math.acos(-0.28) / 1.6
EDGE_A2 = (2.0 * math.pi - math.acos(-0.28)) / 1.6
EDGE_A3 = math.pi / 0.8

#: Constant depth of the one-cell resonance line for cell_a: ln|d|/(b2 x2).
DEPTH_A1 = math.log(0.6) / 0.8

#: A cell whose default search floor -1/(b2 x2) is Im = -20: deep in the lower
#: half plane, where the one-cell monodromy entries cancel.
DEEP = UnitCell(4.557477135240766, 0.5, 0.1)


def random_cells(seed: int, n: int) -> list[UnitCell]:
    """n cells drawn from one seed, b1 and b2 uniform in [0.5, 5] and x2 in [0.1, 0.9];
    b1 close to b2 gives weak contrast and one-cell roots far below the default floor."""
    rng = np.random.default_rng(seed)
    return [UnitCell(*rng.uniform(0.5, 5.0, 2), rng.uniform(0.1, 0.9)) for _ in range(n)]


def ladder_seeds(cell: UnitCell, k: int, re, im_min: float):
    """The depth ladder that ``resolvent._seeds`` replaced, with its signature: every real
    part at the rungs {0.02, 0.1, 0.3, 0.7}/(2 b2 x2) and the k-scaled rungs
    {max(2, -2 ln|d|), 0.6, 0.2}/(2 b2 x2 k^2), less the seeds where den is one Bloch wave
    by more than e^64 (ln r < -64 in ``_wave_ratio``; a NaN ln r keeps its seed).  The
    reference that the balance seeds must lose no root against; it ignores the floor."""
    one_cell = max(2.0, -2.0 * math.log(abs(cell.contrast)))
    rungs = {0.02, 0.1, 0.3, 0.7, *(c / (k * k) for c in (one_cell, 0.6, 0.2))}
    depths = -np.array(sorted(rungs)) * (1.0 / (2.0 * cell.b2 * cell.x2))
    seeds = (re[:, None] + 1j * depths[None, :]).ravel()
    return seeds[~(_wave_ratio(cell, seeds, k) < -64.0)]


def closed_form_k1_row(cell: UnitCell, band, im_floor: float) -> tuple[str, str, str, str]:
    """The k = 1 row of a convergence study as the CLI prints it (k, count, max_im,
    min_im; %.12g, an empty field for no root), from ``resonances_k1`` over the study's
    window: the band padded by 1e-6 + 1e-3 width, down to im_floor."""
    pad = 1e-6 + 1e-3 * band.width
    ims = [r.lam.imag for r in resonances_k1(cell, band.hi + pad, max(band.lo - pad, 0.0))
           if r.lam.imag >= im_floor]
    extremes = ("%.12g" % f(ims) if ims else "" for f in (max, min))
    return ("1", str(len(ims)), *extremes)


def lyapunov_derivative(cell: UnitCell, lam):
    """dF/dlam, analytically differentiated: the reference for the slope at band edges
    and touching points."""
    tt, ts = cell.transit_time, cell.transit_skew
    return 0.5 * (-cell.mismatch_plus_one * tt * np.sin(lam * tt)
                  + cell.mismatch_minus_one * ts * np.sin(lam * ts))


def lyapunov_curvature(cell: UnitCell, lam):
    """d2F/dlam2, analytically differentiated: the reference for the curvature at
    degenerate band edges."""
    tt, ts = cell.transit_time, cell.transit_skew
    return 0.5 * (-cell.mismatch_plus_one * tt * tt * np.cos(lam * tt)
                  + cell.mismatch_minus_one * ts * ts * np.cos(lam * ts))


def mp_slab(mp, cell: UnitCell, lam, k: int):
    """(r_k, |t_k|^2) in mpmath at its working precision: the one-cell entries and
    the O(k) Chebyshev recurrence U_j = 2F U_{j-1} - U_{j-2}, sharing no code
    with the kernel.  |t_k|^2 = 4 / (|U_{k-1} N|^2 + 4) holds on the real axis only."""
    b1, b2, x2 = (mp.mpf(v) for v in (cell.b1, cell.b2, cell.x2))
    z = mp.mpc(lam)
    arg_sum = z * (x2 * b2 + (1 - x2) * b1)
    arg_diff = z * (b1 * (1 - x2) - b2 * x2)
    p, m = b2 + b1, b2 - b1
    a = (p * mp.cos(arg_sum) + m * mp.cos(arg_diff)) / (2 * b2)
    b = (p * mp.sin(arg_sum) - m * mp.sin(arg_diff)) / 2
    g = -(p * mp.sin(arg_sum) + m * mp.sin(arg_diff)) / (2 * b1 * b2)
    d = (p * mp.cos(arg_sum) - m * mp.cos(arg_diff)) / (2 * b1)
    f = (a + d) / 2
    u, v = mp.mpf(1), mp.mpf(0)
    for _ in range(k - 1):
        u, v = 2 * f * u - v, u
    ak, bk, gk, dk = u * a - v, u * b, u * g, u * d - v
    num = dk - ak - 1j * (b1 * gk + bk / b1)
    r = num / (dk + ak + 1j * (b1 * gk - bk / b1))
    return r, 4 / (abs(num) ** 2 + 4)


def _mp_f_s(mp, cell: UnitCell, z):
    """(F, S) at z in mpmath, S = a + d + i(b1 g - b/b1) from the one-cell entries."""
    b1, b2, x2 = (mp.mpf(v) for v in (cell.b1, cell.b2, cell.x2))
    p, m = b2 + b1, b2 - b1
    arg_sum = z * (x2 * b2 + (1 - x2) * b1)
    arg_diff = z * (b1 * (1 - x2) - b2 * x2)
    a = (p * mp.cos(arg_sum) + m * mp.cos(arg_diff)) / (2 * b2)
    b = (p * mp.sin(arg_sum) - m * mp.sin(arg_diff)) / 2
    g = -(p * mp.sin(arg_sum) + m * mp.sin(arg_diff)) / (2 * b1 * b2)
    d = (p * mp.cos(arg_sum) - m * mp.cos(arg_diff)) / (2 * b1)
    return (a + d) / 2, a + d + 1j * (b1 * g - b / b1)


def mp_root(mp, cell: UnitCell, lam, k: int) -> complex:
    """The zero of the slab denominator den = U_{k-1}(F) S - 2 U_{k-2}(F) next to lam,
    polished by ``mp.findroot`` at mpmath's working precision: F and S from the one-cell
    entries (``_mp_f_s``) and U_j by the O(k) recurrence U_j = 2F U_{j-1} - U_{j-2}."""
    def den(z):
        f, s = _mp_f_s(mp, cell, z)
        u, v = mp.mpf(1), mp.mpf(0)
        for _ in range(k - 1):
            u, v = 2 * f * u - v, u
        return u * s - 2 * v
    z = mp.mpc(lam)  # secant from two points 1e-12 apart: roots crowd to 1e-6 at the edges
    return complex(mp.findroot(den, (z, z + mp.mpf(10) ** -12),
                               tol=mp.mpf(10) ** (-2 * mp.mp.dps), verify=False))


def mp_den_slope(mp, cell: UnitCell, lam, k: int):
    """d/dlam of the slab denominator den = U_{k-1}(F) S - 2 U_{k-2}(F) in mpmath at
    its working precision: F and S = a + d + i(b1 g - b/b1) from the one-cell entries,
    their derivatives by ``mp.diff``, and (U_j, U_j') by the O(k) recurrences
    U_j = 2F U_{j-1} - U_{j-2}, U_j' = 2F' U_{j-1} + 2F U_{j-1}' - U_{j-2}'."""
    z = mp.mpc(lam)
    f, s = _mp_f_s(mp, cell, z)
    df, ds = (mp.diff(lambda t, i=i: _mp_f_s(mp, cell, t)[i], z) for i in (0, 1))
    u, v, du, dv = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(0)
    for _ in range(k - 1):
        u, v, du, dv = 2 * f * u - v, u, 2 * df * u + 2 * f * du - dv, du
    return du * s + u * ds - 2 * dv


def half_angles_complex_trig(cell: UnitCell, lam):
    """``monodromy._half_angles`` with complex sin and cos of a complex half angle
    (``cmath`` for one frequency, numpy for an array): the reference for the kernel's
    half angles from the real sin, cos, sinh and cosh of each angle's parts."""
    lam, lib = _arith(lam)
    a, b = 0.5 * lam * cell.transit_time, 0.5 * lam * cell.transit_skew
    return lam, lib, (lib.sin(a), lib.cos(a), lib.sin(b), lib.cos(b))


def same_bits(got, want):
    """Kernel outputs equal bit for bit: arrays by dtype and bytes, Python numbers by
    type and repr (which tells -0.0 from 0.0 and prints NaN parts)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        else:
            assert type(a) is type(b) and repr(a) == repr(b)


def chebyshev_pair_per_level(sign, g, k: int, dg=None):
    """``monodromy.chebyshev_pair`` with a rescale after every doubling level: the
    reference that the kernel's sparser rescaling must reproduce bit for bit.
    (U_{k-1}(f), U_{k-2}(f)) = 2**e (u, v) at f = sign (1 + g), and with dg the
    tangents, (u, v, du, dv, e)."""
    h = 2.0 * g
    u = d = 1.0 + 0.0 * h
    v = 0.0 * h
    if dg is not None:
        dh = 2.0 * dg
        du = dd = dv = 0.0 * dh
    frexp, e = (np.frexp, np.int64(0)) if isinstance(h, np.ndarray) else (math.frexp, 0)
    for bit in bin(k)[3:]:
        hu = h * u
        w, p = hu + 2.0 * d, u + v
        if dg is not None:
            dhu = dh * u + h * du
            dw, dp = dhu + 2.0 * dd, du + dv
            du, dd, dv = du * w + u * dw, dhu * u + hu * du + 2.0 * d * dd, dd * p + d * dp
        u, d, v = u * w, hu * u + d * d, d * p
        if bit == "1":
            if dg is not None:
                dd = dd + dh * u + h * du
                du, dv = du + dd, du
            d = d + h * u
            u, v = u + d, u
        t = abs(u) + abs(d)
        s, ex = frexp(t)
        s /= t
        u, d, v, e = u * s, d * s, v * s, 2 * e + ex
        if dg is not None:
            du, dd, dv = du * s, dd * s, dv * s
    if dg is None:
        return (u, v * sign, e) if k % 2 else (u * sign, v, e)
    if k % 2:
        return u, v * sign, du, dv * sign, e
    return u * sign, v, du * sign, dv, e


def slab_terms_tangent(cell: UnitCell, lam, k: int):
    """``scattering._slab_terms(cell, lam, k, slope=True)`` with den' from the tangents
    that ``chebyshev_pair_per_level`` carries through the doubling (forward mode): the
    reference for den' by the Chebyshev derivative identity.  (num, den, den', e)."""
    lam, lib, half = _half_angles(cell, lam)
    s, n, ds = _closed_s_n(cell, lam, lib, half, slope=True)
    sign, g, dg = _offset(cell, lib, half, slope=True)
    u, v, du, dv, e = chebyshev_pair_per_level(sign, g, k, dg)
    return u * n, u * s - 2.0 * v, du * s + u * ds - 2.0 * dv, e


class ChainRecurrence(NamedTuple):
    value: complex
    companion: complex
    peak: float


def chain_recurrence(cell: UnitCell, lam, k: int) -> ChainRecurrence:
    """Determinant and companion of the (2k+1)-step interface chain by the plain
    two-term recurrence over its 2k interfaces, sharing no code with the kernel.

    The chain alternates b1, b2, b1, ..., b1 with interfaces at 0, x2, 1, 1+x2,
    ..., k-1, k-1+x2.  ``peak`` is the largest magnitude of any intermediate.
    The magnitudes grow like (b1+b2)^(2k): raises OverflowError past 1e300.
    """
    lam = np.asarray(lam, dtype=complex)
    b1, b2, x2 = cell.b1, cell.b2, cell.x2
    det = (b1 + b2) * np.ones_like(lam)
    comp = (b2 - b1) * np.ones_like(lam)
    peak = float(np.max(np.abs(det)))
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(3, 2 * k + 2):
            b_new, b_prev = (b1, b2) if n % 2 == 1 else (b2, b1)
            m = n - 1  # the interface between the layers n - 1 and n
            x_prev = m // 2 - 1 + x2 if m % 2 == 0 else (m - 1) // 2
            e_new = np.exp(1j * lam * b_new * x_prev)
            e_prev = np.exp(1j * lam * b_prev * x_prev)
            diff, total = b_prev - b_new, b_prev + b_new
            det, comp = (e_new * (diff * e_prev * comp - total * det / e_prev),
                         (diff * det / e_prev - total * e_prev * comp) / e_new)
            top = max(float(np.max(np.abs(det))), float(np.max(np.abs(comp))))
            if not math.isfinite(top) or top > 1e300:
                raise OverflowError(f"interface chain overflowed at step n={n}")
            peak = max(peak, top)
    if lam.ndim == 0:
        return ChainRecurrence(complex(det), complex(comp), peak)
    return ChainRecurrence(det, comp, peak)


def chain_reflection(cell: UnitCell, lam, k: int):
    """Slab reflection from the interface-chain recurrence, a route that
    shares no code with ``reflection_k``'s kernel:
    r = -exp(2i lam b1 (k - (1 - x2))) * companion / value.  Overflows from
    k of about 68, like the recurrence itself.
    """
    dets = chain_recurrence(cell, lam, k)
    phase = np.exp(2j * np.asarray(lam) * cell.b1 * (k - (1.0 - cell.x2)))
    return -phase * dets.companion / dets.value


def den_winding(cell: UnitCell, k: int, re_lo: float, re_hi: float, im_lo: float,
                im_hi: float, n: int = 1 << 14) -> int:
    """Zeros of the slab denominator U_{k-1}(F) S - 2 U_{k-2}(F) inside the
    rectangle, from its phase winding on a contour of n points per side, with
    the steps whose phase increment reaches pi/2 halved until none does (the
    shallow roots at large k sit within 1e-5 of the top side).

    Independent of the package's counting and kernel code: U_j comes from
    the plain three-term recurrence, rescaled by a positive factor per step,
    and S from its closed form
    S = ((b1 + b2)^2 e^{-i lam tau} - (b2 - b1)^2 e^{i lam skew}) / (2 b1 b2).
    Both stay accurate deep in the lower half plane, where |F| is large and
    the one-cell monodromy entries grow like e^{|Im lam| tau}.  Asserts that
    every step is unambiguous after at most 30 halvings.
    """
    b1, b2 = cell.b1, cell.b2

    def den(z):
        s = ((b1 + b2) ** 2 * np.exp(-1j * z * cell.transit_time)
             - (b2 - b1) ** 2 * np.exp(1j * z * cell.transit_skew)) / (2.0 * b1 * b2)
        two_f = 2.0 * lyapunov(cell, z)
        v, u = np.zeros_like(z), np.ones_like(z)  # U_{-1}, U_0
        for _ in range(k - 1):
            v, u = u, two_f * u - v
            scale = np.abs(u)
            v, u = v / scale, u / scale
        return u * s - 2.0 * v

    z = np.concatenate([np.linspace(re_lo, re_hi, n, endpoint=False) + 1j * im_lo,
                        re_hi + 1j * np.linspace(im_lo, im_hi, n, endpoint=False),
                        np.linspace(re_hi, re_lo, n, endpoint=False) + 1j * im_hi,
                        re_lo + 1j * np.linspace(im_hi, im_lo, n, endpoint=False),
                        [re_lo + 1j * im_lo]])
    vals = den(z)
    for _ in range(30):
        steps = np.angle(vals[1:] / vals[:-1])
        coarse = np.flatnonzero(np.abs(steps) >= 0.5 * math.pi)
        if coarse.size == 0:
            break
        mid = 0.5 * (z[coarse] + z[coarse + 1])
        z, vals = np.insert(z, coarse + 1, mid), np.insert(vals, coarse + 1, den(mid))
    assert np.max(np.abs(steps)) < 0.5 * math.pi, "reference contour too coarse"
    total = float(np.sum(steps)) / (2.0 * math.pi)
    assert abs(total - round(total)) < 1e-6
    return round(total)
