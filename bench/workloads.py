"""The benchmark's workloads: fixed lists of operations on the reference cells.

Cells, k ladders and windows are fixed.  The seed draws only the scalar
probe frequencies and a sub-step offset of each array grid, so every seed
exercises the same code at slightly different inputs.  Every operation
calls the package through its module attributes at run time, which is
what lets the traced run see it.  See README.md for why each workload
exists and which layer it loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, NamedTuple

import numpy as np

from stepslab import (StepslabError, UnitCell, Window, cli, default_im_floor,
                      resolvent, scattering)

from checks import (NewtonReference, Verdict, check_audit, check_bands,
                    check_cli, check_perfect_transmission, check_probe_values,
                    check_resonances, check_sweep)

# The package re-exports a function named monodromy; fetch the module itself.
monodromy = import_module("stepslab.monodromy")

CELLS = {
    "A": UnitCell(1.0, 4.0, 0.2),
    "B": UnitCell(1.0, 3.8, 0.2),
    "C": UnitCell(3.8, 1.0, 0.8),
}

LAMBDA_MAX = 40.0
GRID_POINTS = 100_000
#: Scalar probe calls per op; the chunks are spread through the pass.
PROBE_CHUNK = 250


@dataclass(frozen=True)
class Defect:
    """A known defect at the seed commit (ROADMAP open items) and the check
    rules it breaks.  An op carrying one may break exactly those rules
    without making the run incorrect; its failure still counts in
    fail_share.  Any other broken rule, and any failure of an op without
    a defect, makes the run incorrect."""
    note: str
    excuses: frozenset

    def excuse(self, verdict: Verdict) -> bool:
        return verdict.rules <= self.excuses


# NaN, or t = 0 where the true t is below float64's normal range; range and
# unitarity must still hold on every other point.
SWEEP_OVERFLOW = Defect("item 2: Chebyshev power overflows at large k",
                        frozenset({"nonfinite", "t_zero"}))
CLI_NAN_ROWS = Defect("item 2: Chebyshev power overflows at large k",
                      frozenset({"nan_field"}))
# A per-band shortfall only; residual, Im < 0, band assignment and excess
# counts must still hold.
ROOTS_LOST = Defect("item 3: seed grid loses resonances from k = 64",
                    frozenset({"roots_short"}))
AUDIT_DRIFT = Defect("item 4: contour count disagrees with Newton from k = 48",
                     frozenset({"count_mismatch"}))
DET_OVERFLOW = Defect("item 4: chain determinant overflows from k ~ 68",
                      frozenset({"overflow"}))


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    kind: str
    rung: str | None = None    # "small" (k = 8) or "large" (top k of the ladder)
    defect: Defect | None = None  # known defect whose rules this op may break
    subcommand: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    close: Callable[[], None] = field(default=lambda: None)


class Probe(NamedTuple):
    values: list
    ns: list


def _probe(module, name: str, cell, lams, *extra) -> Probe:
    fn = getattr(module, name)
    values, ns = [], []
    for lam in lams:
        t0 = perf_counter_ns()
        values.append(fn(cell, lam, *extra))
        ns.append(perf_counter_ns() - t0)
    return Probe(values, ns)


def _probe_ops(module, name: str, cname: str, cell, lams, extra: tuple) -> list[Op]:
    """Scalar probes in chunks of PROBE_CHUNK calls, one op per chunk."""
    return [Op(f"probe.{name}.{cname}.{i // PROBE_CHUNK}",
               lambda chunk=lams[i:i + PROBE_CHUNK]: _probe(module, name, cell, chunk, *extra),
               lambda p: check_probe_values(p.values), "probe")
            for i in range(0, len(lams), PROBE_CHUNK)]


def _spread(main: list[Op], extra: list[Op]) -> list[Op]:
    """Merge ``extra`` evenly between the ops of ``main``.

    The machine's speed drifts over seconds, so a metric whose samples sit
    in one stretch of the pass reads that stretch's speed; spreading them
    lets the median see the whole pass.
    """
    keyed = [((j + 0.5) / len(main), 0, op) for j, op in enumerate(main)]
    keyed += [((i + 0.5) / len(extra), 1, op) for i, op in enumerate(extra)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def _grid(rng, n: int) -> np.ndarray:
    """n points on (0, LAMBDA_MAX] with a seeded sub-step offset."""
    h = LAMBDA_MAX / n
    return (np.arange(1, n + 1) - rng.uniform()) * h


def _real_probes(rng, n: int) -> list[float]:
    return (LAMBDA_MAX - rng.uniform(0.0, LAMBDA_MAX, n)).tolist()


def _cell_flags(cell: UnitCell) -> list[str]:
    return ["--b1", repr(cell.b1), "--b2", repr(cell.b2), "--x2", repr(cell.x2)]


def _cli_op(name: str, argv: list[str], out_dir: Path, *, fixed_points_cell=None,
            defect=None) -> Op:
    path = out_dir / f"{name}.csv"

    def run():
        path.unlink(missing_ok=True)
        return cli.main([*argv, "--output", str(path)])

    return Op(name, run, lambda code: check_cli(code, path, fixed_points_cell),
              "cli", defect=defect, subcommand=argv[0])


def _rung(k: int, ladder) -> str | None:
    return "small" if k == ladder[0] else "large" if k == ladder[-1] else None


def axis_sweep(rng, quick: bool, out_dir: Path) -> Workload:
    """Real-axis sweeps, bands, transmission peaks, scalar probes and CLI."""
    ladder = (8,) if quick else (8, 64, 512, 4096)
    n_grid = 2_000 if quick else GRID_POINTS
    n_refl, n_half = (100, 25) if quick else (2000, 500)
    main: list[Op] = []
    probes: list[Op] = []
    for cname, cell in CELLS.items():
        for k in ladder:
            lam = _grid(rng, n_grid)
            main.append(Op(
                f"sweep.{cname}.k{k}",
                lambda cell=cell, lam=lam, k=k: (scattering.transmission_sq(cell, lam, k),
                                                 scattering.reflection_k(cell, lam, k)),
                lambda tr: check_sweep(*tr), "sweep", _rung(k, ladder),
                SWEEP_OVERFLOW if k >= 512 else None))
        main.append(Op(f"bands.{cname}", lambda cell=cell: monodromy.find_bands(cell, 400.0),
                       lambda bands, cell=cell: check_bands(cell, bands), "bands"))
        complete = [b for b in monodromy.find_bands(cell, 400.0) if b.hi_type is not None]
        for band in complete[:3]:
            main.append(Op(
                f"peaks.{cname}.b{band.index}",
                lambda cell=cell, band=band: scattering.perfect_transmission_frequencies(
                    cell, band, 64),
                lambda roots, cell=cell, band=band: check_perfect_transmission(
                    cell, band, 64, roots),
                "peaks"))
        probes += _probe_ops(scattering, "reflection_k", cname, cell,
                             _real_probes(rng, n_refl), (64,))
        probes += _probe_ops(scattering, "reflection_half_infinite", cname, cell,
                             _real_probes(rng, n_half), ())
    a = CELLS["A"]
    cli_ops = [
        _cli_op("cli.bands", ["bands", *_cell_flags(a), "--lambda-max", "400"], out_dir),
        _cli_op("cli.transmission", ["transmission", *_cell_flags(a), "--k", "600",
                                     "--grid-re", "2000", "--lambda-max", "40"],
                out_dir, defect=CLI_NAN_ROWS),
        _cli_op("cli.fixed-points", ["fixed-points", *_cell_flags(a), "--lambda-max", "4"],
                out_dir, fixed_points_cell=a),
    ]
    return Workload(_spread(_spread(main, cli_ops), probes))


def resonance_scan(rng, quick: bool, out_dir: Path) -> Workload:
    """Newton resonance searches, upper-half-plane probes and CLI."""
    ladder = (8,) if quick else (8, 32, 64, 128)
    n_probe = 100 if quick else 2000
    main: list[Op] = []
    probes: list[Op] = []
    for cname, cell in CELLS.items():
        window = Window(0.0, 4.0, default_im_floor(cell))
        for k in ladder:
            main.append(Op(
                f"scan.{cname}.k{k}",
                lambda cell=cell, k=k, window=window: resolvent.find_resonances(cell, k, window),
                lambda found, cell=cell, k=k, window=window: check_resonances(
                    cell, k, window, found),
                "scan", _rung(k, ladder), ROOTS_LOST if k >= 64 else None))
        lams = (4.0 - rng.uniform(0.0, 4.0, n_probe)
                + 1j * rng.uniform(0.01, 1.0, n_probe)).tolist()
        probes += _probe_ops(resolvent, "reflection_via_q", cname, cell, lams, (64,))
    cli_ops = [
        _cli_op("cli.resonances", ["resonances", *_cell_flags(CELLS["A"]),
                                   "--k", "32", "--re-max", "4"], out_dir),
        _cli_op("cli.converge", ["converge", *_cell_flags(CELLS["B"]),
                                 "--k-list", "4,8,16,32", "--band-index", "1"], out_dir),
    ]
    return Workload(_spread(_spread(main, cli_ops), probes))


class _RectangleLog:
    """Keeps the rectangle of the latest count_zeros_rectangle call.

    audit_count widens its margin when a zero sits on the contour, so the
    Newton reference must be counted in the rectangle actually used.
    Costs one Python call per contour attempt.
    """

    def __init__(self):
        self.last = None
        self._orig = resolvent.count_zeros_rectangle

        def recorder(cell, k, re_lo, re_hi, im_lo, im_hi):
            self.last = (re_lo, re_hi, im_lo, im_hi)
            return self._orig(cell, k, re_lo, re_hi, im_lo, im_hi)

        resolvent.count_zeros_rectangle = recorder

    def close(self) -> None:
        resolvent.count_zeros_rectangle = self._orig


def _audit(cell, k: int, band):
    try:
        return resolvent.audit_count(cell, k, band)
    except StepslabError as err:  # a typed error is this op's outcome
        return err


def contour_audit(rng, quick: bool, out_dir: Path) -> Workload:
    """Argument-principle audits only: no probes and no CLI, so scalar and
    CLI metrics do not apply here."""
    ladder = (8,) if quick else (8, 16, 32, 48)
    log = _RectangleLog()
    reference = NewtonReference()
    ops: list[Op] = []

    def audit_op(cname, cell, band, k, re_max, defect):
        def check(outcome):
            if isinstance(outcome, BaseException):
                return check_audit(outcome, None)
            return check_audit(outcome, reference.count(cell, k, re_max, log.last))
        return Op(f"audit.{cname}.b{band.index}.k{k}",
                  lambda: _audit(cell, k, band), check, "audit",
                  _rung(k, ladder), defect)

    for cname, cell in CELLS.items():
        bands = monodromy.find_bands(cell, 4.0)[:2]
        for k in ladder:
            for band in bands:
                ops.append(audit_op(cname, cell, band, k, bands[-1].hi + 0.2,
                                    AUDIT_DRIFT if k >= 48 else None))
        if not quick:
            ops.append(audit_op(cname, cell, bands[0], 96, bands[0].hi + 0.2, DET_OVERFLOW))
    return Workload(ops, log.close)


WORKLOADS = {
    "axis_sweep": axis_sweep,
    "resonance_scan": resonance_scan,
    "contour_audit": contour_audit,
}
