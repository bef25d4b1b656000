"""Tests of the benchmark itself: its checks, its quick mode and its contract.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stepslab import (UnitCell, Window, audit_count, default_im_floor,  # noqa: E402
                      find_bands, find_resonances, reflection_k,
                      transmission_sq)

CELL_A = UnitCell(1.0, 4.0, 0.2)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_sweep_check_rejects_planted_nan():
    lam = np.linspace(0.01, 40.0, 500)
    t, r = transmission_sq(CELL_A, lam, 8), reflection_k(CELL_A, lam, 8)
    assert checks.check_sweep(t, r).ok
    t[123] = np.nan
    verdict = checks.check_sweep(t, r)
    assert not verdict.ok
    assert verdict.stats["nonfinite"] == 1


def test_sweep_check_rejects_broken_unitarity():
    lam = np.linspace(0.01, 40.0, 500)
    t, r = transmission_sq(CELL_A, lam, 8), reflection_k(CELL_A, lam, 8)
    r[7] *= 1.01
    assert "unitarity" in checks.check_sweep(t, r).reason


def test_defect_excuses_only_its_own_rules():
    lam = np.linspace(0.01, 40.0, 500)
    t, r = transmission_sq(CELL_A, lam, 8), reflection_k(CELL_A, lam, 8)
    t[3], t[4] = np.nan, 0.0
    verdict = checks.check_sweep(t, r)
    assert verdict.rules == {"nonfinite", "t_zero"}
    assert workloads.SWEEP_OVERFLOW.excuse(verdict)
    r[7] *= 1.01  # unitarity broken on a finite point is not the overflow defect
    verdict = checks.check_sweep(t, r)
    assert verdict.rules == {"nonfinite", "t_zero", "unitarity"}
    assert not workloads.SWEEP_OVERFLOW.excuse(verdict)
    assert not workloads.CLI_NAN_ROWS.excuse(verdict)


def test_resonance_check_rejects_short_root_list():
    window = Window(0.0, 4.0, default_im_floor(CELL_A))
    found = find_resonances(CELL_A, 8, window)
    assert checks.check_resonances(CELL_A, 8, window, found).ok
    band1 = [r for r in found if r.band_index == 1]
    short = [r for r in found if r is not band1[0] and r is not band1[1]]
    verdict = checks.check_resonances(CELL_A, 8, window, short)
    assert "per-band counts off" in verdict.reason
    assert verdict.stats["missing"] == 1
    assert workloads.ROOTS_LOST.excuse(verdict)


def test_resonance_check_rejects_large_residual_in_a_short_list():
    window = Window(0.0, 4.0, default_im_floor(CELL_A))
    found = find_resonances(CELL_A, 8, window)
    band1 = [r for r in found if r.band_index == 1]
    found = [replace(r, residual=1e-6) if r is band1[2] else r
             for r in found if r is not band1[0] and r is not band1[1]]
    verdict = checks.check_resonances(CELL_A, 8, window, found)
    assert verdict.rules == {"roots_short", "residual"}
    assert not workloads.ROOTS_LOST.excuse(verdict)


def test_audit_check_rejects_mismatched_count():
    band = find_bands(CELL_A, 4.0)[0]
    count = audit_count(CELL_A, 8, band)
    rect = (band.lo - 0.05, band.hi + 0.05, default_im_floor(CELL_A), -1e-9)
    reference = checks.NewtonReference().count(CELL_A, 8, band.hi + 0.2, rect)
    assert checks.check_audit(count, reference).ok
    mismatch = checks.check_audit(count + 1, reference)
    assert mismatch.rules == {"count_mismatch"}
    assert workloads.AUDIT_DRIFT.excuse(mismatch)
    assert not workloads.DET_OVERFLOW.excuse(mismatch)
    error = checks.check_audit(ValueError("bad band"), None)
    assert not workloads.DET_OVERFLOW.excuse(error)


def test_cli_check_reads_nan_field_by_field(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("row_type,re\nresonance,1.5\n")
    assert checks.check_cli(0, path).ok
    path.write_text("row_type,re\nresonance,nan\n")
    assert not checks.check_cli(0, path).ok
    assert not checks.check_cli(4, path).ok


def test_seed_fixes_inputs():
    def grid(seed):
        return workloads._grid(np.random.default_rng(seed), 1000)
    assert np.array_equal(grid(5), grid(5))
    assert not np.array_equal(grid(5), grid(6))
    assert 0.0 < grid(5).min() and grid(5).max() <= workloads.LAMBDA_MAX


def _output(capsys) -> tuple[str, dict]:
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_quick_mode_runs_each_workload_once(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--quick"]) == 0
    out, result = _output(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    built = workloads.WORKLOADS[workload](np.random.default_rng(3), True, run.OUT)
    built.close()
    assert result["attempted"] == len(built.ops)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    # contour_audit has no scalar probes and no CLI ops.
    applies = ["small_k_s"] if workload == "contour_audit" else list(run.REPORT_ONLY)
    for name in run.REPORT_ONLY:
        assert (f"metric  {name} " in out) == (name in applies)


def test_quick_traced_run_prints_every_layer_metric(capsys):
    assert run.main(["--workload", "contour_audit", "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--quick"]) == 0
    _, result = _output(capsys)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["resolvent.chain_determinants.samples_per_audit"]["value"] > 0


def test_spec_matches_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "axis_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
