"""Set-up cost of one workload, measured in a fresh interpreter.

    python3 bench/setup_probe.py <workload>

Times ``import stepslab`` (numpy included) plus one smallest-size call of
each entry the workload uses, and prints the seconds.  run.py starts
this several times and reports the median as ``setup_s``.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = BENCH / ".out"


def main(workload: str) -> float:
    sys.path.insert(0, str(BENCH.parent / "src"))
    import numpy as np

    import stepslab as s
    from stepslab import cli

    warnings.simplefilter("ignore")
    cell = s.UnitCell(1.0, 4.0, 0.2)
    flags = ["--b1", "1", "--b2", "4", "--x2", "0.2", "--output",
             str(OUT / f"setup-{workload}.csv")]
    band = s.find_bands(cell, 4.0)[0]
    if workload == "axis_sweep":
        lam = np.array([0.5])
        s.transmission_sq(cell, lam, 8)
        s.reflection_k(cell, lam, 8)
        s.perfect_transmission_frequencies(cell, band, 2)
        s.reflection_k(cell, 0.5, 8)
        s.reflection_half_infinite(cell, 0.5)
        cli.main(["bands", *flags, "--lambda-max", "4"])
        cli.main(["transmission", *flags, "--k", "2", "--grid-re", "2"])
        cli.main(["fixed-points", *flags, "--lambda-max", "2", "--grid-re", "2"])
    elif workload == "resonance_scan":
        s.find_resonances(cell, 2, s.Window(0.0, 2.0, s.default_im_floor(cell)))
        s.reflection_via_q(cell, 0.5 + 0.5j, 2)
        cli.main(["resonances", *flags, "--k", "2", "--re-max", "2"])
        cli.main(["converge", *flags, "--k-list", "2", "--band-index", "1"])
    elif workload == "contour_audit":
        s.audit_count(cell, 1, band)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return perf_counter() - T0


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    print(main(sys.argv[1]))
