"""stepslab benchmark: run one workload in a single-client closed loop.

    python3 bench/run.py --workload axis_sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One untimed warm-up pass (every op at its smallest size) comes
first; then full passes repeat, each op after the previous one returned,
until the next pass would overrun ``--seconds`` (at least two passes).
Every op's output is checked after its timer stops.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run that alternates untraced and traced passes.
Report-only metrics appear on the report lines, not in the result object.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts op runs that break a check rule not excused by the op's known
defect (see workloads.py); ``fail_share`` counts every failed op.  Spans and counts of a traced run
are written to ``bench/.out/``.  Exits 2 without a result when the
package source is missing.
"""

from __future__ import annotations

import os

# One thread per process for numpy's native libraries; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import atexit
import json
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

WORKLOAD_NAMES = ("axis_sweep", "resonance_scan", "contour_audit")
#: Fresh-interpreter set-ups per run, half before and half after the passes.
SETUP_REPEATS = 10
MIN_PASSES = 2

#: End-to-end metrics in the result object, each with a bound in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "large_k_s": "s", "fail_share": "ratio",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics printed on the report lines only.  They time
#: interpreter-bound code, whose run-to-run spread on a shared host
#: exceeds the largest bound a gate may have (see README.md).
REPORT_ONLY = {
    "small_k_s": "s", "scalar_p50_us": "us", "scalar_p99_us": "us", "cli_s": "s",
}

PER_LAYER = {
    "monodromy.find_bands.ms": "ms",
    "monodromy.lyapunov.scalar_calls": "count",
    "monodromy.transfer_power.ns_per_point_cell": "ns",
    "scattering.transmission_sq.ns_per_point_cell": "ns",
    "scattering.reflection_k.ns_per_point_cell": "ns",
    "scattering.reflection_k.scalar_us": "us",
    "scattering.nonfinite_share": "ratio",
    "scattering.unitarity_err_max": "1",
    "scattering.perfect_transmission_frequencies.ms": "ms",
    "resolvent.q_recursion.points": "count",
    "resolvent.q_recursion.ns_per_point_cell": "ns",
    "resolvent.q_recursion.self_share": "ratio",
    "resolvent.find_resonances.evals_per_root": "count",
    "resolvent.find_resonances.seeds_per_root": "count",
    "resolvent.find_resonances.newton_iters_mean": "count",
    "resolvent.find_resonances.k_exponent": "1",
    "resolvent.find_resonances.roots_missing": "count",
    "resolvent.reflection_via_q.scalar_us": "us",
    "resolvent.chain_determinants.samples_per_audit": "count",
    "resolvent.chain_determinants.ns_per_sample_cell": "ns",
    "resolvent.count_zeros_rectangle.refinements_per_audit": "count",
    "resolvent.audit_count.retries": "count",
    "resolvent.audit_count.k_exponent": "1",
    "resolvent.audit_count.overflow_share": "ratio",
    "resolvent.audit_count.agreement_share": "ratio",
    "mobius.MobiusMap.apply.calls": "count",
    "mobius.iterate_limit.ms_per_call": "ms",
    "mobius.fixed_points.us_per_call": "us",
    "cli.bands.s": "s",
    "cli.transmission.s": "s",
    "cli.fixed-points.s": "s",
    "cli.resonances.s": "s",
    "cli.converge.s": "s",
    "cli.outside_library_share": "ratio",
    "trace.overhead_share": "ratio",
}


@dataclass
class OpResult:
    seconds: float
    verdict: object
    probe_ns: list = field(default_factory=list)


@dataclass
class PassResult:
    traced: bool
    wall: float
    ops: dict


def run_pass(ops, tracer=None) -> PassResult:
    """Run every op once, in order; check each output after its timer stops."""
    from checks import failed
    from workloads import Probe

    results = {}
    for op in ops:
        root = None
        if tracer is not None:
            tracer.active = True
            root = tracer.begin_op(op.name)
        t0 = perf_counter()
        raised = None
        try:
            out = op.run()
        except Exception as err:  # op boundary: record the failure, keep running
            raised = err
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.end_op(root)
            tracer.active = False
        if raised is not None:
            verdict = failed("error", f"{type(raised).__name__}: {raised}")
        else:
            try:
                verdict = op.check(out)
            except Exception as err:  # a check that cannot run fails the op
                verdict = failed("check_error", f"check raised {type(err).__name__}: {err}")
        results[op.name] = OpResult(seconds, verdict,
                                    out.ns if raised is None and isinstance(out, Probe) else [])
    wall = sum(r.seconds for r in results.values())
    return PassResult(tracer is not None, wall, results)


def measure(ops, seconds: float, tracer=None) -> list[PassResult]:
    """Repeat passes until the next would overrun the budget.  With a
    tracer, passes alternate untraced/traced, starting untraced."""
    passes: list[PassResult] = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(ops, tracer if traced else None))
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > seconds:
            return passes


def measure_setup(workload: str, repeats: int) -> list[float]:
    """Times, in fresh interpreters, to import the package and make one
    smallest-size call of each entry the workload uses."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def end_to_end(ops, passes, setup_s: float) -> dict:
    import numpy as np

    """End-to-end metrics; scalar and CLI metrics only where the workload
    has probes or CLI ops."""
    med = {op.name: statistics.median(p.ops[op.name].seconds for p in passes) for op in ops}
    attempted = len(ops) * len(passes)
    n_failed = sum(not r.verdict.ok for p in passes for r in p.ops.values())
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "large_k_s": sum(med[op.name] for op in ops if op.rung == "large"),
        "fail_share": n_failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "small_k_s": sum(med[op.name] for op in ops if op.rung == "small"),
    }
    probe_ns = [ns for p in passes for r in p.ops.values() for ns in r.probe_ns]
    if probe_ns:
        p50, p99 = np.percentile(probe_ns, [50, 99]) / 1e3
        metrics.update(scalar_p50_us=float(p50), scalar_p99_us=float(p99))
    if any(op.kind == "cli" for op in ops):
        metrics["cli_s"] = sum(med[op.name] for op in ops if op.kind == "cli")
    return metrics


def per_layer(ops, passes, tracer) -> dict:
    """Per-layer metrics from the traced passes' spans, counts and checks."""
    import numpy as np

    from tracing import self_seconds

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n_pass = len(traced)
    spans = tracer.spans
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def under(s, name) -> bool:
        while s.parent is not None:
            s = spans[s.parent]
            if s.name == name:
                return True
        return False

    def direct(s, op_prefix) -> bool:  # called by a benchmark op of this kind itself
        return (s.parent is not None and spans[s.parent].parent is None
                and spans[s.parent].name.startswith(op_prefix))

    def ns_per_point_cell(name, keep=lambda s: True) -> float:
        sel = [s for s in by_name[name] if s.array and keep(s)]
        work = sum(s.n * s.k for s in sel)
        return 1e9 * sum(s.seconds for s in sel) / work if work else 0.0

    def mean_seconds(name) -> float:
        sel = by_name[name]
        return sum(s.seconds for s in sel) / len(sel) if sel else 0.0

    def scalar_median_seconds(name) -> float:
        sel = [s.seconds for s in by_name[name] if not s.array]
        return statistics.median(sel) if sel else 0.0

    def k_exponent(name, op_prefix, ks) -> float:
        total = defaultdict(float)
        for s in by_name[name]:
            if direct(s, op_prefix) and s.k in ks:
                total[s.k] += s.seconds
        if len(total) < 2:
            return 0.0
        ks_seen = sorted(total)
        return float(np.polyfit(np.log(ks_seen), np.log([total[k] for k in ks_seen]), 1)[0])

    def stat(kind, key) -> list:
        return [p.ops[op.name].verdict.stats.get(key, 0)
                for p in traced for op in ops if op.kind == kind]

    fr = by_name["resolvent.find_resonances"]
    roots = sum(s.out or 0 for s in fr)
    q_in_fr = [s for s in by_name["resolvent.q_recursion"] if under(s, "resolvent.find_resonances")]
    seeds = sum(next((c.n for c in children[s.index] if c.name == "resolvent.q_recursion"), 0)
                for s in fr)
    audits = by_name["resolvent.audit_count"]
    chain_in_audit = [s for s in by_name["resolvent.chain_determinants"]
                      if under(s, "resolvent.audit_count")]
    czr = by_name["resolvent.count_zeros_rectangle"]
    elements = sum(stat("sweep", "elements"))
    scan_roots = sum(stat("scan", "roots"))
    n_audits = len(stat("audit", "overflow"))
    sub_of = {op.name: op.subcommand for op in ops if op.kind == "cli"}
    cli_roots = [s for s in spans if s.parent is None and s.name in sub_of]
    cli_total = sum(s.seconds for s in cli_roots)
    cli_self = sum(self_seconds(s, children[s.index]) for s in cli_roots)

    def cli_seconds(sub) -> float:
        return sum(s.seconds for s in cli_roots if sub_of.get(s.name) == sub) / n_pass

    return {
        "monodromy.find_bands.ms": 1e3 * mean_seconds("monodromy.find_bands"),
        "monodromy.lyapunov.scalar_calls": tracer.counts["monodromy.lyapunov.scalar_calls"] / n_pass,
        "monodromy.transfer_power.ns_per_point_cell": ns_per_point_cell("monodromy.transfer_power"),
        "scattering.transmission_sq.ns_per_point_cell": ns_per_point_cell("scattering.transmission_sq"),
        "scattering.reflection_k.ns_per_point_cell": ns_per_point_cell("scattering.reflection_k"),
        "scattering.reflection_k.scalar_us": 1e6 * scalar_median_seconds("scattering.reflection_k"),
        "scattering.nonfinite_share": sum(stat("sweep", "nonfinite")) / elements if elements else 0.0,
        "scattering.unitarity_err_max": max(stat("sweep", "unitarity_err"), default=0.0),
        "scattering.perfect_transmission_frequencies.ms":
            1e3 * mean_seconds("scattering.perfect_transmission_frequencies"),
        "resolvent.q_recursion.points": sum(s.n for s in by_name["resolvent.q_recursion"]) / n_pass,
        "resolvent.q_recursion.ns_per_point_cell": ns_per_point_cell("resolvent.q_recursion"),
        "resolvent.q_recursion.self_share":
            sum(s.seconds for s in q_in_fr) / sum(s.seconds for s in fr) if fr else 0.0,
        "resolvent.find_resonances.evals_per_root":
            sum(s.n for s in q_in_fr) / roots if roots else 0.0,
        "resolvent.find_resonances.seeds_per_root": seeds / roots if roots else 0.0,
        "resolvent.find_resonances.newton_iters_mean":
            sum(stat("scan", "newton_iters")) / scan_roots if scan_roots else 0.0,
        "resolvent.find_resonances.k_exponent": k_exponent("resolvent.find_resonances", "scan.", (32, 64, 128)),
        "resolvent.find_resonances.roots_missing": sum(stat("scan", "missing")) / n_pass,
        "resolvent.reflection_via_q.scalar_us": 1e6 * scalar_median_seconds("resolvent.reflection_via_q"),
        "resolvent.chain_determinants.samples_per_audit":
            sum(s.n for s in chain_in_audit) / len(audits) if audits else 0.0,
        "resolvent.chain_determinants.ns_per_sample_cell":
            ns_per_point_cell("resolvent.chain_determinants", lambda s: under(s, "resolvent.audit_count")),
        "resolvent.count_zeros_rectangle.refinements_per_audit":
            sum(max(0, len(children[s.index]) - 1) for s in czr) / len(audits) if audits else 0.0,
        "resolvent.audit_count.retries":
            sum(max(0, len(children[s.index]) - 1) for s in audits) / n_pass,
        "resolvent.audit_count.k_exponent": k_exponent("resolvent.audit_count", "audit.", (16, 32, 48)),
        "resolvent.audit_count.overflow_share":
            sum(stat("audit", "overflow")) / n_audits if n_audits else 0.0,
        "resolvent.audit_count.agreement_share":
            sum(stat("audit", "agree")) / n_audits if n_audits else 0.0,
        "mobius.MobiusMap.apply.calls": tracer.counts["mobius.MobiusMap.apply.calls"] / n_pass,
        "mobius.iterate_limit.ms_per_call": 1e3 * mean_seconds("mobius.iterate_limit"),
        "mobius.fixed_points.us_per_call": 1e6 * mean_seconds("mobius.fixed_points"),
        "cli.bands.s": cli_seconds("bands"),
        "cli.transmission.s": cli_seconds("transmission"),
        "cli.fixed-points.s": cli_seconds("fixed-points"),
        "cli.resonances.s": cli_seconds("resonances"),
        "cli.converge.s": cli_seconds("converge"),
        "cli.outside_library_share": cli_self / cli_total if cli_total else 0.0,
        "trace.overhead_share": statistics.median(p.wall for p in traced)
                                / statistics.median(p.wall for p in untraced) - 1.0,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _route_warnings(path: Path) -> None:
    """Send warnings (numpy overflow at large k, boundary-value notes) to a
    log file, once per source location, away from the metric output."""
    log = open(path, "w", encoding="utf-8")
    atexit.register(log.close)
    warnings.simplefilter("default")
    warnings.showwarning = lambda msg, cat, fname, lineno, file=None, line=None: log.write(
        warnings.formatwarning(msg, cat, fname, lineno, line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass of every op at its smallest size, no warm-up")
    args = parser.parse_args(argv)

    if not (SRC / "stepslab" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import stepslab
    from tracing import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    _route_warnings(OUT / f"warnings-{args.workload}.log")
    build = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "commit": git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "stepslab": stepslab.__version__, "nproc": len(os.sched_getaffinity(0)),
    }

    setup_times = measure_setup(args.workload, 1 if args.quick else SETUP_REPEATS // 2)
    workload = build(np.random.default_rng(args.seed), args.quick, OUT)
    tracer = Tracer() if args.trace else None
    try:
        if args.quick:
            passes = [run_pass(workload.ops)]
            if tracer is not None:
                tracer.install()
                passes.append(run_pass(workload.ops, tracer))
        else:
            warm = build(np.random.default_rng(args.seed), True, OUT)
            try:
                run_pass(warm.ops)
            finally:
                warm.close()
            if tracer is not None:
                tracer.install()
            passes = measure(workload.ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()

    if not args.quick:
        setup_times += measure_setup(args.workload, SETUP_REPEATS - len(setup_times))

    ops = workload.ops
    untraced = [p for p in passes if not p.traced]
    if tracer is not None:
        metrics = per_layer(ops, passes, tracer)
        units = PER_LAYER
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", meta)
    else:
        metrics = end_to_end(ops, untraced, statistics.median(setup_times))
        units = {**END_TO_END, **REPORT_ONLY}

    def expected(op, verdict) -> bool:
        return verdict.ok or (op.defect is not None and op.defect.excuse(verdict))

    unexpected = sum(not expected(op, p.ops[op.name].verdict) for p in passes for op in ops)
    meta.update(passes=len(passes), traced_passes=len(passes) - len(untraced),
                probe_samples=sum(len(r.probe_ns) for p in untraced for r in p.ops.values()))
    print(json.dumps({"meta": meta}))
    for op in ops:
        verdicts = [p.ops[op.name].verdict for p in passes]
        reasons = {v.reason for v in verdicts} - {None}
        label = "known defect" if all(expected(op, v) for v in verdicts) else "UNEXPECTED"
        verdict = "ok" if not reasons else f"FAIL [{label}] {'; '.join(sorted(reasons))}"
        seconds = statistics.median(p.ops[op.name].seconds for p in untraced)
        print(f"op  {op.name:36s} {seconds:10.6f} s  {verdict}")
    for name, value in metrics.items():
        note = "  (report only)" if name in REPORT_ONLY else ""
        print(f"metric  {name:56s} {value:.6g} {units[name]}{note}")
    result = {
        "correct": unexpected == 0,
        "attempted": len(ops) * len(passes),
        "failed": unexpected,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name not in REPORT_ONLY},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
