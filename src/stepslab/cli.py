"""Command line interface.

Subcommands emit CSV or JSON tables for generic plotters: band tables,
resonance tables (with band intervals and transparency markers so a
scatter plot reproduces a full spectrum panel), transmission sweeps,
fixed-point classification sweeps, and resonance-depth convergence
studies.

Exit codes: 0 success (possibly an empty table), 2 invalid input,
3 precondition violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import (EdgeDegeneracyError, HomogeneousCellError,
                     InvalidRangeError, StepslabError)
from .medium import UnitCell, transparency_frequencies
from .mobius import fixed_points, iterate_limit, r1
from .monodromy import find_bands
from .resolvent import (Window, convergence_study, default_im_floor,
                        find_resonances)
from .scattering import reflection_k, transmission_sq

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _emit(header: list[str], rows: list[dict], meta: dict, fmt: str, output: str) -> None:
    if fmt == "json":
        text = json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(row.get(col)) for col in header) for row in rows)
        text = "\n".join(lines) + "\n"
    if output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


_DEFAULTS = {"k": 1, "lambda_max": 4.0, "re_min": 0.0, "grid_re": 200, "format": "csv",
             "output": "-", "band_index": 1}


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, an optional JSON config file, and explicit flags.

    Flags win over file values; file values win over defaults, and a null
    file value leaves the default.  The file may set exactly the flags of
    the subcommand, each value typed as its flag would type it, and only
    the settings the subcommand reads are validated.
    """
    keys = set(vars(args)) - {"command", "config"}
    cfg = {key: _DEFAULTS.get(key) for key in keys}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        unread = set(loaded) - keys
        if unread:
            raise ValueError(f"config keys that {args.command} does not read: {sorted(unread)}")
        cfg.update((key, _typed(key, val)) for key, val in loaded.items() if val is not None)
    cfg.update((key, val) for key, val in vars(args).items() if key in keys and val is not None)
    for name in ("b1", "b2", "x2"):
        if cfg[name] is None:
            raise ValueError(f"missing cell parameter --{name}")
    cfg["cell"] = UnitCell(cfg["b1"], cfg["b2"], cfg["x2"])
    if cfg["lambda_max"] is None or not 0.0 < cfg["lambda_max"] < math.inf:
        raise ValueError(f"lambda-max must be finite and positive, got {cfg['lambda_max']}")
    if "grid_re" in keys and cfg["grid_re"] < 2:
        raise ValueError(f"grid-re must be at least 2, got {cfg['grid_re']}")
    if "im_min" in keys and cfg["im_min"] is None:
        cfg["im_min"] = default_im_floor(cfg["cell"])
    if "re_max" in keys and cfg["re_max"] is None:
        cfg["re_max"] = cfg["lambda_max"]
    return cfg


def _typed(key: str, value):
    """A config file value as its flag would take it: the flag's type applied
    to the value's text (a JSON list for ``k_list`` joined by commas) and its
    choices checked."""
    if key == "k_list" and isinstance(value, list):
        value = ",".join(map(str, value))
    spec = _FLAGS[key]
    try:
        typed = spec.get("type", str)(str(value))
    except (ValueError, argparse.ArgumentTypeError) as err:
        raise ValueError(f"config value {key}={value!r}: {err}") from None
    if typed not in spec.get("choices", (typed,)):
        raise ValueError(f"config value {key}={value!r}: choose from {spec['choices']}")
    return typed


def _meta(cfg: dict, command: str) -> dict:
    return {
        "cell": {"b1": cfg["cell"].b1, "b2": cfg["cell"].b2, "x2": cfg["cell"].x2},
        "k": cfg.get("k", 1),
        "command": command,
        "version": __version__,
    }


def cmd_bands(cfg: dict) -> int:
    header = ["index", "lo", "hi", "lo_type", "hi_type"]
    rows = [{
        "index": b.index, "lo": b.lo, "hi": b.hi,
        "lo_type": b.lo_type.value if b.lo_type else None,
        "hi_type": b.hi_type.value if b.hi_type else None,
    } for b in find_bands(cfg["cell"], cfg["lambda_max"])]
    _emit(header, rows, _meta(cfg, "bands"), cfg["format"], cfg["output"])
    return EXIT_OK


def cmd_resonances(cfg: dict) -> int:
    cell = cfg["cell"]
    window = Window(cfg["re_min"], cfg["re_max"], cfg["im_min"])
    found = find_resonances(cell, cfg["k"], window)
    header = ["row_type", "re", "im", "residual", "band_index", "lo", "hi"]
    rows: list[dict] = [{
        "row_type": "resonance", "re": r.lam.real, "im": r.lam.imag,
        "residual": r.residual, "band_index": r.band_index,
    } for r in found]
    for b in find_bands(cell, cfg["re_max"]):
        rows.append({"row_type": "band", "band_index": b.index, "lo": b.lo, "hi": b.hi})
    for lam0 in transparency_frequencies(cell, cfg["re_max"]):
        rows.append({"row_type": "transparency", "re": lam0, "im": 0.0})
    _emit(header, rows, _meta(cfg, "resonances"), cfg["format"], cfg["output"])
    return EXIT_OK


def cmd_transmission(cfg: dict) -> int:
    cell = cfg["cell"]
    xs = np.linspace(0.0, cfg["lambda_max"], cfg["grid_re"] + 1)[1:]
    t = transmission_sq(cell, xs, cfg["k"])
    r = reflection_k(cell, xs, cfg["k"])
    r_sq = np.abs(r) ** 2
    header = ["lambda", "t_sq", "r_abs_sq"]
    rows = [{"lambda": float(x), "t_sq": float(tv), "r_abs_sq": float(rv)}
            for x, tv, rv in zip(xs, t, r_sq)]
    _emit(header, rows, _meta(cfg, "transmission"), cfg["format"], cfg["output"])
    return EXIT_OK


def cmd_fixed_points(cfg: dict) -> int:
    cell = cfg["cell"]
    if cell.homogeneous:
        raise HomogeneousCellError("fixed-point analysis needs a two-step cell (b1 != b2)")
    xs = np.linspace(0.0, cfg["lambda_max"], cfg["grid_re"] + 1)[1:]
    header = ["lambda", "kind", "z1_re", "z1_im", "z2_re", "z2_im",
              "limit_converged", "limit_re", "limit_im"]
    rows = []
    for x in xs:
        lam = float(x)
        try:
            fp = fixed_points(cell, lam)
        except EdgeDegeneracyError:
            rows.append({"lambda": lam, "kind": "degenerate_edge"})
            continue
        res = iterate_limit(cell, lam, r1(cell, lam))
        rows.append({
            "lambda": lam, "kind": fp.kind.value,
            "z1_re": fp.z1.real, "z1_im": fp.z1.imag,
            "z2_re": fp.z2.real, "z2_im": fp.z2.imag,
            "limit_converged": res.converged,
            "limit_re": res.value.real, "limit_im": res.value.imag,
        })
    _emit(header, rows, _meta(cfg, "fixed-points"), cfg["format"], cfg["output"])
    return EXIT_OK


def cmd_converge(cfg: dict) -> int:
    cell = cfg["cell"]
    k_list = cfg["k_list"]
    if not k_list:
        raise ValueError("converge requires --k-list")
    bands = find_bands(cell, cfg["lambda_max"])
    idx = cfg["band_index"]
    matches = [b for b in bands if b.index == idx]
    if not matches:
        raise ValueError(f"no band with index {idx} below lambda-max={cfg['lambda_max']}")
    header = ["k", "count", "max_im", "min_im"]
    rows = [row._asdict() for row in
            convergence_study(cell, matches[0], k_list, im_floor=cfg["im_min"])]
    _emit(header, rows, _meta(cfg, "converge"), cfg["format"], cfg["output"])
    return EXIT_OK


def _parse_k_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad k-list {text!r}") from err


#: argparse settings of every flag; ``--lambda-max`` sets ``lambda_max``.
_FLAGS = {
    "b1": {"type": float}, "b2": {"type": float}, "x2": {"type": float},
    "k": {"type": int}, "lambda_max": {"type": float}, "re_min": {"type": float},
    "re_max": {"type": float}, "im_min": {"type": float}, "grid_re": {"type": int},
    "k_list": {"type": _parse_k_list}, "band_index": {"type": int},
    "format": {"choices": ("csv", "json")}, "output": {}, "config": {},
}

#: name -> (handler, help, the flags its handler reads besides the cell, format and output)
_SUBCOMMANDS = {
    "bands": (cmd_bands, "band intervals and edge types", ("lambda_max",)),
    "resonances": (cmd_resonances, "complex resonances plus band and transparency markers",
                   ("k", "lambda_max", "re_min", "re_max", "im_min")),
    "transmission": (cmd_transmission, "transmission and reflection over a frequency grid",
                     ("k", "lambda_max", "grid_re")),
    "fixed-points": (cmd_fixed_points, "disk-map fixed points, kinds and iteration limits",
                     ("lambda_max", "grid_re")),
    "converge": (cmd_converge, "resonance depth versus cell count",
                 ("lambda_max", "im_min", "k_list", "band_index")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepslab",
        description="Band spectra, transmission and scattering resonances "
                    "of finite periodic two-step media.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, own) in _SUBCOMMANDS.items():
        # no abbreviations, or converge would read --k as --k-list
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key in ("b1", "b2", "x2", *own, "format", "output", "config"):
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse printed a usage error (2) or the help (0)
        return stop.code
    try:
        cfg = _resolve(args)
    except (ValueError, TypeError, OSError) as err:
        print(f"stepslab: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _SUBCOMMANDS[args.command][0](cfg)
    except HomogeneousCellError as err:
        print(f"stepslab: precondition violated: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InvalidRangeError, ValueError, OSError) as err:
        print(f"stepslab: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, MemoryError, StepslabError) as err:
        print(f"stepslab: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
