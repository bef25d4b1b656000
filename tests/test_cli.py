import json
import math

import pytest

from stepslab import UnitCell, cli, default_im_floor, find_bands, lyapunov
from stepslab.cli import build_parser, main
from stepslab.errors import ContourThroughZeroError, StepslabError

from conftest import DEPTH_A1, EDGE_A3, closed_form_k1_row, random_cells

CELL_A = ["--b1", "1", "--b2", "4", "--x2", "0.2"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_bands_reference_cell(capsys):
    code, out, _ = _run(capsys, ["bands", *CELL_A, "--lambda-max", "4"])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["index", "lo", "hi", "lo_type", "hi_type"]
    assert len(rows) == 3
    assert float(rows[1]["hi"]) == pytest.approx(EDGE_A3, abs=1e-9)
    assert rows[1]["hi_type"] == "degenerate"
    assert rows[0]["hi_type"] == "nondegenerate"


def test_bands_uniform_cell(capsys):
    code, out, _ = _run(capsys, ["bands", "--b1", "1", "--b2", "1", "--x2", "0.5",
                                 "--lambda-max", "5"])
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 1
    assert (float(rows[0]["lo"]), float(rows[0]["hi"])) == (0.0, 5.0)
    assert "nondegenerate" not in (rows[0]["lo_type"], rows[0]["hi_type"])


def test_bands_invalid_range_exits_2(capsys):
    code, _, err = _run(capsys, ["bands", *CELL_A, "--lambda-max", "-1"])
    assert code == 2
    assert err.strip()


def test_missing_cell_parameter_exits_2(capsys):
    code, _, err = _run(capsys, ["bands", "--b1", "1", "--b2", "4"])
    assert code == 2
    assert "x2" in err


def test_resonances_k3(capsys):
    code, out, _ = _run(capsys, ["resonances", *CELL_A, "--k", "3", "--re-max", "4"])
    assert code == 0
    _, rows = _rows(out)
    res = [r for r in rows if r["row_type"] == "resonance"]
    band1 = [r for r in res if r["band_index"] == "1"]
    # two generic resonances strictly inside band 1 plus the edge
    # resonance below the transparency frequency at zero
    assert len([r for r in band1 if float(r["re"]) > 1e-6]) == 2
    assert len(band1) == 3
    assert all(float(r["im"]) < 0 for r in res)
    assert all(float(r["residual"]) <= 1e-10 for r in res)


def test_resonances_k1_constant_depth(capsys):
    code, out, _ = _run(capsys, ["resonances", *CELL_A, "--k", "1", "--re-max", "8",
                                 "--im-min", "-2"])
    assert code == 0
    _, rows = _rows(out)
    res = [r for r in rows if r["row_type"] == "resonance"]
    assert len(res) == 3
    for r in res:
        assert float(r["im"]) == pytest.approx(DEPTH_A1, abs=1e-5)


def test_resonances_emit_bands_and_markers(capsys):
    code, out, _ = _run(capsys, ["resonances", *CELL_A, "--k", "2", "--re-max", "4"])
    assert code == 0
    _, rows = _rows(out)
    kinds = {r["row_type"] for r in rows}
    assert kinds == {"resonance", "band", "transparency"}
    markers = [float(r["re"]) for r in rows if r["row_type"] == "transparency"]
    assert markers == pytest.approx([EDGE_A3], abs=1e-9)


def test_resonances_homogeneous_empty_exit_0(capsys):
    code, out, _ = _run(capsys, ["resonances", "--b1", "1", "--b2", "1",
                                 "--x2", "0.5", "--k", "5"])
    assert code == 0
    _, rows = _rows(out)
    assert [r for r in rows if r["row_type"] == "resonance"] == []


def test_transmission_unitarity_and_determinism(capsys):
    argv = ["transmission", *CELL_A, "--k", "5", "--lambda-max", "4",
            "--grid-re", "50"]
    code, out1, _ = _run(capsys, argv)
    assert code == 0
    header, rows = _rows(out1)
    assert header == ["lambda", "t_sq", "r_abs_sq"]
    assert len(rows) == 50
    for r in rows:
        assert abs(float(r["t_sq"]) + float(r["r_abs_sq"]) - 1.0) <= 1e-10
    code, out2, _ = _run(capsys, argv)
    assert out2 == out1  # byte identical


def test_transmission_large_k_has_no_nan(capsys):
    code, out, _ = _run(capsys, ["transmission", *CELL_A, "--k", "600", "--grid-re", "2000",
                                 "--lambda-max", "40"])
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 2000
    assert not any(v.lower() in ("nan", "-nan", "inf", "-inf")
                   for row in rows for v in row.values())


def test_transmission_homogeneous(capsys):
    code, out, _ = _run(capsys, ["transmission", "--b1", "2", "--b2", "2",
                                 "--x2", "0.4", "--k", "3", "--grid-re", "10"])
    assert code == 0
    _, rows = _rows(out)
    assert all(float(r["t_sq"]) == 1.0 for r in rows)


def test_fixed_points_homogeneous_exits_3(capsys):
    code, _, err = _run(capsys, ["fixed-points", "--b1", "1", "--b2", "1", "--x2", "0.2"])
    assert code == 3
    assert "two-step" in err


@pytest.mark.parametrize("cell", [UnitCell(1.0, 3.8, 0.2), UnitCell(3.8, 1.0, 0.8)],
                         ids=["B", "C"])
def test_fixed_points_skewed_cell(capsys, cell):
    # unequal layer transit times: every default grid row is finite, and the kind
    # is elliptic exactly where |F| < 1
    code, out, _ = _run(capsys, ["fixed-points", "--b1", repr(cell.b1), "--b2", repr(cell.b2),
                                 "--x2", repr(cell.x2)])
    assert code == 0
    header, rows = _rows(out)
    assert len(rows) == 200
    for r in rows:
        assert all(math.isfinite(float(r[col])) for col in header if col not in
                   ("kind", "limit_converged")), r
        assert (r["kind"] == "elliptic") == (abs(lyapunov(cell, float(r["lambda"]))) < 1.0), r


def test_fixed_points_kind_flips_at_band_edges(capsys):
    code, out, _ = _run(capsys, ["fixed-points", *CELL_A, "--lambda-max", "4",
                                 "--grid-re", "400"])
    assert code == 0
    _, rows = _rows(out)
    code_b, out_b, _ = _run(capsys, ["bands", *CELL_A, "--lambda-max", "4"])
    _, band_rows = _rows(out_b)
    edges = []
    for b in band_rows:
        edges.extend((float(b["lo"]), float(b["hi"])))
    spacing = 4.0 / 400
    flips = []
    for prev, cur in zip(rows[:-1], rows[1:]):
        if prev["kind"] != cur["kind"]:
            flips.append(0.5 * (float(prev["lambda"]) + float(cur["lambda"])))
    assert flips
    for lam in flips:
        assert min(abs(lam - e) for e in edges) <= spacing


def test_fixed_points_degenerate_edge_rows(capsys):
    # the grid hits both touching points of cell A, pi/0.8 and 2 pi/0.8
    code, out, _ = _run(capsys, ["fixed-points", *CELL_A, "--lambda-max", repr(2.0 * EDGE_A3),
                                 "--grid-re", "2"])
    assert code == 0
    header, rows = _rows(out)
    assert [r["kind"] for r in rows] == ["degenerate_edge"] * 2
    assert all(r[col] == "" for r in rows for col in header[2:])


def test_fixed_points_limits_on_gaps(capsys):
    code, out, _ = _run(capsys, ["fixed-points", *CELL_A, "--lambda-max", "2.6",
                                 "--grid-re", "26"])
    assert code == 0
    _, rows = _rows(out)
    for r in rows:
        if r["kind"] == "hyperbolic":
            assert r["limit_converged"] == "true"
            mod = math.hypot(float(r["limit_re"]), float(r["limit_im"]))
            assert mod == pytest.approx(1.0, abs=1e-6)
        elif r["kind"] == "elliptic":
            assert r["limit_converged"] == "false"


def test_converge_rows(capsys):
    code, out, _ = _run(capsys, ["converge", *CELL_A, "--k-list", "4,8"])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["k", "count", "max_im", "min_im"]
    assert [r["k"] for r in rows] == ["4", "8"]
    assert float(rows[1]["max_im"]) > float(rows[0]["max_im"])


def test_converge_single_k(capsys):
    code, out, _ = _run(capsys, ["converge", *CELL_A, "--k-list", "6"])
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 1


def test_converge_k1_row_equals_closed_form(capsys):
    # the printed k = 1 row is the closed form's, at the default floor and at 4x the
    # one-cell depth, in the first two whole bands
    code, out, _ = _run(capsys, ["converge", *CELL_A, "--k-list", "1,4"])
    assert code == 0
    _, rows = _rows(out)
    assert rows[0]["k"] == "1" and rows[0]["count"] == "1"
    assert float(rows[0]["max_im"]) == pytest.approx(DEPTH_A1, abs=1e-9)
    cells = (UnitCell(1.0, 4.0, 0.2), UnitCell(1.0, 3.8, 0.2), UnitCell(3.8, 1.0, 0.8),
             *random_cells(5, 8))
    for cell in cells:
        argv = ["converge", "--b1", str(float(cell.b1)), "--b2", str(float(cell.b2)),
                "--x2", str(float(cell.x2)), "--lambda-max", "8", "--k-list", "1"]
        deep = float(4.0 * math.log(abs(cell.contrast)) / (cell.b2 * cell.x2))
        for band in [b for b in find_bands(cell, 8.0) if b.hi_type is not None][:2]:
            for floor, flag in ((default_im_floor(cell), []), (deep, [f"--im-min={deep!r}"])):
                code, out, _ = _run(capsys, [*argv, "--band-index", str(band.index), *flag])
                _, rows = _rows(out)
                assert code == 0 and len(rows) == 1
                assert tuple(rows[0].values()) == closed_form_k1_row(cell, band, floor), argv


def test_converge_requires_k_list(capsys):
    code, _, err = _run(capsys, ["converge", *CELL_A])
    assert code == 2


def test_converge_rejects_decreasing_k_list(capsys):
    code, _, _ = _run(capsys, ["converge", *CELL_A, "--k-list", "8,4"])
    assert code == 2
    # band 3 is clipped at the default lambda-max 4, so its window would miss roots
    code, _, err = _run(capsys, ["converge", *CELL_A, "--k-list", "4,8,16", "--band-index", "3"])
    assert code == 2 and "band" in err


def test_json_round_trip(capsys):
    code, out, _ = _run(capsys, ["bands", *CELL_A, "--lambda-max", "4",
                                 "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc["meta"].keys()) == {"cell", "command", "k", "version"}
    assert doc["meta"]["command"] == "bands"
    assert doc["meta"]["cell"] == {"b1": 1.0, "b2": 4.0, "x2": 0.2}
    assert len(doc["rows"]) == 3
    assert json.loads(json.dumps(doc)) == doc
    # meta keeps its keys, and k reads 1, where the subcommand has no --k
    for argv in (["fixed-points", *CELL_A, "--grid-re", "2"],
                 ["converge", *CELL_A, "--k-list", "2"]):
        code, out, _ = _run(capsys, [*argv, "--format", "json"])
        assert code == 0
        meta = json.loads(out)["meta"]
        assert set(meta) == {"cell", "command", "k", "version"}
        assert meta["k"] == 1


def test_output_file(tmp_path, capsys):
    target = tmp_path / "bands.csv"
    code, out, _ = _run(capsys, ["bands", *CELL_A, "--lambda-max", "4",
                                 "--output", str(target)])
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("index,lo,hi")
    assert text.endswith("\n")
    code, _, err = _run(capsys, ["bands", *CELL_A, "--output", str(tmp_path / "no" / "x.csv")])
    assert code == 2
    assert "x.csv" in err


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"b1": 1.0, "b2": 4.0, "x2": 0.2, "lambda_max": 2.0}))
    code, out, _ = _run(capsys, ["bands", "--config", str(cfg)])
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 1
    code, out, _ = _run(capsys, ["bands", "--config", str(cfg), "--lambda-max", "4"])
    assert code == 0
    _, rows = _rows(out)
    assert len(rows) == 3


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"b1": 1.0, "b2": 4.0, "x2": 0.2, "bogus": 7}))
    code, _, err = _run(capsys, ["bands", "--config", str(cfg)])
    assert code == 2
    assert "bogus" in err


# each subcommand's own flags; all five also take --b1 --b2 --x2 --format
# --output --config
OWN_FLAGS = {
    "bands": ("--lambda-max",),
    "resonances": ("--k", "--lambda-max", "--re-min", "--re-max", "--im-min"),
    "transmission": ("--k", "--lambda-max", "--grid-re"),
    "fixed-points": ("--lambda-max", "--grid-re"),
    "converge": ("--lambda-max", "--im-min", "--k-list", "--band-index"),
}
VALUES = {"--k": "5", "--lambda-max": "3", "--re-min": "0.5", "--re-max": "1",
          "--im-min": "-1", "--grid-re": "9", "--k-list": "4", "--band-index": "1"}


def test_each_subcommand_takes_exactly_its_own_flags(capsys):
    parser = build_parser()
    dropped = 0
    for command, own in OWN_FLAGS.items():
        for flag, value in VALUES.items():
            if flag in own:
                args = parser.parse_args([command, *CELL_A, flag, value])
                assert getattr(args, flag[2:].replace("-", "_")) is not None
                continue
            dropped += flag not in ("--k-list", "--band-index")
            code, out, err = _run(capsys, [command, *CELL_A, flag, value])
            assert (code, out) == (2, "")
            assert flag in err
    assert dropped == 17  # of the flags every subcommand used to accept


def test_config_key_not_read_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for command, key in (("bands", "k"), ("transmission", "re_max"),
                         ("fixed-points", "im_min"), ("converge", "grid_re"),
                         ("resonances", "grid_re")):
        cfg.write_text(json.dumps({"b1": 1.0, "b2": 4.0, "x2": 0.2, key: 1}))
        code, out, err = _run(capsys, [command, "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert repr(key) in err


def test_config_value_takes_its_flags_type(tmp_path, capsys):
    # --grid-re 2.5 and --format xml are usage errors, so the same values from a file are too
    cfg = tmp_path / "run.json"
    for key, value in (("grid_re", 2.5), ("format", "xml")):
        cfg.write_text(json.dumps({"b1": 1.0, "b2": 4.0, "x2": 0.2, key: value}))
        code, out, err = _run(capsys, ["transmission", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert key in err


@pytest.mark.parametrize("command, key", [("transmission", "k"), ("transmission", "grid_re"),
                                          ("bands", "lambda_max"), ("converge", "band_index")])
def test_config_null_takes_the_default(tmp_path, capsys, command, key):
    extra = ["--k-list", "2"] if command == "converge" else []
    code, want, _ = _run(capsys, [command, *CELL_A, *extra])
    assert code == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"b1": 1.0, "b2": 4.0, "x2": 0.2, key: None}))
    assert _run(capsys, [command, "--config", str(cfg), *extra]) == (0, want, "")


def test_config_k_list_runs_as_the_flag(tmp_path, capsys):
    code, want, _ = _run(capsys, ["converge", *CELL_A, "--k-list", "4,8"])
    assert code == 0 and len(_rows(want)[1]) == 2
    cfg = tmp_path / "run.json"
    for k_list in ("4,8", [4, 8]):
        cfg.write_text(json.dumps({"b1": 1.0, "b2": 4.0, "x2": 0.2, "k_list": k_list}))
        assert _run(capsys, ["converge", "--config", str(cfg)]) == (0, want, "")


def test_usage_errors_return_2_without_raising(capsys):
    for argv in (["bands", *CELL_A, "--bogus", "1"], [], ["nope"],
                 ["bands", *CELL_A, "--lambda-max", "x"], ["bands", *CELL_A, "--lambda"],
                 ["converge", *CELL_A, "--k-list", "4,x"]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert "usage" in err
    code, out, _ = _run(capsys, ["bands", "--help"])
    assert code == 0 and "--lambda-max" in out


def test_invalid_settings_exit_2_and_preconditions_exit_3(capsys):
    for argv in (["transmission", *CELL_A, "--grid-re", "1"],
                 ["fixed-points", *CELL_A, "--grid-re", "1"],
                 ["transmission", *CELL_A, "--k", "0"],
                 ["resonances", *CELL_A, "--k", "0"],
                 ["resonances", *CELL_A, "--re-min", "3", "--re-max", "2"],
                 ["resonances", *CELL_A, "--k", "4", "--im-min", "nan"],
                 ["transmission", *CELL_A, "--lambda-max", "nan"],
                 ["converge", *CELL_A, "--k-list", "4", "--band-index", "9"]):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.strip()
    # the library checks the cell count and the window order, as for any caller
    for argv, message in ((["transmission", *CELL_A, "--k", "0"],
                           "cell count must be a positive integer, got 0"),
                          (["resonances", *CELL_A, "--re-min", "3", "--re-max", "2"],
                           "window ill ordered: [3.0, 2.0]")):
        assert message in _run(capsys, argv)[2]
    code, _, err = _run(capsys, ["fixed-points", "--b1", "2", "--b2", "2", "--x2", "0.3"])
    assert code == 3
    assert "two-step" in err


@pytest.mark.parametrize("error", [ContourThroughZeroError("phase winding failed"),
                                   StepslabError("solver gave up")])
def test_numerical_failure_exits_4(capsys, monkeypatch, error):
    def fail(*args):
        raise error
    monkeypatch.setattr(cli, "find_bands", fail)
    code, out, err = _run(capsys, ["bands", *CELL_A])
    assert code == 4
    assert out == ""
    assert str(error) in err
