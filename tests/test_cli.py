import io
import json
import math

import numpy as np
import pytest

from bregmanprox.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    rows = [[float(tok) for tok in l.split(",")] for l in lines[1:]]
    return header, rows


def test_list(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "ex310" in out and "euclid_abs" in out


def test_curve_hull_below_f_on_positive_side(capsys):
    code, out, _ = run_cli(capsys, "curve", "--instance", "ex310",
                           "--what", "f,hull", "--grid", "-0.999:0.999:401")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "f", "hull"]
    for x, f, hull in rows:
        if x >= 0.05:
            assert hull < f - 1e-6
        if x <= -0.05:
            assert abs(hull - f) <= 1e-6


def test_curve_h_lambda_ex419(capsys):
    code, out, _ = run_cli(capsys, "curve", "--instance", "ex419",
                           "--what", "h_lambda", "--grid", "-3:3:241")
    assert code == 0
    _, rows = parse_csv(out)
    for xi, h in rows:
        assert abs(h + xi) <= 1e-4


def test_curve_h_lambda_outside_dual_domain_reads_inf(capsys):
    # Burg: int dom kappa* = (-inf, 0), so h_lambda is finite only for xi < 0
    code, out, _ = run_cli(capsys, "curve", "--instance", "ex_ln",
                           "--what", "h_lambda", "--grid", "-1:1:5")
    assert code == 0
    _, rows = parse_csv(out)
    assert [xi for xi, _ in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all(math.isfinite(h) for xi, h in rows if xi < 0)
    assert all(h == math.inf for xi, h in rows if xi >= 0)


def test_curve_env_is_huber(capsys):
    code, out, _ = run_cli(capsys, "curve", "--instance", "euclid_abs",
                           "--what", "env", "--grid", "-3:3:61")
    assert code == 0
    _, rows = parse_csv(out)
    for y, e in rows:
        expected = y * y / 2 if abs(y) <= 1 else abs(y) - 0.5
        assert abs(e - expected) <= 1e-8


def test_curve_csv_roundtrip_bit_exact(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "curve", "--instance", "euclid_abs",
                           "--what", "f,env,prox", "--grid", "-2:2:41")
    assert code == 0
    header, rows = parse_csv(out)
    # re-render the parsed floats: identical file
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format(v, ".17g") if math.isfinite(v)
                              else ("nan" if math.isnan(v) else
                                    ("inf" if v > 0 else "-inf")) for v in row))
    assert "\n".join(lines) + "\n" == out


def test_curve_inf_rendering(capsys):
    code, out, _ = run_cli(capsys, "curve", "--instance", "ex411",
                           "--what", "f,subdiff-lo,subdiff-hi", "--grid", "-0.5:0.5:3")
    assert code == 0
    lines = out.strip().splitlines()
    row_neg = lines[1].split(",")
    assert row_neg[1] == "inf"          # f(-0.5) outside effective domain
    row_zero = lines[2].split(",")
    assert row_zero[1] == "0"
    assert row_zero[2] == "-inf"        # unbounded lower endpoint at 0
    assert abs(float(row_zero[3]) - 0.5) <= 1e-4


def test_curve_unknown_instance(capsys):
    code, _, err = run_cli(capsys, "curve", "--instance", "nosuch",
                           "--what", "f", "--grid", "0:1:3")
    assert code == 2 and "unknown instance" in err


def test_curve_unknown_quantity(capsys):
    code, _, err = run_cli(capsys, "curve", "--instance", "ex310",
                           "--what", "banana", "--grid", "0:1:3")
    assert code == 2 and "unknown quantities" in err


def test_curve_bad_grid(capsys):
    code, _, err = run_cli(capsys, "curve", "--instance", "ex310",
                           "--what", "f", "--grid", "1:0:3")
    assert code == 2


def test_curve_hypotheses_unmet_column(capsys):
    code, _, err = run_cli(capsys, "curve", "--instance", "ex_ln",
                           "--what", "subdiff-lo", "--grid", "0.5:2:5")
    assert code == 2 and "hypotheses" in err.lower()


def test_curve_output_file(capsys, tmp_path):
    path = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "curve", "--instance", "euclid_zero",
                           "--what", "env", "--grid", "-1:1:5",
                           "--output", str(path))
    assert code == 0 and out == ""
    header, rows = parse_csv(path.read_text())
    assert header == ["x", "env"]
    assert len(rows) == 5


@pytest.mark.parametrize("example", ["3.10", "4.11", "4.19", "4.20", "ln"])
def test_reproduce_all_pass(capsys, example):
    code, out, _ = run_cli(capsys, "reproduce", example)
    assert code == 0
    assert "[FAIL]" not in out


def test_reproduce_unknown(capsys):
    code, _, err = run_cli(capsys, "reproduce", "9.99")
    assert code == 2 and "unknown example" in err


def test_verify_single_instance_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--instance", "ex420", "--seed", "1")
    assert code == 0
    assert "env-convexity" in out
    assert "a-h-convex=F" in out  # condition false, implications consistent


def test_verify_json_structure(capsys):
    code, out, _ = run_cli(capsys, "verify", "--instance", "euclid_zero",
                           "--seed", "3", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert {r["theorem"] for r in reports} == {
        "weak-convexity", "dfne", "env-convexity", "bcoco", "bsmooth",
        "two-sided", "strong-convexity"}
    for r in reports:
        assert set(r) == {"instance", "theorem", "status", "hypotheses",
                          "conditions", "implications", "seed", "tolerances",
                          "notes"}


def test_verify_unknown_instance(capsys):
    code, _, err = run_cli(capsys, "verify", "--instance", "nosuch")
    assert code == 2 and "unknown instance" in err


def test_verify_requires_target(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


def test_grid_size_env_override(capsys, monkeypatch):
    import bregmanprox.proxenv as pe
    monkeypatch.setenv("BREGMAN_GRID_N", "301")
    from bregmanprox.catalog import get_instance
    eng = pe.engine(get_instance("euclid_zero"))
    assert len(eng.X) == 301


def test_curve_subdiff_near_hull_span_at_fine_grid(capsys, monkeypatch):
    # at N = 4001 this grid puts x = -1.69e-4 within half a cell left of
    # ex411's hull span, which starts at 0
    monkeypatch.setenv("BREGMAN_GRID_N", "4001")
    code, out, err = run_cli(capsys, "curve", "--instance", "ex411", "--what",
                             "subdiff-lo", "--grid",
                             "-0.9182275909293078:0.9178894622808002:7")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert header == ["x", "subdiff-lo"] and len(rows) == 7
