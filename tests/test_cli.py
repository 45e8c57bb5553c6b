import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bregmanprox import verify
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
    """Reversed, infinite or overflowing ends exit 2 instead of printing nan abscissae."""
    for spec in ("1:0:3", "-inf:1:3", "0:1e400:3", "-1e308:1e308:3"):
        code, out, err = run_cli(capsys, "curve", "--instance", "euclid_abs",
                                 "--what", "f,env", f"--grid={spec}")
        assert code == 2 and "bad grid spec" in err and out == "", spec


def test_curve_ybar_out_of_range(capsys):
    """A finite grid whose ybar overflows kappa exits 2 naming that ybar."""
    code, out, err = run_cli(capsys, "curve", "--instance", "euclid_abs",
                             "--what", "f,env", "--grid=0:1e200:3")
    assert code == 2 and out == ""
    assert "out of range" in err and "5e+199 " in err


@pytest.mark.parametrize("what", ["f", "f,env", "hull"])
def test_curve_f_overflow_exits_2(capsys, what):
    """ex419's f = (x-1)^4/4 - x^4/4 overflows to inf - inf far out: every
    column that evaluates f there exits 2 naming the point, not a traceback."""
    code, out, err = run_cli(capsys, "curve", "--instance", "ex419",
                             "--what", what, "--grid=0:1e200:3")
    assert code == 2 and out == ""
    assert "out of range" in err and "5e+199" in err


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


def test_curve_output_to_a_missing_directory_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "curve.csv"
    code, out, err = run_cli(capsys, "curve", "--instance", "euclid_zero",
                             "--what", "env", "--grid", "-1:1:5", "--output", str(path))
    assert code == 2 and out == ""
    assert "No such file or directory" in err and str(path) in err


def test_curve_output_to_a_directory_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "curve", "--instance", "euclid_zero",
                             "--what", "env", "--grid", "-1:1:5", "--output", str(tmp_path))
    assert code == 2 and out == ""
    assert "Is a directory" in err and str(tmp_path) in err


EXAMPLE_IDS = ["3.10", "4.11", "4.19", "4.20", "ln"]
REPRODUCE = Path(__file__).parent / "data" / "reproduce.txt"


def reproduce_transcript(capsys):
    """Each example's command, printed text and exit code, one after another."""
    parts = []
    for example in EXAMPLE_IDS:
        code, out, _ = run_cli(capsys, "reproduce", example)
        parts.append(f"$ bregmanprox reproduce {example}\n{out}exit {code}\n")
    return "".join(parts)


@pytest.mark.parametrize("grid_n", [None, "4001"])
def test_reproduce_text_and_exit_codes_are_pinned(capsys, monkeypatch, grid_n):
    """Every ``reproduce`` id prints the text in ``data/reproduce.txt`` and
    exits as recorded there, at the default grid and at 4001 points."""
    if grid_n is None:
        monkeypatch.delenv("BREGMAN_GRID_N", raising=False)
    else:
        monkeypatch.setenv("BREGMAN_GRID_N", grid_n)
    assert reproduce_transcript(capsys) == REPRODUCE.read_text()


@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_reproduce_all_pass(capsys, example):
    code, out, _ = run_cli(capsys, "reproduce", example)
    assert code == 0
    assert "[FAIL]" not in out


def _witness_line(out):
    return next(l for l in out.splitlines() if "non-maximality witness" in l)


def test_reproduce_411_witness_needs_the_certificate_to_reject_it(capsys, monkeypatch):
    """The witness line reads the program's certificate: one that accepts
    (0.5, 1.0) fails the line and the command."""
    monkeypatch.setattr(verify, "left_lpsubdiff_definitional",
                        lambda inst, x, u: (True, 0.0, 1.0), raising=False)
    code, out, _ = run_cli(capsys, "reproduce", "4.11")
    assert _witness_line(out).startswith("[FAIL]")
    assert code == 1


def test_reproduce_411_witness_reads_the_computed_graph(capsys, monkeypatch):
    """The witness line reads the hull-route graph over [0, 1]: raising its
    upper end at 0 from 1/2 to 2 makes (0.5, 1.0) unrelated, and the line fails."""
    real = verify.left_lpsubdiff_hull

    def raised(inst, xs):
        sets = real(inst, xs)
        lift = lambda s: s if s.is_empty else dataclasses.replace(s, hi=2.0)
        return lift(sets) if np.ndim(xs) == 0 else [lift(s) for s in sets]

    monkeypatch.setattr(verify, "left_lpsubdiff_hull", raised)
    code, out, _ = run_cli(capsys, "reproduce", "4.11")
    assert _witness_line(out).startswith("[FAIL]")
    assert code == 1


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
