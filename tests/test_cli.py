"""Command-line interface: payload schemas, determinism, exit codes."""

import json
import math

import pytest

from fucik import paleywiener
from fucik.cli import (
    GAMMA_SCAN_MAX_ROWS,
    CommandRequest,
    UsageError,
    emit_figure_data,
    execute,
    main,
)
from fucik.spectrum import FucikPoint, curve_residual, diagonal_point


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_point_json(capsys):
    code, out, err = run(capsys, "point", "--n", "2", "--alpha", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["beta"] == 2.25
    assert doc["case"] == "alpha_dominant"
    assert "checks passed" in err


def test_point_determinism(capsys):
    for command in ("point", "distance"):
        _, out1, _ = run(capsys, command, "--n", "3", "--alpha", "11.73")
        _, out2, _ = run(capsys, command, "--n", "3", "--alpha", "11.73")
        assert out1 == out2


def test_point_curve_samples(capsys):
    code, out, _ = run(capsys, "point", "--n", "2", "--samples", "50", "--nmax", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,alpha,beta"
    assert len(lines) >= 3 * 50 + 1
    for line in lines[1:]:
        n_str, a_str, b_str = line.split(",")
        p = FucikPoint(int(n_str), float(a_str), float(b_str),
                       "even" if int(n_str) % 2 == 0 else "odd", "diagonal")
        assert abs(curve_residual(p)) < 1e-9


def test_eval_diagonal_profile(capsys):
    code, out, _ = run(capsys, "eval", "--n", "3", "--diagonal", "--samples", "33")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    for x_str, f_str, s_str in rows:
        assert float(f_str) == pytest.approx(float(s_str), abs=1e-14)
        assert float(f_str) == pytest.approx(math.sin(3 * float(x_str)), abs=1e-12)


def test_distance_payload(capsys):
    code, out, _ = run(capsys, "distance", "--n", "2", "--alpha", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["norm_sq"] == pytest.approx(math.pi / 2 - math.pi / 8, abs=1e-13)
    assert doc["dist_case"] == "even_alpha"
    assert doc["kato_weakened_term"] <= doc["dist_sq"]


def test_gamma_scan(capsys):
    code, out, _ = run(capsys, "gamma-scan", "--from", "4", "--to", "4.2", "--step", "0.05")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    values = [float(e) for _, e in rows]
    assert values[0] == 0.0
    assert values == sorted(values)
    assert len(rows) == 5


def test_check_theorem1_exit_codes(capsys):
    code, out, _ = run(capsys, "check-theorem1", "--mode", "power", "--epsilon", "0.5",
                       "--even-cap-fraction", "0.5", "--odd-cap-fraction", "0.5")
    assert code == 0
    assert json.loads(out)["verdict"] == "riesz_basis_certified"
    code, out, _ = run(capsys, "check-theorem1", "--mode", "finite",
                       "--entry", "n=2,alpha=9")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "inconclusive"
    assert doc["total_upper"] == pytest.approx(4.4923394, abs=1e-6)


def test_check_theorem2_gamma_line(capsys):
    code, out, _ = run(capsys, "check-theorem2", "--mode", "gamma-line", "--gamma", "5")
    assert code == 1
    assert json.loads(out)["tail_bound"] == "inf"


def test_region_and_compare(capsys):
    code, out, _ = run(capsys, "region", "--epsilon", "0.5", "--branch", "even",
                       "--n-from", "2", "--n-to", "10")
    assert code == 0
    assert out.splitlines()[0] == "n,boundary"
    assert len(out.strip().splitlines()) == 10
    code, out, _ = run(capsys, "region", "--epsilon", "0.5", "--compare",
                       "--gamma", "5.6", "--c", "0.4", "--n-from", "2", "--n-to", "40")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    # the line family eventually outgrows the power-cap boundary
    last = rows[-1]
    assert float(last[2]) > float(last[1])


def test_gram_command(capsys):
    code, out, _ = run(capsys, "gram", "--mode", "diagonal", "--sizes", "4,8")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["4", "8"]
    for _, lo, hi in rows:
        assert float(lo) == pytest.approx(1.0, abs=1e-13)
        assert float(hi) == pytest.approx(1.0, abs=1e-13)


def test_verify_quadrature_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "quadrature")
    assert code == 0
    doc = json.loads(out)
    assert all(c["passed"] for c in doc["checks"])


def test_verify_gram_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gram")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    oracle = checks["gram_entries_vs_oracle"]
    assert oracle["passed"] and oracle["observed"] <= 1e-11


def test_verify_closedform_suite_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "closedform",
                       "--nmax", "5", "--points", "4")
    assert code == 0
    doc = json.loads(out)
    names = {c["name"] for c in doc["checks"]}
    assert "closedform_vs_oracle_dist_sq" in names
    assert all(c["observed"] <= c["tolerance"] for c in doc["checks"])


def test_csv_determinism(capsys):
    for argv in (("gamma-scan", "--from", "4", "--to", "4.5", "--step", "0.1"),
                 ("gram", "--mode", "gamma-line", "--gamma", "5", "--sizes", "8,16")):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def test_verify_tol_only_tightens(capsys):
    code, _, err = run(capsys, "verify", "--suite", "quadrature", "--tol", "1e-3")
    assert code == 2
    assert "usage error" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "point", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "check-theorem1", "--mode", "finite")
    assert code == 2
    code, _, err = run(capsys, "eval", "--n", "2", "--alpha", "9", "--beta", "4")
    assert code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_point_non_finite_is_usage_error(capsys):
    for flag in ("--alpha", "--beta"):
        for bad in ("nan", "inf"):
            code, out, err = run(capsys, "point", "--n", "4", flag, bad)
            assert code == 2 and out == ""
            assert "finite" in err


def test_gamma_scan_row_cap(capsys, monkeypatch):
    def unreachable(gamma):
        raise AssertionError("the scan loop must not start")

    monkeypatch.setattr(paleywiener, "E_gamma_extended", unreachable)
    code, out, err = run(capsys, "gamma-scan", "--from", "4", "--to", "5.682",
                         "--step", "1e-9")
    assert code == 2 and out == ""
    assert str(GAMMA_SCAN_MAX_ROWS) in err
    for bad in (("--to", "inf"), ("--step", "nan")):
        args = {"--from": "4", "--to": "4.2", "--step": "0.05"}
        args.update([bad])
        code, out, _ = run(capsys, "gamma-scan", *[v for kv in args.items() for v in kv])
        assert code == 2 and out == ""


def test_output_file(tmp_path, capsys):
    target = tmp_path / "prof.csv"
    code = main(["eval", "--n", "2", "--diagonal", "--samples", "11",
                 "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    assert text.startswith("x,f,sine\n")
    assert text.endswith("\n")
    assert "\r" not in text


def test_execute_api():
    req = CommandRequest(command="point", parameters={"n": 2, "alpha": 9.0})
    report, code = execute(req)
    assert code == 0
    assert report.command == "point"
    assert report.passed
    assert report.wall_time >= 0.0


def test_emit_figure_data_validation():
    with pytest.raises(UsageError):
        emit_figure_data("no-such-kind", {})
    payload = emit_figure_data("eigenfunction_profile",
                               {"point": diagonal_point(3), "samples": 5})
    assert payload.splitlines()[0] == "x,f,sine"
