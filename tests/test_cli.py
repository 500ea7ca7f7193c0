"""Command-line interface: payload schemas, determinism, exit codes."""

import contextlib
import io
import json
import math
import pathlib
import shlex

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import curve_points, quad_dist_sq, quad_inner, quad_norm_sq
from fucik import cli, closedform, grammatrix, nearness, paleywiener
from fucik.eigenfunction import SineMode, breakpoints, build, bump_table, evaluate_panels
from fucik.errors import FucikError, OutOfDomain
from fucik.quadrature import _CALL_NODES, _NODES, inner_numeric
from fucik.cli import MAX_ROWS, main
from fucik.spectrum import FucikPoint, complete_point, curve_residual, gamma_line_point


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
        p = FucikPoint(int(n_str), float(a_str), float(b_str))
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
    assert set(doc) == {
        "schema", "command", "version", "n", "alpha", "beta", "parity", "case", "residual",
        "norm_sq", "norm_case", "dist_sq", "dist_case", "inner_same", "inner_case",
        "kato_weakened_term",
    }
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


def test_huge_growth_constant_is_usage_error(capsys):
    for cmd in ("check-theorem1", "check-theorem2"):
        code, out, err = run(capsys, cmd, "--mode", "power", "--epsilon", "0.1",
                             "--even-c", "5e306")
        assert code == 2 and out == ""
        assert "rule constants" in err


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


def _count_panel_nodes(monkeypatch):
    """The sizes of the node arrays the verify suites evaluate, one per call."""
    nodes = []

    def counted(*bumps_and_x):
        nodes.append(bumps_and_x[-1].size)
        return evaluate_panels(*bumps_and_x)

    monkeypatch.setattr(cli, "evaluate_panels", counted)
    return nodes


def test_verify_closedform_evaluates_each_node_once(capsys, monkeypatch):
    # the three integrals of an eigenfunction share its panels, so each
    # Gauss node is evaluated once for all three; every piece is accepted
    # at the first level, 48 nodes (16 for the whole panel, 32 for its
    # two halves) for each of the n pieces of a degree-n eigenfunction
    nodes = _count_panel_nodes(monkeypatch)
    code, _, _ = run(capsys, "verify", "--suite", "closedform", "--nmax", "6", "--points", "3")
    assert code == 0
    assert sum(nodes) == 48 * sum(3 * n for n in range(2, 7)) == 2880


def test_verify_paleywiener_evaluates_f2_once_per_band(capsys, monkeypatch):
    # A_1 .. A_40 are integrated as two rows of 20 k per gamma, so f2 is
    # evaluated once per node for a row's 20 sines: 2112 nodes for the
    # three gammas, 16 for the whole panel of each of the 12 pieces and
    # 32 for the halves of each of the 60 panels of all levels, where one
    # integral per k would evaluate f2 anew for each of the 40 k
    nodes = _count_panel_nodes(monkeypatch)
    code, _, _ = run(capsys, "verify", "--suite", "paleywiener")
    assert code == 0
    assert sum(nodes) == 2112


@pytest.mark.parametrize("suite", ["closedform", "paleywiener"])
def test_verify_evaluator_calls_stay_under_the_node_cap(capsys, monkeypatch, suite):
    # the first call of a batch covers one panel and tells k, so no call,
    # the first included, returns more than _CALL_NODES values (nodes
    # times k)
    sizes = []
    integrate_many = cli.integrate_many

    def recording(evaluator, *args):
        def recorded(owner, x):
            values = evaluator(owner, x)
            sizes.append(values.size)
            return values

        return integrate_many(recorded, *args)

    monkeypatch.setattr(cli, "integrate_many", recording)
    code, _, _ = run(capsys, "verify", "--suite", suite, "--nmax", "24", "--points", "6")
    assert code == 0
    assert len(sizes) > 1 and max(sizes) <= _CALL_NODES


def _suite_functions():
    """The eigenfunctions the verify suites integrate, at the workload's
    largest shape: closedform samples, the paleywiener f2 and the gram pairs."""
    points = [p for n in range(2, 25) for p in cli._curve_samples(n, 6)]
    points += [gamma_line_point(2, gamma) for gamma in (4.5, 5.0, 5.5)]
    system = nearness.GammaLine(5.0)
    return points + [p for i in range(1, 9) if (p := system.point(i)).case != "diagonal"]


def test_stack_finds_the_bump_once_per_panel():
    # on panels of every piece, whole, a sub-panel inside it and 1e-9 wide
    # ones touching its junctions, each as the 32 nodes of its two halves,
    # the per-row lookup gives the per-node values bit for bit: those of
    # one-node panels, each node its own row
    t = bump_table(_suite_functions())
    rows, lo, hi = [], [], []
    for r, row in enumerate(t.junctions):
        a, b = row[:-1][row[1:] > row[:-1]], row[1:][row[1:] > row[:-1]]
        inside = (a + 0.3 * (b - a), a + 0.6 * (b - a))
        for left, right in ((a, b), (a, a + 1e-9), (b - 1e-9, b), inside):
            rows += [r] * a.size
            lo.append(left)
            hi.append(right)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    mid = 0.5 * (lo + hi)
    a, b = np.column_stack([lo, mid]), np.column_stack([mid, hi])
    x = ((0.5 * (b + a))[:, :, None] + (0.5 * (b - a))[:, :, None] * _NODES).reshape(len(lo), -1)
    rows = np.array(rows)[:, None]
    per_node = evaluate_panels(*t.bumps[:, np.repeat(rows, x.shape[1], axis=0)], x.reshape(-1, 1))
    assert evaluate_panels(*t.bumps[:, rows], x).tobytes() == per_node.tobytes()

    # the domain guard still holds per node
    for bad in (math.nan, math.pi + 1e-11, -1e-11):
        probe = x[:3].copy()
        probe[1, 5] = bad
        with pytest.raises(OutOfDomain):
            evaluate_panels(*t.bumps[:, rows[:3]], probe)


def test_verify_suites_match_the_per_integral_oracle(capsys):
    # the suites hand all their integrals to the oracle at once; a loop of
    # single integrals must reproduce every observed value bit for bit
    code, out, _ = run(capsys, "verify", "--nmax", "6", "--points", "3")
    assert code == 0
    assert run(capsys, "verify", "--nmax", "6", "--points", "3")[1] == out
    observed = {c["name"]: c["observed"] for c in json.loads(out)["checks"]}

    worst = {"norm_sq": 0.0, "dist_sq": 0.0, "inner_same": 0.0}
    for n in range(2, 7):
        for p in cli._curve_samples(n, 3):
            for name, exact, quad in (
                    ("norm_sq", closedform.norm_sq(p), quad_norm_sq(p)),
                    ("dist_sq", closedform.dist_sq_to_sine(p), quad_dist_sq(p)),
                    ("inner_same", closedform.inner_same_index(p), quad_inner(p, n))):
                worst[name] = max(worst[name], abs(exact.value - quad))
    for name, delta in worst.items():
        assert observed[f"closedform_vs_oracle_{name}"] == delta, name

    worst = 0.0
    for gamma in (4.5, 5.0, 5.5):
        f2 = build(gamma_line_point(2, gamma))
        for k in range(1, 41):
            quad = (2 / math.pi) * inner_numeric(f2, SineMode(k), breakpoints(f2))
            worst = max(worst, abs(paleywiener.fourier_Ak(gamma, k) - quad))
    assert observed["fourier_Ak_vs_oracle"] == worst

    system = nearness.GammaLine(5.0)
    g5 = grammatrix.build_gram(system, 8)
    funcs = {i: build(p) for i in range(1, 9) if (p := system.point(i)).case != "diagonal"}
    worst = 0.0
    for i in funcs:
        for j in funcs:
            if i < j:
                f, h = funcs[i], funcs[j]
                quad = inner_numeric(
                    f, h, np.sort(np.concatenate((breakpoints(f), breakpoints(h)))), 1e-11)
                worst = max(worst, abs(g5.entries[i - 1, j - 1] - quad))
    assert observed["gram_entries_vs_oracle"] == worst


def test_gram_rows_do_not_depend_on_the_largest_size(capsys):
    # a scan assembles its largest size once; the N = 32 row must not
    # depend on which larger size it was cut from
    rows = []
    for sizes in ("8,16,32", "32,512"):
        code, out, _ = run(capsys, "gram", "--mode", "gamma-line", "--gamma", "5.55",
                           "--sizes", sizes)
        assert code == 0
        rows.append(next(line for line in out.splitlines() if line.startswith("32,")))
    assert rows[0] == rows[1]


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
    malformed = ("n=2,alpha", "n=x,alpha=9", "n=2.5,alpha=9", "n=2,alpha=abc")
    for entry in ("alpha=9", "n=2,alpha=9,alpha=10", *malformed):
        code, out, err = run(capsys, "check-theorem1", "--mode", "finite", "--entry", entry)
        assert code == 2 and out == ""
        assert entry in err
        assert entry not in malformed or "n=<int>,alpha=<float>" in err
    with pytest.raises(SystemExit):
        main(["no-such-command"])


_SUBCOMMANDS = ("point", "eval", "distance", "verify", "check-theorem1", "check-theorem2",
                "gamma-scan", "region", "gram")


def _help_text(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_parser_built_once_and_unchanged_by_use(capsys):
    """One parser serves every main call; errors and --help leave it as built."""
    cli._build_parser.cache_clear()
    commands = [("point", "--n", "3", "--alpha", "20"),
                ("check-theorem1", "--mode", "power", "--epsilon", "0.5",
                 "--even-cap-fraction", "0.5", "--odd-c", "0.01"),
                ("region", "--epsilon", "0.5", "--branch", "even")]
    first = [run(capsys, *argv) for argv in commands]
    assert all(code == 0 and out for code, out, _ in first)

    def rerun_matches_first():
        capsys.readouterr()
        return all(run(capsys, *argv)[1] == out for argv, (_, out, _) in zip(commands, first))

    assert main(["point", "--n", "2"]) == 2  # usage error
    assert rerun_matches_first()
    for argv in (["point", "--n", "two"], ["region", "--help"]):  # argparse error, help
        with pytest.raises(SystemExit):
            main(argv)
        assert rerun_matches_first()
    fresh = cli._build_parser.__wrapped__()
    for argv in [["--help"], ["--version"]] + [[name, "--help"] for name in _SUBCOMMANDS]:
        assert _help_text(capsys, main, argv) == _help_text(capsys, fresh.parse_args, argv)
    assert cli._build_parser.cache_info().misses == 1


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
    assert str(MAX_ROWS) in err
    # --from nan gave "nan rows" as its reason, and --step inf one row
    for option in ("--from", "--to", "--step"):
        for bad in ("nan", "inf", "-inf"):
            args = {"--from": "4", "--to": "4.2", "--step": "0.05", option: bad}
            code, out, err = run(capsys, "gamma-scan", *[f"{k}={v}" for k, v in args.items()])
            assert code == 2 and out == ""
            assert f"{option} {bad}" in err or f"{option} must be finite" in err


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


def _unreachable(*args, **kwargs):
    raise AssertionError("the work must not start")


@pytest.mark.parametrize("argv, work", [
    ("point --n 2 --samples 100001 --nmax 2", (cli, "complete_point")),
    ("point --n 2 --samples 50001 --nmax 3", (cli, "complete_point")),
    ("point --n 2 --samples 50 --nmax 1", (cli, "complete_point")),
    ("point --n 2 --samples 2 --nmax 50001", (cli, "complete_point")),
    ("eval --n 2 --diagonal --samples 100001", (cli, "build")),
    ("eval --n 2 --diagonal --samples 1", (cli, "build")),
    ("region --epsilon 0.5 --n-to 100001", (nearness, "region_boundary")),
    ("region --epsilon 0.5 --n-from -3", (nearness, "region_boundary")),
    ("region --epsilon 0.5 --n-from 10 --n-to 9", (nearness, "region_boundary")),
    ("check-theorem1 --mode diagonal --n-partial -5", (nearness, "theorem1_check")),
    ("check-theorem1 --mode diagonal --n-partial 1", (nearness, "theorem1_check")),
    ("check-theorem2 --mode gamma-line --gamma 5 --n-partial 100001",
     (nearness, "theorem2_check")),
    ("gram --mode diagonal --sizes 0,4", (grammatrix, "riesz_scan")),
    ("gram --mode diagonal --sizes 8,513", (grammatrix, "riesz_scan")),
    ("verify --nmax 65", "suites"),
    ("verify --nmax 1", "suites"),
    ("verify --points 0", "suites"),
    ("verify --suite closedform --points 65", "suites"),
    ("verify --suite quadrature --tol nan", "suites"),
    ("verify --suite quadrature --tol 0", "suites"),
    ("verify --suite quadrature --tol=-1e-13", "suites"),
    # the quadrature suite refuses 1e-11 before the closedform suite runs
    ("verify --suite all --tol 1e-11", "suites"),
])
def test_counts_bounded_before_work(capsys, monkeypatch, argv, work):
    if work == "suites":
        for name, (tol, _) in list(cli._SUITES.items()):
            monkeypatch.setitem(cli._SUITES, name, (tol, _unreachable))
    else:
        monkeypatch.setattr(*work, _unreachable)
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("usage error: ")


def test_region_non_finite_is_usage_error(capsys):
    for argv in ("region --epsilon nan", "region --epsilon inf",
                 "region --epsilon 0.5 --compare --gamma inf --c 0.4",
                 "region --epsilon 0.5 --compare --gamma 5 --c nan",
                 "region --epsilon 0.5 --compare --gamma 3.9 --c 0.4",
                 "region --epsilon nan --compare --gamma 5 --c 0.4"):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == "", argv
        assert err.startswith("usage error: ")



@pytest.mark.parametrize("argv", [
    "region --epsilon 0",
    "region --epsilon 1100",  # zeta(1 + epsilon) - 1 underflows
    "check-theorem1 --mode power --epsilon 0 --even-c 1",
    "check-theorem1 --mode power --epsilon 0.5 --even-c -1",
    "check-theorem1 --mode power --epsilon 1000 --even-cap-fraction 1e10",  # c_2 above 1e300
    "region --epsilon 0.5 --compare --gamma 5 --c 1e301",  # refused as a power family's c
    "check-theorem1 --mode finite --entry n=2,alpha=9 --entry n=2,beta=4",
    "gram --mode diagonal --sizes 8,x",
])
def test_refused_inputs_raise_usage_or_package_errors(capsys, argv):
    # a refusal is a UsageError or a FucikError where it is raised, never a
    # bare ValueError that main would have to take for one
    args = cli._build_parser().parse_args(argv.split())
    with pytest.raises((cli.UsageError, FucikError)):
        args.handler(args, [])
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == "" and err.startswith("usage error: ")


@pytest.mark.parametrize("argv, message", [
    ("check-theorem1 --mode finite --entry n=2,gamma=9", "needs alpha= or beta="),
    ("check-theorem1 --mode finite --entry n=2,alpha=9,foo=1", "unknown entry keys ['foo']"),
    ("check-theorem1 --mode power --even-c 1", "--mode power needs --epsilon"),
    ("check-theorem2 --mode gamma-line", "--mode gamma-line needs --gamma"),
])
def test_system_options_refused_with_their_message(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == "" and err.startswith("usage error: ") and message in err


def test_a_fault_is_not_reported_as_a_usage_error(capsys, monkeypatch):
    def fault(g):
        raise ValueError("matrix asymmetry 1.000e-03 exceeds 1e-12")

    monkeypatch.setattr(grammatrix, "extreme_eigenvalues", fault)
    with pytest.raises(ValueError, match="asymmetry"):
        main(["gram", "--mode", "diagonal", "--sizes", "4"])
    assert "usage error" not in capsys.readouterr().err

def _readme_commands():
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").strip().splitlines()
    return [shlex.split(line.split("#", 1)[0])[1:] for line in lines]


def test_readme_commands_run(capsys):
    commands = _readme_commands()
    assert len(commands) == 10
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1) and out, argv


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(p=curve_points())
def test_distance_payload_deterministic(p):
    outputs = []
    for _ in range(2):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            assert main(["distance", "--n", str(p.n), "--alpha", repr(p.alpha)]) == 0
        outputs.append(buffer.getvalue())
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    q = complete_point(p.n, alpha=p.alpha)
    assert doc["norm_sq"] == closedform.norm_sq(q).value
    assert doc["dist_sq"] == closedform.dist_sq_to_sine(q).value
