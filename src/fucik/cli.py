"""Command-line front end: point queries, verification suites, figure data.

Payloads (JSON or CSV) go to stdout or --output and are byte-identical
across identical invocations: fixed key order, floats at 17 significant
digits, LF line endings.  The run report (wall time, per-check lines)
goes to stderr so it never perturbs the payload.

Exit codes: 0 all checks passed / verdict certified, 1 a check failed or
a verdict came back inconclusive, 2 usage error.

The ``verify`` suites compare the package's exact bump-route values with
the adaptive quadrature oracle; --tol can only tighten a suite's
tolerance, never loosen.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from . import __version__, closedform, grammatrix, nearness, paleywiener
from .eigenfunction import SineMode, breakpoints, build
from .errors import FucikError
from .quadrature import inner_numeric, merged_breakpoints
from .spectrum import complete_point, curve_residual, diagonal_point

_SCHEMA = "1"

_SUITE_DEFAULT_TOL = {
    "closedform": 1e-9,
    "quadrature": 1e-12,
    "paleywiener": 1e-10,
    "gram": 1e-10,
}


#: largest row count a gamma-scan may produce
GAMMA_SCAN_MAX_ROWS = 100_000


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# deterministic serialization

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        if math.isnan(x):
            return '"nan"'
        return format(x, ".17g")
    raise TypeError(f"cannot format {type(x)}")


def _to_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, dict):
        inner = ", ".join(f'{_to_json(k)}: {_to_json(v)}' for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    return _fmt(obj)


def _csv(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# request / report types

@dataclass
class CommandRequest:
    command: str
    parameters: dict
    output: Optional[str] = None


@dataclass
class RunReport:
    command: str
    payload: str
    wall_time: float
    version: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _check(name: str, passed: bool, tolerance: float, observed: float) -> dict:
    return {"name": name, "passed": bool(passed),
            "tolerance": float(tolerance), "observed": float(observed)}


# ----------------------------------------------------------------------
# figure data

def emit_figure_data(kind: str, params: dict) -> str:
    """CSV payloads backing the package's standard figures.

    Kinds: ``spectrum_curves`` (columns n, alpha, beta), ``eigenfunction_profile``
    (x, f, sine), ``region`` (n, boundary), ``comparison`` (n, boundary,
    line_value).  Every emitted (alpha, beta) pair satisfies the curve
    equation within the package tolerance.
    """
    if kind == "spectrum_curves":
        n_max = int(params.get("n_max", 4))
        samples = int(params.get("samples", 200))
        rows = []
        for n in range(2, n_max + 1):
            lo = (n / 2 if n % 2 == 0 else (n + 1) / 2) * 1.02
            lo = max(lo, 1.02)
            hi = 2.5 * n
            for s in np.linspace(lo, hi, samples):
                p = complete_point(n, alpha=float(s * s))
                rows.append((p.n, p.alpha, p.beta))
        return _csv(["n", "alpha", "beta"], rows)

    if kind == "eigenfunction_profile":
        point = params["point"]
        samples = int(params.get("samples", 201))
        f = build(point)
        xs = np.linspace(0.0, math.pi, samples)
        fx = f(xs)
        sx = np.sin(point.n * xs)
        return _csv(["x", "f", "sine"], list(zip(xs, fx, sx)))

    if kind == "region":
        pts = nearness.region_boundary(params["epsilon"], params["branch"],
                                       range(int(params["n_from"]), int(params["n_to"]) + 1))
        return _csv(["n", "boundary"], pts)

    if kind == "comparison":
        eps = float(params["epsilon"])
        c = float(params["c"])
        gamma = float(params["gamma"])
        rows = []
        for n in range(int(params["n_from"]), int(params["n_to"]) + 1):
            if n % 2 != 0:
                continue
            boundary = n + math.sqrt(c) * n ** ((1.0 - eps) / 2.0)
            line_value = n * math.sqrt(gamma) / 2.0
            rows.append((n, boundary, line_value))
        return _csv(["n", "boundary", "line_value"], rows)

    raise UsageError(f"unknown figure kind {kind!r}")


# ----------------------------------------------------------------------
# command implementations

def _point_payload(p) -> dict:
    return {"n": p.n, "alpha": p.alpha, "beta": p.beta, "parity": p.parity,
            "case": p.case, "residual": curve_residual(p)}


def _resolve_point(args) -> "FucikPoint":
    given = [v is not None for v in (args.alpha, args.beta)] + [bool(getattr(args, "diagonal", False))]
    if sum(given) != 1:
        raise UsageError("give exactly one of --alpha, --beta or --diagonal")
    if getattr(args, "diagonal", False):
        return diagonal_point(args.n)
    if args.alpha is not None:
        return complete_point(args.n, alpha=args.alpha)
    return complete_point(args.n, beta=args.beta)


def _cmd_point(args, checks) -> str:
    if args.samples is not None:
        payload = emit_figure_data("spectrum_curves",
                                   {"n_max": args.nmax, "samples": args.samples})
        return payload
    p = _resolve_point(args)
    body = {"schema": _SCHEMA, "command": "point", "version": __version__}
    body.update(_point_payload(p))
    checks.append(_check("on_curve", abs(curve_residual(p)) <= 1e-9, 1e-9,
                         abs(curve_residual(p))))
    return _to_json(body) + "\n"


def _cmd_eval(args, checks) -> str:
    p = _resolve_point(args)
    return emit_figure_data("eigenfunction_profile", {"point": p, "samples": args.samples})


def _cmd_distance(args, checks) -> str:
    p = _resolve_point(args)
    norm = closedform.norm_sq(p)
    dist = closedform.dist_sq_to_sine(p)
    inner = closedform.inner_same_index(p)
    consistency = abs(inner.value - 0.5 * (norm.value + math.pi / 2 - dist.value))
    checks.append(_check("polarization_consistency", consistency <= 1e-10, 1e-10, consistency))
    body = {"schema": _SCHEMA, "command": "distance", "version": __version__}
    body.update(_point_payload(p))
    body.update({
        "norm_sq": norm.value, "norm_case": norm.formula_case,
        "dist_sq": dist.value, "dist_case": dist.formula_case,
        "inner_same": inner.value, "inner_case": inner.formula_case,
        "kato_weakened_term": nearness.kato_weakened_term(p),
        "singularity_distance": dist.singularity_distance,
    })
    return _to_json(body) + "\n"


def _curve_samples(n: int, count: int):
    """Half alpha-dominant, half beta-dominant points, off the diagonal."""
    out = []
    ratios = np.linspace(1.05, 1.9, (count + 1) // 2)
    for r in ratios:
        out.append(complete_point(n, alpha=float((n * r) ** 2)))
    for r in ratios[: count // 2]:
        out.append(complete_point(n, beta=float((n * r) ** 2)))
    return out


def _suite_closedform(nmax: int, points: int, tol: float, checks: list) -> None:
    worst = {"norm_sq": 0.0, "dist_sq": 0.0, "inner_same": 0.0}
    for n in range(2, nmax + 1):
        for p in _curve_samples(n, points):
            f = build(p)
            bp = breakpoints(f)
            sine = SineMode(n)
            quad_norm = inner_numeric(f, f, bp)
            quad_dist = inner_numeric(lambda x: f(x) - sine(x),
                                      lambda x: f(x) - sine(x), bp)
            quad_inner = inner_numeric(f, sine, bp)
            worst["norm_sq"] = max(worst["norm_sq"], abs(closedform.norm_sq(p).value - quad_norm))
            worst["dist_sq"] = max(worst["dist_sq"], abs(closedform.dist_sq_to_sine(p).value - quad_dist))
            worst["inner_same"] = max(worst["inner_same"], abs(closedform.inner_same_index(p).value - quad_inner))
    for name, delta in worst.items():
        checks.append(_check(f"closedform_vs_oracle_{name}", delta <= tol, tol, delta))


def _suite_quadrature(tol: float, checks: list) -> None:
    from .quadrature import PiecewiseIntegrand, integrate
    worst = 0.0
    for j, k in [(1, 1), (2, 3), (7, 7), (16, 16), (5, 12), (31, 33), (64, 64)]:
        got = integrate(PiecewiseIntegrand(lambda x, a=j, b=k: np.sin(a * x) * np.sin(b * x),
                                           [0.0, math.pi]))
        want = math.pi / 2 if j == k else 0.0
        worst = max(worst, abs(got - want))
    checks.append(_check("trig_orthogonality", worst <= tol, tol, worst))
    base = integrate(PiecewiseIntegrand(lambda x: np.sin(9 * x) ** 2, [0.0, math.pi]))
    split = integrate(PiecewiseIntegrand(lambda x: np.sin(9 * x) ** 2,
                                         [0.0, 0.7, 1.1, 2.0, math.pi]))
    checks.append(_check("breakpoint_insensitivity", abs(base - split) <= tol, tol,
                         abs(base - split)))


def _suite_paleywiener(tol: float, checks: list) -> None:
    worst = 0.0
    for gamma in (4.5, 5.0, 5.5):
        f2 = build(complete_point(2, alpha=gamma))
        bp = breakpoints(f2)
        for k in range(1, 41):
            quad = (2 / math.pi) * inner_numeric(f2, SineMode(k), bp)
            worst = max(worst, abs(paleywiener.fourier_Ak(gamma, k) - quad))
    checks.append(_check("fourier_Ak_vs_oracle", worst <= tol, tol, worst))

    bound_ok = True
    worst_excess = 0.0
    for gamma in (4.5, 5.0, 5.5, paleywiener.GAMMA_MAX):
        a1 = paleywiener.fourier_Ak(gamma, 1)
        a2 = paleywiener.fourier_Ak(gamma, 2)
        excess = max(abs(a1) - paleywiener.ck_bound(gamma, 1),
                     (1 - a2) - paleywiener.ck_bound(gamma, 2),
                     a2 - 1.0)
        for k in range(3, 30):
            excess = max(excess, abs(paleywiener.fourier_Ak(gamma, k)) - paleywiener.ck_bound(gamma, k))
        worst_excess = max(worst_excess, excess)
        bound_ok = bound_ok and excess <= 0
    checks.append(_check("ck_bound_domination", bound_ok, 0.0, worst_excess))
    checks.append(_check("E_at_4_vanishes", paleywiener.E_gamma(4.0) == 0.0, 0.0,
                         paleywiener.E_gamma(4.0)))
    grid = np.arange(paleywiener.GAMMA_MIN, paleywiener.GAMMA_MAX, 0.05)
    vals = [paleywiener.E_gamma(float(g)) for g in grid]
    inc = all(b > a for a, b in zip(vals, vals[1:]))
    checks.append(_check("E_strictly_increasing", inc, 0.0, float(min(np.diff(vals)))))


def _suite_gram(tol: float, checks: list) -> None:
    g = grammatrix.build_gram(nearness.FinitePerturbation(()), 16)
    dev = float(np.max(np.abs(g.normalization * g.entries - np.eye(16))))
    checks.append(_check("diagonal_system_identity", dev <= 1e-12, 1e-12, dev))
    system = nearness.GammaLine(5.0)
    g5 = grammatrix.build_gram(system, 8)
    lo, hi = grammatrix.extreme_eigenvalues(g5)
    checks.append(_check("gamma_line_lambda_min_positive", lo > 0.0, 0.0, lo))
    asym = float(np.max(np.abs(g5.entries - g5.entries.T)))
    checks.append(_check("gram_symmetry", asym <= 1e-12, 1e-12, asym))
    # the eigenfunction pairs, integrated exactly by assembly, against quadrature
    funcs = {i: build(p) for i in range(1, 9) if (p := system.point(i)).case != "diagonal"}
    worst = 0.0
    for i, j in combinations(funcs, 2):
        f, h = funcs[i], funcs[j]
        quad = inner_numeric(f, h, merged_breakpoints(breakpoints(f), breakpoints(h)), 1e-11)
        worst = max(worst, abs(g5.entries[i - 1, j - 1] - quad))
    checks.append(_check("gram_entries_vs_oracle", worst <= tol, tol, worst))


def _cmd_verify(args, checks) -> str:
    suites = ["closedform", "quadrature", "paleywiener", "gram"] if args.suite == "all" else [args.suite]
    for suite in suites:
        default = _SUITE_DEFAULT_TOL[suite]
        tol = default
        if args.tol is not None:
            if args.tol > default:
                raise UsageError(
                    f"--tol may only tighten the {suite} suite below {default:g}"
                )
            tol = args.tol
        if suite == "closedform":
            _suite_closedform(args.nmax, args.points, tol, checks)
        elif suite == "quadrature":
            _suite_quadrature(tol, checks)
        elif suite == "paleywiener":
            _suite_paleywiener(tol, checks)
        elif suite == "gram":
            _suite_gram(tol, checks)
    body = {"schema": _SCHEMA, "command": "verify", "version": __version__,
            "suite": args.suite, "nmax": args.nmax, "checks": checks}
    return _to_json(body) + "\n"


def _system_from_args(args) -> nearness.SystemSpec:
    if args.mode == "diagonal":
        return nearness.FinitePerturbation(())
    if args.mode == "finite":
        if not args.entry:
            raise UsageError("--mode finite needs at least one --entry n=<int>,alpha=<float>")
        entries = []
        for spec in args.entry:
            kv = dict(part.split("=", 1) for part in spec.split(","))
            n = int(kv.pop("n"))
            if "alpha" in kv:
                entries.append(complete_point(n, alpha=float(kv.pop("alpha"))))
            elif "beta" in kv:
                entries.append(complete_point(n, beta=float(kv.pop("beta"))))
            else:
                raise UsageError(f"entry {spec!r} needs alpha= or beta=")
            if kv:
                raise UsageError(f"unknown entry keys {sorted(kv)} in {spec!r}")
        return nearness.FinitePerturbation(tuple(entries))
    if args.mode == "power":
        if args.epsilon is None:
            raise UsageError("--mode power needs --epsilon")
        def rule(c, frac, side):
            if c is None and frac is None:
                return None
            return nearness.BranchRule(c=c, cap_fraction=frac, side=side)
        return nearness.PowerFamily(
            epsilon=args.epsilon,
            even=rule(args.even_c, args.even_cap_fraction, args.even_side),
            odd=rule(args.odd_c, args.odd_cap_fraction, args.odd_side),
        )
    if args.mode == "gamma-line":
        if args.gamma is None:
            raise UsageError("--mode gamma-line needs --gamma")
        return nearness.GammaLine(args.gamma)
    raise UsageError(f"unknown mode {args.mode!r}")


def _cmd_check_theorem(which: int, args, checks) -> str:
    system = _system_from_args(args)
    fn = nearness.theorem1_check if which == 1 else nearness.theorem2_check
    report = fn(system, n_partial=args.n_partial)
    certified = report.verdict == "riesz_basis_certified"
    checks.append(_check("certified", certified, report.threshold, report.total_upper))
    body = {
        "schema": _SCHEMA, "command": f"check-theorem{which}", "version": __version__,
        "mode": args.mode,
        "partial_sum": report.partial_sum, "tail_bound": report.tail_bound,
        "total_upper": report.total_upper, "threshold": report.threshold,
        "verdict": report.verdict, "r": report.r,
    }
    return _to_json(body) + "\n"


def _cmd_gamma_scan(args, checks) -> str:
    if args.step < 1e-9:
        raise UsageError("--step must be at least 1e-9")
    count = (args.gamma_to - args.gamma_from) / args.step + 1
    if not count <= GAMMA_SCAN_MAX_ROWS:
        raise UsageError(f"--from/--to/--step give {count:.3g} rows, "
                         f"more than the cap of {GAMMA_SCAN_MAX_ROWS}")
    rows = []
    g = args.gamma_from
    while g <= args.gamma_to + 1e-12:
        rows.append((g, paleywiener.E_gamma_extended(g)))
        g = round(g + args.step, 12)
    return _csv(["gamma", "E"], rows)


def _cmd_region(args, checks) -> str:
    if args.compare:
        if args.gamma is None or args.c is None:
            raise UsageError("--compare needs --gamma and --c")
        return emit_figure_data("comparison", {
            "epsilon": args.epsilon, "c": args.c, "gamma": args.gamma,
            "n_from": args.n_from, "n_to": args.n_to,
        })
    return emit_figure_data("region", {
        "epsilon": args.epsilon, "branch": args.branch,
        "n_from": args.n_from, "n_to": args.n_to,
    })


def _cmd_gram(args, checks) -> str:
    sizes = sorted({int(s) for s in args.sizes.split(",")})
    if args.mode == "diagonal":
        system = nearness.FinitePerturbation(())
    elif args.mode == "gamma-line":
        if args.gamma is None:
            raise UsageError("--mode gamma-line needs --gamma")
        system = nearness.GammaLine(args.gamma)
    else:
        raise UsageError(f"unknown gram mode {args.mode!r}")
    scan = grammatrix.riesz_scan(system, sizes)
    for n, lo, hi in scan:
        checks.append(_check(f"lambda_min_positive_N{n}", lo > 0.0, 0.0, lo))
    return _csv(["N", "lambda_min", "lambda_max"], [(n, lo, hi) for n, lo, hi in scan])


# ----------------------------------------------------------------------
# argument parsing and entry points

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fucik",
        description="Eigenfunction systems on the spectrum curves: queries, "
                    "verification suites, and figure data.",
    )
    parser.add_argument("--version", action="version", version=f"fucik {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_opts(p, diagonal=False):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        if diagonal:
            p.add_argument("--diagonal", action="store_true")

    p = sub.add_parser("point", help="complete a curve point, or sample whole curves")
    add_point_opts(p)
    p.add_argument("--samples", type=int, help="emit curve samples (CSV) instead")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--output")

    p = sub.add_parser("eval", help="sample an eigenfunction profile (CSV)")
    add_point_opts(p, diagonal=True)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--output")

    p = sub.add_parser("distance", help="closed-form norm/distance/scalar product")
    add_point_opts(p)
    p.add_argument("--output")

    p = sub.add_parser("verify", help="run an oracle-equivalence suite")
    p.add_argument("--suite", choices=["closedform", "quadrature", "paleywiener", "gram", "all"],
                   default="all")
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--tol", type=float, help="tighten the suite tolerance (downward only)")
    p.add_argument("--output")

    for which in (1, 2):
        p = sub.add_parser(f"check-theorem{which}",
                           help=f"run basisness criterion {which} on a system")
        p.add_argument("--mode", choices=["diagonal", "finite", "power", "gamma-line"],
                       required=True)
        p.add_argument("--entry", action="append",
                       help="finite mode: n=<int>,alpha=<float> or n=<int>,beta=<float>")
        p.add_argument("--epsilon", type=float)
        p.add_argument("--even-c", type=float, dest="even_c")
        p.add_argument("--even-cap-fraction", type=float, dest="even_cap_fraction")
        p.add_argument("--even-side", choices=["alpha", "beta"], default="alpha")
        p.add_argument("--odd-c", type=float, dest="odd_c")
        p.add_argument("--odd-cap-fraction", type=float, dest="odd_cap_fraction")
        p.add_argument("--odd-side", choices=["alpha", "beta"], default="alpha")
        p.add_argument("--gamma", type=float)
        p.add_argument("--n-partial", type=int, default=2000, dest="n_partial")
        p.add_argument("--output")

    p = sub.add_parser("gamma-scan", help="tabulate the nearness budget E(gamma)")
    p.add_argument("--from", type=float, required=True, dest="gamma_from")
    p.add_argument("--to", type=float, required=True, dest="gamma_to")
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--output")

    p = sub.add_parser("region", help="region boundary data for the growth caps")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--branch", default="odd_alpha_uniform",
                   choices=["even", "odd_alpha_dominant", "odd_beta_dominant",
                            "odd_alpha_uniform", "odd_beta_uniform"])
    p.add_argument("--n-from", type=int, default=2, dest="n_from")
    p.add_argument("--n-to", type=int, default=20, dest="n_to")
    p.add_argument("--compare", action="store_true",
                   help="emit boundary vs dilation-line comparison instead")
    p.add_argument("--gamma", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--output")

    p = sub.add_parser("gram", help="extreme eigenvalues of Gram truncations (CSV)")
    p.add_argument("--mode", choices=["diagonal", "gamma-line"], required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--sizes", default="8,16,32")
    p.add_argument("--output")

    return parser


_HANDLERS = {
    "point": _cmd_point,
    "eval": _cmd_eval,
    "distance": _cmd_distance,
    "verify": _cmd_verify,
    "check-theorem1": lambda a, c: _cmd_check_theorem(1, a, c),
    "check-theorem2": lambda a, c: _cmd_check_theorem(2, a, c),
    "gamma-scan": _cmd_gamma_scan,
    "region": _cmd_region,
    "gram": _cmd_gram,
}


def execute(request: CommandRequest) -> tuple[RunReport, int]:
    """Run a parsed command; returns the report and the process exit code."""
    parser = _build_parser()
    argv = [request.command]
    for key, value in request.parameters.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, (list, tuple)):
            for v in value:
                argv.extend([flag, str(v)])
        elif value is not None:
            argv.extend([flag, str(value)])
    args = parser.parse_args(argv)
    return _run(args, request.output)


def _run(args, output: Optional[str]) -> tuple[RunReport, int]:
    checks: list[dict] = []
    start = time.perf_counter()
    try:
        payload = _HANDLERS[args.command](args, checks)
    except UsageError:
        raise
    except (FucikError, ValueError) as exc:
        # bad parameter combinations surface as usage errors, not tracebacks
        raise UsageError(str(exc)) from exc
    wall = time.perf_counter() - start
    report = RunReport(command=args.command, payload=payload, wall_time=wall,
                       version=__version__, checks=checks)
    _write_output(payload, output)
    return report, (0 if report.passed else 1)


def _write_output(payload: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(payload)
        return
    tmp = output + ".tmp"
    with open(tmp, "w", newline="\n") as handle:
        handle.write(payload)
    os.replace(tmp, output)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _run(args, getattr(args, "output", None))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    n_pass = sum(1 for c in report.checks if c["passed"])
    for c in report.checks:
        status = "ok  " if c["passed"] else "FAIL"
        print(f"# {status} {c['name']} (observed {c['observed']:.3e}, "
              f"tolerance {c['tolerance']:.3e})", file=sys.stderr)
    print(f"# {report.command}: {n_pass}/{len(report.checks)} checks passed "
          f"in {report.wall_time:.3f} s (fucik {report.version})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
