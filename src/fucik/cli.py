"""Command-line front end: point queries, verification suites, figure data.

Payloads (JSON or CSV) go to stdout or --output and are byte-identical
across identical invocations: fixed key order, floats at 17 significant
digits, LF line endings.  The run report (wall time, per-check lines)
goes to stderr so it never perturbs the payload.

Exit codes: 0 all checks passed / verdict certified, 1 a check failed or
a verdict came back inconclusive, 2 a refused input (a :class:`UsageError`
or a :class:`~fucik.errors.FucikError`).  Any other exception is a fault
and propagates with its traceback.  Every count taken from the command
line is bounded, by :func:`~fucik.errors.require_int`, before any work
starts.

The argument parser is built once per process, on the first :func:`main`
call (not at import), and reused by every later call: parsing leaves it
unchanged, so in-process callers pay for it once.

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
from functools import cache, partial
from itertools import combinations
from typing import Optional

import numpy as np

from . import __version__, closedform, grammatrix, nearness, paleywiener
from .eigenfunction import build, bump_table, evaluate_panels
from .errors import FucikError, require_int
from .quadrature import integrate_many
from .spectrum import TAU_CURVE, complete_point, curve_residual, diagonal_point, gamma_line_point

_SCHEMA = "1"

#: largest row or term count a command may produce or sum
MAX_ROWS = 100_000


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


def _json(command: str, fields: dict) -> str:
    body = {"schema": _SCHEMA, "command": command, "version": __version__}
    body.update(fields)
    return _to_json(body) + "\n"


def _check(name: str, passed: bool, tolerance: float, observed: float) -> dict:
    return {"name": name, "passed": bool(passed),
            "tolerance": float(tolerance), "observed": float(observed)}


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
        # whole curves n = 2..nmax, sampled in sqrt(alpha) off the diagonal
        require_int(args.nmax, "--nmax", 2, MAX_ROWS // 2)
        require_int(args.samples, "--samples", 2, MAX_ROWS // (args.nmax - 1))
        rows = []
        for n in range(2, args.nmax + 1):
            lo = max((n / 2 if n % 2 == 0 else (n + 1) / 2) * 1.02, 1.02)
            for s in np.linspace(lo, 2.5 * n, args.samples):
                p = complete_point(n, alpha=float(s * s))
                rows.append((p.n, p.alpha, p.beta))
        return _csv(["n", "alpha", "beta"], rows)
    p = _resolve_point(args)
    residual = abs(curve_residual(p))
    checks.append(_check("on_curve", residual <= TAU_CURVE, TAU_CURVE, residual))
    return _json("point", _point_payload(p))


def _cmd_eval(args, checks) -> str:
    require_int(args.samples, "--samples", 2, MAX_ROWS)
    p = _resolve_point(args)
    xs = np.linspace(0.0, math.pi, args.samples)
    return _csv(["x", "f", "sine"], list(zip(xs, build(p)(xs), np.sin(p.n * xs))))


def _cmd_distance(args, checks) -> str:
    p = _resolve_point(args)
    norm = closedform.norm_sq(p)
    dist = closedform.dist_sq_to_sine(p)
    inner = closedform.inner_same_index(p)
    consistency = abs(inner.value - 0.5 * (norm.value + math.pi / 2 - dist.value))
    checks.append(_check("polarization_consistency", consistency <= 1e-10, 1e-10, consistency))
    return _json("distance", {
        **_point_payload(p),
        "norm_sq": norm.value, "norm_case": norm.formula_case,
        "dist_sq": dist.value, "dist_case": dist.formula_case,
        "inner_same": inner.value, "inner_case": inner.formula_case,
        "kato_weakened_term": nearness.kato_weakened_term(p),
    })


def _curve_samples(n: int, count: int):
    """Half alpha-dominant, half beta-dominant points, off the diagonal."""
    out = []
    ratios = np.linspace(1.05, 1.9, (count + 1) // 2)
    for r in ratios:
        out.append(complete_point(n, alpha=float((n * r) ** 2)))
    for r in ratios[: count // 2]:
        out.append(complete_point(n, beta=float((n * r) ** 2)))
    return out


def _suite_closedform(args, tol: float, checks: list) -> None:
    points = [p for n in range(2, args.nmax + 1) for p in _curve_samples(n, args.points)]
    t = bump_table(points)

    def integrand(owner, x):
        # three integrals per function: f^2, (f - sin n x)^2 and f sin n x
        f = evaluate_panels(*t.bumps[:, owner], x)
        sine = np.sin(t.n[owner] * x)
        d = f - sine
        return np.stack((f * f, d * d, f * sine), axis=-1)

    quad = integrate_many(integrand, t.junctions)
    norm = closedform.norms_sq(t)
    inner = closedform.sine_products(t, t.n[:, None])[:, 0]
    # dist_sq_to_sine's polarization, clamped at 0 as it is
    dist = np.maximum(norm + math.pi / 2 - 2 * inner, 0.0)
    names = ("norm_sq", "dist_sq", "inner_same")
    for name, exact, oracle in zip(names, (norm, dist, inner), quad.T):
        delta = float(np.max(np.abs(exact - oracle)))
        checks.append(_check(f"closedform_vs_oracle_{name}", delta <= tol, tol, delta))


def _suite_quadrature(args, tol: float, checks: list) -> None:
    pairs = [(1, 1), (2, 3), (7, 7), (16, 16), (5, 12), (31, 33), (64, 64)]
    # then sin(9 x)^2 twice: once whole, once split at extra breakpoints
    j, k = np.array(pairs + [(9, 9), (9, 9)]).T
    quad = integrate_many(lambda owner, x: np.sin(j[owner] * x) * np.sin(k[owner] * x),
                          [[0.0, math.pi]] * (len(pairs) + 1) + [[0.0, 0.7, 1.1, 2.0, math.pi]])
    want = [math.pi / 2 if a == b else 0.0 for a, b in pairs]
    worst = float(np.max(np.abs(quad[:len(pairs)] - want)))
    checks.append(_check("trig_orthogonality", worst <= tol, tol, worst))
    split = abs(quad[-2] - quad[-1])
    checks.append(_check("breakpoint_insensitivity", split <= tol, tol, split))


def _suite_paleywiener(args, tol: float, checks: list) -> None:
    gammas = (4.5, 5.0, 5.5)
    # A_1 .. A_40 as two rows of 20 consecutive k per gamma: f2 is evaluated
    # once per node for the 20 integrals of a row, each refined on its own
    bands = np.arange(1, 41).reshape(2, 20)
    # the f2 of fourier_Ak at each gamma, and at GAMMA_MAX for the bounds only
    f2s = bump_table([gamma_line_point(2, gamma) for gamma in (*gammas, paleywiener.GAMMA_MAX)])
    quad = (2 / math.pi) * integrate_many(
        lambda owner, x: (evaluate_panels(*f2s.bumps[:, owner // len(bands)], x)[..., None]
                          * np.sin(x[..., None] * bands[owner % len(bands)])),
        np.repeat(f2s.junctions[:len(gammas)], len(bands), axis=0)).reshape(len(gammas), bands.size)
    # coeffs[i, k - 1] = A_k at the i-th gamma, for the oracle and the bounds
    coeffs = (2 / math.pi) * closedform.sine_products(f2s, bands.ravel())
    worst = float(np.max(np.abs(coeffs[:len(gammas)] - quad)))
    checks.append(_check("fourier_Ak_vs_oracle", worst <= tol, tol, worst))

    bound_ok = True
    worst_excess = 0.0
    for gamma, (a1, a2, *rest) in zip((*gammas, paleywiener.GAMMA_MAX), coeffs[:, :29].tolist()):
        excess = max(abs(a1) - paleywiener.ck_bound(gamma, 1),
                     (1 - a2) - paleywiener.ck_bound(gamma, 2),
                     a2 - 1.0)
        for k, a in zip(range(3, 30), rest):
            excess = max(excess, abs(a) - paleywiener.ck_bound(gamma, k))
        worst_excess = max(worst_excess, excess)
        bound_ok = bound_ok and excess <= 0
    checks.append(_check("ck_bound_domination", bound_ok, 0.0, worst_excess))
    checks.append(_check("E_at_4_vanishes", paleywiener.E_gamma(4.0) == 0.0, 0.0,
                         paleywiener.E_gamma(4.0)))
    grid = np.arange(paleywiener.GAMMA_MIN, paleywiener.GAMMA_MAX, 0.05)
    vals = [paleywiener.E_gamma(float(g)) for g in grid]
    inc = all(b > a for a, b in zip(vals, vals[1:]))
    checks.append(_check("E_strictly_increasing", inc, 0.0, float(min(np.diff(vals)))))


def _suite_gram(args, tol: float, checks: list) -> None:
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
    points = grammatrix._eigenfunction_points(system, 8)
    t = bump_table(list(points.values()))
    left, right = np.array(list(combinations(range(len(points)), 2))).T
    quad = integrate_many(
        lambda owner, x: (evaluate_panels(*t.bumps[:, left[owner]], x)
                          * evaluate_panels(*t.bumps[:, right[owner]], x)),
        np.sort(np.concatenate((t.junctions[left], t.junctions[right]), axis=1), axis=1),
        1e-11)
    index = np.array(list(points)) - 1
    worst = float(np.max(np.abs(g5.entries[index[left], index[right]] - quad)))
    checks.append(_check("gram_entries_vs_oracle", worst <= tol, tol, worst))


#: suite name -> (default tolerance, runner)
_SUITES = {
    "closedform": (1e-9, _suite_closedform),
    "quadrature": (1e-12, _suite_quadrature),
    "paleywiener": (1e-10, _suite_paleywiener),
    "gram": (1e-10, _suite_gram),
}


def _cmd_verify(args, checks) -> str:
    require_int(args.nmax, "--nmax", 2, 64)
    require_int(args.points, "--points", 1, 64)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    if args.tol is not None:
        if not args.tol > 0:
            raise UsageError(f"--tol must be positive, got {args.tol:g}")
        for suite in suites:
            default = _SUITES[suite][0]
            if not args.tol <= default:
                raise UsageError(f"--tol may only tighten the {suite} suite below {default:g}")
    for suite in suites:
        default, run = _SUITES[suite]
        run(args, default if args.tol is None else args.tol, checks)
    return _json("verify", {"suite": args.suite, "nmax": args.nmax, "checks": checks})


def _system_from_args(args) -> nearness.SystemSpec:
    if args.mode == "diagonal":
        return nearness.FinitePerturbation(())
    if args.mode == "finite":
        if not args.entry:
            raise UsageError("--mode finite needs at least one --entry n=<int>,alpha=<float>")
        entries = []
        for spec in args.entry:
            form = f"entry {spec!r} must read n=<int>,alpha=<float> or n=<int>,beta=<float>"
            parts = [part.split("=", 1) for part in spec.split(",")]
            if any(len(part) != 2 for part in parts):
                raise UsageError(form)
            kv = dict(parts)
            if "n" not in kv or len(kv) < len(parts):
                raise UsageError(f"entry {spec!r} needs n= and each key at most once")
            side = "alpha" if "alpha" in kv else "beta" if "beta" in kv else None
            if side is None:
                raise UsageError(f"entry {spec!r} needs alpha= or beta=")
            try:
                n, value = int(kv.pop("n")), float(kv.pop(side))
            except ValueError:
                raise UsageError(form) from None
            entries.append(complete_point(n, **{side: value}))
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
    require_int(args.n_partial, "--n-partial", 2, MAX_ROWS)
    system = _system_from_args(args)
    fn = nearness.theorem1_check if which == 1 else nearness.theorem2_check
    report = fn(system, n_partial=args.n_partial)
    certified = report.verdict == "riesz_basis_certified"
    checks.append(_check("certified", certified, report.threshold, report.total_upper))
    return _json(f"check-theorem{which}", {
        "mode": args.mode,
        "partial_sum": report.partial_sum, "tail_bound": report.tail_bound,
        "total_upper": report.total_upper, "threshold": report.threshold,
        "verdict": report.verdict, "r": report.r,
    })


def _cmd_gamma_scan(args, checks) -> str:
    if not 1e-9 <= args.step < math.inf:
        raise UsageError(f"--step must be finite and at least 1e-9, got {args.step}")
    # a NaN or infinite --from or --to makes the count NaN or infinite
    count = (args.gamma_to - args.gamma_from) / args.step + 1
    if not -math.inf < count <= MAX_ROWS:
        raise UsageError(f"--from {args.gamma_from} and --to {args.gamma_to} must be finite "
                         f"and give at most {MAX_ROWS} rows, got {count:.3g}")
    rows = []
    g = args.gamma_from
    while g <= args.gamma_to + 1e-12:
        rows.append((g, paleywiener.E_gamma_extended(g)))
        g = round(g + args.step, 12)
    return _csv(["gamma", "E"], rows)


def _cmd_region(args, checks) -> str:
    require_int(args.n_from, "--n-from", 1, MAX_ROWS)
    require_int(args.n_to, "--n-to", args.n_from, MAX_ROWS)
    ns = range(args.n_from, args.n_to + 1)
    if not args.compare:
        return _csv(["n", "boundary"], nearness.region_boundary(args.epsilon, args.branch, ns))
    if args.c is None or args.gamma is None or not paleywiener.GAMMA_MIN <= args.gamma < math.inf:
        raise UsageError(f"--compare needs --c and a finite --gamma >= {paleywiener.GAMMA_MIN}")
    # --c and --epsilon are refused by the family, as in check-theorem1 --mode power
    family = nearness.PowerFamily(args.epsilon, even=nearness.BranchRule(c=args.c))
    # the power-cap boundary against the dominant root n sqrt(gamma) / 2 of the line
    rows = [(n, family.dominant_sqrt(n), n * math.sqrt(args.gamma) / 2.0)
            for n in ns if n % 2 == 0]
    return _csv(["n", "boundary", "line_value"], rows)


def _cmd_gram(args, checks) -> str:
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        raise UsageError(f"--sizes must list integers separated by commas, "
                         f"got {args.sizes!r}") from None
    sizes = sorted({require_int(n, "--sizes entry", 1, grammatrix.MAX_ORDER) for n in sizes})
    scan = grammatrix.riesz_scan(_system_from_args(args), sizes)
    for n, lo, hi in scan:
        checks.append(_check(f"lambda_min_positive_N{n}", lo > 0.0, 0.0, lo))
    return _csv(["N", "lambda_min", "lambda_max"], [(n, lo, hi) for n, lo, hi in scan])


# ----------------------------------------------------------------------
# argument parsing and entry points

@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fucik",
        description="Eigenfunction systems on the spectrum curves: queries, "
                    "verification suites, and figure data.",
    )
    parser.add_argument("--version", action="version", version=f"fucik {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # every command writes its payload to stdout or to --output
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output")
    add_command = partial(sub.add_parser, parents=[output])

    def add_point_opts(p, diagonal=False):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        if diagonal:
            p.add_argument("--diagonal", action="store_true")

    p = add_command("point", help="complete a curve point, or sample whole curves")
    p.set_defaults(handler=_cmd_point)
    add_point_opts(p)
    p.add_argument("--samples", type=int, help="emit curve samples (CSV) instead")
    p.add_argument("--nmax", type=int, default=4)

    p = add_command("eval", help="sample an eigenfunction profile (CSV)")
    p.set_defaults(handler=_cmd_eval)
    add_point_opts(p, diagonal=True)
    p.add_argument("--samples", type=int, default=201)

    p = add_command("distance", help="closed-form norm/distance/scalar product")
    p.set_defaults(handler=_cmd_distance)
    add_point_opts(p)

    p = add_command("verify", help="run an oracle-equivalence suite")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--tol", type=float, help="tighten the suite tolerance (downward only)")

    for which in (1, 2):
        p = add_command(f"check-theorem{which}",
                        help=f"run basisness criterion {which} on a system")
        p.set_defaults(handler=partial(_cmd_check_theorem, which))
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

    p = add_command("gamma-scan", help="tabulate the nearness budget E(gamma)")
    p.set_defaults(handler=_cmd_gamma_scan)
    p.add_argument("--from", type=float, required=True, dest="gamma_from")
    p.add_argument("--to", type=float, required=True, dest="gamma_to")
    p.add_argument("--step", type=float, default=0.01)

    p = add_command("region", help="region boundary data for the growth caps")
    p.set_defaults(handler=_cmd_region)
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

    p = add_command("gram", help="extreme eigenvalues of Gram truncations (CSV)")
    p.set_defaults(handler=_cmd_gram)
    p.add_argument("--mode", choices=["diagonal", "gamma-line"], required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--sizes", default="8,16,32")

    return parser


def _write_output(payload: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(payload)
        return
    tmp = output + ".tmp"
    with open(tmp, "w", newline="\n") as handle:
        handle.write(payload)
    os.replace(tmp, output)


def main(argv: Optional[list[str]] = None) -> int:
    """Parse argv, run the command, write its payload; returns the exit code."""
    args = _build_parser().parse_args(argv)
    checks: list[dict] = []
    start = time.perf_counter()
    try:
        payload = args.handler(args, checks)
    except (UsageError, FucikError) as exc:
        # refused inputs surface as usage errors; a fault keeps its traceback
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start
    _write_output(payload, args.output)
    n_pass = sum(1 for c in checks if c["passed"])
    for c in checks:
        status = "ok  " if c["passed"] else "FAIL"
        print(f"# {status} {c['name']} (observed {c['observed']:.3e}, "
              f"tolerance {c['tolerance']:.3e})", file=sys.stderr)
    print(f"# {args.command}: {n_pass}/{len(checks)} checks passed "
          f"in {wall:.3f} s (fucik {__version__})", file=sys.stderr)
    return 0 if n_pass == len(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
