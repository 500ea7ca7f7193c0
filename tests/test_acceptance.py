"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines inline.  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np

import paper_formulas as paper
from conftest import TkPiecewiseProbe, curve_samples, pl_norm_sq, quad_dist_sq, quad_inner, quad_norm_sq
from fucik import closedform as cf
from fucik import grammatrix as gm
from fucik import nearness as nr
from fucik import paleywiener as pw
from fucik.eigenfunction import SineMode, breakpoints, build
from fucik.quadrature import inner_numeric
from fucik.spectrum import complete_point, gamma_line_point

PI = math.pi


def _report(idx, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {idx:02d} {name}: {status} ({detail})")
    return passed


def test_criterion_01_closedform_vs_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 51):
        for p in curve_samples(n, 20, lo=1.001, hi=2.2):
            worst = max(
                worst,
                abs(cf.norm_sq(p).value - quad_norm_sq(p)),
                abs(cf.dist_sq_to_sine(p).value - quad_dist_sq(p)),
                abs(cf.inner_same_index(p).value - quad_inner(p, n)),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 60.0
    assert _report(1, "closed forms vs quadrature oracle", ok,
                   f"max |delta| = {worst:.3e}, {elapsed:.1f} s")


def test_criterion_02_budget_numbers():
    t0 = time.perf_counter()
    e4 = pw.E_gamma(4.0)
    grid = np.arange(4000, 5683, dtype=np.int64) / 1000.0
    vals = np.array([pw.E_gamma(float(g)) for g in grid])
    increasing = bool(np.all(np.diff(vals) > 0))
    e5682 = float(vals[-1])
    elapsed = time.perf_counter() - t0
    ok_zero = abs(e4) <= 1e-12
    ok_mono = increasing
    ok_value = 0.9987 <= e5682 <= 0.9997
    ok_time = elapsed <= 1.0
    _report(2, "budget E(4) = 0", ok_zero, f"E(4) = {e4:.3e}")
    _report(2, "budget strictly increasing on grid", ok_mono,
            f"min step = {float(np.min(np.diff(vals))):.3e}")
    _report(2, "budget E(5.682) in [0.9987, 0.9997]", ok_value, f"E(5.682) = {e5682:.6f}")
    _report(2, "budget runtime <= 1 s", ok_time, f"{elapsed:.3f} s")
    assert ok_zero and ok_mono and ok_value and ok_time


def test_criterion_03_bound_domination_and_chain_constants():
    violations = 0
    count = 0
    for n in range(2, 41):
        for p in curve_samples(n, 28, lo=1.0005, hi=2.3):
            count += 1
            if cf.dist_sq_to_sine(p).value > nr.bound_Cn(n, p.alpha, p.beta):
                violations += 1
    chain_ok = all(
        4 * PI * n * n * (n * n + 1) / (n - 1) ** 4 <= 23 * PI
        and 5 * PI * n * n * (n * n + 1) / (n + 1) ** 4 <= 5 * PI
        for n in range(3, 202, 2)
    )
    ok = violations == 0 and count >= 1000 and chain_ok
    assert _report(3, "distance <= C_n with chain constants", ok,
                   f"{count} samples, {violations} violations, chain {'ok' if chain_ok else 'BAD'}")


def test_criterion_04_operator_norm_brackets(rng):
    knots = np.linspace(0.0, PI, 65)
    inside_half = knots < PI / 2 - 1e-12
    ok_all = True
    detail = []
    for k in range(1, 10):
        probe = TkPiecewiseProbe(k, knots)
        target = pw.Tk_norm(k)
        best = 0.0
        overs = 0
        for i in range(1000):
            vals = rng.normal(size=knots.size)
            vals[0] = vals[-1] = 0.0
            if i % 4 == 0:
                vals[~inside_half] = 0.0  # hit the odd-k extremizer class
            ratio = math.sqrt(probe.norm_sq(vals) / pl_norm_sq(knots, vals))
            best = max(best, ratio)
            if ratio > target + 1e-9:
                overs += 1
        ok = overs == 0 and best >= target - 1e-3
        ok_all = ok_all and ok
        detail.append(f"k={k}: best {best:.9f} vs {target:.9f}")
    assert _report(4, "Rayleigh brackets for ||T_k||, k = 1..9", ok_all,
                   "; ".join(detail[:3]) + " ...")


def test_criterion_05_fourier_coefficients():
    worst = 0.0
    bounds_ok = True
    for gamma in (4.5, 5.0, 5.5):
        f2 = build(gamma_line_point(2, gamma))
        bp = breakpoints(f2)
        a = {}
        for k in range(1, 101):
            a[k] = pw.fourier_Ak(gamma, k)
            quad = (2 / PI) * inner_numeric(f2, SineMode(k), bp)
            worst = max(worst, abs(a[k] - quad))
        bounds_ok = bounds_ok and abs(a[1]) <= pw.ck_bound(gamma, 1)
        bounds_ok = bounds_ok and a[2] <= 1.0 and (1 - a[2]) <= pw.ck_bound(gamma, 2)
        bounds_ok = bounds_ok and all(abs(a[k]) <= pw.ck_bound(gamma, k) for k in range(3, 101))
    ok = worst <= 1e-10 and bounds_ok
    assert _report(5, "Fourier coefficients vs oracle and bounds", ok,
                   f"max |A_k delta| = {worst:.3e}, bounds {'ok' if bounds_ok else 'BAD'}")


def test_criterion_06_vanishing_scalar_products():
    worst = 0.0
    checked = 0
    for n in range(2, 21):
        pts = [complete_point(n, alpha=float((1.37 * n) ** 2)),
               complete_point(n, beta=float((1.21 * n) ** 2))]
        for p in pts:
            for m in range(2, 21, 2):
                if m == n:
                    continue
                vanishes = (n % 2 == 1) or (n % 2 == 0 and m < n)
                if not vanishes:
                    continue
                worst = max(worst, abs(quad_inner(p, m, tol=1e-12)))
                checked += 1
    ok = worst <= 1e-11 and checked > 100
    assert _report(6, "vanishing scalar products by quadrature", ok,
                   f"{checked} pairs, max |<f, sine>| = {worst:.3e}")


def test_criterion_07_dilation_identities():
    gamma = 5.0
    sg = math.sqrt(gamma)
    f2 = build(gamma_line_point(2, gamma))
    xs = np.linspace(0.0, PI, 1000)
    worst_even = 0.0
    for n in (2, 4, 6, 8, 10, 12, 14, 16):
        fn = build(gamma_line_point(n, gamma))
        worst_even = max(worst_even, float(np.max(np.abs(
            fn(xs) - f2(np.mod(n * xs / 2.0, PI))))))
    worst_odd = 0.0
    for n in (3, 5, 7, 9, 11, 13, 15):
        alpha = (1 + (n - 1) * sg / 2) ** 2
        fn = build(complete_point(n, alpha=alpha))
        c = paper.dilation_factor(n, gamma)
        worst_odd = max(worst_odd, float(np.max(np.abs(
            fn(xs) - f2(np.mod(c * xs, PI))))))
    ok = worst_even <= 1e-12 and worst_odd <= 1e-12
    assert _report(7, "dilation identities (even and offset odd)", ok,
                   f"even max = {worst_even:.3e}, odd max = {worst_odd:.3e}")


def test_criterion_08_criterion_soundness():
    fam = nr.PowerFamily(epsilon=0.5,
                         even=nr.BranchRule(cap_fraction=0.5),
                         odd=nr.BranchRule(cap_fraction=0.5, side="alpha"))
    rep_good = nr.theorem1_check(fam)
    good_ok = (rep_good.verdict == "riesz_basis_certified"
               and rep_good.total_upper < PI / 2)
    rep_single = nr.theorem1_check(nr.FinitePerturbation((complete_point(2, alpha=9),)))
    single_ok = (rep_single.verdict == "inconclusive"
                 and abs(rep_single.total_upper - (3 + PI ** 2) * PI / 9) <= 1e-12)
    ok = good_ok and single_ok
    assert _report(8, "summation criterion soundness demo", ok,
                   f"family total = {rep_good.total_upper:.6f} < pi/2; "
                   f"single total = {rep_single.total_upper:.6f} (inconclusive)")


def test_criterion_09_gram_sanity():
    g = gm.build_gram(nr.FinitePerturbation(()), 64)
    dev = float(np.max(np.abs(g.normalization * g.entries - np.eye(64))))
    identity_ok = dev <= 1e-12
    scan = gm.riesz_scan(nr.GammaLine(5.0), [8, 16, 32, 64])
    los = [lo for _, lo, _ in scan]
    pos_ok = all(lo > 0 for lo in los)
    diffs = [abs(b - a) for a, b in zip(los, los[1:])]
    shrink_ok = all(d2 <= d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))
    gap_ok = abs(los[-1] - los[-2]) < 5e-2
    _report(9, "Gram identity for the all-diagonal system", identity_ok,
            f"max deviation = {dev:.2e}")
    _report(9, "Gram line-family lambda_min positive", pos_ok,
            "lambda_min = " + ", ".join(f"{lo:.4f}" for lo in los))
    _report(9, "Gram line-family differences shrinking", shrink_ok,
            "diffs = " + ", ".join(f"{d:.4f}" for d in diffs))
    _report(9, "Gram |lambda_min(64) - lambda_min(32)| < 5e-2", gap_ok,
            f"gap = {abs(los[-1] - los[-2]):.4f}")
    assert identity_ok and pos_ok and shrink_ok and gap_ok


def test_criterion_10_tail_constant():
    k = np.arange(5, 10 ** 6 + 1, dtype=float)
    partial = float(np.sum(1.0 / (k * k - 9.0) ** 2))
    # the k > 10^6 remainder is below the integral bound 4e-19, far inside
    # the accepted tolerance
    delta = abs(pw.TAIL_CONSTANT - partial)
    ok = delta <= 1e-10
    assert _report(10, "closed tail constant vs brute force", ok,
                   f"|closed - partial| = {delta:.3e}")
