"""Dilation operators, Fourier coefficients, and the nearness budget."""

import math

import numpy as np
import pytest

import paper_formulas as paper
from conftest import TkPiecewiseProbe, pl_norm_sq
from fucik import paleywiener as pw
from fucik.closedform import inner_cross_index
from fucik.eigenfunction import SineMode, amplitudes, breakpoints, build
from fucik.errors import GammaOutOfRange, OddIndex
from fucik.quadrature import inner_numeric
from fucik.spectrum import gamma_line_point

PI = math.pi


# ----------------------------------------------------------------------
# dilation operators

def test_apply_Tk_sine_mapping():
    xs = np.linspace(0.0, PI, 801)
    # k = 2 is the identity
    t2 = paper.apply_Tk(2, lambda y: np.sin(4 * y))
    assert np.max(np.abs(t2(xs) - np.sin(4 * xs))) <= 1e-14
    # k = 3 on sin(2x) gives sin(3x), across the whole interval
    t3 = paper.apply_Tk(3, lambda y: np.sin(2 * y))
    assert np.max(np.abs(t3(xs) - np.sin(3 * xs))) <= 1e-13
    # k = 1 on sin(2x) gives sin(x)
    t1 = paper.apply_Tk(1, lambda y: np.sin(2 * y))
    assert np.max(np.abs(t1(xs) - np.sin(xs))) <= 1e-14
    # general even-frequency mapping
    for k, n in [(4, 2), (5, 4), (7, 2), (9, 6)]:
        tk = paper.apply_Tk(k, lambda y, m=n: np.sin(m * y))
        assert np.max(np.abs(tk(xs) - np.sin(k * n * xs / 2))) <= 1e-12, (k, n)


def test_apply_Tk_reproduces_dilated_profiles():
    # the even-index members of the line family are exactly T_n f_2
    gamma = 5.0
    f2 = build(gamma_line_point(2, gamma))
    xs = np.linspace(0.0, PI, 700)
    for n in (4, 6, 10):
        fn = build(gamma_line_point(n, gamma))
        tn = paper.apply_Tk(n, f2)
        assert np.max(np.abs(tn(xs) - fn(xs))) <= 1e-12


def test_apply_Tk_linearity():
    xs = np.linspace(0.0, PI, 513)
    g = lambda y: np.sin(2 * y) + 0.3 * np.sin(6 * y)
    h = lambda y: np.cos(y) * np.sin(y)
    for k in (1, 3, 4, 8):
        lhs = paper.apply_Tk(k, lambda y: 2.5 * g(y) + h(y))(xs)
        rhs = 2.5 * paper.apply_Tk(k, g)(xs) + paper.apply_Tk(k, h)(xs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_Tk_norm_values():
    assert pw.Tk_norm(2) == 1.0
    assert pw.Tk_norm(4) == 1.0
    assert pw.Tk_norm(1) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert pw.Tk_norm(3) == pytest.approx(math.sqrt(4 / 3), rel=1e-15)
    assert pw.Tk_norm(5) == pytest.approx(math.sqrt(6 / 5), rel=1e-15)


def test_indices_must_be_integral():
    # no NaN, infinity or fraction is turned into a norm or a bound: NaN
    # used to come back as NaN, 2.5 as a value that belongs to no index,
    # and infinity as a bound of 0
    for bad in (0, -1, 2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            pw.Tk_norm(bad)
        with pytest.raises(ValueError):
            pw.ck_bound(5.0, bad)
    # integral floats and numpy integers are indices like ints
    for k in (1, 2, 3, 7):
        assert pw.Tk_norm(float(k)) == pw.Tk_norm(np.int64(k)) == pw.Tk_norm(k)
        assert pw.ck_bound(5.0, float(k)) == pw.ck_bound(5.0, np.int64(k)) == pw.ck_bound(5.0, k)


def test_even_k_isometry_by_quadrature():
    f2 = build(gamma_line_point(2, 4.9))
    for k in (2, 4, 6):
        tk = paper.apply_Tk(k, f2)
        bp = sorted(set(float(b) for b in breakpoints(f2)) |
                    {2 * (m * PI + t) / k for m in range(k) for t in (0.0, f2.l1, PI)})
        bp = [b for b in bp if 0.0 <= b <= PI + 1e-12]
        if bp[-1] < PI:
            bp.append(PI)
        lhs = inner_numeric(tk, tk, bp)
        rhs = inner_numeric(f2, f2, breakpoints(f2))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_rayleigh_certification(rng):
    """Discretized Rayleigh quotients bracket the exact operator norms."""
    knots = np.linspace(0.0, PI, 65)
    inside_half = knots < PI / 2 - 1e-12
    for k in range(1, 10):
        probe = TkPiecewiseProbe(k, knots)
        best = 0.0
        for _ in range(120):
            vals = rng.normal(size=knots.size)
            vals[0] = vals[-1] = 0.0
            ratio = math.sqrt(probe.norm_sq(vals) / pl_norm_sq(knots, vals))
            best = max(best, ratio)
            assert ratio <= pw.Tk_norm(k) + 1e-9
        # supported on (0, pi/2): attains the odd-k supremum exactly
        vals = rng.normal(size=knots.size)
        vals[~inside_half] = 0.0
        ratio = math.sqrt(probe.norm_sq(vals) / pl_norm_sq(knots, vals))
        best = max(best, ratio)
        assert ratio <= pw.Tk_norm(k) + 1e-9
        assert best >= pw.Tk_norm(k) - 1e-3


# ----------------------------------------------------------------------
# Fourier coefficients and their bounds

def test_fourier_Ak_at_collapse():
    assert pw.fourier_Ak(4.0, 2) == pytest.approx(1.0, abs=1e-11)
    for k in (1, 3, 4, 9):
        assert abs(pw.fourier_Ak(4.0, k)) <= 1e-11


def test_fourier_Ak_index_must_be_integral():
    # 3.5 must not be truncated to A_3; numpy integers are indices like ints
    with pytest.raises(ValueError):
        pw.fourier_Ak(5.0, 3.5)
    assert pw.fourier_Ak(5.0, np.int64(3)) == pw.fourier_Ak(5.0, 3)


def test_fourier_Ak_against_oracle():
    for gamma in (4.5, 5.0):
        f2 = build(gamma_line_point(2, gamma))
        bp = breakpoints(f2)
        for k in (1, 2, 3, 4, 7, 12, 25):
            quad = (2 / PI) * inner_numeric(f2, SineMode(k), bp)
            assert pw.fourier_Ak(gamma, k) == pytest.approx(quad, abs=1e-10), (gamma, k)


def test_fourier_Ak_matches_paper_formula():
    """The bump route against the paper's closed form for A_k, which is
    0/0 only at gamma = 4, k = 2 (covered by the collapse test)."""
    for gamma in np.linspace(pw.GAMMA_MIN, pw.GAMMA_MAX, 61):
        for k in range(1, 60):
            if gamma == 4.0 and k == 2:
                continue
            want = paper.fourier_Ak(float(gamma), k)
            assert pw.fourier_Ak(float(gamma), k) == pytest.approx(want, abs=1e-12), (gamma, k)


def test_parseval_partial_sums():
    from fucik import closedform as cf
    gamma = 5.0
    target = (2 / PI) * cf.norm_sq(gamma_line_point(2, gamma)).value
    partial = 0.0
    last = 0.0
    for k in range(1, 201):
        partial += pw.fourier_Ak(gamma, k) ** 2
        if k in (10, 50, 200):
            assert partial >= last
            last = partial
    assert partial <= target + 1e-12
    assert partial == pytest.approx(target, abs=1e-10)


def test_ck_bound_examples():
    for k in (1, 2, 5):
        assert pw.ck_bound(4.0, k) == 0.0
    want = (2 / PI) * 25 * (math.sqrt(5) - 2) / (math.sqrt(5) - 1) / 16
    assert pw.ck_bound(5.0, 3) == pytest.approx(want, rel=1e-13)
    c2 = pw.ck_bound(5.0, 2)
    assert 0.0 < c2 < 1.0
    assert pw.fourier_Ak(5.0, 2) <= 1.0


def test_ck_bound_domination_grid():
    for gamma in np.linspace(4.0, 5.682, 12):
        gamma = float(gamma)
        assert abs(pw.fourier_Ak(gamma, 1)) <= pw.ck_bound(gamma, 1) + 1e-12
        a2 = pw.fourier_Ak(gamma, 2)
        assert a2 <= 1.0 + 1e-12
        assert abs(1.0 - a2) <= pw.ck_bound(gamma, 2) + 1e-12
        for k in range(3, 101):
            assert abs(pw.fourier_Ak(gamma, k)) <= pw.ck_bound(gamma, k) + 1e-12


# ----------------------------------------------------------------------
# the budget E and the admissible range

def test_E_at_4_is_exactly_zero():
    assert pw.E_gamma(4.0) == 0.0


def test_E_monotone_coarse_grid():
    grid = np.arange(4.0, 5.6821, 0.01)
    vals = np.array([pw.E_gamma(float(g)) for g in grid])
    assert np.all(np.diff(vals) > 0)


def test_E_range_guard():
    with pytest.raises(GammaOutOfRange):
        pw.E_gamma(3.9)
    with pytest.raises(GammaOutOfRange):
        pw.E_gamma(5.7)
    # the extended evaluator covers the bisection bracket, E(4) = 0 < 1 < E(8)
    assert pw.E_gamma_extended(6.5) > pw.E_gamma_extended(5.0)
    assert pw.E_gamma_extended(4.0) == 0.0 and pw.E_gamma_extended(8.0) > 1
    with pytest.raises(GammaOutOfRange, match=r"\[4, 9\), got 9.0"):
        pw.E_gamma_extended(9.0)


def test_tail_constant_closed_form():
    k = np.arange(5, 10 ** 6 + 1, dtype=float)
    partial = float(np.sum(1.0 / (k * k - 9.0) ** 2))
    assert pw.TAIL_CONSTANT == pytest.approx(partial, abs=1e-10)


def test_gamma_admissible_max_postcondition():
    for tol in (1e-6, 1e-3):
        g = pw.gamma_admissible_max(tol)
        assert pw.E_gamma_extended(g) < 1.0
        assert pw.E_gamma_extended(g + tol) >= 1.0
    fine = pw.gamma_admissible_max(1e-6)
    coarse = pw.gamma_admissible_max(1e-3)
    assert abs(fine - coarse) <= 1e-3 + 1e-9
    for bad in (math.nan, 1e-11):
        with pytest.raises(ValueError):
            pw.gamma_admissible_max(bad)


def test_budget_assembly():
    b = pw.budget(5.0)
    assert b.gamma == 5.0
    assert len(b.c) == 5 and len(b.t) == 5
    assert b.t[0] == pytest.approx(math.sqrt(2))
    assert b.E == pytest.approx(sum(ci * ti for ci, ti in zip(b.c, b.t)), rel=1e-12)
    b4 = pw.budget(4.0)
    assert b4.E == 0.0
    # one set of formulas: the record, the budget and c_k agree to the last bit
    for gamma in np.linspace(pw.GAMMA_MIN, pw.GAMMA_MAX, 41):
        b = pw.budget(float(gamma))
        assert b.E == pw.E_gamma(float(gamma))
        assert b.c[:4] == tuple(pw.ck_bound(float(gamma), k) for k in (1, 2, 3, 4))


def test_budget_audit_term_by_term():
    """E(5.682) term by term, with every bound as it is.

    The five weighted terms c_k ||T_k|| (k = 1..4 and the k >= 5 tail) sum
    to E = 1.321112, the value acceptance 02 reports.  Each c_k dominates
    the coefficient it bounds, and with the true |A_1|, 1 - A_2, |A_3|,
    |A_4| and sum_{5<=k<=1000} |A_k| ||T_k|| in their place the sum is
    0.7628: the bounds, c_3 foremost (0.598 against 0.125), take the
    budget above 1.
    """
    gamma = pw.GAMMA_MAX
    b = pw.budget(gamma)
    terms = [c * t for c, t in zip(b.c, b.t)]
    assert terms == pytest.approx([0.4570, 0.1700, 0.5978, 0.0535, 0.0429], abs=5e-5)
    assert sum(terms) == b.E == pytest.approx(1.321112, abs=5e-7)
    A = [pw.fourier_Ak(gamma, k) for k in range(1, 1001)]
    head = [abs(A[0]), 1 - A[1], abs(A[2]), abs(A[3])]
    assert all(c >= a for c, a in zip(b.c, head))
    tail = sum(abs(a) * pw.Tk_norm(k) for k, a in enumerate(A[4:], start=5))
    true = sum(a * t for a, t in zip(head, b.t)) + tail
    assert tail <= terms[4] and true == pytest.approx(0.7628, abs=5e-5)


# ----------------------------------------------------------------------
# truncated dilated-series residuals

def test_residual_collapse_at_4():
    for n, K in [(2, 4), (4, 10), (8, 6)]:
        assert paper.theoremD_residual(4.0, n, K) <= 1e-10


def test_residual_n2_tail_bound():
    gamma, K = 5.0, 50
    res = paper.theoremD_residual(gamma, 2, K)
    sg = math.sqrt(gamma)
    ks = np.arange(K + 1, 4000)
    tail = (2 / PI) * gamma ** 2 * (sg - 2) / (sg - 1) * np.sum(1.0 / (ks ** 2 - gamma) ** 2)
    assert res <= tail
    assert paper.theoremD_residual(gamma, 2, 200) < res


def test_residual_dilation_invariance():
    """The n = 4 residual equals the n = 2 residual composed with x -> 2x."""
    gamma, K = 5.0, 50
    grid = 1024
    res4 = paper.theoremD_residual(gamma, 4, K, grid_points=grid)
    xs = np.linspace(0.0, PI, grid)
    f2 = build(gamma_line_point(2, gamma))
    coeffs = np.array([pw.fourier_Ak(gamma, k) for k in range(1, K + 1)])
    ks = np.arange(1, K + 1, dtype=float)
    series = np.sin(np.outer(2 * xs, ks)) @ coeffs
    res2_dilated = float(np.max(np.abs(f2(np.mod(2 * xs, PI)) - series)))
    assert res4 == pytest.approx(res2_dilated, abs=1e-12)


def test_residual_guards():
    with pytest.raises(OddIndex):
        paper.theoremD_residual(5.0, 3, 10)
    with pytest.raises(ValueError):
        paper.theoremD_residual(5.0, 2, 3)


def test_dilation_factor():
    assert paper.dilation_factor(6, 5.0) == 3.0
    assert paper.dilation_factor(3, 5.0) == pytest.approx(1 + 1 / math.sqrt(5))


def test_line_coupling_to_sin_x_tends_to_mean_of_f2():
    """<f_n, sin x> on the dilation line tends to (2/pi) int_0^pi f_2 != 0.

    f_n(x) = f_2(n x / 2) continued pi-periodically equidistributes, so the
    coupling tends to sin's integral 2 times the mean of f_2, which is
    taken here from the bump areas 2 a / sqrt(alpha) and 2 a' / sqrt(beta).
    It is nonzero, so sum_n |<f_n, sin x>|^2 diverges and the line system
    is not a Bessel sequence for gamma > 4.
    """
    p2 = gamma_line_point(2, 5.0)
    a_pos, a_neg = amplitudes(p2)
    limit = (2 / PI) * (2 * a_pos / p2.sqrt_alpha - 2 * a_neg / p2.sqrt_beta)
    assert limit == pytest.approx(-0.2431671, abs=1e-7)
    for n in (64, 128, 256, 512):
        coupling = inner_cross_index(gamma_line_point(n, 5.0), 1).value
        assert abs(coupling - limit) <= 0.3 / n ** 2
