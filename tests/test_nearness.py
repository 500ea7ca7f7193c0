"""Bound functions, zeta, and the two summation criteria."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paper_formulas as paper
from conftest import curve_points, curve_samples
from fucik import closedform as cf
from fucik import nearness as nr
from fucik import paleywiener as pw
from fucik.errors import (
    DivergentArgument,
    IndexTooSmall,
    InvalidArgument,
    NotOnCurve,
    OddEntriesNotDiagonal,
    TailNotBoundable,
)
from fucik.spectrum import FucikPoint, complete_point, diagonal_point

PI = math.pi


# ----------------------------------------------------------------------
# bound_Cn and the chain of intermediate estimates

def test_bound_cn_examples():
    assert nr.bound_Cn(5, 25.0, 25.0) == 0.0
    got = nr.bound_Cn(2, 9.0, 2.25)
    assert got == pytest.approx((3 + PI ** 2) * PI / 9, abs=1e-13)
    p = complete_point(3, alpha=16.0)
    want = 4 * PI * 9 * 10 / 16 * (4 / 3 - 1) ** 2
    assert nr.bound_Cn(3, p.alpha, p.beta) == pytest.approx(want, abs=1e-12)


def test_bound_cn_rejects_off_curve():
    with pytest.raises(NotOnCurve):
        nr.bound_Cn(2, 9.0, 9.0)
    with pytest.raises(NotOnCurve):
        nr.bound_Cn(4, math.nan, 16.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 14, 27, 50])
def test_domination(n):
    """The closed-form distance never exceeds its bound C_n."""
    for p in curve_samples(n, 12, lo=1.0005, hi=2.3):
        dist = cf.dist_sq_to_sine(p).value
        assert dist <= nr.bound_Cn(n, p.alpha, p.beta) * (1 + 1e-12) + 1e-15


@pytest.mark.parametrize("n", [2, 4, 10, 36])
def test_even_bound_chain(n):
    """distance <= refined bound <= final constant bound, for even n."""
    for p in curve_samples(n, 10, lo=1.001, hi=2.0):
        s = max(p.sqrt_alpha, p.sqrt_beta)
        dist = cf.dist_sq_to_sine(p).value
        sharp = paper.bound_even_refined(n, s)
        final = nr.K_EVEN * (s / n - 1.0) ** 2
        assert dist <= sharp * (1 + 1e-12) + 1e-15
        assert sharp <= final * (1 + 1e-12)


def test_odd_chain_constants():
    for n in range(3, 202, 2):
        assert 4 * PI * n * n * (n * n + 1) / (n - 1) ** 4 <= 23 * PI
        assert 5 * PI * n * n * (n * n + 1) / (n + 1) ** 4 <= 5 * PI


def test_cubic_sine_lower_bound():
    x = np.linspace(0.0, PI, 10 ** 4)
    assert np.all(np.sin(x) >= x - x ** 3 / 6 - 1e-15)


# ----------------------------------------------------------------------
# zeta

def test_zeta_classical_values():
    assert nr.zeta(2.0) == pytest.approx(PI ** 2 / 6, abs=1e-12)
    assert nr.zeta(4.0) == pytest.approx(PI ** 4 / 90, abs=1e-12)


def test_zeta_against_brute_force():
    # 10^7-term partial sum, bracketed by integral tail bounds
    s = 1.5
    m = 10 ** 7
    partial = 0.0
    for lo in range(1, m + 1, 10 ** 6):
        k = np.arange(lo, min(lo + 10 ** 6, m + 1), dtype=float)
        partial += float(np.sum(k ** -s))
    tail_lo = (m + 1) ** (1 - s) / (s - 1)
    tail_hi = m ** (1 - s) / (s - 1)
    assert partial + tail_lo - 1e-9 <= nr.zeta(s) <= partial + tail_hi + 1e-9


def test_zeta_relative_error_against_mpmath():
    """zeta and zeta - 1 within 1e-15 relative on a log grid of s - 1 in [2e-6, 999].

    Near the pole zeta is about 5e5 and floats there are 1e-10 apart, so
    the bound is relative; zeta - 1 is checked against mpmath's Hurwitz
    zeta(s, 2).
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for s in 1.0 + np.logspace(math.log10(2e-6), math.log10(999.0), 80):
            s = float(s)
            for got, want in ((nr.zeta(s), mpmath.zeta(s)),
                              (nr._zeta_minus_one(s), mpmath.zeta(s, 2))):
                assert abs((got - want) / want) <= 1e-15, s


@pytest.mark.parametrize("eps", [10.0, 30.0, 52.0, 60.0])
def test_zeta_minus_one_keeps_relative_accuracy(eps):
    """zeta(1 + eps) - 1 and the caps built on it, against the leading terms.

    Past k = 200 the omitted terms are below 1e-20 of the sum for eps >= 10.
    """
    s = 1.0 + eps
    want = math.fsum(k ** -s for k in range(2, 200))
    assert nr._zeta_minus_one(s) == pytest.approx(want, rel=1e-12, abs=0)
    cap = nr.corollary_cn_cap(4, eps, "even")
    assert cap * want == pytest.approx(9 / (8 * (3 + PI ** 2)), rel=1e-12, abs=0)


def test_zeta_pole_guard():
    with pytest.raises(DivergentArgument):
        nr.zeta(1.0)
    with pytest.raises(DivergentArgument):
        nr.zeta(1.0000001)
    for bad in (math.nan, math.inf):
        with pytest.raises(DivergentArgument):
            nr.zeta(bad)


# ----------------------------------------------------------------------
# corollary caps and regions

def test_cap_examples():
    z15 = nr.zeta(1.5)
    assert nr.corollary_cn_cap(6, 0.5, "even") == pytest.approx(
        9 / (8 * (3 + PI ** 2)) / (z15 - 1), rel=1e-13)
    assert nr.corollary_cn_cap(9, 0.5, "odd_alpha_uniform") == pytest.approx(
        (1 / 46) / (z15 - 1), rel=1e-13)
    assert nr.corollary_cn_cap(7, 0.5, "odd_beta_uniform") == pytest.approx(
        (1 / 10) / (z15 - 1), rel=1e-13)
    want = (2 ** 4 / (8 * 9 * 10)) / (PI ** 2 / 6 - 1)
    assert nr.corollary_cn_cap(3, 1.0, "odd_alpha_dominant") == pytest.approx(want, rel=1e-12)
    with pytest.raises(InvalidArgument, match="unknown branch 'bogus'") as info:
        nr.corollary_cn_cap(3, 0.5, "bogus")
    assert type(info.value) is InvalidArgument


def test_cap_rejects_nan_and_unresolved_epsilon():
    # zeta(1 + eps) - 1 ~ 2^-(1 + eps) is subnormal past eps ~ 1021 and zero
    # past eps ~ 1073; either way the cap would not be finite
    for bad in (math.nan, 0.0, -0.5, 1050.0, 1100.0):
        with pytest.raises(ValueError):
            nr.corollary_cn_cap(4, bad, "even")
    with pytest.raises(DivergentArgument):
        nr.corollary_cn_cap(4, math.inf, "even")


def test_cap_helpers_refuse_index_below_one():
    # unguarded, n = 0 divides by zero and n = -3 takes a complex power
    for n in (0, -3):
        with pytest.raises(IndexTooSmall):
            nr.corollary_cn_cap(n, 0.5, "odd_beta_dominant")
        for eps in (0.5, 3.0):
            with pytest.raises(IndexTooSmall):
                nr.region_boundary(eps, "even", [2, n])
    assert nr.corollary_cn_cap(1, 0.5, "odd_alpha_dominant") == 0.0
    # a fractional, infinite or NaN index is no index at all: unguarded,
    # n = 2.5 gives a cap and n = inf a NaN
    for n in (2.5, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            nr.corollary_cn_cap(n, 0.5, "odd_alpha_dominant")
        with pytest.raises(ValueError):
            nr.region_boundary(0.5, "odd_beta_dominant", [2, n])


def test_uniform_caps_below_pointwise():
    for eps in (0.1, 0.5, 1.0):
        for n in range(3, 60, 2):
            assert nr.corollary_cn_cap(n, eps, "odd_alpha_uniform") < \
                nr.corollary_cn_cap(n, eps, "odd_alpha_dominant")
            assert nr.corollary_cn_cap(n, eps, "odd_beta_uniform") <= \
                nr.corollary_cn_cap(n, eps, "odd_beta_dominant") * (1 + 1e-12)


def test_region_boundary():
    pts = nr.region_boundary(0.5, "even", range(2, 11))
    assert len(pts) == 9
    cap = nr.corollary_cn_cap(2, 0.5, "even")
    for n, b in pts:
        assert b == pytest.approx(n + math.sqrt(cap) * n ** 0.25, rel=1e-13)
    # at n = 1 the boundary reduces to 1 + sqrt(cap) for every epsilon
    for eps in (0.5, 3.0, 8.0):
        (n1, b1), = nr.region_boundary(eps, "odd_alpha_uniform", [1])
        assert b1 == pytest.approx(1 + math.sqrt(nr.corollary_cn_cap(2, eps, "odd_alpha_uniform")))
    # monotone in n for fixed parameters
    vals = [b for _, b in nr.region_boundary(0.1, "odd_alpha_uniform", range(2, 30))]
    assert all(b2 > b1 for b1, b2 in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# criterion 1: the C_n summation test

def test_theorem1_all_diagonal():
    rep = nr.theorem1_check(nr.FinitePerturbation(()))
    assert rep.partial_sum == 0.0 and rep.tail_bound == 0.0
    assert rep.verdict == "riesz_basis_certified"


def test_theorem1_single_perturbation_inconclusive():
    rep = nr.theorem1_check(nr.FinitePerturbation((complete_point(2, alpha=9),)))
    assert rep.total_upper == pytest.approx((3 + PI ** 2) * PI / 9, abs=1e-12)
    assert rep.total_upper > PI / 2
    assert rep.verdict == "inconclusive"


def test_theorem1_power_family_at_half_caps():
    fam = nr.PowerFamily(epsilon=0.5,
                         even=nr.BranchRule(cap_fraction=0.5),
                         odd=nr.BranchRule(cap_fraction=0.5, side="alpha"))
    rep = nr.theorem1_check(fam)
    assert rep.verdict == "riesz_basis_certified"
    # cap-fraction tails telescope exactly: the grand total is q * pi/2
    assert rep.total_upper == pytest.approx(0.5 * PI / 2, abs=1e-10)


def test_theorem1_power_family_at_full_caps_not_certified():
    fam = nr.PowerFamily(epsilon=0.5, even=nr.BranchRule(cap_fraction=1.0),
                         odd=nr.BranchRule(cap_fraction=1.0, side="beta"))
    rep = nr.theorem1_check(fam)
    assert rep.verdict == "inconclusive"


@pytest.mark.parametrize("q, verdict", [
    (1 - 6e-14, "inconclusive"),            # total pi/2 - 9.4e-14, inside MARGIN
    (1 - 1e-11, "riesz_basis_certified"),   # total pi/2 - 1.6e-11, outside it
])
def test_theorem1_margin_from_both_sides(q, verdict):
    fam = nr.PowerFamily(epsilon=0.5, even=nr.BranchRule(cap_fraction=q),
                         odd=nr.BranchRule(cap_fraction=q))
    rep = nr.theorem1_check(fam)
    assert rep.total_upper == pytest.approx(q * PI / 2, abs=1e-14)
    assert rep.verdict == verdict


@pytest.mark.parametrize("eps", [0.3, 1.2])
@pytest.mark.parametrize("even_side", ["alpha", "beta"])
@pytest.mark.parametrize("odd_side", ["alpha", "beta"])
def test_built_points_obey_distance_bound(eps, even_side, odd_side):
    # the paper's dist^2 <= C_n, for the eigenfunctions actually built and
    # through the exact bump route; the smallest margin is about 5.6e-8
    fam = nr.PowerFamily(epsilon=eps, even=nr.BranchRule(cap_fraction=0.9, side=even_side),
                         odd=nr.BranchRule(cap_fraction=0.9, side=odd_side))
    for n in range(2, 2001):
        p = fam.point(n)
        assert cf.dist_sq_to_sine(p).value <= nr.bound_Cn(n, p.alpha, p.beta), n


def test_theorem1_gamma_line():
    assert nr.theorem1_check(nr.GammaLine(4.0)).verdict == "riesz_basis_certified"
    rep = nr.theorem1_check(nr.GammaLine(5.0))
    assert math.isinf(rep.tail_bound)
    assert rep.verdict == "inconclusive"


def test_theorem1_monotone_in_entries():
    base = nr.theorem1_check(nr.FinitePerturbation((complete_point(2, alpha=9),)))
    more = nr.theorem1_check(nr.FinitePerturbation(
        (complete_point(2, alpha=9), complete_point(3, alpha=12.0))))
    assert more.partial_sum >= base.partial_sum


@st.composite
def power_families(draw):
    """Power families with no rule, a c rule or a cap rule per parity class."""
    def rule():
        kind = draw(st.sampled_from(["none", "c", "cap"]))
        value = draw(st.floats(0.0, 2.0))
        side = draw(st.sampled_from(["alpha", "beta"]))
        if kind == "none":
            return None
        return nr.BranchRule(side=side, **{"c" if kind == "c" else "cap_fraction": value})
    return nr.PowerFamily(epsilon=draw(st.floats(0.05, 20.0)), even=rule(), odd=rule())


def _per_index_partial(fam, n_partial):
    """The power-family partial sum one scalar term per index, in index order."""
    s = 1.0 + fam.epsilon
    return math.fsum(nr._k(n, rule.side) * fam.c_value(n) * n ** -s
                     for n in range(2, n_partial + 1) if (rule := fam._rule(n)) is not None)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fam=power_families(), n_partial=st.sampled_from([2, 3, 7, 2000, 2001]))
def test_theorem1_array_sum_matches_per_index_reference(fam, n_partial):
    rep = nr.theorem1_check(fam, n_partial)
    want = _per_index_partial(fam, n_partial)
    assert rep.partial_sum == pytest.approx(want, rel=1e-15, abs=0)
    total = want + rep.tail_bound
    assert rep.verdict == ("riesz_basis_certified" if total < PI / 2 - nr.MARGIN
                           else "inconclusive")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fam=power_families())
@example(fam=nr.PowerFamily(epsilon=0.5, even=nr.BranchRule(c=0.05),
                            odd=nr.BranchRule(c=0.02, side="alpha")))
def test_theorem1_partial_matches_bound_cn(fam):
    """Each summed term K_n c_n n^{-s} is C_n at the family's own point.

    Compared as sqrt(C_n / K_n) = max(sqrt(alpha), sqrt(beta))/n - 1, which
    the point's coordinates carry to a few ulps of 1 and no better.
    """
    s = 1.0 + fam.epsilon
    for n in (2, 3, 6, 11):
        p = fam.point(n)
        direct = nr.bound_Cn(n, p.alpha, p.beta)
        rule = fam._rule(n)
        if rule is None:
            assert direct == 0.0
            continue
        k = nr._k(n, rule.side)
        term = k * fam.c_value(n) * n ** -s
        assert math.sqrt(direct / k) == pytest.approx(math.sqrt(term / k), rel=1e-12, abs=1e-14)


# ----------------------------------------------------------------------
# criterion 2: diagonal odd entries, convergent even tail

def test_theorem2_all_diagonal():
    rep = nr.theorem2_check(nr.FinitePerturbation(()))
    assert rep.total_upper == 0.0
    assert rep.verdict == "riesz_basis_certified"


def test_theorem2_eq112_style():
    fam = nr.PowerFamily(epsilon=0.5, even=nr.BranchRule(c=0.4))
    rep = nr.theorem2_check(fam)
    assert rep.verdict == "riesz_basis_certified"
    assert rep.tail_bound > 0.0
    # the sum equals 0.4 * sum over even n of n^{-1.5} = 0.4 * 2^{-1.5} zeta(1.5)
    direct = 0.4 * 2 ** -1.5 * nr.zeta(1.5)
    assert rep.total_upper == pytest.approx(direct, abs=1e-10)


def test_theorem2_gamma_line_inconclusive():
    rep = nr.theorem2_check(nr.GammaLine(5.0))
    assert rep.verdict == "inconclusive"
    sg = math.sqrt(5.0)
    assert rep.partial_sum == pytest.approx((sg / 2 - 1) ** 2 * 1000, rel=1e-12)


def test_theorem2_rejects_odd_perturbations():
    with pytest.raises(OddEntriesNotDiagonal):
        nr.theorem2_check(nr.FinitePerturbation((complete_point(3, alpha=13.0),)))
    with pytest.raises(OddEntriesNotDiagonal):
        nr.theorem2_check(nr.PowerFamily(epsilon=0.5, even=None,
                                         odd=nr.BranchRule(c=0.1)))


@pytest.mark.parametrize("odd", [nr.BranchRule(c=0.0), nr.BranchRule(cap_fraction=0.0),
                                 nr.BranchRule(c=0.0, side="beta"),
                                 nr.BranchRule(cap_fraction=0.0, side="beta")])
@pytest.mark.parametrize("n_partial", [2, 2000])
def test_theorem2_accepts_a_zero_odd_rule(odd, n_partial):
    # an odd rule with constant 0 puts every odd point on the diagonal, and
    # its terms and tail are exact zeros, so the report is the even-only one
    even = nr.BranchRule(c=1.0)
    fam = nr.PowerFamily(0.5, even=even, odd=odd)
    assert all(fam.point(n).case == "diagonal" for n in (3, 5, 7, 99))
    want = nr.theorem2_check(nr.PowerFamily(0.5, even=even), n_partial)
    assert nr.theorem2_check(fam, n_partial) == want


def test_theorem2_finite_even_perturbation():
    sys = nr.FinitePerturbation((complete_point(2, alpha=9), diagonal_point(5)))
    rep = nr.theorem2_check(sys)
    assert rep.verdict == "riesz_basis_certified"
    assert rep.partial_sum == pytest.approx((3 / 2 - 1) ** 2, abs=1e-14)
    assert rep.r == pytest.approx(nr.K_EVEN * rep.total_upper)


@pytest.mark.parametrize("eps, n_partial", [(3.0, 2000), (20.0, 2000), (320.0, 7)])
def test_c_rule_tails_cover_the_omitted_terms(eps, n_partial):
    """Each parity class's tail bound is at least its next omitted terms."""
    s = 1.0 + eps
    omitted = range(n_partial + 1, n_partial + 2001)
    for parity, cls in ((0, "even"), (1, "odd")):
        fam = nr.PowerFamily(epsilon=eps, **{cls: nr.BranchRule(c=0.4, side="alpha")})
        want = math.fsum(nr._k(n, "alpha") * 0.4 * n ** -s for n in omitted if n % 2 == parity)
        assert nr.theorem1_check(fam, n_partial).tail_bound >= want > 0.0
    even = nr.PowerFamily(epsilon=eps, even=nr.BranchRule(c=0.4))
    want = math.fsum(0.4 * n ** -s for n in omitted if n % 2 == 0)
    assert nr.theorem2_check(even, n_partial).tail_bound >= want > 0.0


@st.composite
def even_only_systems(draw):
    kind = draw(st.sampled_from(["finite", "c", "cap", "gamma"]))
    if kind == "finite":
        entries = []
        for n in draw(st.lists(st.sampled_from(range(2, 41, 2)), max_size=5, unique=True)):
            s = n * draw(st.floats(1.001, 1.9))
            side = draw(st.sampled_from(["alpha", "beta"]))
            entries.append(complete_point(n, **{side: s * s}))
        return nr.FinitePerturbation(tuple(entries))
    if kind == "gamma":
        return nr.GammaLine(draw(st.floats(4.0, pw.GAMMA_MAX)))
    value = draw(st.floats(0.0, 1.0))
    side = draw(st.sampled_from(["alpha", "beta"]))
    rule = nr.BranchRule(c=value, side=side) if kind == "c" else \
        nr.BranchRule(cap_fraction=value, side=side)
    return nr.PowerFamily(epsilon=draw(st.floats(0.1, 20.0)), even=rule)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(system=even_only_systems(), n_partial=st.sampled_from([2, 7, 50, 2000]))
def test_criterion2_matches_even_only_sums(system, n_partial):
    """Criterion 2 against its definition, summed from the system's points.

    The partial sum is (max(sqrt(alpha), sqrt(beta))/n - 1)^2 over the even
    entries up to ``n_partial`` (all entries of a finite system); a power
    family's tail c 2^{-s} sum_{m > M} m^{-s} lies between the integrals of
    x^{-s} from M + 1 and from M.
    """
    rep = nr.theorem2_check(system, n_partial)
    if isinstance(system, nr.FinitePerturbation):
        points = list(system.entries)
    else:
        points = [system.point(n) for n in range(2, n_partial + 1, 2)]
    want = math.fsum((max(p.sqrt_alpha, p.sqrt_beta) / p.n - 1.0) ** 2 for p in points)
    assert rep.partial_sum == pytest.approx(want, rel=1e-9, abs=1e-12)
    if isinstance(system, nr.PowerFamily):
        s, m = 1.0 + system.epsilon, n_partial // 2
        scale = system.c_value(2) * 2.0 ** -s / (s - 1.0)
        lo, hi = scale * (m + 1) ** (1.0 - s), scale * m ** (1.0 - s)
        assert lo * (1 - 1e-12) <= rep.tail_bound <= hi * (1 + 1e-12)
    elif isinstance(system, nr.GammaLine) and system.gamma != 4.0:
        assert rep.tail_bound == math.inf and rep.verdict == "inconclusive"
    else:
        assert rep.tail_bound == 0.0 and rep.verdict == "riesz_basis_certified"


def test_huge_growth_constants_are_refused():
    """Rule constants are capped at 1e300 so that the criterion sums stay finite."""
    for c in (5e306, 1e307):
        with pytest.raises(ValueError):
            nr.BranchRule(c=c)
        with pytest.raises(ValueError):
            nr.BranchRule(cap_fraction=c)
    fam = nr.PowerFamily(epsilon=0.1, even=nr.BranchRule(c=1e300))
    for check in (nr.theorem1_check, nr.theorem2_check):
        rep = check(fam)
        assert math.isfinite(rep.total_upper) and math.isfinite(rep.r)
    # a fraction of a huge cap: c_2 overflows and is refused, not summed to NaN
    with pytest.raises(ValueError, match="c_2 "):
        nr.theorem1_check(nr.PowerFamily(epsilon=1000.0, even=nr.BranchRule(cap_fraction=1e10)))
    # the odd alpha-side cap grows with n: c_3 = 4.8e299 passes, c_5 = 1.06e300 is the first refused
    fam = nr.PowerFamily(epsilon=1000.0, odd=nr.BranchRule(cap_fraction=1.0))
    assert fam.c_value(3) <= 1e300
    for check in (nr.theorem1_check, lambda f: fam.c_value(5)):
        with pytest.raises(ValueError, match="c_5 "):
            check(fam)
    # with no odd index summed, an underflowing cap denominator is refused, not divided by
    with pytest.raises(ValueError, match="underflows"):
        nr.theorem1_check(nr.PowerFamily(epsilon=1100.0, odd=nr.BranchRule(cap_fraction=0.5)), 2)


# ----------------------------------------------------------------------
# the weakened single-point criterion term

def test_kato_term_diagonal():
    assert nr.kato_weakened_term(diagonal_point(7)) == 0.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=curve_points())
@example(p=diagonal_point(7))
@example(p=complete_point(6, alpha=(6 * (1 + 5e-13)) ** 2))  # in the diagonal band
def test_kato_term_is_the_formula_of_the_public_forms(p):
    # one norm and one same-index product give the bits of the formula
    # over dist_sq_to_sine and norm_sq, and exactly 0.0 on the diagonal
    d = cf.dist_sq_to_sine(p).value
    nf = cf.norm_sq(p).value
    term = nr.kato_weakened_term(p)
    assert term == max(d - (nf - PI / 2 + d) ** 2 / (4 * nf), 0.0)
    if p.case == "diagonal":
        assert term == 0.0 and math.copysign(1.0, term) == 1.0


def test_kato_term_bounded_by_distance():
    for n in (2, 3, 6, 15):
        for p in curve_samples(n, 8, lo=1.001, hi=2.0):
            term = nr.kato_weakened_term(p)
            dist = cf.dist_sq_to_sine(p).value
            assert 0.0 <= term <= dist + 1e-15


def test_kato_term_vanishes_only_at_diagonal():
    ratios = np.linspace(1.0005, 1.5, 40)
    values = []
    for r in ratios:
        p = complete_point(2, alpha=float((2 * r) ** 2))
        values.append(nr.kato_weakened_term(p))
    values = np.array(values)
    assert np.all(values > 0.0)
    # continuous decay toward the diagonal end of the sweep
    assert values[0] < values[-1]


# ----------------------------------------------------------------------
# system specification plumbing

def test_power_family_points_on_curve():
    fam = nr.PowerFamily(epsilon=0.5, even=nr.BranchRule(cap_fraction=0.5),
                         odd=nr.BranchRule(cap_fraction=0.5, side="beta"))
    from fucik.spectrum import curve_residual
    for n in range(2, 12):
        p = fam.point(n)
        assert abs(curve_residual(p)) <= 1e-9
        want = fam.dominant_sqrt(n)
        assert max(p.sqrt_alpha, p.sqrt_beta) == pytest.approx(want, rel=1e-12)
    # a class without a rule stays on the diagonal
    even_only = nr.PowerFamily(0.5, even=nr.BranchRule(c=1.0))
    assert even_only.c_value(3) == 0.0 and even_only.point(3) == diagonal_point(3)


def test_branch_rule_validation():
    with pytest.raises(ValueError):
        nr.BranchRule()
    with pytest.raises(ValueError):
        nr.BranchRule(c=0.1, cap_fraction=0.5)
    with pytest.raises(ValueError):
        nr.PowerFamily(epsilon=0.0, even=nr.BranchRule(c=0.1))
    # a side is "alpha" or "beta"; PowerFamily.point would build any other
    # as beta-dominant
    for side in ("gamma", "Alpha", None, 3):
        with pytest.raises(InvalidArgument, match="side must be"):
            nr.BranchRule(c=1.0, side=side)
        with pytest.raises(InvalidArgument, match="side must be"):
            nr.BranchRule(cap_fraction=0.5, side=side)


def test_system_fields_of_the_wrong_type_are_refused():
    # each is a package refusal, not a TypeError or an AttributeError from
    # deeper down
    from fucik import grammatrix as gm
    cases = [lambda: nr.FinitePerturbation(5),
             lambda: nr.FinitePerturbation(complete_point(2, alpha=9.0)),
             lambda: nr.GammaLine("5"),
             lambda: nr.BranchRule(c="x"),
             lambda: nr.BranchRule(cap_fraction=[0.5]),
             lambda: nr.PowerFamily("0.5"),
             lambda: gm.build_gram(nr.PowerFamily(0.5, even="x"), 8),
             lambda: nr.theorem1_check(nr.PowerFamily(0.5, odd=1.0)),
             lambda: pw.E_gamma("5"),
             lambda: pw.E_gamma_extended(None)]
    for case in cases:
        with pytest.raises(InvalidArgument):
            case()
    # an iterable of points is taken as the tuple it names
    assert (nr.FinitePerturbation([complete_point(2, alpha=9.0)])
            == nr.FinitePerturbation((complete_point(2, alpha=9.0),)))


def test_non_finite_system_parameters_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(TailNotBoundable):
            nr.PowerFamily(epsilon=bad, even=nr.BranchRule(c=0.1))
        with pytest.raises(ValueError):
            nr.BranchRule(c=bad)
        with pytest.raises(ValueError):
            nr.BranchRule(cap_fraction=bad)


def test_finite_perturbation_validation():
    with pytest.raises(ValueError):
        nr.FinitePerturbation((complete_point(2, alpha=9), complete_point(2, alpha=9)))
    with pytest.raises(NotOnCurve):
        nr.FinitePerturbation((FucikPoint(4, math.nan, 16.0),))


def test_gamma_line_range_guard():
    from fucik import paleywiener as pw
    from fucik.errors import GammaOutOfRange
    with pytest.raises(GammaOutOfRange):
        nr.GammaLine(5.7)
    with pytest.raises(GammaOutOfRange):
        nr.GammaLine(3.99)
    # the limits are those of the budget E(gamma), to the last bit
    assert nr.GammaLine(pw.GAMMA_MAX).gamma == pw.GAMMA_MAX
    for bad in (math.nextafter(pw.GAMMA_MAX, math.inf), math.nan):
        with pytest.raises(GammaOutOfRange):
            nr.GammaLine(bad)


def test_criteria_reject_short_partial_sums():
    power = nr.PowerFamily(epsilon=0.5, even=nr.BranchRule(c=0.1))
    for check in (nr.theorem1_check, nr.theorem2_check):
        for system in (power, nr.GammaLine(5.0), nr.FinitePerturbation(())):
            for bad in (-4, 0, 1, 10.5, math.nan, math.inf):
                with pytest.raises(ValueError):
                    check(system, n_partial=bad)
            assert check(system, n_partial=2).partial_sum >= 0.0
            # an integral float is the count it names
            assert check(system, n_partial=10.0) == check(system, n_partial=10)


def test_n_partial_above_its_cap_is_refused_before_any_sum(monkeypatch):
    # 2**53 once reached the sums and raised numpy's MemoryError (32 PiB)
    def refuse(*args):
        raise AssertionError("summed")
    monkeypatch.setattr(nr, "_power_family_sums", refuse)
    power = nr.PowerFamily(epsilon=0.5, even=nr.BranchRule(c=1.0))
    for check in (nr.theorem1_check, nr.theorem2_check):
        for bad in (2 ** 53, 10 ** 9, nr._N_PARTIAL_MAX + 1):
            with pytest.raises(InvalidArgument, match="n_partial"):
                check(power, n_partial=bad)


def _direct_partial(fam, n_cut):
    """The partial sum as one array of terms per class and one fsum."""
    terms = []
    for first, rule in ((2, fam.even), (3, fam.odd)):
        if rule is not None:
            n = np.arange(first, n_cut + 1, 2, dtype=float)
            c = nr._growth_constants(rule, first == 2, n, fam.epsilon)
            k = nr.K_EVEN if first == 2 else nr._k_odd(n, rule.side)
            terms += (k * c * np.float_power(n, -(1.0 + fam.epsilon))).tolist()
    return math.fsum(terms)


@pytest.mark.parametrize("fam", [
    nr.PowerFamily(0.6, even=nr.BranchRule(cap_fraction=0.5),
                   odd=nr.BranchRule(cap_fraction=0.4, side="beta")),
    nr.PowerFamily(0.3, even=nr.BranchRule(c=1.0), odd=nr.BranchRule(c=0.2)),
    nr.PowerFamily(2.0, odd=nr.BranchRule(cap_fraction=0.9)),
], ids=["caps", "constants", "odd-only"])
@pytest.mark.parametrize("n_cut", [2, 3, 2000, 2001])
def test_chunked_partial_sum_is_the_direct_fsum(monkeypatch, fam, n_cut):
    whole = nr._power_family_sums(fam, n_cut)
    assert whole[0] == _direct_partial(fam, n_cut)
    # chunks of 7 indices split each class many times, at odd offsets
    monkeypatch.setattr(nr, "_TERM_CHUNK", 7)
    assert nr._power_family_sums(fam, n_cut) == whole
