"""Closed forms against the quadrature oracle and against each other."""

import ast
import inspect
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paper_formulas as paper
from conftest import curve_points, curve_samples, quad_dist_sq, quad_inner, quad_norm_sq
from fucik import closedform as cf
from fucik import eigenfunction
from fucik import nearness as nr
from fucik import paleywiener as pw
from fucik import spectrum
from fucik.eigenfunction import bump_table
from fucik.errors import NotOnCurve
from fucik.spectrum import FucikPoint, complete_point, diagonal_point, gamma_line_point

P29 = complete_point(2, alpha=9)


def test_norm_sq_examples():
    assert cf.norm_sq(diagonal_point(3)).value == pytest.approx(math.pi / 2, abs=1e-15)
    v = cf.norm_sq(P29)
    assert v.value == pytest.approx(math.pi / 2 - math.pi / 8, abs=1e-14)
    assert v.formula_case == "even_alpha"
    # independent arithmetic path: bump-wise integration
    n, alpha, beta = 2, 9.0, 2.25
    bump_route = (n / 4) * (beta / alpha) * (math.pi / math.sqrt(alpha)) \
        + (n / 4) * (math.pi / math.sqrt(beta))
    assert v.value == pytest.approx(bump_route, abs=1e-14)
    assert v.value == pytest.approx(quad_norm_sq(P29), abs=1e-12)


def test_dist_sq_examples():
    assert cf.dist_sq_to_sine(diagonal_point(4)).value == 0.0
    v = cf.dist_sq_to_sine(P29)
    expected = math.pi - math.pi / 8 - (324 / 140) * math.sin(2 * math.pi / 3)
    assert v.value == pytest.approx(expected, abs=1e-13)
    assert v.value == pytest.approx(quad_dist_sq(P29), abs=1e-10)


def test_inner_same_examples():
    assert cf.inner_same_index(diagonal_point(2)).value == pytest.approx(math.pi / 2)
    v = cf.inner_same_index(P29)
    expected = (2 * 81 / (4 * 7 * 5)) * math.sin(2 * math.pi / 3)
    assert v.value == pytest.approx(expected, abs=1e-13)
    assert v.value == pytest.approx(quad_inner(P29, 2), abs=1e-12)


@pytest.mark.parametrize("n", list(range(2, 60)))
def test_inner_same_matches_bump_route(n):
    """Second independent route: the paper's per-case formulas, which share
    no algebra with the production bump route, reproduce the squared norm,
    the squared distance and <f, sin(n x)> on both dominance branches."""
    for p in curve_samples(n, 24, lo=1.0005, hi=2.3):
        case, norm, dist, inner = paper.same_index(p)
        assert cf.norm_sq(p).formula_case == case
        assert cf.norm_sq(p).value == pytest.approx(norm, abs=1e-10)
        assert cf.dist_sq_to_sine(p).value == pytest.approx(dist, abs=1e-10)
        assert cf.inner_same_index(p).value == pytest.approx(inner, abs=1e-10)


def test_inner_same_positive_even_alpha():
    for n in (2, 4, 10):
        for r in np.linspace(1.01, 1.45, 8):
            p = complete_point(n, alpha=float((n * r) ** 2))
            assert cf.inner_same_index(p).value > 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 20, 37, 50])
def test_oracle_equivalence(n):
    for p in curve_samples(n, 6):
        assert cf.norm_sq(p).value == pytest.approx(quad_norm_sq(p), abs=1e-9)
        assert cf.dist_sq_to_sine(p).value == pytest.approx(quad_dist_sq(p), abs=1e-9)
        assert cf.inner_same_index(p).value == pytest.approx(quad_inner(p, n), abs=1e-9)


@pytest.mark.parametrize("n", list(range(2, 51)))
def test_polarization_consistency(n):
    """<f, sine> must equal (|f|^2 + pi/2 - |f - sine|^2) / 2 everywhere."""
    for p in curve_samples(n, 20, lo=1.001, hi=2.1):
        lhs = cf.inner_same_index(p).value
        rhs = 0.5 * (cf.norm_sq(p).value + math.pi / 2 - cf.dist_sq_to_sine(p).value)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_case_symmetry_even():
    """For even n the distance formula depends only on the dominant root."""
    n = 6
    s = 7.4
    pa = complete_point(n, alpha=s * s)
    pb = complete_point(n, beta=s * s)
    da = cf.dist_sq_to_sine(pa)
    db = cf.dist_sq_to_sine(pb)
    assert da.value == pytest.approx(db.value, abs=1e-14)
    assert {da.formula_case, db.formula_case} == {"even_alpha", "even_beta"}


def test_nonnegativity_sweep():
    for n in range(2, 26):
        for p in curve_samples(n, 10, lo=1.002, hi=2.4):
            assert cf.dist_sq_to_sine(p).value >= 0.0
            assert 0.0 < cf.norm_sq(p).value <= math.pi / 2 + 1e-15


@pytest.mark.parametrize("n", [3, 5, 9, 17])
def test_odd_formula_factors_nonnegative(n):
    """Under the case assumption every trig factor of the odd-index
    formulas keeps a fixed sign, which is what makes the subtracted term
    a genuine correction rather than an oscillation."""
    for r in np.linspace(1.0005, 2.2, 12):
        s = n * float(r)
        # alpha-dominant branch factors
        assert math.cos(math.pi / 2 * n / s) >= 0.0
        assert math.cos(math.pi / 2 * (n * n + n - 2 * s) / ((n - 1) * s)) >= 0.0
        assert math.sin(math.pi * (s - n) / ((n - 1) * s)) >= 0.0
        assert (3 * n - 1) * s - n * (n + 1) > 0.0
        # beta-dominant branch factors
        assert math.cos(math.pi / 2 * (2 * s + n * n - n) / ((n + 1) * s)) >= 0.0
        assert math.sin(math.pi * n * (s + 1) / ((n + 1) * s)) >= 0.0
        assert (3 * n + 1) * s - n * (n - 1) > 0.0


# indices and sqrt-scale gaps where the paper's formulas are 0/0 or nearly so
EDGE_NS = (2, 3, 4, 7, 10, 31, 59)
GAPS = [10.0 ** e for e in range(-11, -4)]


def _dominance_tag(p):
    if p.case == "diagonal":
        return "diagonal"
    return ("even_" if p.n % 2 == 0 else "odd_") + p.case.split("_")[0]


def _assert_exact(p, ms=()):
    """Every quantity at p carries the dominance tag, matches quadrature to
    1e-12 and leaves a nonnegative squared distance."""
    dist = cf.dist_sq_to_sine(p)
    pairs = [(cf.norm_sq(p), quad_norm_sq(p)), (dist, quad_dist_sq(p)),
             (cf.inner_same_index(p), quad_inner(p, p.n))]
    pairs += [(cf.inner_cross_index(p, m), quad_inner(p, m)) for m in ms]
    for v, quad in pairs:
        assert v.formula_case == _dominance_tag(p)
        assert abs(v.value - quad) <= 1e-12, (p, v, quad)
    assert dist.value >= 0.0


def _resonant_indices(n, side):
    """m != n with sin(m x) not a structural zero and m^2 feasible as the
    given coordinate on curve n: the smallest and the largest up to 2n + 2."""
    shift = n if n % 2 == 0 else (n + 1 if side == "alpha" else n - 1)
    ms = [m for m in range(2, 2 * n + 3)
          if m != n and 2 * m > shift and not (m % 2 == 0 and (n % 2 == 1 or m < n))]
    return ms[0], ms[-1]


def test_near_diagonal_fallback():
    """Right next to the diagonal, where the paper's formulas are 0/0, the
    bump route needs no quadrature fallback: gaps 1e-11..1e-5 on the sqrt
    scale, on both sides of the diagonal."""
    for n in EDGE_NS:
        for gap in GAPS:
            for root in (n - gap, n + gap):
                _assert_exact(complete_point(n, alpha=root ** 2))


def test_fallback_flag_iff_band():
    """Both sides of the former fallback band |s - n| < 1e-6 are exact and
    report the dominance case, whichever coordinate is given."""
    for n in EDGE_NS:
        for gap in (1e-8, 5e-7, 2e-6, 1e-2):
            for side in ("alpha", "beta"):
                _assert_exact(complete_point(n, **{side: (n + gap) ** 2}))


def test_cross_index_resonance_fallback():
    """Exact resonances alpha = m^2 and beta = m^2 of the cross products,
    and gaps 1e-11..1e-5 around them, on the plain bump route."""
    for n in EDGE_NS:
        for side in ("alpha", "beta"):
            low, high = _resonant_indices(n, side)
            for m in (low, high):
                _assert_exact(complete_point(n, **{side: float(m * m)}), ms=(m,))
            for gap in GAPS:
                for root in (low - gap, low + gap):
                    _assert_exact(complete_point(n, **{side: root ** 2}), ms=(low,))


def test_cross_index_structural_zeros():
    assert cf.inner_cross_index(complete_point(3, alpha=13.7), 2).value == 0.0
    assert cf.inner_cross_index(complete_point(4, alpha=25.0), 2).value == 0.0
    assert cf.inner_cross_index(complete_point(9, beta=96.0), 6).value == 0.0


def test_cross_index_quadrature_agreement():
    cases = [
        (P29, 1),
        (complete_point(2, alpha=9), 3),
        (complete_point(5, alpha=36.0), 3),
        (complete_point(7, beta=61.0), 9),
        (complete_point(4, alpha=21.3), 6),  # even m > n: no vanishing assumed
        (complete_point(4, alpha=21.3), 8),
    ]
    for p, m in cases:
        v = cf.inner_cross_index(p, m)
        assert v.value == pytest.approx(quad_inner(p, m), abs=1e-10), (p.n, m)


def test_cross_index_diagonal_is_zero():
    for m in (1, 2, 5):
        v = cf.inner_cross_index(diagonal_point(3), m)
        assert v.value == 0.0
        assert v.formula_case == "diagonal"


def test_cross_index_validation():
    with pytest.raises(ValueError):
        cf.inner_cross_index(P29, 2)
    with pytest.raises(ValueError):
        cf.inner_cross_index(P29, 0)
    with pytest.raises(ValueError):
        cf.inner_cross_index(P29, 10 ** 4 + 1)
    p = complete_point(4, alpha=30.0)
    with pytest.raises(ValueError):
        cf.inner_cross_index(p, 5.9)
    assert cf.inner_cross_index(p, np.int64(5)) == cf.inner_cross_index(p, 5)


def test_not_on_curve_rejection():
    # the closed forms take a FucikPoint, and no off-curve or NaN one can be made
    for n, alpha, beta in ((2, 9.0, 9.0), (4, math.nan, 16.0)):
        with pytest.raises(NotOnCurve):
            cf.norm_sq(FucikPoint(n, alpha, beta))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=curve_points())
def test_closed_form_properties(p):
    norm = cf.norm_sq(p).value
    dist = cf.dist_sq_to_sine(p).value
    inner = cf.inner_same_index(p).value
    assert 0.0 < norm <= math.pi / 2
    # the slack of test_domination: C_n vanishes on the diagonal
    assert 0.0 <= dist <= nr.bound_Cn(p.n, p.alpha, p.beta) * (1 + 1e-12) + 1e-15
    assert inner == pytest.approx(0.5 * (norm + math.pi / 2 - dist), abs=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(points=st.lists(curve_points(64).filter(lambda p: p.case != "diagonal"),
                       min_size=1, max_size=6))
@example(points=[complete_point(4, alpha=30.0)])  # m = 6: c = 3 pi, a tie mod 2 pi
def test_single_point_forms_give_the_table_bits(points):
    """Each single-point form returns the bits of its row in the table forms.

    The two routes share every operation and its order, but one calls the
    C library's ``sin`` through ``math`` and the other numpy's float64
    ``sin``, so the test relies on the two agreeing bit for bit.
    """
    t = bump_table(points)
    ms = np.arange(1, 41)
    cross = cf.sine_products(t, ms)
    same = cf.sine_products(t, t.n[:, None])[:, 0]
    norms = cf.norms_sq(t)
    for p, row, inner, norm in zip(points, cross, same, norms):
        assert cf.norm_sq(p).value == norm
        assert cf.inner_same_index(p).value == inner
        for m, value in zip(ms.tolist(), row):
            if m != p.n:
                assert cf.inner_cross_index(p, m).value == value, (p, m)


def test_closed_form_values_are_immutable_named_pairs():
    p = complete_point(7, alpha=96.04)
    v = cf.inner_cross_index(p, 3)
    assert cf.ClosedFormValue._fields == ("value", "formula_case")
    assert tuple(v) == (v.value, v.formula_case) and v.formula_case == "odd_alpha"
    assert repr(v) == f"ClosedFormValue(value={v.value!r}, formula_case='odd_alpha')"
    for name in ("value", "formula_case", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0.0)
    # a structural zero is one shared value per (case, parity), tagged as
    # the point's other values are
    for q in (complete_point(7, beta=96.04), complete_point(6, alpha=50.0),
              complete_point(6, beta=50.0), p, diagonal_point(6), diagonal_point(7)):
        zero = cf.inner_cross_index(q, 2)
        assert zero == (0.0, cf.norm_sq(q).formula_case)
        assert zero is cf.inner_cross_index(q, 4)


def _same_index_reads(p):
    """The four same-index reads of p, as bit patterns and tags."""
    return (*((v.value.hex(), v.formula_case)
              for v in (cf.norm_sq(p), cf.dist_sq_to_sine(p), cf.inner_same_index(p))),
            nr.kato_weakened_term(p).hex())


def _fresh_same_index_reads(p):
    """The same reads from the table forms, which no cache reaches."""
    t = bump_table([p])
    norm, inner = float(cf.norms_sq(t)[0]), float(cf.sine_products(t, t.n[:, None])[0, 0])
    dist = max(norm + math.pi / 2 - 2 * inner, 0.0)
    tag = cf.norm_sq(p).formula_case
    kato = max(dist - (norm - math.pi / 2 + dist) ** 2 / (4 * norm), 0.0)
    return ((norm.hex(), tag), (dist.hex(), tag), (inner.hex(), tag), kato.hex())


def test_interleaved_same_index_reads_get_their_own_points_values():
    # the same-index values are kept for the last point object asked: reads
    # that alternate between points, and between equal but distinct point
    # objects, must each get the bits a fresh computation gives
    p, q = complete_point(7, alpha=96.04), complete_point(4, beta=30.0)
    twin = FucikPoint(p.n, p.alpha, p.beta)
    assert twin == p and twin is not p
    points = [p, q, twin, complete_point(9, beta=90.0)]
    want = [_fresh_same_index_reads(r) for r in points]
    rng = np.random.default_rng(29)
    for k, read in zip(rng.integers(0, len(points), 300), rng.integers(0, 4, 300)):
        assert _same_index_reads(points[k])[read] == want[k][read], (points[k], read)


def test_racing_threads_read_their_own_points_values():
    # more threads than cores, switching every microsecond, each alternating
    # between two points: a read that paired one point with the values of
    # the other would break the equality
    points = [complete_point(5, alpha=50.0), complete_point(6, beta=50.0)]
    want = [_fresh_same_index_reads(p) for p in points]
    start = threading.Barrier(6, timeout=60)

    def reads(k):
        start.wait()
        return all(_same_index_reads(points[i % 2]) == want[i % 2] for i in range(k, k + 3000))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            done = list(pool.map(reads, range(6), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert done == [True] * 6


def _functions(module, names):
    tree = ast.parse(inspect.getsource(module))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in names]


def test_single_point_forms_call_no_numpy():
    """A numpy call on Python floats costs 16 to 25 times a ``math`` one,
    so the single-point forms, the point constructor and the per-point
    helpers they call use no ``np.``."""
    forms = (_functions(cf, {"_progression_pair", "_bump_factor", "_sine_product", "_norm",
                             "_dist", "_same_index_values", "_same_index", "norm_sq",
                             "dist_sq_to_sine", "inner_same_index", "inner_cross_index"})
             + _functions(spectrum, {"__init__", "curve_residual"})
             + _functions(eigenfunction, {"amplitudes"})
             + _functions(nr, {"kato_weakened_term", "_cn"}))
    assert len(forms) == 16
    for form in forms:
        used = {node.value.id for node in ast.walk(form)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        assert not used & {"np", "numpy"}, form.name


def test_zero_angles_take_their_limits_bit_for_bit():
    """Every kernel evaluates its quotients at the stand-in cf._TINY where
    the angle or frequency is 0, and gets the limit there exactly."""
    rng = np.random.default_rng(24)
    h = np.concatenate(([0.0, 1.0, np.pi, 1e-100], rng.uniform(0, 10, 2000),
                        rng.uniform(0, 1e-12, 200)))
    assert np.array_equal(cf._beat(np.zeros_like(h), h), h)
    assert np.array_equal(cf._beat(np.zeros(h.size), 1.0), np.ones(h.size))
    # a progression at c = 0 (or c = 2 pi, reduced to 0) is count sin(d)
    n = np.repeat(np.arange(1, 41), 50)
    d_pos, d_neg = rng.uniform(-7, 7, (2, n.size))
    d_pos[:3], d_neg[:3] = -0.0, 0.0
    for c in (0.0, -0.0, 2 * np.pi):
        pos, neg = cf._progression_pairs(n, np.full(n.size, c), d_pos, d_neg)
        assert (pos == (n + 1) // 2 * np.sin(d_pos)).all()
        # n = 1 has no negative bump: count 0
        assert (neg == n // 2 * np.sin(d_neg)).all() and (neg[n == 1] == 0).all()
        for k in range(0, n.size, 37):
            if n[k] >= 2:
                got = cf._progression_pair(int(n[k]), c, d_pos[k], d_neg[k])
                assert got == ((n[k] + 1) // 2 * math.sin(d_pos[k]),
                               n[k] // 2 * math.sin(d_neg[k]))
    # a bump whose frequency is its comparator's: sinc(0) = 1
    for m in range(1, 40):
        assert cf._bump_factor(float(m), m) == math.pi / (2 * m)
    m = np.arange(1, 40)
    assert np.array_equal(cf._bump_factors(m.astype(float), m), np.pi / (2 * m))


# ----------------------------------------------------------------------
# products of even eigenfunctions as dilates of their profiles


def _coprime_pairs(bmax):
    return [(a, b) for b in range(2, bmax + 1) for a in range(1, b) if math.gcd(a, b) == 1]


def _even_row(n, g, side):
    """The even eigenfunction of index n whose dominant frequency is (n/2) sqrt(g).

    Its profile is the alpha-side dilation-line profile of ``g``, or the
    mirror profile on the beta side.
    """
    if side == "alpha":
        return gamma_line_point(n, g)
    return complete_point(n, beta=n * n * g / 4)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(4 + 1e-6, pw.GAMMA_MAX), pair=st.sampled_from(_coprime_pairs(64)))
def test_dilation_products_match_pair_products(gamma, pair):
    # f_2a(x) = F(a x): the closed form from the profile against the merged
    # junctions of the two built rows
    a, b = pair
    table = bump_table([gamma_line_point(2 * a, gamma), gamma_line_point(2 * b, gamma)])
    want = cf.pair_products(table, [0], [1])[0]
    assert abs(cf.dilation_products(table, [0], [1])[0] - want) <= 1e-13


@pytest.mark.parametrize("gamma", [4.3, 5.0, pw.GAMMA_MAX])
def test_dilation_products_reduce_pairs_that_are_not_coprime(gamma):
    # F(d a x) F(d b x) integrates to the product of (a, b): the bits of the
    # reduced pair, and the merged junctions of the pair's own rows
    a, b = np.array([(2, 4), (6, 9), (10, 15), (12, 18), (7, 7)]).T
    d = np.gcd(a, b)
    ks = sorted({*a, *b, *(a // d), *(b // d)})
    row = {k: r for r, k in enumerate(ks)}
    table = bump_table([gamma_line_point(2 * k, gamma) for k in ks])
    got = cf.dilation_products(table, [row[k] for k in a], [row[k] for k in b])
    for value, x, y in zip(got, a // d, b // d):
        assert value == cf.dilation_products(table, [row[x]], [row[y]])[0]
    want = cf.pair_products(table, [row[k] for k in a], [row[k] for k in b])
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("gamma", [
    4.84,  # sqrt(gamma) - 1 = 6/5: 5 w1 = 6 w2, a zero frequency at (5, 6)
    5.0625,  # sqrt(gamma) = 9/4: rho and s are integers at a or b = 9
    4.000000000008001,  # some even rows fall in the diagonal band
    pw.GAMMA_MAX,
])
def test_dilation_products_at_the_edge_cases(gamma):
    # every coprime pair a < b <= 64 of the line's eigenfunctions, against
    # their merged junctions; a row in the diagonal band is sin(2a x), not
    # F(a x), and is left out
    line = nr.GammaLine(gamma)
    keep = [k for k in range(1, 65) if line.point(2 * k).case != "diagonal"]
    row = {k: i for i, k in enumerate(keep)}
    a, b = np.array([(row[a], row[b]) for a, b in _coprime_pairs(64) if a in row and b in row]).T
    table = bump_table([line.point(2 * k) for k in keep])
    want = cf.pair_products(table, a, b)
    assert np.max(np.abs(cf.dilation_products(table, a, b) - want)) <= 1e-13


def test_dilation_products_on_the_diagonal_profile():
    # the sines sin(2a x) are dilates of sin(2 y), and the Dirichlet angle
    # w1 pi of a = 1 or b = 1 is 2 pi itself, with one term in its sum
    table = bump_table([diagonal_point(2 * k) for k in range(1, 65)])
    a, b = np.array(_coprime_pairs(64)).T - 1
    assert np.max(np.abs(cf.dilation_products(table, a, b))) <= 1e-15
    assert cf.dilation_products(table, [0], [0])[0] == pytest.approx(math.pi / 2, abs=1e-15)
    # no pairs: both kernels return an empty array, with no guard of their own
    for kernel in (cf.dilation_products, cf.pair_products):
        assert kernel(table, [], []).shape == (0,)


def _exact_dilate_product(mpmath, f, g, a, b):
    """int_0^pi F(a x) G(b x) dx in 40 digits, for profiles f and g given as (g, side).

    Each profile is built here from its dominant frequency sqrt(g) alone,
    as :func:`_even_row` builds its row, with exact bump ends k pi / m and
    (k pi + L1) / m, so no rounding of a built row enters; each piece
    between merged bump ends is integrated in closed form.
    """
    with mpmath.workdps(40):
        def profile(spec):
            w = mpmath.sqrt(mpmath.mpf(spec[0]))
            other = w / (w - 1)
            if spec[1] == "alpha":
                return w, other, other / w, mpmath.mpf(1)
            return other, w, mpmath.mpf(1), other / w

        def wave(prof, m, x):
            w1, w2, amp_pos, amp_neg = prof
            l1 = mpmath.pi / w1
            k = mpmath.floor(m * x / mpmath.pi)
            if m * x - k * mpmath.pi < l1:
                return amp_pos, m * w1, -w1 * k * mpmath.pi
            return -amp_neg, m * w2, -w2 * (k * mpmath.pi + l1)

        pf, pg = profile(f), profile(g)
        ends = sorted({e / m for m, prof in ((a, pf), (b, pg)) for k in range(m)
                       for e in (k * mpmath.pi, k * mpmath.pi + mpmath.pi / prof[0])}
                      | {mpmath.pi})
        total = mpmath.mpf(0)
        for x0, x1 in zip(ends, ends[1:]):
            mid, h = (x0 + x1) / 2, x1 - x0
            p, w, th = wave(pf, a, mid)
            q, v, ps = wave(pg, b, mid)
            for kappa, phase, sign in ((w - v, th - ps, 1), (w + v, th + ps, -1)):
                span = h if kappa == 0 else 2 * mpmath.sin(kappa * h / 2) / kappa
                total += sign * p * q / 2 * span * mpmath.cos(kappa * mid + phase)
        return float(total)


_LINE = (5.55, "alpha")


@pytest.mark.parametrize("f, g, a, b", [
    pytest.param(_LINE, _LINE, 191, 192, id="191-192"),
    pytest.param(_LINE, _LINE, 1, 2, id="1-2"),
    pytest.param(_LINE, _LINE, 100, 171, id="100-171"),
    pytest.param((4.3, "alpha"), (5.55, "alpha"), 1, 2, id="alpha-alpha-1-2"),
    pytest.param((5.55, "alpha"), (4.3, "alpha"), 191, 192, id="alpha-alpha-191-192"),
    pytest.param((5.0, "alpha"), (4.6, "beta"), 3, 5, id="alpha-beta-3-5"),
    pytest.param((4.6, "beta"), (5.0, "alpha"), 100, 171, id="beta-alpha-100-171"),
    pytest.param((4.8, "beta"), (5.3, "beta"), 7, 3, id="beta-beta-7-3"),
    pytest.param((5.3, "beta"), (4.05, "beta"), 64, 2, id="beta-beta-64-2"),
])
def test_dilation_products_against_exact_dilates(f, g, a, b):
    # H is summed from the b factor's profile and the runs from the a
    # factor's, which may differ, on either dominance side; merging built
    # rows instead carries the rounding of their bump ends, about 9e-14 at
    # (191, 192) on one profile
    mpmath = pytest.importorskip("mpmath")
    table = bump_table([_even_row(2 * a, *f), _even_row(2 * b, *g)])
    got = cf.dilation_products(table, [0], [1])[0]
    assert abs(got - _exact_dilate_product(mpmath, f, g, a, b)) <= 1e-14


@st.composite
def _even_rows(draw):
    """Two even rows of one power family, or two explicit even entries."""
    n = [2 * draw(st.integers(1, 64)) for _ in range(2)]
    if draw(st.booleans()):
        rule = nr.BranchRule(c=draw(st.floats(1e-3, 5.0)),
                             side=draw(st.sampled_from(["alpha", "beta"])))
        family = nr.PowerFamily(draw(st.floats(0.05, 1.0)), even=rule)
        return [family.point(k) for k in n]
    return [_even_row(k, draw(st.floats(4 + 1e-9, 9.0)), draw(st.sampled_from(["alpha", "beta"])))
            for k in n]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(points=_even_rows())
def test_dilation_products_of_two_profiles_match_pair_products(points):
    table = bump_table(points)
    got = cf.dilation_products(table, [0, 1, 0], [1, 0, 0])
    assert np.max(np.abs(got - cf.pair_products(table, [0, 1, 0], [1, 0, 0]))) <= 1e-13


@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_dilation_products_next_to_the_diagonal_band(side):
    # s = max(sqrt(alpha), sqrt(beta)) / n just outside the band of relative
    # half-width 1e-12, where the Dirichlet angles w pi / a approach 2 pi / a
    points = [_even_row(2 * k, (2 * (1 + gap)) ** 2, side)
              for k in (1, 2, 3, 5, 32, 64) for gap in (2e-12, 1e-9, 1e-6)]
    assert all(p.case != "diagonal" for p in points)
    table = bump_table(points)
    i, j = np.triu_indices(len(points))
    assert np.max(np.abs(cf.dilation_products(table, i, j) - cf.pair_products(table, i, j))) <= 1e-13


def test_rows_with_one_profile_share_it():
    # w = (3, 3/2) for n = 4 at alpha = 36 and n = 8 at alpha = 144 alike;
    # a row a few ulp away takes the profile of the first row too, and a
    # row of another profile keeps its own index
    rows = [complete_point(4, alpha=36.0), complete_point(6, beta=30.0),
            complete_point(8, alpha=144.0), complete_point(10, alpha=np.nextafter(225.0, 300)),
            complete_point(12, beta=40.0)]
    table = bump_table(rows)
    _, _, profile = cf._profiles(table)
    assert list(profile) == [0, 1, 0, 0, 4]
    i, j = np.triu_indices(len(rows), 1)
    assert np.max(np.abs(cf.dilation_products(table, i, j) - cf.pair_products(table, i, j))) <= 1e-13


def _mixed_rows():
    """Dilation-line rows, power-family rows of both parities, and f_4 9e-10
    off its curve, with the indices of the rows that are even and periodic
    as built."""
    line = nr.GammaLine(5.3)
    family = nr.PowerFamily(0.5, even=nr.BranchRule(c=1.0),
                            odd=nr.BranchRule(c=0.3, side="beta"))
    rows = [line.point(n) for n in (2, 6, 8)] + [family.point(n) for n in (3, 4, 5, 10)]
    return rows + [FucikPoint(4, 36.0, 9.0 + 7.7e-9)], {0, 1, 2, 4, 6}


@pytest.mark.parametrize("rows, periodic", [_mixed_rows(), ([complete_point(3, alpha=13.0)], set())],
                         ids=["mixed", "one-row"])
def test_gram_block_routes_each_pair_to_one_kernel(rows, periodic):
    # the norms on the diagonal; above it, the profile kernel for a pair of
    # even rows periodic as built and the merged junctions for every other,
    # each entry the bits of its own one-pair call, mirrored below
    table = bump_table(rows)
    block = cf.gram_block(table)
    assert block.shape == (len(rows), len(rows))
    assert np.array_equal(np.diag(block), cf.norms_sq(table))
    assert np.array_equal(block, block.T)
    routes = set()
    for r, q in zip(*np.triu_indices(len(rows), 1)):
        profiled = r in periodic and q in periodic
        routes.add(profiled)
        kernel = cf.dilation_products if profiled else cf.pair_products
        assert block[r, q] == kernel(table, [r], [q])[0]
    assert routes == ({True, False} if len(rows) > 1 else set())
