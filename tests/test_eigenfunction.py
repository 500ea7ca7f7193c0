"""Pointwise behaviour of the normalized eigenfunctions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import curve_points
from fucik.eigenfunction import (
    MAX_BUMPS,
    SineMode,
    breakpoints,
    build,
    bump_table,
    evaluate,
    evaluate_panels,
    local_waves,
)
from fucik.errors import InvalidArgument, NotOnCurve, OutOfDomain
from fucik import quadrature
from fucik.quadrature import integrate_many
from paper_formulas import dilation_factor
from fucik.spectrum import (
    FucikPoint,
    complete_point,
    curve_residual,
    diagonal_point,
    gamma_line_point,
)


def test_diagonal_equals_sine():
    f = build(diagonal_point(2))
    xs = np.linspace(0, math.pi, 1001)
    assert np.max(np.abs(f(xs) - np.sin(2 * xs))) <= 1e-14
    assert evaluate(f, math.pi / 4) == pytest.approx(1.0, abs=1e-15)


def test_pointwise_examples():
    p = complete_point(2, alpha=9)
    f = build(p)
    # sin(sqrt(alpha) x) peaks at pi/6, scaled by sqrt(beta)/sqrt(alpha) = 0.5
    assert evaluate(f, math.pi / 6) == pytest.approx(0.5, abs=1e-15)
    assert evaluate(f, math.pi / 3) == pytest.approx(0.0, abs=1e-15)
    # negative-bump peak has amplitude 1 in the alpha-dominant case
    assert evaluate(f, 2 * math.pi / 3) == pytest.approx(-1.0, abs=1e-15)
    assert evaluate(f, math.pi) == pytest.approx(0.0, abs=1e-12)
    f3 = build(diagonal_point(3))
    assert evaluate(f3, math.pi / 6) == pytest.approx(1.0, abs=1e-15)


def test_amplitudes_by_case():
    pa = complete_point(4, alpha=36.0)
    fa = build(pa)
    assert fa.positive_amplitude == pytest.approx(pa.sqrt_beta / pa.sqrt_alpha)
    assert fa.negative_amplitude == 1.0
    pb = complete_point(4, beta=36.0)
    fb = build(pb)
    assert fb.positive_amplitude == 1.0
    assert fb.negative_amplitude == pytest.approx(pb.sqrt_alpha / pb.sqrt_beta)


def test_breakpoints_examples():
    f = build(complete_point(2, alpha=9))
    assert f.l1 == pytest.approx(math.pi / 3, abs=1e-15)
    assert f.l2 == pytest.approx(2 * math.pi / 3, abs=1e-15)
    assert np.allclose(breakpoints(f), [0, math.pi / 3, math.pi], atol=1e-14)
    assert np.allclose(breakpoints(build(diagonal_point(2))),
                       [0, math.pi / 2, math.pi], atol=1e-14)
    assert np.allclose(breakpoints(build(diagonal_point(1))), [0, math.pi], atol=1e-15)


@pytest.mark.parametrize("defect", [-9e-10, -5e-10])
def test_breakpoints_reach_pi_past_a_short_bump(defect):
    # a valid point whose last bump is shorter than its curve defect: the
    # junctions 0, l1, l, l + l1 all fall short of pi, and pi closes them
    l1 = math.pi / 1e10
    p = FucikPoint(2, 1e20, (math.pi / (math.pi + defect - l1)) ** 2)
    f = build(p)
    assert curve_residual(p) == pytest.approx(defect, abs=1e-12)
    l = f.l1 + f.l2
    assert np.array_equal(breakpoints(f), [0.0, f.l1, l, l + f.l1, math.pi])


def test_pi_stays_in_the_last_bump():
    # on the diagonal pi / l = n / 2 is integral for even n: x = pi ends
    # bump n at offset l2 instead of starting bump n + 1 at offset 0
    for n in range(2, 41, 2):
        f = build(diagonal_point(n))
        _, _, offset = local_waves(f.positive_amplitude, f.negative_amplitude, f.point.sqrt_alpha,
                                   f.point.sqrt_beta, f.l1, f.l1 + f.l2, math.pi)
        assert offset == pytest.approx(f.l2, abs=1e-12), n


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(points=st.lists(curve_points(), min_size=1, max_size=5))
# a last bump shorter than the curve defect: only the n + 2-th junction is pi
@example(points=[FucikPoint(2, 1e20, (math.pi / (math.pi - 9e-10 - math.pi / 1e10)) ** 2)])
def test_bump_table_junctions_match_breakpoints(points):
    # the stacked rows and the per-function junctions follow one layout,
    # and the bump columns are the built functions' data, bit for bit
    table = bump_table(points)
    for p, row, bumps in zip(points, table.junctions, table.bumps.T):
        assert row[-1] == math.pi
        assert np.array_equal(row[:np.argmax(row == math.pi) + 1], breakpoints(build(p)))
        f = build(p)
        want = (f.positive_amplitude, f.negative_amplitude, f.point.sqrt_alpha,
                f.point.sqrt_beta, f.l1, f.l1 + f.l2)
        assert bumps.tobytes() == np.array(want).tobytes()
    assert np.shares_memory(table.sa, table.bumps)
    # the frequency columns are the roots the points store
    assert table.sa.tolist() == [p.sqrt_alpha for p in points]
    assert table.sb.tolist() == [p.sqrt_beta for p in points]
    # the oracle takes the table rows as they are, and integrates on them
    # what it integrates on each function's own breakpoints
    stacked = integrate_many(lambda owner, x: evaluate_panels(*table.bumps[:, owner], x),
                             table.junctions)
    alone = [integrate_many(lambda owner, x, f=build(p): f(x), [breakpoints(build(p))])[0]
             for p in points]
    assert stacked.tobytes() == np.array(alone).tobytes()


def test_a_junction_row_the_oracle_cannot_integrate_is_refused():
    # the oracle counts every piece of a row against its per-integral budget
    assert MAX_BUMPS == quadrature.MAX_SUBINTERVALS == 2 ** 20
    # numpy's plain ValueError from n of about 1e19, gigabytes from about 1e9,
    # and OverflowError from the int64 column of a table
    for n in (MAX_BUMPS + 1, 10 ** 9, 10 ** 20):
        f = build(diagonal_point(n))
        with pytest.raises(InvalidArgument, match=f"eigenfunction of {n} bumps") as info:
            breakpoints(f)
        assert type(info.value) is InvalidArgument
        with pytest.raises(InvalidArgument, match=f"eigenfunction of {n} bumps") as info:
            bump_table([diagonal_point(2), f.point])
        assert type(info.value) is InvalidArgument
    # the largest row the oracle takes is still built
    p = diagonal_point(MAX_BUMPS)
    row = breakpoints(build(p))
    assert row.shape == (MAX_BUMPS + 1,) and row[0] == 0.0 and row[-1] == math.pi
    assert np.array_equal(bump_table([p]).junctions[0, :MAX_BUMPS + 1], row)


@pytest.mark.parametrize("n,ratio,side", [
    (2, 1.3, "alpha"), (3, 1.2, "alpha"), (5, 1.6, "beta"), (8, 1.1, "beta"), (13, 1.4, "alpha"),
])
def test_junction_continuity(n, ratio, side):
    kw = {side: float((n * ratio) ** 2)}
    f = build(complete_point(n, **kw))
    eps = 1e-9
    for b in breakpoints(f)[1:-1]:
        jump = abs(evaluate(f, b - eps) - evaluate(f, b + eps))
        assert jump <= 1e-7


@pytest.mark.parametrize("n,ratio,side", [
    (2, 1.5, "alpha"), (4, 1.2, "beta"), (7, 1.3, "alpha"), (16, 1.7, "beta"),
])
def test_sup_norm_one(n, ratio, side):
    kw = {side: float((n * ratio) ** 2)}
    p = complete_point(n, **kw)
    f = build(p)
    xs = np.linspace(0, math.pi, 10 ** 4)
    grid_max = np.max(np.abs(f(xs)))
    # analytic peak locations: quarter-period points inside each bump
    l1, L = f.l1, f.l1 + f.l2
    peaks = []
    k = 0
    while k * L < math.pi:
        for c in (k * L + l1 / 2, k * L + l1 + f.l2 / 2):
            if c < math.pi:
                peaks.append(c)
        k += 1
    peak_max = np.max(np.abs(f(np.array(peaks))))
    assert max(grid_max, peak_max) == pytest.approx(1.0, abs=1e-12)
    assert grid_max <= 1.0 + 1e-12


def test_bump_sign_structure():
    p = complete_point(5, alpha=42.0)
    f = build(p)
    l1, l2, L = f.l1, f.l2, f.l1 + f.l2
    # values at bump midpoints alternate sign
    mids, k = [], 0
    while k * L + l1 / 2 < math.pi:
        mids.append(k * L + l1 / 2)
        if k * L + l1 + l2 / 2 < math.pi:
            mids.append(k * L + l1 + l2 / 2)
        k += 1
    vals = f(np.array(mids))
    assert np.all(vals[0::2] > 0) and np.all(vals[1::2] < 0)
    # central finite differences at the junctions alternate sign too
    h = 1e-7
    juncs = breakpoints(f)[:-1]
    slopes = (f(np.minimum(juncs + h, math.pi)) - f(np.maximum(juncs - h, 0.0))) / (2 * h)
    signs = np.sign(slopes)
    assert signs[0] > 0
    assert np.all(signs[:-1] * signs[1:] < 0)


def test_derivative_positive_at_zero():
    for p in [complete_point(2, alpha=9), complete_point(3, beta=11.0), diagonal_point(6)]:
        f = build(p)
        h = 1e-8
        assert (evaluate(f, h) - evaluate(f, 0.0)) / h > 0


def test_even_dilation_identity():
    gamma = 5.0
    f2 = build(gamma_line_point(2, gamma))
    xs = np.linspace(0, math.pi, 1000)
    for n in (4, 8, 16):
        fn = build(gamma_line_point(n, gamma))
        wrapped = np.mod(n * xs / 2.0, math.pi)
        assert np.max(np.abs(fn(xs) - f2(wrapped))) <= 1e-12


def test_odd_dilation_identity_with_offset():
    gamma = 5.0
    sg = math.sqrt(gamma)
    f2 = build(gamma_line_point(2, gamma))
    xs = np.linspace(0, math.pi, 1000)
    for n in (3, 5, 9, 15):
        alpha = (1 + (n - 1) * sg / 2) ** 2
        fn = build(complete_point(n, alpha=alpha))
        c = dilation_factor(n, gamma)
        wrapped = np.mod(c * xs, math.pi)
        assert np.max(np.abs(fn(xs) - f2(wrapped))) <= 1e-12


def test_domain_guards():
    f = build(diagonal_point(2))
    with pytest.raises(OutOfDomain):
        evaluate(f, -0.5)
    with pytest.raises(OutOfDomain):
        evaluate(f, math.pi + 0.1)
    for bad in (math.nan, np.array([0.0, 1.0, math.nan, math.pi])):
        with pytest.raises(OutOfDomain):
            evaluate(f, bad)
    # tiny overshoot is clamped
    assert evaluate(f, math.pi + 5e-13) == pytest.approx(0.0, abs=1e-12)
    assert evaluate(f, -5e-13) == evaluate(f, 0.0)
    # the stacked route shares the guard
    bumps = bump_table([f.point]).bumps
    for bad in (-0.5, math.pi + 0.1, np.array([[0.0, math.nan]])):
        with pytest.raises(OutOfDomain):
            evaluate_panels(*bumps, np.reshape(bad, (-1, 1)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(points=st.lists(curve_points(), min_size=1, max_size=5), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_evaluation_matches_evaluate(points, seed):
    # one row of bump data per point, gathered per sample and each sample
    # a one-node panel: the same bits as evaluating each function on its own
    funcs = [build(p) for p in points]
    table = bump_table(points).bumps
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, len(funcs), size=(40, 1))
    x = np.concatenate([rng.uniform(0.0, math.pi, (40, 7)), np.full((40, 1), math.pi),
                        np.zeros((40, 1))], axis=1)
    got = evaluate_panels(*table[:, np.repeat(rows, x.shape[1], axis=0)], x.reshape(-1, 1))
    got = got.reshape(x.shape)
    want = np.array([funcs[r](xs) for r, xs in zip(rows[:, 0], x)])
    assert got.tobytes() == want.tobytes()


def test_build_rejects_off_curve():
    # build takes a FucikPoint, and no off-curve or NaN one can be made
    for n, alpha, beta in ((2, 9.0, 9.0), (4, math.nan, 16.0)):
        with pytest.raises(NotOnCurve):
            build(FucikPoint(n, alpha, beta))


def test_sine_mode():
    s = SineMode(3)
    assert s(math.pi / 6) == pytest.approx(1.0)
