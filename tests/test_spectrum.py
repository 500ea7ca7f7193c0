"""Curve membership, coordinate completion, and point classification."""

import copy
import dataclasses
import inspect
import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import curve_points
from fucik.errors import (
    FucikError,
    GammaOutOfRange,
    IndexTooSmall,
    InfeasiblePoint,
    InvalidArgument,
    NotOnCurve,
    OddIndex,
)
from fucik.nearness import bound_Cn
from fucik.paleywiener import fourier_Ak
from fucik.spectrum import (
    TAU_CURVE,
    FucikPoint,
    complete_point,
    curve_residual,
    diagonal_point,
    gamma_line_point,
)


def test_complete_point_even_example():
    # solving l1 + l2 = pi directly: pi/3 + pi/sqrt(beta) = pi forces sqrt(beta) = 3/2
    p = complete_point(2, alpha=9)
    assert p.beta == pytest.approx(2.25, abs=1e-14)
    assert p.case == "alpha_dominant"
    assert p.parity == "even"


def test_complete_point_diagonal_examples():
    p = complete_point(2, alpha=4)
    assert p.alpha == p.beta == pytest.approx(4.0, abs=1e-12)
    assert p.case == "diagonal"
    q = complete_point(3, alpha=9)
    assert q.beta == pytest.approx(9.0, abs=1e-12)
    assert q.case == "diagonal"


def test_curve_residual_examples():
    assert abs(curve_residual(complete_point(2, alpha=9))) <= 1e-12
    assert curve_residual(diagonal_point(2)) == pytest.approx(0.0, abs=1e-15)
    # (2, 9, 9) is off the curve by exactly -pi/3
    with pytest.raises(NotOnCurve, match=r"defect -1\.047e\+00 "):
        FucikPoint(2, 9.0, 9.0)


def test_diagonal_points():
    for n, lam in [(1, 1.0), (2, 4.0), (5, 25.0)]:
        p = diagonal_point(n)
        assert p.alpha == lam and p.beta == lam
        assert p.case == "diagonal"


@pytest.mark.parametrize("n", [2, 3, 4, 7, 10, 25])
def test_completion_round_trip(n):
    for r in np.linspace(1.01, 2.5, 20):
        p = complete_point(n, alpha=float((n * r) ** 2))
        assert abs(curve_residual(p)) <= 1e-12
        back = complete_point(n, beta=p.beta)
        assert back.alpha == pytest.approx(p.alpha, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_case_matches_sign(n):
    for r in [1.001, 1.2, 2.0]:
        pa = complete_point(n, alpha=float((n * r) ** 2))
        assert pa.case == "alpha_dominant"
        assert pa.sqrt_beta <= n + 1e-9
        pb = complete_point(n, beta=float((n * r) ** 2))
        assert pb.case == "beta_dominant"
        assert pb.sqrt_alpha < n


def test_gamma_line_examples():
    p = gamma_line_point(2, 4.0)
    assert (p.alpha, p.beta) == (4.0, 4.0)
    q = gamma_line_point(2, 5.0)
    assert q.alpha == pytest.approx(5.0)
    assert q.beta == pytest.approx(5 * 4 / (2 * math.sqrt(5) - 2) ** 2, rel=1e-14)
    assert abs(curve_residual(q)) <= 1e-12
    q4 = gamma_line_point(4, 5.0)
    assert q4.alpha == pytest.approx(4 * q.alpha, rel=1e-14)


def test_gamma_line_on_line_identity():
    # beta (2 sqrt(gamma) - 2)^2 = 4 alpha, up to a couple of ulps
    for gamma in [4.0, 4.7, 5.3, 5.682]:
        for n in [2, 4, 8]:
            p = gamma_line_point(n, gamma)
            lhs = p.beta * (2 * math.sqrt(gamma) - 2) ** 2
            assert lhs == pytest.approx(4 * p.alpha, rel=1e-13)


def test_errors():
    with pytest.raises(IndexTooSmall):
        complete_point(1, alpha=2.0)
    with pytest.raises(InfeasiblePoint):
        complete_point(2, alpha=0.81)  # sqrt(alpha) = 0.9 < 1
    with pytest.raises(InfeasiblePoint):
        complete_point(4, alpha=3.9)  # sqrt below n/2
    with pytest.raises(OddIndex):
        gamma_line_point(3, 5.0)
    with pytest.raises(GammaOutOfRange):
        gamma_line_point(2, 3.9)
    with pytest.raises(ValueError):
        complete_point(2, alpha=9.0, beta=2.25)
    with pytest.raises(NotOnCurve):
        FucikPoint(2, 9.0, 9.0)
    with pytest.raises(NotOnCurve):
        FucikPoint(4, math.nan, 16.0)
    with pytest.raises(IndexTooSmall):
        FucikPoint(0, 1.0, 1.0)
    with pytest.raises(InfeasiblePoint):
        FucikPoint(1, 4.0, 4.0)
    with pytest.raises(InfeasiblePoint):
        FucikPoint(2, 0.81, 1.5)
    # a point cannot be edited off its curve either
    p = complete_point(2, alpha=9)
    with pytest.raises(NotOnCurve):
        dataclasses.replace(p, alpha=1.01 * p.alpha)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=curve_points())
def test_points_store_their_square_roots(p):
    # bit for bit what math.sqrt gives, and no part of the point's identity
    assert (p.sqrt_alpha, p.sqrt_beta) == (math.sqrt(p.alpha), math.sqrt(p.beta))
    assert "sqrt" not in repr(p)
    twin = FucikPoint(p.n, p.alpha, p.beta)
    object.__setattr__(twin, "sqrt_alpha", -1.0)
    assert twin == p and hash(twin) == hash(p)


def test_replace_recomputes_the_roots():
    p = complete_point(4, alpha=30.0)
    q = dataclasses.replace(p, alpha=40.0, beta=complete_point(4, alpha=40.0).beta)
    assert (q.sqrt_alpha, q.sqrt_beta) == (math.sqrt(40.0), math.sqrt(q.beta))
    assert q.case == "alpha_dominant"
    with pytest.raises(NotOnCurve):
        dataclasses.replace(p, beta=p.beta * 1.01)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(p, sqrt_alpha=1.0)


def test_copies_keep_the_point_and_its_derived_fields():
    # pickle and copy rebuild a point from its fields without calling the
    # constructor, so the derived fields must travel with it
    for p in (complete_point(7, alpha=96.04), complete_point(4, beta=30.0), diagonal_point(5)):
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
            assert ((q.sqrt_alpha, q.sqrt_beta, q.parity, q.case)
                    == (p.sqrt_alpha, p.sqrt_beta, p.parity, p.case))


def test_points_stay_frozen_and_keep_their_signature():
    p = complete_point(4, alpha=30.0)
    with pytest.raises(NotOnCurve):
        dataclasses.replace(p, alpha=1e9)
    for name in ("n", "alpha", "beta", "parity", "case", "sqrt_alpha", "sqrt_beta"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, 5.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(p, name)
    assert list(inspect.signature(FucikPoint).parameters) == ["n", "alpha", "beta"]
    assert FucikPoint(n=4, alpha=p.alpha, beta=p.beta) == p
    assert FucikPoint.__match_args__ == ("n", "alpha", "beta")
    match p:
        case FucikPoint(4, alpha, beta):
            assert (alpha, beta) == (p.alpha, p.beta)
        case _:
            pytest.fail("a point does not match its own index")


@pytest.mark.parametrize("make,refusal", [
    (lambda: FucikPoint(2, 10 ** 400, 5.0), InfeasiblePoint),
    (lambda: FucikPoint(10 ** 400, 4.0, 4.0), InvalidArgument),
    (lambda: complete_point(2, alpha=10 ** 400), InfeasiblePoint),
    (lambda: complete_point(10 ** 400, beta=5.0), InvalidArgument),
    (lambda: gamma_line_point(2, 10 ** 400), GammaOutOfRange),
    (lambda: diagonal_point(10 ** 200), InvalidArgument),
    (lambda: bound_Cn(2, 10 ** 400, 4.0), InfeasiblePoint),
])
def test_ints_beyond_float_range_refused(make, refusal):
    # an int beyond float range raised OverflowError, which is no FucikError;
    # an index is refused by the range every index has, or by the smaller
    # one of the curve indices that have a point (diagonal_point(10 ** 200)
    # blamed its alpha = 10 ** 400)
    message = r"must lie in \[" if refusal is InvalidArgument else "beyond float range"
    with pytest.raises(refusal, match=message) as info:
        make()
    assert type(info.value) is refusal


def test_a_gamma_line_index_whose_coordinates_overflow_is_infeasible():
    # each raised GammaOutOfRange, whose message blamed gamma; an index
    # with no point on its curve is refused by name, where it blamed the
    # coordinates (inf, inf) that the caller never gave
    with pytest.raises(InfeasiblePoint, match="finite alpha") as info:
        gamma_line_point(13 * 10 ** 153, 5.0)
    assert type(info.value) is InfeasiblePoint
    for n in (2 * 10 ** 154, 10 ** 300):
        with pytest.raises(InvalidArgument, match=r"^curve index must lie in "
                           r"\[1, 1.3407807929942596e\+154\], got ") as info:
            gamma_line_point(n, 5.0)
        assert type(info.value) is InvalidArgument


def test_a_gamma_above_a_quarter_of_the_float_maximum_is_refused():
    # a handler caught the overflow of (2 sqrt(gamma) - 2)^2, from the next
    # float above float max / 4 on; at the bound itself curve 2 has its
    # point, and curve 4's coordinates overflow, which the point refuses
    top = sys.float_info.max / 4
    assert gamma_line_point(2, top).beta == math.nextafter(1.0, 2.0)
    with pytest.raises(InfeasiblePoint) as info:
        gamma_line_point(4, top)
    assert type(info.value) is InfeasiblePoint
    for n in (2, 4):
        for gamma in (math.nextafter(top, math.inf), sys.float_info.max, math.inf, math.nan):
            with pytest.raises(GammaOutOfRange, match=r"^gamma must lie in "
                               r"\[4, 4.4942328371557893e\+307\], got ") as info:
                gamma_line_point(n, gamma)
            assert type(info.value) is GammaOutOfRange
    # beta lies within rounding of 1 on curve 2 from gamma of about 9.1e31
    # on, where it may round to 1 or below; on curve 4 the coordinates
    # overflow from float max / 16 on
    assert gamma_line_point(2, 9e31).beta > 1.0
    assert gamma_line_point(4, 1.1e307).alpha == 4.4e307
    for n, gamma in ((2, 9.2e31), (2, 1e33), (4, 1.2e307)):
        with pytest.raises(InfeasiblePoint):
            gamma_line_point(n, gamma)


def test_an_index_above_every_point_is_refused_by_name():
    # a point on curve n >= 2 has max(alpha, beta) >= n^2; the first
    # blamed a curve defect of inf
    top = math.isqrt(int(sys.float_info.max))
    for make in (lambda: FucikPoint(int(sys.float_info.max), 4.0, 4.0),
                 lambda: diagonal_point(top + 1)):
        with pytest.raises(InvalidArgument, match=r"^curve index must lie in "
                           r"\[1, 1.3407807929942596e\+154\], got ") as info:
            make()
        assert type(info.value) is InvalidArgument
    # the cap itself has its diagonal point
    p = diagonal_point(top)
    assert p.case == "diagonal" and p.alpha == sys.float_info.max


def test_non_integral_index_refused():
    # n = 2.5 would count (n + 1) // 2 = 1.0 and n // 2 = 1.0 bumps, so the
    # point (2.5, 9, 2.25) would satisfy a curve equation and reach every
    # closed form
    for make in (lambda: complete_point(2.5, alpha=9.0), lambda: bound_Cn(2.5, 9.0, 2.25)):
        with pytest.raises(ValueError, match="must be an integer"):
            make()
    # a point's index is capped where the curves have points, and worded
    # as every capped index is
    for make in (lambda: FucikPoint(2.5, 9.0, 2.25), lambda: FucikPoint(math.nan, 1.0, 1.0)):
        with pytest.raises(ValueError, match=r"^curve index must lie in "
                           r"\[1, 1.3407807929942596e\+154\] and be an integer, got "):
            make()
    # an integral float is accepted and stored as int
    p = complete_point(4.0, alpha=30.0)
    assert type(p.n) is int and p == complete_point(4, alpha=30.0)
    assert type(FucikPoint(1.0, 1.0, 1.0).n) is int


def test_non_finite_coordinates_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(InfeasiblePoint):
            complete_point(4, alpha=bad)
        with pytest.raises(InfeasiblePoint):
            complete_point(4, beta=bad)
        with pytest.raises(GammaOutOfRange):
            gamma_line_point(4, bad)
    # alpha = inf passes the curve equation (defect -9.4e-10) but is no point
    with pytest.raises(InfeasiblePoint):
        FucikPoint(2, math.inf, 1.0000000006)
    with pytest.raises(InfeasiblePoint):
        bound_Cn(2, math.inf, 1.0000000006)
    # beta rounds to 1.0 at gamma = 1e200; the coordinates overflow at 1e308
    for gamma in (1e200, 1e308):
        with pytest.raises(FucikError):
            gamma_line_point(2, gamma)
        with pytest.raises(FucikError):
            fourier_Ak(gamma, 3)


def test_constructor_accepts_valid():
    p = FucikPoint(2, 9, 2.25)
    assert (p.alpha, p.beta) == (9.0, 2.25) and isinstance(p.alpha, float)
    assert (p.parity, p.case) == ("even", "alpha_dominant")
    assert abs(curve_residual(p)) <= TAU_CURVE
    trivial = FucikPoint(1, 1.0, 1.0)
    assert (trivial.parity, trivial.case) == ("odd", "diagonal")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=curve_points())
def test_completion_round_trips_through_constructor(p):
    assert FucikPoint(p.n, p.alpha, p.beta) == p
