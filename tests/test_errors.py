"""The package's refusal types and its one integer check, at every index it takes."""

import ast
import math
import pathlib

import numpy as np
import pytest

import fucik
from fucik import closedform, errors, grammatrix, nearness, paleywiener
from fucik.errors import FucikError, IndexTooSmall, InvalidArgument, require_int
from fucik.spectrum import FucikPoint, complete_point, diagonal_point, gamma_line_point

SRC = pathlib.Path(fucik.__file__).parent

_DIAGONAL = nearness.FinitePerturbation(())

#: (public function of one index, the largest index below its range)
INDEX_TAKERS = [
    (lambda n: FucikPoint(n, 9.0, 2.25), 0),
    (diagonal_point, 0),
    (lambda n: complete_point(n, alpha=9.0), 1),
    (lambda n: gamma_line_point(n, 5.0), 0),
    (lambda n: nearness.bound_Cn(n, 9.0, 2.25), 1),
    (lambda n: nearness.corollary_cn_cap(n, 0.5, "even"), 0),
    (lambda n: nearness.region_boundary(0.5, "even", [n]), 0),
    (lambda n: nearness.theorem1_check(_DIAGONAL, n), 1),
    (lambda n: nearness.theorem2_check(_DIAGONAL, n), 1),
    (paleywiener.Tk_norm, 0),
    (lambda k: paleywiener.ck_bound(5.0, k), 0),
    (lambda k: paleywiener.fourier_Ak(5.0, k), 0),
    (lambda m: closedform.inner_cross_index(complete_point(2, alpha=9.0), m), 0),
    (lambda N: grammatrix.build_gram(_DIAGONAL, N), 0),
    (lambda N: grammatrix.riesz_scan(_DIAGONAL, [N]), 0),
]


def test_refusals_are_package_errors_and_value_errors():
    for cls in (InvalidArgument, IndexTooSmall):
        assert issubclass(cls, FucikError) and issubclass(cls, ValueError)
    # every error type but NoConvergence is a refused argument
    refusals = [cls for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, FucikError)
                and cls not in (FucikError, InvalidArgument, errors.NoConvergence)]
    assert len(refusals) == 9
    assert all(issubclass(cls, InvalidArgument) for cls in refusals)
    assert not issubclass(errors.NoConvergence, ValueError)
    calls = [
        (lambda: nearness.GammaLine(3.9), errors.GammaOutOfRange),
        (lambda: gamma_line_point(2, math.nan), errors.GammaOutOfRange),
        (lambda: nearness.PowerFamily(math.nan), errors.TailNotBoundable),
        (lambda: nearness.corollary_cn_cap(2, math.inf, "even"), errors.DivergentArgument),
        (lambda: nearness.zeta(1.0), errors.DivergentArgument),
    ]
    for call, cls in calls:
        with pytest.raises(InvalidArgument) as info:
            call()
        assert type(info.value) is cls and isinstance(info.value, ValueError)


def test_require_int():
    for value in (3, 3.0, np.int64(3), np.float64(3.0)):
        got = require_int(value, "n", 1, 5)
        assert got == 3 and type(got) is int
    # an int is compared as it is, never turned into a float that overflows
    assert require_int(10 ** 400, "n", 1) == 10 ** 400
    with pytest.raises(InvalidArgument, match=r"n must lie in \[1, 5\], got 1000"):
        require_int(10 ** 400, "n", 1, 5)
    with pytest.raises(IndexTooSmall, match=r"n must lie in \[1, 5\], got -1000"):
        require_int(-10 ** 400, "n", 1, 5)
    with pytest.raises(IndexTooSmall, match="n must be >= 2, got 1"):
        require_int(1, "n", 2)
    for bad in (2.5, math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)):
        with pytest.raises(InvalidArgument, match="must be an integer") as info:
            require_int(bad, "n", 1)
        assert type(info.value) is InvalidArgument
        with pytest.raises(InvalidArgument, match=r"must lie in \[1, 5\] and be an integer"):
            require_int(bad, "n", 1, 5)


def test_refusals_show_an_unprintable_int_by_its_digit_count():
    # Python refuses to print an int of more than 4300 digits; a refusal
    # that printed one raised a plain ValueError instead of itself
    assert errors.printable(10 ** 4299) == str(10 ** 4299)
    assert errors.printable(10 ** 4300) == "an integer of 4301 digits"
    assert errors.printable(-(10 ** 5000) + 1) == "an integer of 5000 digits"
    assert errors.printable(2.5) == "2.5"
    with pytest.raises(InvalidArgument, match=r"\[1, 10000\], got an integer of 5001 digits") as info:
        closedform.inner_cross_index(complete_point(4, alpha=30.0), 10 ** 5000)
    assert type(info.value) is InvalidArgument
    with pytest.raises(IndexTooSmall, match="must be >= 2, got an integer of 5001 digits"):
        complete_point(-10 ** 5000, alpha=4.0)


def _integrand():
    f = fucik.build(complete_point(4, alpha=30.0))
    return fucik.PiecewiseIntegrand(f, fucik.breakpoints(f))


@pytest.mark.parametrize("call, refusal", [
    (lambda: nearness.PowerFamily(10 ** 400, even=nearness.BranchRule(c=1)),
     errors.TailNotBoundable),
    (lambda: nearness.region_boundary(10 ** 400, "even", [2, 3]), InvalidArgument),
    (lambda: fucik.integrate(_integrand(), tol=10 ** 400), InvalidArgument),
    (lambda: fucik.evaluate(fucik.build(complete_point(4, alpha=30.0)), 10 ** 400),
     errors.OutOfDomain),
    (lambda: nearness.theorem1_check(nearness.GammaLine(5), n_partial=10 ** 400),
     InvalidArgument),
    (lambda: nearness.zeta(10 ** 400), InvalidArgument),
    (lambda: nearness.corollary_cn_cap(10 ** 400, 0.5, "odd_alpha_dominant"), InvalidArgument),
    (lambda: nearness.corollary_cn_cap(10 ** 400, 0.5, "odd_beta_dominant"), InvalidArgument),
    (lambda: nearness.region_boundary(0.5, "odd_alpha_uniform", [10 ** 400]), InvalidArgument),
    (lambda: nearness.PowerFamily(0.5, odd=nearness.BranchRule(cap_fraction=0.5))
     .c_value(10 ** 400 + 1), InvalidArgument),
    (lambda: nearness.PowerFamily(0.5, even=nearness.BranchRule(c=1.0))
     .dominant_sqrt(10 ** 400), InvalidArgument),
    (lambda: nearness.PowerFamily(0.5, even=nearness.BranchRule(c=1.0)).point(10 ** 400),
     InvalidArgument),
    (lambda: paleywiener.ck_bound(5.0, 10 ** 400), InvalidArgument),
], ids=["power-family", "region-boundary", "integrate", "evaluate", "theorem1", "zeta",
        "cap-odd-alpha", "cap-odd-beta", "region-boundary-index", "c-value", "dominant-sqrt",
        "power-point", "ck-bound"])
def test_ints_beyond_float_range_are_refused(call, refusal):
    # each raised OverflowError, which is no FucikError
    with pytest.raises(refusal) as info:
        call()
    assert type(info.value) is refusal


@pytest.mark.parametrize("call, refusal", [
    (lambda: grammatrix.build_gram("x", 8), errors.TailNotBoundable),
    (lambda: grammatrix.riesz_scan(object(), [8]), errors.TailNotBoundable),
    (lambda: nearness.theorem1_check(object()), errors.TailNotBoundable),
    (lambda: nearness.theorem2_check("x"), errors.TailNotBoundable),
    (lambda: nearness.FinitePerturbation((1, 2)), InvalidArgument),
], ids=["build-gram", "riesz-scan", "theorem1", "theorem2", "finite-entries"])
def test_anything_but_a_system_specification_is_refused(call, refusal):
    # each but the criteria raised AttributeError, which is no FucikError
    with pytest.raises(refusal) as info:
        call()
    assert type(info.value) is refusal


@pytest.mark.parametrize("call, below", INDEX_TAKERS)
def test_every_index_is_refused_alike(call, below):
    for bad in (2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgument, match="integer") as info:
            call(bad)
        assert type(info.value) is InvalidArgument
    for bad in (below, float(below), below - 3):
        with pytest.raises(IndexTooSmall):
            call(bad)


def test_gamma_line_checks_the_integer_before_the_parity():
    with pytest.raises(InvalidArgument, match="must be an integer, got 2.5") as info:
        gamma_line_point(2.5, 5.0)
    assert type(info.value) is InvalidArgument


def _value_error_raises(path: pathlib.Path):
    """(module, function) of every ``raise ValueError`` in a source file."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    found.append((path.stem, function))
            visit(child, function)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_faults_raise_a_plain_value_error():
    # every refused argument raises InvalidArgument; a plain ValueError is
    # left to the checks that catch a fault, which the CLI must not report
    # as a usage error
    found = [site for path in sorted(SRC.glob("*.py")) for site in _value_error_raises(path)]
    assert sorted(found) == [("grammatrix", "extreme_eigenvalues"), ("quadrature", "_gauss_sums")]
