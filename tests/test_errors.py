"""The package's refusal types and its integer, real and array checks, at
every index, real parameter and array of points it takes."""

import ast
import dataclasses
import inspect
import math
import pathlib
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import fucik
from fucik import closedform, eigenfunction, errors, grammatrix, nearness, paleywiener
from fucik.errors import (FucikError, IndexTooSmall, InvalidArgument, require_int, require_real,
                          require_reals)
from fucik.spectrum import FucikPoint, complete_point, diagonal_point, gamma_line_point

SRC = pathlib.Path(fucik.__file__).parent

_DIAGONAL = nearness.FinitePerturbation(())
_CAP = nearness.BranchRule(cap_fraction=0.5)
_FINITE = nearness.FinitePerturbation((complete_point(2, alpha=9.0), complete_point(3, beta=9.0)))
_POWER = nearness.PowerFamily(0.5, even=nearness.BranchRule(c=1.0, side="beta"), odd=_CAP)

#: public callable of one index -> (a call of it with that index, the
#: largest index below its range); every call takes max(2, below + 2)
INDEX_TAKERS = {
    FucikPoint: (lambda n: FucikPoint(n, 9.0, 2.25), 0),
    diagonal_point: (diagonal_point, 0),
    complete_point: (lambda n: complete_point(n, alpha=9.0), 1),
    gamma_line_point: (lambda n: gamma_line_point(n, 5.0), 0),
    nearness.bound_Cn: (lambda n: nearness.bound_Cn(n, 16.0, 4.0), 1),
    nearness.corollary_cn_cap: (lambda n: nearness.corollary_cn_cap(n, 0.5, "even"), 0),
    nearness.region_boundary: (lambda n: nearness.region_boundary(0.5, "even", [n]), 0),
    nearness.theorem1_check: (lambda n: nearness.theorem1_check(_DIAGONAL, n), 1),
    nearness.theorem2_check: (lambda n: nearness.theorem2_check(_DIAGONAL, n), 1),
    paleywiener.Tk_norm: (paleywiener.Tk_norm, 0),
    paleywiener.ck_bound: (lambda k: paleywiener.ck_bound(5.0, k), 0),
    paleywiener.fourier_Ak: (lambda k: paleywiener.fourier_Ak(5.0, k), 0),
    closedform.inner_cross_index:
        (lambda m: closedform.inner_cross_index(complete_point(4, alpha=30.0), m), 0),
    grammatrix.build_gram: (lambda N: grammatrix.build_gram(_DIAGONAL, N), 0),
    grammatrix.riesz_scan: (lambda N: grammatrix.riesz_scan(_DIAGONAL, [N]), 0),
    fucik.SineMode: (lambda n: fucik.SineMode(n)(np.array([0.0, 0.7, math.pi])), 0),
    nearness.FinitePerturbation.point: (lambda n: _FINITE.point(n), 0),
    nearness.PowerFamily.point: (lambda n: _POWER.point(n), 0),
    nearness.GammaLine.point: (lambda n: nearness.GammaLine(5.0).point(n), 0),
    nearness.PowerFamily.c_value: (lambda n: _POWER.c_value(n), 0),
    nearness.PowerFamily.dominant_sqrt: (lambda n: _POWER.dominant_sqrt(n), 0),
}

#: the names an index parameter of a public callable goes by
INDEX_NAMES = {"n", "m", "k", "N", "Ns", "n_partial", "n_range"}

#: values that are no number at all, refused as they are for reals
NON_NUMBERS = ("3", b"3", None, 3 + 0j, Decimal(3), np.array(3))


_SINE = fucik.SineMode(2)

#: (public callable of one real, an integral value it takes, the type that
#: refuses an int beyond float range)
REAL_TAKERS = [
    (lambda a: FucikPoint(2, a, 2.25), 9, errors.InfeasiblePoint),
    (lambda b: FucikPoint(2, 2.25, b), 9, errors.InfeasiblePoint),
    (lambda a: FucikPoint(3, a, 4.0), 16, errors.InfeasiblePoint),
    (lambda a: complete_point(3, alpha=a), 16, errors.InfeasiblePoint),
    (lambda b: complete_point(2, beta=b), 9, errors.InfeasiblePoint),
    (lambda g: gamma_line_point(4, g), 5, errors.GammaOutOfRange),
    (lambda a: nearness.bound_Cn(2, a, 2.25), 9, errors.InfeasiblePoint),
    (lambda b: nearness.bound_Cn(3, 16.0, b), 4, errors.InfeasiblePoint),
    (lambda s: nearness.zeta(s), 2, InvalidArgument),
    (lambda e: nearness.corollary_cn_cap(3, e, "odd_alpha_dominant"), 1, InvalidArgument),
    (lambda e: nearness.region_boundary(e, "odd_beta_dominant", [1, 2, 3]), 1, InvalidArgument),
    (lambda c: nearness.BranchRule(c=c), 1, InvalidArgument),
    (lambda c: nearness.BranchRule(cap_fraction=c, side="beta"), 1, InvalidArgument),
    (lambda e: nearness.PowerFamily(e, even=nearness.BranchRule(c=1.0)), 1,
     errors.TailNotBoundable),
    (lambda e: nearness.theorem1_check(nearness.PowerFamily(e, even=_CAP, odd=_CAP), 50), 1,
     errors.TailNotBoundable),
    (lambda g: nearness.GammaLine(g), 5, errors.GammaOutOfRange),
    (lambda g: paleywiener.fourier_Ak(g, 3), 5, errors.GammaOutOfRange),
    (lambda g: paleywiener.ck_bound(g, 3), 5, errors.GammaOutOfRange),
    (paleywiener.E_gamma, 5, errors.GammaOutOfRange),
    (paleywiener.E_gamma_extended, 6, errors.GammaOutOfRange),
    (paleywiener.budget, 5, errors.GammaOutOfRange),
    (paleywiener.gamma_admissible_max, 1, InvalidArgument),
    (lambda tol: fucik.integrate_many(lambda owner, x: np.sin(x), [[0.0, math.pi]] * 2, tol), 1,
     InvalidArgument),
    (lambda tol: fucik.inner_numeric(_SINE, _SINE, [0.0, math.pi], tol), 1, InvalidArgument),
]
REAL_TAKER_IDS = [
    "point-alpha", "point-beta", "point-odd-alpha", "complete-alpha", "complete-beta",
    "gamma-line-point", "bound-cn-alpha", "bound-cn-beta", "zeta", "cap-epsilon",
    "region-epsilon", "rule-c", "rule-cap-fraction", "power-family", "theorem1-power",
    "gamma-line", "fourier-ak", "ck-bound", "e-gamma", "e-gamma-extended",
    "budget", "gamma-admissible-max", "integrate-many", "inner-numeric",
]


def _bits(result):
    """A result's numbers as their bit patterns, checking every float is a Python float."""
    if isinstance(result, float):
        assert type(result) is float
        return result.hex()
    if isinstance(result, np.ndarray):
        assert result.dtype == np.float64
        return result.tobytes()
    if dataclasses.is_dataclass(result):
        return tuple(_bits(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return tuple(_bits(r) for r in result)
    assert isinstance(result, (int, str, type(None)))
    return result


@pytest.mark.parametrize("call, value, refusal", REAL_TAKERS, ids=REAL_TAKER_IDS)
def test_every_real_is_taken_alike(call, value, refusal):
    for bad in ("5", None, 5 + 0j, Decimal("5"), np.array(5.0)):
        with pytest.raises(InvalidArgument) as info:
            call(bad)
        assert type(info.value) is InvalidArgument
    # every real type computes in float64, as the float it names
    for real in (np.float32(value), np.float64(value), np.int64(value), Fraction(value)):
        assert _bits(call(real)) == _bits(call(float(real)))
    with pytest.raises(refusal) as info:
        call(10 ** 400)
    assert type(info.value) is refusal


def test_require_real():
    for value in (2.5, 2, True, np.float32(2.5), np.int8(-3), Fraction(1, 3), math.inf, math.nan):
        got = require_real(value, "x")
        assert type(got) is float and got.hex() == float(value).hex()
    with pytest.raises(InvalidArgument, match="x must be a real number, got str"):
        require_real("2.5", "x")
    with pytest.raises(errors.GammaOutOfRange, match="x lies beyond float range, got 1000"):
        require_real(10 ** 400, "x", errors.GammaOutOfRange)
    with pytest.raises(errors.OutOfDomain):
        require_real(Fraction(10 ** 400, 3), "x", errors.OutOfDomain)


def test_require_reals():
    for value in ([0.5, 2], (True, 3), np.arange(3, dtype=np.int8), np.float32([0.1, 2.5]),
                  np.zeros((2, 0)), 2.5, 7, np.float32(0.1), Fraction(1, 3), 2 ** 70):
        got = require_reals(value, "x")
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.tobytes() == np.asarray(value, dtype=float).tobytes()
    for bad in ("2.5", b"2.5", None, 2 + 0j, Decimal("2.5"), np.array(2.5, dtype=object)):
        with pytest.raises(InvalidArgument, match="x must be a real number") as info:
            require_reals(bad, "x")
        assert type(info.value) is InvalidArgument
    for bad in (["2.5"], [0.5, "2"], [b"1"], [1 + 0j], [Decimal(1)], [1, 2 ** 70],
                np.array([0.5], dtype=object), np.zeros((2, 2), dtype=complex)):
        with pytest.raises(InvalidArgument, match="x must be real numbers, got an array") as info:
            require_reals(bad, "x")
        assert type(info.value) is InvalidArgument
    with pytest.raises(errors.OutOfDomain, match="x lies beyond float range"):
        require_reals(10 ** 400, "x", errors.OutOfDomain)


def test_a_float32_argument_leaves_no_float32_in_the_zeta_cache():
    # zeta(np.float32(1.7)) returned a float32 and cached it, so a later
    # call with the float64 it names returned that float32 value
    nearness._zeta_minus_one.cache_clear()
    want = nearness.zeta(float(np.float32(1.7)))
    nearness._zeta_minus_one.cache_clear()
    got = nearness.zeta(np.float32(1.7))
    assert type(got) is float and got.hex() == want.hex()
    again = nearness.zeta(1.7000000476837158)
    assert type(again) is float and again.hex() == want.hex() == (2.0542886626546855).hex()


@pytest.mark.parametrize("gamma", [4.5, 5.0, 5.3])
def test_a_float32_gamma_builds_the_gram_of_the_float_it_names(gamma):
    # a float32 gamma made gamma_line_point compute in float32, whose curve
    # defect NotOnCurve refused
    g32 = grammatrix.build_gram(nearness.GammaLine(np.float32(gamma)), 64)
    g64 = grammatrix.build_gram(nearness.GammaLine(float(np.float32(gamma))), 64)
    assert g32.entries.tobytes() == g64.entries.tobytes()


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
    # an int is compared as it is, never turned into a float that overflows;
    # with no smaller cap it must lie within float range
    top = int(sys.float_info.max)
    assert require_int(top, "n", 1) == top
    with pytest.raises(InvalidArgument,
                       match=r"^n must lie in \[1, 1.7976931348623157e\+308\], got 1000") as info:
        require_int(10 ** 400, "n", 1)
    assert type(info.value) is InvalidArgument
    with pytest.raises(InvalidArgument, match=r"must lie in \[1, 1.79.*\], got 1797"):
        require_int(top + 1, "n", 1)
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


@pytest.mark.parametrize("call, refusal", [
    (lambda: nearness.PowerFamily(10 ** 400, even=nearness.BranchRule(c=1)),
     errors.TailNotBoundable),
    (lambda: nearness.region_boundary(10 ** 400, "even", [2, 3]), InvalidArgument),
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
], ids=["power-family", "region-boundary", "evaluate", "theorem1", "zeta",
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


@pytest.mark.parametrize("call, below", INDEX_TAKERS.values())
def test_every_index_is_refused_alike(call, below):
    for bad in (2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgument, match="integer") as info:
            call(bad)
        assert type(info.value) is InvalidArgument
    for bad in (below, float(below), below - 3):
        with pytest.raises(IndexTooSmall):
            call(bad)
    # every index lies within float range unless a smaller cap applies
    with pytest.raises(InvalidArgument, match=r"must lie in \[") as info:
        call(10 ** 400)
    assert type(info.value) is InvalidArgument
    # each raised TypeError (or numpy's UFuncTypeError), or was accepted
    for bad in NON_NUMBERS:
        with pytest.raises(InvalidArgument, match="must be a real number") as info:
            call(bad)
        assert type(info.value) is InvalidArgument
    # every integral real is taken as the int it names
    good = max(2, below + 2)
    for index in (float(good), np.int64(good), np.float64(good), Fraction(good)):
        assert _bits(call(index)) == _bits(call(good))


_F = fucik.build(complete_point(4, alpha=30.0))
_T = eigenfunction.bump_table([_F.point])

#: public callable of points or breakpoints -> a call of it with one
#: sequence of values in [0, pi], which it takes as points or breakpoints
ARRAY_TAKERS = {
    fucik.evaluate: lambda x: fucik.evaluate(_F, x),
    fucik.FucikEigenfunction.__call__: _F,
    # one row of points: a list, so that a ragged row reaches the library
    eigenfunction.evaluate_panels: lambda x: eigenfunction.evaluate_panels(*_T.bumps, [x]),
    fucik.SineMode.__call__: _SINE,
    fucik.integrate_many: lambda b: fucik.integrate_many(lambda owner, x: np.sin(x), [b, b]),
    fucik.inner_numeric: lambda b: fucik.inner_numeric(_SINE, _SINE, b),
}


@pytest.mark.parametrize("call", ARRAY_TAKERS.values(), ids=[f.__qualname__ for f in ARRAY_TAKERS])
def test_every_array_is_refused_alike(call):
    points = np.array([0.0, 0.7, 1.5, math.pi])
    # strings and bytes were converted, a complex value lost its imaginary
    # part with a ComplexWarning, an object array was converted or leaked
    # TypeError, and a ragged sequence leaked numpy's plain ValueError
    for bad in (points.astype(str), points.astype(bytes), points.astype(complex),
                points.astype(object), points.astype(str).tolist(),
                [*points[:-1], "3.141592653589793"], [*points[:-1], math.pi + 0j],
                [Decimal(x) for x in points], [points[0], points[1:3].tolist(), points[3]]):
        with pytest.raises(InvalidArgument, match="must be real numbers") as info:
            call(bad)
        assert type(info.value) is InvalidArgument
    # a lone value, refused as a real (evaluate_panels gets it as a one-point row)
    for bad in ("0.7", b"0.7", 0.7 + 0j, Decimal("0.7"), None):
        with pytest.raises(InvalidArgument, match="must be (a )?real number") as info:
            call(bad)
        assert type(info.value) is InvalidArgument
    # a sequence of ints and floats is taken as the float array it names
    want = np.asarray(call(points)).tobytes()
    for same in (points.tolist(), tuple(points), [0, *points[1:]], [np.int8(0), *points[1:]]):
        assert np.asarray(call(same)).tobytes() == want


def test_integrate_many_refuses_a_two_dimensional_array_of_strings():
    rows = np.array([[0.0, 1.0, math.pi]] * 2)
    with pytest.raises(InvalidArgument, match="breakpoints must be real numbers") as info:
        fucik.integrate_many(lambda owner, x: np.sin(x), rows.astype(str))
    assert type(info.value) is InvalidArgument


def _public_callables():
    """Every function and class of ``fucik.__all__``, and each class's public methods."""
    for name in fucik.__all__:
        obj = getattr(fucik, name)
        if inspect.isclass(obj):
            yield obj
            yield from (f for key, f in vars(obj).items()
                        if inspect.isfunction(f) and not key.startswith("_"))
        elif callable(obj):
            yield obj


def test_every_index_taker_is_in_the_table():
    takers = {f for f in _public_callables()
              if INDEX_NAMES & set(inspect.signature(f).parameters)}
    assert takers == set(INDEX_TAKERS)


def test_a_mode_beyond_float_range_is_refused_when_built():
    # it was accepted, and calling it raised OverflowError
    with pytest.raises(InvalidArgument, match=r"mode index must lie in \[") as info:
        fucik.SineMode(10 ** 400)
    assert type(info.value) is InvalidArgument


def test_gamma_line_checks_the_integer_before_the_parity():
    with pytest.raises(InvalidArgument, match="must be an integer, got 2.5") as info:
        gamma_line_point(2.5, 5.0)
    assert type(info.value) is InvalidArgument


def _sites(hit):
    """(module, function) of every node of the package's source that ``hit`` accepts."""
    found = []

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(module, child, child.name)
                continue
            if hit(child):
                found.append((module, function))
            visit(module, child, function)

    for path in SRC.glob("*.py"):
        visit(path.stem, ast.parse(path.read_text()), None)
    return sorted(found)


def _is_name(node, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def test_only_faults_raise_a_plain_value_error():
    # every refused argument raises InvalidArgument; a plain ValueError is
    # left to the checks that catch a fault, which the CLI must not report
    # as a usage error
    def raises_value_error(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        return _is_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc, "ValueError")

    assert _sites(raises_value_error) == [("grammatrix", "extreme_eigenvalues"),
                                          ("quadrature", "_gauss_sums")]


def test_no_module_converts_a_real_by_hand():
    # a real parameter becomes a float in require_real alone, and an array
    # in require_reals, which sends a lone value there; an index lies within
    # float range, and the other handlers guard the arithmetic on it that
    # leaves float range (in gamma_line_point, on a gamma near the float
    # maximum)
    def catches_overflow(node):
        return isinstance(node, ast.ExceptHandler) and (
            _is_name(node.type, "OverflowError") or isinstance(node.type, ast.Tuple)
            and any(_is_name(e, "OverflowError") for e in node.type.elts))

    assert _sites(catches_overflow) == [
        ("errors", "require_real"),
        ("nearness", "_cap_numerator"),
        ("nearness", "_k_odd"),
        ("paleywiener", "ck_bound"),
        ("spectrum", "gamma_line_point"),
    ]


def _near(got: float, want: Fraction) -> bool:
    """got within 1e-15 of want, relatively, plus 2 subnormal steps."""
    return abs(Fraction(got) - want) <= abs(want) / 10 ** 15 + Fraction(2 * 5e-324)


@pytest.mark.parametrize("k", [10 ** 76, 11 * 10 ** 76, 12 * 10 ** 76, 10 ** 80, 10 ** 150,
                               2 * 10 ** 154, 10 ** 308])
def test_a_huge_coefficient_index_gets_its_finite_bound(k):
    # (k^2 - gamma)^2 leaves float range from k of about 1.16e77 on, where
    # ck_bound raised InvalidArgument though c_k only underflows (to 0.0
    # from about 1.2e81 on)
    for gamma in (4.0, 4.5, 5.682):
        want = Fraction(paleywiener._common(gamma)) / (k * k - Fraction(gamma)) ** 2
        got = paleywiener.ck_bound(gamma, k)
        assert type(got) is float and _near(got, want)


@pytest.mark.parametrize("n", [10 ** 76 + 1, 6 * 10 ** 76 + 1, 7 * 10 ** 76 + 1, 11 * 10 ** 76 + 1,
                               12 * 10 ** 76 + 1, 10 ** 100 + 1, 10 ** 200 + 1, 10 ** 308 + 1])
def test_a_huge_odd_index_gets_its_finite_cap(n):
    # the float denominator n^2 (n^2 + 1) overflowed from about 6.5e76 on,
    # which gave a cap of 0.0, and (n -+ 1)^4 from about 1.16e77 on, which
    # was refused; the cap tends to 1/(8 (zeta(1 + eps) - 1)), or 1/10 of it
    for branch, near, scale in (("odd_alpha_dominant", n - 1, 8), ("odd_beta_dominant", n + 1, 10)):
        z = Fraction(nearness._cap_zeta(0.5))
        want = Fraction(near ** 4, scale * n * n * (n * n + 1)) / z
        got = nearness.corollary_cn_cap(n, 0.5, branch)
        assert type(got) is float and _near(got, want)


@pytest.mark.parametrize("n", [3, 101, 10 ** 7 + 1, 10 ** 20 + 1, 6 * 10 ** 76 + 1, 7 * 10 ** 76 + 1,
                               10 ** 77 + 1, 12 * 10 ** 76 + 1, 2 * 10 ** 77 + 1, 10 ** 150 + 1,
                               10 ** 308 + 1])
def test_a_huge_odd_index_gets_its_finite_constant(n):
    # the float K_n overflowed to inf from n of about 6.2e76 on, and its
    # int (n -+ 1)^4 raised OverflowError from about 1.16e77 on; K_n tends
    # to 4 pi, or 5 pi on the beta side
    for side, near, weight in (("alpha", n - 1, 4 * math.pi), ("beta", n + 1, 5 * math.pi)):
        got = nearness._k_odd(n, side)
        assert type(got) is float and _near(got, Fraction(weight) * n * n * (n * n + 1) / near ** 4)
        if n < 6 * 10 ** 76:
            # the float route, whose bits every index below 6e76 keeps
            assert got == weight * n * n * (n * n + 1) / ((near ** 2) ** 2)
    if n > 10 ** 150 + 1:
        return
    # points the package builds itself, off the diagonal on either side
    for p in (complete_point(n, alpha=(1.5 * n) ** 2), complete_point(n, beta=(1.5 * n) ** 2)):
        assert 0 < nearness.bound_Cn(p.n, p.alpha, p.beta) < math.inf
        report = nearness.theorem1_check(nearness.FinitePerturbation((p,)))
        assert math.isfinite(report.total_upper)
