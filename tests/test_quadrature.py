"""The quadrature oracle: exactness, honesty, and stability checks."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from fucik import quadrature
from fucik.errors import NoConvergence
from fucik.quadrature import PiecewiseIntegrand, inner_numeric, integrate, merged_breakpoints


def test_trig_norm_and_orthogonality_examples():
    val = integrate(PiecewiseIntegrand(lambda x: np.sin(5 * x) ** 2, [0, math.pi]))
    assert val == pytest.approx(math.pi / 2, abs=1e-12)
    val = integrate(PiecewiseIntegrand(lambda x: np.sin(2 * x) * np.sin(3 * x), [0, math.pi]))
    assert abs(val) <= 1e-12


@pytest.mark.parametrize("j", [1, 2, 3, 8, 17, 32, 48, 64])
def test_trig_diagonal_exactness(j):
    val = integrate(PiecewiseIntegrand(lambda x: np.sin(j * x) * np.sin(j * x), [0, math.pi]))
    assert val == pytest.approx(math.pi / 2, abs=1e-12)


def test_trig_cross_exactness(rng):
    pairs = {(int(j), int(k)) for j, k in rng.integers(1, 65, size=(60, 2)) if j != k}
    for j, k in sorted(pairs):
        val = integrate(PiecewiseIntegrand(
            lambda x, a=j, b=k: np.sin(a * x) * np.sin(b * x), [0, math.pi]))
        assert abs(val) <= 1e-12, (j, k)


def test_breakpoint_insensitivity():
    base = integrate(PiecewiseIntegrand(lambda x: np.sin(7 * x) ** 2, [0, math.pi]))
    noisy = integrate(PiecewiseIntegrand(lambda x: np.sin(7 * x) ** 2,
                                         [0, 0.3, 0.31, 1.7, 2.2, math.pi]))
    assert abs(base - noisy) <= 1e-12


def test_error_estimate_honesty(rng):
    """On integrands with closed-form antiderivatives the true error must
    stay below the requested tolerance, across a 500-case sweep."""
    failures = 0
    for _ in range(500):
        a = float(rng.uniform(0.5, 40.0))
        b = float(rng.uniform(0.5, 40.0))
        if abs(a - b) < 1e-6:
            continue
        # int_0^pi sin(ax) sin(bx) dx via the product-to-sum identity
        exact = 0.5 * (
            math.sin((a - b) * math.pi) / (a - b) - math.sin((a + b) * math.pi) / (a + b)
        )
        got = integrate(PiecewiseIntegrand(
            lambda x, u=a, v=b: np.sin(u * x) * np.sin(v * x), [0, math.pi]), tol=1e-11)
        if abs(got - exact) > 1e-11:
            failures += 1
    assert failures == 0


def test_inner_numeric_examples():
    for n in (1, 4, 9):
        v = inner_numeric(lambda x, m=n: np.sin(m * x), lambda x, m=n: np.sin(m * x),
                          [0, math.pi])
        assert v == pytest.approx(math.pi / 2, abs=1e-12)
    v = inner_numeric(lambda x: np.sin(2 * x), lambda x: np.sin(5 * x), [0, math.pi])
    assert abs(v) <= 1e-12


def test_piecewise_integrand_validation():
    with pytest.raises(ValueError):
        PiecewiseIntegrand(np.sin, [0.1, math.pi]).pieces()
    with pytest.raises(ValueError):
        PiecewiseIntegrand(np.sin, [0.0, 2.0]).pieces()
    # NaN at the start, inside and at the end, refused before any refinement
    for points in ([math.nan, math.pi], [0.0, math.nan, math.pi], [0.0, 1.0, math.nan]):
        with pytest.raises(ValueError):
            PiecewiseIntegrand(np.sin, points).pieces()
    with pytest.raises(ValueError):
        integrate(PiecewiseIntegrand(np.sin, [0, math.pi]), tol=1e-15)


def _package_imports(source):
    """Modules of the fucik package that a source text imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[2] or "fucik"
                         for a in node.names if a.name.partition(".")[0] == "fucik")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.partition(".")[0] != "fucik":
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            if module:
                found.add(module.partition(".")[0])
            else:
                found.update(a.name for a in node.names)
    return found


def test_oracle_imports_only_errors():
    """The oracle shares no algebra with what it checks: of the package it
    imports only the errors module."""
    assert _package_imports(Path(quadrature.__file__).read_text()) == {"errors"}
    assert _package_imports("from . import closedform\nimport fucik") == {"closedform", "fucik"}


def test_tolerance_validation():
    g = PiecewiseIntegrand(lambda x: np.sin(x), [0.0, math.pi])
    for bad in (math.nan, 0.0, 1e-15):
        with pytest.raises(ValueError):
            integrate(g, tol=bad)


def test_budget_exhaustion():
    # a genuinely rough integrand forces endless refinement
    def rough(x):
        return np.sin(1.0 / (np.abs(x - 1.0) + 1e-300))

    with pytest.raises(NoConvergence):
        integrate(PiecewiseIntegrand(rough, [0, math.pi]), tol=1e-13)


def test_merged_breakpoints():
    merged = merged_breakpoints([0, 1.0, math.pi], [0, 1.0 + 5e-15, 2.0, math.pi])
    assert np.all(np.diff(merged) > 1e-14)
    assert merged[0] == 0.0 and merged[-1] == pytest.approx(math.pi)


def test_bit_stability():
    g = PiecewiseIntegrand(lambda x: np.sin(11 * x) ** 2 * np.cos(3 * x), [0, 1.1, math.pi])
    first = integrate(g, tol=1e-12)
    second = integrate(g, tol=1e-12)
    assert first == second  # identical bits, not just close
