"""The quadrature oracle: exactness, honesty, and stability checks."""

import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import curve_points
from fucik import quadrature
from fucik.eigenfunction import breakpoints, build, junctions
from fucik.errors import NoConvergence
from fucik.quadrature import (
    PiecewiseIntegrand,
    inner_numeric,
    integrate,
    integrate_many,
    merged_breakpoints,
)


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


# ----------------------------------------------------------------------
# the batched loop


class _Sinusoids:
    """Integrands that are a different sinusoid a sin(w x + phase) on each
    piece between random breakpoints; row i of ``breaks`` is padded with pi."""

    def __init__(self, rng, count, max_inner=5):
        self.breaks = np.full((count, max_inner + 2), math.pi)
        self.breaks[:, 0] = 0.0
        for row in self.breaks:
            inner = np.sort(rng.uniform(0.0, math.pi, rng.integers(0, max_inner + 1)))
            row[1:1 + inner.size] = inner
        shape = (count, max_inner + 1)
        self.amp = rng.uniform(-2.0, 2.0, shape)
        self.freq = rng.uniform(0.5, 40.0, shape)
        self.phase = rng.uniform(0.0, 2 * math.pi, shape)

    def __call__(self, owner, x):
        piece = np.sum(x[..., None] >= self.breaks[owner][..., 1:-1], axis=-1)
        return self.amp[owner, piece] * np.sin(self.freq[owner, piece] * x
                                               + self.phase[owner, piece])

    def one(self, i):
        return PiecewiseIntegrand(lambda x: self(i, x), list(self.breaks[i]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 120),
       tol=st.floats(1e-13, 1e-9),
       caps=st.sampled_from([(quadrature._CALL_NODES, quadrature._GROUP_POINTS),
                             (96, 16), (480, 64)]))
def test_integrate_many_matches_integrate_bit_for_bit(seed, count, tol, caps):
    # the small caps split every level into many evaluator calls and the
    # batch into many groups; at the real caps 120 integrals of up to six
    # pieces span several calls per level
    g = _Sinusoids(np.random.default_rng(seed), count)
    with mock.patch.multiple(quadrature, _CALL_NODES=caps[0], _GROUP_POINTS=caps[1]):
        many = integrate_many(g, g.breaks, tol)
        ragged = integrate_many(g, [list(row[:np.argmax(row == math.pi) + 1])
                                    for row in g.breaks], tol)
    loop = np.array([integrate(g.one(i), tol) for i in range(count)])
    assert many.tobytes() == loop.tobytes()
    assert ragged.tobytes() == loop.tobytes()


def test_integrate_many_spans_several_calls_per_level():
    g = _Sinusoids(np.random.default_rng(5), 150)
    calls = []

    def counted(owner, x):
        calls.append(np.size(x))
        return g(owner, x)

    many = integrate_many(counted, g.breaks)
    assert max(calls) <= quadrature._CALL_NODES
    assert len(calls) > 3
    assert many.tobytes() == np.array([integrate(g.one(i)) for i in range(150)]).tobytes()


def test_integrate_many_runaway_member_raises():
    def batch(owner, x):
        rough = np.sin(1.0 / (np.abs(x - 1.0) + 1e-300))
        return np.where(owner == 1, rough, np.sin(x))

    with pytest.raises(NoConvergence):
        integrate_many(batch, [[0, math.pi]] * 3, tol=1e-13)


def test_integrate_many_empty_batch():
    def never(owner, x):
        raise AssertionError("an empty batch evaluates nothing")

    for empty in ([], np.empty((0, 2))):
        out = integrate_many(never, empty)
        assert out.shape == (0,) and out.dtype == float


def test_integrate_many_validation():
    def sine(owner, x):
        return np.sin(x)

    for bad in (math.nan, 0.0, 1e-15):
        for sets in ([[0.0, math.pi]], []):
            with pytest.raises(ValueError):
                integrate_many(sine, sets, tol=bad)
    for sets in ([[0.0, math.pi], [0.0, math.nan, math.pi]], [[0.0, math.pi], [0.0]],
                 [[0.0, 2.0, 1.0, math.pi]], np.zeros((2, 2, 2)), np.array([0.0, math.pi])):
        with pytest.raises(ValueError):
            integrate_many(sine, sets)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(points=st.lists(curve_points(), min_size=1, max_size=4))
def test_padded_junction_rows_give_the_cut_pieces(points):
    # one junctions call on stacked columns pads short rows with pi; the
    # padding adds no piece
    funcs = [build(p) for p in points]
    l1 = np.array([f.l1 for f in funcs])[:, None]
    l = np.array([f.l1 + f.l2 for f in funcs])[:, None]
    rows = junctions(l1, l, max(p.n for p in points) + 2)
    for f, row in zip(funcs, rows):
        padded = PiecewiseIntegrand(f, row).pieces()
        assert np.array_equal(padded, PiecewiseIntegrand(f, breakpoints(f)).pieces())
