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
from fucik.eigenfunction import SineMode, breakpoints, build, junctions
from fucik.errors import InvalidArgument, NoConvergence
from fucik.quadrature import inner_numeric, integrate_many
from fucik.spectrum import complete_point


def test_trig_norm_and_orthogonality_examples():
    val = integrate_many(lambda owner, x: np.sin(5 * x) ** 2, [[0, math.pi]])[0]
    assert val == pytest.approx(math.pi / 2, abs=1e-12)
    val = integrate_many(lambda owner, x: np.sin(2 * x) * np.sin(3 * x), [[0, math.pi]])[0]
    assert abs(val) <= 1e-12


@pytest.mark.parametrize("j", [1, 2, 3, 8, 17, 32, 48, 64])
def test_trig_diagonal_exactness(j):
    val = integrate_many(lambda owner, x: np.sin(j * x) * np.sin(j * x), [[0, math.pi]])[0]
    assert val == pytest.approx(math.pi / 2, abs=1e-12)


def test_trig_cross_exactness(rng):
    pairs = {(int(j), int(k)) for j, k in rng.integers(1, 65, size=(60, 2)) if j != k}
    for j, k in sorted(pairs):
        val = integrate_many(lambda owner, x, a=j, b=k: np.sin(a * x) * np.sin(b * x),
                             [[0, math.pi]])[0]
        assert abs(val) <= 1e-12, (j, k)


def test_breakpoint_insensitivity():
    def wave(owner, x):
        return np.sin(7 * x) ** 2

    base = integrate_many(wave, [[0, math.pi]])[0]
    noisy = integrate_many(wave, [[0, 0.3, 0.31, 1.7, 2.2, math.pi]])[0]
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
        got = integrate_many(lambda owner, x, u=a, v=b: np.sin(u * x) * np.sin(v * x),
                             [[0, math.pi]], tol=1e-11)[0]
        if abs(got - exact) > 1e-11:
            failures += 1
    assert failures == 0


@pytest.mark.parametrize("n, side, ratio", [
    (2, "alpha", 1.3), (3, "beta", 1.03), (5, "alpha", 1.9), (8, "beta", 1.3), (13, "alpha", 1.03),
])
def test_inner_numeric_is_one_row_of_the_engine(n, side, ratio):
    # inner_numeric(f, g) is a one-row integrate_many of f g, bit for bit,
    # for the norm, same-index, cross-index and distance integrands that
    # the closed forms are checked against
    f = build(complete_point(n, **{side: (n * ratio) ** 2}))
    bp = breakpoints(f)

    def diff(x):
        return f(x) - np.sin(n * x)

    for a, b in ((f, f), (f, SineMode(n)), (f, SineMode(n + 3)), (diff, diff)):
        engine = integrate_many(lambda owner, x: a(x) * b(x), [bp])[0]
        got = inner_numeric(a, b, bp)
        assert type(got) is float and got.hex() == float(engine).hex()


def test_inner_numeric_examples():
    for n in (1, 4, 9):
        v = inner_numeric(lambda x, m=n: np.sin(m * x), lambda x, m=n: np.sin(m * x),
                          [0, math.pi])
        assert v == pytest.approx(math.pi / 2, abs=1e-12)
    v = inner_numeric(lambda x: np.sin(2 * x), lambda x: np.sin(5 * x), [0, math.pi])
    assert abs(v) <= 1e-12


def test_piecewise_integrand_validation():
    def never(owner, x):
        raise AssertionError("refused breakpoints are evaluated nowhere")

    # breakpoints off [0, pi] and NaN at the start, inside and at the end
    # are refused before any refinement
    for points in ([0.1, math.pi], [0.0, 2.0], [math.nan, math.pi], [0.0, math.nan, math.pi],
                   [0.0, 1.0, math.nan]):
        with pytest.raises(ValueError):
            integrate_many(never, [points])
    with pytest.raises(ValueError):
        integrate_many(never, [[0, math.pi]], tol=1e-15)


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


def test_production_modules_do_not_import_the_oracle():
    """Only the command-line front end and the package namespace reach the
    quadrature oracle; every number on the production path is exact."""
    package = Path(quadrature.__file__).parent
    importers = {path.stem for path in package.glob("*.py")
                 if "quadrature" in _package_imports(path.read_text())}
    assert importers == {"cli", "__init__"}


def test_budget_exhaustion():
    # a genuinely rough integrand forces endless refinement
    def rough(owner, x):
        return np.sin(1.0 / (np.abs(x - 1.0) + 1e-300))

    with pytest.raises(NoConvergence):
        integrate_many(rough, [[0, math.pi]], tol=1e-13)


def test_bit_stability():
    def g(owner, x):
        return np.sin(11 * x) ** 2 * np.cos(3 * x)

    first = integrate_many(g, [[0, 1.1, math.pi]], tol=1e-12)[0]
    second = integrate_many(g, [[0, 1.1, math.pi]], tol=1e-12)[0]
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

    def one(self, i, tol=quadrature.DEFAULT_TOL):
        """The integral of integrand i alone, by a one-row call."""
        return integrate_many(lambda owner, x: self(i, x), [list(self.breaks[i])], tol)[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 120),
       tol=st.floats(1e-13, 1e-9),
       caps=st.sampled_from([(quadrature._CALL_NODES, quadrature._GROUP_POINTS),
                             (96, 16), (480, 64)]),
       freqs=st.lists(st.integers(1, 48), min_size=1, max_size=4))
def test_integrate_many_matches_one_row_calls_bit_for_bit(seed, count, tol, caps, freqs):
    # the small caps split every level into many evaluator calls and the
    # batch into many groups; at the real caps 120 integrals of up to six
    # pieces span several calls per level.  A k-valued evaluator, k =
    # len(freqs), multiplies each integrand by sin(m x) for each m in
    # freqs, so its components refine to different depths
    g = _Sinusoids(np.random.default_rng(seed), count)
    m = np.array(freqs)

    def vector(owner, x):
        return g(owner, x)[..., None] * np.sin(m * x[..., None])

    with mock.patch.multiple(quadrature, _CALL_NODES=caps[0], _GROUP_POINTS=caps[1]):
        many = integrate_many(g, g.breaks, tol)
        ragged = integrate_many(g, [list(row[:np.argmax(row == math.pi) + 1])
                                    for row in g.breaks], tol)
        wide = integrate_many(vector, g.breaks, tol)
        apart = [integrate_many(lambda owner, x, c=c: vector(owner, x)[..., c], g.breaks, tol)
                 for c in range(m.size)]
    loop = np.array([g.one(i, tol) for i in range(count)])
    assert many.tobytes() == loop.tobytes()
    assert ragged.tobytes() == loop.tobytes()
    assert wide.shape == (count, m.size)
    assert wide.tobytes() == np.column_stack(apart).tobytes()


def _reference(evaluator, row, owner, tol, component=None):
    """One integral alone, by plain dyadic refinement: every level
    evaluates the whole panel and both halves of each of its panels
    afresh.  Returns the integral and the number of panels per level,
    the first level's being the number of pieces."""
    def rule(a, b):
        half = 0.5 * (b - a)
        x = 0.5 * (b + a) + half * quadrature._NODES
        vals = np.asarray(evaluator(np.array([[owner]]), x[None, :]), dtype=float)[0]
        if component is not None:
            vals = vals[:, component]
        return half * (vals * quadrature._WEIGHTS).sum()

    points = np.unique(np.clip(row, 0.0, math.pi))
    panels = list(zip(points[:-1], points[1:]))
    accepted, per_level = [], []
    while panels:
        per_level.append(len(panels))
        children = []
        for lo, hi in panels:
            mid = 0.5 * (lo + hi)
            coarse, fine = rule(lo, hi), rule(lo, mid) + rule(mid, hi)
            if abs(fine - coarse) <= tol * (hi - lo) / math.pi or hi - lo < 1e-15:
                accepted.append((lo, fine))
            else:
                children += [(lo, mid), (mid, hi)]
        panels = children
    return np.add.reduce(np.array([v for _, v in sorted(accepted)])), per_level


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 8),
       tol=st.floats(1e-13, 1e-9),
       caps=st.sampled_from([(quadrature._CALL_NODES, quadrature._GROUP_POINTS),
                             (96, 16), (480, 64)]),
       freqs=st.lists(st.integers(1, 48), min_size=1, max_size=3))
def test_integrate_many_matches_a_plain_reference_bit_for_bit(seed, count, tol, caps, freqs):
    # whole pieces are summed in a pass of their own, children take their
    # parent's half sums and the integrals are summed by panel count; the
    # reference does none of this, so this pins all three to the bits of
    # a refinement that recomputes every rule
    g = _Sinusoids(np.random.default_rng(seed), count)
    m = np.array(freqs)
    counted, rows = [], []

    def vector(owner, x):
        return g(owner, x)[..., None] * np.sin(m * x[..., None])

    with mock.patch.multiple(quadrature, _CALL_NODES=caps[0], _GROUP_POINTS=caps[1]):
        one = integrate_many(lambda owner, x: counted.append(x.shape) or g(owner, x),
                             g.breaks, tol)
        wide = integrate_many(lambda owner, x: rows.append(x.shape) or vector(owner, x),
                              g.breaks, tol)
    reference = [_reference(g, g.breaks[i], i, tol) for i in range(count)]
    assert one.tobytes() == np.array([value for value, _ in reference]).tobytes()
    want = [[_reference(vector, g.breaks[i], i, tol, c)[0] for c in range(m.size)]
            for i in range(count)]
    assert wide.tobytes() == np.array(want).tobytes()

    # 16 nodes per piece for its whole panel, before any level, and the
    # 32 of the two halves on every panel of every level
    for calls in (counted, rows):
        assert {width for _, width in calls} <= {16, 32}
        assert sum(n for n, width in calls if width == 16) == sum(
            levels[0] for _, levels in reference)
    assert sum(n for n, width in counted if width == 32) == sum(
        sum(levels) for _, levels in reference)


def test_integrate_many_spans_several_calls_per_level():
    g = _Sinusoids(np.random.default_rng(5), 150)
    calls = []

    def counted(owner, x):
        calls.append(np.size(x))
        return g(owner, x)

    many = integrate_many(counted, g.breaks)
    assert max(calls) <= quadrature._CALL_NODES
    assert len(calls) > 3
    assert many.tobytes() == np.array([g.one(i) for i in range(150)]).tobytes()

    # k values per node count against the cap once the first call shows k
    calls.clear()
    wide = integrate_many(lambda owner, x: np.stack([counted(owner, x)] * 3, axis=-1),
                          g.breaks)
    assert max(calls[1:]) * 3 <= quadrature._CALL_NODES
    assert wide.tobytes() == np.column_stack([many] * 3).tobytes()


def test_integrate_many_runaway_member_raises():
    def batch(owner, x):
        rough = np.sin(1.0 / (np.abs(x - 1.0) + 1e-300))
        return np.where(owner == 1, rough, np.sin(x))

    with pytest.raises(NoConvergence, match="integral 1$"):
        integrate_many(batch, [[0, math.pi]] * 3, tol=1e-13)


def _split_wave(owner, x):
    """Three integrands per row: fast on the left half, fast on the right
    half, and smooth, so the union of their panel trees is larger than any
    one of them."""
    left = x < math.pi / 2
    fast, slow = np.sin((20 + owner) * x), np.sin(x)
    return np.stack([np.where(left, fast, slow), np.where(left, slow, fast), slow], axis=-1)


def test_integrate_many_budget_is_per_integral():
    rows = [[0.0, math.pi / 2, math.pi]] * 2

    def outcome(evaluator):
        try:
            return integrate_many(evaluator, rows).tobytes()
        except NoConvergence:
            return None

    raised = []
    for budget in range(2, 80, 2):
        with mock.patch.object(quadrature, "MAX_SUBINTERVALS", budget):
            wide = outcome(_split_wave)
            apart = [outcome(lambda owner, x, c=c: _split_wave(owner, x)[..., c])
                     for c in range(3)]
        # a k-wide call raises exactly when one of its k scalar calls does
        assert (wide is None) == any(a is None for a in apart), budget
        raised.append(wide is None)
    # the range covers the budget at which every integral first fits
    assert raised[0] and not raised[-1]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_integrate_many_fails_fast_on_non_finite_values():
    calls = []

    def batch(owner, x):
        calls.append(owner.size)
        return np.where((owner == 3) & (x > 2.0), np.nan, np.sin(7 * x))

    with pytest.raises(NoConvergence, match="integral 3 has a non-finite"):
        integrate_many(batch, [[0, math.pi]] * 5, tol=1e-13)
    # found at the first level, not after refining to the 2**20 budget: one
    # call for the whole panel that tells k, one for the other four, and
    # one for the halves of all five
    assert calls == [1, 4, 5]

    def wide(owner, x):
        calls.append(owner.size)
        bad = (owner == 2) & (x > 2.0)
        return np.stack([np.sin(7 * x), np.where(bad, np.inf, np.sin(x))], axis=-1)

    calls.clear()
    with pytest.raises(NoConvergence, match="integral 2, component 1 has a non-finite"):
        integrate_many(wide, [[0, math.pi]] * 4)
    assert calls == [1, 3, 4]


def test_integrate_many_ignores_integrals_already_accepted():
    # component 0 is accepted at the first level, the second call after
    # the whole panel's; it turns NaN afterwards, where only the panels
    # still refined for component 1 see it
    calls = []

    def wide(owner, x):
        calls.append(owner.size)
        first = np.sin(x) if len(calls) <= 2 else np.full(x.shape, np.nan)
        return np.stack([first, np.sin(30 * x) ** 2], axis=-1)

    out = integrate_many(wide, [[0, math.pi]])
    assert len(calls) > 2
    assert out[0, 0] == integrate_many(lambda owner, x: np.sin(x), [[0, math.pi]])[0]
    assert out[0, 1] == integrate_many(lambda owner, x: np.sin(30 * x) ** 2, [[0, math.pi]])[0]


def test_integrate_many_empty_batch():
    def never(owner, x):
        raise AssertionError("an empty batch evaluates nothing")

    # with no call the width of the values is unknown, so the shape is (0,)
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
    with pytest.raises(InvalidArgument, match=r"breakpoints must list at least \[0, pi\]"):
        integrate_many(sine, np.zeros((2, 1)))

    calls = []

    def widening(owner, x):
        # k = 1 on the first call, which covers one panel, and k = 2 on the next
        calls.append(None)
        return np.stack([np.sin(40 * x) ** 2] * min(len(calls), 2), axis=-1)

    # values must have the shape of x, or that shape plus one k >= 1
    for wrong in (lambda owner, x: np.sin(x).ravel(), lambda owner, x: np.sin(x).T,
                  lambda owner, x: np.sin(x)[:, :1], lambda owner, x: 1.0,
                  lambda owner, x: np.zeros(x.shape + (0,)),
                  lambda owner, x: np.zeros(x.shape + (2, 2)), widening):
        with pytest.raises(ValueError, match="evaluator returned shape"):
            integrate_many(wrong, [[0.0, math.pi]] * 2)
    assert len(calls) == 2


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
        _, lo, hi = quadrature._pieces(quadrature._rows([row]))
        _, want_lo, want_hi = quadrature._pieces(quadrature._rows([breakpoints(f)]))
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
