"""Shared oracle helpers for the test suite.

Everything here is deliberately independent of the closed forms it is
used to check: inner products come from the adaptive quadrature oracle,
and the dilation-operator norms are probed with exact integration of
piecewise-linear trial functions.
"""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from fucik.eigenfunction import SineMode, breakpoints, build
from fucik.quadrature import inner_numeric
from fucik.spectrum import complete_point


def curve_samples(n, count, lo=1.05, hi=1.9):
    """On-curve points for index n, half alpha-dominant, half beta-dominant.

    The dominant square root runs over n * linspace(lo, hi), so the
    samples stay clear of the diagonal band for lo > 1 + 1e-6.
    """
    pts = []
    ratios = np.linspace(lo, hi, (count + 1) // 2)
    for r in ratios:
        pts.append(complete_point(n, alpha=float((n * r) ** 2)))
    for r in ratios[: count // 2]:
        pts.append(complete_point(n, beta=float((n * r) ** 2)))
    return pts


def curve_points(max_n=60):
    """Hypothesis strategy for on-curve points with either coordinate given.

    The given coordinate is the dominant one, (n r)^2 with r in [1, 3], so
    both dominance branches and the diagonal itself (r = 1) are drawn.
    """
    return st.builds(lambda n, side, r: complete_point(n, **{side: (n * r) ** 2}),
                     st.integers(2, max_n), st.sampled_from(("alpha", "beta")),
                     st.floats(1.0, 3.0))


def quad_norm_sq(p, tol=1e-12):
    f = build(p)
    return inner_numeric(f, f, breakpoints(f), tol)


def quad_dist_sq(p, tol=1e-12):
    f = build(p)
    sine = SineMode(p.n)

    def diff(x):
        return f(x) - sine(x)

    return inner_numeric(diff, diff, breakpoints(f), tol)


def quad_inner(p, m, tol=1e-12):
    f = build(p)
    return inner_numeric(f, SineMode(m), breakpoints(f), tol)


# ----------------------------------------------------------------------
# exact integration of piecewise-linear trial functions, used to probe
# the dilation operators without going through the quadrature module

def pl_norm_sq(knots, values):
    """Exact integral of g^2 for g piecewise linear over the knots."""
    a = values[:-1]
    b = values[1:]
    h = np.diff(knots)
    return float(np.sum(h / 3.0 * (a * a + a * b + b * b)))


class TkPiecewiseProbe:
    """Exact ||T_k g||^2 for piecewise-linear g on a fixed knot grid.

    T_k g(x) = g((k x / 2) wrapped into [0, pi] with period pi).  The
    breakpoint geometry depends only on k and the knots, so it is
    precomputed once and reused across trial functions.  Trial functions
    must vanish at both endpoints (keeps T_k g continuous across wraps).
    """

    def __init__(self, k, knots):
        self.k = k
        self.knots = np.asarray(knots, dtype=float)
        xs = {0.0, math.pi}
        m = 0
        while m * math.pi <= k * math.pi / 2 + 1e-12:
            for t in self.knots:
                x = 2.0 * (m * math.pi + t) / k
                if 0.0 < x < math.pi:
                    xs.add(x)
            m += 1
        grid = np.array(sorted(xs))
        mids = 0.5 * (grid[:-1] + grid[1:])
        wraps = np.floor(k * mids / 2.0 / math.pi)
        self.y_left = np.clip(k * grid[:-1] / 2.0 - wraps * math.pi, 0.0, math.pi)
        self.y_right = np.clip(k * grid[1:] / 2.0 - wraps * math.pi, 0.0, math.pi)
        self.h = np.diff(grid)

    def norm_sq(self, values):
        a = np.interp(self.y_left, self.knots, values)
        b = np.interp(self.y_right, self.knots, values)
        return float(np.sum(self.h / 3.0 * (a * a + a * b + b * b)))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
