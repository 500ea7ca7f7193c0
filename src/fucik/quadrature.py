"""Adaptive quadrature oracle for piecewise-smooth integrands on [0, pi].

Every closed form in this package is certified against this module, so it
deliberately shares no algebra with them: integrals are computed by fixed
Gauss-Legendre panels refined by dyadic subdivision.  Integrands are
analytic between their breakpoints, so the per-piece rule converges
spectrally; subdivision only has to bring the oscillation per panel down.

The error control is a two-level difference estimate: a panel is accepted
when the Gauss value over the whole panel and the summed values over its
halves agree within the panel's share of the global tolerance (allocated
proportionally to length).  Node sets are fixed and evaluation order is
deterministic, so results are bit-stable across runs.

Evaluators must accept numpy arrays (scalars broadcast fine).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NoConvergence

DEFAULT_TOL = 1e-12
MIN_TOL = 1e-14
MAX_SUBINTERVALS = 2 ** 20

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class PiecewiseIntegrand:
    """An evaluator on [0, pi] together with its non-smoothness points.

    ``breakpoints`` must be sorted, start at 0 and end at pi; the evaluator
    is assumed smooth strictly between consecutive breakpoints.
    """

    evaluator: Callable
    breakpoints: Sequence[float]

    def pieces(self) -> np.ndarray:
        b = np.asarray(self.breakpoints, dtype=float)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("breakpoints must list at least [0, pi]")
        # comparisons written so that a NaN breakpoint fails them
        if not (abs(b[0]) <= 1e-12 and abs(b[-1] - math.pi) <= 1e-12):
            raise ValueError("breakpoints must start at 0 and end at pi")
        if not np.all(np.diff(b) >= -1e-15):
            raise ValueError("breakpoints must be sorted ascending")
        b = np.unique(np.clip(b, 0.0, math.pi))
        return np.column_stack([b[:-1], b[1:]])


def _gauss_batch(fn: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss-Legendre values of fn over each [lo_i, hi_i], one call to fn."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    return half * (vals @ _WEIGHTS)


def integrate(g: PiecewiseIntegrand, tol: float = DEFAULT_TOL) -> float:
    """Integral of g over [0, pi] with estimated absolute error <= tol.

    Refinement never crosses a breakpoint.  Raises NoConvergence once the
    subdivision budget of 2**20 subintervals is exhausted.
    """
    if not tol >= MIN_TOL:
        raise ValueError(f"tol must be >= {MIN_TOL:g}, got {tol:g}")
    segs = g.pieces()
    lo = segs[:, 0].copy()
    hi = segs[:, 1].copy()
    created = lo.size

    accepted_left: list[np.ndarray] = []
    accepted_val: list[np.ndarray] = []

    while lo.size:
        mid = 0.5 * (lo + hi)
        coarse = _gauss_batch(g.evaluator, lo, hi)
        fine_l = _gauss_batch(g.evaluator, lo, mid)
        fine_r = _gauss_batch(g.evaluator, mid, hi)
        fine = fine_l + fine_r
        err = np.abs(fine - coarse)
        budget = tol * (hi - lo) / math.pi
        done = (err <= budget) | ((hi - lo) < 1e-15)

        accepted_left.append(lo[done])
        accepted_val.append(fine[done])

        lo_s, hi_s, mid_s = lo[~done], hi[~done], mid[~done]
        lo = np.concatenate([lo_s, mid_s])
        hi = np.concatenate([mid_s, hi_s])
        created += lo.size
        if created > MAX_SUBINTERVALS:
            raise NoConvergence(
                f"refinement budget of {MAX_SUBINTERVALS} subintervals exhausted"
            )

    lefts = np.concatenate(accepted_left)
    vals = np.concatenate(accepted_val)
    order = np.argsort(lefts, kind="stable")
    return float(np.sum(vals[order]))


def inner_numeric(a: Callable, b: Callable, breakpoints: Sequence[float],
                  tol: float = DEFAULT_TOL) -> float:
    """Inner product of a and b over (0, pi).

    ``breakpoints`` must contain the union of both functions' junction
    points; the product is then smooth on every piece.
    """
    def product(x):
        return np.asarray(a(x), dtype=float) * np.asarray(b(x), dtype=float)

    return integrate(PiecewiseIntegrand(product, breakpoints), tol)


def merged_breakpoints(*point_sets: Sequence[float]) -> np.ndarray:
    """Union of several breakpoint lists, deduplicated within 1e-14."""
    merged = np.unique(np.concatenate([np.asarray(p, dtype=float) for p in point_sets]))
    keep = np.ones(merged.size, dtype=bool)
    keep[1:] = np.diff(merged) > 1e-14
    return merged[keep]
