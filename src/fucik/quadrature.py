"""Adaptive quadrature oracle for piecewise-smooth integrands on [0, pi].

Every closed form in this package is certified against this module, so it
deliberately shares no algebra with them: integrals are computed by fixed
Gauss-Legendre panels refined by dyadic subdivision.  Integrands are
analytic between their breakpoints, so the per-piece rule converges
spectrally; subdivision only has to bring the oscillation per panel down.

The error control is a two-level difference estimate: a panel is accepted
when the Gauss value over the whole panel and the summed values over its
halves agree within the panel's share of the global tolerance (allocated
proportionally to length).

:func:`integrate_many` runs one refinement loop over the stacked panels of
many integrals; each panel carries the index of the integral it belongs
to.  At each level the whole-panel and half-panel nodes of every active
panel go to the evaluator together, at most ``_CALL_NODES`` nodes per
call, and integrals with more than ``_GROUP_POINTS`` breakpoints in all
are refined in consecutive groups, so peak memory does not grow with the
batch.  :func:`integrate` is its one-integrand case.  Each Gauss sum is a
fixed-order reduction of one panel's row, and each integral sums its
accepted panels in order of their left ends, so a value depends neither
on the run nor on the batch or call it was computed in.

Evaluators must accept numpy arrays: :func:`integrate` passes a 1-D array
of points, :func:`integrate_many` a column of integrand indices and a 2-D
array of points.
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

#: integrand nodes per evaluator call; bounds peak memory
_CALL_NODES = 8192
#: breakpoints of the integrals refined together; bounds peak memory
_GROUP_POINTS = 32768


@dataclass(frozen=True)
class PiecewiseIntegrand:
    """An evaluator on [0, pi] together with its non-smoothness points.

    ``breakpoints`` must be sorted, start at 0 and end at pi; the evaluator
    is assumed smooth strictly between consecutive breakpoints.
    """

    evaluator: Callable
    breakpoints: Sequence[float]

    def pieces(self) -> np.ndarray:
        _, lo, hi = _pieces(_rows([self.breakpoints]))
        return np.column_stack([lo, hi])


def _rows(breakpoint_sets) -> np.ndarray:
    """Breakpoint lists as the rows of one array, each padded with its last point."""
    if isinstance(breakpoint_sets, np.ndarray):
        if breakpoint_sets.ndim != 2:
            raise ValueError("breakpoint rows must form a 2-D array")
        return np.asarray(breakpoint_sets, dtype=float)
    lists = [np.asarray(b, dtype=float) for b in breakpoint_sets]
    if any(b.ndim != 1 or b.size < 2 for b in lists):
        raise ValueError("breakpoints must list at least [0, pi]")
    rows = np.empty((len(lists), max((b.size for b in lists), default=2)))
    for row, b in zip(rows, lists):
        row[:b.size] = b
        row[b.size:] = b[-1]
    return rows


def _pieces(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner row, left, right) of each gap between distinct breakpoints of a row."""
    if rows.shape[1] < 2:
        raise ValueError("breakpoints must list at least [0, pi]")
    # comparisons written so that a NaN breakpoint fails them
    if not (np.all(np.abs(rows[:, 0]) <= 1e-12)
            and np.all(np.abs(rows[:, -1] - math.pi) <= 1e-12)):
        raise ValueError("breakpoints must start at 0 and end at pi")
    if not np.all(np.diff(rows, axis=1) >= -1e-15):
        raise ValueError("breakpoints must be sorted ascending")
    b = np.sort(np.clip(rows, 0.0, math.pi), axis=1)
    lo, hi = b[:, :-1], b[:, 1:]
    gap = hi > lo
    owner = np.broadcast_to(np.arange(len(b))[:, None], lo.shape)
    return owner[gap], lo[gap], hi[gap]


def _gauss_levels(evaluator: Callable, owner: np.ndarray, lo: np.ndarray,
                  mid: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre values of each panel whole (coarse) and as two halves (fine).

    The nodes of all three rules of up to ``_CALL_NODES`` // 48 panels go
    to one evaluator call.  Each rule is summed row by row in a fixed
    order, so a panel's values do not depend on the panels around it.
    """
    coarse = np.empty(lo.size)
    fine = np.empty(lo.size)
    step = _CALL_NODES // (3 * _NODES.size)
    for s in range(0, lo.size, step):
        c = slice(s, s + step)
        a = np.column_stack([lo[c], lo[c], mid[c]])
        b = np.column_stack([hi[c], mid[c], hi[c]])
        half = 0.5 * (b - a)
        x = (0.5 * (b + a))[:, :, None] + half[:, :, None] * _NODES
        vals = evaluator(owner[c, None], x.reshape(len(x), -1))
        sums = half * (np.asarray(vals, dtype=float).reshape(x.shape) * _WEIGHTS).sum(axis=2)
        coarse[c] = sums[:, 0]
        fine[c] = sums[:, 1] + sums[:, 2]
    return coarse, fine


def integrate_many(evaluator: Callable, breakpoint_sets, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Integrals over [0, pi] of many integrands, each with estimated error <= tol.

    ``evaluator(owner, x)`` gets a column of integrand indices and one row
    of points for each; it returns the value of integrand ``owner[i]`` at
    every ``x[i, j]``.  ``breakpoint_sets`` holds one breakpoint list per
    integrand: a sequence of lists, or a 2-D array whose rows may be padded
    with pi.  Every integral gets the panels, decisions and summation order
    it would get alone, so the result equals a loop of :func:`integrate`
    bit for bit.  Raises NoConvergence once one integral exhausts its
    budget of 2**20 subintervals.
    """
    if not tol >= MIN_TOL:
        raise ValueError(f"tol must be >= {MIN_TOL:g}, got {tol:g}")
    rows = _rows(breakpoint_sets)
    out = np.empty(len(rows))
    step = max(1, _GROUP_POINTS // rows.shape[1])
    for first in range(0, len(rows), step):
        out[first:first + step] = _refine(evaluator, first, rows[first:first + step], tol)
    return out


def _refine(evaluator: Callable, first: int, rows: np.ndarray, tol: float) -> np.ndarray:
    """The integrals numbered first, first + 1, ... with these breakpoint rows."""
    count = len(rows)
    owner, lo, hi = _pieces(rows)
    created = np.bincount(owner, minlength=count)

    accepted_owner: list[np.ndarray] = []
    accepted_left: list[np.ndarray] = []
    accepted_val: list[np.ndarray] = []

    while lo.size:
        mid = 0.5 * (lo + hi)
        coarse, fine = _gauss_levels(evaluator, owner + first, lo, mid, hi)
        err = np.abs(fine - coarse)
        budget = tol * (hi - lo) / math.pi
        done = (err <= budget) | ((hi - lo) < 1e-15)

        accepted_owner.append(owner[done])
        accepted_left.append(lo[done])
        accepted_val.append(fine[done])

        split = ~done
        owner = np.concatenate([owner[split], owner[split]])
        lo, hi = (np.concatenate([lo[split], mid[split]]),
                  np.concatenate([mid[split], hi[split]]))
        created += np.bincount(owner, minlength=count)
        if created.max() > MAX_SUBINTERVALS:
            raise NoConvergence(
                f"refinement budget of {MAX_SUBINTERVALS} subintervals exhausted"
            )

    # each integral sums its accepted panels in order of their left ends
    owners = np.concatenate(accepted_owner)
    order = np.lexsort((np.concatenate(accepted_left), owners))
    vals = np.concatenate(accepted_val)[order]
    ends = np.searchsorted(owners[order], np.arange(count + 1))
    return np.array([np.add.reduce(vals[s:e]) for s, e in zip(ends[:-1], ends[1:])])


def integrate(g: PiecewiseIntegrand, tol: float = DEFAULT_TOL) -> float:
    """Integral of g over [0, pi] with estimated absolute error <= tol.

    The one-integrand case of :func:`integrate_many`.  Refinement never
    crosses a breakpoint.  Raises NoConvergence once the subdivision
    budget of 2**20 subintervals is exhausted.
    """
    return float(integrate_many(lambda owner, x: g.evaluator(x.ravel()), [g.breakpoints], tol)[0])


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
