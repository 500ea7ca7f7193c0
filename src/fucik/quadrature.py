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
many integrals; each panel carries the index of the breakpoint row it
belongs to.  An evaluator may return k values per node, one for each of k
integrals that share the row's breakpoints; a panel then carries a mask of
the integrals still refined on it, and is split while any of them is.
At each level the whole-panel and half-panel nodes of every panel go to
the evaluator together, at most ``_CALL_NODES`` values (nodes times k) per
call once k is known, and rows with more than ``_GROUP_POINTS`` breakpoints
in all are refined in consecutive groups, so peak memory grows neither
with the batch nor with k.
:func:`integrate` is its one-integrand case.  Each Gauss sum is a
fixed-order reduction over the contiguous node axis of one panel, and each
integral sums its accepted panels in order of their left ends, so a value
depends neither on the run nor on the batch, call or k it was computed in.

Every integral has its own budget of ``MAX_SUBINTERVALS`` subintervals,
counted over the panels it is refined on, and a non-finite Gauss value
ends the refinement at the level where it appears; both raise
:class:`NoConvergence` naming the integral.

Evaluators must accept numpy arrays: :func:`integrate` passes a 1-D array
of points, :func:`integrate_many` a column of row indices and a 2-D array
of points.
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

#: integrand values (nodes times k) per evaluator call; bounds peak memory
#: and keeps a call's arrays at 64 KB, small enough for the allocator to
#: reuse them rather than map fresh pages on every call
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


def _gauss_levels(evaluator: Callable, owner: np.ndarray, lo: np.ndarray, mid: np.ndarray,
                  hi: np.ndarray, tail: tuple | None) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Gauss-Legendre values of each panel whole (coarse) and as two halves (fine).

    The nodes of all three rules of up to ``_CALL_NODES`` // (48 k) panels
    go to one evaluator call; the first call, before k is known, takes
    k = 1.  Its values have the shape of the nodes plus a tail: () for one
    integral per row, (k,) for k of them; ``tail`` is the one every call
    must keep, None before the first call.  Returns coarse and fine as
    (panels, k) arrays, and the tail.  Each rule is summed with its node
    axis last and contiguous, in one fixed order, so a panel's values
    depend neither on the panels around it nor on k.
    """
    sums = []
    s = 0
    while s < lo.size:
        step = max(1, _CALL_NODES // (3 * _NODES.size * math.prod(tail or ())))
        c = slice(s, s + step)
        s += step
        a = np.column_stack([lo[c], lo[c], mid[c]])
        b = np.column_stack([hi[c], mid[c], hi[c]])
        half = 0.5 * (b - a)
        x = (0.5 * (b + a))[:, :, None] + half[:, :, None] * _NODES
        nodes = x.reshape(len(x), -1)
        vals = np.asarray(evaluator(owner[c, None], nodes), dtype=float)
        got = vals.shape[2:]
        if vals.shape[:2] != nodes.shape or len(got) > 1 or 0 in got or tail not in (None, got):
            raise ValueError(f"evaluator returned shape {vals.shape} for nodes of shape "
                             f"{nodes.shape}; expected {nodes.shape} or {nodes.shape} + (k,), "
                             f"with one k >= 1 for every call")
        tail = got
        # (panel, rule, integral, node), the node axis last and contiguous
        vals = np.ascontiguousarray(vals.reshape(x.shape + (-1,)).transpose(0, 1, 3, 2))
        sums.append(half[:, :, None] * (vals * _WEIGHTS).sum(axis=3))
    sums = np.concatenate(sums)
    return sums[:, 0], sums[:, 1] + sums[:, 2], tail


def integrate_many(evaluator: Callable, breakpoint_sets, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Integrals over [0, pi] of many integrands, each with estimated error <= tol.

    ``evaluator(owner, x)`` gets a column of row indices and one row of
    points for each.  It returns either an array of ``x.shape``, the value
    of integrand ``owner[i]`` at every ``x[i, j]``, or an array of
    ``x.shape + (k,)``, the values of that row's k integrands, the same k
    on every call.  ``breakpoint_sets`` holds one breakpoint list per row,
    shared by its integrands: a sequence of lists, or a 2-D array whose
    rows may be padded with pi.  The result has one value per row, or
    shape (rows, k).

    Every integral gets the panels, decisions, budget and summation order
    it would get alone, so the result equals a loop of :func:`integrate`,
    or of one-valued calls per component, bit for bit; a panel is split
    while any integral of its row is still refined on it.  Raises
    NoConvergence once one integral exhausts its budget of 2**20
    subintervals, or as soon as one of its Gauss values is not finite.
    """
    if not tol >= MIN_TOL:
        raise ValueError(f"tol must be >= {MIN_TOL:g}, got {tol:g}")
    rows = _rows(breakpoint_sets)
    parts = []
    tail = None
    step = max(1, _GROUP_POINTS // rows.shape[1])
    for first in range(0, len(rows), step):
        part, tail = _refine(evaluator, first, rows[first:first + step], tol, tail)
        parts.append(part)
    if tail is None:  # an empty batch, which calls no evaluator
        return np.empty(0)
    return np.concatenate(parts).reshape(len(rows), *tail)


def _refine(evaluator: Callable, first: int, rows: np.ndarray, tol: float,
            tail: tuple | None) -> tuple[np.ndarray, tuple]:
    """The integrals of rows first, first + 1, ... as a (rows, k) array, and the tail.

    Each panel carries its row and a mask of the row's integrals still
    refined on it; ``created`` counts for each integral the panels it is
    refined on, which is the count it would reach alone.
    """
    owner, lo, hi = _pieces(rows)
    active = created = None
    accepted_key: list[np.ndarray] = []
    accepted_left: list[np.ndarray] = []
    accepted_val: list[np.ndarray] = []

    while lo.size:
        mid = 0.5 * (lo + hi)
        coarse, fine, tail = _gauss_levels(evaluator, owner + first, lo, mid, hi, tail)
        k = coarse.shape[1]
        if active is None:  # first level: every integral is refined on every piece
            # integral r * k + c of the group is component c of row r
            key = owner[:, None] * k + np.arange(k)
            active = np.ones(key.shape, dtype=bool)
            created = np.bincount(key.ravel(), minlength=len(rows) * k)
        err = np.abs(fine - coarse)
        bad = active & ~np.isfinite(err)
        if bad.any():
            raise NoConvergence(f"{_name(int(key[bad].min()), k, first, tail)} "
                                f"has a non-finite Gauss value")
        width = hi - lo
        done = (err <= (tol * width / math.pi)[:, None]) | (width < 1e-15)[:, None]

        take = active & done
        accepted_key.append(key[take])
        accepted_left.append(lo[take.nonzero()[0]])
        accepted_val.append(fine[take])

        # a panel is split into two halves while any of its integrals is live
        live = active & ~done
        split = live.any(axis=1).nonzero()[0]
        halves = np.concatenate([split, split])
        owner, key, active = owner[halves], key[halves], live[halves]
        lo, hi = (np.concatenate([lo[split], mid[split]]),
                  np.concatenate([mid[split], hi[split]]))
        created += np.bincount(key[active], minlength=created.size)
        if created.max() > MAX_SUBINTERVALS:
            worst = int(np.argmax(created))
            raise NoConvergence(f"refinement budget of {MAX_SUBINTERVALS} subintervals "
                                f"exhausted by {_name(worst, k, first, tail)}")

    # each integral sums its accepted panels in order of their left ends
    keys = np.concatenate(accepted_key)
    order = np.lexsort((np.concatenate(accepted_left), keys))
    vals = np.concatenate(accepted_val)[order]
    ends = np.searchsorted(keys[order], np.arange(created.size + 1))
    sums = [np.add.reduce(vals[s:e]) for s, e in zip(ends[:-1], ends[1:])]
    return np.array(sums).reshape(len(rows), -1), tail


def _name(key: int, k: int, first: int, tail: tuple) -> str:
    """Integral ``key`` of the group that starts at row ``first``, for messages."""
    row, component = divmod(key, k)
    return f"integral {first + row}" + (f", component {component}" if tail else "")


def integrate(g: PiecewiseIntegrand, tol: float = DEFAULT_TOL) -> float:
    """Integral of g over [0, pi] with estimated absolute error <= tol.

    The one-integrand case of :func:`integrate_many`.  Refinement never
    crosses a breakpoint.  Raises NoConvergence once the subdivision
    budget of 2**20 subintervals is exhausted or a value is not finite.
    """
    return float(integrate_many(lambda owner, x: np.reshape(g.evaluator(x.ravel()), x.shape),
                                [g.breakpoints], tol)[0])


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
