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
A pass before the refinement evaluates the 16 whole-panel nodes of every
piece; every level then evaluates the 32 nodes of the two halves of each
of its panels, and a split panel hands its two half-panel sums to its
children as their whole-panel sums, computed from the same end points by
the same expressions.  The nodes of a pass go to the evaluator together,
one row per panel, at most ``_CALL_NODES`` values (nodes times k) per
call: the first call of a batch covers one panel, which tells k.  Rows
with more than ``_GROUP_POINTS`` breakpoints in all are refined in
consecutive groups, so peak memory grows neither with the batch nor
with k.
:func:`integrate` is its one-integrand case.  Each Gauss sum is a
fixed-order reduction over the contiguous node axis of one panel, and each
integral sums its accepted panels in order of their left ends, as one row
of a block of the integrals with as many accepted panels, so a value
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

from .errors import InvalidArgument, NoConvergence, require_real, require_reals

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


def _rows(breakpoint_sets) -> np.ndarray:
    """Breakpoint lists as the rows of one array, each padded with its last point.

    Each list, or the 2-D array, is checked by :func:`~fucik.errors.require_reals`.
    """
    if isinstance(breakpoint_sets, np.ndarray):
        if breakpoint_sets.ndim != 2:
            raise InvalidArgument("breakpoint rows must form a 2-D array")
        return require_reals(breakpoint_sets, "breakpoints")
    lists = [require_reals(b, "breakpoints") for b in breakpoint_sets]
    if any(b.ndim != 1 or b.size < 2 for b in lists):
        raise InvalidArgument("breakpoints must list at least [0, pi]")
    rows = np.empty((len(lists), max((b.size for b in lists), default=2)))
    for row, b in zip(rows, lists):
        row[:b.size] = b
        row[b.size:] = b[-1]
    return rows


def _pieces(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner row, left, right) of each gap between distinct breakpoints of a row."""
    if rows.shape[1] < 2:
        raise InvalidArgument("breakpoints must list at least [0, pi]")
    # comparisons written so that a NaN breakpoint fails them
    if not (np.all(np.abs(rows[:, 0]) <= 1e-12)
            and np.all(np.abs(rows[:, -1] - math.pi) <= 1e-12)):
        raise InvalidArgument("breakpoints must start at 0 and end at pi")
    if not np.all(np.diff(rows, axis=1) >= -1e-15):
        raise InvalidArgument("breakpoints must be sorted ascending")
    b = np.sort(np.clip(rows, 0.0, math.pi), axis=1)
    lo, hi = b[:, :-1], b[:, 1:]
    gap = hi > lo
    owner = np.broadcast_to(np.arange(len(b))[:, None], lo.shape)
    return owner[gap], lo[gap], hi[gap]


def _gauss_sums(evaluator: Callable, owner: np.ndarray, edges: np.ndarray,
                tail: tuple | None) -> tuple[np.ndarray, tuple]:
    """Gauss-Legendre sums of the rules [edges[:, r], edges[:, r + 1]] of each panel.

    ``edges`` holds one row of rule edges per panel: [lo, hi] for the
    whole panel, [lo, mid, hi] for its two halves.  The nodes of all rules
    of up to ``_CALL_NODES`` // (16 rules k) panels go to one evaluator
    call, one row per panel; the first call, before k is known, takes one
    panel.  Its values have the shape of the nodes plus a tail: () for one
    integral per row, (k,) for k of them; ``tail`` is the one every call
    must keep, None before the first call.  Returns the sums as a (panels,
    rules, k) array, and the tail.  Each rule is summed with its node axis
    last and contiguous, in one fixed order, so a rule's value depends
    only on its end points and its row: a half computed at one level is
    the whole panel of the child that inherits it, bit for bit.
    """
    rules = edges.shape[1] - 1
    sums = []
    s = 0
    while s < len(edges):
        step = 1 if tail is None else max(
            1, _CALL_NODES // (rules * _NODES.size * math.prod(tail)))
        c = slice(s, s + step)
        s += step
        a, b = edges[c, :-1], edges[c, 1:]
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
    return np.concatenate(sums), tail


def integrate_many(evaluator: Callable, breakpoint_sets, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Integrals over [0, pi] of many integrands, each with estimated error <= tol.

    ``evaluator(owner, x)`` gets a column of row indices and one row of
    points for each.  A row of ``x`` holds the Gauss nodes of one panel
    (16 for a whole piece, 32 for the two halves of a panel at any
    level), and a panel lies between two consecutive breakpoints of its
    row, so an evaluator may locate the piece of a row once, from any one
    of its points.  It returns either an array of ``x.shape``, the value
    of integrand ``owner[i]`` at every ``x[i, j]``, or an array of
    ``x.shape + (k,)``, the values of that row's k integrands, the same k
    on every call.  ``breakpoint_sets`` holds one breakpoint list per row,
    shared by its integrands: a sequence of lists, or a 2-D array whose
    rows may be padded with pi; breakpoints that are not bools, integers
    or floats (strings, bytes, complex numbers, objects) raise
    InvalidArgument.  The result has one value per row, or shape (rows, k).

    Every integral gets the panels, decisions, budget and summation order
    it would get alone, so the result equals a loop of :func:`integrate`,
    or of one-valued calls per component, bit for bit; a panel is split
    while any integral of its row is still refined on it.  Raises
    NoConvergence once one integral exhausts its budget of 2**20
    subintervals, or as soon as one of its Gauss values is not finite.  A
    ``tol`` that is not a real number, is below 1e-14 or lies beyond float
    range raises InvalidArgument.
    """
    tol = require_real(tol, "tol")
    if not tol >= MIN_TOL:
        raise InvalidArgument(f"tol must be >= {MIN_TOL:g}, got {tol}")
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

    A pass before the loop sums each piece over its whole panel.  Each
    panel then carries its row, a mask of the row's integrals still
    refined on it, and its whole-panel sums ``coarse``, which a child
    inherits from its parent's half; every level evaluates the two halves
    of its panels.  ``created`` counts for each integral the panels it is
    refined on, which is the count it would reach alone.
    """
    owner, lo, hi = _pieces(rows)
    sums, tail = _gauss_sums(evaluator, owner + first, np.column_stack([lo, hi]), tail)
    coarse = sums[:, 0]
    k = coarse.shape[1]
    # integral r * k + c of the group is component c of row r; every
    # integral is refined on every piece
    key = owner[:, None] * k + np.arange(k)
    active = np.ones(key.shape, dtype=bool)
    created = np.bincount(key.ravel(), minlength=len(rows) * k)
    accepted_key: list[np.ndarray] = []
    accepted_left: list[np.ndarray] = []
    accepted_val: list[np.ndarray] = []

    while lo.size:
        mid = 0.5 * (lo + hi)
        halves, tail = _gauss_sums(evaluator, owner + first, np.column_stack([lo, mid, hi]), tail)
        fine = halves[:, 0] + halves[:, 1]
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
        children = np.concatenate([split, split])
        owner, key, active = owner[children], key[children], live[children]
        lo, hi = (np.concatenate([lo[split], mid[split]]),
                  np.concatenate([mid[split], hi[split]]))
        coarse = np.concatenate([halves[split, 0], halves[split, 1]])
        created += np.bincount(key[active], minlength=created.size)
        if created.max() > MAX_SUBINTERVALS:
            worst = int(np.argmax(created))
            raise NoConvergence(f"refinement budget of {MAX_SUBINTERVALS} subintervals "
                                f"exhausted by {_name(worst, k, first, tail)}")

    # each integral sums its accepted panels in order of their left ends; the
    # integrals with c accepted panels are summed as the rows of one (., c) block
    keys = np.concatenate(accepted_key)
    order = np.lexsort((np.concatenate(accepted_left), keys))
    vals = np.concatenate(accepted_val)[order]
    counts = np.bincount(keys, minlength=created.size)
    starts = np.cumsum(counts) - counts
    totals = np.empty(created.size)
    for count in np.unique(counts):
        these = (counts == count).nonzero()[0]
        totals[these] = np.add.reduce(vals[starts[these, None] + np.arange(count)], axis=1)
    return totals.reshape(len(rows), -1), tail


def _name(key: int, k: int, first: int, tail: tuple) -> str:
    """Integral ``key`` of the group that starts at row ``first``, for messages."""
    row, component = divmod(key, k)
    return f"integral {first + row}" + (f", component {component}" if tail else "")


def integrate(g: PiecewiseIntegrand, tol: float = DEFAULT_TOL) -> float:
    """Integral of g over [0, pi] with estimated absolute error <= tol.

    The one-integrand case of :func:`integrate_many`.  Refinement never
    crosses a breakpoint.  Raises NoConvergence once the subdivision
    budget of 2**20 subintervals is exhausted or a value is not finite;
    breakpoints and ``tol`` are refused as in :func:`integrate_many`.
    """
    return float(integrate_many(lambda owner, x: np.reshape(g.evaluator(x.ravel()), x.shape),
                                [g.breakpoints], tol)[0])


def inner_numeric(a: Callable, b: Callable, breakpoints: Sequence[float],
                  tol: float = DEFAULT_TOL) -> float:
    """Inner product of a and b over (0, pi).

    ``breakpoints`` must contain the union of both functions' junction
    points; the product is then smooth on every piece.  Breakpoints and
    ``tol`` are refused as in :func:`integrate_many`.
    """
    def product(x):
        return np.asarray(a(x), dtype=float) * np.asarray(b(x), dtype=float)

    return integrate(PiecewiseIntegrand(product, breakpoints), tol)
