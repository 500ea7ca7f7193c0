"""Exact norms, distances and scalar products of the eigenfunctions.

Every quantity here is an integral of a product of piecewise sinusoids,
and all of them are assembled bump by bump from one exact kernel.  A bump
a sin(w (x - x0)) of length pi/w with midpoint c contributes

    <bump, sin(m x)> = a pi sin(m c) sinc(pi (w - m) / (2 w)) / (w + m)

to the scalar product with sin(m x); the denominator never vanishes, so
the resonances m^2 = alpha or beta and the diagonal need no special case.
The sums over the bump train collapse through the closed progression
identity.  The squared norm is the bump sum k+ a+^2 l1 / 2 + k- a-^2 l2 / 2
and the squared distance to sin(n x) follows by polarization.  Products
of two eigenfunctions (:func:`pair_products`) are integrated exactly on
each piece between their merged junction points, in the sine form
2 sin(kappa h / 2) / kappa of a cosine of frequency kappa over a piece of
length h (h itself where kappa is exactly 0), and only over real pieces:
the pairs run widest first, and each chunk's merged rows end after the
pieces of its widest pair.  Where the junctions
fall and which bump holds a point is not decided here: both come from the
layout rules of :mod:`fucik.eigenfunction`.

The single-point functions (:func:`norm_sq`, :func:`dist_sq_to_sine`,
:func:`inner_same_index`, :func:`inner_cross_index`) use scalar ``math``.
Gram assembly uses the array forms instead: they read the columns of a
:class:`~fucik.eigenfunction.BumpTable`, which stacks the per-function
data of a whole system once, and :func:`norms_sq`, :func:`sine_products`
and :func:`pair_products` compute each kind of entry in one numpy pass.

The paper's per-case formulas and the adaptive quadrature are independent
routes to the same numbers; they serve as oracles in the tests and in
``fucik verify`` and are not used here.

All single-point results are wrapped in :class:`ClosedFormValue`, which
records the dominance case of the point as the provenance of each figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .eigenfunction import BumpTable, amplitudes, local_waves
from .errors import InvalidArgument, require_int
from .spectrum import FucikPoint

#: largest comparator index accepted by inner_cross_index
M_MAX = 10 ** 4

#: elements per array in one chunk of pair_products; bounds peak memory
_PAIR_CHUNK = 8192

FormulaCase = Literal["even_alpha", "odd_alpha", "even_beta", "odd_beta", "diagonal"]


@dataclass(frozen=True)
class ClosedFormValue:
    """A number plus the dominance case of its point (or ``diagonal``)."""

    value: float
    formula_case: FormulaCase


def _case(p: FucikPoint) -> FormulaCase:
    if p.case == "beta_dominant":
        return "even_beta" if p.n % 2 == 0 else "odd_beta"
    return "even_alpha" if p.n % 2 == 0 else "odd_alpha"


def _progression_sum(count: int, c: float, d: float) -> float:
    """sum_{k=0}^{count-1} sin(k c + d) by the closed product identity.

    Reducing c modulo 2 pi first keeps the quotient well conditioned when
    c is close to a multiple of 2 pi: numerator and denominator are then
    sines of small arguments, each accurate to a relative round-off.
    """
    if count <= 0:
        return 0.0
    c = math.remainder(c, 2 * math.pi)
    if c == 0.0:
        return count * math.sin(d)
    return math.sin(count * c / 2) * math.sin((count - 1) * c / 2 + d) / math.sin(c / 2)


def _bump_factor(w: float, m: int) -> float:
    """pi sinc(pi (w - m) / (2 w)) / (w + m), the per-bump weight."""
    u = math.pi * (w - m) / (2 * w)
    return math.pi * (math.sin(u) / u if u else 1.0) / (w + m)


def _sine_product(p: FucikPoint, m: int) -> float:
    """<f, sin(m x)> summed over the positive and the negative bumps."""
    a_pos, a_neg = amplitudes(p)
    sa, sb = p.sqrt_alpha, p.sqrt_beta
    l1, l2 = math.pi / sa, math.pi / sb
    c = m * (l1 + l2)
    pos = _progression_sum((p.n + 1) // 2, c, m * l1 / 2)
    neg = _progression_sum(p.n // 2, c, m * (l1 + l2 / 2))
    return a_pos * _bump_factor(sa, m) * pos - a_neg * _bump_factor(sb, m) * neg


def _norm(p: FucikPoint) -> float:
    a_pos, a_neg = amplitudes(p)
    return ((p.n + 1) // 2 * a_pos ** 2 * math.pi / p.sqrt_alpha
            + p.n // 2 * a_neg ** 2 * math.pi / p.sqrt_beta) / 2


def _same_index(p: FucikPoint, diagonal_value: float, off_diagonal) -> ClosedFormValue:
    if p.case == "diagonal":
        return ClosedFormValue(diagonal_value, "diagonal")
    return ClosedFormValue(off_diagonal(p), _case(p))


def norm_sq(p: FucikPoint) -> ClosedFormValue:
    """Squared L2 norm of the normalized eigenfunction at p.

    Always in (0, pi/2]; equals pi/2 exactly on the diagonal and for n = 1.
    """
    return _same_index(p, math.pi / 2, _norm)


def dist_sq_to_sine(p: FucikPoint) -> ClosedFormValue:
    """Squared L2 distance between the eigenfunction at p and sin(n x).

    Vanishes exactly on the diagonal.
    """
    def dist(q):
        # |f|^2 + |sine|^2 - 2 <f, sine> cancels to O(gap^2) next to the
        # diagonal, where round-off can leave about -1e-15; a squared
        # distance is never negative
        return max(_norm(q) + math.pi / 2 - 2 * _sine_product(q, q.n), 0.0)

    return _same_index(p, 0.0, dist)


def inner_same_index(p: FucikPoint) -> ClosedFormValue:
    """Scalar product of the eigenfunction at p with its comparator sin(n x)."""
    return _same_index(p, math.pi / 2, lambda q: _sine_product(q, q.n))


def inner_cross_index(p: FucikPoint, m: int) -> ClosedFormValue:
    """Scalar product of the eigenfunction at p with sin(m x), m != n.

    Structural zeros are returned exactly: odd n against even m, and even
    n against even m < n.  Everything else is assembled bump by bump.  An
    m outside [1, :data:`M_MAX`], or not an integer, raises InvalidArgument
    (IndexTooSmall below 1) instead of being truncated.
    """
    m = require_int(m, "comparator index", 1, M_MAX)
    if m == p.n:
        raise InvalidArgument("use inner_same_index for m == n")

    n = p.n
    if p.case == "diagonal":
        return ClosedFormValue(0.0, "diagonal")
    if m % 2 == 0 and (n % 2 == 1 or m < n):
        return ClosedFormValue(0.0, _case(p))
    return ClosedFormValue(_sine_product(p, m), _case(p))


def norms_sq(t: BumpTable) -> np.ndarray:
    """Squared norms of the table's eigenfunctions as bump sums."""
    n = t.n
    return ((n + 1) // 2 * t.a_pos ** 2 * np.pi / t.sa
            + n // 2 * t.a_neg ** 2 * np.pi / t.sb) / 2


def _progression_sums(count: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Elementwise :func:`_progression_sum`; every c must be >= 0."""
    # math.remainder(c, 2 pi) for c >= 0: fmod is exact, and so is the
    # shift of a value in (pi, 2 pi) by 2 pi (Sterbenz)
    c = np.fmod(c, 2 * np.pi)
    c = np.where(c > np.pi, c - 2 * np.pi, c)
    flat = c == 0.0
    half = np.where(flat, 1.0, c / 2)
    ratio = np.sin(count * half) * np.sin((count - 1) * half + d) / np.sin(half)
    return np.where(flat, count * np.sin(d), ratio)


def _bump_factors(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise :func:`_bump_factor`."""
    return np.pi * np.sinc((w - m) / (2 * w)) / (w + m)


def sine_products(t: BumpTable, ms: Sequence[int]) -> np.ndarray:
    """<f_r, sin(m x)> for every table row r and every m >= 1 in ``ms``.

    The (rows x len(ms)) grid of the values :func:`inner_cross_index`
    gives for an eigenfunction off the diagonal, structural zeros (even m
    against odd n, or even m < n) set to exactly 0.0.  A (rows, 1) column
    ``ms`` gives each row its own comparator instead: ``t.n[:, None]``
    gives the values of :func:`inner_same_index`.
    """
    m = np.atleast_2d(np.asarray(ms, dtype=np.int64))
    n = t.n[:, None]
    l1, l2 = t.l1[:, None], t.l2[:, None]
    c = m * t.l[:, None]
    pos = _progression_sums((n + 1) // 2, c, m * l1 / 2)
    neg = _progression_sums(n // 2, c, m * (l1 + l2 / 2))
    value = (t.a_pos[:, None] * _bump_factors(t.sa[:, None], m) * pos
             - t.a_neg[:, None] * _bump_factors(t.sb[:, None], m) * neg)
    zero = (m % 2 == 0) & ((n % 2 == 1) | (m < n))
    return np.where(zero, 0.0, value)


def pair_products(t: BumpTable, i: Sequence[int], j: Sequence[int]) -> np.ndarray:
    """<f_i[k], f_j[k]> for each k, integrated exactly over merged junctions.

    Between merged junction points both factors are single sinusoids
    a sin(w (x - x0)) and b sin(v (x - y0)), so the product is
    (ab/2) [cos((w - v) x + ...) - cos((w + v) x + ...)], and each cosine
    integrates over a piece of length h around its midpoint to
    cos(phase at the midpoint) 2 sin(kappa h / 2) / kappa for its
    frequency kappa, or h where kappa = w - v is exactly 0 (two factors
    with a common frequency); a junction point the two factors share
    gives a piece with h = 0, which contributes exactly 0.  The sinusoid
    of each factor on a piece comes from
    :func:`fucik.eigenfunction.local_waves` at the piece's midpoint.

    Only real pieces are integrated.  A pair's merged row is the junctions
    of f_i below pi, those of f_j after 0, and pi; the pairs run widest
    first, in chunks of a fixed element count per array sized from the
    widest pair of the chunk, so peak memory does not grow with the
    truncation order, and each chunk's sorted rows are cut after the
    width of that pair.  Every pair is summed over its own pieces alone,
    so its value, and a Gram entry, does not depend on the pairs it is
    computed with.
    """
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    out = np.empty(i.size)
    below = np.count_nonzero(t.junctions < np.pi, axis=1)
    pieces = below[i] + below[j] - 1
    order = np.argsort(-pieces, kind="stable")
    lo = 0
    while lo < order.size:
        # every row keeps at least one zero-length piece (pi to pi) past
        # its own, so every bound handed to reduceat lies inside the chunk
        width = pieces[order[lo]] + 1
        k = order[lo:lo + max(1, _PAIR_CHUNK // width)]
        lo += k.size
        ii, jj = i[k], j[k]
        x = np.sort(np.concatenate((t.junctions[ii, :below[ii].max() + 1],
                                    t.junctions[jj, 1:below[jj].max() + 1]), axis=1),
                    axis=1)[:, :width + 1]
        g = np.diff(x, axis=1) / 2
        mid = x[:, :-1] + g
        a, w, s = local_waves(*t.bumps[:, ii, None], mid)
        b, v, u = local_waves(*t.bumps[:, jj, None], mid)
        kappa = w - v
        minus = np.divide(np.sin(kappa * g), kappa, out=g.copy(), where=kappa != 0)
        plus = np.sin((w + v) * g) / (w + v)
        terms = a * b * (np.cos(w * s - v * u) * minus - np.cos(w * s + v * u) * plus)
        # reduceat sums each row's own pieces at the even bounds; the odd
        # bounds sum its trailing zero-length pieces and are dropped
        start = np.arange(0, terms.size, width)
        bounds = np.stack((start, start + pieces[k]), axis=1).ravel()
        out[k] = np.add.reduceat(terms.ravel(), bounds)[::2]
    return out
