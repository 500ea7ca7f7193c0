"""Construction and evaluation of normalized piecewise-sine eigenfunctions.

For a point (alpha, beta) on the n-th spectrum curve the normalized
eigenfunction is fixed by requiring sup |f| = 1 on [0, pi] and f'(0) > 0.
Writing l1 = pi/sqrt(alpha), l2 = pi/sqrt(beta), l = l1 + l2, it is, for
alpha >= n^2 >= beta,

    f(x) =  (sqrt(beta)/sqrt(alpha)) * sin(sqrt(alpha) (x - k l))   on [k l, k l + l1)
    f(x) = -sin(sqrt(beta) (x - k l - l1))                          on [k l + l1, (k+1) l)

and for beta > n^2 > alpha the amplitude factor moves to the negative
bumps instead:

    f(x) =  sin(sqrt(alpha) (x - k l))                              on [k l, k l + l1)
    f(x) = -(sqrt(alpha)/sqrt(beta)) * sin(sqrt(beta) (x - k l - l1)) otherwise,

with k = 0, 1, 2, ...  On the diagonal alpha = beta = n^2 both reduce to
sin(n x).  The functions live on [0, pi] only, and the evaluators refuse
points beyond it.

Evaluation is vectorized: ``evaluate`` accepts scalars or numpy arrays,
and :func:`evaluate_panels` evaluates a stacked table of many functions at
once, one bump per row of points: a quadrature panel, or a single point.
Only this module places the bumps, by two rules that broadcast over one
function or a stacked table of many: :func:`junctions` and :func:`local_waves`.
It also owns the stacked format itself: :func:`bump_table` builds the
:class:`BumpTable` of a list of points, whose ``bumps`` rows are the six
columns that :func:`local_waves` and the evaluators take.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, OutOfDomain, require_int, require_reals
from .spectrum import FucikPoint

#: slack beyond the right endpoint tolerated (callers' accumulated round-off)
_EDGE_SLACK = 1e-12

#: a junction point this close to pi, or beyond it, is taken as pi
JUNCTION_SLACK = 1e-12

#: the most bumps of a function whose junction row is built: the quadrature
#: oracle counts each piece of a row against its per-integral budget of
#: 2**20 subintervals, so a row of more bumps could never be integrated
MAX_BUMPS = 2 ** 20


@dataclass(frozen=True)
class SineMode:
    """The comparator sin(n x); its squared norm over (0, pi) is pi/2.

    ``n`` is checked by :func:`~fucik.errors.require_int` when the mode is
    built (a mode below 1 raises IndexTooSmall, any other non-integer or
    one above the float maximum InvalidArgument) and stored as an int.
    Points are clamped or refused as in :func:`evaluate`: NaN, an infinity
    or a point further than 1e-12 outside [0, pi] raises OutOfDomain.
    """

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", require_int(self.n, "mode index", 1))

    def __call__(self, x):
        return np.sin(self.n * _on_domain(x))


@dataclass(frozen=True)
class FucikEigenfunction:
    """Exact piecewise-sine representation of a normalized eigenfunction.

    ``l1`` = pi/sqrt(alpha) and ``l2`` = pi/sqrt(beta) are the lengths of
    one positive and one negative bump.
    """

    point: FucikPoint
    l1: float
    l2: float
    positive_amplitude: float
    negative_amplitude: float

    def __call__(self, x):
        return evaluate(self, x)


def amplitudes(p: FucikPoint) -> tuple[float, float]:
    """(positive, negative) bump amplitudes that normalize sup |f| to 1."""
    sa, sb = p.sqrt_alpha, p.sqrt_beta
    if p.case == "beta_dominant":
        return 1.0, sa / sb
    if p.case == "alpha_dominant":
        return sb / sa, 1.0
    return 1.0, 1.0


def build(p: FucikPoint) -> FucikEigenfunction:
    """Construct the normalized eigenfunction for a curve point."""
    amp_pos, amp_neg = amplitudes(p)
    return FucikEigenfunction(point=p, l1=math.pi / p.sqrt_alpha, l2=math.pi / p.sqrt_beta,
                              positive_amplitude=amp_pos, negative_amplitude=amp_neg)


def _require_integrable(n: int) -> None:
    """Refuse, before its junction row is allocated, a function of more than
    :data:`MAX_BUMPS` bumps."""
    if n > MAX_BUMPS:
        raise InvalidArgument(f"an eigenfunction of {n} bumps has more junctions than the "
                              f"quadrature oracle integrates: at most {MAX_BUMPS} bumps")


def junctions(l1, l, count: int) -> np.ndarray:
    """Rows [0, l1, l, l + l1, 2 l, ...] of ``count`` + 1 junction points.

    Column arrays ``l1``, ``l`` = l1 + l2 give one row per eigenfunction.  The
    row increases, so the first point within :data:`JUNCTION_SLACK` of pi
    and every later one become pi.
    """
    j = np.arange(count + 1)
    x = j // 2 * l + j % 2 * l1
    return np.where(x < np.pi - JUNCTION_SLACK, x, np.pi)


def local_waves(a_pos, a_neg, sa, sb, l1, l, x):
    """(amplitude, frequency, offset): f(x) = amplitude sin(frequency offset).

    The offset runs from the start of the bump that holds x; bump data
    broadcast as in :func:`junctions`.  x = pi stays in the last bump pair,
    ceil(pi / l) - 1 >= 0, instead of opening a fresh one.
    """
    _, t = _bump_pair(l1, l, x)
    pos = t < l1
    return np.where(pos, a_pos, -a_neg), np.where(pos, sa, sb), np.where(pos, t, t - l1)


@dataclass(frozen=True)
class BumpTable:
    """Per-function data of a list of eigenfunctions, stacked as arrays.

    Row r describes the eigenfunction at the r-th point: its index ``n``,
    the bump amplitudes ``a_pos`` and ``a_neg``, the frequencies ``sa`` =
    sqrt(alpha) and ``sb`` = sqrt(beta), the bump lengths ``l1`` and
    ``l2``, the period ``l`` = l1 + l2, and its ``junctions`` row, padded
    with pi to the common width max(n) + 3: the n + 2 junctions after 0
    reach pi, as in :func:`breakpoints`.  The junction rows are computed
    on first read and kept: only the merged-junction kernel and the
    quadrature oracle read them, so a Gram whose pairs all take the
    profile kernel never builds them.  ``bumps`` stacks the columns
    (a_pos, a_neg, sa, sb, l1, l) that :func:`local_waves` and
    :func:`evaluate_panels` take, in that order, so ``*t.bumps[:, rows]``
    gathers them for any rows in one index; the six named columns are its
    rows.  With a (k, 1) column ``rows`` and a (k, 1) x, every point is a
    one-node panel of its own function.
    """

    n: np.ndarray
    bumps: np.ndarray
    a_pos: np.ndarray
    a_neg: np.ndarray
    sa: np.ndarray
    sb: np.ndarray
    l1: np.ndarray
    l: np.ndarray
    l2: np.ndarray

    @cached_property
    def junctions(self) -> np.ndarray:
        return junctions(self.l1[:, None], self.l[:, None], int(self.n.max(initial=0)) + 2)


def bump_table(points: Sequence[FucikPoint]) -> BumpTable:
    """Stack the per-function data of the eigenfunctions at ``points``.

    A point of more than :data:`MAX_BUMPS` bumps raises InvalidArgument.
    """
    ns = [p.n for p in points]
    _require_integrable(max(ns, default=0))
    n = np.array(ns, dtype=np.int64)
    a_pos, a_neg, sa, sb = np.array([(*amplitudes(p), p.sqrt_alpha, p.sqrt_beta)
                                     for p in points]).reshape(-1, 4).T
    l1, l2 = np.pi / sa, np.pi / sb
    bumps = np.array([a_pos, a_neg, sa, sb, l1, l1 + l2])
    return BumpTable(n, bumps, *bumps, l2)


def _bump_pair(l1, l, x):
    """(k l, x - k l) for the bump pair [k l, (k + 1) l) that holds x."""
    kl = np.minimum(np.floor(x / l), np.ceil(np.pi / l) - 1) * l
    return kl, x - kl


def _on_domain(x) -> np.ndarray:
    """x as floats on [0, pi]: points within 1e-12 outside are clamped onto
    it; anything further, NaN and a lone int beyond float range raise
    OutOfDomain.  x is checked by :func:`~fucik.errors.require_reals`."""
    arr = require_reals(x, "evaluation point", OutOfDomain)
    if not np.all((arr >= -_EDGE_SLACK) & (arr <= math.pi + _EDGE_SLACK)):
        raise OutOfDomain("evaluation point outside [0, pi]")
    # the same values as np.clip once NaN is refused, at half its cost
    return np.minimum(np.maximum(arr, 0.0), math.pi)


def evaluate_panels(a_pos, a_neg, sa, sb, l1, l, x) -> np.ndarray:
    """Values at a 2-D x in [0, pi], each row of x one panel of one function.

    The bump data are columns, one entry per row of x, or scalars for one
    function.  Each row must lie between two consecutive junctions of its
    function, as the Gauss nodes of a quadrature panel do and a single
    point always does: its bump is looked up once, at its middle point, as
    :func:`local_waves` looks it up.  A row that crosses a junction gets
    wrong values.  Points are clamped or refused as in :func:`evaluate`.
    """
    x = _on_domain(x)
    kl, t = _bump_pair(l1, l, x[:, x.shape[1] // 2, None])
    pos = t < l1
    offset = (x - kl) - np.where(pos, 0.0, l1)
    return np.where(pos, a_pos, -a_neg) * np.sin(np.where(pos, sa, sb) * offset)


def evaluate(f: FucikEigenfunction, x):
    """Evaluate f at x in [0, pi] (scalar or array).

    Each point is a one-node panel of :func:`evaluate_panels`, so branch
    selection is exact: x is located inside its bump pair [k l, k l + l1)
    or [k l + l1, (k+1) l) as :func:`local_waves` locates it.  Points
    within 1e-12 outside the domain are clamped onto it; anything further,
    NaN and a lone int beyond float range raise OutOfDomain.  x may be an
    array, or a sequence, of bools, integers or floats, or a single real
    number (see :func:`~fucik.errors.require_reals`); strings, bytes,
    complex numbers and objects raise InvalidArgument.
    """
    x = require_reals(x, "evaluation point", OutOfDomain)
    out = evaluate_panels(f.positive_amplitude, f.negative_amplitude, f.point.sqrt_alpha,
                          f.point.sqrt_beta, f.l1, f.l1 + f.l2, x.reshape(-1, 1))
    if x.ndim == 0:
        return float(out[0, 0])
    return out.reshape(x.shape)


def breakpoints(f: FucikEigenfunction) -> np.ndarray:
    """Sorted junction points {0, l1, l, l+l1, 2l, ...} within [0, pi].

    These are the only points where f is not smooth; the quadrature oracle
    never integrates across them.  n + 2 candidates always reach pi, even
    when the curve defect leaves the last bump ending short of it.  A
    function of more than :data:`MAX_BUMPS` bumps, whose row the oracle
    could never integrate, raises InvalidArgument.
    """
    _require_integrable(f.point.n)
    row = junctions(f.l1, f.l1 + f.l2, f.point.n + 2)
    return row[:np.argmax(row == np.pi) + 1]
