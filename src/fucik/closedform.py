"""Exact norms, distances and scalar products of the eigenfunctions.

Every quantity here is an integral of a product of piecewise sinusoids,
and all of them are assembled bump by bump from one exact kernel.  A bump
a sin(w (x - x0)) of length pi/w with midpoint c contributes

    <bump, sin(m x)> = a pi sin(m c) sinc(pi (w - m) / (2 w)) / (w + m)

to the scalar product with sin(m x); the denominator never vanishes, so
the resonances m^2 = alpha or beta and the diagonal need no special case.
The positive and the negative bump train share the step c = m l, so both
sums collapse through the closed progression identity with one reduction
of c per pair, in the scalar and the array form alike.  The squared norm
is the bump sum k+ a+^2 l1 / 2 + k- a-^2 l2 / 2 and the squared distance
to sin(n x) follows by polarization.  Products
of two eigenfunctions (:func:`pair_products`) are integrated exactly on
each piece between their merged junction points, in the sine form
2 sin(kappa h / 2) / kappa of a cosine of frequency kappa over a piece of
length h, and only over real pieces:
the pairs run widest first, and each chunk's merged rows end after the
pieces of its widest pair.  Where the junctions
fall and which bump holds a point is not decided here: both come from the
layout rules of :mod:`fucik.eigenfunction`.

Every kernel takes one path through its removable singularities.  Where
the frequency kappa of sin(kappa h) / kappa, the half step t of the
progression quotient sin(count t) sin((count - 1) t + d) / sin(t), or the
u of sin(u) / u is exactly 0, the zero is replaced by one stand-in,
:data:`_TINY` = 2^-600, at which each quotient equals its limit bit for
bit.  Below 2^-26 the cubic term of sin(x) lies below half an ulp of x,
so ``math.sin`` and numpy's float64 ``sin`` both return x itself, and
scaling by a power of two is exact while the result stays normal (every
length here is 0 or far above 2^-400); (count - 1) 2^-600 is lost when
added to an offset d above 2^-500, and every offset here is.  So
sin(2^-600 h) / 2^-600 is h, the progression quotient is count sin(d),
and sin(u) / u is 1, with no second branch.

Every even eigenfunction is a dilate f_2a(x) = F(a x) of a pi-periodic
two-arc profile F, whatever its curve point, and the product of
two of them is a sum of progressions too (:func:`dilation_products`):
summing the profile of one factor over the a shifts r pi / a, and over
the b periods of the other factor, leaves a fixed number of
Dirichlet-kernel sums per pair, where merging junctions takes
2a + 2b + 1 pieces.

:func:`gram_block` routes every pair of a table's rows by one rule: a
pair takes the profile kernel :func:`dilation_products` when both of its
rows are even and periodic as built (their n / 2 bump pairs end within
:data:`_PERIOD_SLACK` = 1e-14 of pi), and :func:`pair_products` takes
every other pair, those with an odd row or a row off its curve by more
than that.  Both kernels stay callable on their own, each the other's
reference in the tests.

The single-point functions (:func:`norm_sq`, :func:`dist_sq_to_sine`,
:func:`inner_same_index`, :func:`inner_cross_index`) use scalar ``math``
on the square roots the point stores.
Gram assembly uses the array forms instead: they read the columns of a
:class:`~fucik.eigenfunction.BumpTable`, which stacks the per-function
data of a whole system once, and :func:`norms_sq`, :func:`sine_products`
and the two pair kernels behind :func:`gram_block` compute each kind of
entry in one numpy pass.  The scalar and
the array primitives both stay: a numpy primitive on Python floats costs
16 to 25 times a ``math`` one, and a point routed through a one-row table
took 20 to 30 times as long.  One branch-free body shared through an
``xp`` namespace (``math`` or numpy) would save 9 lines, but it made
:func:`inner_cross_index` 16 to 29 percent slower per call (2.26-2.53 ->
2.86-3.25 us, best of 200 x 5000 calls, on a 2-vCPU VM), so the twins
stay.  Both carry out the same operations in the
same order, and numpy's float64 ``sin`` matches the C library's, so a
single point gets the bits of its table row.

The paper's per-case formulas and the adaptive quadrature are independent
routes to the same numbers; they serve as oracles in the tests and in
``fucik verify`` and are not used here.

All single-point results are wrapped in :class:`ClosedFormValue`, which
records the dominance case of the point as the provenance of each figure.
It is a ``typing.NamedTuple`` of the value and that tag: immutable, with
the repr of a dataclass of those fields, and built in about 0.27 us
against 0.38 us for a frozen slots dataclass, whose generated
``__init__`` sets each field through ``object.__setattr__`` (2-vCPU VM).
The single-point path pays only for its arithmetic in two more ways.  A
structural zero of :func:`inner_cross_index` is one value shared by
every point of its (case, parity), from the same lookup that gives the
tag of a product.  And the three same-index values, the squared norm,
the squared distance to sin(n x) and <f, sin(n x)>, are computed
together once per point object: a one-entry cache keeps them for the
last point asked, compared by identity.  It serves one query pattern,
several same-index reads of one point, as in ``fucik distance``
(:func:`norm_sq`, :func:`dist_sq_to_sine`, :func:`inner_same_index` and
:func:`fucik.nearness.kato_weakened_term`, which shares the norm and the
distance); the table forms never reach it.  Neither a cache keyed by
the point's value (hashing the point costs what it saves) nor more
derived fields on the point paid for themselves.
"""

from __future__ import annotations

import math
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .eigenfunction import BumpTable, amplitudes, local_waves
from .errors import InvalidArgument, require_int
from .spectrum import FucikPoint

#: largest comparator index accepted by inner_cross_index
M_MAX = 10 ** 4

#: elements per array in one chunk of pair_products; bounds peak memory
_PAIR_CHUNK = 8192

#: the stand-in for a zero angle or frequency (see the module docstring)
_TINY = 2.0 ** -600

FormulaCase = Literal["even_alpha", "odd_alpha", "even_beta", "odd_beta", "diagonal"]


class ClosedFormValue(NamedTuple):
    """A number plus the dominance case of its point (or ``diagonal``)."""

    value: float
    formula_case: FormulaCase


#: the structural zero of :func:`inner_cross_index`, one shared value per
#: (case, parity) of a point, such as ("beta_dominant", "odd"): its
#: ``formula_case``, such as "odd_beta", is the tag of every value there
_ZEROS = {(case, parity): ClosedFormValue(0.0, case if case == "diagonal"
                                          else f"{parity}_{case.split('_')[0]}")
          for case in ("alpha_dominant", "beta_dominant", "diagonal") for parity in ("even", "odd")}


def _progression_pair(n: int, c: float, d_pos: float, d_neg: float) -> tuple[float, float]:
    """Positive and negative bump-train sums sum_{k<count} sin(k c + d), c >= 0.

    (n + 1) // 2 terms from d_pos and n // 2 from d_neg, n >= 2.  Reducing c
    into (-pi, pi] once keeps both quotients well conditioned next to a
    multiple of 2 pi: numerator and denominator are then sines of small
    arguments, each accurate to a relative round-off.  fmod is exact, and
    so is the shift by 2 pi (Sterbenz); unlike ``math.remainder``, it keeps
    a tie at pi where the array form does.  A c of 0 takes its limit
    count sin(d) at the stand-in :data:`_TINY` (module docstring).
    """
    c = math.fmod(c, 2 * math.pi)
    if c > math.pi:
        c -= 2 * math.pi
    pos, neg = (n + 1) // 2, n // 2
    half = c / 2 if c else _TINY
    s = math.sin(half)
    return (math.sin(pos * half) * math.sin((pos - 1) * half + d_pos) / s,
            math.sin(neg * half) * math.sin((neg - 1) * half + d_neg) / s)


def _bump_factor(w: float, m: int) -> float:
    """pi sinc(pi (w - m) / (2 w)) / (w + m), the per-bump weight."""
    # u = pi x, x = (w - m) / (2 w), grouped as in :func:`_bump_factors`,
    # so the table route rounds u alike; a zero u takes the stand-in
    u = math.pi * ((w - m) / (2 * w)) or _TINY
    return math.pi * (math.sin(u) / u) / (w + m)


def _sine_product(p: FucikPoint, m: int) -> float:
    """<f, sin(m x)> summed over the positive and the negative bumps."""
    a_pos, a_neg = amplitudes(p)
    sa, sb = p.sqrt_alpha, p.sqrt_beta
    l1, l2 = math.pi / sa, math.pi / sb
    pos, neg = _progression_pair(p.n, m * (l1 + l2), m * l1 / 2, m * (l1 + l2 / 2))
    return a_pos * _bump_factor(sa, m) * pos - a_neg * _bump_factor(sb, m) * neg


def _norm(p: FucikPoint) -> float:
    a_pos, a_neg = amplitudes(p)
    return ((p.n + 1) // 2 * a_pos ** 2 * math.pi / p.sqrt_alpha
            + p.n // 2 * a_neg ** 2 * math.pi / p.sqrt_beta) / 2


def _dist(norm: float, inner: float) -> float:
    """Squared distance to sin(n x) off the diagonal, given the squared norm
    and the scalar product with sin(n x)."""
    # |f|^2 + |sine|^2 - 2 <f, sine> cancels to O(gap^2) next to the
    # diagonal, where round-off can leave about -1e-15; a squared
    # distance is never negative
    return max(norm + math.pi / 2 - 2 * inner, 0.0)


#: the last point object given to :func:`_same_index_values`, and its values
_last_same_index: tuple = (None, ())


def _same_index_values(p: FucikPoint) -> tuple[float, float, float]:
    """(squared norm, squared distance to sin(n x), <f, sin(n x)>) at a
    point off the diagonal, computed once per point object.

    The one entry holds the last point object asked, compared by
    identity, and is replaced as one tuple: a thread reads a point with
    its own values, and two racing threads at most compute one twice.
    """
    global _last_same_index
    last, values = _last_same_index
    if last is not p:
        norm, inner = _norm(p), _sine_product(p, p.n)
        values = (norm, _dist(norm, inner), inner)
        _last_same_index = (p, values)
    return values


def _same_index(p: FucikPoint, diagonal_value: float, k: int) -> ClosedFormValue:
    """diagonal_value on the diagonal, else entry k of :func:`_same_index_values`."""
    if p.case == "diagonal":
        return ClosedFormValue(diagonal_value, "diagonal")
    return ClosedFormValue(_same_index_values(p)[k], _ZEROS[p.case, p.parity].formula_case)


def norm_sq(p: FucikPoint) -> ClosedFormValue:
    """Squared L2 norm of the normalized eigenfunction at p.

    Always in (0, pi/2]; equals pi/2 exactly on the diagonal and for n = 1.
    """
    return _same_index(p, math.pi / 2, 0)


def dist_sq_to_sine(p: FucikPoint) -> ClosedFormValue:
    """Squared L2 distance between the eigenfunction at p and sin(n x).

    Vanishes exactly on the diagonal.
    """
    return _same_index(p, 0.0, 1)


def inner_same_index(p: FucikPoint) -> ClosedFormValue:
    """Scalar product of the eigenfunction at p with its comparator sin(n x)."""
    return _same_index(p, math.pi / 2, 2)


def inner_cross_index(p: FucikPoint, m: int) -> ClosedFormValue:
    """Scalar product of the eigenfunction at p with sin(m x), m != n.

    Structural zeros are returned exactly: odd n against even m, and even
    n against even m < n.  Everything else is assembled bump by bump.  An
    m outside [1, :data:`M_MAX`], or not an integer, raises InvalidArgument
    (IndexTooSmall below 1) instead of being truncated.
    """
    m = require_int(m, "comparator index", 1, M_MAX)
    n = p.n
    if m == n:
        raise InvalidArgument("use inner_same_index for m == n")
    zero = _ZEROS[p.case, p.parity]
    if p.case == "diagonal" or m % 2 == 0 and (n % 2 == 1 or m < n):
        return zero
    return ClosedFormValue(_sine_product(p, m), zero.formula_case)


def norms_sq(t: BumpTable) -> np.ndarray:
    """Squared norms of the table's eigenfunctions as bump sums."""
    n = t.n
    return ((n + 1) // 2 * t.a_pos ** 2 * np.pi / t.sa
            + n // 2 * t.a_neg ** 2 * np.pi / t.sb) / 2


def _progression_pairs(n: np.ndarray, c: np.ndarray, d_pos: np.ndarray, d_neg: np.ndarray):
    """Elementwise :func:`_progression_pair`, the positive and the negative
    sums stacked on a leading axis; a row with n = 1 gets a zero negative
    sum."""
    c = np.fmod(c, 2 * np.pi)
    c = np.where(c > np.pi, c - 2 * np.pi, c)
    half = np.where(c == 0, _TINY, c / 2)
    # both trains in one pass: counts and offsets stacked on a leading axis
    count, d = np.array(((n + 1) // 2, n // 2)), np.array((d_pos, d_neg))
    return np.sin(count * half) * np.sin((count - 1) * half + d) / np.sin(half)


def _beat(kappa: np.ndarray, half) -> np.ndarray:
    """sin(kappa half) / kappa elementwise, half where kappa is 0.

    The integral of cos(kappa x) over a piece of half-length ``half``
    around its midpoint is twice this.  A zero kappa takes the stand-in
    :data:`_TINY` (module docstring).
    """
    kappa = np.where(kappa == 0, _TINY, kappa)
    return np.sin(kappa * half) / kappa


def _bump_factors(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise :func:`_bump_factor`."""
    # np.sinc inlined without its Python wrapper, in its grouping u = pi x
    # with x = (w - m) / (2 w)
    u = np.pi * ((w - m) / (2 * w))
    return np.pi * _beat(u, 1.0) / (w + m)


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
    pos, neg = _progression_pairs(n, m * t.l[:, None], m * l1 / 2, m * (l1 + l2 / 2))
    f_pos, f_neg = _bump_factors(t.bumps[2:4, :, None], m)
    value = t.a_pos[:, None] * f_pos * pos - t.a_neg[:, None] * f_neg * neg
    zero = (m % 2 == 0) & ((n % 2 == 1) | (m < n))
    return np.where(zero, 0.0, value)


def pair_products(t: BumpTable, i: Sequence[int], j: Sequence[int]) -> np.ndarray:
    """<f_i[k], f_j[k]> for each k, integrated exactly over merged junctions.

    It takes any pair of rows; :func:`gram_block` sends it those the
    profile kernel does not take (module docstring).

    Between merged junction points both factors are single sinusoids
    a sin(w (x - x0)) and b sin(v (x - y0)), so the product is
    (ab/2) [cos((w - v) x + ...) - cos((w + v) x + ...)], and each cosine
    integrates over a piece of length h around its midpoint to
    cos(phase at the midpoint) 2 sin(kappa h / 2) / kappa for its
    frequency kappa (:func:`_beat`), which is h where kappa = w - v is
    exactly 0 (two factors with a common frequency); a junction point the
    two factors share gives a piece with h = 0, which contributes exactly
    0.  The sinusoid
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
        terms = a * b * (np.cos(w * s - v * u) * _beat(w - v, g)
                         - np.cos(w * s + v * u) * _beat(w + v, g))
        # reduceat sums each row's own pieces at the even bounds; the odd
        # bounds sum its trailing zero-length pieces and are dropped
        start = np.arange(0, terms.size, width)
        bounds = np.stack((start, start + pieces[k]), axis=1).ravel()
        out[k] = np.add.reduceat(terms.ravel(), bounds)[::2]
    return out


def _dirichlet_sums(k0: np.ndarray, count: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_{k=k0}^{k0+count-1} exp(i k c) elementwise, for 0 < c and
    (count - 1) c <= pi.

    The closed form exp(i (k0 + (count - 1)/2) c) sin(count c/2) / sin(c/2)
    is then well conditioned without reducing c mod 2 pi: every sum
    spans at most half a turn, and a c next to a nonzero multiple of 2 pi
    comes with at most one term, where the quotient is exactly 0 or 1.
    """
    half = c / 2
    return np.sin(count * half) / np.sin(half) * np.exp(1j * (k0 + (count - 1) / 2) * c)


#: the arc of the a factor's profile (0 positive, 1 negative) whose
#: frequency and amplitude each of the six period runs of
#: :func:`dilation_products` carries
_RUN_ARC = np.array([0, 0, 1, 1, 0, 1])

#: a row whose profile agrees with that of the first row within this many
#: units in the last place shares the profile of the first row
_PROFILE_ULP = 8

#: an even row whose n / 2 bump pairs end within this of pi is a dilate of
#: its pi-periodic profile.  The profile kernel misses the product of a row
#: as built by about 0.7 times its shortfall, so this keeps that gap below
#: 1e-14; rows on their curve fall short by at most about 1e-15
_PERIOD_SLACK = 1e-14


def _profiles(t: BumpTable):
    """The pi-periodic profile G(y) = f(2 y / n) of every row of ``t``.

    Returns the arc frequencies w = (sa, sb) / (n / 2) as a (2, rows)
    array, the complex amplitudes (2, rows) with G(y) = Im(amp exp(i w y))
    on each arc, and the profile row of each row: 0 where its frequencies
    and bump amplitudes all agree with those of row 0 within
    :data:`_PROFILE_ULP` ulp, as on a dilation line, and its own index
    otherwise.
    """
    w = t.bumps[2:4] / (t.n / 2)
    amp = np.array([t.a_pos, -t.a_neg * np.exp(-1j * (w[1] * np.pi / w[0]))])
    key = np.vstack((w, t.bumps[:2]))
    first = (np.abs(key - key[:, :1]) <= _PROFILE_ULP * np.spacing(key)).all(axis=0)
    return w, amp, np.where(first, 0, np.arange(t.n.size))


def dilation_products(t: BumpTable, i: Sequence[int], j: Sequence[int]) -> np.ndarray:
    """<f_i[k], f_j[k]> for each k, two even rows of the table, in closed form.

    An even eigenfunction is a dilate f(x) = G(n x / 2) of a pi-periodic
    two-arc profile G, as long as its n / 2 bump pairs span [0, pi]:

        G(y) =  A sin(w1 y)          on [0, L1),
        G(y) = -B sin(w2 (y - L1))   on [L1, pi),

    with w = (w1, w2) = (sqrt(alpha), sqrt(beta)) / (n / 2), L1 = pi / w1,
    and A, B the bump amplitudes of the row, from the one amplitude rule
    :func:`fucik.eigenfunction.amplitudes`.  Both rows of a pair must be
    even and span [0, pi] within :data:`_PERIOD_SLACK`; :func:`gram_block`
    sends every other pair to :func:`pair_products`.  A row whose profile
    agrees with that of the first row within :data:`_PROFILE_ULP` ulp
    takes the profile of the first row, as every row of a dilation line
    does (:func:`_profiles`); every other row keeps its own.

    Write F for the profile of row i and G for that of row j, a = n_i / 2
    and b = n_j / 2.  Both F(a x) and G(b x) have period pi / d, d =
    gcd(a, b), so a pair has the product of (a/d, b/d) with the same two
    profiles (substitute y = d x), and each distinct (profile of i,
    profile of j, a/d, b/d) is evaluated once.

    Substituting y = a x splits (0, a pi) into a periods of F.  For
    coprime a and b the map k -> b k mod a permutes them, so with

        H(z) = sum_{r < a} G(z + r pi / a)

    the product is (1/a) int_0^pi F(y) H(b y / a) dy, that is
    (1/a) [A int_0^L1 sin(w1 y) H(b y / a) dy
    - B int_0^(pi - L1) sin(w2 y) H(b (y + L1) / a) dy], with A, B, w1,
    w2 and L1 those of F.

    H has period pi / a, and is built from G alone.  Let rho = a L1(G) /
    pi, q = floor(rho) and phi = rho - q.  On [0, pi / a) the first R terms
    of H lie on the positive arc of G, with R = q + 1 below z = phi pi / a
    (sub-interval 0) and R = q above it (sub-interval 1).  On each
    sub-interval

        H(z) = Im(C1 exp(i w1(G) z)) + Im(C2 exp(i w2(G) z)),
        C1 = A(G) sum_{r < R} exp(i r w1(G) pi / a),
        C2 = -B(G) exp(-i w2(G) L1(G)) sum_{R <= r < a} exp(i r w2(G) pi / a),

    two Dirichlet-kernel sums.  One period of H is pi / b in y.  From one
    period k to the next, the product of an arc of F with H on one
    sub-interval keeps its shape and shifts its phase by w_arc(F) pi / b,
    so each run of whole sub-intervals on one arc of F is one more
    Dirichlet sum over k.  Only the sub-interval where the arcs of F meet,
    at s = b L1(F) / pi periods, is split, and its two parts are integrated
    directly.  Four runs and two split parts, two sinusoids of H, and the
    difference and sum frequency of each product give 24 terms per pair.
    Each term carries the integral over its piece (length h, midpoint m)
    of exp(i nu t), exp(i nu m) 2 sin(nu h / 2) / nu with nu = w_arc(F) -+
    w_c(G) b / a (:func:`_beat`), which is h where nu = 0: the one
    resonance.  The terms of every Dirichlet sum lie on one arc of one
    profile, along which the phase advances by pi, so no sum spans more
    than half a turn and none needs its angle reduced mod 2 pi
    (:func:`_dirichlet_sums`).

    The work per pair is fixed, whatever a and b; merging the junctions
    of the two rows (:func:`pair_products`) takes 2a + 2b + 1 pieces.  The
    terms of a pair are added in a fixed order and nothing is summed
    across pairs, so a value does not depend on the pairs computed with
    it.
    """
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    w, amp, profile = _profiles(t)
    a, b = t.n[i] // 2, t.n[j] // 2
    d = np.gcd(a, b)
    a, b = a // d, b // d
    base = int(t.n.max()) // 2 + 1
    key = ((profile[i] * t.n.size + profile[j]) * base + a) * base + b
    _, pick, inverse = np.unique(key, return_index=True, return_inverse=True)
    a, b = a[pick].astype(float), b[pick].astype(float)
    # the profile arcs behind the ten Dirichlet sums: both arcs of G for C1
    # and C2 on each sub-interval of H, then the arcs of F along the runs
    g, f = profile[j[pick]], profile[i[pick]]
    wg, ag = w.take(g, axis=1), amp.take(g, axis=1)
    wr = np.concatenate((wg, wg, w.take(f, axis=1)[_RUN_ARC]))
    rho = a / wr[0]
    q = np.floor(rho)
    phi = rho - q
    s = b / wr[4]
    k = np.floor(s)
    frac = s - k
    # the split sub-interval of period k: 1 if the arcs meet above phi
    split = frac >= phi
    ks = k + split
    zero = np.zeros_like(phi)
    one = zero + 1
    # rows 0-3: C1 and C2 on sub-interval 0, then on 1, summed over r;
    # rows 4-9: the six pieces summed over the period k, namely the
    # positive arc on sub-intervals 0 and 1, the negative arc on 0 and 1,
    # and the positive and the negative part of the split sub-interval
    first = np.array((zero, q + 1, zero, q, zero, zero, k + 1, ks, k, k))
    count = np.array((q + 1, a - q - 1, q, a - q, ks, k, b - k - 1, b - ks, one, one))
    angle = np.concatenate((np.pi / a * wr[:4], np.pi / b * wr[4:]))
    sums = _dirichlet_sums(first, count, angle) * np.concatenate(
        (ag, ag, amp.take(f, axis=1)[_RUN_ARC]))
    coef = sums[:4].reshape(2, 2, -1)
    # each piece as an offset range [t0, t1) within its period, in units
    # of pi / b
    t0 = np.array((zero, phi, zero, phi, split * phi, frac))
    t1 = np.array((phi, one, phi, one, frac, np.where(split, 1.0, phi)))
    h = (t1 - t0) * (np.pi / b)
    mid = (t0 + t1) / 2 * (np.pi / b)
    nu = (wr[:2] * (b / a))[:, None]
    wa = wr[4:]
    sub = np.array((zero, one, zero, one, split, split)) != 0
    # C exp(i nu m): each sinusoid of H at the midpoint m of each piece
    u = np.where(sub, coef[1][:, None], coef[0][:, None]) * np.exp(1j * nu * mid)
    span = 2 * _beat(np.array((wa - nu, wa + nu)), h / 2)
    # Im(X) Im(Y) = Re(X conj(Y) - X Y) / 2, summed over H's sinusoids.
    # A complex product rounds differently with its operands swapped, and
    # numpy swaps them to reuse a large temporary on the right, so every
    # complex-by-complex product here starts with a temporary
    y = np.conj(u) * span[0] - u * span[1]
    terms = (np.exp(1j * wa * mid) * (y[0] + y[1]) * sums[4:]).real
    out = terms[0]
    for piece in terms[1:]:
        out = out + piece
    return (out / (2 * a))[inverse]


def gram_block(t: BumpTable) -> np.ndarray:
    """The symmetric matrix <f_r, f_q> over the rows r, q of ``t``.

    :func:`norms_sq` on the diagonal; each pair above it goes to
    :func:`dilation_products` or :func:`pair_products` by the rule of the
    module docstring, and its value is mirrored below.  A kernel is called
    only for a nonempty set of pairs.
    """
    r, q = np.triu_indices(t.n.size, 1)
    periodic = (t.n % 2 == 0) & (np.abs(t.n // 2 * t.l - np.pi) <= _PERIOD_SLACK)
    profiled = periodic[r] & periodic[q]
    upper = np.empty(r.size)
    for pairs, kernel in ((profiled, dilation_products), (~profiled, pair_products)):
        if pairs.any():
            upper[pairs] = kernel(t, r[pairs], q[pairs])
    out = np.diag(norms_sq(t))
    out[r, q] = out[q, r] = upper
    return out
