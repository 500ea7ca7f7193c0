"""Truncated Gram matrices of eigenfunction systems and their spectra.

A Riesz basis is characterized by two-sided bounds c sum |a_n|^2 <=
||sum a_n psi_n||^2 <= C sum |a_n|^2; for the leading N functions those
quadratic forms are exactly the extreme eigenvalues of the (2/pi)-scaled
Gram matrix of pairwise inner products.  This module assembles that
truncation exactly from the bump algebra of :mod:`fucik.closedform` and
takes its spectrum from LAPACK (``numpy.linalg.eigvalsh``).

Every even eigenfunction is a dilate f_2a(x) = F(a x) of a pi-periodic
two-arc profile F, so a system's even eigenfunctions form a dilation
system of several profiles (one profile on a dilation line: the
dilation systems of Hedenmalm, Lindqvist and Seip, Duke Math. J. 86,
1997).  Assembly routes each pair by its two rows alone, never by the
type of the system: a pair of even rows, both periodic as built, takes
the closed form of its profiles and its reduced pair (a/d, b/d), d =
gcd(a, b) (:func:`~fucik.closedform.dilation_products`), so on a dilation
line the even-even block is multiplicative-Toeplitz, G(2a, 2b) =
G(2a/d, 2b/d), by construction; every other pair merges the junctions of
its two rows (:func:`~fucik.closedform.pair_products`).

The scans are diagnostics, not certificates: truncated spectra cannot
certify an infinite-system Riesz bound, so no verdicts are emitted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from . import closedform
from .eigenfunction import bump_table
from .errors import InvalidArgument, require_int
from .nearness import SystemSpec, _require_system
from .spectrum import FucikPoint

MAX_ORDER = 512

#: an even row whose n / 2 bump pairs end within this of pi is a dilate of
#: its pi-periodic profile.  The profile kernel misses the product of a row
#: as built by about 0.7 times its shortfall, so this keeps that gap below
#: 1e-14; rows on their curve fall short by at most about 1e-15
_PERIOD_SLACK = 1e-14


@dataclass(frozen=True)
class GramTruncation:
    """N x N symmetric matrix of inner products <psi_i, psi_j>.

    ``entries`` holds the raw (unscaled) inner products and is read-only;
    ``normalization`` is the factor applied before diagonalization so that
    the all-diagonal system yields the identity.
    """

    entries: np.ndarray
    normalization: ClassVar[float] = 2.0 / math.pi


def _eigenfunction_points(system: SystemSpec, N: int) -> dict[int, FucikPoint]:
    """index -> point of every index n <= N whose point is off the diagonal.

    Only the indices the system lists as candidates are built; every
    other one is sin(n x) by the system's construction.
    """
    return {n: p for n in system._candidate_indices(N)
            if (p := system.point(n)).case != "diagonal"}


def build_gram(system: SystemSpec, N: int, max_workers: Optional[int] = None) -> GramTruncation:
    """Assemble the order-N Gram truncation of a system specification.

    Sine-sine entries are exact (pi/2 on the diagonal, 0 off it).  The
    other entries come from the exact bump algebra of
    :mod:`fucik.closedform`, one array pass per kind of entry over the
    eigenfunctions of the system, stacked once by
    :func:`~fucik.eigenfunction.bump_table`: their squared norms
    (:func:`~fucik.closedform.norms_sq`), their products with the sines
    of the system (:func:`~fucik.closedform.sine_products`), and their
    pairwise products.  A pair whose two rows are even, and whose n / 2
    bump pairs each span [0, pi] within :data:`_PERIOD_SLACK`, is a
    product of dilates F(a x) G(b x) of two pi-periodic profiles:
    :func:`~fucik.closedform.dilation_products` evaluates each distinct
    (profiles, a/d, b/d) once, d = gcd(a, b), a fixed number of
    progression sums per pair instead of the 2a + 2b + 1 pieces of its
    merged junctions.  So a system whose odd entries are all diagonal,
    a dilation line or any Theorem-2 system, is assembled in O(N^2).
    Every other pair, with an odd row or a row off its curve by more
    than that slack, goes to :func:`~fucik.closedform.pair_products`.

    Only the points that may be off the diagonal are built
    (:func:`_eigenfunction_points`): the even ones of a dilation line,
    those of a power family's parity classes with a rule, the entries of
    a finite perturbation.  Every other index is sin(n x), and so is a
    built point in the diagonal band.
    An integral float N is taken as its int; an N outside [1, MAX_ORDER],
    or not an integer, raises InvalidArgument (IndexTooSmall below 1).
    ``max_workers`` is accepted for older callers and ignored.  Anything
    but a system specification raises TailNotBoundable.
    """
    N = require_int(N, "truncation order", 1, MAX_ORDER)
    _require_system(system)
    points = _eigenfunction_points(system, N)
    e = np.array(list(points), dtype=np.intp) - 1
    sine = np.ones(N, dtype=bool)
    sine[e] = False
    s = np.flatnonzero(sine)
    m = np.zeros((N, N))
    m[s, s] = math.pi / 2
    if e.size:
        table = bump_table(list(points.values()))
        m[e, e] = closedform.norms_sq(table)
        cross = closedform.sine_products(table, s + 1)
        m[np.ix_(e, s)] = cross
        m[np.ix_(s, e)] = cross.T
        r, c = np.triu_indices(e.size, 1)
        dilate = (table.n % 2 == 0) & (np.abs(table.n // 2 * table.l - np.pi) <= _PERIOD_SLACK)
        profiled = dilate[r] & dilate[c]
        upper = np.empty(r.size)
        for pairs, kernel in ((profiled, closedform.dilation_products),
                              (~profiled, closedform.pair_products)):
            if pairs.any():
                upper[pairs] = kernel(table, r[pairs], c[pairs])
        m[e[r], e[c]] = upper
        m[e[c], e[r]] = upper
    m.setflags(write=False)
    return GramTruncation(m)


def extreme_eigenvalues(g: GramTruncation) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of the normalized truncation."""
    scaled = g.normalization * g.entries
    asym = float(np.max(np.abs(scaled - scaled.T)))
    if not asym <= 1e-12:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds 1e-12")
    return _extremes(scaled)


def _extremes(scaled: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric matrix, unchecked."""
    eig = np.linalg.eigvalsh(scaled)
    return float(eig[0]), float(eig[-1])


def riesz_scan(system: SystemSpec, Ns: Sequence[int]) -> list[tuple[int, float, float]]:
    """Extreme normalized eigenvalues for a nested family of truncations.

    ``Ns`` must be a nonempty ascending list of integral orders in
    [1, MAX_ORDER], all checked before any work.  The largest Gram matrix
    is assembled once and the smaller truncations are its leading
    submatrices, so the interlacing monotonicity (lambda_min nonincreasing,
    lambda_max nondecreasing) is exact by construction.  Only the largest
    passes through :func:`extreme_eigenvalues`, whose symmetry check raises
    ValueError on an asymmetric or NaN matrix; a leading block of a
    matrix that passed is symmetric too, and goes straight to LAPACK.
    """
    sizes = [require_int(n, "truncation order", 1, MAX_ORDER) for n in Ns]
    if not sizes:
        raise InvalidArgument("riesz_scan needs at least one truncation order")
    if sizes != sorted(sizes):
        raise InvalidArgument("truncation orders must be ascending")
    full = build_gram(system, sizes[-1])
    top = extreme_eigenvalues(full)
    out = []
    for n in sizes:
        lo, hi = top if n == sizes[-1] else _extremes(full.normalization * full.entries[:n, :n])
        out.append((n, lo, hi))
    return out
