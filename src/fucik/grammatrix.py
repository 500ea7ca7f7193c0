"""Truncated Gram matrices of eigenfunction systems and their spectra.

A Riesz basis is characterized by two-sided bounds c sum |a_n|^2 <=
||sum a_n psi_n||^2 <= C sum |a_n|^2; for the leading N functions those
quadratic forms are exactly the extreme eigenvalues of the (2/pi)-scaled
Gram matrix of pairwise inner products.  This module assembles that
truncation exactly from the bump algebra of :mod:`fucik.closedform` and
takes its spectrum from LAPACK (``numpy.linalg.eigvalsh``).

Assembly writes three blocks and routes no pair itself: the sine block
(pi/2 on the diagonal, 0 off it), the block of the eigenfunctions'
products with one another (:func:`~fucik.closedform.gram_block`, which
picks the kernel of each pair), and their products with the sines
(:func:`~fucik.closedform.sine_products`).  On a dilation line the even
eigenfunctions are the dilates of one profile (a dilation system in the
sense of Hedenmalm, Lindqvist and Seip, Duke Math. J. 86, 1997), and the
profile kernel makes their block multiplicative-Toeplitz, G(2a, 2b) =
G(2a/d, 2b/d) for d = gcd(a, b), by construction.

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
    :mod:`fucik.closedform` over the eigenfunctions of the system, stacked
    once by :func:`~fucik.eigenfunction.bump_table`: one
    :func:`~fucik.closedform.gram_block` call gives their norms and
    pairwise products, each pair by its own kernel, and
    :func:`~fucik.closedform.sine_products` their products with the sines
    of the system.  A system whose odd entries are all diagonal, a
    dilation line or any Theorem-2 system, is assembled in O(N^2).

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
        m[np.ix_(e, e)] = closedform.gram_block(table)
        cross = closedform.sine_products(table, s + 1)
        m[np.ix_(e, s)] = cross
        m[np.ix_(s, e)] = cross.T
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
