"""Truncated Gram matrices of eigenfunction systems and their spectra.

A Riesz basis is characterized by two-sided bounds c sum |a_n|^2 <=
||sum a_n psi_n||^2 <= C sum |a_n|^2; for the leading N functions those
quadratic forms are exactly the extreme eigenvalues of the (2/pi)-scaled
Gram matrix of pairwise inner products.  This module assembles that
truncation exactly from the bump algebra of :mod:`fucik.closedform` and
takes its spectrum from LAPACK (``numpy.linalg.eigvalsh``).

On a dilation line the even eigenfunctions are dilates f_2a(x) = F(a x)
of one pi-periodic F (the dilation systems of Hedenmalm, Lindqvist and
Seip, Duke Math. J. 86, 1997), so the even-even block is
multiplicative-Toeplitz: G(2a, 2b) = G(2a/d, 2b/d) with d = gcd(a, b).
Assembly evaluates each reduced pair once, in closed form from F alone
(:func:`~fucik.closedform.dilation_products`), so the identity holds by
construction.

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
from .nearness import GammaLine, SystemSpec

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


def build_gram(system: SystemSpec, N: int, max_workers: Optional[int] = None) -> GramTruncation:
    """Assemble the order-N Gram truncation of a system specification.

    Sine-sine entries are exact (pi/2 on the diagonal, 0 off it).  The
    other entries come from the exact bump algebra of
    :mod:`fucik.closedform`, one array pass per kind of entry over the
    eigenfunctions of the system, stacked once by
    :func:`~fucik.eigenfunction.bump_table`: their squared norms
    (:func:`~fucik.closedform.norms_sq`), their products with the sines
    of the system (:func:`~fucik.closedform.sine_products`), and their
    pairwise products (:func:`~fucik.closedform.pair_products`).
    On a :class:`~fucik.nearness.GammaLine` every eigenfunction pair is
    even, f_2a(x) = F(a x) and f_2b(x) = F(b x) for one pi-periodic F, and
    its product depends only on the reduced pair (a/d, b/d), d = gcd(a, b).
    :func:`~fucik.closedform.dilation_products` evaluates each distinct
    reduced pair once, a fixed number of progression sums per pair
    instead of the 2a + 2b + 1 pieces of its merged junctions.  Even
    points that fall in the diagonal band next to gamma = 4 are sines and
    take no part in it.
    An integral float N is taken as its int; an N outside [1, MAX_ORDER],
    or not an integer, raises InvalidArgument (IndexTooSmall below 1).
    ``max_workers`` is accepted for older callers and ignored.
    """
    N = require_int(N, "truncation order", 1, MAX_ORDER)
    points = [system.point(i) for i in range(1, N + 1)]
    sine = np.array([p.case == "diagonal" for p in points])
    s, e = np.flatnonzero(sine), np.flatnonzero(~sine)
    m = np.zeros((N, N))
    m[s, s] = math.pi / 2
    if e.size:
        table = bump_table([points[k] for k in e])
        m[e, e] = closedform.norms_sq(table)
        cross = closedform.sine_products(table, s + 1)
        m[np.ix_(e, s)] = cross
        m[np.ix_(s, e)] = cross.T
        r, c = np.triu_indices(e.size, 1)
        if isinstance(system, GammaLine):
            m[e[r], e[c]] = closedform.dilation_products(system.gamma, table.n[r] // 2,
                                                         table.n[c] // 2)
        else:
            m[e[r], e[c]] = closedform.pair_products(table, r, c)
        m[e[c], e[r]] = m[e[r], e[c]]
    m.setflags(write=False)
    return GramTruncation(m)


def extreme_eigenvalues(g: GramTruncation) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of the normalized truncation."""
    scaled = g.normalization * g.entries
    asym = float(np.max(np.abs(scaled - scaled.T)))
    if not asym <= 1e-12:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds 1e-12")
    eig = np.linalg.eigvalsh(scaled)
    return float(eig[0]), float(eig[-1])


def riesz_scan(system: SystemSpec, Ns: Sequence[int]) -> list[tuple[int, float, float]]:
    """Extreme normalized eigenvalues for a nested family of truncations.

    ``Ns`` must be a nonempty ascending list of integral orders in
    [1, MAX_ORDER], all checked before any work.  The largest Gram matrix
    is assembled once and the smaller truncations are its leading
    submatrices, so the interlacing monotonicity (lambda_min nonincreasing,
    lambda_max nondecreasing) is exact by construction.
    """
    sizes = [require_int(n, "truncation order", 1, MAX_ORDER) for n in Ns]
    if not sizes:
        raise InvalidArgument("riesz_scan needs at least one truncation order")
    if sizes != sorted(sizes):
        raise InvalidArgument("truncation orders must be ascending")
    full = build_gram(system, sizes[-1])
    out = []
    for n in sizes:
        lo, hi = extreme_eigenvalues(GramTruncation(full.entries[:n, :n]))
        out.append((n, lo, hi))
    return out
