"""Truncated Gram matrices of eigenfunction systems and their spectra.

A Riesz basis is characterized by two-sided bounds c sum |a_n|^2 <=
||sum a_n psi_n||^2 <= C sum |a_n|^2; for the leading N functions those
quadratic forms are exactly the extreme eigenvalues of the (2/pi)-scaled
Gram matrix of pairwise inner products.  This module assembles that
truncation exactly from the bump algebra of :mod:`fucik.closedform` and
takes its spectrum from LAPACK (``numpy.linalg.eigvalsh``).

The scans are diagnostics, not certificates: truncated spectra cannot
certify an infinite-system Riesz bound, so no verdicts are emitted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import closedform
from .nearness import SystemSpec

MAX_ORDER = 512


@dataclass
class GramTruncation:
    """N x N symmetric matrix of inner products <psi_i, psi_j>.

    ``entries`` holds the raw (unscaled) inner products and is read-only;
    ``normalization`` is the factor applied before diagonalization so that
    the all-diagonal system yields the identity.  The extreme-eigenvalue
    fields stay None until :func:`extreme_eigenvalues` fills them.
    """

    order: int
    entries: np.ndarray
    normalization: float = 2.0 / math.pi
    lambda_min: Optional[float] = None
    lambda_max: Optional[float] = None


def _entry(points, i: int, j: int) -> float:
    """Inner product <psi_i, psi_j> with 1-based system indices i <= j."""
    pi_, pj = points[i], points[j]
    sine_i = pi_.case == "diagonal"
    sine_j = pj.case == "diagonal"
    if i == j:
        if sine_i:
            return math.pi / 2
        return closedform.norm_sq(pi_).value
    if sine_i and sine_j:
        return 0.0
    if sine_i:
        return closedform.inner_cross_index(pj, i).value
    if sine_j:
        return closedform.inner_cross_index(pi_, j).value
    return closedform.inner_pair(pi_, pj)


def build_gram(system: SystemSpec, N: int, max_workers: Optional[int] = None) -> GramTruncation:
    """Assemble the order-N Gram truncation of a system specification.

    Sine-sine entries are exact (pi/2 on the diagonal, 0 off it); every
    other entry comes from the exact bump algebra of
    :mod:`fucik.closedform`.  ``max_workers`` is accepted for older
    callers and ignored: assembly is serial.
    """
    if not (1 <= N <= MAX_ORDER):
        raise ValueError(f"truncation order must lie in [1, {MAX_ORDER}], got {N}")
    points = {i: system.point(i) for i in range(1, N + 1)}
    m = np.zeros((N, N))
    for i in range(1, N + 1):
        for j in range(i, N + 1):
            m[i - 1, j - 1] = _entry(points, i, j)
    lower = np.tril_indices(N, -1)
    m[lower] = m.T[lower]
    m.setflags(write=False)
    return GramTruncation(order=N, entries=m)


def extreme_eigenvalues(g: GramTruncation) -> tuple[float, float]:
    """Extreme eigenvalues of the normalized truncation, cached on g."""
    scaled = g.normalization * g.entries
    asym = float(np.max(np.abs(scaled - scaled.T)))
    if asym > 1e-12:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds 1e-12")
    eig = np.linalg.eigvalsh(scaled)
    g.lambda_min = float(eig[0])
    g.lambda_max = float(eig[-1])
    return g.lambda_min, g.lambda_max


def riesz_scan(system: SystemSpec, Ns: Sequence[int]) -> list[tuple[int, float, float]]:
    """Extreme normalized eigenvalues for a nested family of truncations.

    ``Ns`` must be ascending.  The largest Gram matrix is assembled once
    and the smaller truncations are its leading submatrices, so the
    interlacing monotonicity (lambda_min nonincreasing, lambda_max
    nondecreasing) is exact by construction.
    """
    sizes = list(Ns)
    if sizes != sorted(sizes):
        raise ValueError("truncation orders must be ascending")
    full = build_gram(system, sizes[-1])
    out = []
    for n in sizes:
        sub = GramTruncation(order=n, entries=full.entries[:n, :n],
                             normalization=full.normalization)
        lo, hi = extreme_eigenvalues(sub)
        out.append((n, lo, hi))
    return out
