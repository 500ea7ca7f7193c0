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
of two eigenfunctions (:func:`inner_pair`) are integrated exactly on each
piece between their merged junction points.

The paper's per-case formulas and the adaptive quadrature are independent
routes to the same numbers; they serve as oracles in the tests and in
``fucik verify`` and are not used here.

All single-point results are wrapped in :class:`ClosedFormValue`, which
records the dominance case and the distance to the removable singularity
of the paper's formula, so audits can reconstruct the provenance of every
figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .eigenfunction import FucikEigenfunction, amplitudes, breakpoints, build
from .spectrum import FucikPoint, require_on_curve

#: largest comparator index accepted by inner_cross_index
M_MAX = 10 ** 4

FormulaCase = Literal["even_alpha", "odd_alpha", "even_beta", "odd_beta", "diagonal"]


@dataclass(frozen=True)
class ClosedFormValue:
    """A number plus the provenance needed to audit it.

    ``formula_case`` is the dominance case of the point (or ``diagonal``).
    ``singularity_distance`` is the distance to the nearest removable
    singularity of the paper's per-case formula: |s - n| on the sqrt scale
    for the same-index quantities, min(|m^2 - alpha|, |m^2 - beta|) for the
    cross products.
    """

    value: float
    formula_case: FormulaCase
    singularity_distance: float


def _dominant(p: FucikPoint) -> tuple[float, FormulaCase]:
    if p.case == "beta_dominant":
        return p.sqrt_beta, ("even_beta" if p.n % 2 == 0 else "odd_beta")
    return p.sqrt_alpha, ("even_alpha" if p.n % 2 == 0 else "odd_alpha")


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
    require_on_curve(p)
    if p.n == 1 or p.case == "diagonal":
        return ClosedFormValue(diagonal_value, "diagonal", 0.0)
    s, tag = _dominant(p)
    return ClosedFormValue(off_diagonal(p), tag, abs(s - p.n))


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
    n against even m < n.  Everything else is assembled bump by bump.
    """
    require_on_curve(p)
    m = int(m)
    if m < 1:
        raise ValueError(f"comparator index must be >= 1, got {m}")
    if m > M_MAX:
        raise ValueError(f"comparator index capped at {M_MAX}, got {m}")
    if m == p.n:
        raise ValueError("use inner_same_index for m == n")

    n = p.n
    if p.n == 1 or p.case == "diagonal":
        return ClosedFormValue(0.0, "diagonal", 0.0)
    _, tag = _dominant(p)
    res_gap = min(abs(m * m - p.alpha), abs(m * m - p.beta))
    if m % 2 == 0 and (n % 2 == 1 or m < n):
        return ClosedFormValue(0.0, tag, res_gap)
    return ClosedFormValue(_sine_product(p, m), tag, res_gap)


def _local_sines(f: FucikEigenfunction, x: np.ndarray):
    """(amplitude, frequency, offset into the bump) of f around each x."""
    l1, length = f.bumps.l1, f.bumps.l
    k = np.minimum(np.floor(x / length), max(math.ceil(math.pi / length) - 1, 0))
    t = x - k * length
    pos = t < l1
    return (np.where(pos, f.positive_amplitude, -f.negative_amplitude),
            np.where(pos, f.point.sqrt_alpha, f.point.sqrt_beta),
            np.where(pos, t, t - l1))


def inner_pair(p: FucikPoint, q: FucikPoint) -> float:
    """Scalar product of the eigenfunctions at p and q, integrated exactly.

    Between merged junction points both factors are single sinusoids
    a sin(w (x - x0)) and b sin(v (x - y0)), so the product is
    (ab/2) [cos((w - v) x + ...) - cos((w + v) x + ...)], and each cosine
    integrates over a piece of length h around its midpoint to
    h cos(phase at the midpoint) sinc(frequency h / 2).
    """
    f, g = build(p), build(q)
    x = np.union1d(breakpoints(f), breakpoints(g))
    h = np.diff(x)
    mid = x[:-1] + h / 2
    a, w, s = _local_sines(f, mid)
    b, v, t = _local_sines(g, mid)
    minus = np.cos(w * s - v * t) * np.sinc((w - v) * h / (2 * math.pi))
    plus = np.cos(w * s + v * t) * np.sinc((w + v) * h / (2 * math.pi))
    return float(0.5 * np.sum(a * b * h * (minus - plus)))
