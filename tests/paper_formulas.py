"""The paper's per-case closed forms, kept as a test oracle.

For a point on the n-th curve with dominant square root s (s = sqrt(alpha)
when alpha >= n^2 >= beta, s = sqrt(beta) otherwise) the squared norm of
the normalized eigenfunction, its squared distance to sin(n x) and the
scalar product <f, sin(n x)> have elementary closed forms, one per parity
and dominance (the even forms do not depend on which root dominates).
The package computes the same numbers by exact bump algebra; these
expressions share none of that algebra, so they are a second independent
route beside the quadrature oracle.

Each formula has removable 0/0 structure at s = n (e.g. sin(n pi / s) /
(s - n)), so callers must stay off the diagonal.

The dilation operators T_k of the paper, the dilation factors of the line
family and the residual of its truncated dilated sine series are kept
here too: nothing in the package computes with them, and the tests use
them to show the dilation structure that the budget E(gamma) rests on.
"""

import math

import numpy as np

from fucik import paleywiener
from fucik.eigenfunction import build
from fucik.errors import OddIndex
from fucik.spectrum import gamma_line_point


# ----------------------------------------------------------------------
# squared norms

def norm_even(n, s):
    return math.pi / 2 - math.pi * n * (s - n) / (2 * s - n) ** 2


def norm_odd_alpha(n, s):
    return math.pi / 2 - math.pi * (n + 1) * (s - 1) * (s - n) / (s * (2 * s - (n + 1)) ** 2)


def norm_odd_beta(n, s):
    return math.pi / 2 - math.pi * (n - 1) * (s + 1) * (s - n) / (s * (2 * s - (n - 1)) ** 2)


# ----------------------------------------------------------------------
# squared distances to sin(n x)

def dist_even(n, s):
    head = math.pi - math.pi * n * (s - n) / (2 * s - n) ** 2
    coeff = 4 * s ** 4 / ((2 * s - n) * (3 * s - n) * (s + n))
    return head - coeff * math.sin(n * math.pi / s) / (s - n)


def dist_odd_alpha(n, s):
    head = math.pi - math.pi * (n + 1) * (s - 1) * (s - n) / (s * (2 * s - (n + 1)) ** 2)
    coeff = (16 * (n - 1) * s ** 3 / (2 * s - (n + 1))) * (
        (s - 1) / ((n + s) * (n + 1) * ((3 * n - 1) * s - n * (n + 1)))
    )
    trig = (
        math.cos(math.pi / 2 * n / s)
        * math.cos(math.pi / 2 * (n * n + n - 2 * s) / ((n - 1) * s))
        / ((s - n) * math.sin(math.pi * (s - n) / ((n - 1) * s)))
    )
    return head - coeff * trig


def dist_odd_beta(n, s):
    head = math.pi - math.pi * (n - 1) * (s + 1) * (s - n) / (s * (2 * s - (n - 1)) ** 2)
    coeff = (16 * (n + 1) * s ** 3 / (2 * s - (n - 1))) * (
        (s + 1) / ((n + s) * (n - 1) * ((3 * n + 1) * s - n * (n - 1)))
    )
    trig = (
        math.cos(math.pi / 2 * n / s)
        * math.cos(math.pi / 2 * (2 * s + n * n - n) / ((n + 1) * s))
        / ((s - n) * math.sin(math.pi * n * (s + 1) / ((n + 1) * s)))
    )
    return head - coeff * trig


# ----------------------------------------------------------------------
# scalar products <f, sin(n x)>

def inner_even(n, s):
    coeff = 2 * s ** 4 / ((2 * s - n) * (3 * s - n) * (s + n))
    return coeff * math.sin(n * math.pi / s) / (s - n)


def inner_odd_alpha(n, s):
    coeff = (8 * (n - 1) * s ** 3 / (2 * s - (n + 1))) * (
        (s - 1) / ((n + s) * (n + 1) * ((3 * n - 1) * s - n * (n + 1)))
    )
    trig = (
        math.cos(math.pi / 2 * n / s)
        * math.cos(math.pi / 2 * (n * n + n - 2 * s) / ((n - 1) * s))
        / ((s - n) * math.sin(math.pi * (s - n) / ((n - 1) * s)))
    )
    return coeff * trig


def inner_odd_beta(n, s):
    coeff = (8 * (n + 1) * s ** 3 / (2 * s - (n - 1))) * (
        (s + 1) / ((n + s) * (n - 1) * ((3 * n + 1) * s - n * (n - 1)))
    )
    trig = (
        math.cos(math.pi / 2 * n / s)
        * math.cos(math.pi / 2 * (2 * s + n * n - n) / ((n + 1) * s))
        / ((s - n) * math.sin(math.pi * n * (s + 1) / ((n + 1) * s)))
    )
    return coeff * trig


_TABLE = {
    "even_alpha": (norm_even, dist_even, inner_even),
    "even_beta": (norm_even, dist_even, inner_even),
    "odd_alpha": (norm_odd_alpha, dist_odd_alpha, inner_odd_alpha),
    "odd_beta": (norm_odd_beta, dist_odd_beta, inner_odd_beta),
}


def same_index(p):
    """(case, norm^2, dist^2, <f, sin(n x)>) at an off-diagonal point p."""
    beta_dom = p.case == "beta_dominant"
    s = p.sqrt_beta if beta_dom else p.sqrt_alpha
    case = ("even" if p.n % 2 == 0 else "odd") + ("_beta" if beta_dom else "_alpha")
    norm, dist, inner = _TABLE[case]
    return case, norm(p.n, s), dist(p.n, s), inner(p.n, s)


# ----------------------------------------------------------------------
# even-index distance bound before its final simplification

def bound_even_refined(n, s):
    """Sits between the true squared distance and the constant-times-
    (s/n - 1)^2 bound of fucik.nearness.bound_Cn; s is the dominant root."""
    num = 4 * (3 + math.pi ** 2) * s * s + s * n * (15 - 2 * math.pi ** 2) - 6 * n * n
    den = (2 * s - n) ** 2 * (3 * s - n) * (s + n)
    return (math.pi / 3) * (num / den) * (s - n) ** 2


# ----------------------------------------------------------------------
# sine coefficients of the n = 2 line-family profile

def fourier_Ak(gamma, k):
    """A_k = (2/pi) <f_2, sin(k .)>; 0/0 where k^2 = gamma or
    k^2 (sqrt(gamma) - 1)^2 = gamma."""
    sg = math.sqrt(gamma)
    d1 = k * k - gamma
    d2 = k * k * (sg - 1.0) ** 2 - gamma
    return (2 / math.pi) * (gamma * gamma / (sg - 1.0)) * (2.0 - sg) \
        * math.sin(k * math.pi / sg) / (d1 * d2)


# ----------------------------------------------------------------------
# dilation operators and the dilated sine series of the line family

def _periodic_wrap(y):
    # map onto [0, pi], sending positive multiples of pi to pi rather than 0
    # so that T_2 is the identity up to and including the right endpoint
    t = np.mod(y, math.pi)
    return np.where((t == 0) & (y > 0), math.pi, t)


def apply_Tk(k, g):
    """The dilation operator T_k: x -> g~(k x / 2), period-pi continuation.

    On sines: apply_Tk(k, sin(n .)) equals sin(k n . / 2) pointwise for
    every even n, and T_2 is the identity.
    """
    if k < 1:
        raise ValueError(f"dilation index must be >= 1, got {k}")

    def transformed(x):
        out = np.asarray(g(_periodic_wrap(k * np.asarray(x, dtype=float) / 2.0)), dtype=float)
        return float(out) if np.ndim(x) == 0 else out

    return transformed


def dilation_factor(n, gamma):
    """Scale c with f_n(x) = f_2(c x) on the line family (period-pi wrap).

    Even n gives c = n/2; odd n gives c = (n-1)/2 + 1/sqrt(gamma).
    """
    if n < 2:
        raise ValueError(f"dilation factor needs n >= 2, got {n}")
    if n % 2 == 0:
        return n / 2.0
    return (n - 1) / 2.0 + 1.0 / math.sqrt(gamma)


def theoremD_residual(gamma, n, K, grid_points=1024):
    """Sup-grid residual of f_n against its truncated dilated sine series.

    max over a uniform grid of |f_n(x) - sum_{k<=K} A_k sin(k n x / 2)|,
    with the A_k of :func:`fucik.paleywiener.fourier_Ak`.  At gamma = 4
    every coefficient except A_2 = 1 vanishes and the residual is zero.
    For n = 2 the series is the plain sine expansion of f_2 on (0, pi)
    and the residual decays with K; for larger even n the dilated
    argument leaves (0, pi) and the residual instead stalls at the gap
    between the period-pi continuation of f_2 and the odd 2pi-periodic
    continuation that the sine series converges to.
    """
    if n % 2 != 0:
        raise OddIndex(f"theoremD_residual needs an even index, got {n}")
    if K < 4:
        raise ValueError(f"truncation K must be >= 4, got {K}")
    x = np.linspace(0.0, math.pi, grid_points)
    fn = build(gamma_line_point(n, gamma))
    coeffs = np.array([paleywiener.fourier_Ak(gamma, k) for k in range(1, K + 1)])
    ks = np.arange(1, K + 1, dtype=float)
    series = np.sin(np.outer(x, ks * n / 2.0)) @ coeffs
    return float(np.max(np.abs(fn(x) - series)))
