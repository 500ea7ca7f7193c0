"""Distance bounds and summation criteria certifying the Riesz-basis property.

A system picking one normalized eigenfunction per curve index inherits the
basis property of the sine system when it stays close enough to it.  Two
sufficient criteria are implemented:

* the summation criterion: if the explicit bound terms C_n (see
  :func:`bound_Cn`) of all nondiagonal members sum below pi/2, the system
  is a Riesz basis (strong quadratic nearness);
* the even-tail criterion: if all odd-index members are the plain sines,
  mere convergence of sum (max(sqrt(alpha), sqrt(beta))/n - 1)^2 over even
  n suffices.

Both are one-sided: a failed check never certifies the opposite.  Because
the criteria involve infinite sums, only system families with analytically
boundable tails are accepted: finite perturbations of the diagonal, power
families max(...) <= n + sqrt(c_n) n^{(1-eps)/2}, and the dilation line
family parametrized by gamma.  The Riemann zeta values needed by the tail
bounds are computed here as well (Euler-Maclaurin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal, Optional, Sequence, Union

from . import closedform, paleywiener
from .errors import (
    DivergentArgument,
    IndexTooSmall,
    OddEntriesNotDiagonal,
    TailNotBoundable,
)
from .spectrum import FucikPoint, complete_point, diagonal_point, gamma_line_point

#: leading constant of the even-index distance bound
K_EVEN = 4 * (3 + math.pi ** 2) * math.pi / 9

#: strictness margin: certification demands total < pi/2 - MARGIN
MARGIN = 1e-12

Branch = Literal[
    "even", "odd_alpha_dominant", "odd_beta_dominant", "odd_alpha_uniform", "odd_beta_uniform"
]
Verdict = Literal["riesz_basis_certified", "inconclusive"]


def _k_odd_alpha(n: int) -> float:
    return 4 * math.pi * n * n * (n * n + 1) / (n - 1) ** 4


def _k_odd_beta(n: int) -> float:
    return 5 * math.pi * n * n * (n * n + 1) / (n + 1) ** 4


def bound_Cn(n: int, alpha: float, beta: float) -> float:
    """Upper bound on the squared distance of the eigenfunction to sin(n x).

    Branch selected by parity and dominance:

        even n:                (4 (3+pi^2) pi / 9) (max(sa, sb)/n - 1)^2
        odd n, alpha >= beta:  (4 pi n^2 (n^2+1)/(n-1)^4) (sa/n - 1)^2
        odd n, beta > alpha:   (5 pi n^2 (n^2+1)/(n+1)^4) (sb/n - 1)^2

    with sa = sqrt(alpha), sb = sqrt(beta).  Zero exactly on the diagonal.
    (alpha, beta) must be a valid :class:`FucikPoint` on the n-th curve.
    """
    if n < 2:
        raise IndexTooSmall(f"bound_Cn needs n >= 2, got {n}")
    p = FucikPoint(n, alpha, beta)
    sa, sb = p.sqrt_alpha, p.sqrt_beta
    if n % 2 == 0:
        return K_EVEN * (max(sa, sb) / n - 1.0) ** 2
    if p.alpha >= p.beta:
        return _k_odd_alpha(n) * (sa / n - 1.0) ** 2
    return _k_odd_beta(n) * (sb / n - 1.0) ** 2


_B2K_OVER_FACT = (
    (1.0 / 6) / 2.0,            # B2 / 2!
    (-1.0 / 30) / 24.0,         # B4 / 4!
    (1.0 / 42) / 720.0,         # B6 / 6!
    (-1.0 / 30) / 40320.0,      # B8 / 8!
)
_ZETA_N = 1000


@lru_cache(maxsize=256)
def zeta(s: float) -> float:
    """Riemann zeta for finite s > 1 + 1e-6, absolute error below 1e-12.

    Partial sum of 1000 terms plus the Euler-Maclaurin tail with four
    Bernoulli corrections; at these depths the first omitted correction is
    many orders below the target accuracy for every admissible s.  Values
    are cached (the function is pure and the criteria reuse a handful of
    exponents thousands of times).
    """
    if not 1.0 + 1e-6 < s < math.inf:
        raise DivergentArgument(f"zeta requires a finite s > 1 + 1e-6, got {s}")
    n = _ZETA_N
    head = math.fsum(k ** (-s) for k in range(1, n))
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    poch = s
    power = float(n) ** (-s - 1.0)
    for i, coeff in enumerate(_B2K_OVER_FACT):
        tail += coeff * poch * power
        poch *= (s + 2 * i + 1) * (s + 2 * i + 2)
        power /= n * n
    return head + tail


def corollary_cn_cap(n: int, epsilon: float, branch: Branch) -> float:
    """Strict cap on the growth constant c_n for the given branch.

    Any power family max(sqrt(alpha(n)), sqrt(beta(n))) <= n + sqrt(c_n)
    n^{(1-eps)/2} whose constants stay strictly below these caps satisfies
    the summation criterion.  The two ``*_uniform`` branches return the
    weaker n-independent constants (1/46 and 1/10 numerators).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    z = zeta(1.0 + epsilon) - 1.0
    if not z > 0:
        raise ValueError(f"zeta(1 + epsilon) - 1 is not resolved in floating point "
                         f"at epsilon = {epsilon}")
    if branch == "even":
        return 9.0 / (8 * (3 + math.pi ** 2)) / z
    if branch == "odd_alpha_dominant":
        return (n - 1) ** 4 / (8.0 * n * n * (n * n + 1)) / z
    if branch == "odd_beta_dominant":
        return (n + 1) ** 4 / (10.0 * n * n * (n * n + 1)) / z
    if branch == "odd_alpha_uniform":
        return (1.0 / 46) / z
    if branch == "odd_beta_uniform":
        return (1.0 / 10) / z
    raise ValueError(f"unknown branch {branch!r}")


def region_boundary(epsilon: float, branch: Branch,
                    n_range: Sequence[int]) -> list[tuple[int, float]]:
    """Boundary values n + sqrt(cap) n^{(1-eps)/2} for region plots."""
    out = []
    for n in n_range:
        cap = corollary_cn_cap(max(n, 2), epsilon, branch)
        out.append((n, n + math.sqrt(cap) * n ** ((1.0 - epsilon) / 2.0)))
    return out


def kato_weakened_term(p: FucikPoint) -> float:
    """Summand of the weakened nearness criterion at a single point.

    Equals  d - (nf - pi/2 + d)^2 / (4 nf)  with d the squared distance to
    the comparator sine and nf the squared norm; always in [0, d].
    """
    d = closedform.dist_sq_to_sine(p).value
    nf = closedform.norm_sq(p).value
    term = d - (nf - math.pi / 2 + d) ** 2 / (4 * nf)
    return max(term, 0.0)


# ----------------------------------------------------------------------
# system specifications

@dataclass(frozen=True)
class BranchRule:
    """Growth rule for one parity class of a power family.

    Exactly one of ``c`` (absolute constant) or ``cap_fraction`` (fraction
    of the applicable corollary cap, evaluated per index for odd n) must
    be given.  ``side`` says which coordinate dominates when the point is
    materialized.
    """

    c: Optional[float] = None
    cap_fraction: Optional[float] = None
    side: Literal["alpha", "beta"] = "alpha"

    def __post_init__(self):
        if (self.c is None) == (self.cap_fraction is None):
            raise ValueError("give exactly one of c= or cap_fraction=")
        value = self.c if self.c is not None else self.cap_fraction
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"rule constants must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class FinitePerturbation:
    """Diagonal system except for finitely many explicit on-curve entries."""

    entries: tuple[FucikPoint, ...] = ()
    _by_n: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        seen = {}
        for e in self.entries:
            if e.n in seen:
                raise ValueError(f"duplicate entry for n = {e.n}")
            seen[e.n] = e
        object.__setattr__(self, "_by_n", seen)

    def point(self, n: int) -> FucikPoint:
        return self._by_n.get(n) or diagonal_point(n)


@dataclass(frozen=True)
class PowerFamily:
    """System with max(sqrt(alpha(n)), sqrt(beta(n))) = n + sqrt(c_n) n^{(1-eps)/2}.

    A parity class with rule ``None`` stays on the diagonal.
    """

    epsilon: float
    even: Optional[BranchRule] = None
    odd: Optional[BranchRule] = None

    def __post_init__(self):
        if not math.isfinite(self.epsilon):
            raise TailNotBoundable(f"epsilon must be finite, got {self.epsilon}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    def _rule(self, n: int) -> Optional[BranchRule]:
        return self.even if n % 2 == 0 else self.odd

    def c_value(self, n: int) -> float:
        rule = self._rule(n)
        if rule is None:
            return 0.0
        if rule.c is not None:
            return rule.c
        if n % 2 == 0:
            branch: Branch = "even"
        else:
            branch = "odd_alpha_dominant" if rule.side == "alpha" else "odd_beta_dominant"
        return rule.cap_fraction * corollary_cn_cap(n, self.epsilon, branch)

    def dominant_sqrt(self, n: int) -> float:
        return n + math.sqrt(self.c_value(n)) * n ** ((1.0 - self.epsilon) / 2.0)

    def point(self, n: int) -> FucikPoint:
        if n == 1:
            return diagonal_point(1)
        rule = self._rule(n)
        if rule is None:
            return diagonal_point(n)
        s = self.dominant_sqrt(n)
        if rule.side == "alpha":
            return complete_point(n, alpha=s * s)
        return complete_point(n, beta=s * s)


@dataclass(frozen=True)
class GammaLine:
    """Even entries on the dilation line for a fixed gamma, diagonal odd entries."""

    gamma: float

    def __post_init__(self):
        paleywiener._require_gamma_range(self.gamma)

    def point(self, n: int) -> FucikPoint:
        if n >= 2 and n % 2 == 0:
            return gamma_line_point(n, self.gamma)
        return diagonal_point(n)


SystemSpec = Union[FinitePerturbation, PowerFamily, GammaLine]


@dataclass(frozen=True)
class NearnessReport:
    """Outcome of a summation criterion check.

    ``total_upper = partial_sum + tail_bound`` is a certified upper bound
    on the criterion's infinite sum; ``r`` bounds the quadratic-nearness
    sum of squared distances itself.  ``verdict`` is one-sided:
    "inconclusive" never claims the system is not a basis.
    """

    partial_sum: float
    tail_bound: float
    total_upper: float
    threshold: float
    verdict: Verdict
    r: float


def _require_partial(n_partial: int) -> None:
    if not n_partial >= 2:
        raise ValueError(f"n_partial must be at least 2, got {n_partial}")


def _zeta_remainders(n_cut: int, s: float) -> tuple[float, float]:
    """Remainders of sum n^{-s} beyond n_cut, split by parity (even, odd)."""
    z = zeta(s)
    r_even = 2.0 ** (-s) * (z - math.fsum(m ** (-s) for m in range(1, n_cut // 2 + 1)))
    r_all = z - math.fsum(m ** (-s) for m in range(1, n_cut + 1))
    return r_even, r_all - r_even


def theorem1_check(system: SystemSpec, n_partial: int = 2000) -> NearnessReport:
    """Summation criterion: certified when sum of C_n stays below pi/2.

    The first ``n_partial`` indices are summed explicitly; the rest is
    controlled by an analytic zeta-remainder bound (power families), is
    empty (finite perturbations), or diverges (nondiagonal gamma lines,
    whose C_n terms are constant in n; those come back inconclusive).
    ``n_partial`` must be at least 2.
    """
    _require_partial(n_partial)
    threshold = math.pi / 2

    if isinstance(system, FinitePerturbation):
        partial = math.fsum(
            bound_Cn(e.n, e.alpha, e.beta) for e in system.entries
            if e.n >= 2 and e.case != "diagonal"
        )
        tail = 0.0
    elif isinstance(system, PowerFamily):
        s_exp = 1.0 + system.epsilon
        terms = []
        for n in range(2, n_partial + 1):
            rule = system._rule(n)
            if rule is None:
                continue
            c_n = system.c_value(n)
            if n % 2 == 0:
                k_n = K_EVEN
            else:
                k_n = _k_odd_alpha(n) if rule.side == "alpha" else _k_odd_beta(n)
            terms.append(k_n * c_n * float(n) ** (-s_exp))
        partial = math.fsum(terms)
        tail = _power_family_tail(system, n_partial, s_exp)
    elif isinstance(system, GammaLine):
        if system.gamma == 4.0:
            partial, tail = 0.0, 0.0
        else:
            sg = math.sqrt(system.gamma)
            per_term = K_EVEN * (sg / 2 - 1.0) ** 2
            partial = per_term * (n_partial // 2)
            tail = math.inf
    else:
        raise TailNotBoundable(f"unsupported system specification {type(system).__name__}")

    total = partial + tail
    verdict: Verdict = "riesz_basis_certified" if total < threshold - MARGIN else "inconclusive"
    return NearnessReport(partial, tail, total, threshold, verdict, r=total)


def _power_family_tail(system: PowerFamily, n_cut: int, s_exp: float) -> float:
    r_even, r_odd = _zeta_remainders(n_cut, s_exp)
    tail = 0.0
    if system.even is not None:
        if system.even.cap_fraction is not None:
            coeff = system.even.cap_fraction * (math.pi / 2) / (zeta(s_exp) - 1.0)
        else:
            coeff = K_EVEN * system.even.c
        tail += coeff * r_even
    if system.odd is not None:
        rule = system.odd
        if rule.cap_fraction is not None:
            coeff = rule.cap_fraction * (math.pi / 2) / (zeta(s_exp) - 1.0)
        elif rule.side == "alpha":
            # K decreases in n for n >= 3, so the first odd index past the
            # cut dominates the whole tail
            m0 = n_cut + 1 if (n_cut + 1) % 2 == 1 else n_cut + 2
            coeff = _k_odd_alpha(m0) * rule.c
        else:
            coeff = 5 * math.pi * rule.c  # K increases toward 5 pi
        tail += coeff * r_odd
    return tail


def theorem2_check(system: SystemSpec, n_partial: int = 2000) -> NearnessReport:
    """Even-tail criterion for systems whose odd entries are diagonal.

    Certified when sum over even n of (max(sqrt(alpha), sqrt(beta))/n - 1)^2
    is finite (threshold is infinity: only convergence matters).  Raises
    OddEntriesNotDiagonal when an odd-index entry deviates from sin(n x).
    ``n_partial`` must be at least 2.
    """
    _require_partial(n_partial)
    threshold = math.inf

    if isinstance(system, FinitePerturbation):
        for e in system.entries:
            if e.n % 2 == 1 and e.case != "diagonal":
                raise OddEntriesNotDiagonal(f"entry for n = {e.n} is not diagonal")
        partial = math.fsum(
            (max(e.sqrt_alpha, e.sqrt_beta) / e.n - 1.0) ** 2
            for e in system.entries if e.n % 2 == 0
        )
        tail = 0.0
    elif isinstance(system, PowerFamily):
        if system.odd is not None:
            raise OddEntriesNotDiagonal("power family has a nondiagonal odd rule")
        s_exp = 1.0 + system.epsilon
        if system.even is None:
            partial = tail = 0.0
        else:
            partial = math.fsum(
                system.c_value(n) * float(n) ** (-s_exp)
                for n in range(2, n_partial + 1, 2)
            )
            r_even, _ = _zeta_remainders(n_partial, s_exp)
            if system.even.cap_fraction is not None:
                coeff = system.even.cap_fraction * corollary_cn_cap(2, system.epsilon, "even")
            else:
                coeff = system.even.c
            tail = coeff * r_even
    elif isinstance(system, GammaLine):
        if system.gamma == 4.0:
            partial, tail = 0.0, 0.0
        else:
            sg = math.sqrt(system.gamma)
            partial = (sg / 2 - 1.0) ** 2 * (n_partial // 2)
            tail = math.inf
    else:
        raise TailNotBoundable(f"unsupported system specification {type(system).__name__}")

    total = partial + tail
    verdict: Verdict = "riesz_basis_certified" if total < threshold else "inconclusive"
    return NearnessReport(partial, tail, total, threshold, verdict, r=K_EVEN * total)
