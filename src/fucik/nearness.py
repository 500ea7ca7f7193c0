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
family parametrized by gamma.

With every odd entry diagonal each C_n is K_EVEN times the even-tail
summand, so the even-tail criterion reuses the summation criterion's sums
divided by K_EVEN.  A power family's sums take each parity class in
fixed-size arrays, streamed through one ``math.fsum``, so they stay
exactly rounded and their memory does not grow with n_partial (at most
10^7); the K_n, cap and growth-constant expressions take an int or an
array, so the scalar bounds and the array sums share them.  The Riemann
zeta values and the remainders beyond the partial sums come from one
power-sum routine (explicit terms below 1000, summed as one array,
Euler-Maclaurin beyond), never as zeta minus a partial sum.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal, Optional, Sequence, Union

import numpy as np

from . import closedform, paleywiener
from .errors import (
    DivergentArgument,
    InvalidArgument,
    OddEntriesNotDiagonal,
    TailNotBoundable,
    require_int,
    require_real,
)
from .spectrum import FucikPoint, complete_point, diagonal_point, gamma_line_point

#: leading constant of the even-index distance bound
K_EVEN = 4 * (3 + math.pi ** 2) * math.pi / 9

#: strictness margin: certification demands total < pi/2 - MARGIN
MARGIN = 1e-12

#: largest growth constant c_n of a power family: with every K_n below 71
#: and zeta(s) - 1 below 1e6, the criterion sums stay finite
_C_MAX = 1e300

Branch = Literal[
    "even", "odd_alpha_dominant", "odd_beta_dominant", "odd_alpha_uniform", "odd_beta_uniform"
]
Verdict = Literal["riesz_basis_certified", "inconclusive"]


def _k_odd(n, side: Literal["alpha", "beta"]):
    """K_n of an odd index n, an int within float range or a float array,
    for the dominant side.

    Here and in :func:`_cap_numerator`, (n -+ 1)^4 is the square of an exact
    square, so an int n and a float array round it alike for n below 9e7.
    An int n whose float route overflows (n above about 6e76) takes the
    quotient n^2 (n^2 + 1) / (n -+ 1)^4 of the exact ints, rounded once.
    """
    near, weight = (n - 1, 4 * math.pi) if side == "alpha" else (n + 1, 5 * math.pi)
    try:
        k = weight * n * n * (n * n + 1) / (near ** 2) ** 2
    except OverflowError:  # (n -+ 1)^4 beyond float range
        k = math.inf
    if type(n) is not int or k < math.inf:
        return k
    return weight * (n * n * (n * n + 1) / (near ** 2) ** 2)


def _k(n: int, side: Literal["alpha", "beta"]) -> float:
    """Leading constant K_n of C_n = K_n (max(sqrt(alpha), sqrt(beta))/n - 1)^2.

    ``side`` names the dominant coordinate; it matters for odd n only.
    """
    return K_EVEN if n % 2 == 0 else _k_odd(n, side)


def _cn(p: FucikPoint) -> float:
    side = "alpha" if p.alpha >= p.beta else "beta"
    return _k(p.n, side) * (max(p.sqrt_alpha, p.sqrt_beta) / p.n - 1.0) ** 2


def bound_Cn(n: int, alpha: float, beta: float) -> float:
    """Upper bound on the squared distance of the eigenfunction to sin(n x).

    Branch selected by parity and dominance:

        even n:                (4 (3+pi^2) pi / 9) (max(sa, sb)/n - 1)^2
        odd n, alpha >= beta:  (4 pi n^2 (n^2+1)/(n-1)^4) (sa/n - 1)^2
        odd n, beta > alpha:   (5 pi n^2 (n^2+1)/(n+1)^4) (sb/n - 1)^2

    with sa = sqrt(alpha), sb = sqrt(beta).  Zero exactly on the diagonal,
    and finite for every odd n a point can have.  (alpha, beta) must be a
    valid :class:`FucikPoint` on the n-th curve; n is checked as by it,
    but from 2, so an n above the float maximum raises InvalidArgument.
    """
    return _cn(FucikPoint(require_int(n, "curve index", 2), alpha, beta))


_B2K_OVER_FACT = (
    (1.0 / 6) / 2.0,            # B2 / 2!
    (-1.0 / 30) / 24.0,         # B4 / 4!
    (1.0 / 42) / 720.0,         # B6 / 6!
    (-1.0 / 30) / 40320.0,      # B8 / 8!
)
_EM_START = 1000


def _power_tail(start: int, s: float, step: int = 1) -> float:
    """Sum of k^{-s} over k = start, start + step, ... for start >= 1, s > 1 + 1e-6.

    Terms below 1000 are summed explicitly, one array of powers added by
    ``math.fsum``; the rest is the Euler-Maclaurin sum from the first
    k >= 1000 with four Bernoulli corrections in powers of step / k.  At
    these depths the first omitted correction is many orders below 1e-12
    of the result for every admissible s, and no step subtracts nearly
    equal sums.
    """
    if not 1.0 + 1e-6 < s < math.inf:
        raise DivergentArgument(f"zeta requires a finite s > 1 + 1e-6, got {s}")
    n = start if start >= _EM_START else start - (start - _EM_START) // step * step
    # np.float_power calls the C library's pow, as Python's ** does; the **
    # of a float array may take a SIMD pow that differs in the last bit
    head = math.fsum(np.float_power(np.arange(start, n, step, dtype=float), -s).tolist())
    tail = n ** (1.0 - s) / ((s - 1.0) * step) + 0.5 * n ** (-s)
    poch = s
    power = step * float(n) ** (-s - 1.0)
    for i, coeff in enumerate(_B2K_OVER_FACT):
        tail += coeff * poch * power
        poch *= (s + 2 * i + 1) * (s + 2 * i + 2)
        power /= (n / step) ** 2
    return head + tail


@lru_cache(maxsize=256)
def _zeta_minus_one(s: float) -> float:
    """zeta(s) - 1, summed from k = 2 so that it keeps its relative accuracy.

    Cached: the function is pure and the caps reuse a handful of exponents
    once per odd index.
    """
    return _power_tail(2, s)


def zeta(s: float) -> float:
    """Riemann zeta for finite s > 1 + 1e-6, relative error below 1e-15.

    Near the pole zeta is large (about 5e5 at s = 1 + 2e-6, where floats
    are 1e-10 apart), so only the relative error is small there.  An s
    that is not a real number, or an int beyond float range, raises
    InvalidArgument.
    """
    return 1.0 + _zeta_minus_one(require_real(s, "s"))


def _cap_zeta(epsilon: float) -> float:
    """zeta(1 + epsilon) - 1, the denominator of every cap, checked."""
    epsilon = require_real(epsilon, "epsilon")
    if not epsilon > 0:
        raise InvalidArgument(f"epsilon must be positive, got {epsilon}")
    z = _zeta_minus_one(1.0 + epsilon)
    if not z >= sys.float_info.min:
        raise InvalidArgument(f"zeta(1 + epsilon) - 1 underflows at epsilon = {epsilon}")
    return z


def _cap_numerator(n, branch: Branch):
    """Cap on c_n times zeta(1 + eps) - 1; n an int within float range or
    a float array.

    An int n whose float denominator n^2 (n^2 + 1) overflows (n above
    about 6.5e76) takes the quotient of the exact ints, which Python rounds
    once.
    """
    if branch == "even":
        return 9.0 / (8 * (3 + math.pi ** 2))
    if branch == "odd_alpha_uniform":
        return 1.0 / 46
    if branch == "odd_beta_uniform":
        return 1.0 / 10
    if branch not in ("odd_alpha_dominant", "odd_beta_dominant"):
        raise InvalidArgument(f"unknown branch {branch!r}")
    near, scale = (n - 1, 8) if branch == "odd_alpha_dominant" else (n + 1, 10)
    try:
        den = float(scale) * n * n * (n * n + 1)
    except OverflowError:  # n * n + 1 beyond float range
        den = math.inf
    if not isinstance(n, int) or den < math.inf:
        return (near ** 2) ** 2 / den
    return (near ** 2) ** 2 / (scale * n * n * (n * n + 1))


def corollary_cn_cap(n: int, epsilon: float, branch: Branch) -> float:
    """Strict cap on the growth constant c_n for the given branch.

    Any power family max(sqrt(alpha(n)), sqrt(beta(n))) <= n + sqrt(c_n)
    n^{(1-eps)/2} whose constants stay strictly below these caps satisfies
    the summation criterion.  The two ``*_uniform`` branches return the
    weaker n-independent constants (1/46 and 1/10 numerators).  An index
    n < 1 raises IndexTooSmall, and one that is not an integer (see
    :func:`~fucik.errors.require_int`), or lies beyond float range on any
    branch, InvalidArgument.  An epsilon that is not a real number, is not
    positive or is an int beyond float range raises InvalidArgument, and
    one at most 1e-6 or infinite DivergentArgument.
    """
    n = require_int(n, "curve index", 1)
    z = _cap_zeta(epsilon)
    return _cap_numerator(n, branch) / z


def _boundary(n: int, c: float, epsilon: float) -> float:
    """n + sqrt(c) n^{(1-eps)/2}, the dominant root of a power family.

    n is an int within float range, as its callers check it; for every
    epsilon > 0 the power then stays within float range too.
    """
    return n + math.sqrt(c) * n ** ((1.0 - epsilon) / 2.0)


def region_boundary(epsilon: float, branch: Branch,
                    n_range: Sequence[int]) -> list[tuple[int, float]]:
    """Boundary values n + sqrt(cap) n^{(1-eps)/2} for region plots.

    The row n = 1 uses the cap of n = 2.  epsilon and the indices are
    checked as in :func:`corollary_cn_cap`: an index beyond float range
    raises InvalidArgument for every branch.
    """
    epsilon = require_real(epsilon, "epsilon")
    out = []
    for n in n_range:
        n = require_int(n, "curve index", 1)
        cap = corollary_cn_cap(max(n, 2), epsilon, branch)
        out.append((n, _boundary(n, cap, epsilon)))
    return out


def kato_weakened_term(p: FucikPoint) -> float:
    """Summand of the weakened nearness criterion at a single point.

    Equals  d - (nf - pi/2 + d)^2 / (4 nf)  with d the squared distance to
    the comparator sine and nf the squared norm; always in [0, d], and
    exactly 0.0 on the diagonal.
    """
    if p.case == "diagonal":
        return 0.0
    # the values norm_sq and dist_sq_to_sine return, computed once per point
    nf, d, _ = closedform._same_index_values(p)
    return max(d - (nf - math.pi / 2 + d) ** 2 / (4 * nf), 0.0)


# ----------------------------------------------------------------------
# system specifications

@dataclass(frozen=True)
class BranchRule:
    """Growth rule for one parity class of a power family.

    Exactly one of ``c`` (absolute constant) or ``cap_fraction`` (fraction
    of the applicable corollary cap, evaluated per index for odd n) must
    be given, a real number in [0, 1e300], stored as a Python float.
    ``side``, "alpha" or "beta", says which coordinate dominates when the
    point is materialized.
    """

    c: Optional[float] = None
    cap_fraction: Optional[float] = None
    side: Literal["alpha", "beta"] = "alpha"

    def __post_init__(self):
        if (self.c is None) == (self.cap_fraction is None):
            raise InvalidArgument("give exactly one of c= or cap_fraction=")
        name = "c" if self.c is not None else "cap_fraction"
        value = require_real(getattr(self, name), "rule constant")
        if not 0 <= value <= _C_MAX:
            raise InvalidArgument(f"rule constants must lie in [0, {_C_MAX}], got {value}")
        object.__setattr__(self, name, value)
        if self.side not in ("alpha", "beta"):
            raise InvalidArgument(f"side must be 'alpha' or 'beta', got {self.side!r}")


def _growth_constants(rule: BranchRule, even: bool, n, epsilon: float):
    """c_n of one parity class of a power family; n an int or a float array.

    An absolute rule gives its constant; a cap fraction gives that fraction
    of the class's corollary cap at each n.  A growth constant above 1e300
    (or NaN) is refused with InvalidArgument naming its first index.
    """
    if rule.c is not None:
        return rule.c
    branch = "even" if even else f"odd_{rule.side}_dominant"
    c = rule.cap_fraction * (_cap_numerator(n, branch) / _cap_zeta(epsilon))
    each = np.broadcast_to(c, np.shape(n))
    bad = np.flatnonzero(~(each <= _C_MAX))
    if bad.size:
        i = bad[0]
        raise InvalidArgument(
            f"growth constant c_{int(np.ravel(n)[i])} = {np.ravel(each)[i]} exceeds {_C_MAX}")
    return c


@dataclass(frozen=True)
class FinitePerturbation:
    """Diagonal system except for finitely many explicit on-curve entries.

    ``entries`` is kept as a tuple of :class:`~fucik.spectrum.FucikPoint`,
    one per index; anything but an iterable of them is refused.
    """

    entries: tuple[FucikPoint, ...] = ()
    _by_n: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        try:
            object.__setattr__(self, "entries", tuple(self.entries))
        except TypeError:
            raise InvalidArgument(f"entries must be a tuple of FucikPoint, got "
                                  f"{type(self.entries).__name__}") from None
        seen = {}
        for e in self.entries:
            if not isinstance(e, FucikPoint):
                raise InvalidArgument(f"entries must be FucikPoint, got {type(e).__name__}")
            if e.n in seen:
                raise InvalidArgument(f"duplicate entry for n = {e.n}")
            seen[e.n] = e
        object.__setattr__(self, "_by_n", seen)

    def point(self, n: int) -> FucikPoint:
        """The entry for index n, or the diagonal point; n is checked, before
        it is looked up, as in :func:`~fucik.spectrum.diagonal_point`."""
        n = require_int(n, "curve index", 1)
        return self._by_n.get(n) or diagonal_point(n)

    def _candidate_indices(self, N: int) -> list[int]:
        """The indices n <= N of the entries, the only points that may be
        off the diagonal.  Every other index is sin(n x)."""
        return sorted(n for n in self._by_n if n <= N)

    def _require_odd_diagonal(self) -> None:
        for e in self.entries:
            if e.n % 2 == 1 and e.case != "diagonal":
                raise OddEntriesNotDiagonal(f"entry for n = {e.n} is not diagonal")


@dataclass(frozen=True)
class PowerFamily:
    """System with max(sqrt(alpha(n)), sqrt(beta(n))) = n + sqrt(c_n) n^{(1-eps)/2}.

    A parity class with rule ``None``, or with a rule whose constant is 0,
    stays on the diagonal.  ``epsilon`` is stored as a Python float; one
    that is not a real number or not positive raises InvalidArgument, and
    a NaN, infinite one or an int beyond float range TailNotBoundable.
    """

    epsilon: float
    even: Optional[BranchRule] = None
    odd: Optional[BranchRule] = None

    def __post_init__(self):
        epsilon = require_real(self.epsilon, "epsilon", TailNotBoundable)
        if not math.isfinite(epsilon):
            raise TailNotBoundable(f"epsilon must be a finite float, got {epsilon}")
        if epsilon <= 0:
            raise InvalidArgument(f"epsilon must be positive, got {epsilon}")
        object.__setattr__(self, "epsilon", epsilon)
        for name, rule in (("even", self.even), ("odd", self.odd)):
            if not isinstance(rule, (BranchRule, type(None))):
                raise InvalidArgument(
                    f"{name} must be a BranchRule or None, got {type(rule).__name__}")

    def _rule(self, n: int) -> Optional[BranchRule]:
        return self.even if n % 2 == 0 else self.odd

    def c_value(self, n: int) -> float:
        """Growth constant c_n of index n, 0.0 for a class without a rule.

        n is checked first: below 1 it raises IndexTooSmall, and not an
        integer (see :func:`~fucik.errors.require_int`) or beyond float
        range InvalidArgument.
        """
        n = require_int(n, "curve index", 1)
        rule = self._rule(n)
        if rule is None:
            return 0.0
        return _growth_constants(rule, n % 2 == 0, n, self.epsilon)

    def dominant_sqrt(self, n: int) -> float:
        """max(sqrt(alpha(n)), sqrt(beta(n))) = n + sqrt(c_n) n^{(1-eps)/2},
        a Python float; n is checked first, as in :meth:`c_value`, and the
        int it names is used."""
        n = require_int(n, "curve index", 1)
        return _boundary(n, self.c_value(n), self.epsilon)

    def point(self, n: int) -> FucikPoint:
        """The family's point on curve n, its ``side`` coordinate the square
        of :meth:`dominant_sqrt`; the n = 1 point and a class without a rule
        are diagonal.  n is checked first, as in
        :func:`~fucik.spectrum.diagonal_point`."""
        n = require_int(n, "curve index", 1)
        rule = self._rule(n)
        if n == 1 or rule is None:
            return diagonal_point(n)
        # dominant_sqrt(n), without checking n a second time
        s = _boundary(n, self.c_value(n), self.epsilon)
        return complete_point(n, **{rule.side: s * s})

    def _candidate_indices(self, N: int) -> list[int]:
        """The indices 2 <= n <= N whose point may be off the diagonal:
        those of a parity class with a rule.  Every other index is sin(n x)."""
        return [n for n in range(2, N + 1) if self._rule(n) is not None]

    def _require_odd_diagonal(self) -> None:
        """An odd rule whose constant is 0 keeps every odd point diagonal."""
        # one of c and cap_fraction is None, the other the rule's constant
        if self.odd is not None and (self.odd.c or self.odd.cap_fraction):
            raise OddEntriesNotDiagonal("power family has a nondiagonal odd rule")


@dataclass(frozen=True)
class GammaLine:
    """Even entries on the dilation line for a fixed gamma, diagonal odd entries.

    ``gamma`` is stored as a Python float, refused as in
    :func:`fucik.paleywiener.E_gamma`.
    """

    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", paleywiener._require_gamma_range(self.gamma))

    def point(self, n: int) -> FucikPoint:
        """The line's point on curve n, even n >= 2, else the diagonal point;
        n is checked first, as in :func:`~fucik.spectrum.diagonal_point`."""
        n = require_int(n, "curve index", 1)
        if n % 2 == 0:
            return gamma_line_point(n, self.gamma)
        return diagonal_point(n)

    def _candidate_indices(self, N: int) -> range:
        """The indices n <= N whose point may be off the diagonal: the even
        n >= 2.  Every other index is sin(n x)."""
        return range(2, N + 1, 2)

    def _require_odd_diagonal(self) -> None:
        """Odd entries of a gamma line are sin(n x) by construction."""


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


#: largest n_partial: a power family's partial sums up to it took 0.3 to
#: 0.5 s on a 2-vCPU VM
_N_PARTIAL_MAX = 10 ** 7

#: indices per array of a power family's partial terms; bounds peak memory
_TERM_CHUNK = 2 ** 16


def _require_system(system) -> None:
    """Refuse anything but a :data:`SystemSpec` with TailNotBoundable."""
    if not isinstance(system, (FinitePerturbation, PowerFamily, GammaLine)):
        raise TailNotBoundable(f"unsupported system specification {type(system).__name__}")


def _require_checkable(system: SystemSpec, n_partial: int) -> int:
    """n_partial as an int: an integral float is taken as its int, a fraction
    or an int above :data:`_N_PARTIAL_MAX` refused."""
    n_partial = require_int(n_partial, "n_partial", 2, _N_PARTIAL_MAX)
    _require_system(system)
    return n_partial


def theorem1_check(system: SystemSpec, n_partial: int = 2000) -> NearnessReport:
    """Summation criterion: certified when sum of C_n stays below pi/2.

    The first ``n_partial`` indices are summed explicitly; the rest is
    controlled by an analytic zeta-remainder bound (power families), is
    empty (finite perturbations), or diverges (nondiagonal gamma lines,
    whose C_n terms are constant in n; those come back inconclusive).
    ``n_partial`` must be an integer in [2, 10^7].
    """
    n_partial = _require_checkable(system, n_partial)
    threshold = math.pi / 2

    if isinstance(system, FinitePerturbation):
        partial = math.fsum(
            _cn(e) for e in system.entries if e.case != "diagonal"
        )
        tail = 0.0
    elif isinstance(system, PowerFamily):
        partial, tail = _power_family_sums(system, n_partial)
    elif system.gamma == 4.0:
        partial, tail = 0.0, 0.0
    else:
        sg = math.sqrt(system.gamma)
        partial, tail = K_EVEN * (sg / 2 - 1.0) ** 2 * (n_partial // 2), math.inf

    total = partial + tail
    verdict: Verdict = "riesz_basis_certified" if total < threshold - MARGIN else "inconclusive"
    return NearnessReport(partial, tail, total, threshold, verdict, r=total)


def _power_family_sums(system: PowerFamily, n_cut: int) -> tuple[float, float]:
    """(partial, tail) of sum K_n c_n n^{-s}, s = 1 + eps: one pass per parity class.

    Each class takes its growth constants over 2 <= n <= n_cut in arrays of
    :data:`_TERM_CHUNK` indices (refused as in :meth:`PowerFamily.c_value`),
    its partial terms, then the bound on its remainder past n_cut.  One
    ``math.fsum`` streams the partial terms of both classes, so their sum
    stays exactly rounded and memory does not grow with n_cut.
    """
    s_exp = 1.0 + system.epsilon
    tail = 0.0

    def chunks():
        """Lists of partial terms, class by class; each class's remainder
        bound is added to ``tail`` after its last chunk."""
        nonlocal tail
        for first, rule in ((2, system.even), (3, system.odd)):
            if rule is None:
                continue
            even = first == 2
            # a class with no index up to n_cut still takes its rule
            # through the checks, as one empty array
            for lo in range(first, n_cut + 1, 2 * _TERM_CHUNK) or [first]:
                n = np.arange(lo, min(lo + 2 * _TERM_CHUNK, n_cut + 1), 2, dtype=float)
                c = _growth_constants(rule, even, n, system.epsilon)
                k = K_EVEN if even else _k_odd(n, rule.side)
                # float_power, as in _power_tail: each term as the scalar
                # route rounds it
                yield (k * c * np.float_power(n, -s_exp)).tolist()
            past = first + 2 * len(range(first, n_cut + 1, 2))
            remainder = _power_tail(past, s_exp, step=2)
            if rule.cap_fraction is not None:
                # remainder / (zeta - 1) <= 1 keeps the product finite
                tail += rule.cap_fraction * (math.pi / 2) * (remainder / _zeta_minus_one(s_exp))
            else:
                # sup of K_n past the cut: for odd n on the alpha side K
                # decreases, so the first odd index dominates; on the beta
                # side it increases toward 5 pi
                k_sup = (K_EVEN if even else _k_odd(past, "alpha") if rule.side == "alpha"
                         else 5 * math.pi)
                tail += k_sup * rule.c * remainder

    partial = math.fsum(itertools.chain.from_iterable(chunks()))
    return partial, tail


def theorem2_check(system: SystemSpec, n_partial: int = 2000) -> NearnessReport:
    """Even-tail criterion for systems whose odd entries are diagonal.

    Certified when sum over even n of (max(sqrt(alpha), sqrt(beta))/n - 1)^2
    is finite (threshold is infinity: only convergence matters).  Raises
    OddEntriesNotDiagonal when an odd-index entry deviates from sin(n x).
    The sums are those of :func:`theorem1_check` divided by K_EVEN, and
    ``r`` is its ``total_upper``.  ``n_partial`` must be an integer in
    [2, 10^7].
    """
    n_partial = _require_checkable(system, n_partial)
    system._require_odd_diagonal()
    c1 = theorem1_check(system, n_partial)
    partial, tail = c1.partial_sum / K_EVEN, c1.tail_bound / K_EVEN
    total = partial + tail
    verdict: Verdict = "riesz_basis_certified" if total < math.inf else "inconclusive"
    return NearnessReport(partial, tail, total, math.inf, verdict, r=c1.total_upper)
