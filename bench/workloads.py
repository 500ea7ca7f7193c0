"""Seeded workloads: input generators, the op each input drives, output checks.

Each workload turns ``--seed`` into an endless stream of op inputs; the
same seed yields the same stream.  Every op gets inputs of its own (a
continuous parameter is drawn per op), so no in-process memo could serve
one op from an earlier one.  Where an op's cost depends on a discrete
shape (the Gram order, the verify sweep), shapes are dealt from shuffled
blocks so every run sees the same mix; only the order varies with the seed.

:meth:`Workload.run` performs one op and returns its raw output;
:meth:`Workload.check` turns that into an ``Outcome`` (payload bytes, and
whether the output passed) outside the timed interval.  Checks that need
an independent recomputation run on a seeded sample after the timed phase
(:meth:`Workload.oracle_check`).

``gram-scan`` and ``certify`` call ``fucik.cli.main`` in-process, the way
the ``fucik`` console script does, with ``FUCIK_THREADS`` unset, so Gram
assembly uses ``os.cpu_count()`` workers as it does for users.
``point-queries`` calls the closed forms directly, the way the demos do:
parsing arguments alone costs about 3 ms, twenty times the op itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

import fucik
from fucik import cli

#: agreement required between the CLI's Jacobi eigenvalues and numpy's
EIG_TOL = 1e-9
#: agreement required between closed forms and the quadrature oracle
ORACLE_TOL = 1e-9
#: polarization identity inner = (norm + pi/2 - dist) / 2
POLARIZATION_TOL = 1e-10
#: slack for bounds met exactly at the diagonal, where the values come
#: from the quadrature fallback (absolute tolerance 1e-12)
BOUND_SLACK = 1e-12


@dataclass
class Outcome:
    payload_bytes: int
    ok: bool
    detail: str = ""


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _blocks(rng: random.Random, shapes: list) -> Iterator:
    while True:
        block = list(shapes)
        rng.shuffle(block)
        yield from block


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def stream(self) -> Iterator:
        """Op inputs, derived from the seed alone."""
        raise NotImplementedError

    def warm_up_input(self):
        """A seeded input of the workload's smallest shape."""
        raise NotImplementedError

    def run(self, op):
        """Perform one op; returns its raw output."""
        raise NotImplementedError

    def check(self, op, raw) -> Outcome:
        raise NotImplementedError

    def wants_oracle(self, index: int, op) -> bool:
        return False

    def oracle_check(self, op, raw) -> str:
        """Independent recomputation of a sampled op; '' when it agrees."""
        return ""


# ----------------------------------------------------------------------
# gram-scan

@dataclass(frozen=True)
class GramOp:
    gamma: float
    nmax: int

    @property
    def sizes(self) -> list[int]:
        return sorted({8, 16, 32, self.nmax})


class GramScan(Workload):
    """``fucik gram --mode gamma-line --gamma G --sizes 8,16,32,Nmax``."""

    name = "gram-scan"
    GAMMA_RANGE = (4.2, 5.6)   # GammaLine accepts gamma <= 5.682
    NMAX = (32, 48, 64)
    #: gamma is drawn per op from one of this many equal bins, dealt with
    #: every order, since the cost drifts by about 15% across the range
    GAMMA_BINS = 3
    ORACLE_SAMPLES = 2

    def stream(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        lo, hi = self.GAMMA_RANGE
        width = (hi - lo) / self.GAMMA_BINS
        shapes = [(nmax, b) for nmax in self.NMAX for b in range(self.GAMMA_BINS)]
        for nmax, b in _blocks(rng, shapes):
            yield GramOp(lo + width * (b + rng.random()), nmax)

    def warm_up_input(self):
        rng = random.Random(f"{self.name}:warm-up:{self.seed}")
        return GramOp(rng.uniform(*self.GAMMA_RANGE), min(self.NMAX))

    def run(self, op: GramOp) -> tuple[int, str]:
        return _run_cli(["gram", "--mode", "gamma-line", "--gamma", repr(op.gamma),
                         "--sizes", f"8,16,32,{op.nmax}"])

    def check(self, op: GramOp, raw: tuple[int, str]) -> Outcome:
        code, payload = raw
        size = len(payload)
        if code != 0:
            return Outcome(size, False, f"exit code {code}")
        lines = payload.splitlines()
        if lines[0] != "N,lambda_min,lambda_max":
            return Outcome(size, False, f"unexpected header {lines[0]!r}")
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        if [int(r[0]) for r in rows] != op.sizes:
            return Outcome(size, False, "sizes do not match the request")
        for (_, lo, hi), (_, lo_next, hi_next) in zip(rows, rows[1:]):
            if not (lo_next <= lo and hi <= hi_next):
                return Outcome(size, False, "nested truncations do not interlace")
        if not all(0.0 < lo <= hi for _, lo, hi in rows):
            return Outcome(size, False, "lambda_min not positive or above lambda_max")
        return Outcome(size, True)

    def wants_oracle(self, index, op):
        return index < self.ORACLE_SAMPLES

    def oracle_check(self, op: GramOp, raw: tuple[int, str]) -> str:
        g = fucik.build_gram(fucik.GammaLine(op.gamma), op.nmax, max_workers=1)
        scaled = g.normalization * g.entries
        for line in raw[1].splitlines()[1:]:
            n, lo, hi = line.split(",")
            eig = np.linalg.eigvalsh(scaled[: int(n), : int(n)])
            dev = max(abs(eig[0] - float(lo)), abs(eig[-1] - float(hi)))
            if not dev <= EIG_TOL:
                return f"N={n}: Jacobi and eigvalsh differ by {dev:.3e}"
        return ""


# ----------------------------------------------------------------------
# certify

@dataclass(frozen=True)
class CertifyOp:
    nmax: int
    points: int
    epsilon: float
    even_fraction: float
    odd_fraction: float
    even_side: str
    odd_side: str
    gamma: float


class Certify(Workload):
    """``verify --suite all``, then both criteria on a certified power family.

    Cap fractions below 1 keep the summation criterion's total below pi/2,
    so both verdicts must come back certified.  The even-tail criterion on
    a dilation line with gamma > 4 diverges and exits 1 by design; that
    run is checked for exactly that outcome.
    """

    name = "certify"
    NMAX = range(12, 25)
    POINTS = range(2, 7)
    #: expected (exit code, verdict) of each call; verify carries no verdict
    EXPECTED = ((0, None), (0, "riesz_basis_certified"), (0, "riesz_basis_certified"),
                (1, "inconclusive"))

    def _op(self, rng: random.Random, nmax: int, points: int) -> CertifyOp:
        return CertifyOp(
            nmax=nmax, points=points,
            epsilon=rng.uniform(0.3, 1.2),
            even_fraction=rng.uniform(0.1, 0.9),
            odd_fraction=rng.uniform(0.1, 0.9),
            even_side=rng.choice(("alpha", "beta")),
            odd_side=rng.choice(("alpha", "beta")),
            gamma=rng.uniform(4.2, 5.68),
        )

    def stream(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        shapes = [(k, p) for k in self.NMAX for p in self.POINTS]
        for nmax, points in _blocks(rng, shapes):
            yield self._op(rng, nmax, points)

    def warm_up_input(self):
        rng = random.Random(f"{self.name}:warm-up:{self.seed}")
        return self._op(rng, min(self.NMAX), min(self.POINTS))

    def run(self, op: CertifyOp) -> list[tuple[int, str]]:
        power = ["--mode", "power", "--epsilon", repr(op.epsilon),
                 "--even-cap-fraction", repr(op.even_fraction), "--even-side", op.even_side]
        calls = [
            ["verify", "--suite", "all", "--nmax", str(op.nmax), "--points", str(op.points)],
            ["check-theorem1", *power, "--odd-cap-fraction", repr(op.odd_fraction),
             "--odd-side", op.odd_side],
            ["check-theorem2", *power],
            ["check-theorem2", "--mode", "gamma-line", "--gamma", repr(op.gamma)],
        ]
        return [_run_cli(argv) for argv in calls]

    def check(self, op: CertifyOp, raw: list[tuple[int, str]]) -> Outcome:
        size = sum(len(payload) for _, payload in raw)
        for (code, payload), (want_code, want_verdict) in zip(raw, self.EXPECTED):
            body = json.loads(payload)
            name = body["command"]
            if code != want_code:
                return Outcome(size, False, f"{name}: exit code {code}, expected {want_code}")
            if want_verdict is None:
                checks = body["checks"]
                if not checks or not all(c["passed"] for c in checks):
                    return Outcome(size, False, "verify: a payload check failed")
            elif body["verdict"] != want_verdict:
                return Outcome(size, False,
                               f"{name}: verdict {body['verdict']}, expected {want_verdict}")
        return Outcome(size, True)


# ----------------------------------------------------------------------
# point-queries

@dataclass(frozen=True)
class PointOp:
    n: int
    side: str
    value: float
    kind: str  # "regular", "square" (perfect-square coordinate), "near-diagonal"


@dataclass(frozen=True)
class PointValues:
    norm: float
    dist: float
    inner: float
    cross: dict
    kato: float
    bound: float


CROSS_INDICES = range(1, 17)


def _square_choices() -> list[tuple[int, int, str]]:
    """(n, m, side) with coordinate m^2 feasible on curve n and <f, sin(m x)>
    not a structural zero, so the cross product lands on its resonance."""
    out = []
    for n in range(2, 31):
        for m in CROSS_INDICES:
            if m == n or (m % 2 == 0 and (n % 2 == 1 or m < n)):
                continue
            for side in ("alpha", "beta"):
                shift = n if n % 2 == 0 else (n + 1 if side == "alpha" else n - 1)
                if 2 * m - shift > 0:
                    out.append((n, m, side))
    return out


class PointQueries(Workload):
    """Library-level closed forms at one curve point per op.

    In every block of 100 ops, 5 points carry a perfect-square coordinate
    (``--alpha 9`` as typed by users), which puts one cross product on its
    resonance m^2 = alpha or beta and sends it to the quadrature fallback,
    and 2 lie within TAU_SING of the diagonal, which sends every
    same-index quantity there.  These 7 slow ops set the p99 tail, far
    from its boundary; the other 93 set the median.
    """

    name = "point-queries"
    N_RANGE = (2, 60)
    RATIO_RANGE = (1.02, 2.0)
    BLOCK = ["regular"] * 93 + ["square"] * 5 + ["near-diagonal"] * 2
    SQUARES = _square_choices()
    ORACLE_EVERY = 5000

    def _op(self, rng: random.Random, kind: str, n: int) -> PointOp:
        side = rng.choice(("alpha", "beta"))
        if kind == "near-diagonal":
            root = n + rng.uniform(1e-9, 9e-7)
        else:
            root = n * rng.uniform(*self.RATIO_RANGE)
        return PointOp(n, side, root * root, kind)

    def stream(self):
        # quadrature cost grows with n, so each kind deals its n (or its
        # square) from a deck of its own: every run sees the same mix
        rng = random.Random(f"{self.name}:{self.seed}")
        indices = list(range(self.N_RANGE[0], self.N_RANGE[1] + 1))
        decks = {kind: _blocks(rng, indices) for kind in ("regular", "near-diagonal")}
        squares = _blocks(rng, self.SQUARES)
        for kind in _blocks(rng, self.BLOCK):
            if kind == "square":
                n, m, side = next(squares)
                yield PointOp(n, side, float(m * m), kind)
            else:
                yield self._op(rng, kind, next(decks[kind]))

    def warm_up_input(self):
        rng = random.Random(f"{self.name}:warm-up:{self.seed}")
        return self._op(rng, "regular", rng.randint(*self.N_RANGE))

    def run(self, op: PointOp) -> PointValues:
        cf = fucik.closedform
        p = fucik.spectrum.complete_point(op.n, **{op.side: op.value})
        return PointValues(
            norm=cf.norm_sq(p).value,
            dist=cf.dist_sq_to_sine(p).value,
            inner=cf.inner_same_index(p).value,
            cross={m: cf.inner_cross_index(p, m).value for m in CROSS_INDICES if m != op.n},
            kato=fucik.nearness.kato_weakened_term(p),
            bound=fucik.nearness.bound_Cn(p.n, p.alpha, p.beta),
        )

    def check(self, op: PointOp, raw: PointValues) -> Outcome:
        norm, dist, inner, kato, bound = raw.norm, raw.dist, raw.inner, raw.kato, raw.bound
        polarization = abs(inner - 0.5 * (norm + math.pi / 2 - dist))
        if not polarization <= POLARIZATION_TOL:
            return Outcome(0, False, f"polarization defect {polarization:.3e}")
        if not 0.0 < norm <= math.pi / 2 + BOUND_SLACK:
            return Outcome(0, False, f"norm {norm!r} outside (0, pi/2]")
        if not -BOUND_SLACK <= dist <= bound + BOUND_SLACK:
            return Outcome(0, False, f"dist {dist!r} outside [0, C_n = {bound!r}]")
        if not 0.0 <= kato <= dist + BOUND_SLACK:
            return Outcome(0, False, f"Kato term {kato!r} outside [0, dist]")
        return Outcome(0, True)

    def wants_oracle(self, index, op):
        return index % self.ORACLE_EVERY == 0 or (op.kind != "regular" and index < 400)

    def oracle_check(self, op: PointOp, raw: PointValues) -> str:
        f = fucik.build(fucik.complete_point(op.n, **{op.side: op.value}))
        bp = fucik.breakpoints(f)
        sine = fucik.SineMode(op.n)

        def diff(x):
            return f(x) - sine(x)

        pairs = [
            ("norm_sq", raw.norm, fucik.inner_numeric(f, f, bp)),
            ("dist_sq", raw.dist, fucik.inner_numeric(diff, diff, bp)),
            ("inner_same", raw.inner, fucik.inner_numeric(f, sine, bp)),
        ]
        for m, value in raw.cross.items():
            pairs.append((f"inner_cross_{m}", value,
                          fucik.inner_numeric(f, fucik.SineMode(m), bp)))
        for label, closed, oracle in pairs:
            if not abs(closed - oracle) <= ORACLE_TOL:
                return f"{label}: closed form {closed!r} vs oracle {oracle!r}"
        return ""


WORKLOADS = {w.name: w for w in (GramScan, Certify, PointQueries)}
