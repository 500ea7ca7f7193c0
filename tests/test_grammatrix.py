"""Gram truncations, their exact assembly, and the scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fucik import closedform as cf
from fucik import eigenfunction as ef
from fucik import grammatrix as gm
from fucik import nearness as nr
from fucik import paleywiener as pw
from fucik.eigenfunction import breakpoints, build, bump_table
from fucik.spectrum import FucikPoint, complete_point, curve_residual, gamma_line_point

PI = math.pi


# ----------------------------------------------------------------------
# Gram assembly

def test_all_diagonal_gram_is_scaled_identity():
    g = gm.build_gram(nr.FinitePerturbation(()), 8)
    assert np.allclose(g.entries, np.eye(8) * PI / 2, atol=0.0)
    lo, hi = gm.extreme_eigenvalues(g)
    assert (lo, hi) == (pytest.approx(1.0, abs=1e-14), pytest.approx(1.0, abs=1e-14))


def test_vanishing_rows_for_odd_perturbation():
    # an odd-index eigenfunction is orthogonal to every even sine, so with
    # only n = 3 perturbed the even rows are exactly (pi/2) e_i
    p3 = complete_point(3, alpha=13.0)
    system = nr.FinitePerturbation((p3,))
    g = gm.build_gram(system, 4)
    m = g.entries
    assert m[1, 1] == PI / 2 and m[3, 3] == PI / 2
    assert m[1, 0] == m[1, 2] == m[1, 3] == 0.0
    assert m[3, 0] == m[3, 2] == 0.0 and m[3, 1] == 0.0
    # the odd rows couple: <f_3, sin x> is a genuine closed-form value
    assert m[2, 0] == pytest.approx(cf.inner_cross_index(p3, 1).value, abs=1e-15)
    assert m[2, 2] == pytest.approx(cf.norm_sq(p3).value, abs=1e-15)


def test_even_perturbation_couples_to_odd_sines():
    # the reverse direction does not vanish: an even-index eigenfunction
    # has genuine components along the odd sines
    p2 = complete_point(2, alpha=9.0)
    g = gm.build_gram(nr.FinitePerturbation((p2,)), 3)
    m = g.entries
    assert abs(m[0, 1]) > 0.5  # <sin x, f_2> is far from zero
    assert m[0, 1] == pytest.approx(cf.inner_cross_index(p2, 1).value, abs=1e-15)
    assert m[0, 2] == 0.0  # sine-sine entries stay exact zeros


def test_gram_diagonal_matches_closedform():
    system = nr.GammaLine(5.0)
    g = gm.build_gram(system, 6)
    for i in (2, 4, 6):
        want = cf.norm_sq(system.point(i)).value
        assert g.entries[i - 1, i - 1] == pytest.approx(want, abs=1e-12)
    for i in (1, 3, 5):
        assert g.entries[i - 1, i - 1] == PI / 2


def test_gram_symmetry_and_quadrature_entries():
    from fucik.eigenfunction import breakpoints, build
    from fucik.quadrature import inner_numeric
    system = nr.GammaLine(5.0)
    g = gm.build_gram(system, 12)
    m = g.entries
    assert np.max(np.abs(m - m.T)) == 0.0
    # every eigenfunction pair, integrated exactly by assembly
    for i in range(2, 13, 2):
        for j in range(i + 2, 13, 2):
            fi, fj = build(system.point(i)), build(system.point(j))
            direct = inner_numeric(
                fi, fj, np.sort(np.concatenate((breakpoints(fi), breakpoints(fj)))), 1e-12)
            assert m[i - 1, j - 1] == pytest.approx(direct, abs=1e-11), (i, j)


def _pair_reference(p, q):
    """Per-pair exact product: union of both junction sets, one sinc form per piece.

    It finds the bump that holds each point with its own arithmetic
    (``local``), so it checks :func:`fucik.eigenfunction.local_waves` as
    well as the product kernel.
    """
    f, g = build(p), build(q)
    x = np.union1d(breakpoints(f), breakpoints(g))
    h = np.diff(x)
    mid = x[:-1] + h / 2

    def local(e):
        length = e.l1 + e.l2
        k = np.minimum(np.floor(mid / length), max(math.ceil(PI / length) - 1, 0))
        t = mid - k * length
        pos = t < e.l1
        return (np.where(pos, e.positive_amplitude, -e.negative_amplitude),
                np.where(pos, e.point.sqrt_alpha, e.point.sqrt_beta),
                np.where(pos, t, t - e.l1))

    a, w, s = local(f)
    b, v, t = local(g)
    minus = np.cos(w * s - v * t) * np.sinc((w - v) * h / (2 * PI))
    plus = np.cos(w * s + v * t) * np.sinc((w + v) * h / (2 * PI))
    return float(0.5 * np.sum(a * b * h * (minus - plus)))


def _scalar_gram(system, N):
    """The loop route: one scalar call per entry (reference).

    Eigenfunction pairs come from :func:`_pair_reference`, not from
    :func:`fucik.closedform.pair_products`, so the route is independent.
    """
    points = {i: system.point(i) for i in range(1, N + 1)}
    m = np.zeros((N, N))
    for i in range(1, N + 1):
        for j in range(i, N + 1):
            p, q = points[i], points[j]
            if p.case == "diagonal" and q.case == "diagonal":
                m[i - 1, j - 1] = PI / 2 if i == j else 0.0
            elif i == j:
                m[i - 1, j - 1] = cf.norm_sq(p).value
            elif p.case == "diagonal":
                m[i - 1, j - 1] = cf.inner_cross_index(q, i).value
            elif q.case == "diagonal":
                m[i - 1, j - 1] = cf.inner_cross_index(p, j).value
            else:
                m[i - 1, j - 1] = _pair_reference(p, q)
            m[j - 1, i - 1] = m[i - 1, j - 1]
    return m


_BATCH_SYSTEMS = [
    *[(nr.GammaLine(g), n) for g in (4.2, 5.0, 5.6) for n in (8, 33, 64, 128)],
    (nr.PowerFamily(epsilon=0.5, even=nr.BranchRule(cap_fraction=0.5),
                    odd=nr.BranchRule(c=0.3, side="beta")), 40),
    # sqrt(alpha) = 6 on the positive bumps of f_4 and f_5 and sqrt(beta) = 6
    # on the negative bump of f_3: pieces where both factors share a frequency
    (nr.FinitePerturbation((complete_point(3, beta=36.0), complete_point(4, alpha=36.0),
                            complete_point(5, alpha=36.0))), 10),
    (nr.FinitePerturbation((complete_point(3, alpha=13.0), complete_point(4, alpha=20.0),
                            complete_point(5, beta=31.0), complete_point(9, alpha=90.0))), 12),
    # a Theorem-2 system: every eigenfunction pair is even
    (nr.PowerFamily(epsilon=0.5, even=nr.BranchRule(c=1.0)), 40),
    # f_4 and f_8 share one profile, and f_6 lies on the beta side
    (nr.FinitePerturbation((complete_point(4, alpha=36.0), complete_point(6, beta=50.0),
                            complete_point(7, alpha=60.0), complete_point(8, alpha=144.0))), 10),
]


@pytest.mark.parametrize("system, N", _BATCH_SYSTEMS,
                         ids=[f"{s}-N{n}" for s, n in _BATCH_SYSTEMS])
def test_batched_gram_matches_scalar_route(system, N):
    batched = gm.build_gram(system, N).entries
    scalar = _scalar_gram(system, N)
    assert np.max(np.abs(batched - scalar)) <= 1e-13
    # structural zeros stay exact zeros, and no other entry vanishes
    assert np.array_equal(batched == 0.0, scalar == 0.0)


@pytest.mark.parametrize("system", [
    nr.GammaLine(5.55),
    nr.PowerFamily(epsilon=0.5, even=nr.BranchRule(cap_fraction=0.5)),
    _BATCH_SYSTEMS[-1][0],
], ids=["gamma-line", "power", "finite"])
def test_gram_entries_do_not_depend_on_the_order(system):
    # each pair's product is summed on its own, not padded to the widest
    # pair of its chunk, so every truncation is the leading block of the
    # largest one, byte for byte
    full = gm.build_gram(system, gm.MAX_ORDER).entries
    for N in (4, 8, 16, 32, 48, 64, 128, 256):
        assert gm.build_gram(system, N).entries.tobytes() == full[:N, :N].tobytes(), N


@st.composite
def _dilated_pairs(draw):
    """Curve indices 2a < 2b <= 128 with gcd(a, b) > 1."""
    d = draw(st.integers(2, 32))
    b = draw(st.integers(2, 64 // d))
    a = draw(st.integers(1, b - 1))
    return 2 * a * d, 2 * b * d


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(4.2, pw.GAMMA_MAX), pair=_dilated_pairs())
def test_pair_products_obey_the_dilation_identity(gamma, pair):
    # f_2a(x) = F(a x) with F pi-periodic, so the kernel itself must give
    # G(2a, 2b) = G(2a/d, 2b/d) for d = gcd(a, b): build_gram relies on it
    n, m = pair
    d = math.gcd(n, m) // 2
    table = bump_table([gamma_line_point(k, gamma) for k in (n, m, n // d, m // d)])
    dilated, primitive = cf.pair_products(table, [0, 2], [1, 3])
    assert abs(dilated - primitive) <= 1e-13


@pytest.mark.parametrize("gamma", [4.84, 5.0, 5.55, 4.000000000008001])
def test_gamma_line_gram_matches_its_direct_assembly(gamma):
    # the kernel of a pair depends on its rows, not on the system type, so
    # the same even points as a finite perturbation give the same bytes; at
    # gamma = 4.000000000008001 some even rows are diagonal, and are sines
    # in both
    line = nr.GammaLine(gamma)
    direct = nr.FinitePerturbation(tuple(line.point(n) for n in range(2, 129, 2)))
    copied = gm.build_gram(line, 128).entries
    assert copied.tobytes() == gm.build_gram(direct, 128).entries.tobytes()


def test_theorem2_pairs_take_the_profile_kernel(monkeypatch):
    # every odd row of a Theorem-2 system is a sine, so no pair of its
    # eigenfunctions merges junctions
    def refuse(*args):
        raise AssertionError("pair_products called")
    monkeypatch.setattr(cf, "pair_products", refuse)
    for system in (nr.PowerFamily(0.5, even=nr.BranchRule(c=1.0)), nr.GammaLine(5.0)):
        gm.build_gram(system, 64)


def _rules():
    return st.one_of(
        st.none(),
        st.builds(lambda c, side: nr.BranchRule(c=c, side=side),
                  st.floats(0.0, 2.0), st.sampled_from(("alpha", "beta"))),
        st.builds(lambda f, side: nr.BranchRule(cap_fraction=f, side=side),
                  st.floats(0.0, 1.0), st.sampled_from(("alpha", "beta"))))


@st.composite
def _perturbations(draw):
    """Finite perturbations with up to six entries of any index up to 80,
    some of them beyond the truncation and some on the diagonal."""
    entries = []
    for n in draw(st.lists(st.integers(2, 80), max_size=6, unique=True)):
        r = draw(st.sampled_from((1.0, 1.001, 1.3, 1.9)))
        side = draw(st.sampled_from(("alpha", "beta")))
        entries.append(complete_point(n, **{side: (n * r) ** 2}))
    return nr.FinitePerturbation(tuple(entries))


_SPECS = {
    "gamma-line": st.builds(nr.GammaLine, st.floats(pw.GAMMA_MIN, pw.GAMMA_MAX)),
    "power": st.builds(nr.PowerFamily, st.floats(0.05, 20.0), _rules(), _rules()),
    "finite": _perturbations(),
}


@pytest.mark.parametrize("kind", list(_SPECS))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), N=st.integers(1, 64))
def test_every_index_outside_the_candidates_is_a_sine(kind, data, N):
    # build_gram builds only the candidate points and takes every other
    # index as sin(n x); that is sound only if the system's own point
    # there is diagonal
    system = data.draw(_SPECS[kind])
    listed = list(system._candidate_indices(N))
    assert listed == sorted(set(listed)) and set(listed) <= set(range(1, N + 1))
    for n in set(range(1, N + 1)) - set(listed):
        assert system.point(n).case == "diagonal", n


def test_build_gram_builds_only_the_candidate_points(monkeypatch):
    calls = []
    for spec in (nr.GammaLine, nr.FinitePerturbation):
        def counted(self, n, point=spec.point):
            calls.append(n)
            return point(self, n)
        monkeypatch.setattr(spec, "point", counted)
    gm.build_gram(nr.GammaLine(5.0), 64)
    assert calls == list(range(2, 65, 2))
    calls.clear()
    pair = nr.FinitePerturbation((complete_point(7, beta=60.0), complete_point(4, alpha=20.0)))
    gm.build_gram(pair, 512)
    assert calls == [4, 7]


def test_profile_kernel_grams_never_build_junction_rows(monkeypatch):
    # only pair_products and the quadrature oracle read the junction rows
    def refuse(*args):
        raise AssertionError("junction rows built")
    monkeypatch.setattr(ef, "junctions", refuse)
    for system in (nr.GammaLine(5.0), nr.PowerFamily(0.5, even=nr.BranchRule(c=1.0))):
        gm.build_gram(system, 64)
    with pytest.raises(AssertionError, match="junction rows"):
        gm.build_gram(nr.FinitePerturbation((complete_point(3, alpha=13.0),
                                             complete_point(4, alpha=20.0))), 8)


def test_an_entry_off_its_curve_merges_junctions():
    # 9e-10 off its curve (TAU_CURVE is 1e-9), f_4 is not a dilate of a
    # pi-periodic profile: its two bump pairs end 9e-10 short of pi, so the
    # profile kernel would be off by about 6e-10 on the pair (4, 6)
    off = FucikPoint(4, 36.0, 9.0 + 7.7e-9)
    assert 8e-10 < -curve_residual(off) < 1e-9
    on = complete_point(6, alpha=50.0)
    entry = gm.build_gram(nr.FinitePerturbation((off, on)), 8).entries[3, 5]
    table = bump_table([off, on])
    assert entry == cf.pair_products(table, [0], [1])[0]
    assert abs(entry - _pair_reference(off, on)) <= 1e-13
    assert abs(cf.dilation_products(table, [0], [1])[0] - entry) > 1e-10


@pytest.mark.parametrize("gap, short_max, profiled", [(7.7e-14, 1e-14, True),
                                                      (7.7e-12, 1e-12, False)])
def test_entries_next_to_the_period_slack_keep_their_accuracy(gap, short_max, profiled):
    # f_4 9e-15 short of pi takes the profile kernel, which misses its
    # product as built by about 0.7 times the shortfall; 9e-13 short, the
    # profile kernel would miss by 6e-13, so it merges junctions
    off, on = FucikPoint(4, 36.0, 9.0 + gap), complete_point(6, alpha=50.0)
    table = bump_table([off, on])
    assert 0.8 * short_max < np.pi - 2 * table.l[0] < short_max
    entry = gm.build_gram(nr.FinitePerturbation((off, on)), 8).entries[3, 5]
    kernel = cf.dilation_products if profiled else cf.pair_products
    assert entry == kernel(table, [0], [1])[0]
    assert abs(entry - _pair_reference(off, on)) <= 1e-13


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(gamma=st.floats(pw.GAMMA_MIN, pw.GAMMA_MAX), N=st.integers(2, 40),
       k=st.integers(1, 40))
def test_gram_properties(gamma, N, k):
    g = gm.build_gram(nr.GammaLine(gamma), N)
    m = g.entries
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) <= PI / 2)
    eig = np.linalg.eigvalsh(g.normalization * m)
    assert eig[0] >= -1e-12
    # Cauchy interlacing: the leading k x k block sits inside the full spectrum
    k = min(k, N)
    sub = np.linalg.eigvalsh(g.normalization * m[:k, :k])
    assert np.all(eig[:k] <= sub + 1e-13)
    assert np.all(sub <= eig[N - k:] + 1e-13)


def test_gamma_line_extremes_shrink_and_grow_together():
    """lambda_min * lambda_max of a dilation line stays within 0.5% of its
    N = 4 value up to N = 512, so lambda_min falls as fast as lambda_max grows.

    Measured, not proved: the largest drift on this grid is 0.31%, at
    gamma = 5.682 (0.71108 at N = 4, 0.70889 at N = 512).  A power family
    shows no such constant (c = 1: 0.434, 0.532, 0.566 at N = 8, 64, 256).
    """
    for gamma in (4.05, 4.5, 5.0, 5.682):
        scan = gm.riesz_scan(nr.GammaLine(gamma), [4, 16, 64, 256, 512])
        products = [lo * hi for _, lo, hi in scan]
        assert max(abs(p / products[0] - 1) for p in products) < 5e-3, (gamma, products)


def test_gram_workers_deterministic():
    system = nr.GammaLine(5.0)
    serial = gm.build_gram(system, 8, max_workers=1)
    threaded = gm.build_gram(system, 8, max_workers=4)
    assert np.array_equal(serial.entries, threaded.entries)


def test_build_gram_validates_order():
    with pytest.raises(ValueError):
        gm.build_gram(nr.FinitePerturbation(()), 0)
    with pytest.raises(ValueError):
        gm.build_gram(nr.FinitePerturbation(()), 513)
    # a fraction, NaN or infinity is refused with ValueError; an integral
    # float is the order it names
    for bad in (8.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="integer"):
            gm.build_gram(nr.GammaLine(5.0), bad)
    want = gm.build_gram(nr.GammaLine(5.0), 8).entries
    for order in (8.0, np.int64(8)):
        assert np.array_equal(gm.build_gram(nr.GammaLine(5.0), order).entries, want)


# ----------------------------------------------------------------------
# scans

def test_riesz_scan_all_diagonal():
    scan = gm.riesz_scan(nr.FinitePerturbation(()), [2, 4, 8])
    for n, lo, hi in scan:
        assert lo == pytest.approx(1.0, abs=1e-14)
        assert hi == pytest.approx(1.0, abs=1e-14)


def test_riesz_scan_interlacing():
    scan = gm.riesz_scan(nr.GammaLine(5.0), [4, 8, 16])
    los = [lo for _, lo, _ in scan]
    his = [hi for _, _, hi in scan]
    assert all(b <= a + 1e-13 for a, b in zip(los, los[1:]))
    assert all(b >= a - 1e-13 for a, b in zip(his, his[1:]))
    assert all(lo > 0 for lo in los)


def test_extreme_eigenvalues_rejects_nan_entry():
    m = np.eye(4) * PI / 2
    m[1, 2] = m[2, 1] = math.nan
    with pytest.raises(ValueError):
        gm.extreme_eigenvalues(gm.GramTruncation(entries=m))


def test_riesz_scan_matches_each_leading_block():
    # a repeated order gives the same row twice, and every row carries the
    # bits extreme_eigenvalues gives for its leading block
    system = nr.GammaLine(5.3)
    full = gm.build_gram(system, 16)
    sizes = [1, 8, 8, 16, 16]
    want = [(n, *gm.extreme_eigenvalues(gm.GramTruncation(full.entries[:n, :n])))
            for n in sizes]
    assert gm.riesz_scan(system, sizes) == want


@pytest.mark.parametrize("value", [1e-3, math.nan])
@pytest.mark.parametrize("row", [1, 5])
def test_riesz_scan_refuses_a_faulty_gram(monkeypatch, value, row):
    # the one symmetry check, on the largest order, also covers a fault
    # inside a smaller leading block
    m = np.eye(8) * PI / 2
    m[row, row + 1] = value
    monkeypatch.setattr(gm, "build_gram", lambda system, N: gm.GramTruncation(m))
    with pytest.raises(ValueError, match="asymmetry"):
        gm.riesz_scan(nr.GammaLine(5.0), [4, 8])


def test_riesz_scan_requires_ascending():
    with pytest.raises(ValueError):
        gm.riesz_scan(nr.FinitePerturbation(()), [8, 4])


def test_riesz_scan_validates_orders():
    # refused before any work, with build_gram's message for a bad order
    with pytest.raises(ValueError, match="at least one"):
        gm.riesz_scan(nr.GammaLine(5.0), [])
    for sizes in ([0, 8], [8, 513], [4, -1], [4, 8.5], [math.nan]):
        with pytest.raises(ValueError, match=r"must lie in \[1, 512\]"):
            gm.riesz_scan(nr.GammaLine(5.0), sizes)
    # integral floats are the orders they name, and come back as ints
    scan = gm.riesz_scan(nr.GammaLine(5.0), [4.0, 8.0])
    assert scan == gm.riesz_scan(nr.GammaLine(5.0), [4, 8])
    assert all(type(n) is int for n, _, _ in scan)


def test_riesz_scan_runs_on_wild_system():
    # far beyond every criterion; the scan must still run and emit data
    entries = tuple(complete_point(n, alpha=float((2 * n) ** 2)) for n in (2, 4, 6, 8))
    scan = gm.riesz_scan(nr.FinitePerturbation(entries), [4, 8])
    assert len(scan) == 2


def test_nearness_consistency_bound():
    """A certified even-tail system obeys the perturbation lower bound
    lambda_min >= (1 - sqrt(2 r / pi))^2 for every truncation order."""
    system = nr.FinitePerturbation((complete_point(2, alpha=(2.05) ** 2),
                                    complete_point(4, alpha=(4.03) ** 2)))
    report = nr.theorem2_check(system)
    assert report.verdict == "riesz_basis_certified"
    r = report.r
    assert 2 * r / PI < 1
    floor = (1 - math.sqrt(2 * r / PI)) ** 2
    for n, lo, hi in gm.riesz_scan(system, [2, 4, 8, 16]):
        assert lo >= floor - 1e-12
