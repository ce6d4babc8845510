"""Exact moment integrals, coefficient formulas, and Monte Carlo estimators."""

import itertools
import random
import sys
import threading
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from math import exp, factorial, lcm, prod, sqrt, ulp

import numpy as np
import pytest
from scipy.stats import kstest

from zonalpoly import haar, moments, montecarlo, zonal
from zonalpoly.haar import (
    BLOCK,
    _quaternion_workspace,
    _quaternions,
    _realize,
    _workspace,
    sample_orthogonal_batch,
)
from zonalpoly.moments import (
    DiagonalSpec,
    bilinear_coefficient,
    exact_trace_power_integral,
    hyper0f0,
)
from zonalpoly.montecarlo import (
    LANES,
    mc_exponential_trace,
    mc_linear_trace_power,
    mc_splitting,
    mc_trace_power,
)
from zonalpoly.partitions import Partition, partitions_of
from zonalpoly.symfunc import MONOMIAL, SymPoly, _monomial_values, _row_dot
from zonalpoly.zonal import (
    character_degree,
    double_factorial,
    zonal_at_identity,
    zonal_in_powersums,
    zonal_row,
)

from oracles import (
    bilinear_reference,
    evaluate_by_terms,
    quaternion_matrices,
    quaternion_rotation,
    reflect_row_zero,
    residual_values,
    zonal_by_branching,
)
from test_cli import EXP_SERIES_DEGREE_20


class TestDiagonalSpec:
    def test_coercion(self):
        spec = DiagonalSpec.of((1, "1/2", Fraction(3, 4)))
        assert spec.eigenvalues == (1, Fraction(1, 2), Fraction(3, 4))
        assert DiagonalSpec.of(spec) is spec

    def test_floats(self):
        assert np.allclose(DiagonalSpec.of((1, "1/2")).floats(), [1.0, 0.5])

    @pytest.mark.parametrize(
        "call",
        [
            lambda e: DiagonalSpec.of(e),
            lambda e: exact_trace_power_integral(e, e, 2),
            lambda e: hyper0f0(e, e, 4),
            lambda e: mc_trace_power(e, e, 2, 10, 1),
            lambda e: mc_splitting((1,), e, e, 10, 1),
            lambda e: mc_linear_trace_power(e, 2, 10, 1),
            lambda e: mc_exponential_trace(e, e, 1.0, 10, 1),
        ],
        ids=["of", "exact", "hyper0f0", "mc-trace-power", "mc-splitting", "mc-linear", "mc-exp"],
    )
    def test_empty_spectrum_is_rejected(self, call):
        with pytest.raises(ValueError, match="^spectra must be nonempty$"):
            call(())


class TestNormalizingProduct:
    """The normalizing product n (n+2) ... (n+2f-2) is Z_(f)(I_n)."""

    def test_examples(self):
        assert zonal_at_identity((2,), 3) == 15
        assert zonal_at_identity((), 7) == 1
        assert zonal_at_identity((3,), 2) == 48

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            zonal_at_identity((1,), 0)
        with pytest.raises(ValueError):
            zonal_at_identity((-1,), 2)
        with pytest.raises(ValueError, match="n must be at least 1"):
            bilinear_coefficient(2, 0, (2,), (2,))


class TestExactTracePower:
    def test_zeroth_power(self):
        assert exact_trace_power_integral((1, 2), (3, 4), 0) == 1

    def test_first_power_formula(self):
        # single term: trace product over the dimension
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(1, 4)
            a = [Fraction(rng.randint(-3, 5), rng.randint(1, 3)) for _ in range(n)]
            b = [Fraction(rng.randint(-3, 5), rng.randint(1, 3)) for _ in range(n)]
            assert exact_trace_power_integral(a, b, 1) == sum(a) * sum(b) / n

    def test_rank_one_fourth_moment(self):
        assert exact_trace_power_integral((1, 0), (1, 0), 2) == Fraction(3, 8)

    def test_constant_integrand(self):
        assert exact_trace_power_integral((1, 1, 1), (1, 1, 1), 2) == 9

    def test_symmetry_and_permutation_invariance(self):
        a, b = (1, 2, 5), (Fraction(1, 2), 3, 0)
        val = exact_trace_power_integral(a, b, 3)
        assert exact_trace_power_integral(b, a, 3) == val
        assert exact_trace_power_integral((5, 2, 1), (3, 0, Fraction(1, 2)), 3) == val

    def test_homogeneity(self):
        a, b = (1, 3), (2, 5)
        base = exact_trace_power_integral(a, b, 3)
        scaled = exact_trace_power_integral([Fraction(2, 7) * x for x in a], b, 3)
        assert scaled == Fraction(2, 7) ** 3 * base

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            exact_trace_power_integral((1, 2), (1,), 1)


def _fraction_trace_power(a, b, f):
    """The trace-power integral by Fraction arithmetic on power-sum rows:
    the reference the integer path must equal."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    if f == 0:
        return Fraction(1)
    total = Fraction(0)
    for kappa in partitions_of(f):
        if len(kappa) > len(a):
            continue
        row = zonal_in_powersums(kappa)
        za = evaluate_by_terms(row, a)
        if za:
            zb = evaluate_by_terms(row, b)
            total += character_degree(kappa) * za * zb / zonal_at_identity(kappa, len(a))
    return Fraction(2**f * factorial(f), factorial(2 * f)) * total


def _fraction_linear_trace_power(spectrum, f):
    """The exact tr(A H)^f moment from A A' = diag(spectrum), the same way."""
    spectrum = [Fraction(x) for x in spectrum]
    total = Fraction(0)
    for kappa in partitions_of(f // 2):
        if len(kappa) <= len(spectrum):
            z = evaluate_by_terms(zonal_in_powersums(kappa), spectrum)
            total += character_degree(kappa) * z / zonal_at_identity(kappa, len(spectrum))
    return total


def exact_deviation(i1, i2, i3, i4, samples):
    """(sigma, se): the exact deviation of a statistic X from its raw moments
    E[X^k] = i_k, and the standard error sqrt(mu_4 - sigma^4) / (2 sigma sqrt(N))
    of the sample deviation of N draws, mu_4 the exact fourth central moment."""
    variance = i2 - i1**2
    mu4 = i4 - 4 * i3 * i1 + 6 * i2 * i1**2 - 3 * i1**4
    sigma = float(variance) ** 0.5
    return sigma, float(mu4 - variance**2) ** 0.5 / (2 * sigma * samples**0.5)


def fixed_order_sum(terms):
    """The sum of each row of a (count, k) array, added from column 0 up, separately rounded."""
    total = terms[:, 0]
    for column in terms[:, 1:].T:
        total = total + column
    return total


def lane_fold(blocks):
    """(shift, (count, mean, M2)) of one lane's stream of value blocks, folded as a lane does.

    Every value is taken less the stream's first, the shift; each block
    gives its count, its mean (sum over count) and the sum of its squared
    deviations from that mean; the block triples are merged left to right
    by the pairwise update of Chan, Golub and LeVeque.
    """
    shift, total = None, None
    for block in blocks:
        if shift is None:
            shift = float(block[0])
        x = block - shift
        mean = float(x.sum()) / len(x)
        deviation = x - mean
        part = (len(x), mean, float((deviation * deviation).sum()))
        total = part if total is None else merge_moments(total, part)
    return shift, total


def merge_moments(a, b):
    """The pairwise update of Chan, Golub and LeVeque of two (count, mean, M2) triples."""
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    n, delta = n_a + n_b, mean_b - mean_a
    return n, mean_a + delta * n_b / n, m2_a + m2_b + delta * delta * n_a * n_b / n


def lanes_fold(lanes):
    """(count, mean, M2) of a budget's lanes, each a stream of value blocks.

    Each lane is folded by ``lane_fold``; the lane triples, their means
    rebased to the first lane's shift, are merged in lane order, and that
    shift is added back to the mean.
    """
    folds = [lane_fold(blocks) for blocks in lanes]
    base = folds[0][0]
    rebased = [(k, (shift - base) + mean, m2) for shift, (k, mean, m2) in folds]
    total = rebased[0]
    for part in rebased[1:]:
        total = merge_moments(total, part)
    return total[0], base + total[1], total[2]


def lane_stacks(n, samples, seed):
    """Each lane's (size, n, n) stack of Haar draws, as an estimate draws them.

    Lane k runs on child k of ``Generator(SFC64(seed)).spawn(LANES)``; the
    first ``samples % LANES`` lanes take one draw more than
    ``samples // LANES``.  At n = 3 a lane's draws are F^b R(q) of its
    ``lane_quaternions``, R by the textbook formula.
    """
    if n == 3:
        return [reflect_row_zero(quaternion_rotation(q.T), signs < 0) for q, signs in lane_quaternions(samples, seed)]
    base, extra = divmod(samples, LANES)
    children = np.random.Generator(np.random.SFC64(seed)).spawn(LANES)[: min(LANES, samples)]
    return [sample_orthogonal_batch(n, base + (k < extra), gen) for k, gen in enumerate(children)]


def in_blocks(values, size):
    """``values`` cut into consecutive blocks of ``size``, the last one shorter."""
    return [values[s : s + size] for s in range(0, len(values), size)]


def lane_quaternions(samples, seed):
    """Each lane's (4, size) quaternions and (size,) reflection signs, as an estimate at n = 3 draws them.

    Lane k runs on child k of ``Generator(SFC64(seed)).spawn(LANES)`` and
    draws one (4, m) call of normals per block of BLOCK // 3 draws; a
    draw's sign is that of its w as drawn, and an all-zero q is then taken
    as (1, 0, 0, 0).
    """
    base, extra = divmod(samples, LANES)
    children = np.random.Generator(np.random.SFC64(seed)).spawn(LANES)[: min(LANES, samples)]
    lanes = []
    for k, gen in enumerate(children):
        sizes = [len(block) for block in in_blocks(range(base + (k < extra)), BLOCK // 3)]
        q = np.concatenate([gen.standard_normal((4, m)) for m in sizes], axis=1)
        signs = np.copysign(1.0, q[0])
        q[0, ~q.any(axis=0)] = 1.0
        lanes.append((q, signs))
    return lanes


def quaternion_draws(count, seed):
    """(stack, block): the ``haar._quaternions`` block of ``count`` draws on ``default_rng(seed)``,
    for count <= BLOCK // 3, and its draws F^b R(q) as a (count, 3, 3) stack (``quaternion_matrices``)."""
    block = next(_quaternions(count, np.random.default_rng(seed), _quaternion_workspace(count)))
    return quaternion_matrices(block), block.copy()


def statistic_draws(n, count, seed):
    """(stack, block): ``count`` Haar draws on ``default_rng(seed)`` as a (count, n, n) stack, and
    as the block a lane's statistic takes: the quaternion block at n = 3, else the draw-minor block."""
    if n == 3:
        return quaternion_draws(count, seed)
    q = sample_orthogonal_batch(n, count, np.random.default_rng(seed))
    return q, q.transpose(1, 2, 0).copy()


def exact_spectrum(values):
    """A float spectrum as its exact ``DiagonalSpec``."""
    return DiagonalSpec.of(Fraction(float(x)) for x in values)


def reduced_weights(w):
    """(c, v): sum_ij w_ij P_ij = c + sum_(i,j<2) v_ij P_ij over doubly stochastic 3 x 3 P, in Fractions,
    with v in the order 00, 01, 10, 11 times (1, 4, 4, 1), rounded once to floats."""
    c = w[0][2] + w[1][2] + w[2][0] + w[2][1] - w[2][2]
    v = [(w[i][j] - w[i][2] - w[2][j] + w[2][2]) * (1 if i == j else 4) for i in (0, 1) for j in (0, 1)]
    return float(c), [float(x) for x in v]


def quaternion_trace(q, a, b):
    """tr(D_a Q D_b Q') of the draws of (4, m) quaternions, in the n = 3 statistics' term order.

    With u = w^2 - z^2, v = x^2 - y^2 and the squares r of the leading minor
    of |q|^2 R, (u + v, xy - wz, xy + wz, u - v), the trace is
    c + (((v_0 r_0 + v_1 r_1) + v_2 r_2) + v_3 r_3) / |q|^4.
    """
    c, v = reduced_weights([[Fraction(x) * Fraction(y) for y in b] for x in a])
    w, x, y, z = q
    w2, x2, y2, z2 = q * q
    u, s = w2 - z2, x2 - y2
    norm = (w2 + z2) + (x2 + y2)
    minor = np.array([u + s, x * y - w * z, x * y + w * z, u - s])
    r = minor * minor
    return (((v[0] * r[0] + v[1] * r[1]) + v[2] * r[2]) + v[3] * r[3]) / (norm * norm) + c


def quaternion_linear_trace(q, signs, a):
    """tr(D_a H) of the draws H = F^b R(q) of (4, m) quaternions, in the n = 3 statistic's term order."""
    a0, a1, a2 = map(Fraction, a)
    c = [float(x) for x in (a0 + a1 + a2, a0 - a1 - a2, -a0 + a1 - a2, -a0 - a1 + a2)]
    sq = q * q
    low, high = sq[0] + sq[1], sq[2] + sq[3]
    total = ((c[0] * sq[0] + c[1] * sq[1]) + c[2] * sq[2]) + c[3] * sq[3]
    return (total - (1.0 - signs) * float(a0) * (low - high)) / (low + high)


#: The exact-moments benchmark spectra for seed 1 (n = 4, 8, 10), and the
#: n = 30 spectra of the large-n Monte Carlo benchmark for seed 1.
BENCHMARK_SPECTRA = {
    4: ("3/4,4,9,1/2", "3/2,2/3,8/3,9"),
    8: ("5/2,8/3,5,9/4,5/4,2/3,8,1/4", "9/4,7/3,9/2,1/4,5/2,3/2,4/3,2/3"),
    10: ("7/4,1/4,8,7,5,7/2,6,9/4,5/4,7/3", "8,1/4,3,4/3,5/2,8/3,7/2,6,2,4"),
    30: (
        "3/4,4,1/2,3/2,2/3,8/3,5/2,9/2,9/4,5/4,1/3,4/3,1/4,7/2,2,5/3,3,7/3,7,1,8,6,9,5,7/4,1/4,7/3,8,5/3,1",
        "7/3,8,1/4,3,4/3,5/2,8/3,7/2,5,2,2/3,7/4,9/2,6,3/4,7,5/4,1/3,4,1,1/2,5/3,9,3/2,9/4,9/4,7,3/4,4/3,9",
    ),
}


def _benchmark_spectra(n):
    return tuple([Fraction(x) for x in side.split(",")] for side in BENCHMARK_SPECTRA[n])


#: Spectra with zeros, negative entries and mixed denominators; take the first n.
MIXED_SPECTRA = (
    (0, Fraction(-3, 4), Fraction(5, 6), 2, Fraction(-7, 3)),
    (Fraction(2, 9), -1, 0, Fraction(11, 4), Fraction(1, 6)),
    (Fraction(-5, 2), Fraction(1, 7), 3, Fraction(-1, 5), 0),
)


class TestIntegerEvaluation:
    """The integer monomial path against the orbit sum and the Fraction path."""

    @pytest.mark.parametrize("n", (1, 2, 3, 5))
    def test_zonal_values_match_orbit_sum(self, n):
        for pool in MIXED_SPECTRA:
            xs = [Fraction(x) for x in pool[:n]]
            scale, values = _monomial_values(xs, 7)
            assert scale == lcm(*(x.denominator for x in xs))
            ys = [scale * x for x in xs]
            want_keys = {lam for w in range(8) for lam in partitions_of(w) if len(lam) <= n}
            assert set(values) == want_keys
            for lam, m in values.items():
                assert m == evaluate_by_terms(SymPoly(sum(lam), MONOMIAL, {lam: 1}), ys), lam
            for f in range(1, 8):
                for kappa in partitions_of(f):
                    row = zonal_row(kappa)
                    got = Fraction(_row_dot(row, values), scale**f)
                    assert got == evaluate_by_terms(row, xs), (xs, kappa)

    @pytest.mark.parametrize(
        "n, degrees",
        ((4, range(7)), (8, (1, 6)), (10, (1, 6)), (30, range(4))),
    )
    def test_trace_power_matches_fraction_path(self, n, degrees):
        a, b = _benchmark_spectra(n)
        for f in degrees:
            assert exact_trace_power_integral(a, b, f) == _fraction_trace_power(a, b, f), f

    @pytest.mark.parametrize("n", (1, 2, 3, 5))
    def test_trace_power_matches_fraction_path_on_mixed_spectra(self, n):
        a, b = MIXED_SPECTRA[0][:n], MIXED_SPECTRA[1][:n]
        for f in range(6):
            assert exact_trace_power_integral(a, b, f) == _fraction_trace_power(a, b, f), f

    @pytest.mark.parametrize(
        "a, b, degree",
        ((*_benchmark_spectra(4), 10), (MIXED_SPECTRA[0][:3], MIXED_SPECTRA[2][:3], 8)),
        ids=("benchmark-n4", "mixed-n3"),
    )
    def test_hyper0f0_terms_match_fraction_path(self, a, b, degree):
        want = tuple(
            _fraction_trace_power(a, b, f) / (2**f * factorial(f)) for f in range(degree + 1)
        )
        assert hyper0f0(a, b, degree).terms == want

    @pytest.mark.parametrize(
        "a, b",
        (tuple(side[:3] for side in _benchmark_spectra(4)), (MIXED_SPECTRA[0][:3], MIXED_SPECTRA[2][:3])),
        ids=("benchmark-n3", "mixed-n3"),
    )
    def test_hyper0f0_terms_on_capped_rows_match_full_rows(self, a, b, monkeypatch):
        # rows capped at n = 3 parts against the full rows of every degree to 16
        capped = hyper0f0(a, b, 16).terms
        monkeypatch.setattr(moments, "_capped_row", lambda kappa, n: zonal_row(kappa))
        assert capped == hyper0f0(a, b, 16).terms

    @pytest.mark.parametrize("n", (4, 30))
    def test_linear_trace_power_matches_fraction_path(self, n):
        a, _ = _benchmark_spectra(n)
        for f in (2, 4):
            report = mc_linear_trace_power(a, f, 2, 0)
            assert report.exact_value == _fraction_linear_trace_power([x * x for x in a], f)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_spectra_give_n_to_the_f(self, n):
        # tr(Q Q') = n on every draw: this holds only if the table's D, chi(kappa)
        # and Z_kappa(I_n) are right
        for f in range(11):
            assert exact_trace_power_integral([1] * n, [1] * n, f) == n**f, f

    def test_character_table_holds_partitions_and_ints_only(self):
        for f in range(1, 9):
            for n in range(1, 7):
                d, weights = moments._character_table(f, n)
                assert type(d) is int
                assert all(type(kappa) is Partition and type(w) is int for kappa, w in weights)

    def test_threads_racing_on_cold_tables_agree(self):
        # lru_cache may build a table once per racing thread: every copy must serve
        moments._character_table.cache_clear()
        results = []

        def work():
            results.append([exact_trace_power_integral([1] * 5, [1] * 5, f) for f in range(1, 9)])

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[5**f for f in range(1, 9)]] * len(threads)

    def test_exact_values_never_change_basis(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the exact path must not take this route")

        # exact values read monomial rows only: no basis change, no power-sum form
        monkeypatch.setattr(zonal, "m_to_p", forbidden)
        monkeypatch.setattr(montecarlo, "zonal_in_powersums", forbidden)
        a, b = MIXED_SPECTRA[0][:3], MIXED_SPECTRA[1][:3]
        values = [
            exact_trace_power_integral(a, b, 4),
            *hyper0f0(a, b, 6).terms,
            moments._splitting_value(Partition((2, 1)), DiagonalSpec.of(a), DiagonalSpec.of(b)),
            mc_linear_trace_power((2, Fraction(1, 3)), 4, 2, 0).exact_value,
            bilinear_coefficient(3, 3, (2, 1), (1, 1, 1)),
        ]
        # Z_kappa(I_n) is an int, so every exact value must still be a Fraction
        assert [type(v) for v in values] == [Fraction] * len(values)


class TestBilinearCoefficients:
    @pytest.mark.parametrize("n", (2, 3, 4, 5))
    @pytest.mark.parametrize("f", (1, 2, 3, 4))
    def test_closed_forms_for_extreme_pairs(self, f, n):
        c = zonal_at_identity((f,), n)
        top = bilinear_coefficient(f, n, (f,), (f,))
        assert top == Fraction(double_factorial(2 * f - 1), c)
        corner = bilinear_coefficient(f, n, (f,), (1,) * f)
        assert corner == Fraction(factorial(f), c)

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
    @pytest.mark.parametrize("f", (1, 2, 3, 4, 5, 6))
    def test_every_pair_matches_the_fraction_reference(self, f, n):
        # pairs with more than n parts too, whose rows are capped at max(n, len g, len h)
        parts = partitions_of(f)
        for g in parts:
            for h in parts:
                assert bilinear_coefficient(f, n, g, h) == bilinear_reference(f, n, g, h), (g, h)

    def test_symmetric_in_gh(self):
        assert bilinear_coefficient(3, 3, (2, 1), (1, 1, 1)) == bilinear_coefficient(
            3, 3, (1, 1, 1), (2, 1)
        )

    def test_agrees_with_rank_one_integral(self):
        assert bilinear_coefficient(2, 2, (2,), (2,)) == Fraction(3, 8)

    @pytest.mark.parametrize("n", (1, 2, 3, 4))
    def test_degree_zero_is_one(self, n):
        # the f = 0 integral is 1 = m_() m_(): the coefficient of the empty pair
        assert bilinear_coefficient(0, n, (), ()) == Fraction(1)

    @pytest.mark.parametrize("n", (2, 3, 4))
    @pytest.mark.parametrize("f", (1, 2, 3, 4))
    def test_reconstructs_integral(self, f, n):
        rng = random.Random(10 * f + n)
        beta = [Fraction(rng.randint(-2, 4), rng.randint(1, 3)) for _ in range(n)]
        ell = [Fraction(rng.randint(-2, 4), rng.randint(1, 3)) for _ in range(n)]
        total = Fraction(0)
        for g in partitions_of(f):
            mg = evaluate_by_terms(SymPoly(f, MONOMIAL, {g: 1}), beta)
            if not mg:
                continue
            for h in partitions_of(f):
                mh = evaluate_by_terms(SymPoly(f, MONOMIAL, {h: 1}), ell)
                if mh:
                    total += bilinear_coefficient(f, n, g, h) * mg * mh
        assert total == exact_trace_power_integral(beta, ell, f)

    def test_top_normalization_consistency(self):
        # the single-row tensor square accounts exactly for the extreme
        # coefficients once the common denominator is cleared
        for f in (1, 2, 3, 4):
            for n in (2, 3):
                c = zonal_at_identity((f,), n)
                dfac = double_factorial(2 * f - 1)
                assert dfac * c * bilinear_coefficient(f, n, (f,), (f,)) == dfac**2
                assert dfac * c * bilinear_coefficient(
                    f, n, (f,), (1,) * f
                ) == dfac * factorial(f)
                top = zonal_row(Partition((f,)))
                assert top.coefficient((f,)) * top.coefficient((f,)) == dfac**2
                assert top.coefficient((f,)) * top.coefficient((1,) * f) == dfac * factorial(f)


class TestResidualCoefficients:
    def test_values_depend_on_dimension(self):
        # documented inconsistency: clearing the common factor does not
        # remove the dimension from the lower coefficient families
        values = dict(residual_values(2, (1, 1), (1, 1), (2, 3, 4)))
        assert values == {2: 32, 3: 20, 4: 16}

    @pytest.mark.parametrize("f", range(2, 5))
    def test_every_residual_depends_on_dimension(self, f):
        # why no dimension-free residual coefficient is offered: none exists
        lower = [g for g in partitions_of(f) if g != (f,)]
        for g in lower:
            for h in lower:
                values = {v for _, v in residual_values(f, g, h, (f, f + 1, f + 2))}
                assert len(values) > 1, (g, h)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            residual_values(2, (2,), (1, 1), (2, 3))

    def test_degree_one_has_no_valid_inputs(self):
        with pytest.raises(ValueError):
            residual_values(1, (1,), (1,), (1, 2))


class TestMcTracePower:
    def test_first_power(self):
        report = mc_trace_power((1, 2), (3, 1), 1, 30_000, 7)
        assert report.exact_value == 6
        assert abs(report.z_score) <= 3

    @pytest.mark.parametrize("n, scale", ((3, 10**52), (30, 10**5)), ids=("n3", "n30"))
    def test_spectra_whose_product_has_no_float(self, n, scale):
        # prod a_i prod b_j is beyond the float range, but p_1 is not: only
        # Newton's identities read that product, so trace-power and
        # zonal-split at kappa = (1,), which take p_1 alone, still estimate
        a = [Fraction(k + 1) * scale for k in range(n)]
        b = a[::-1]
        with pytest.raises(OverflowError):
            float(prod(a) * prod(b))
        for report in (mc_trace_power(a, b, 1, 2_000, 3), mc_splitting((1,), a, b, 2_000, 3)):
            assert np.isfinite(report.mc_estimate)
            assert abs(report.z_score) <= 4

    def test_zeroth_power_degenerate(self):
        report = mc_trace_power((1, 2), (3, 1), 0, 100, 1)
        assert report.exact_value == 1
        assert report.mc_estimate == 1.0
        assert report.mc_std_err == 0.0
        assert report.z_score == 0.0
        assert report.samples == 0  # nothing is drawn

    def test_third_power(self):
        report = mc_trace_power((1, 2, 3), (1, 1, 2), 3, 30_000, 11)
        assert report.exact_value == exact_trace_power_integral((1, 2, 3), (1, 1, 2), 3)
        assert abs(report.z_score) <= 3

    def test_deterministic_given_seed(self):
        r1 = mc_trace_power((1, 2), (3, 1), 2, 5_000, 42)
        r2 = mc_trace_power((1, 2), (3, 1), 2, 5_000, 42)
        assert r1 == r2

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            mc_trace_power((1,), (1,), 1, 1, 0)
        with pytest.raises(ValueError):
            mc_trace_power((1,), (1,), 0, 1, 0)

    def test_blocks_match_one_whole_stack(self):
        # the report is the lane fold, each lane in blocks of BLOCK // 3 draws
        # and each lane two full blocks and a block of one or two draws, of
        # the values of each lane's quaternions: the trace read on the
        # leading minor of |q|^2 R(q), in the term order of
        # ``quaternion_trace``, bit for bit; it agrees with numpy's
        # whole-stack mean and sample deviation of the row-major contraction
        # of the same draws to 1e-12 relative, a bound fixed before the
        # first run
        av, bv, f = [1.0, 2.0, 3.0], [0.5, 3.0, 0.0], 3
        samples, size = LANES * 2 * (BLOCK // 3) + 11, BLOCK // 3
        report = mc_trace_power((1, 2, 3), (Fraction(1, 2), 3, 0), f, samples, 5)
        stacks = lane_stacks(3, samples, 5)
        lanes = [in_blocks(quaternion_trace(q, av, bv) ** f, size) for q, _ in lane_quaternions(samples, 5)]
        m, mean, m2 = lanes_fold(lanes)
        assert report.samples == m == samples
        assert report.mc_estimate == mean
        assert report.mc_std_err == sqrt(m2 / (m - 1)) / sqrt(m)
        q = np.concatenate(stacks)
        row_major = np.einsum("mij,i,j->m", q * q, av, bv) ** f
        assert report.mc_estimate == pytest.approx(float(row_major.mean()), rel=1e-12)
        whole = float(row_major.std(ddof=1)) / sqrt(samples)
        assert report.mc_std_err == pytest.approx(whole, rel=1e-12)

    def test_memory_stays_below_one_stack(self):
        n, samples = 30, 5_000
        a = [Fraction(k % 9 + 1, 4) for k in range(n)]
        b = [Fraction(k % 7 + 1, 3) for k in range(n)]
        tracemalloc.start()
        try:
            report = mc_trace_power(a, b, 1, samples, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.samples == samples
        assert peak < samples * n * n * np.dtype(float).itemsize

    @pytest.mark.parametrize("threads", (1, 2))
    def test_memory_does_not_grow_with_the_budget(self, threads):
        # a lane keeps each block's (count, mean, M2), not its values: the
        # block buffers (one sweep's normals, the draw-minor stack and the
        # step's scratch: 24 doubles per draw of a block) and the statistic's
        # temporaries fit in 64 doubles per draw of one block, for each
        # worker, whatever the budget
        workers = min(threads, montecarlo._usable_cpus())
        allowance = workers * 64 * 8 * (BLOCK // 3)
        peaks = {}
        for samples in (3, 200_000, 2_000_000):
            tracemalloc.start()
            try:
                report = mc_trace_power((1, 2, 3), (3, 1, 2), 2, samples, 3, threads)
                _, peaks[samples] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.samples == samples
        assert max(peaks.values()) < allowance, peaks
        assert abs(peaks[2_000_000] - peaks[200_000]) < 64 * 8 * (BLOCK // 3), peaks

    @pytest.mark.parametrize("threads", (1, 2))
    def test_sample_deviation_matches_exact_sigma(self, threads):
        # mc_std_err * sqrt(N) is the sample deviation s of tr(D_a Q D_b Q')^f,
        # whose Haar deviation is sigma = sqrt(I(2f) - I(f)^2) with I the exact
        # integral.  s is within a z bound of sigma, in units of its standard
        # error sqrt(mu_4 - sigma^4) / (2 sigma sqrt(N)), mu_4 the exact fourth
        # central moment.  Seeds, sample size and the bound were fixed before
        # the first run; a std_err off by a factor sqrt(2) lands far beyond it.
        a, b, f, samples, seed, bound = (1, 2, 3), (3, 1, 2), 2, 20_000, 16, 4.0
        moments = (exact_trace_power_integral(a, b, k * f) for k in (1, 2, 3, 4))
        sigma, se = exact_deviation(*moments, samples)
        report = mc_trace_power(a, b, f, samples, seed, threads)
        assert abs(report.mc_std_err * samples**0.5 - sigma) <= bound * se

    def test_spawns_one_stream_per_lane(self, monkeypatch):
        # 5 samples fill 5 lanes of one draw: 5 SFC64 streams are spawned from
        # the seed, the first 5 children that spawning LANES would give; 10
        # samples fill LANES lanes from divmod.  A whole estimate spawns once,
        # at most LANES streams whatever threads asks for, and with two CPUs
        # at most two threads draw
        counts = []

        class SpyGenerator:
            def __init__(self, gen):
                self.gen = gen

            def spawn(self, k):
                counts.append(k)
                return self.gen.spawn(k)

        generator = montecarlo._generator
        monkeypatch.setattr(montecarlo, "_generator", lambda rng: SpyGenerator(generator(rng)))
        chunks = montecarlo._sample_chunks(5, 42)
        assert counts == [5]
        assert [size for size, _ in chunks] == [1] * 5
        wide = np.random.Generator(np.random.SFC64(42)).spawn(LANES)[:5]
        for (_, child), want in zip(chunks, wide):
            assert isinstance(child.bit_generator, np.random.SFC64)
            assert np.array_equal(child.random(8), want.random(8))

        counts.clear()
        chunks = montecarlo._sample_chunks(10, 42)
        assert counts == [LANES]
        assert [size for size, _ in chunks] == [2, 2, 1, 1, 1, 1, 1, 1]

        seen = set()
        real_blocks = montecarlo._realize

        def recording_blocks(*blocks_args):
            seen.add(threading.get_ident())
            return real_blocks(*blocks_args)

        monkeypatch.setattr(montecarlo, "_realize", recording_blocks)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        for samples in (5, 20_000):
            for threads in (1, 2, 20_000):
                counts.clear()
                seen.clear()
                report = mc_trace_power((1, 2), (3, 1), 2, samples, 42, threads)
                assert counts == [min(LANES, samples)]
                assert report.samples == samples
                assert 1 <= len(seen) <= min(threads, 2)

    @pytest.mark.parametrize("f", (3, 4, 5))
    def test_statistic_matches_pow_on_signed_spectra(self, f):
        # traces of both signs: |tr|^f with the sign restored for odd f, on
        # the statistic's own traces; they agree with einsum's to 1e-15 of
        # sum |a_i b_j| Q_ij^2, whatever the cancellation
        # (the draw-minor traces of n != 3, checked here on n = 3 draws, and
        # the quaternion traces that the n = 3 statistic reads)
        av, bv = np.array([-1.0, 2.0, 3.0]), np.array([1.0, -2.0, 0.5])
        q, quats = quaternion_draws(2_000, f)
        block = q.transpose(1, 2, 0)
        trace = montecarlo._squares_dot(np.outer(av, bv), block.copy())
        assert trace.min() < 0 < trace.max()
        dense = np.einsum("mij,i,j->m", q * q, av, bv)
        assert np.all(np.abs(trace - dense) <= 1e-15 * np.einsum("mij,i,j->m", q * q, abs(av), abs(bv)))
        a, b = exact_spectrum(av), exact_spectrum(bv)
        (trace,) = montecarlo._power_sums(a, b, 1)(quats.copy())
        assert trace.min() < 0 < trace.max()
        got = montecarlo._trace_power_statistic(a, b, f)(quats.copy())
        want = trace**f
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestMomentFold:
    """The (count, mean, M2) fold of ``_monte_carlo`` on streams of given values.

    ``montecarlo._realize`` is replaced by a stream whose blocks are the values
    themselves, and the statistic copies each block, so the fold sees
    exactly these values, in these blocks and lanes.
    """

    @staticmethod
    def run(monkeypatch, blocks_of, samples, threads):
        """The report on ``blocks_of(count, gen)`` per lane, and every block seen."""
        seen = []

        def realize(n, count, gen, workspace):
            for block in blocks_of(count, gen):
                seen.append(block.copy())
                yield block

        monkeypatch.setattr(montecarlo, "_realize", realize)
        return montecarlo._monte_carlo(0, 1, samples, 17, threads, np.copy), seen

    @pytest.mark.parametrize("threads", (1, 3))
    def test_ill_conditioned_stream_matches_exact_variance(self, monkeypatch, threads):
        # 1e9 plus standard normals, in blocks of uneven sizes, in LANES lanes
        # run on one thread or on three; each value is a multiple of 2^-23, so the
        # exact sample variance is a ratio of integers.  Less the first
        # value, the values are exact and of unit scale, so the fold rounds
        # like a sum of unit-scale terms; folded unshifted, the means round
        # at the scale of 1e9, about 1e-10 relative in the variance here.
        # The naive E[x^2] - E[x]^2 misses by far more
        samples, bound = 200_000, 1e-12

        def blocks_of(count, gen):
            sizes = itertools.cycle((1, 2, 1000, 37, 5000, 3))
            while count:
                k = min(count, next(sizes))
                count -= k
                yield 1e9 + gen.standard_normal(k)

        report, seen = self.run(monkeypatch, blocks_of, samples, threads)
        x = np.concatenate(seen)
        ints = (x * 2.0**23).astype(np.int64)
        assert np.array_equal(ints * 2.0**-23, x)
        total, squares = sum(ints.tolist()), sum(v * v for v in ints.tolist())
        variance = Fraction(samples * squares - total * total, samples * (samples - 1) * 2**46)
        assert report.samples == len(x) == samples
        got = Fraction(report.mc_std_err) ** 2 * samples
        assert abs(got / variance - 1) <= bound
        naive = ((x * x).mean() - x.mean() ** 2) * samples / (samples - 1)
        assert abs(Fraction(naive) / variance - 1) > bound

    @pytest.mark.parametrize(
        "threads, samples, lanes",
        [
            # one lane of 6 draws, seven of 5
            (1, 41, {6: [[1.0, 2.0, 3.0], [1e200, -1e200, 0.0]], 5: [[1.0, 2.0, 3.0, 4.0, 5.0]]}),
            # one lane of 5 draws, seven of 4
            (1, 33, {5: [[1.0, 2.0, 3.0], [1e200, 1e200]], 4: [[1.0, 2.0, 3.0, 4.0]]}),
            # one lane of 3 draws, seven of 2
            (2, 17, {3: [[1.0, 2.0, 3.0]], 2: [[1e200, 1e200]]}),
        ],
        ids=["squares-in-a-later-block", "merge-of-two-blocks", "merge-of-two-lanes"],
    )
    def test_later_overflow_raises_without_warnings(self, monkeypatch, threads, samples, lanes):
        # the mean stays finite; the sample variance overflows only after a
        # finite first block or lane, in numpy or in the float merge.  The
        # blocks of a lane are keyed by its size
        assert all(sum(map(len, blocks)) == size for size, blocks in lanes.items())
        assert {size for size, _ in montecarlo._sample_chunks(samples, 0)} == set(lanes)

        def blocks_of(count, gen):
            return (np.array(block) for block in lanes[count])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="sample variance is not finite"):
                self.run(monkeypatch, blocks_of, samples, threads)


class TestThreads:
    """Every report is the same at any thread count: the lanes fix the draws."""

    KINDS = {
        "trace-power": lambda a, b, *run: mc_trace_power(a, b, 3, *run),
        "zonal-split": lambda a, b, *run: mc_splitting((2, 1), a, b, *run),
        "trace-AH": lambda a, b, *run: mc_linear_trace_power(a, 4, *run),
        "exp-series": lambda a, b, *run: mc_exponential_trace(a, b, 1.0, *run),
    }

    @pytest.mark.parametrize("samples", (5, 1_001))
    @pytest.mark.parametrize("n", (2, 3, 5, 30))
    @pytest.mark.parametrize("kind", KINDS)
    def test_report_is_the_same_on_one_two_and_three_threads(self, kind, n, samples):
        # 5 draws fill 5 lanes of one draw; 1001 fill LANES uneven lanes
        a = [Fraction(k % 9 + 1, 4) for k in range(n)]
        b = [Fraction(-1 if k == 1 else k % 7 + 1, 3) for k in range(n)]
        one, two, three = (self.KINDS[kind](a, b, samples, 9, threads) for threads in (1, 2, 3))
        assert one == two == three
        assert one.samples == samples


class TestSeeds:
    """A seed means Generator(SFC64(seed)); a Generator passed in is used as given."""

    @pytest.mark.parametrize("n", (2, 3, 5))
    @pytest.mark.parametrize("kind", TestThreads.KINDS)
    def test_seed_and_its_generator_give_the_same_report(self, kind, n):
        # 1001 draws in LANES uneven lanes: the seed's report and that of
        # Generator(SFC64(seed)) are equal; a PCG64 Generator is spawned from
        # as given, once, one child per lane, and gives other draws.  (At
        # n = 1 every statistic is constant on O(1) = {-1, 1})
        a = [Fraction(k % 9 + 1, 4) for k in range(n)]
        b = [Fraction(-1 if k == 1 else k % 7 + 1, 3) for k in range(n)]
        run = TestThreads.KINDS[kind]
        by_seed = run(a, b, 1_001, 9, 1)
        assert run(a, b, 1_001, np.random.Generator(np.random.SFC64(9)), 1) == by_seed
        pcg = np.random.default_rng(9)
        by_pcg = run(a, b, 1_001, pcg, 2)
        assert pcg.bit_generator.seed_seq.n_children_spawned == LANES
        assert by_pcg == run(a, b, 1_001, np.random.default_rng(9), 1)
        assert by_pcg.mc_estimate != by_seed.mc_estimate


class TestWorkspace:
    """One sampler workspace per worker, written before it is read and gone after the call."""

    @staticmethod
    def record(monkeypatch, fill=None):
        """Wrap ``haar._workspace`` and ``haar._quaternion_workspace`` to fill every buffer of each
        new set with ``fill``; returns their weakrefs."""
        built = []

        def recorded(make):
            def workspace(*args):
                made = make(*args)
                buffers = made if isinstance(made, tuple) else (made,)
                if fill is not None:
                    for buf in buffers:
                        buf.fill(fill)
                built.append([weakref.ref(buf) for buf in buffers])
                return made

            return workspace

        monkeypatch.setattr(haar, "_workspace", recorded(_workspace))
        monkeypatch.setattr(montecarlo, "_workspace", recorded(_workspace))
        monkeypatch.setattr(montecarlo, "_quaternion_workspace", recorded(_quaternion_workspace))
        return built

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 30))
    @pytest.mark.parametrize("kind", (*TestThreads.KINDS, "batch"))
    def test_every_buffer_is_written_before_it_is_read(self, monkeypatch, kind, n):
        # every buffer of every fresh set filled with NaN, then with +1e300
        # and with -1e300: an entry read before it is written would move some
        # bit of the output.  Two workers; each lane, and the batch, spans two
        # blocks at n = 30 (BLOCK // 30 = 546), the second a partial one.  At
        # n = 1 only exp-series draws: the other kinds are exact there and
        # build no workspace
        a = [Fraction(k % 9 + 1, 4) for k in range(n)]
        b = [Fraction(-1 if k == 1 else k % 7 + 1, 3) for k in range(n)]
        samples = LANES * (BLOCK // 30 + 1) + 3
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)

        def run():
            if kind == "batch":
                return sample_orthogonal_batch(n, BLOCK // n + 3, 6).tobytes()
            if kind == "zonal-split":
                return repr(mc_splitting((2, 1) if n > 1 else (2,), a, b, samples, 9, 2))
            return repr(TestThreads.KINDS[kind](a, b, samples, 9, 2))

        want = run()
        for fill in (np.nan, 1e300, -1e300):
            built = self.record(monkeypatch, fill)
            assert run() == want, fill
            assert len(built) == (1 if kind == "batch" else 0 if n == 1 and kind != "exp-series" else 2)

    @pytest.mark.parametrize("n", (3, 30))
    @pytest.mark.parametrize("kind", TestThreads.KINDS)
    def test_one_workspace_per_worker(self, monkeypatch, kind, n):
        # with eight usable CPUs, 1001 draws in LANES lanes (one of 126, seven
        # of 125) run on 1, 2, 3 and 8 workers, each with one workspace for
        # its longest lane that serves its shorter lanes too: the reports are
        # equal, exactly one set is built per worker, and none outlives the call
        a = [Fraction(k % 9 + 1, 4) for k in range(n)]
        b = [Fraction(-1 if k == 1 else k % 7 + 1, 3) for k in range(n)]
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        reports = []
        for threads in (1, 2, 3, 8):
            built = self.record(monkeypatch)
            reports.append(TestThreads.KINDS[kind](a, b, 1_001, 9, threads))
            assert len(built) == threads
            assert all(ref() is None for refs in built for ref in refs)
        assert reports.count(reports[0]) == len(reports)
        assert reports[0].samples == 1_001


class TestMcSplitting:
    def test_degree_one_reduces_to_trace_power(self):
        report = mc_splitting((1,), (1, 2), (3, 1), 10_000, 5)
        assert report.exact_value == 6

    def test_two_by_two_exact_value(self):
        # Z_(2) at (1,2) is 19, at (3,1) is 36, and Z_(2)(I_2) = 8
        report = mc_splitting((2,), (1, 2), (3, 1), 30_000, 5)
        assert report.exact_value == Fraction(19 * 36, 8)
        assert abs(report.z_score) <= 3

    def test_constant_integrand(self):
        report = mc_splitting((1, 1), (1, 1), (1, 1), 1_000, 5)
        assert report.exact_value == 2
        assert report.mc_estimate == pytest.approx(2.0, abs=1e-12)
        assert report.mc_std_err == pytest.approx(0.0, abs=1e-12)

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError):
            mc_splitting((1, 1, 1), (1, 2), (3, 1), 100, 0)

    def test_negative_spectra_on_both_sides_match_exact_value(self):
        a, b = (-1, 2, 3), (1, -2, Fraction(1, 2))
        report = mc_splitting((2, 1), a, b, 30_000, 5)
        row = zonal_row(Partition((2, 1)))
        want = evaluate_by_terms(row, [Fraction(x) for x in a]) * evaluate_by_terms(
            row, [Fraction(x) for x in b]
        )
        want /= zonal_at_identity((2, 1), 3)
        assert report.exact_value == want != 0
        assert abs(report.z_score) <= 3

    def test_negative_side_allowed_when_other_nonnegative(self):
        report = mc_splitting((1,), (-1, 2), (3, 1), 10_000, 5)
        assert report.exact_value == Fraction(1 * 4, 2)
        assert abs(report.z_score) <= 3

    @pytest.mark.parametrize(
        "n, threads", (pytest.param(3, 1, id="3"), pytest.param(30, 1, id="30"), pytest.param(30, 2, id="30-2"))
    )
    def test_memory_within_one_block_of_the_sampler(self, n, threads):
        # the baseline is the sampler's own peak on one lane's draws, its
        # normals, its step's scratch and one block of draws, once per
        # worker; n = 3 takes the power sums from the block squared in
        # place, within one more block; n = 30 by gemm on row-major chunks
        # of CHUNK // n^2 draws, within its three chunk buffers of at most
        # CHUNK doubles.  At n = 3 every lane takes one full block, so a
        # statistic that held one more block alive would not fit
        samples = LANES * (BLOCK // n) if n == 3 else 5_000
        lane = -(-samples // LANES)
        workers = min(threads, LANES, montecarlo._usable_cpus())
        a = [Fraction(k % 9 + 1, 4) for k in range(n)]
        b = [Fraction(k % 7 + 1, 3) for k in range(n)]

        def peak(run):
            tracemalloc.start()
            try:
                run()
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return top

        def consume():
            blocks = _realize(n, lane, np.random.default_rng(3), _workspace(n, lane))
            assert sum(block.shape[2] for block in blocks) == lane

        def split():
            assert mc_splitting((2, 1), a, b, samples, 3, threads).samples == samples

        split()  # the exact value's caches fill outside the measurement
        entries = BLOCK // n * n * n if n <= 3 else 3 * montecarlo.CHUNK
        allowance = entries * np.dtype(float).itemsize
        assert peak(split) <= workers * (peak(consume) + allowance)


def _eigensolve_roots(q, av, bv):
    """Latent roots of D_a H D_b H' by an eigensolve of every draw: the reference path.

    With one spectrum nonnegative the roots are real and come from a
    symmetric eigensolve; otherwise they may be complex and come from
    ``eigvals`` of D_a H D_b H' itself.
    """
    if not np.all(av >= 0) and not np.all(bv >= 0):
        return np.linalg.eigvals(np.einsum("i,mik,k,mjk->mij", av, q, bv, q))
    if np.all(av >= 0):
        outer, inner, h = np.sqrt(av), bv, q
    else:
        outer, inner, h = np.sqrt(bv), av, q.transpose(0, 2, 1)
    core = np.einsum("mik,k,mjk->mij", h, inner, h)
    core *= outer[None, :, None]
    core *= outer[None, None, :]
    return np.linalg.eigvalsh(core)


def _powersum_batch(kappa, roots):
    """Z_kappa at each row of ``roots`` from its power-sum row, and the same
    sum over absolute values of coefficients and roots (an error scale)."""
    value = np.zeros(len(roots), dtype=roots.dtype)
    scale = np.zeros(len(roots))
    for lam, c in zonal_in_powersums(kappa).sorted_items():
        term = np.full(len(roots), float(c))
        bound = np.full(len(roots), abs(float(c)))
        for k in lam:
            term = term * (roots**k).sum(axis=1)
            bound = bound * (np.abs(roots) ** k).sum(axis=1)
        value += term
        scale += bound
    return value, scale


def _spectra(n, negative):
    rng = np.random.default_rng(100 + n)
    av, bv = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
    if negative in ("A", "both"):
        av[::2] *= -1
    if negative == "B":
        bv[::2] *= -1
    elif negative == "both":
        bv[-1::-2] *= -1
    return av, bv


@pytest.mark.parametrize("negative", (None, "A", "B", "both"))
@pytest.mark.parametrize("n", (1, 2, 3, 7, 30))
class TestTracePowerSums:
    """The trace statistic against an eigensolve of every draw."""

    def test_power_sums_match_eigensolve(self, n, negative):
        av, bv = _spectra(n, negative)
        q, block = statistic_draws(n, 50, n)
        roots = _eigensolve_roots(q.copy(), av, bv)
        if negative == "both" and n > 1:
            assert np.any(roots.imag != 0)  # the case the square root could not take
        sums = montecarlo._power_sums(exact_spectrum(av), exact_spectrum(bv), 6)(block)
        assert len(sums) == 6
        for k, p in enumerate(sums, start=1):
            want = (roots**k).sum(axis=1)  # complex roots come in pairs: the sum is real
            assert np.all(np.abs(p - want) <= 1e-10 * (np.abs(roots) ** k).sum(axis=1)), k

    def test_zonal_values_match_eigensolve(self, n, negative):
        av, bv = _spectra(n, negative)
        q, block = statistic_draws(n, 50, n)
        roots = _eigensolve_roots(q.copy(), av, bv)
        a, b = exact_spectrum(av), exact_spectrum(bv)
        for f in range(1, 7):
            for kappa in partitions_of(f):
                if len(kappa) > n:
                    continue
                got = montecarlo._splitting_statistic(kappa, a, b)(block.copy())
                want, scale = _powersum_batch(kappa, roots)
                assert np.all(np.abs(got - want) <= 1e-10 * scale), kappa


ESTIMATES = {
    "trace-power": lambda a, b: mc_trace_power(a, b, 3, 2, 0),
    "zonal-split": lambda a, b: mc_splitting((2, 1), a, b, 2, 0),
    "trace-AH": lambda a, b: mc_linear_trace_power(a, 4, 2, 0),
    "exp-series": lambda a, b: mc_exponential_trace(a, b, 1.0, 2, 0),
}


@pytest.mark.parametrize("kind", sorted(ESTIMATES))
@pytest.mark.parametrize("n", (2, 3, 30))
def test_draw_alone_matches_its_block(monkeypatch, n, kind):
    # each estimate's statistic gives a draw the same bits in a block of
    # one as in a full block of the sampler (of quaternions at n = 3),
    # wherever it sits there
    statistics = []
    monkeypatch.setattr(montecarlo, "_monte_carlo", lambda *args: statistics.append(args[-1]))
    a = [Fraction(k % 5 + 1, 4) * (-1) ** k for k in range(n)]
    b = [Fraction(k % 3 + 1, 2) for k in range(n)]
    ESTIMATES[kind](a, b)
    (statistic,) = statistics
    _, block = statistic_draws(n, BLOCK // n, 8)
    whole = statistic(block.copy())
    assert len(whole) == block.shape[-1]
    for k in np.random.default_rng(n).choice(block.shape[-1], 12, replace=False):
        alone = statistic(block[..., k : k + 1].copy())
        assert np.array_equal(alone.view(np.int64), whole[k : k + 1].view(np.int64)), k


def gemm_block_sizes(n):
    """Block sizes 1, chunk - 1, chunk, chunk + 1 and a full block, chunk = CHUNK // n^2 draws."""
    chunk = montecarlo.CHUNK // (n * n)
    return (1, chunk - 1, chunk, chunk + 1, BLOCK // n)


class TestPowerSumParts:
    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 10, 30))
    def test_block_size_does_not_move_a_draw(self, n):
        # up to n = 3 every call is elementwise along the draws (of the
        # quaternion block at n = 3) and each weighted sum adds its terms
        # one at a time; above, a block of m
        # draws is taken in row-major chunks of CHUNK // n^2 draws, at least
        # one, each draw multiplied on its own: either way each draw's power
        # sums are the same bits in any block size
        av, bv = _spectra(n, "A")
        sizes = (1, 2, 3, 50, BLOCK // n) if n <= 3 else gemm_block_sizes(n)
        _, q = statistic_draws(n, BLOCK // n, n)
        power_sums = montecarlo._power_sums(exact_spectrum(av), exact_spectrum(bv), 6)
        whole = power_sums(q.copy())
        for m in sizes:
            part = power_sums(q[..., :m].copy())
            assert np.array_equal(part, whole[:, :m]), m


@pytest.mark.parametrize("n", (4, 5, 10, 30))
def test_gemm_chunks_keep_each_draw(n):
    # above n = 3, p_2.. come from the gemm path, which copies a block of m
    # draws to row-major in chunks of CHUNK // n^2 through three chunk
    # buffers, and f >= 5 reuses the first for the third power buffer; p_1
    # comes from the squared entries: at block sizes around a chunk, and at
    # every f up to 7, each draw's power sums are those of the draw
    # alone, bit for bit, and the traces of np.linalg.matrix_power of
    # N = H' D_a H D_b to 1e-12 relative (positive spectra: every trace is
    # a sum of positive roots)
    av, bv = _spectra(n, None)
    w = np.outer(av, bv)
    size = BLOCK // n
    q = sample_orthogonal_batch(n, size, np.random.default_rng(130 + n))
    block = q.transpose(1, 2, 0).copy()
    a, b = exact_spectrum(av), exact_spectrum(bv)
    power_sums = montecarlo._power_sums(a, b, 7)
    alone = np.concatenate([power_sums(block[:, :, k : k + 1].copy()) for k in range(size)], axis=1)
    product = q.transpose(0, 2, 1) @ (q * w)
    for k in range(1, 8):
        want = np.trace(np.linalg.matrix_power(product, k), axis1=1, axis2=2)
        assert np.all(np.abs(alone[k - 1] - want) <= 1e-12 * want), k
    for m in gemm_block_sizes(n):
        for f in range(1, 8):
            got = montecarlo._power_sums(a, b, f)(block[:, :, :m].copy())
            assert got.shape == (f, m)
            assert np.array_equal(got.view(np.int64), alone[:f, :m].view(np.int64)), (m, f)


@pytest.mark.parametrize("negative", ("A", "both"))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_draw_minor_and_gemm_power_sums_agree(n, negative):
    # the power sums from the squared entries of the draw-minor block (from
    # the leading minor of the quaternion block at n = 3) and the traces of
    # gemm powers (p_1 from the dense contraction) round differently; on the
    # same draws they agree to 1e-13 of the scale sum_i |root_i|^k of each p_k
    av, bv = _spectra(n, negative)
    q, block = statistic_draws(n, 200, 40 + n)
    scale = (np.abs(_eigensolve_roots(q.copy(), av, bv))[:, :, None] ** np.arange(1, 7)).sum(axis=1).T
    squares = montecarlo._power_sums(exact_spectrum(av), exact_spectrum(bv), 6)(block)
    gemm = np.empty((6, 200))
    gemm[0] = np.einsum("mij,i,j->m", q * q, av, bv)  # p_1, which the gemm path leaves to the caller
    montecarlo._gemm_power_sums(q.transpose(1, 2, 0).copy(), np.outer(av, bv), gemm)
    assert np.all(np.abs(squares - gemm) <= 1e-13 * scale)


@pytest.mark.parametrize("negative", (None, "A", "both"))
@pytest.mark.parametrize("n", (2, 3, 4, 5, 10, 30))
def test_every_kind_takes_the_same_p1(monkeypatch, n, negative):
    # Z_(1) = p_1 = tr(D_a H D_b H'): on one sampler block (of quaternions
    # at n = 3) the splitting statistic at kappa = (1,), trace-power at
    # f = 1 and the trace that exp-series halves and exponentiates are the
    # same bits on every draw, since all three take p_1 from one builder
    av, bv = _spectra(n, negative)
    a, b = exact_spectrum(av), exact_spectrum(bv)
    m = BLOCK // n
    gen = np.random.default_rng(70 + n)
    if n == 3:
        block = next(_quaternions(m, gen, _quaternion_workspace(m))).copy()
    else:
        block = next(_realize(n, m, gen, _workspace(n, m))).copy()
    statistics = []
    monkeypatch.setattr(montecarlo, "_monte_carlo", lambda *args: statistics.append(args[-1]))
    mc_exponential_trace(a, b, 1.0, 2, 0)
    (exponential,) = statistics
    zonal = montecarlo._splitting_statistic(Partition((1,)), a, b)(block.copy())
    trace = montecarlo._trace_power_statistic(a, b, 1)(block.copy())
    assert np.array_equal(zonal.view(np.int64), trace.view(np.int64))
    want = np.exp(trace * 0.5)
    assert np.array_equal(exponential(block.copy()).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "a, b",
    (
        ((Fraction(1, 3), Fraction(3, 5)), (Fraction(5, 3), Fraction(9, 11))),
        ((Fraction(1, 3), Fraction(1, 7)), (Fraction(2, 9), Fraction(-3, 7))),
    ),
    ids=("positive", "signed"),
)
def test_two_by_two_determinant_is_rounded_once(a, b):
    # at n = 2, e_2 of the roots is a_0 a_1 b_0 b_1, taken exactly and
    # rounded once, as at n = 3, so p_2 = p_1^2 - 2 e_2 on every draw;
    # on these spectra the product of the rounded a_i b_i differs from it,
    # and moves p_2 on some draws
    a, b = DiagonalSpec.of(a), DiagonalSpec.of(b)
    e2 = float(prod(a) * prod(b))
    twice = float(np.prod(np.diagonal(np.outer(a.floats(), b.floats()))))
    assert twice != e2
    _, block = statistic_draws(2, 2_000, 11)
    p1, p2 = montecarlo._power_sums(a, b, 2)(block)
    assert np.array_equal(p2.view(np.int64), (p1 * p1 - 2 * e2).view(np.int64))
    assert np.any(p1 * p1 - 2 * twice != p2)


@pytest.mark.parametrize("zero", (False, True), ids=("signed", "zero-root"))
@pytest.mark.parametrize("n", (2, 3))
def test_cofactor_weights_give_the_principal_minor_sum(n, zero):
    # e_(n-1) of the roots of D_a H D_b H' is the sum of its principal
    # (n - 1)-minors; from the squared entries it is sum a^_i b^_j H_ij^2,
    # with no division, so a zero eigenvalue of A is no special case
    av, bv = _spectra(n, "both")
    if zero:
        av[0] = 0.0
    q = sample_orthogonal_batch(n, 200, np.random.default_rng(60 + n))
    product = np.einsum("i,mik,k,mjk->mij", av, q, bv, q)
    minors = [[k for k in range(n) if k != i] for i in range(n)]
    want = sum(np.linalg.det(product[:, rows][:, :, rows]) for rows in minors)
    weights = np.array(montecarlo._outer(montecarlo._complements(av), montecarlo._complements(bv)))
    squares = (q * q).transpose(1, 2, 0).reshape(n * n, -1)
    got = montecarlo._weighted_sum(weights.ravel(), squares, np.empty(200), np.empty(200))
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(weights).sum())


class ZeroedNormals:
    """A generator stand-in whose every normal call starts with quaternions of signed zeros.

    The first five draws of each call are an all-zero q of +0.0, one of
    -0.0, one of mixed signed zeros, and two nonzero q with w = +0.0 and
    w = -0.0; the rest come from ``default_rng(seed)``.
    """

    ZEROS = np.array(
        [
            [0.0, -0.0, -0.0, 0.0, -0.0],
            [0.0, -0.0, 0.0, 0.5, -1.5],
            [0.0, -0.0, -0.0, -2.0, 0.25],
            [0.0, -0.0, 0.0, 1.0, 0.75],
        ]
    )

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)

    def standard_normal(self, out):
        self.gen.standard_normal(out=out)
        out.reshape(4, -1)[:, :5] = self.ZEROS
        return out


#: Spectra for the n = 3 statistics: positive, signed, and scalar on either side.
QUATERNION_SPECTRA = {
    "positive": ((Fraction(1, 2), Fraction(3, 4), 2), (Fraction(9, 4), Fraction(1, 3), Fraction(5, 2))),
    "signed": ((-1, 2, Fraction(-1, 3)), (1, Fraction(-5, 2), Fraction(1, 2))),
    "scalar-A": ((Fraction(2, 3),) * 3, (-1, 2, Fraction(1, 3))),
    "scalar-B": ((-1, 2, Fraction(1, 3)), (Fraction(-7, 5),) * 3),
}


class TestQuaternionStatistics:
    """The n = 3 statistics read from each draw's quaternion, against the dense contraction of its matrix."""

    @staticmethod
    def draws(zeroed):
        """(stack, block) of 2000 draws on one seed, the first five of a block signed zeros if ``zeroed``."""
        if not zeroed:
            return quaternion_draws(2_000, 3)
        (block,) = _quaternions(2_000, ZeroedNormals(3), _quaternion_workspace(2_000))
        return quaternion_matrices(block), block.copy()

    @pytest.mark.parametrize("zeroed", (False, True), ids=("normals", "signed-zeros"))
    @pytest.mark.parametrize("spectra", sorted(QUATERNION_SPECTRA))
    def test_traces_match_the_dense_contraction(self, spectra, zeroed):
        # tr(D_a Q D_b Q') within 1e-13 sum |a_i b_j| and tr(D_a Q) within
        # 1e-13 sum |a_i| of the dense row-major contraction of the same
        # draws F^b R(q), R by the textbook formula; an all-zero q is the
        # identity, reflected where w is -0.0, with no warning
        a, b = (DiagonalSpec.of(x) for x in QUATERNION_SPECTRA[spectra])
        av, bv = np.array(a.floats()), np.array(b.floats())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, block = self.draws(zeroed)
            (trace,) = montecarlo._power_sums(a, b, 1)(block.copy())
            linear = montecarlo._linear_trace(a)(block.copy())
        if zeroed:
            assert np.array_equal(q[:3], [np.eye(3), np.diag([-1.0, 1.0, 1.0]), np.diag([-1.0, 1.0, 1.0])])
        dense = np.einsum("mij,i,j->m", q * q, av, bv)
        assert np.all(np.abs(trace - dense) <= 1e-13 * np.abs(np.outer(av, bv)).sum())
        dense = np.einsum("mii,i->m", q, av)
        assert np.all(np.abs(linear - dense) <= 1e-13 * np.abs(av).sum())

    @pytest.mark.parametrize("spectra", ("scalar-A", "scalar-B"))
    def test_scalar_spectrum_gives_a_constant_statistic(self, spectra):
        # with a scalar spectrum on either side the reduced weights are 0
        # exactly, so every draw's trace is the rounded exact constant and
        # every trace-power, exp-series and zonal-split value is the same
        # bits; the estimate has std_err 0, and at f = 1, where the value is
        # the float of the exact one, z = 0
        a, b = (DiagonalSpec.of(x) for x in QUATERNION_SPECTRA[spectra])
        constant = sum(x for x in a) * sum(y for y in b) / 3
        _, block = quaternion_draws(2_000, 5)
        (trace,) = montecarlo._power_sums(a, b, 1)(block.copy())
        assert np.all(trace == float(constant))
        for statistic in (
            montecarlo._trace_power_statistic(a, b, 3),
            montecarlo._splitting_statistic(Partition((2, 1)), a, b),
        ):
            values = statistic(block.copy())
            assert np.all(values == values[0])
        report = mc_trace_power(a, b, 1, 20_000, 7)
        assert report.exact_value == constant
        assert (report.mc_estimate, report.mc_std_err, report.z_score) == (float(constant), 0.0, 0.0)
        for report in (mc_trace_power(a, b, 3, 20_000, 7), mc_splitting((2, 1), a, b, 20_000, 7)):
            assert report.mc_std_err == 0.0
            assert abs(report.z_score) <= 1
        series = hyper0f0(a, b, 20)
        assert mc_exponential_trace(a, b, series.value, 20_000, 7).mc_std_err == 0.0

    def test_lanes_consume_one_normal_call_per_block(self, monkeypatch):
        # each lane of an n = 3 estimate reads blocks of BLOCK // 3 draws, the
        # last one shorter, each block exactly the normals of one (4, m)
        # standard_normal call on its spawned stream, and leaves that stream
        # where those calls leave it; the signs of w are the determinants of
        # the draws F^b R(q)
        samples, seed = LANES * (BLOCK // 3) + 13, 21
        lanes = []
        quaternions = montecarlo._quaternions

        def recording(count, gen, workspace):
            blocks = []
            lanes.append((count, gen, blocks))
            for block in quaternions(count, gen, workspace):
                blocks.append(block[:4].copy())
                yield block

        monkeypatch.setattr(montecarlo, "_quaternions", recording)
        mc_trace_power((1, 2, 3), (3, 1, 2), 2, samples, seed)
        children = np.random.Generator(np.random.SFC64(seed)).spawn(LANES)
        assert len(lanes) == LANES

        for (count, gen, blocks), child in zip(lanes, children):
            assert [block.shape[1] for block in blocks] == [len(b) for b in in_blocks(range(count), BLOCK // 3)]
            for block in blocks:
                normals = child.standard_normal((4, block.shape[1]))
                assert np.array_equal(normals, block[:4])  # no all-zero q in these draws
                dets = np.linalg.det(quaternion_matrices(block))
                assert np.allclose(dets, np.copysign(1.0, block[0]), rtol=0, atol=1e-12)
            assert np.array_equal(gen.standard_normal(8), child.standard_normal(8))


class TestDimensionOne:
    """At n = 1, O(1) = {-1, 1}: trace-power, zonal-split and trace-AH are constant and reported exactly."""

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a draw at n = 1")

        monkeypatch.setattr(montecarlo, "_realize", refuse)
        monkeypatch.setattr(montecarlo, "_quaternions", refuse)

    @pytest.mark.parametrize("f", (1, 2, 3))
    def test_constant_kinds_are_exact_with_no_draw(self, no_draws, f):
        # each value is that of both draws, Q = -1 and Q = 1: (a b)^f,
        # Z_(f)(a b) = Z_(f)(1) (a b)^f and, for even f, a^f (odd f are 0)
        a, b = Fraction(3, 2), Fraction(-1, 2)
        reports = {
            (a * b) ** f: mc_trace_power((a,), (b,), f, 131_080, 7),
            zonal_at_identity((f,), 1) * (a * b) ** f: mc_splitting((f,), (a,), (b,), 131_080, 7),
            a**f if f % 2 == 0 else 0: mc_linear_trace_power((a,), f, 131_080, 7),
        }
        for value, report in reports.items():
            assert report.exact_value == value
            got = (report.mc_estimate, report.mc_std_err, report.samples, report.z_score)
            assert got == (float(value), 0.0, 0, 0.0)

    def test_exp_series_still_draws(self):
        # its reference is a truncated series, so the draws are compared with it
        series = hyper0f0((Fraction(3, 2),), (Fraction(1, 2),), 12)
        report = mc_exponential_trace((Fraction(3, 2),), (Fraction(1, 2),), series.value, 131_080, 7)
        assert report.samples == 131_080
        assert report.mc_estimate == pytest.approx(exp(3 / 8), rel=1e-15)


@pytest.mark.parametrize("failing", (0, 1), ids=("calling-thread", "started-thread"))
@pytest.mark.parametrize("error", (MemoryError, OverflowError))
def test_a_worker_error_is_raised_in_the_caller(monkeypatch, failing, error):
    # two workers, one in the calling thread and one started: a lane of
    # either that raises makes the estimate raise the same error, once
    # every worker has ended
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    chunks = montecarlo._sample_chunks
    failing_streams = []

    def recording_chunks(samples, rng):
        lanes = chunks(samples, rng)
        failing_streams.append(lanes[failing][1])
        return lanes

    realize = montecarlo._realize

    def failing_realize(n, count, gen, workspace):
        if gen is failing_streams[0]:
            raise error("lane")
        return realize(n, count, gen, workspace)

    monkeypatch.setattr(montecarlo, "_sample_chunks", recording_chunks)
    monkeypatch.setattr(montecarlo, "_realize", failing_realize)
    before = threading.active_count()
    with pytest.raises(error, match="lane"):
        mc_trace_power((1, 2), (3, 1), 2, 1_000, 3, threads=2)
    assert threading.active_count() == before


class TestCalibratedZScores:
    """Over a fixed seed set, the z-scores of a correct estimator follow N(0, 1).

    One z-score bound passes a wrong std_err (a wrong ddof, a wrong merge
    of shards); the spread of many does not.  Seeds, sample size and
    bounds were fixed before the first run: a KS p-value against N(0, 1)
    of at least KS_P_MIN, and a z standard deviation in Z_STD, which
    leaves about 3.4 standard errors of the sample deviation of 150
    normal draws on either side of 1 while a factor sqrt(2) in std_err
    falls outside.  Spectra are signed, at n = 3.
    """

    SEEDS = range(150)
    SAMPLES = 4_000
    KS_P_MIN = 1e-3
    Z_STD = (0.8, 1.2)

    def check(self, run):
        z = np.array([run(seed).z_score for seed in self.SEEDS])
        assert kstest(z, "norm").pvalue >= self.KS_P_MIN, (z.mean(), z.std())
        assert self.Z_STD[0] <= z.std(ddof=1) <= self.Z_STD[1]

    @pytest.mark.parametrize("threads", (1, 2))
    def test_zonal_split(self, threads):
        a, b = (-1, 2, 3), (1, -2, Fraction(1, 2))
        self.check(lambda seed: mc_splitting((2, 1), a, b, self.SAMPLES, seed, threads))

    @pytest.mark.parametrize("threads", (1, 2))
    def test_trace_ah(self, threads):
        self.check(lambda seed: mc_linear_trace_power((-1, 2, 3), 4, self.SAMPLES, seed, threads))


class TestMcLinearTracePower:
    def test_odd_power_is_exactly_zero(self):
        report = mc_linear_trace_power((1, 2), 3, 100, 0)
        assert report.exact_value == 0
        assert report.mc_estimate == 0.0
        assert report.samples == 0

    def test_identity_second_power(self):
        report = mc_linear_trace_power((1, 1), 2, 30_000, 3)
        assert report.exact_value == 1
        assert abs(report.z_score) <= 3

    def test_diagonal_fourth_power(self):
        report = mc_linear_trace_power((1, 2), 4, 30_000, 3)
        assert report.exact_value == Fraction(123, 8)
        assert abs(report.z_score) <= 3

    @pytest.mark.parametrize(
        "bad",
        (
            [[1.0, 0.5], [-0.25, 2.0]],
            [[1, 0], [Fraction(1, 3), 2]],
            [1, 1j],
            [1, float("nan")],
            [1, float("inf")],
            [1, "two"],
            [1, "1/0"],
            "12",
            b"12",
        ),
        ids=("full", "lower", "complex", "nan", "inf", "text", "zero-denominator", "string", "bytes"),
    )
    @pytest.mark.parametrize("f", (1, 2))
    def test_rejects_non_diagonal_or_non_rational(self, bad, f):
        # every spectrum input raises ValueError for an entry that is not a
        # rational, on either side, whatever error Fraction raises for it; a
        # matrix ("full", "lower") is not a spectrum, so its rows are such entries;
        # a string or bytes is one value, never read as the spectrum (1, 2)
        good = (1, 2)
        calls = (
            lambda: mc_linear_trace_power(bad, f, 100, 0),
            lambda: mc_trace_power(bad, good, f, 100, 0),
            lambda: mc_trace_power(good, bad, f, 100, 0),
            lambda: mc_splitting((f,), bad, good, 100, 0),
            lambda: mc_splitting((f,), good, bad, 100, 0),
            lambda: mc_exponential_trace(bad, good, 1.0, 100, 0),
            lambda: mc_exponential_trace(good, bad, 1.0, 100, 0),
            lambda: exact_trace_power_integral(bad, good, f),
            lambda: exact_trace_power_integral(good, bad, f),
        )
        for call in calls:
            with pytest.raises(ValueError, match="rational"):
                call()

    def test_signs_on_the_diagonal_give_the_same_exact_value(self):
        d = (Fraction(3, 2), 2, Fraction(-1, 3))
        for f in (2, 4, 6):
            values = set()
            for signs in ((1, 1, 1), (-1, 1, 1), (1, -1, -1), (-1, -1, -1)):
                spectrum = [s * x for s, x in zip(signs, d)]
                values.add(mc_linear_trace_power(spectrum, f, 2, 0).exact_value)
            assert len(values) == 1
            (value,) = values
            assert value == _fraction_linear_trace_power([x * x for x in d], f)

    def test_overflowing_variance_raises_without_warnings(self):
        # tr(A H)^2 reaches 1e300: the mean is finite, the sum of squares is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="variance is not finite"):
                mc_linear_trace_power((10**150, 1), 2, 100, 1)

    @pytest.mark.parametrize("threads", (1, 2))
    def test_sample_deviation_matches_exact_sigma(self, threads):
        # as for trace-power: the sample deviation of tr(A H)^f against
        # sigma = sqrt(I(2f) - I(f)^2), I(k) the exact tr(A H)^k moment, in
        # units of its standard error from I up to 4f.  Seed, sample size and
        # the bound were fixed before the first run
        d, f, samples, seed, bound = (-1, 2, 3), 2, 20_000, 16, 4.0
        moments = (_fraction_linear_trace_power([x * x for x in d], k * f) for k in (1, 2, 3, 4))
        sigma, se = exact_deviation(*moments, samples)
        report = mc_linear_trace_power(d, f, samples, seed, threads)
        assert abs(report.mc_std_err * samples**0.5 - sigma) <= bound * se

    def test_matches_dense_contraction_of_one_whole_stack(self):
        # the report is the lane fold of |tr(A H)|^f, the trace read from
        # each lane's quaternions and reflection signs in the term order of
        # ``quaternion_linear_trace``, bit for bit; that trace is within
        # 1e-13 sum |a_i| of the dense row-major contraction of the same
        # draws.  The diagonal added as a_0 H_00 + a_1 H_11 + a_2 H_22 in
        # that order is bit-identical to the dense contraction, and |x|^f
        # and x^f agree exactly at f = 2 and within an ulp at f = 4
        d, samples, size = (-1.0, 2.0, 0.5), LANES * 2 * (BLOCK // 3) + 11, BLOCK // 3
        stacks = lane_stacks(3, samples, 5)
        diagonals = [fixed_order_sum(np.diagonal(q, axis1=1, axis2=2) * d) for q in stacks]
        q, diagonal = np.concatenate(stacks), np.concatenate(diagonals)
        dense = np.einsum("ij,mji->m", np.diag(d), q)
        assert np.array_equal(diagonal.view(np.int64), dense.view(np.int64))
        traces = [quaternion_linear_trace(quats, signs, d) for quats, signs in lane_quaternions(samples, 5)]
        assert np.all(np.abs(np.concatenate(traces) - dense) <= 1e-13 * sum(map(abs, d)))
        reports = {f: mc_linear_trace_power(d, f, samples, 5) for f in (2, 4)}
        for f, report in reports.items():
            _, mean, _ = lanes_fold([in_blocks(np.abs(lane) ** f, size) for lane in traces])
            assert report.mc_estimate == mean
        assert np.array_equal(np.abs(diagonal) ** 2, dense**2)
        assert np.all(np.abs(np.abs(diagonal) ** 4 - dense**4) <= 1e-14 * dense**4)
        assert reports[4].mc_estimate == pytest.approx(float((dense**4).mean()), rel=1e-14)


class TestHyper0F0:
    def test_zero_spectrum_truncates_to_one(self):
        for degree in (0, 3, 8):
            res = hyper0f0((0, 0), (1, 5), degree)
            assert res.value == 1.0
            assert res.terms[0] == 1
            assert all(t == 0 for t in res.terms[1:])

    def test_scalar_matrix_gives_exponential_terms(self):
        # with a scalar first matrix the trace is constant, so each term
        # is (a * tr b / 2)^f / f! exactly
        a, b = (2, 2), (1, 3)
        res = hyper0f0(a, b, 12)
        const = Fraction(2 * (1 + 3), 2)
        for f, term in enumerate(res.terms):
            assert term == const**f / factorial(f)

    def test_scalar_matrix_reaches_exponential(self):
        res = hyper0f0((1, 1), (1, 1), 20)
        assert abs(res.value - exp(1.0)) < 1e-6

    def test_terms_to_degree_20_match_the_branching_rule(self):
        # rows capped at 3 parts, past the degree 16 of the full-row comparison,
        # against Z_kappa from the branching rule: the exp-series inputs that
        # EXP_SERIES_DEGREE_20 pins
        a = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        b = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
        za, zb, ones = (zonal_by_branching(x) for x in (a, b, (1, 1, 1)))
        want = []
        for f in range(21):
            total = sum(
                character_degree(kappa) * za(kappa) * zb(kappa) / ones(kappa)
                for kappa in partitions_of(f)
                if len(kappa) <= 3
            )
            want.append(total / (double_factorial(2 * f - 1) * 2**f * factorial(f)))
        terms = hyper0f0(a, b, 20).terms
        assert terms == tuple(want)
        assert str(sum(terms)) == EXP_SERIES_DEGREE_20

    def test_tail_bound_for_nonnegative_spectra(self):
        res = hyper0f0((1, 2), (1, 3), 12)
        assert res.tail_bound is not None
        # sorted pairing bound: s = 1*1 + 2*3 = 7
        expected_tail = exp(3.5) - sum(3.5**f / factorial(f) for f in range(13))
        assert res.tail_bound == pytest.approx(expected_tail, rel=1e-9)

    @pytest.mark.parametrize("degree", (24, 30))
    def test_tail_bound_is_the_tail_past_high_degrees(self, degree):
        # s = 1*1 + 2*3 = 7: the tail of exp(7/2) past the degree, against
        # exact rationals (terms past degree + 100 are below 1e-100 of it);
        # at these degrees exp(3.5) less the partial sum would cancel
        res = hyper0f0((1, 2), (3, 1), degree)
        exact = sum(Fraction(7, 2) ** k / factorial(k) for k in range(degree + 1, degree + 101))
        assert abs(Fraction(res.tail_bound) - exact) <= Fraction(1, 10**12) * exact

    def test_tail_bound_is_positive_where_the_tail_underflows(self):
        # the tail of exp(x) past degree 3 is about x^4 / 4!, 4e-402 at
        # x = 1e-100: below the float range, so the least positive float
        # bounds it, never 0; a zero pairing s keeps its exact tail of 0
        assert moments._exp_tail(1e-100, 3) == ulp(0.0) > 0
        assert hyper0f0((Fraction(1, 10**100), 0), (2, 0), 3).tail_bound == ulp(0.0)
        # s / 2 = 1e-400 is itself below the float range
        assert hyper0f0((Fraction(1, 10**400),), (2,), 3).tail_bound == ulp(0.0)
        assert hyper0f0((0, 0), (2, 0), 3).tail_bound == 0.0

    @pytest.mark.parametrize(
        "a, b, s",
        (
            ((-1, 2), (1, 3), 5),
            ((Fraction(-3, 2), Fraction(1, 2), 1), (2, Fraction(-1, 3), -1), Fraction(25, 6)),
            ((-30, 30), (29, 30), 30),
        ),
        ids=("n2", "n3", "n2-wide"),
    )
    def test_tail_bound_for_signed_spectra(self, a, b, s):
        # tr(D_a Q D_b Q') = sum_ij a_i Q_ij^2 b_j peaks in absolute value
        # at a permutation Q, where it is a pairing of a and b: s is the
        # largest |pairing|, so every exact term is at most (s/2)^k / k!
        # and the tail of exp(s/2) bounds the series' tail; the bound is
        # the exact rational tail of exp(s/2) to relative 1e-12 (terms past
        # degree + 100 are below 1e-100 of it), as for nonnegative spectra
        assert s == max(abs(sum(x * y for x, y in zip(a, p))) for p in itertools.permutations(b))
        degree, x = 6, Fraction(s) / 2
        res = hyper0f0(a, b, degree)
        exact = sum(x**k / factorial(k) for k in range(degree + 1, degree + 101))
        assert abs(Fraction(res.tail_bound) - exact) <= Fraction(1, 10**12) * exact
        terms = hyper0f0(a, b, 24).terms
        assert all(abs(t) <= x**k / factorial(k) for k, t in enumerate(terms))
        assert abs(sum(terms[degree + 1 :])) <= exact

    def test_against_monte_carlo(self):
        from zonalpoly.haar import sample_orthogonal_batch

        res = hyper0f0((1, 2), (1, 3), 12)
        qs = sample_orthogonal_batch(2, 100_000, np.random.default_rng(8))
        t = np.einsum("mij,i,j->m", qs * qs, np.array([1.0, 2.0]), np.array([1.0, 3.0]))
        mc = np.exp(0.5 * t).mean()
        assert abs(res.value - mc) / mc < 0.015


class TestMcExponentialTrace:
    def test_tracks_truncated_series(self):
        series = hyper0f0((1, 2), (1, 3), 12)
        report = mc_exponential_trace((1, 2), (1, 3), series.value, 50_000, 9)
        assert report.exact_value == series.value
        assert abs(report.mc_estimate - series.value) / series.value < 0.01

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mc_exponential_trace((1, 2), (1,), 1.0, 100, 0)

    @pytest.mark.parametrize("threads", (1, 2))
    def test_sample_deviation_matches_exact_sigma(self, threads):
        # exp(tr(D_a Q D_b Q') / 2)^k = exp(tr(D_ka Q D_b Q') / 2), so the k-th
        # raw moment is hyper0f0(k a, b): at degree 16 each of the four series
        # has a tail bound below 1e-8 on these nonnegative spectra, far below
        # the standard error of the sample deviation.  Seed, sample size,
        # degree and the bound were fixed before the first run
        a, b = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), (Fraction(1, 2), 1, Fraction(1, 4))
        degree, samples, seed, bound = 16, 20_000, 16, 4.0
        series = [hyper0f0([k * x for x in a], b, degree) for k in (1, 2, 3, 4)]
        assert max(s.tail_bound for s in series) < 1e-8
        sigma, se = exact_deviation(*(sum(s.terms) for s in series), samples)
        report = mc_exponential_trace(a, b, series[0].value, samples, seed, threads)
        assert abs(report.mc_std_err * samples**0.5 - sigma) <= bound * se

    @pytest.mark.parametrize("threads", (1, 2))
    def test_overflowing_draws_raise_without_warnings(self, threads):
        # exp(tr / 2) exceeds the float range on some draws: tr reaches 820
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="not finite"):
                mc_exponential_trace((-40, 40), (40, 1), 1.0, 1_000, 1, threads)
