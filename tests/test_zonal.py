"""The zonal table recursion against reference rows and exact identities."""

from fractions import Fraction
from math import factorial, prod

import pytest

from zonalpoly import zonal
from zonalpoly.cli import DEGREE_CEILING
from zonalpoly.partitions import Partition, partitions_of, rho
from zonalpoly.symfunc import MONOMIAL, POWERSUM, SymPoly, _monomial_values, _row_dot, p_to_m
from zonalpoly.zonal import (
    DataIntegrityError,
    _capped_row,
    _raise_plan,
    _raising_moves,
    _jack_norm,
    character_degree,
    check_orthogonality,
    check_trace_identity,
    double_factorial,
    zonal_at_identity,
    zonal_in_powersums,
    zonal_row,
)

from oracles import dominated_by, evaluate_by_terms, raising_moves, zonal_by_branching
from reference import GOLDEN_CHARACTER_DEGREES, GOLDEN_POWERSUM_ROWS


def fraction_recursion_row(kappa):
    """Reference: the recursion over Fractions from a provisional top of 1.

    The finished row is rescaled once so that its m_{(1,...,1)}
    coefficient is f!; no closed form for the top coefficient is used.
    """
    f = kappa.weight
    coeffs = {kappa: Fraction(1)}
    for g in partitions_of(f):
        if g == kappa or not dominated_by(g, kappa):
            continue
        acc = Fraction(0)
        for numer, h in raising_moves(g):
            acc += numer * coeffs.get(h, 0)
        if acc:
            coeffs[g] = acc / (rho(kappa) - rho(g))
    scale = factorial(f) / coeffs[Partition((1,) * f)]
    return SymPoly(f, MONOMIAL, {lam: c * scale for lam, c in coeffs.items()})


@pytest.fixture
def fresh_rows():
    """Empty row caches before and after a test that corrupts the recursion."""
    caches = (zonal_row, _capped_row, zonal_in_powersums)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


class TestDoubleFactorial:
    def test_values(self):
        assert [double_factorial(k) for k in (-1, 0, 1, 2, 5, 7)] == [1, 1, 1, 2, 15, 105]


class TestZonalRow:
    def test_degree_one(self):
        assert zonal_row(Partition((1,))) == SymPoly(1, MONOMIAL, {(1,): 1})

    def test_hook_row(self):
        expected = SymPoly(3, MONOMIAL, {(2, 1): 4, (1, 1, 1): 6})
        assert zonal_row(Partition((2, 1))) == expected

    @pytest.mark.parametrize("f", range(1, 7))
    def test_all_ones_row_is_single_term(self, f):
        row = zonal_row(Partition((1,) * f))
        assert row == SymPoly(f, MONOMIAL, {(1,) * f: factorial(f)})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            zonal_row(Partition())

    @pytest.mark.parametrize("f", range(1, DEGREE_CEILING + 1))
    def test_normalization(self, f):
        for kappa in partitions_of(f):
            assert zonal_row(kappa).coefficient((1,) * f) == factorial(f)

    @pytest.mark.parametrize("f", range(1, DEGREE_CEILING + 1))
    def test_triangular_under_dominance(self, f):
        for kappa in partitions_of(f):
            for lam in zonal_row(kappa).coeffs:
                assert dominated_by(lam, kappa)

    @pytest.mark.parametrize("f", range(1, 13))
    def test_matches_fraction_recursion(self, f):
        for kappa in partitions_of(f):
            assert zonal_row(kappa) == fraction_recursion_row(kappa)

    @pytest.mark.parametrize("f", range(1, 11))
    def test_raising_moves_yield_validated_partitions(self, f):
        for g in partitions_of(f):
            for _, h in _raising_moves(g):
                assert type(h) is Partition
                assert h == Partition(tuple(h))

    @pytest.mark.parametrize("f", range(1, 11))
    def test_raise_plan_sums_moves_onto_earlier_positions(self, f):
        for n in range(1, f + 1):
            parts, steps, orbits = _raise_plan(f, n)
            assert parts == tuple(g for g in partitions_of(f) if len(g) <= n)
            assert len(steps) == len(parts)
            for pos, (g, (rho_g, numers, _)) in enumerate(zip(parts, steps)):
                targets = [parts.index(h) for _, h in _raising_moves(g)]
                assert rho_g == rho(g)
                assert all(target < pos for target in targets)
                assert len(set(targets)) == len(targets)
                merged = {}
                for numer, h in raising_moves(g):
                    merged[h] = merged.get(h, 0) + numer
                assert {parts[t]: numer for numer, t in zip(numers, targets)} == merged
                assert dict((h, numer) for numer, h in _raising_moves(g)) == merged
            # the orbit sizes weight the Z(I_n) pin, which the full plan does not use
            ones = [1] * n
            want = tuple(evaluate_by_terms(SymPoly(f, MONOMIAL, {g: 1}), ones) for g in parts)
            assert orbits == (want if n < f else ())

    @pytest.mark.parametrize("f", range(1, 11))
    def test_raise_gathers_read_the_targets(self, f):
        for n in range(1, f + 1):
            parts, steps, _ = _raise_plan(f, n)
            coeffs = list(range(100, 100 + len(parts)))
            for g, (_, numers, gather) in zip(parts, steps):
                targets = [parts.index(h) for _, h in _raising_moves(g)]
                assert len(numers) == len(targets)
                assert list(gather(coeffs)) == [coeffs[t] for t in targets]

    @pytest.mark.parametrize("f", range(1, 11))
    def test_trusted_rows_equal_validated_values(self, f):
        # rows and power-sum forms skip SymPoly's validation: they must be what it keeps
        for kappa in partitions_of(f):
            polys = [zonal_row(kappa), zonal_in_powersums(kappa), p_to_m(kappa)]
            polys += [_capped_row(kappa, n) for n in range(len(kappa), f)]
            for poly in polys:
                assert poly == SymPoly(poly.degree, poly.basis, dict(poly.coeffs))
                for lam, c in poly.coeffs.items():
                    assert type(lam) is Partition and lam.weight == f
                    assert type(c) is int and c

    def test_corrupted_seed_is_rejected(self, monkeypatch, fresh_rows):
        true_top = zonal._top_coefficient
        monkeypatch.setattr(zonal, "_top_coefficient", lambda kappa: true_top(kappa) + 1)
        for kappa in [(1,), (2,), (2, 1), (3, 2, 1), (4, 4, 2, 1, 1)]:
            with pytest.raises(DataIntegrityError):
                zonal_row(Partition(kappa))
            for n in range(len(kappa), len(kappa) + 2):
                with pytest.raises(DataIntegrityError):
                    _capped_row(Partition(kappa), n)

    def test_scaled_seed_fails_the_identity_pin_of_a_capped_row(self, monkeypatch, fresh_rows):
        # twice the true seed keeps every division exact, so the row is twice
        # Z_kappa and only the closed form Z_kappa(I_n) can catch it
        true_top = zonal._top_coefficient
        monkeypatch.setattr(zonal, "_top_coefficient", lambda kappa: 2 * true_top(kappa))
        for kappa, n in [((2,), 1), ((2, 1), 2), ((3, 2, 1), 3), ((4, 2), 2), ((5, 3, 1), 4)]:
            want = zonal_at_identity(kappa, n)
            with pytest.raises(DataIntegrityError, match=rf"Z\(I_{n}\) = {2 * want}, expected {want}"):
                _capped_row(Partition(kappa), n)

    @pytest.mark.parametrize("f", range(2, 15))
    def test_capped_rows_are_the_full_rows_on_at_most_n_parts(self, f):
        for kappa in partitions_of(f):
            full = zonal_row(kappa).coeffs
            for n in range(len(kappa), f):
                want = {lam: c for lam, c in full.items() if len(lam) <= n}
                assert _capped_row(kappa, n) == SymPoly(f, MONOMIAL, want), (kappa, n)

    def test_capped_row_from_n_equal_f_is_the_full_row(self):
        kappa = Partition((3, 1))
        assert _capped_row(kappa, 4) is zonal_row(kappa)
        assert _capped_row(kappa, 9) is zonal_row(kappa)

    def test_capped_row_rejects_more_parts_than_n(self):
        with pytest.raises(ValueError, match="more than 2 parts"):
            _capped_row(Partition((2, 1, 1)), 2)

    def test_capped_rows_match_the_branching_rule(self):
        # every kappa with at most 3 parts to f = 12, capped below f from f = 4 on,
        # against Z_kappa built by the branching rule with no raising recursion
        xs = (Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7))
        oracle = zonal_by_branching(xs)
        scale, values = _monomial_values(xs, 12)
        for f in range(1, 13):
            for kappa in partitions_of(f):
                if len(kappa) <= 3:
                    got = Fraction(_row_dot(_capped_row(kappa, 3), values), scale**f)
                    assert got == oracle(kappa), kappa

    @pytest.mark.parametrize("f", range(1, DEGREE_CEILING + 1))
    def test_coefficients_nonnegative_integers(self, f):
        for kappa in partitions_of(f):
            for c in zonal_row(kappa).coeffs.values():
                assert c.denominator == 1 and c >= 0


class TestGoldenRows:
    @pytest.mark.parametrize("f", sorted(GOLDEN_POWERSUM_ROWS))
    def test_powersum_rows_match_reference(self, f):
        for kappa, expected in GOLDEN_POWERSUM_ROWS[f].items():
            want = SymPoly(f, POWERSUM, {k: Fraction(v) for k, v in expected.items()})
            assert zonal_in_powersums(kappa) == want

    def test_reference_covers_expected_rows(self):
        assert [len(GOLDEN_POWERSUM_ROWS[f]) for f in range(1, 7)] == [1, 2, 3, 5, 4, 11]

    def test_character_degrees_match_reference(self):
        assert len(GOLDEN_CHARACTER_DEGREES) == 29
        for kappa, chi in GOLDEN_CHARACTER_DEGREES.items():
            assert character_degree(Partition(kappa)) == chi

    def test_specific_powersum_rows(self):
        assert zonal_in_powersums((3,)) == SymPoly(
            3, POWERSUM, {(1, 1, 1): 1, (2, 1): 6, (3,): 8}
        )
        assert zonal_in_powersums((2, 2)) == SymPoly(
            4, POWERSUM, {(1, 1, 1, 1): 1, (2, 1, 1): 2, (2, 2): 7, (3, 1): -8, (4,): -2}
        )
        assert zonal_in_powersums((1, 1, 1, 1)) == SymPoly(
            4, POWERSUM, {(1, 1, 1, 1): 1, (2, 1, 1): -6, (2, 2): 3, (3, 1): 8, (4,): -6}
        )

    @pytest.mark.parametrize("f", range(1, 9))
    def test_powersum_coefficients_are_integers(self, f):
        for kappa in partitions_of(f):
            for c in zonal_in_powersums(kappa).coeffs.values():
                assert c.denominator == 1
                assert type(c) is int
            for c in zonal_row(kappa).coeffs.values():
                assert type(c) is int
            for c in p_to_m(kappa).coeffs.values():
                assert type(c) is int

    @pytest.mark.parametrize("f", range(9, 13))
    def test_powersum_row_expands_back_to_monomial_row(self, f):
        for kappa in partitions_of(f):
            back: dict = {}
            for lam, c in zonal_in_powersums(kappa).coeffs.items():
                for nu, b in p_to_m(lam).coeffs.items():
                    back[nu] = back.get(nu, 0) + c * b
            assert SymPoly(f, MONOMIAL, back) == zonal_row(kappa)


class TestAtIdentity:
    def test_example_values(self):
        assert zonal_at_identity((2,), 2) == 8
        assert zonal_at_identity((1, 1), 1) == 0

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("f", range(1, 5))
    def test_single_row_equals_normalizing_product(self, f, n):
        # Z_(f)(I_n) is the normalizing product n (n+2) ... (n+2f-2)
        assert zonal_at_identity((f,), n) == prod(n + 2 * j for j in range(f))

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("f", range(1, 7))
    def test_closed_form_matches_orbit_sum(self, f, n):
        ones = (Fraction(1),) * n
        for kappa in partitions_of(f):
            assert zonal_at_identity(kappa, n) == evaluate_by_terms(zonal_row(kappa), ones)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            zonal_at_identity((1,), 0)

    def test_returns_int(self):
        for n in (1, 2, 5):
            for kappa in partitions_of(4):
                assert type(zonal_at_identity(kappa, n)) is int
        assert type(zonal_at_identity((), 3)) is int


class TestTraceIdentity:
    # 13 and 14 lie past the CLI's degree ceiling
    @pytest.mark.parametrize("f", range(1, 15))
    def test_exact_identity(self, f):
        ok, diff = check_trace_identity(f)
        assert ok
        assert diff == {}

    @pytest.mark.parametrize("f", range(1, 13))
    def test_closed_form_is_p1_power(self, f):
        # the closed form the identity check uses, against the expansion of p_1^f
        ratio = Fraction(factorial(2 * f), 2**f * factorial(f))
        power = p_to_m(Partition((1,) * f))
        for lam in partitions_of(f):
            closed = double_factorial(2 * f - 1) * factorial(f) // prod(
                factorial(part) for part in lam
            )
            assert closed == ratio * power.coefficient(lam)

    def test_degree_two_by_hand(self):
        # 1*(3m2 + 2m11) + 2*(2m11) = 3m2 + 6m11 = 3*p1^2
        total = {
            lam: sum(
                character_degree(kappa) * zonal_row(kappa).coefficient(lam)
                for kappa in partitions_of(2)
            )
            for lam in partitions_of(2)
        }
        assert total == {(2,): 3, (1, 1): 6}

    @pytest.mark.parametrize("f", range(1, 7))
    def test_numeric_row_sum_at_rational_point(self, f):
        xs = (Fraction(1, 2), Fraction(2), Fraction(-1, 3))
        total = sum(
            character_degree(kappa) * evaluate_by_terms(zonal_row(kappa), xs)
            for kappa in partitions_of(f)
        )
        ratio = Fraction(factorial(2 * f), 2**f * factorial(f))
        assert total == ratio * sum(xs) ** f


def with_powersum_row(monkeypatch, kappa, change):
    """Make ``zonal.zonal_in_powersums`` give ``change(coeffs)`` for kappa, other rows as they are."""
    row = zonal.zonal_in_powersums

    def changed(k):
        poly = row(k)
        if k != kappa:
            return poly
        return SymPoly(poly.degree, poly.basis, change(dict(poly.coeffs)))

    monkeypatch.setattr(zonal, "zonal_in_powersums", changed)


class TestOrthogonality:
    @pytest.mark.parametrize("f", range(1, DEGREE_CEILING + 1))
    def test_every_served_degree(self, f):
        assert check_orthogonality(f) == (True, {})

    def test_degree_two_by_hand(self):
        # Z_(2) = p_1^2 + 2 p_2 and Z_(1,1) = p_1^2 - p_2, with <p_1^2, p_1^2> = 2! 2^2
        # and <p_2, p_2> = 2 * 2: norms 8 + 4 * 4 = 24 and 8 + 4 = 12, and
        # <Z_(2), Z_(1,1)> = 8 - 2 * 4 = 0
        assert _jack_norm(Partition((2,))) == 24 == (3 * 4) * (1 * 2)
        assert _jack_norm(Partition((1, 1))) == 12 == (2 * 3) * (1 * 2)
        assert check_orthogonality(2) == (True, {})

    def test_one_coefficient_off_names_every_pair_it_breaks(self, monkeypatch):
        # p_(2,1,1) of Z_(2,2) one up: each pair with Z_(2,2) moves by the other
        # row's p_(2,1,1) coefficient (12, 5, 2 + 1 + 2, -1, -6) times
        # z_(2,1,1) 2^3 = 4 * 8 = 32; pairs without it stay exact
        kappa, lam = Partition((2, 2)), Partition((2, 1, 1))
        with_powersum_row(monkeypatch, kappa, lambda c: {**c, lam: c[lam] + 1})
        four, three_one, ones = Partition((4,)), Partition((3, 1)), Partition((1, 1, 1, 1))
        assert check_orthogonality(4) == (
            False,
            {
                (four, kappa): 384,
                (three_one, kappa): 160,
                (kappa, kappa): 160,
                (kappa, lam): -32,
                (kappa, ones): -192,
            },
        )

    def test_norm_is_checked_on_the_diagonal(self, monkeypatch):
        # a doubled row stays orthogonal to the others: only its norm catches it
        kappa = Partition((2, 1))
        with_powersum_row(monkeypatch, kappa, lambda c: {k: 2 * v for k, v in c.items()})
        assert check_orthogonality(3) == (False, {(kappa, kappa): 3 * _jack_norm(kappa)})

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError, match="at least 1"):
            check_orthogonality(0)


class TestLeadingCoefficients:
    @pytest.mark.parametrize("f", range(1, 9))
    def test_top_and_bottom(self, f):
        row = zonal_row(Partition((f,)))
        assert row.coefficient((f,)) == double_factorial(2 * f - 1)
        assert row.coefficient((1,) * f) == factorial(f)

    def test_degree_five_head(self):
        assert zonal_row(Partition((5,))).coefficient((5,)) == 945
