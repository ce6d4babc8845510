"""Symmetric polynomial bases: conversions, arithmetic, and evaluation."""

import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from zonalpoly.partitions import Partition, partitions_of
from zonalpoly.symfunc import (
    MONOMIAL,
    POWERSUM,
    SymPoly,
    _gather,
    _power_sum_columns,
    _substitution_plan,
    m_to_p,
    p_to_m,
)
from zonalpoly.zonal import zonal_row

from oracles import evaluate_by_terms


def expand_power_product(lam, n):
    """Oracle: multiply out p_lam in n explicit variables.

    Returns a dict mapping exponent vectors to coefficients, built by
    direct polynomial multiplication with no symmetric-function theory.
    """
    poly = {(0,) * n: Fraction(1)}
    for k in lam:
        out = {}
        for expo, c in poly.items():
            for i in range(n):
                bumped = list(expo)
                bumped[i] += k
                key = tuple(bumped)
                out[key] = out.get(key, Fraction(0)) + c
        poly = out
    return poly


def monomial_coeffs_from_expansion(expansion, f, n):
    """Read off monomial-basis coefficients from an explicit expansion."""
    out = {}
    for lam in partitions_of(f):
        if len(lam) <= n:
            c = expansion.get(lam + (0,) * (n - len(lam)), Fraction(0))
            if c:
                out[lam] = c
    return out


def dict_p_to_m(lam):
    """Reference: p_lam multiplied out one power sum at a time, on dicts.

    Merging part k into a partition mu bumps one part value v of mu, or
    appends a new part for v = 0, and counts the result once per part of
    value v + k; no positions and no memo.
    """
    out = {(): 1}
    for k in lam:
        step = {}
        for mu, c in out.items():
            for v in set(mu) | {0}:
                merged = list(mu)
                if v:
                    merged.remove(v)
                merged.append(v + k)
                nu = tuple(sorted(merged, reverse=True))
                step[nu] = step.get(nu, 0) + c * nu.count(v + k)
        out = step
    return out


def dict_m_to_p(poly):
    """Reference: the triangular solve on dicts keyed by partition.

    Solves finest first, dividing the remaining m_mu coefficient by the
    diagonal of the p_mu column and subtracting that column from the
    coarser remainder; no position plan.
    """
    rest = dict(poly.coeffs)
    out = {}
    for mu in reversed(partitions_of(poly.degree)):
        c = rest.pop(mu, 0)
        if not c:
            continue
        column = p_to_m(mu).coeffs
        diagonal = column[mu]
        x, r = divmod(c, diagonal)
        if r:
            x = Fraction(c, diagonal)
        out[mu] = x
        for lam, b in column.items():
            if lam != mu:
                rest[lam] = rest.get(lam, 0) - x * b
    return SymPoly(poly.degree, POWERSUM, out)


class TestPowerToMonomial:
    def test_single_power_sum(self):
        assert p_to_m(Partition((2,))) == SymPoly(2, MONOMIAL, {(2,): 1})

    def test_squared_p1(self):
        assert p_to_m(Partition((1, 1))) == SymPoly(2, MONOMIAL, {(2,): 1, (1, 1): 2})

    def test_cubed_p1(self):
        expected = SymPoly(3, MONOMIAL, {(3,): 1, (2, 1): 3, (1, 1, 1): 6})
        assert p_to_m(Partition((1, 1, 1))) == expected

    @pytest.mark.parametrize("f", range(1, 6))
    def test_against_explicit_expansion(self, f):
        # n = f variables keep every monomial of degree f alive
        for lam in partitions_of(f):
            expansion = expand_power_product(lam, f)
            expected = monomial_coeffs_from_expansion(expansion, f, f)
            assert dict(p_to_m(lam).coeffs) == expected

    @pytest.mark.parametrize("f", range(13))
    def test_columns_match_dict_products(self, f):
        parts = partitions_of(f)
        columns = _power_sum_columns(f)
        assert len(columns) == len(parts)
        for mu, column in zip(parts, columns):
            positions = [i for i, _ in column]
            assert positions == sorted(set(positions))
            assert {parts[i]: b for i, b in column} == dict_p_to_m(mu)
            assert dict(p_to_m(mu).coeffs) == dict_p_to_m(mu)

    @pytest.mark.parametrize("f", range(1, 11))
    def test_substitution_plan_is_the_transpose_of_the_columns(self, f):
        parts = partitions_of(f)
        plan = _substitution_plan(f)
        x = [random.Random(f).randint(-9, 9) for _ in parts]
        columns = _power_sum_columns(f)
        for i, (diagonal, weights, gather) in enumerate(plan):
            finer = [j for j, column in enumerate(columns) if j != i and i in dict(column)]
            column = p_to_m(parts[i]).coeffs
            assert diagonal == column[parts[i]]
            assert all(j > i for j in finer)
            want = {mu: p_to_m(mu).coeffs.get(parts[i], 0) for mu in parts[i + 1 :]}
            assert {parts[j]: b for j, b in zip(finer, weights)} == {
                mu: b for mu, b in want.items() if b
            }
            assert list(gather(x)) == [x[j] for j in finer]

    @pytest.mark.parametrize("positions", [(), (3,), (0, 4), (4, 1, 2)])
    def test_gather_returns_a_sequence_for_any_count(self, positions):
        x = list(range(10, 16))
        assert list(_gather(positions)(x)) == [x[j] for j in positions]

    @pytest.mark.parametrize("f", range(1, 11))
    def test_keys_are_validated_partitions(self, f):
        for lam in partitions_of(f):
            for key in p_to_m(lam).coeffs:
                assert type(key) is Partition
                assert key == Partition(tuple(key))


def scaled(poly, scale):
    """The polynomial with every coefficient multiplied by ``scale``."""
    return SymPoly(poly.degree, poly.basis, {lam: c * scale for lam, c in poly.coeffs.items()})


class TestMonomialToPower:
    def test_single_monomial(self):
        assert m_to_p(SymPoly(2, MONOMIAL, {(2,): 1})) == SymPoly(2, POWERSUM, {(2,): 1})

    def test_reference_degree_two_rows(self):
        top = SymPoly(2, MONOMIAL, {(2,): 3, (1, 1): 2})
        assert m_to_p(top) == SymPoly(2, POWERSUM, {(1, 1): 1, (2,): 2})
        bottom = SymPoly(2, MONOMIAL, {(1, 1): 2})
        assert m_to_p(bottom) == SymPoly(2, POWERSUM, {(1, 1): 1, (2,): -1})

    def test_rejects_powersum_input(self):
        with pytest.raises(ValueError):
            m_to_p(SymPoly(1, POWERSUM, {(1,): 1}))

    # A scale of 1/3 sends m_to_p down its Fraction branch; 1 keeps it in int.
    @pytest.mark.parametrize(
        "f, scale",
        [pytest.param(f, 1, id=str(f)) for f in range(1, 9)]
        + [pytest.param(f, Fraction(1, 3), id=f"{f}-1/3") for f in range(1, 9)],
    )
    def test_round_trip_is_identity(self, f, scale):
        for lam in partitions_of(f):
            back = m_to_p(scaled(p_to_m(lam), scale))
            assert back == SymPoly(f, POWERSUM, {lam: scale})
            for c in back.coeffs.values():
                assert type(c) is int or (type(c) is Fraction and c.denominator > 1)

    @pytest.mark.parametrize("f", range(1, 15))
    def test_matches_dict_reference_on_zonal_rows(self, f):
        # two degrees past the table ceiling: every power-sum form is integral
        for kappa in partitions_of(f):
            row = zonal_row(kappa)
            got = m_to_p(row)
            assert got == dict_m_to_p(row)
            assert all(type(c) is int for c in got.coeffs.values())

    @pytest.mark.parametrize("f", range(1, 9))
    def test_matches_dict_reference_with_fractions(self, f):
        # a scale of 1/3 lands on the Fraction branch at every degree
        for lam in partitions_of(f):
            poly = scaled(p_to_m(lam), Fraction(1, 3))
            got = m_to_p(poly)
            assert got == dict_m_to_p(poly)
            assert any(type(c) is Fraction for c in got.coeffs.values())
            # built unvalidated: the same value the validating constructor keeps
            assert dict(got.coeffs) == dict(SymPoly(f, POWERSUM, got.coeffs).coeffs)
            for lam, c in got.coeffs.items():
                assert type(lam) is Partition and lam.weight == f
                assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
        rng = random.Random(f)
        for _ in range(5):
            poly = SymPoly(
                f,
                MONOMIAL,
                {p: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for p in partitions_of(f)},
            )
            assert m_to_p(poly) == dict_m_to_p(poly)


class TestArithmetic:
    def test_zero_coefficients_pruned(self):
        poly = SymPoly(2, MONOMIAL, {(2,): 1, (1, 1): 0})
        assert (1, 1) not in poly.coeffs
        assert poly == SymPoly(2, MONOMIAL, {(2,): 1})

    def test_key_weight_validated(self):
        with pytest.raises(ValueError):
            SymPoly(2, MONOMIAL, {(1,): 1})

    def test_integral_values_are_stored_as_int(self):
        poly = SymPoly(
            3,
            MONOMIAL,
            {(3,): Fraction(4, 2), (2, 1): True, (1, 1, 1): np.int64(-5)},
        )
        assert [(c, type(c)) for c in poly.coeffs.values()] == [(2, int), (1, int), (-5, int)]
        assert poly.coefficient((3,)) == 2 and type(poly.coefficient((3,))) is int
        assert type(SymPoly(2, MONOMIAL, {(2,): 1}).coefficient((1, 1))) is int
        third = SymPoly(1, MONOMIAL, {(1,): Fraction(2, 6)})
        assert third.coefficient((1,)) == Fraction(1, 3)

    def test_equality_is_symmetric_and_transitive(self):
        a = SymPoly(2, MONOMIAL, {(2,): Fraction(1, 3)})
        b = SymPoly(2, MONOMIAL, {(2,): Fraction(2, 6)})
        c = SymPoly(2, MONOMIAL, {(2,): Fraction(3, 9)})
        assert a == b and b == a
        assert b == c and a == c


#: The package's evaluator and the tests' term-by-term reference, each (poly, xs) -> value.
EVALUATORS = (SymPoly.evaluate, evaluate_by_terms)


class TestEvaluation:
    # the closed forms hold for the package's evaluator and for the reference

    def test_orbit_counts_at_ones(self):
        m11 = SymPoly(2, MONOMIAL, {(1, 1): 1})
        m2 = SymPoly(2, MONOMIAL, {(2,): 1})
        for evaluate in EVALUATORS:
            assert evaluate(m11, (1, 1)) == 1
            assert evaluate(m2, (1, 1)) == 2

    def test_zero_vector_kills_positive_degree(self):
        for lam in partitions_of(3):
            for evaluate in EVALUATORS:
                assert evaluate(p_to_m(lam), (0, 0, 0)) == 0

    @pytest.mark.parametrize("n", (1, 2, 3, 5))
    def test_power_sum_at_ones(self, n):
        poly = SymPoly(2, POWERSUM, {(1, 1): 1, (2,): 2})
        for evaluate in EVALUATORS:
            assert evaluate(poly, (1,) * n) == n * n + 2 * n

    def test_vanishing_with_too_few_variables(self):
        m111 = SymPoly(3, MONOMIAL, {(1, 1, 1): 1})
        for evaluate in EVALUATORS:
            assert evaluate(m111, (5, 7)) == 0
            assert evaluate(m111, (Fraction(1, 2),)) == 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_ones_count_formula(self, n):
        # m_lam at n ones equals n! / ((n - len)! * prod multiplicities!)
        for f in range(6):
            for lam in partitions_of(f):
                poly = SymPoly(f, MONOMIAL, {lam: 1}) if f else SymPoly(0, MONOMIAL, {(): 1})
                for evaluate in EVALUATORS:
                    value = evaluate(poly, (1,) * n)
                    if len(lam) > n:
                        assert value == 0
                        continue
                    mults = 1
                    for k in set(lam):
                        mults *= factorial(lam.count(k))
                    assert value == factorial(n) // (factorial(n - len(lam)) * mults)

    def test_evaluation_is_additive(self):
        rng = random.Random(11)
        for _ in range(20):
            f = rng.randint(1, 5)
            parts = partitions_of(f)
            a = SymPoly(f, MONOMIAL, {p: Fraction(rng.randint(-4, 4)) for p in parts})
            b = SymPoly(f, MONOMIAL, {p: Fraction(rng.randint(-4, 4), 3) for p in parts})
            xs = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
            total = SymPoly(f, MONOMIAL, {p: a.coefficient(p) + b.coefficient(p) for p in parts})
            assert total.evaluate(xs) == evaluate_by_terms(a, xs) + evaluate_by_terms(b, xs)

    def test_evaluation_commutes_with_basis_change(self):
        rng = random.Random(13)
        for _ in range(20):
            f = rng.randint(1, 6)
            parts = partitions_of(f)
            poly = SymPoly(
                f, MONOMIAL, {p: Fraction(rng.randint(-5, 5), 2) for p in parts}
            )
            xs = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4))
            assert poly.evaluate(xs) == evaluate_by_terms(m_to_p(poly), xs)
            assert m_to_p(poly).evaluate(xs) == evaluate_by_terms(poly, xs)

    @pytest.mark.parametrize("basis", (MONOMIAL, POWERSUM))
    def test_matches_term_by_term_reference(self, basis):
        # random polynomials at rational points of 0 to 4 coordinates, so many
        # have fewer coordinates than parts, and the degree-0 polynomial
        rng = random.Random(17)
        for _ in range(40):
            f = rng.randint(0, 6)
            parts = partitions_of(f)
            poly = SymPoly(f, basis, {p: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for p in parts})
            xs = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(rng.randint(0, 4)))
            value = poly.evaluate(xs)
            assert type(value) is Fraction
            assert value == evaluate_by_terms(poly, xs), (poly, xs)
        constant = SymPoly(0, basis, {(): Fraction(-7, 3)})
        assert constant.evaluate(()) == constant.evaluate((2, Fraction(1, 5))) == Fraction(-7, 3)
        # a float coordinate is read exactly
        poly = SymPoly(3, basis, {(2, 1): 1, (3,): Fraction(1, 3)})
        assert poly.evaluate((0.5,)) == poly.evaluate((Fraction(1, 2),))
        assert poly.evaluate((0.1, 2)) == poly.evaluate((Fraction(0.1), 2)) != poly.evaluate(
            (Fraction(1, 10), 2)
        )
