"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  Criterion 4b is a documented expected failure: the residual
coefficient family is provably dimension-dependent, so the test asserts
the criterion as stated and is marked strict-xfail; see the test body
for the numbers.
"""

import time
from fractions import Fraction
from math import exp, factorial, prod, sqrt

import numpy as np
import pytest
from scipy.stats import ks_2samp

from zonalpoly.cli import DEGREE_CEILING
from zonalpoly.haar import sample_orthogonal_batch
from zonalpoly.moments import bilinear_coefficient, hyper0f0
from zonalpoly.montecarlo import mc_splitting
from zonalpoly.partitions import Partition, partitions_of, rho
from zonalpoly.symfunc import POWERSUM, SymPoly, m_to_p, p_to_m
from zonalpoly.zonal import (
    character_degree,
    check_trace_identity,
    double_factorial,
    zonal_at_identity,
    zonal_in_powersums,
    zonal_row,
)

from clirun import Runner
from oracles import dominated_by, evaluate_by_terms, oracle_sample_batch, residual_values
from reference import GOLDEN_CHARACTER_DEGREES, GOLDEN_POWERSUM_ROWS


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_golden_table_reproduction():
    start = time.perf_counter()
    result = Runner().invoke(main_cli(), ["verify", "--f", "1..6"])
    elapsed = time.perf_counter() - start
    # verify proves the rows without the golden table; every tabulated row must match too
    golden = [
        (kappa, f, row) for f, rows in GOLDEN_POWERSUM_ROWS.items() for kappa, row in rows.items()
    ]
    mismatches = [
        kappa for kappa, f, row in golden if zonal_in_powersums(kappa) != SymPoly(f, POWERSUM, row)
    ]
    ok = result.exit_code == 0 and "FAIL" not in result.output and elapsed < 5.0 and not mismatches
    report(
        "1",
        ok,
        f"verify --f 1..6 exit={result.exit_code} in {elapsed:.2f}s (< 5s); "
        f"{len(golden) - len(mismatches)} of {len(golden)} golden rows match",
    )
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.output
    assert elapsed < 5.0
    assert not mismatches


def main_cli():
    from zonalpoly.cli import main

    return main


def test_criterion_2_trace_identity():
    start = time.perf_counter()
    for f in range(1, 9):
        ok, diff = check_trace_identity(f)
        assert ok, f"trace identity failed at f={f}: {diff}"
    elapsed = time.perf_counter() - start
    report("2", elapsed < 30.0, f"exact for f <= 8 in {elapsed:.2f}s (< 30s)")
    assert elapsed < 30.0


def test_criterion_3_character_degrees():
    mismatches = [
        kappa
        for kappa, chi in GOLDEN_CHARACTER_DEGREES.items()
        if character_degree(Partition(kappa)) != chi
    ]
    report(
        "3",
        not mismatches,
        f"{len(GOLDEN_CHARACTER_DEGREES)} tabulated character degrees match",
    )
    assert not mismatches


def test_criterion_4a_coefficient_formulas():
    for f in range(1, 5):
        for n in range(2, 6):
            c = zonal_at_identity((f,), n)
            assert bilinear_coefficient(f, n, (f,), (f,)) == Fraction(
                double_factorial(2 * f - 1), c
            )
            assert bilinear_coefficient(f, n, (f,), (1,) * f) == Fraction(factorial(f), c)
    report("4a", True, "extreme coefficient closed forms exact for f <= 4, n in 2..5")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "dimension-independence of the residual coefficients is mathematically "
        "unattainable: clearing the common factor only absorbs the single-row "
        "term, and the remaining families keep a dimension-dependent ratio "
        "(f=2, g=h=(1,1) gives 32 at n=2 but 20 at n=3)"
    ),
)
def test_criterion_4b_residual_dimension_independence():
    failures = []
    for f in (2, 3):
        lower = [g for g in partitions_of(f) if g != (f,)]
        for g in lower:
            for h in lower:
                values = residual_values(f, g, h, (f, f + 1))
                if values[0][1] != values[1][1]:
                    failures.append((f, tuple(g), tuple(h), values))
    detail = "; ".join(
        f"f={f} g={g} h={h}: " + ", ".join(f"n={n}->{v}" for n, v in vals)
        for f, g, h, vals in failures[:2]
    )
    report("4b", not failures, detail or "residuals dimension-free for f <= 3")
    assert not failures, detail


def test_criterion_5_single_row_structure():
    for f in range(1, DEGREE_CEILING + 1):
        row = zonal_row(Partition((f,)))
        assert row.coefficient((f,)) == double_factorial(2 * f - 1), f"head wrong at f={f}"
        assert row.coefficient((1,) * f) == factorial(f), f"tail wrong at f={f}"
    for f in range(1, 5):
        for n in range(1, 6):
            assert zonal_at_identity((f,), n) == prod(n + 2 * j for j in range(f))
    report(
        "5",
        True,
        f"(2f-1)!! / f! heads for f <= {DEGREE_CEILING}; identity values for f <= 4, n <= 5",
    )


def test_criterion_6_monte_carlo_splitting():
    start = time.perf_counter()
    configs = [
        ((1,), (1, 2), (3, 1), 101),
        ((2,), (1, 2), (3, 1), 102),
        ((2,), (1, 2, 3), (1, 1, 2), 103),
        ((2, 1), (1, 2, 3), (1, 1, 2), 104),
    ]
    zs = []
    for kappa, a, b, seed in configs:
        rep = mc_splitting(kappa, a, b, 100_000, seed)
        zs.append((kappa, rep.z_score))
        assert abs(rep.z_score) <= 4, (kappa, rep)
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"kappa={tuple(k)} z={z:+.2f}" for k, z in zs)
    report("6", elapsed < 60.0, f"{detail} in {elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0


def test_criterion_7_sampler_battery():
    draws = 100_000
    failures = []
    for n in (2, 3, 4):
        qs = sample_orthogonal_batch(n, draws, np.random.default_rng(7000 + n))
        qo = oracle_sample_batch(n, draws, np.random.default_rng(8000 + n))
        stats = {
            "trQ": (np.trace(qs, axis1=1, axis2=2), np.trace(qo, axis1=1, axis2=2)),
            "q11": (qs[:, 0, 0], qo[:, 0, 0]),
            "q11^2": (qs[:, 0, 0] ** 2, qo[:, 0, 0] ** 2),
        }
        for name, (xs, ys) in stats.items():
            # round to a common grid first: the 2x2 reflection trace is an
            # atom at zero and must align across samplers
            p = ks_2samp(np.round(xs, 12), np.round(ys, 12)).pvalue
            if p <= 0.01:
                failures.append(f"KS {name} n={n} p={p:.4f}")
        freq = (np.linalg.det(qs) < 0).mean()
        if abs(freq - 0.5) > 3 * sqrt(0.25 / draws):
            failures.append(f"det sign n={n} freq={freq:.4f}")
        for i, j in ((0, 0), (n - 1, 0), (0, n - 1), (n - 1, n - 1)):
            x = qs[:, i, j] ** 2
            se = x.std(ddof=1) / sqrt(draws)
            if abs(x.mean() - 1 / n) > 3 * se:
                failures.append(f"E q[{i}{j}]^2 n={n}")
        x4 = qs[:, 0, 0] ** 4
        se4 = x4.std(ddof=1) / sqrt(draws)
        if abs(x4.mean() - 3 / (n * (n + 2))) > 3 * se4:
            failures.append(f"E q11^4 n={n}")
    report("7", not failures, "KS battery, det signs, entry moments at n <= 4" +
           (f"; failures: {failures}" if failures else ""))
    assert not failures


def test_criterion_8_series_consistency():
    series = hyper0f0((1, 2), (1, 3), 12)
    qs = sample_orthogonal_batch(2, 1_000_000, np.random.default_rng(88))
    t = np.einsum("mij,i,j->m", qs * qs, np.array([1.0, 2.0]), np.array([1.0, 3.0]))
    mc = float(np.exp(0.5 * t).mean())
    rel = abs(series.value - mc) / mc
    assert rel <= 0.01, (series.value, mc)

    # scalar first matrix: the integrand is the constant exp(a tr(b) / 2),
    # so every term must equal (a tr(b) / 2)^f / f! exactly
    scalar = hyper0f0((3, 3), (1, 2), 12)
    target = Fraction(3 * (1 + 2), 2)
    assert all(
        term == target**f / factorial(f) for f, term in enumerate(scalar.terms)
    )
    unit = hyper0f0((1, 1), (1, 1), 20)
    assert abs(unit.value - exp(1.0)) < 1e-6
    report("8", True, f"degree-12 series vs 1e6-sample MC: rel err {rel:.4%} (<= 1%)")


def test_criterion_9_property_suites():
    start = time.perf_counter()

    # dominance partial-order axioms, f <= 8
    for f in range(1, 9):
        parts = partitions_of(f)
        assert all(dominated_by(p, p) for p in parts)
        for a in parts:
            for b in parts:
                if a != b and dominated_by(a, b):
                    assert not dominated_by(b, a)
                for c in parts:
                    if dominated_by(a, b) and dominated_by(b, c):
                        assert dominated_by(a, c)

    # recursion-denominator positivity, f <= 8
    for f in range(1, 9):
        for top in partitions_of(f):
            for low in partitions_of(f):
                if low != top and dominated_by(low, top):
                    assert rho(top) - rho(low) > 0

    # basis round trip, weight <= 8
    for f in range(1, 9):
        for lam in partitions_of(f):
            assert m_to_p(p_to_m(lam)) == SymPoly(f, "powersum", {lam: 1})

    # evaluation homomorphism at rational points
    xs = (Fraction(1, 2), Fraction(-2), Fraction(3, 5))
    for f in range(1, 6):
        polys = [zonal_row(kappa) for kappa in partitions_of(f)]
        total = SymPoly(
            f, "monomial", {lam: sum(p.coefficient(lam) for p in polys) for lam in partitions_of(f)}
        )
        assert total.evaluate(xs) == sum(evaluate_by_terms(p, xs) for p in polys)
        for poly in polys:
            assert poly.evaluate(xs) == evaluate_by_terms(m_to_p(poly), xs)

    elapsed = time.perf_counter() - start
    report("9", elapsed < 300.0, f"property suites in {elapsed:.1f}s (< 300s)")
    assert elapsed < 300.0
