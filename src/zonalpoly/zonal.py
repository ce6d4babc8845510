"""Zonal polynomials via an explicit coefficient recursion.

Each polynomial Z_kappa is homogeneous symmetric of degree f = |kappa|,
expanded in monomial symmetric functions with coefficients supported on
the partitions dominated by kappa, and normalized so that the coefficient
of m_{(1,...,1)} equals f!.  Rows are produced by a triangular recursion
in integers: the top coefficient is seeded with its closed form
prod_s (2 a(s) + l(s) + 1), every lower coefficient is a
positively-weighted sum of coefficients above it in dominance divided
exactly by rho(kappa) - rho(g), and the m_{(1,...,1)} coefficient must
come out as f!.  Both ends of every row are thus pinned by independent
closed forms, and a division with a remainder is a hard error.

The recursion runs on a per-degree plan (``_raise_plan``), built once on
first use: for each partition g, by its position in ``partitions_of(f)``,
the numerators of its raising moves, the positions they land on, and
rho(g).  A row is a list of integers filled from kappa's position down.
A partition whose raises all land on zero coefficients is skipped (its
coefficient is zero), and that zero-sum skip stands in for a dominance
test: only partitions strictly below kappa can collect a nonzero sum.
The plan holds tuples only, so concurrent first access can at worst
build it twice and no caller can change a shared plan.  Cold, all rows
of one degree take about 0.04 s at f = 14 and 0.13 s at f = 16 (2 cores,
Python 3.11), and their power-sum forms about 0.16 s and 0.8 s more.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import mul

from .partitions import (
    Partition,
    _trusted_partition,
    conjugate,
    partitions_of,
    rho,
    sym_group_degree,
)
from .symfunc import MONOMIAL, SymPoly, m_to_p

__all__ = [
    "DataIntegrityError",
    "double_factorial",
    "zonal_row",
    "zonal_in_powersums",
    "zonal_at_identity",
    "character_degree",
    "check_trace_identity",
]

class DataIntegrityError(ValueError):
    """A computed table violates a structural property it must satisfy."""


def double_factorial(k: int) -> int:
    """k!! = k (k-2) (k-4) ...; by convention 1 for k <= 0."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@lru_cache(maxsize=None)
def _raising_moves(g: Partition) -> tuple[tuple[int, Partition], ...]:
    """All single raises of g: move t units from part j up to part i < j.

    Yields (g_i - g_j + 2t, h) where h is the re-sorted result; every
    (i, j, t) choice counts separately even when several produce the same
    h.  t is capped by g_j, and zero parts are dropped after sorting.
    """
    parts = list(g)
    moves: list[tuple[int, Partition]] = []
    for j in range(1, len(parts)):
        for i in range(j):
            for t in range(1, parts[j] + 1):
                lifted = parts.copy()
                lifted[i] += t
                lifted[j] -= t
                h = _trusted_partition(sorted((x for x in lifted if x), reverse=True))
                moves.append((parts[i] - parts[j] + 2 * t, h))
    return tuple(moves)


@lru_cache(maxsize=None)
def _raise_plan(f: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """The row recursion of degree f on positions in ``partitions_of(f)``.

    Entry i belongs to the i-th partition g and holds (numerators,
    targets, rho(g)): the raising moves of g with the numerators of moves
    onto the same partition summed, and each raised partition as its
    position.  A raise moves weight up, so every target comes before i.
    Built once per degree from tuples only, so it is shared read-only.
    """
    position = {lam: i for i, lam in enumerate(partitions_of(f))}
    plan = []
    for g in partitions_of(f):
        merged: dict[int, int] = {}
        for numer, h in _raising_moves(g):
            target = position[h]
            merged[target] = merged.get(target, 0) + numer
        plan.append((tuple(merged.values()), tuple(merged), rho(g)))
    return tuple(plan)


def _top_coefficient(kappa: Partition) -> int:
    """The m_kappa coefficient of Z_kappa: prod over cells s of 2 a(s) + l(s) + 1.

    a(s) and l(s) are the arm and leg lengths of the cell.  Z_kappa is the
    Jack polynomial J_kappa at alpha = 2 (Stanley, Adv. Math. 1989;
    Macdonald, *Symmetric Functions and Hall Polynomials*, VI.10).
    """
    legs = conjugate(kappa)
    out = 1
    for i, row in enumerate(kappa):
        for j in range(row):
            arm, leg = row - j - 1, legs[j] - i - 1
            out *= 2 * arm + leg + 1
    return out


@lru_cache(maxsize=None)
def zonal_row(kappa: Partition) -> SymPoly:
    """The zonal polynomial for kappa, in the monomial basis.

    Coefficients live in a list indexed by position in ``partitions_of(f)``
    and are filled from kappa's position down, following ``_raise_plan``.
    That order (descending lexicographic) refines descending dominance, so
    every coefficient a raise of g lands on is already final, and no g
    before kappa is dominated by kappa.  A g whose raises all land on zero
    coefficients is skipped: its coefficient is zero.  Every g that is not
    skipped lies strictly below kappa, because a raise lands strictly
    above g in dominance, on some h with a nonzero coefficient, and by
    induction h lies at or below kappa; so the dominance filter of the
    recursion needs no test of its own.  Seeded with the closed-form top
    coefficient, every coefficient is a nonnegative integer (Knop and
    Sahi, Invent. Math. 1997), so each step is an exact integer division;
    a vanishing denominator, a remainder, a negative coefficient or an
    m_{(1,...,1)} coefficient other than f! raises DataIntegrityError.
    """
    kappa = Partition(kappa)
    if not kappa:
        raise ValueError("kappa must be a nonempty partition")
    f = kappa.weight
    parts = partitions_of(f)
    plan = _raise_plan(f)
    top = parts.index(kappa)
    rho_top = plan[top][2]
    coeffs = [0] * len(parts)
    coeffs[top] = _top_coefficient(kappa)
    for pos in range(top + 1, len(parts)):
        numers, targets, rho_g = plan[pos]
        acc = sum(map(mul, numers, [coeffs[h] for h in targets]))
        if not acc:
            continue
        g = parts[pos]
        denom = rho_top - rho_g
        if denom <= 0:  # impossible while strict dominance implies rho gaps > 0
            raise DataIntegrityError(f"vanishing denominator at {g!r} under {kappa!r}")
        q, r = divmod(acc, denom)
        if r:
            raise DataIntegrityError(
                f"row {kappa!r} has a non-integer coefficient {acc}/{denom} at {g!r}"
            )
        if q < 0:
            raise DataIntegrityError(f"row {kappa!r} has a negative coefficient {q} at {g!r}")
        coeffs[pos] = q
    if coeffs[-1] != factorial(f):
        raise DataIntegrityError(
            f"row {kappa!r} ends at m_(1^{f}) = {coeffs[-1] or None}, expected {f}!"
        )
    return SymPoly(f, MONOMIAL, {parts[i]: c for i, c in enumerate(coeffs) if c})


@lru_cache(maxsize=None)
def zonal_in_powersums(kappa) -> SymPoly:
    """The row for kappa converted to the power-sum basis.

    It serves the power-sum tables and the float Monte Carlo statistic of
    the splitting check; exact values of Z_kappa come from the monomial
    row.  The conversion must land on integer coefficients; anything else
    means a corrupted table and raises DataIntegrityError.
    """
    poly = m_to_p(zonal_row(Partition(kappa)))
    fractional = {lam: c for lam, c in poly.coeffs.items() if isinstance(c, Fraction)}
    if fractional:
        raise DataIntegrityError(
            f"power-sum coefficients for {Partition(kappa)!r} are not integers: {fractional}"
        )
    return poly


def zonal_at_identity(kappa, n: int) -> int:
    """Z_kappa evaluated at n ones, from its closed form, as an ``int``.

    Z_kappa(I_n) = 2^f (n/2)_kappa = prod_i prod_{0<=j<kappa_i} (n - i + 1 + 2j)
    with rows i counted from 1 (Muirhead, *Aspects of Multivariate
    Statistical Theory*, Thm 7.2.7).  It is zero iff kappa has more than
    n parts, through the factor at i = n + 1, j = 0; the empty partition
    gives the empty product 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    out = 1
    for i, part in enumerate(Partition(kappa), start=1):
        for j in range(part):
            out *= n - i + 1 + 2 * j
    return out


def character_degree(kappa) -> int:
    """Degree of the symmetric-group irreducible indexed by the doubled partition."""
    return sym_group_degree(Partition(kappa).doubled())


def check_trace_identity(f: int) -> tuple[bool, dict[Partition, int]]:
    """Exact check that the character-weighted row sum is a pure power of p_1.

    Verifies sum_kappa chi(kappa) Z_kappa = (2f-1)!! p_1^f as symmetric
    polynomials, where chi(kappa) is the doubled-partition character
    degree (James's (tr X)^f = sum_kappa C_kappa(X) in this normalization;
    Muirhead, *Aspects of Multivariate Statistical Theory*, Sec. 7.2).
    The right side is the closed form p_1^f = sum_lambda f! / prod_i
    lambda_i! m_lambda, so the check is one integer pass over the rows.
    Returns (ok, per-monomial discrepancy map); the map is empty exactly
    when the identity holds.
    """
    if f < 1:
        raise ValueError("f must be at least 1")
    total: dict[Partition, int] = {}
    for kappa in partitions_of(f):
        chi = character_degree(kappa)
        for lam, c in zonal_row(kappa).coeffs.items():
            total[lam] = total.get(lam, 0) + chi * c
    scale = double_factorial(2 * f - 1) * factorial(f)
    diff = {}
    for lam in partitions_of(f):
        gap = total.get(lam, 0) - scale // prod(factorial(part) for part in lam)
        if gap:
            diff[lam] = gap
    return (not diff, diff)

