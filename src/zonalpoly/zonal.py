"""Zonal polynomials via an explicit coefficient recursion.

Z_kappa, for a partition kappa of f, is the homogeneous symmetric
polynomial of degree f whose monomial coefficients are supported on the
partitions dominated by kappa, normalized so that the coefficient of
m_(1^f) is f!.  It is the Jack polynomial J_kappa at alpha = 2 (Stanley,
Adv. Math. 77, 1989; Macdonald, *Symmetric Functions and Hall
Polynomials*, VI.10).

Rows come from a triangular recursion in integers (``_recurse``): seeded
with the closed-form top coefficient prod_s (2 a(s) + l(s) + 1), each
lower coefficient is a positively weighted sum of coefficients above it
divided exactly by rho(kappa) - rho(g).  Both ends of every row are
pinned by closed forms, and a remainder or a missed end raises
DataIntegrityError.  A raising move never adds a part, so the recursion
restricted to at most n parts is closed and exact (Koev and Edelman,
Math. Comp. 75, 2006).  ``zonal_row`` is the case n = f, pinned at
m_(1^f) = f!; ``_capped_row`` gives the rows that exact values at n
variables read, pinned below f by Muirhead's closed form for
Z_kappa(I_n) (Thm 7.2.7).  The cached plans hold tuples and itemgetters
only, so concurrent first access can at worst build one twice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import mul

from .partitions import (
    Partition,
    _hook_product,
    _partitions_capped,
    _trusted_partition,
    partitions_of,
    rho,
    sym_group_degree,
)
from .symfunc import MONOMIAL, SymPoly, _gather, _trusted_poly, m_to_p

__all__ = [
    "DataIntegrityError",
    "double_factorial",
    "zonal_row",
    "zonal_in_powersums",
    "zonal_at_identity",
    "character_degree",
    "check_trace_identity",
    "check_orthogonality",
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
    """The single raises of g, each raised partition once: (numerator, h).

    A raise moves t units from part j up to part i < j, with t capped by
    g_j, and h is the re-sorted result with zero parts dropped.  The
    numerator of h sums g_i - g_j + 2t over every (i, j, t) choice giving
    h.  The choices with the same values (g_i, g_j, t) give the same h, so
    h is sorted once per value pair and t, and its move counted once per
    pair of parts.  The h come in the order they first arise.
    """
    parts = list(g)
    values = sorted(set(parts), reverse=True)
    numers: dict[Partition, int] = {}
    for x, a in enumerate(values):
        for b in values[x:]:
            ma, mb = parts.count(a), parts.count(b)
            pairs = ma * mb if a > b else ma * (ma - 1) // 2
            if not pairs:
                continue
            i, j = parts.index(a), parts.index(b) + mb - 1  # the first a, the last b
            for t in range(1, b + 1):
                lifted = parts.copy()
                lifted[i] += t
                if t == b:
                    del lifted[j]
                else:
                    lifted[j] -= t
                lifted.sort(reverse=True)
                h = _trusted_partition(lifted)
                numers[h] = numers.get(h, 0) + (a - b + 2 * t) * pairs
    return tuple((numer, h) for h, numer in numers.items())


def _orbit_size(lam: Partition, n: int) -> int:
    """m_lam(1^n) = n! / ((n - len lam)! prod_i m_i(lam)!): the arrangements of lam in n slots."""
    out = factorial(n) // factorial(n - len(lam))
    for part in set(lam):
        out //= factorial(lam.count(part))
    return out


@lru_cache(maxsize=None)
def _raise_plan(f: int, n: int) -> tuple[tuple[Partition, ...], tuple, tuple[int, ...]]:
    """The row recursion of degree f on the partitions of f with at most n parts.

    Returns those partitions, in the order of ``partitions_of(f)``; per
    partition g (rho(g), numerators, gather): the numerators of the
    partitions ``_raising_moves`` raises g to, and an ``itemgetter`` of
    their positions; and, for n < f, per partition lam its orbit size
    m_lam(1^n), the weights of the Z_kappa(I_n) pin.  A raise moves weight
    up, so every target comes before g, and it never adds a part, so every
    target is in the list.  Shared read-only.
    """
    parts = _partitions_capped(f, n)
    position = {lam: i for i, lam in enumerate(parts)}
    steps = []
    for g in parts:
        moves = _raising_moves(g)
        gather = _gather(tuple(position[h] for _, h in moves))
        steps.append((rho(g), tuple(numer for numer, _ in moves), gather))
    orbits = tuple(_orbit_size(lam, n) for lam in parts) if n < f else ()
    return parts, tuple(steps), orbits


def _top_coefficient(kappa: Partition) -> int:
    """The m_kappa coefficient of Z_kappa: prod over cells s of 2 a(s) + l(s) + 1.

    a(s) and l(s) are the arm and leg lengths of the cell.  Z_kappa is the
    Jack polynomial J_kappa at alpha = 2 (Stanley, Adv. Math. 1989;
    Macdonald, *Symmetric Functions and Hall Polynomials*, VI.10).
    """
    return _hook_product(kappa, 2, 1)


def _recurse(kappa: Partition, n: int) -> SymPoly:
    """The coefficients of Z_kappa on the partitions with at most n parts; len(kappa) <= n <= f.

    The coefficients are filled from kappa's position down, in descending
    lexicographic order, which refines dominance, so every coefficient a
    raise of g lands on is final.  A g whose raises all land on zero
    coefficients has coefficient zero and is skipped; every other g lies
    strictly below kappa, since a raise lands strictly above g on a
    nonzero coefficient, so the recursion needs no dominance test.  Every
    coefficient is a nonnegative integer (Knop and Sahi, Invent. Math.
    1997), so each step is an exact division.  DataIntegrityError for a
    vanishing denominator, a remainder, a negative coefficient, or a far
    end that misses its closed form: m_(1^f) = f! at n = f, and below f
    sum_lam c_lam m_lam(1^n) = ``zonal_at_identity(kappa, n)``.
    """
    f = kappa.weight
    parts, steps, orbits = _raise_plan(f, n)
    top = parts.index(kappa)
    rho_top = steps[top][0]
    coeffs = [0] * len(parts)
    coeffs[top] = _top_coefficient(kappa)
    for pos in range(top + 1, len(parts)):
        rho_g, numers, gather = steps[pos]
        acc = sum(map(mul, numers, gather(coeffs)))
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
    if n == f:
        if coeffs[-1] != factorial(f):
            raise DataIntegrityError(
                f"row {kappa!r} ends at m_(1^{f}) = {coeffs[-1] or None}, expected {f}!"
            )
    else:
        at_identity, want = sum(map(mul, coeffs, orbits)), zonal_at_identity(kappa, n)
        if at_identity != want:
            raise DataIntegrityError(
                f"row {kappa!r} on {n} parts sums to Z(I_{n}) = {at_identity}, expected {want}"
            )
    return _trusted_poly(f, MONOMIAL, {parts[i]: c for i, c in enumerate(coeffs) if c})


@lru_cache(maxsize=None)
def zonal_row(kappa: Partition) -> SymPoly:
    """The zonal polynomial for kappa, in the monomial basis.

    The full row, on every partition of f, from the recursion of
    ``_recurse`` at n = f; its m_kappa coefficient is the closed form
    prod_s (2 a(s) + l(s) + 1) and its m_(1^f) coefficient must be f!.
    """
    kappa = Partition(kappa)
    if not kappa:
        raise ValueError("kappa must be a nonempty partition")
    return _recurse(kappa, kappa.weight)


@lru_cache(maxsize=None)
def _capped_row(kappa: Partition, n: int) -> SymPoly:
    """The row of kappa on the partitions with at most n parts, all Z_kappa(x_1, ..., x_n) reads.

    m_lam vanishes on n variables when lam has more than n parts, so this
    row gives every exact value at n variables.  From n = f on it is
    ``zonal_row(kappa)``; below f it is pinned by Z_kappa(I_n).
    """
    if len(kappa) > n:
        raise ValueError(f"{kappa!r} has more than {n} parts")
    if n >= kappa.weight:
        return zonal_row(kappa)
    return _recurse(kappa, n)


@lru_cache(maxsize=None)
def zonal_in_powersums(kappa) -> SymPoly:
    """The row for kappa converted to the power-sum basis.

    It serves the power-sum tables, the orthogonality certificate
    (``check_orthogonality``) and the float Monte Carlo statistic of the
    splitting check; exact values of Z_kappa come from the monomial row.
    The conversion must land on integer coefficients; anything else means
    a corrupted table and raises DataIntegrityError.
    """
    poly = m_to_p(zonal_row(Partition(kappa)))
    if Fraction in set(map(type, poly.coeffs.values())):  # m_to_p gives int or Fraction
        fractional = {lam: c for lam, c in poly.coeffs.items() if type(c) is Fraction}
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
    return _character_degree(Partition(kappa))


@lru_cache(maxsize=None)
def _character_degree(kappa: Partition) -> int:
    """``character_degree`` once per partition.

    ``table`` and ``verify`` ask for each kappa once, so the cache saves
    them nothing; ``moments._character_table`` asks again for the same
    kappa at each n of a degree f, and those repeats read the cache.
    """
    return sym_group_degree(kappa.doubled())


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


def check_orthogonality(f: int) -> tuple[bool, dict[tuple[Partition, Partition], int]]:
    """Exact check that the rows of degree f are orthogonal with Stanley's norms.

    Under the scalar product <p_lambda, p_mu> = delta z_lambda 2^len(lambda),
    z_lambda = prod_k k^m_k m_k! over the multiplicities m_k of lambda, the
    Jack polynomials J_kappa at alpha = 2 are orthogonal, with
    <J_kappa, J_kappa> = prod_s (2 a(s) + l(s) + 1)(2 a(s) + l(s) + 2)
    (Stanley, Adv. Math. 77, 1989; Macdonald, *Symmetric Functions and
    Hall Polynomials*, VI.10).  ``_recurse`` makes every row triangular in
    the lexicographic order, which refines dominance, with m_(1^f) = f!.
    Gram-Schmidt in that order has one solution, so rows that also pass
    this check are the zonal polynomials.  Every pair kappa, mu, kappa
    first, is checked on the power-sum rows of ``zonal_in_powersums``.
    Returns (ok, per-pair discrepancy map), in that pair order; the map is
    empty exactly when every pair holds.
    """
    if f < 1:
        raise ValueError("f must be at least 1")
    parts = partitions_of(f)
    weights = [  # z_lambda 2^len(lambda) = prod_k (2k)^m_k m_k!
        prod((2 * k) ** lam.count(k) * factorial(lam.count(k)) for k in set(lam)) for lam in parts
    ]
    rows = [[zonal_in_powersums(kappa).coeffs.get(lam, 0) for lam in parts] for kappa in parts]
    bad = {}
    for i, (kappa, row) in enumerate(zip(parts, rows)):
        weighted = list(map(mul, row, weights))
        for mu, other in zip(parts[i:], rows[i:]):
            gap = sum(map(mul, weighted, other)) - (_jack_norm(kappa) if mu == kappa else 0)
            if gap:
                bad[kappa, mu] = gap
    return (not bad, bad)


def _jack_norm(kappa: Partition) -> int:
    """<Z_kappa, Z_kappa> = prod over cells s of (2 a(s) + l(s) + 1)(2 a(s) + l(s) + 2)."""
    return _hook_product(kappa, 2, 1) * _hook_product(kappa, 2, 2)
