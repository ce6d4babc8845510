"""Exact homogeneous symmetric polynomials in two bases.

A polynomial is a map from partitions of its degree to rational
coefficients, tagged by basis: ``monomial`` (m_lambda, the sum of all
distinct monomials with exponent multiset lambda) or ``powersum``
(products p_lambda = p_{lambda_1} p_{lambda_2} ... with p_k = sum x_i^k).
``SymPoly`` stores an integral coefficient as ``int`` and any other as a
reduced ``fractions.Fraction``, so every identity in this module is
exact and integer tables stay in ``int`` arithmetic; floating point
enters only through evaluation at float arguments.

The monomial expansion of each power-sum product p_lambda is memoized
with ``lru_cache``, and the monomial-to-power-sum change solves the
triangular system those columns form, so no inverse matrix is stored.
The columns of one degree are gathered once into a substitution plan
(``_substitution_plan``) indexed by a partition's position in
``partitions_of(f)``, and the solve is forward substitution over it on a
list, finest partition first.  The expansions are integer counts, and
the solve divides exactly by the integer diagonal unless a remainder
forces a ``Fraction``.  Concurrent first access may compute an expansion
or a plan twice but always publishes a consistent value; plans hold
tuples only, and polynomials themselves are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterator, Mapping, Sequence

from .partitions import Partition, _trusted_partition, partitions_of

__all__ = [
    "MONOMIAL",
    "POWERSUM",
    "SymPoly",
    "p_to_m",
    "m_to_p",
]

MONOMIAL = "monomial"
POWERSUM = "powersum"


@dataclass(frozen=True)
class SymPoly:
    """Homogeneous symmetric polynomial of fixed degree in a fixed basis.

    Every coefficient is stored as an ``int`` when it is integral (bools
    and numpy integers included) and as a reduced ``Fraction`` otherwise,
    and zero coefficients are never stored, so structural equality of two
    SymPoly values is exact polynomial equality.
    """

    degree: int
    basis: str
    coeffs: Mapping[Partition, int | Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.basis not in (MONOMIAL, POWERSUM):
            raise ValueError(f"unknown basis {self.basis!r}")
        clean: dict[Partition, int | Fraction] = {}
        for lam, c in self.coeffs.items():
            lam = Partition(lam)
            if lam.weight != self.degree:
                raise ValueError(
                    f"key {lam!r} has weight {lam.weight}, expected {self.degree}"
                )
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator == 1:
                    c = int(c)
            if c:
                clean[lam] = c
        object.__setattr__(self, "coeffs", clean)

    def coefficient(self, lam) -> int | Fraction:
        """The coefficient attached to partition ``lam`` (0 if absent)."""
        return self.coeffs.get(Partition(lam), 0)

    def sorted_items(self) -> list[tuple[Partition, int | Fraction]]:
        """Coefficients keyed in the canonical partition enumeration order."""
        order = {lam: i for i, lam in enumerate(partitions_of(self.degree))}
        return sorted(self.coeffs.items(), key=lambda kv: order[kv[0]])

    def evaluate(self, xs: Sequence):
        """Value at the point ``xs``.

        Exact when the coordinates are rationals; float otherwise.  In the
        monomial basis m_lambda sums over all distinct permutations of
        lambda padded to len(xs), and vanishes when lambda has more parts
        than there are coordinates.  This is the tests' reference: the
        orbit sum is what they hold ``m_to_p`` and the package's integer
        evaluation of zonal rows against, and no package code calls it.
        """
        if self.basis == POWERSUM:
            return self._evaluate_powersum(xs)
        return self._evaluate_monomial(xs)

    def _evaluate_powersum(self, xs):
        sums: dict[int, object] = {}
        total = 0
        for lam, c in self.coeffs.items():
            term = c
            for k in lam:
                if k not in sums:
                    sums[k] = sum(x ** k for x in xs)
                term = term * sums[k]
            total = total + term
        return total

    def _evaluate_monomial(self, xs):
        n = len(xs)
        total = 0
        for lam, c in self.coeffs.items():
            if len(lam) > n:
                continue
            orbit = 0
            for expo in _distinct_permutations(lam.padded(n)):
                prod = 1
                for x, e in zip(xs, expo):
                    if e:
                        prod = prod * x ** e
                orbit = orbit + prod
            total = total + c * orbit
        return total


def _distinct_permutations(pool: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if not pool:
        yield ()
        return
    prev = None
    for idx, v in enumerate(pool):
        if v == prev:
            continue
        prev = v
        rest = pool[:idx] + pool[idx + 1 :]
        for tail in _distinct_permutations(rest):
            yield (v,) + tail


@lru_cache(maxsize=None)
def p_to_m(lam: Partition) -> SymPoly:
    """Expansion of the power-sum product p_lambda in the monomial basis.

    Built by multiplying the memoized expansion of lambda without its last
    part by that single power sum, so partitions sharing a prefix share its
    product: merging part k into a key either bumps one existing part
    value or appends a new part, with the orbit multiplicity of the bumped
    value as coefficient.
    """
    lam = Partition(lam)
    if not lam:
        return SymPoly(0, MONOMIAL, {lam: 1})
    head = p_to_m(Partition(lam[:-1]))
    return SymPoly(lam.weight, MONOMIAL, _multiply_by_power_sum(head.coeffs, lam[-1]))


def _multiply_by_power_sum(coeffs: Mapping[Partition, int], k: int) -> dict[Partition, int]:
    out: dict[Partition, int] = {}
    for mu, c in coeffs.items():
        # v = 0 appends a new part k; v > 0 bumps one part of that value.
        for v in set(mu) | {0}:
            merged = list(mu)
            if v:
                merged.remove(v)
            merged.append(v + k)
            nu = _trusted_partition(sorted(merged, reverse=True))
            mult = nu.count(v + k)
            out[nu] = out.get(nu, 0) + c * mult
    return out


@lru_cache(maxsize=None)
def _substitution_plan(f: int) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """The ``p_to_m`` matrix of degree f by columns, on positions in ``partitions_of(f)``.

    Entry i belongs to the i-th partition lambda and holds (M[lambda][lambda],
    positions, coefficients): the diagonal entry, and every finer mu with
    M[mu][lambda] != 0, where M[mu][lambda] is the m_lambda coefficient of
    p_mu.  Finer partitions come later in the enumeration.  Built once
    per degree from tuples only, so it is shared read-only.
    """
    parts = partitions_of(f)
    position = {lam: i for i, lam in enumerate(parts)}
    diagonal = []
    finer: list[list[tuple[int, int]]] = [[] for _ in parts]
    for j, mu in enumerate(parts):
        column = p_to_m(mu).coeffs
        diagonal.append(column[mu])
        for lam, b in column.items():
            if lam != mu:
                finer[position[lam]].append((j, b))
    return tuple(
        (d, tuple(j for j, _ in col), tuple(b for _, b in col))
        for d, col in zip(diagonal, finer)
    )


def m_to_p(poly: SymPoly) -> SymPoly:
    """The unique power-sum-basis representation of a monomial-basis polynomial.

    The basis change is triangular: p_mu expands only on monomials m_lam
    with lam dominating mu, and its m_mu coefficient is prod_i m_i(mu)!,
    where m_i(mu) counts the parts of mu equal to i.  Forward substitution
    over ``_substitution_plan`` therefore solves the p_lam coefficients
    finest first, in reverse lexicographic order (which refines
    dominance), in a list indexed by position:

        x_lam = (a_lam - sum_{mu finer} x_mu M[mu][lam]) / M[lam][lam]

    with a the monomial coefficients.  The division is exact in ``int``
    unless a remainder forces a ``Fraction``.
    """
    if poly.basis != MONOMIAL:
        raise ValueError("m_to_p expects a monomial-basis polynomial")
    parts = partitions_of(poly.degree)
    plan = _substitution_plan(poly.degree)
    coeffs = poly.coeffs
    x: list[int | Fraction] = [0] * len(parts)
    for i in range(len(parts) - 1, -1, -1):
        diagonal, finer, weights = plan[i]
        c = coeffs.get(parts[i], 0) - sum(map(mul, weights, [x[j] for j in finer]))
        if not c:
            continue
        q, r = divmod(c, diagonal)
        x[i] = Fraction(c, diagonal) if r else q
    return SymPoly(poly.degree, POWERSUM, {parts[i]: c for i, c in enumerate(x) if c})
