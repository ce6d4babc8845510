"""Exact homogeneous symmetric polynomials in two bases.

A polynomial is a map from partitions of its degree to rational
coefficients, tagged by basis: ``monomial`` (m_lambda, the sum of all
distinct monomials with exponent multiset lambda) or ``powersum``
(products p_lambda = p_{lambda_1} p_{lambda_2} ... with p_k = sum x_i^k).
``SymPoly`` stores an integral coefficient as ``int`` and any other as a
reduced ``fractions.Fraction``, so every identity in this module is
exact and integer tables stay in ``int`` arithmetic.  Evaluation is
exact too: one integer recursion gives monomial values
(``_monomial_values``) and one term loop power-sum values
(``_powersum_value``), which Monte Carlo also runs on float arrays.

The monomial expansions of the power-sum products p_lambda of one
degree are built once, as columns on positions in ``partitions_of(f)``
(``_power_sum_columns``), each from a column of a lower degree, on plain
tuples; ``p_to_m`` reads them.  The monomial-to-power-sum change solves
the triangular system those columns form, so no inverse matrix is
stored.  The columns of one degree are transposed once into a
substitution plan (``_substitution_plan``) whose rows carry an
``itemgetter`` of their positions, and the solve is forward
substitution over it on a list, finest partition first, one gather and
one ``sum`` of products per partition.  The expansions are integer
counts, and the solve divides exactly by the integer diagonal unless a
remainder forces a ``Fraction``.  Cold, the plan and the power-sum forms
of all zonal rows of one degree take about 0.026 s at f = 12, 0.10 s at
f = 14 and 0.4 s at f = 16 (2-core shared VM, Python 3.11); at f = 16
the ``sum`` calls of the solves, whose products are of multi-digit
integers, take almost half of it.  Concurrent first access may compute
a column set or a plan twice but always publishes a consistent value;
both hold tuples and itemgetters only, and polynomials themselves are
immutable: ``SymPoly`` is a ``_Record``, the plain immutable record that
the other modules' value types share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter, mul
from typing import Mapping, Sequence

from .partitions import Partition, _partitions_capped, partitions_of

__all__ = [
    "MONOMIAL",
    "POWERSUM",
    "SymPoly",
    "p_to_m",
    "m_to_p",
]

MONOMIAL = "monomial"
POWERSUM = "powersum"


class _Record:
    """An immutable record whose fields, named in ``_fields``, its ``__init__`` sets once.

    Two records are equal when they are of one class and their fields are
    equal, a record hashes as the tuple of its fields, and its repr names
    the class and each field, as a frozen dataclass does.  Assigning or
    deleting an attribute of an instance raises AttributeError; a subclass
    sets its fields with ``_set``.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Set the fields, in the order of ``_fields``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class SymPoly(_Record):
    """Homogeneous symmetric polynomial of fixed degree in a fixed basis.

    Every coefficient is stored as an ``int`` when it is integral (bools
    and numpy integers included) and as a reduced ``Fraction`` otherwise,
    and zero coefficients are never stored, so structural equality of two
    SymPoly values is exact polynomial equality.  The coefficients are a
    dict, so a SymPoly does not hash.
    """

    _fields = ("degree", "basis", "coeffs")

    def __init__(self, degree: int, basis: str, coeffs: Mapping[Partition, int | Fraction] | None = None) -> None:
        if basis not in (MONOMIAL, POWERSUM):
            raise ValueError(f"unknown basis {basis!r}")
        clean: dict[Partition, int | Fraction] = {}
        for lam, c in (coeffs or {}).items():
            lam = Partition(lam)
            if lam.weight != degree:
                raise ValueError(
                    f"key {lam!r} has weight {lam.weight}, expected {degree}"
                )
            if type(c) is not int:
                c = Fraction(c)
                if c.denominator == 1:
                    c = int(c)
            if c:
                clean[lam] = c
        self._set(degree, basis, clean)

    def coefficient(self, lam) -> int | Fraction:
        """The coefficient attached to partition ``lam`` (0 if absent)."""
        return self.coeffs.get(Partition(lam), 0)

    def sorted_items(self) -> list[tuple[Partition, int | Fraction]]:
        """Coefficients keyed in the canonical partition enumeration order."""
        order = _positions(self.degree)
        return sorted(self.coeffs.items(), key=lambda kv: order[kv[0]])

    def evaluate(self, xs: Sequence) -> Fraction:
        """Value at the point ``xs`` of rationals, exactly; floats are converted exactly.

        m_lambda vanishes when lambda has more parts than there are coordinates.
        """
        xs = [Fraction(x) for x in xs]
        if self.basis == POWERSUM:
            sums = [sum(x**k for x in xs) for k in range(1, self.degree + 1)]
            return _powersum_value(self.coeffs.items(), sums, Fraction(0))
        scale, values = _monomial_values(xs, self.degree)
        return Fraction(_row_dot(self, values), scale**self.degree)


def _monomial_values(xs: Sequence[Fraction], f: int) -> tuple[int, dict[tuple[int, ...], int]]:
    """The lcm D of the denominators of ``xs`` and the integers m_lambda(D xs).

    Covers every partition lambda with |lambda| <= f and at most len(xs)
    parts (m_lambda vanishes on fewer variables than parts), adding one
    variable y at a time:

        m_lambda(.., y) = m_lambda(..) + sum_{distinct v in lambda} y^v m_{lambda - v}(..)

    where lambda - v drops one part v (Koev and Edelman, Math. Comp. 75,
    2006).  The heaviest partitions are updated first, so every
    m_{lambda - v} on the right still holds its value before y.
    """
    scale = lcm(*(x.denominator for x in xs))
    n = len(xs)
    shapes = [
        (lam, [(v, lam[: lam.index(v)] + lam[lam.index(v) + 1 :]) for v in set(lam)])
        for w in range(f, 0, -1)
        for lam in _partitions_capped(w, n)
    ]
    values = {lam: 0 for lam, _ in shapes}
    values[()] = 1
    for x in xs:
        y = x.numerator * (scale // x.denominator)
        if not y:
            continue
        powers = [1]
        for _ in range(f):
            powers.append(powers[-1] * y)
        for lam, drops in shapes:
            values[lam] += sum(powers[v] * values[rest] for v, rest in drops)
    return scale, values


def _row_dot(row: SymPoly, values: dict[tuple[int, ...], int]) -> int:
    """A monomial-basis row dotted with monomial values: its value at D x for x scaled by D."""
    return sum(c * values.get(lam, 0) for lam, c in row.coeffs.items())


def _powersum_value(terms, sums, total):
    """``total`` plus the sum of c p_lambda over the pairs (lambda, c) of ``terms``.

    ``sums[k - 1]`` holds p_k.  Each term is multiplied and added in place,
    so on numpy arrays of power sums it allocates one array.
    """
    for lam, c in terms:
        term = c
        for k in lam:
            term *= sums[k - 1]
        total += term
    return total


@lru_cache(maxsize=None)
def p_to_m(lam: Partition) -> SymPoly:
    """Expansion of the power-sum product p_lambda in the monomial basis.

    Lambda's column of ``_power_sum_columns``, keyed by partition.
    """
    lam = Partition(lam)
    parts = partitions_of(lam.weight)
    column = _power_sum_columns(lam.weight)[_positions(lam.weight)[lam]]
    return _trusted_poly(lam.weight, MONOMIAL, {parts[i]: b for i, b in column})


def _trusted_poly(degree: int, basis: str, coeffs: dict[Partition, int | Fraction]) -> SymPoly:
    """A SymPoly from coefficients already clean, unvalidated.

    For the polynomials the package builds: Partition keys of weight
    ``degree``, each coefficient a nonzero ``int`` or a non-integral
    ``Fraction``.  Every outside input goes through ``SymPoly``.
    """
    poly = object.__new__(SymPoly)
    object.__setattr__(poly, "degree", degree)
    object.__setattr__(poly, "basis", basis)
    object.__setattr__(poly, "coeffs", coeffs)
    return poly


@lru_cache(maxsize=None)
def _positions(f: int) -> dict[Partition, int]:
    """Each partition of f keyed to its position in ``partitions_of(f)``; read-only."""
    return {lam: i for i, lam in enumerate(partitions_of(f))}


def _gather(positions: tuple[int, ...]) -> itemgetter:
    """An ``itemgetter`` of the items at ``positions``, a sequence also for one or none."""
    if len(positions) > 1:
        return itemgetter(*positions)
    start = positions[0] if positions else 0
    return itemgetter(slice(start, start + len(positions)))


@lru_cache(maxsize=None)
def _power_sum_columns(f: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The monomial expansion of every p_mu of degree f, on positions in ``partitions_of(f)``.

    Entry j belongs to the j-th partition mu and holds (i, M[mu][lam]) for
    every lam with a nonzero m_lam coefficient M[mu][lam] in p_mu, by
    ascending position i.  p_mu is p_nu p_k with k the last part of mu,
    and the column of nu comes from degree f - k; merging part k into a
    partition either bumps one part value v or appends a new part
    (v = 0), with the multiplicity of v + k in the result as coefficient.
    The merges of each (partition, k) are worked out once per degree.
    Built on tuples and positions, with no SymPoly, so it is shared
    read-only.
    """
    if f == 0:
        return (((0, 1),),)
    parts, position = partitions_of(f), _positions(f)
    merges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    columns = []
    for mu in parts:
        k = mu[-1]
        below = partitions_of(f - k)
        head = _power_sum_columns(f - k)[_positions(f - k)[mu[:-1]]]
        column = [0] * len(parts)
        for j, c in head:
            moves = merges.get((j, k))
            if moves is None:
                moves = merges[j, k] = []
                nu = below[j]
                for v in set(nu) | {0}:
                    merged = list(nu)
                    if v:
                        merged.remove(v)
                    merged.append(v + k)
                    merged.sort(reverse=True)
                    moves.append((position[tuple(merged)], merged.count(v + k)))
            for i, mult in moves:
                column[i] += c * mult
        columns.append(tuple((i, b) for i, b in enumerate(column) if b))
    return tuple(columns)


@lru_cache(maxsize=None)
def _substitution_plan(f: int) -> tuple[tuple[int, tuple[int, ...], itemgetter], ...]:
    """The ``p_to_m`` matrix of degree f by rows, on positions in ``partitions_of(f)``.

    Entry i belongs to the i-th partition lambda and holds (M[lambda][lambda],
    weights, gather): the diagonal entry, the entries M[mu][lambda] != 0
    of every finer mu, where M[mu][lambda] is the m_lambda coefficient of
    p_mu, and an ``itemgetter`` of the positions of those mu.  Finer
    partitions come later in the enumeration.  The rows of the columns of
    ``_power_sum_columns``; built once per degree from tuples and
    itemgetters only, so it is shared read-only.
    """
    parts = partitions_of(f)
    diagonal = [0] * len(parts)
    finer: list[list[tuple[int, int]]] = [[] for _ in parts]
    for j, column in enumerate(_power_sum_columns(f)):
        for i, b in column:
            if i == j:
                diagonal[j] = b
            else:
                finer[i].append((j, b))
    plan = []
    for d, row in zip(diagonal, finer):
        plan.append((d, tuple(b for _, b in row), _gather(tuple(j for j, _ in row))))
    return tuple(plan)


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
        diagonal, weights, gather = plan[i]
        c = coeffs.get(parts[i], 0) - sum(map(mul, weights, gather(x)))
        if not c:
            continue
        q, r = divmod(c, diagonal)
        x[i] = Fraction(c, diagonal) if r else q
    return _trusted_poly(poly.degree, POWERSUM, {parts[i]: c for i, c in enumerate(x) if c})
