"""Orthogonal-group moment integrals in exact closed form.

Integrals of powers of tr(D_a Q D_b Q') over Haar measure on O(n)
expand into character-weighted products of zonal polynomial values.
Every exact value is one character sum, sum_kappa chi(kappa) t_kappa /
Z_kappa(I_n) over the kappa of f with at most n parts, where t_kappa is
an integer read from kappa's row capped at n parts (m_lambda vanishes at
n variables when lambda has more than n parts).  The weights come from
one cached integer table per (f, n), ``_character_table``, so a sum adds
integers and makes one ``Fraction``.

Inputs are exact rationals (``DiagonalSpec``), so the Monte Carlo
estimators in ``montecarlo`` take the same inputs bit for bit.  This
module imports no numpy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import exp, factorial, lcm, ulp
from operator import mul

from .partitions import Partition, _partitions_capped
from .symfunc import SymPoly, _monomial_values, _Record, _row_dot
from .zonal import (
    _capped_row,
    character_degree,
    double_factorial,
    zonal_at_identity,
)

__all__ = [
    "DiagonalSpec",
    "SeriesResult",
    "exact_trace_power_integral",
    "bilinear_coefficient",
    "hyper0f0",
]


class DiagonalSpec(_Record):
    """Latent roots of a diagonal matrix, held as exact rationals; at least one."""

    _fields = ("eigenvalues",)

    def __init__(self, eigenvalues: tuple[Fraction, ...]) -> None:
        if not eigenvalues:
            raise ValueError("spectra must be nonempty")
        self._set(eigenvalues)

    @classmethod
    def of(cls, values) -> "DiagonalSpec":
        """The spectrum of ``values``; ValueError for any entry that is not a rational.

        A string or bytes is one value, not a sequence of entries, so it
        is rejected too rather than read character by character.  An
        empty ``values`` is rejected as well.
        """
        if isinstance(values, DiagonalSpec):
            return values
        if isinstance(values, (str, bytes)):
            raise ValueError(f"eigenvalues must be rationals, not one {type(values).__name__}")
        try:
            eigenvalues = tuple(map(Fraction, values))
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"eigenvalues must be rationals ({exc})") from exc
        return cls(eigenvalues)

    def floats(self) -> tuple[float, ...]:
        """The eigenvalues as floats; OverflowError if one has no float."""
        return tuple(float(v) for v in self.eigenvalues)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def __iter__(self):
        return iter(self.eigenvalues)


class SeriesResult(_Record):
    """A truncated exponential-trace series with its exact terms."""

    _fields = ("value", "terms", "tail_bound")

    def __init__(self, value: float, terms: tuple[Fraction, ...], tail_bound: float) -> None:
        self._set(value, terms, tail_bound)


def _trace_power_prefactor(f: int) -> Fraction:
    """2^f f! / (2f)! = 1 / (2f-1)!!, the inverse of the trace identity's factor."""
    return Fraction(1, double_factorial(2 * f - 1))


def _spectra(a, b) -> tuple[DiagonalSpec, DiagonalSpec, int]:
    """Both spectra as DiagonalSpec, with their common length n."""
    a = DiagonalSpec.of(a)
    b = DiagonalSpec.of(b)
    if len(a) != len(b):
        raise ValueError("a and b must have the same number of eigenvalues")
    return a, b, len(a)


@lru_cache(maxsize=None)
def _character_table(f: int, n: int) -> tuple[int, tuple[tuple[Partition, int], ...]]:
    """(D, ((kappa, w_kappa), ...)) over the partitions kappa of f with at most n parts.

    D is the lcm of the Z_kappa(I_n), and w_kappa = chi(kappa) D / Z_kappa(I_n)
    is an integer, so sum_kappa chi(kappa) t_kappa / Z_kappa(I_n) over
    integers t_kappa is sum_kappa w_kappa t_kappa / D.  The table holds
    partitions and integers only, never a row; two threads that first ask
    for the same (f, n) at once may both build it, and the copies are equal.
    """
    kappas = _partitions_capped(f, n)
    dims = [zonal_at_identity(kappa, n) for kappa in kappas]
    d = lcm(*dims)
    return d, tuple((kappa, character_degree(kappa) * (d // z)) for kappa, z in zip(kappas, dims))


def _character_sum(f: int, n: int, term, cap: int | None = None) -> Fraction:
    """sum_kappa chi(kappa) term(Z_kappa) / Z_kappa(I_n) over kappa of f with at most n parts.

    ``term`` maps the integer monomial row of kappa, on the partitions with
    at most ``cap`` parts (by default n, all that Z_kappa reads at n
    variables), to an integer.  The sum is sum_kappa w_kappa term(row) in
    ``int`` over ``_character_table(f, n)``, divided by D in one
    ``Fraction``.  At f = 0 the one kappa is (), whose Z is the constant 1,
    so the sum is 1.
    """
    if f == 0:
        return Fraction(1)
    cap = n if cap is None else cap
    d, weights = _character_table(f, n)
    return Fraction(sum(w * term(_capped_row(kappa, cap)) for kappa, w in weights), d)


def _splitting_value(kappa: Partition, a: DiagonalSpec, b: DiagonalSpec) -> Fraction:
    """Z_kappa(a) Z_kappa(b) / Z_kappa(I_n), exactly; kappa has at most n parts."""
    n = len(a)
    row = _capped_row(kappa, n)
    return row.evaluate(a.eigenvalues) * row.evaluate(b.eigenvalues) / zonal_at_identity(kappa, n)


def _linear_trace_power_value(a: DiagonalSpec, f: int) -> Fraction:
    """The Haar average of tr(D_a H)^f, exactly.

    Odd powers vanish by H -> -H and f = 0 gives 1; an even f gives
    sum_kappa chi(kappa) Z_kappa(a^2) / Z_kappa(I_n) over partitions kappa
    of f/2 with at most n parts.
    """
    if f < 0:
        raise ValueError("f must be nonnegative")
    if f % 2 or f == 0:
        return Fraction(0 if f else 1)
    half = f // 2
    scale, values = _monomial_values([x * x for x in a.eigenvalues], half)
    return _character_sum(half, len(a), lambda row: _row_dot(row, values)) / scale**half


def _trace_power_sum(f: int, n: int, va, vb) -> Fraction:
    """The trace-power integral of degree f from ``_monomial_values`` of a and b.

    Each table must cover weight f; its m_lambda with more than n parts
    are absent and count as zero.
    """
    (da, ma), (db, mb) = va, vb

    def term(row: SymPoly) -> int:
        za = _row_dot(row, ma)
        return za and za * _row_dot(row, mb)

    return _trace_power_prefactor(f) * _character_sum(f, n, term) / (da * db) ** f


def exact_trace_power_integral(a, b, f: int) -> Fraction:
    """The Haar average of tr(D_a Q D_b Q')^f, exactly.

    Expands the trace power into character-weighted zonal polynomials and
    integrates the splitting rule term by term:

        (1 / (2f-1)!!) * sum_kappa chi(kappa) Z_kappa(a) Z_kappa(b) / Z_kappa(I_n)

    over partitions kappa of f with at most n parts.
    """
    a, b, n = _spectra(a, b)
    if f < 0:
        raise ValueError("f must be nonnegative")
    va = _monomial_values(a.eigenvalues, f)
    vb = _monomial_values(b.eigenvalues, f)
    return _trace_power_sum(f, n, va, vb)


def bilinear_coefficient(f: int, n: int, g, h) -> Fraction:
    """Coefficient of m_g(a) m_h(b) in the exact trace-power integral.

    Extracted symbolically from the zonal expansion; symmetric in (g, h).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    g = Partition(g)
    h = Partition(h)
    if g.weight != f or h.weight != f:
        raise ValueError("g and h must be partitions of f")

    def term(row: SymPoly) -> int:
        bg = row.coeffs.get(g, 0)
        return bg and bg * row.coeffs.get(h, 0)

    # rows that reach m_g and m_h, which may have more than n parts
    return _trace_power_prefactor(f) * _character_sum(f, n, term, max(n, len(g), len(h)))


def _exp_tail(x: float, degree: int) -> float:
    """sum_(k > degree) x^k / k! for x >= 0: the tail of exp(x) past ``degree``.

    The omitted terms are summed forward, each from the last by
    term *= x / k, until one no longer changes the sum, so nothing cancels
    against exp(x) and no power or factorial leaves the float range.
    Raises OverflowError where exp(x) itself is beyond the float range.
    A first omitted term that underflows for x > 0 gives ``ulp(0.0)``: it
    underflows only for x < (degree + 2) / 2, where each later term is below
    half the one before, so the tail is below twice that term.
    """
    try:
        exp(x)  # beyond the float range, the terms may be too
    except OverflowError:
        raise OverflowError(f"the tail bound needs exp({x:.17g}), beyond the float range") from None
    term = 1.0
    for k in range(1, degree + 2):
        term *= x / k
    tail, k = 0.0, degree + 1
    while tail + term != tail:
        tail += term
        k += 1
        term *= x / k
    if not tail and x > 0:
        return ulp(0.0)
    return tail


def hyper0f0(a, b, max_degree: int) -> SeriesResult:
    """Truncated series sum_f (1/(2^f f!)) <tr(D_a Q D_b Q')^f>.

    The per-degree terms are exact rationals; ``value`` is their floating
    sum.  tr(D_a Q D_b Q') is
    sum_ij a_i Q_ij^2 b_j, linear in the doubly stochastic matrix (Q_ij^2),
    so over the Birkhoff polytope its extremes are at permutations, which
    are orthogonal: by the rearrangement inequality they are the pairings
    of a and b sorted alike and sorted opposite.  So
    s = max(|sum_i a_(i) b_(i)|, |sum_i a_(i) b_(n+1-i)|) is the largest
    |tr(D_a Q D_b Q')|, attained, and the reported tail bound, for every
    spectrum, is the tail of exp(s/2) past the truncation degree, summed
    forward by ``_exp_tail``.  For nonnegative spectra s is the pairing
    sorted alike.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    a, b, n = _spectra(a, b)
    va = _monomial_values(a.eigenvalues, max_degree)
    vb = _monomial_values(b.eigenvalues, max_degree)
    terms = tuple(
        _trace_power_sum(f, n, va, vb) / (2**f * factorial(f))
        for f in range(max_degree + 1)
    )
    value = float(sum(terms))
    a_up, b_up = sorted(a.eigenvalues), sorted(b.eigenvalues)
    alike = sum(map(mul, a_up, b_up))
    opposite = sum(map(mul, a_up, reversed(b_up)))
    s = max(abs(alike), abs(opposite))
    # the tail grows with x: an s / 2 below the float range counts as ulp(0.0)
    tail = _exp_tail(max(float(s) / 2.0, ulp(0.0)) if s else 0.0, max_degree)
    return SeriesResult(value, terms, tail)
