"""Orthogonal-group moment integrals: exact closed forms and Monte Carlo.

The exact side expands integrals of powers of tr(D_a Q D_b Q') over Haar
measure into character-weighted products of zonal polynomial values.
Every exact Z_kappa value is an integer dot product: a spectrum x is
scaled by the lcm D of its denominators, the monomial values m_lambda(D x)
of every weight up to the degree needed are built once in ``int``, and
the integer monomial row of kappa is dotted with them; the result is
divided by D^|kappa| once per product.  The Monte Carlo side estimates
the same quantities from the Haar sampler and reports a z-score against
the exact value.  The splitting check needs Z_kappa at the latent roots
of each draw; a symmetric polynomial depends on the roots only through
their power sums, which come from traces of powers of H' D_a H D_b, with
no eigensolve and no square root, so the spectra may take any real
signs.  Eigenvalue inputs are rationals so both paths share inputs
bit-for-bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, lcm, sqrt
from typing import Iterable, Sequence

import numpy as np

from .haar import _sample_blocks, as_generator
from .partitions import Partition, partitions_of
from .symfunc import SymPoly
from .zonal import (
    character_degree,
    double_factorial,
    zonal_at_identity,
    zonal_in_powersums,
    zonal_row,
)

__all__ = [
    "DiagonalSpec",
    "MomentReport",
    "SeriesResult",
    "ResidualInconsistencyError",
    "normalizing_product",
    "exact_trace_power_integral",
    "bilinear_coefficient",
    "residual_values",
    "residual_coefficient",
    "mc_trace_power",
    "mc_splitting",
    "mc_linear_trace_power",
    "mc_exponential_trace",
    "hyper0f0",
]


@dataclass(frozen=True)
class DiagonalSpec:
    """Latent roots of a diagonal matrix, held as exact rationals."""

    eigenvalues: tuple[Fraction, ...]

    @classmethod
    def of(cls, values) -> "DiagonalSpec":
        if isinstance(values, DiagonalSpec):
            return values
        return cls(tuple(Fraction(v) for v in values))

    def floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.eigenvalues])

    def __len__(self) -> int:
        return len(self.eigenvalues)

    def __iter__(self):
        return iter(self.eigenvalues)


@dataclass(frozen=True)
class MomentReport:
    """One exact-vs-Monte-Carlo comparison."""

    exact_value: Fraction | float
    mc_estimate: float
    mc_std_err: float
    samples: int
    z_score: float


@dataclass(frozen=True)
class SeriesResult:
    """A truncated exponential-trace series with its exact terms."""

    value: float
    terms: tuple[Fraction, ...]
    tail_bound: float | None


class ResidualInconsistencyError(ArithmeticError):
    """The residual coefficient came out different at different dimensions."""

    def __init__(self, f: int, g: Partition, h: Partition, values):
        self.values = tuple(values)
        detail = ", ".join(f"n={n}: {v}" for n, v in self.values)
        super().__init__(
            f"residual coefficient for f={f}, g={tuple(g)}, h={tuple(h)} "
            f"depends on the dimension ({detail})"
        )


def normalizing_product(n: int, f: int) -> int:
    """The product n (n+2) (n+4) ... (n+2f-2); 1 when f = 0.

    Valid for every n >= 1.  It is the one-row case Z_(f)(I_n) of
    ``zonal_at_identity``, the single-row zonal polynomial at the
    n-dimensional identity.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if f < 0:
        raise ValueError("f must be nonnegative")
    return zonal_at_identity((f,) if f else (), n)


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
        for lam in partitions_of(w)
        if len(lam) <= n
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
    """The integer row dotted with monomial values: Z_kappa(D x) for x scaled by D."""
    return sum(c * values.get(lam, 0) for lam, c in row.coeffs.items())


def _character_sum(f: int, n: int, term) -> Fraction:
    """sum_kappa chi(kappa) term(Z_kappa) / Z_kappa(I_n) over kappa of f with at most n parts.

    ``term`` maps the integer monomial row of kappa to an integer; a zero
    term contributes nothing and is skipped.
    """
    total = Fraction(0)
    for kappa in partitions_of(f):
        if len(kappa) > n:
            continue
        t = term(zonal_row(kappa))
        if t:
            total += Fraction(character_degree(kappa) * t, zonal_at_identity(kappa, n))
    return total


def _splitting_value(kappa: Partition, a: DiagonalSpec, b: DiagonalSpec) -> Fraction:
    """Z_kappa(a) Z_kappa(b) / Z_kappa(I_n), exactly; kappa has at most n parts."""
    f = kappa.weight
    row = zonal_row(kappa)
    da, ma = _monomial_values(a.eigenvalues, f)
    za = _row_dot(row, ma)
    if not za:
        return Fraction(0)
    db, mb = _monomial_values(b.eigenvalues, f)
    return Fraction(za * _row_dot(row, mb), (da * db) ** f * zonal_at_identity(kappa, len(a)))


def _trace_power_sum(f: int, n: int, va, vb) -> Fraction:
    """The trace-power integral of degree f from ``_monomial_values`` of a and b.

    Each table must cover weight f; its m_lambda with more than n parts
    are absent and count as zero.
    """
    if f == 0:
        return Fraction(1)
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
    if n < 1:
        raise ValueError("spectra must be nonempty")
    if f < 0:
        raise ValueError("f must be nonnegative")
    va = _monomial_values(a.eigenvalues, f)
    vb = _monomial_values(b.eigenvalues, f)
    return _trace_power_sum(f, n, va, vb)


def bilinear_coefficient(f: int, n: int, g, h) -> Fraction:
    """Coefficient of m_g(a) m_h(b) in the exact trace-power integral.

    Extracted symbolically from the zonal expansion; symmetric in (g, h).
    """
    g = Partition(g)
    h = Partition(h)
    if g.weight != f or h.weight != f:
        raise ValueError("g and h must be partitions of f")

    def term(row: SymPoly) -> int:
        bg = row.coefficient(g)
        return bg and bg * row.coefficient(h)

    return _trace_power_prefactor(f) * _character_sum(f, n, term)


def residual_values(f: int, g, h, n_values: Iterable[int]) -> list[tuple[int, Fraction]]:
    """The residual (2f-1)!! c(n) a_{g,h} - b_{(f),g} b_{(f),h} at each n."""
    g = Partition(g)
    h = Partition(h)
    if g.weight != f or h.weight != f:
        raise ValueError("g and h must be partitions of f")
    if g == (f,) or h == (f,):
        raise ValueError("the residual excludes the single-row partition")
    top = zonal_row(Partition((f,)))
    cross = top.coefficient(g) * top.coefficient(h)
    out = []
    for n in n_values:
        value = (
            double_factorial(2 * f - 1)
            * normalizing_product(n, f)
            * bilinear_coefficient(f, n, g, h)
            - cross
        )
        out.append((n, value))
    return out


def residual_coefficient(f: int, g, h, n_values: Sequence[int] | None = None) -> Fraction:
    """The dimension-free residual coefficient, if it exists.

    Evaluates the residual at two dimensions (by default n = f and
    n = f + 1, large enough that every partition of f contributes) and
    returns the common value.  A residual that still depends on n raises
    ResidualInconsistencyError carrying both values.
    """
    if n_values is None:
        n_values = (f, f + 1)
    if len(n_values) < 2:
        raise ValueError("need at least two dimensions to compare")
    values = residual_values(f, g, h, n_values)
    if any(v != values[0][1] for _, v in values[1:]):
        raise ResidualInconsistencyError(f, Partition(g), Partition(h), values)
    return values[0][1]


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


def _check_budget(samples: int, threads: int) -> None:
    if samples < 2:
        raise ValueError("samples must be at least 2")
    if threads < 1:
        raise ValueError("threads must be at least 1")


def _sample_chunks(samples: int, threads: int, rng) -> list[tuple[int, np.random.Generator]]:
    """Split a sample budget into (count, stream) shards on independent streams.

    With one thread the caller's stream is used directly, so single-thread
    results depend only on the seed.  Otherwise one child stream is spawned
    per nonempty shard.
    """
    gen = as_generator(rng)
    if threads == 1:
        return [(samples, gen)]
    # only the first min(threads, samples) shards are nonempty; child t of a
    # spawn does not depend on how many are spawned, so the streams are kept
    shards = min(threads, samples)
    base, extra = divmod(samples, threads)
    sizes = [base + (1 if t < extra else 0) for t in range(shards)]
    return list(zip(sizes, gen.spawn(shards)))


# The mean of float samples is only known to a few ulps: each sample is
# rounded, and an exact reference may itself be truncated.  A std_err below
# this many ulps of |mean| is rounding noise (a constant integrand), so the
# z-score divides by this floor instead; the reported std_err is unchanged.
Z_FLOOR_ULPS = 8


def _summarize(exact, reference: float, values: np.ndarray) -> MomentReport:
    m = values.size
    with np.errstate(over="ignore"):
        mean = float(values.mean())
    if not np.isfinite(mean):
        raise OverflowError("the sample mean is not finite")
    with np.errstate(over="ignore"):  # finite samples whose squares may not be
        std = float(values.std(ddof=1))
    if not np.isfinite(std):
        raise OverflowError("the sample variance is not finite")
    std_err = std / sqrt(m)
    scale = max(std_err, Z_FLOOR_ULPS * float(np.spacing(abs(mean))))
    z = (mean - reference) / scale
    return MomentReport(exact, mean, std_err, m, z)


def _monte_carlo(exact, n: int, samples: int, rng, threads: int, statistic) -> MomentReport:
    """The Haar mean over O(n) of a per-draw statistic, compared with ``exact``.

    Each shard draws its matrices' angles at once (the reflection bits
    come with each block), then writes ``statistic(block) -> values`` for
    one block at a time into a values array of its own; a statistic may
    overwrite its block.  Shards run on at most os.cpu_count() threads and
    share nothing mutable; their arrays are joined in shard order, so
    results depend only on (seed, threads, samples).
    An ``exact`` value too large for a float raises OverflowError before
    anything is drawn; a sample mean or sample variance that is not finite
    raises it after the draws, so an overflow is never reported as an
    infinite std_err with a zero z-score.
    """
    _check_budget(samples, threads)
    reference = float(exact)
    chunks = _sample_chunks(samples, threads, rng)

    def shard(count: int, gen: np.random.Generator) -> np.ndarray:
        values = np.empty(count)
        start = 0
        for q in _sample_blocks(n, count, gen):
            stop = start + len(q)
            values[start:stop] = statistic(q)
            start = stop
        return values

    if len(chunks) == 1:
        values = shard(*chunks[0])
    else:
        with ThreadPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
            values = np.concatenate(list(pool.map(shard, *zip(*chunks))))
    return _summarize(exact, reference, values)


def mc_trace_power(a, b, f: int, samples: int, rng, threads: int = 1) -> MomentReport:
    """Monte Carlo counterpart of exact_trace_power_integral.

    f = 0 is reported exactly, with no sample drawn or counted.
    """
    a, b, n = _spectra(a, b)
    exact = exact_trace_power_integral(a, b, f)
    if f == 0:  # the integrand is 1: nothing is drawn
        _check_budget(samples, threads)
        return MomentReport(exact, 1.0, 0.0, 0, 0.0)
    statistic = _trace_power_statistic(a.floats(), b.floats(), f)
    return _monte_carlo(exact, n, samples, rng, threads, statistic)


def _trace_power_statistic(av: np.ndarray, bv: np.ndarray, f: int):
    """statistic(block) -> tr(D_a Q D_b Q')^f per draw Q; overwrites the block.

    numpy's pow leaves its vectorized loop for a negative base, so the
    power is taken of |tr| and the sign restored for odd f: the bits of
    ``tr ** f`` for a nonnegative trace, and within one ulp of them for a
    negative one (measured on 1e6 signed normals at f = 3, 4, 5 and 7).
    """

    def statistic(q: np.ndarray) -> np.ndarray:
        q *= q  # in place: the block is the statistic's to overwrite
        trace = np.einsum("mij,i,j->m", q, av, bv)
        power = np.abs(trace)
        power **= f
        return np.copysign(power, trace, out=power) if f % 2 else power

    return statistic


def _latent_power_sums(q: np.ndarray, w: np.ndarray, f: int) -> np.ndarray:
    """p_1..p_f of the latent roots of D_a H D_b H' for every draw H of ``q``.

    ``w`` is the outer product a b' of the two spectra, which may take any
    real signs.  The roots are those of N = H' D_a H D_b, a cyclic shift of
    D_a H D_b H', so p_k = tr(N^k); N need not be symmetric and its roots
    may be complex, but the traces are real.  N is H' (w * H), a product of
    two distinct buffers, which BLAS runs as gemm.

    The block is overwritten and taken in two halves, inside one scratch
    of two half-blocks: per half, w * H fills one slot and N the other;
    the next power goes to the half of the block, and the third power
    buffer that f >= 5 needs reuses the first slot.  Returns an (f, m)
    array whose row k-1 is p_k.
    """
    m, n = len(q), q.shape[1]
    half = (m + 1) // 2
    scratch = np.empty((2 * half, n, n))
    sums = np.empty((f, m))
    for start in range(0, m, half):
        h = q[start : start + half]
        k = len(h)
        spare, base = scratch[:k], scratch[half : half + k]
        np.multiply(h, w, out=spare)
        np.matmul(h.transpose(0, 2, 1), spare, out=base)
        out = sums[:, start : start + k]
        np.einsum("mii->m", base, out=out[0])
        if f > 1:
            np.einsum("mij,mji->m", base, base, out=out[1])
        # With low = N^j and high = N^(j+1): p_(2j+1) = tr(low high), p_(2j+2) = tr(high high).
        low, free, done = base, [h, spare], 2
        while done < f:
            high = np.matmul(low, base, out=free.pop())
            np.einsum("mij,mji->m", low, high, out=out[done])
            if done + 1 < f:
                np.einsum("mij,mji->m", high, high, out=out[done + 1])
            if low is not base:
                free.append(low)
            low, done = high, done + 2
    return sums


def _splitting_statistic(kappa: Partition, av: np.ndarray, bv: np.ndarray):
    """statistic(block) -> Z_kappa at the latent roots of D_a H D_b H', per draw H.

    Z_kappa is evaluated from its integer power-sum row at the power sums
    from ``_latent_power_sums``; both spectra may take any real signs.
    """
    w = np.outer(av, bv)
    f = kappa.weight
    terms = [(float(c), lam) for lam, c in zonal_in_powersums(kappa).sorted_items()]

    def statistic(q: np.ndarray) -> np.ndarray:
        sums = _latent_power_sums(q, w, f)
        out = np.zeros(len(q))
        for c, lam in terms:
            term = c * sums[lam[0] - 1]
            for k in lam[1:]:
                term *= sums[k - 1]
            out += term
        return out

    return statistic


def mc_splitting(kappa, a, b, samples: int, rng, threads: int = 1) -> MomentReport:
    """Monte Carlo check of the zonal splitting rule.

    Estimates the Haar mean of Z_kappa at the latent roots of
    D_a H D_b H', against the exact value Z_kappa(a) Z_kappa(b) / Z_kappa(I_n).
    The power sums of the roots come from traces of matrix powers, with
    no eigensolve, so a and b may be any real spectra: where the roots are
    complex, their power sums, and so Z_kappa, are still real.
    """
    kappa = Partition(kappa)
    a, b, n = _spectra(a, b)
    if len(kappa) > n:
        raise ValueError(f"kappa {tuple(kappa)} has more than {n} parts")
    exact = _splitting_value(kappa, a, b)
    statistic = _splitting_statistic(kappa, a.floats(), b.floats())
    return _monte_carlo(exact, n, samples, rng, threads, statistic)


def _rational_diagonal(matrix) -> list[Fraction]:
    """The diagonal entries of a rational diagonal matrix; ValueError for any other."""
    try:
        rows = [[Fraction(x) for x in row] for row in matrix]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"matrix entries must be rationals ({exc})") from exc
    n = len(rows)
    if n < 1 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if any(x for i, r in enumerate(rows) for j, x in enumerate(r) if i != j):
        raise ValueError(
            "matrix must be diagonal: the moments of tr(A H) depend only on the "
            "singular values of A, so put them on the diagonal"
        )
    return [rows[i][i] for i in range(n)]


def mc_linear_trace_power(matrix, f: int, samples: int, rng, threads: int = 1) -> MomentReport:
    """Haar moment of tr(A H)^f for a rational diagonal matrix A.

    By Haar invariance the moments depend only on the singular values of
    A, so A must be diagonal with rational entries; any other matrix
    raises ValueError.  Odd powers integrate to zero by the H -> -H
    symmetry and f = 0 to one; both are reported exactly, with no sample
    drawn or counted.  Even powers compare against the exact value

        sum_kappa chi(kappa) Z_kappa(A A') / Z_kappa(I_n)

    over partitions kappa of f/2 with at most n parts.
    """
    if f < 0:
        raise ValueError("f must be nonnegative")
    diagonal = _rational_diagonal(matrix)
    n = len(diagonal)
    if f % 2 == 1 or f == 0:  # odd powers vanish by H -> -H; no sampling either way
        _check_budget(samples, threads)
        value = Fraction(0 if f else 1)
        return MomentReport(value, float(value), 0.0, 0, 0.0)

    half = f // 2
    scale, values = _monomial_values([d * d for d in diagonal], half)
    exact = _character_sum(half, n, lambda row: _row_dot(row, values)) / scale**half
    av = np.array([float(d) for d in diagonal])

    def statistic(q: np.ndarray) -> np.ndarray:
        # f is even, so |tr(A H)|^f: pow on a nonnegative base stays vectorized
        return np.abs(np.einsum("mii,i->m", q, av)) ** f

    return _monte_carlo(exact, n, samples, rng, threads, statistic)


def mc_exponential_trace(a, b, reference: float, samples: int, rng, threads: int = 1) -> MomentReport:
    """MC mean of exp(tr(D_a Q D_b Q') / 2), z-scored against ``reference``.

    The natural reference is a truncated hyper0f0 value, so the z-score
    mixes truncation error with sampling error.  A draw whose exponential
    overflows makes the mean infinite, which raises OverflowError.
    """
    a, b, n = _spectra(a, b)
    av, bv = a.floats(), b.floats()

    def statistic(q: np.ndarray) -> np.ndarray:
        q *= q
        with np.errstate(over="ignore"):  # an infinite mean raises OverflowError
            return np.exp(0.5 * np.einsum("mij,i,j->m", q, av, bv))

    return _monte_carlo(reference, n, samples, rng, threads, statistic)


def hyper0f0(a, b, max_degree: int) -> SeriesResult:
    """Truncated series sum_f (1/(2^f f!)) <tr(D_a Q D_b Q')^f>.

    The per-degree terms are exact rationals; ``value`` is their floating
    sum.  The monomial values of each spectrum are built once, at
    ``max_degree``, and serve every degree.  For nonnegative spectra the
    integrand is bounded by the sorted pairing s = sum a_i^ b_i^, so the
    reported tail bound is the exact tail of exp(s/2) past the truncation
    degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    a, b, n = _spectra(a, b)
    if n < 1:
        raise ValueError("spectra must be nonempty")
    va = _monomial_values(a.eigenvalues, max_degree)
    vb = _monomial_values(b.eigenvalues, max_degree)
    terms = tuple(
        _trace_power_sum(f, n, va, vb) / (2**f * factorial(f))
        for f in range(max_degree + 1)
    )
    value = float(sum(terms))
    tail: float | None = None
    if all(x >= 0 for x in a) and all(x >= 0 for x in b):
        s = sum(
            x * y
            for x, y in zip(sorted(a.eigenvalues), sorted(b.eigenvalues))
        )
        half = float(s) / 2.0
        partial = sum(half**f / factorial(f) for f in range(max_degree + 1))
        tail = max(exp(half) - partial, 0.0)
    return SeriesResult(value, terms, tail)
