"""Monte Carlo estimates of orthogonal-group moments, z-scored against exact values.

Each estimator draws Haar matrices from ``haar``'s batch sampler, takes
one statistic per draw, and reports the sample mean, its standard error
and a z-score against the exact value from ``moments``.  No sample is
kept: each block of statistics becomes its (count, mean, M2) at once,
and those triples are merged by the pairwise update of Chan, Golub and
LeVeque, so memory stays at one block whatever the budget.  The splitting
check needs Z_kappa at the latent roots of each draw; a symmetric
polynomial depends on the roots only through their power sums, which
come from traces of powers of H' D_a H D_b, with no eigensolve and no
square root, so the spectra may take any real signs.  Up to n = 3 the
matrix products run entry by entry along the draw axis of the sampler's
block; above, where one small gemm per draw costs less than the numpy
calls of a product, whose number grows like n^3, they run through a
row-major copy and a batched matmul.  This module and ``haar`` are the
only ones that import numpy.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import isfinite, sqrt

import numpy as np

from .haar import _sample_blocks, as_generator
from .moments import (
    DiagonalSpec,
    _linear_trace_power_value,
    _spectra,
    _splitting_value,
    exact_trace_power_integral,
)
from .partitions import Partition
from .zonal import zonal_in_powersums

__all__ = [
    "MomentReport",
    "mc_trace_power",
    "mc_splitting",
    "mc_linear_trace_power",
    "mc_exponential_trace",
]


@dataclass(frozen=True)
class MomentReport:
    """One exact-vs-Monte-Carlo comparison."""

    exact_value: Fraction | float
    mc_estimate: float
    mc_std_err: float
    samples: int
    z_score: float


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

#: A sample's (count, mean, M2), M2 the sum of squared deviations from the mean.
Moments = tuple[int, float, float]


def _moments(values: np.ndarray, shift: float) -> Moments:
    """The moments of one block's values less ``shift``, overwriting them.

    The mean is the block's sum over its count, and the squared
    deviations from it are taken in place.  A sum or square beyond
    the float range is left inf or nan, for ``_summarize`` to report.
    """
    k = len(values)
    with np.errstate(over="ignore", invalid="ignore"):
        values -= shift
        mean = float(values.sum()) / k
        values -= mean
        values *= values
        return k, mean, float(values.sum())


def _merge(a: Moments, b: Moments) -> Moments:
    """The (count, mean, M2) of two samples joined, from theirs.

    The pairwise update of Chan, Golub and LeVeque (Am. Stat. 37, 1983).
    The delta is squared as delta * delta: a Python float ``**`` raises
    OverflowError where ``*`` gives inf.
    """
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * n_b / n, m2_a + m2_b + delta * delta * n_a * n_b / n


def _summarize(exact, reference: float, moments: Moments) -> MomentReport:
    m, mean, m2 = moments
    if not isfinite(mean):
        raise OverflowError("the sample mean is not finite")
    variance = m2 / (m - 1)
    if not isfinite(variance):  # finite samples whose squares may not be
        raise OverflowError("the sample variance is not finite")
    std_err = sqrt(variance) / sqrt(m)
    scale = max(std_err, Z_FLOOR_ULPS * float(np.spacing(abs(mean))))
    z = (mean - reference) / scale
    return MomentReport(exact, mean, std_err, m, z)


def _monte_carlo(exact, n: int, samples: int, rng, threads: int, statistic) -> MomentReport:
    """The Haar mean over O(n) of a per-draw statistic, compared with ``exact``.

    Each shard draws its matrices block by block (each block's normals,
    then its reflection bits) and reduces ``statistic(block) -> values``
    to the block's (count, mean, M2) at once, so it holds one block of
    draws and its values, whatever the budget.  A block is the sampler's
    draw-minor (n, n, m) array, entry (i, j) of draw k at [i, j, k]; a
    statistic may overwrite it and must return a fresh array of m values,
    which ``_moments`` overwrites.  A shard takes its values less its
    first value (the shifted data of Chan, Golub and LeVeque), so the
    means that the fold rounds are of deviations, not of a mean that may
    dwarf them, and it folds its block triples left to right, in block
    order.  Shards run on
    at most os.cpu_count() threads and share nothing mutable; their
    triples, rebased to the first shard's shift, are folded the same way,
    in shard order, and that shift is added back to the mean, so results
    depend only on (seed, threads, samples).
    An ``exact`` value too large for a float raises OverflowError before
    anything is drawn; a sample mean or sample variance that is not finite
    raises it after the draws, so an overflow is never reported as an
    infinite std_err with a zero z-score.
    """
    _check_budget(samples, threads)
    reference = float(exact)
    chunks = _sample_chunks(samples, threads, rng)

    def shard(count: int, gen: np.random.Generator) -> tuple[float, Moments]:
        blocks = _sample_blocks(n, count, gen)
        values = statistic(next(blocks))
        shift = float(values[0])
        first = _moments(values, shift)
        del values  # no block's values outlive its moments
        return shift, reduce(_merge, (_moments(statistic(q), shift) for q in blocks), first)

    if len(chunks) == 1:
        shards = [shard(*chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
            shards = list(pool.map(shard, *zip(*chunks)))
    base = shards[0][0]
    m, mean, m2 = reduce(_merge, ((k, (shift - base) + mu, m2) for shift, (k, mu, m2) in shards))
    return _summarize(exact, reference, (m, base + mean, m2))


def mc_trace_power(a, b, f: int, samples: int, rng, threads: int = 1) -> MomentReport:
    """Monte Carlo counterpart of exact_trace_power_integral.

    f = 0 is reported exactly, with no sample drawn or counted.
    """
    a, b, n = _spectra(a, b)
    exact = exact_trace_power_integral(a, b, f)
    if f == 0:  # the integrand is 1: nothing is drawn
        _check_budget(samples, threads)
        return MomentReport(exact, 1.0, 0.0, 0, 0.0)
    statistic = _trace_power_statistic(np.array(a.floats()), np.array(b.floats()), f)
    return _monte_carlo(exact, n, samples, rng, threads, statistic)


def _squares_dot(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """tr(D_a Q D_b Q') = sum_ij a_i b_j Q_ij^2 per draw Q of a draw-minor block.

    ``w`` is outer(a, b) raveled.  The block is squared in place and
    contracted along its entries by einsum, which calls no BLAS: with two
    shards, each shard's BLAS call would start its own threads.
    """
    q *= q
    return np.einsum("k,km->m", w, q.reshape(len(w), -1))


def _trace_power_statistic(av: np.ndarray, bv: np.ndarray, f: int):
    """statistic(block) -> tr(D_a Q D_b Q')^f per draw Q; overwrites the block.

    numpy's pow leaves its vectorized loop for a negative base, so the
    power is taken of |tr| and the sign restored for odd f: the bits of
    ``tr ** f`` for a nonnegative trace, and within one ulp of them for a
    negative one (measured on 1e6 signed normals at f = 3, 4, 5 and 7).
    """
    w = np.outer(av, bv).ravel()

    def statistic(q: np.ndarray) -> np.ndarray:
        trace = _squares_dot(w, q)
        power = np.abs(trace)
        power **= f
        return np.copysign(power, trace, out=power) if f % 2 else power

    return statistic


#: The largest n whose latent power sums are taken entry by entry on the
#: draw-minor block; above it they are taken by batched gemm.  Measured
#: at f = 3 on one thread of a 2-core VM (numpy 2.4, OpenBLAS), entry by
#: entry runs 3-4x faster at n = 1, 2 and 3; n = 4 ties, and from n = 5
#: on gemm wins, by 2x at n = 6 and 8x at n = 30.
DRAW_MINOR_MAX_N = 3


def _latent_power_sums(block: np.ndarray, w: np.ndarray, f: int) -> np.ndarray:
    """p_1..p_f of the latent roots of D_a H D_b H' for every draw H of a draw-minor block.

    ``w`` is the outer product a b' of the two spectra, which may take any
    real signs.  The roots are those of N = H' D_a H D_b, a cyclic shift of
    D_a H D_b H', so p_k = tr(N^k); N need not be symmetric and its roots
    may be complex, but the traces are real.  N is H' (w * H).  Up to
    n = DRAW_MINOR_MAX_N a product of n x n matrices is a few dozen numpy
    calls along the draw axis, far cheaper than one tiny gemm per draw, so
    ``_draw_minor_power_sums`` works on the block as it is; above it,
    ``_gemm_power_sums`` hands one gemm per draw to BLAS.  Either way the
    block is overwritten.  Returns an (f, m) array whose row k-1 is p_k.
    """
    if block.shape[0] <= DRAW_MINOR_MAX_N:
        return _draw_minor_power_sums(block, w, f)
    return _gemm_power_sums(block, w, f)


def _trace_of_product(x: np.ndarray, y: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = tr(x y) = sum_ij x_ij y_ji per draw of two (n, n, m) stacks; ``tmp`` is one (m) row.

    The n^2 products are added one at a time, in row-major order of (i, j).
    """
    n = len(x)
    np.multiply(x[0, 0], y[0, 0], out=out)
    for i in range(n):
        for j in range(n):
            if i or j:
                np.multiply(x[i, j], y[j, i], out=tmp)
                out += tmp


def _draw_minor_power_sums(block: np.ndarray, w: np.ndarray, f: int) -> np.ndarray:
    """``_latent_power_sums`` entry by entry along the draw axis of the (n, n, m) block.

    Every numpy call is elementwise over rows of m draws, and each trace
    adds its n^2 products one at a time, so each draw's bits do not depend
    on the block size (a reduction over an axis of length n^2 may sum
    pairwise when that axis is contiguous, as it is at m = 1).
    N = sum_i outer(H[i], w[i] * H[i]) is formed in a fresh (n, n, m)
    array, with one (n, m) row for w[i] * H[i] that is released once N
    is in; row 0 of H is scratch once its own term is in.
    p_2 = tr(N N), p_k = tr(N N^(k-1)) for k >= 3 and, for even f,
    p_f = tr(N^(f/2) N^(f/2)), with N^2, N^3, ... in the block's memory:
    N^2 from N entry by entry, each further power in place, one row at a
    time through a copy of that row.  Every other product waits in one
    (m) row of scratch.  So a call holds N with, first, the row of
    w[i] * H[i] and then the sums, the (m) row and, from f = 5 on, the
    (n, m) row copy.
    """
    n, m = block.shape[0], block.shape[2]
    base = np.empty((n, n, m))
    lifted = np.empty((n, m))
    np.multiply(block[0], w[0][:, None], out=lifted)
    np.multiply(block[0][:, None], lifted, out=base)
    for i in range(1, n):
        np.multiply(block[i], w[i][:, None], out=lifted)
        for j in range(n):
            np.multiply(block[i, j], lifted, out=block[0])
            base[j] += block[0]
    del lifted
    sums, one = np.empty((f, m)), np.empty(m)
    row = np.empty((n, m)) if f >= 5 else None
    np.copyto(sums[0], base[0, 0])
    for i in range(1, n):
        sums[0] += base[i, i]
    if f > 1:
        _trace_of_product(base, base, sums[1], one)
    # p_(k+1) = tr(N N^k) as each power N^k is formed, and p_f = tr(N^k N^k)
    # at 2k = f, which spares even f its last power
    power = block
    for k in range(2, f if f % 2 else f - 1):
        for j in range(n):
            if k == 2:
                np.multiply(base[j, 0], base[0], out=power[j])
                for i in range(1, n):
                    for col in range(n):
                        np.multiply(base[j, i], base[i, col], out=one)
                        power[j, col] += one
            else:
                # row j of N^(k-1) N over itself: ``row`` keeps the old row,
                # and its entry i - 1, once spent, holds each product with entry i
                np.copyto(row, power[j])
                np.multiply(row[0], base[0], out=power[j])
                for i in range(1, n):
                    for col in range(n):
                        np.multiply(row[i], base[i, col], out=row[i - 1])
                        power[j, col] += row[i - 1]
        _trace_of_product(base, power, sums[k], one)
        if 2 * k == f:
            _trace_of_product(power, power, sums[f - 1], one)
    return sums


def _gemm_power_sums(block: np.ndarray, w: np.ndarray, f: int) -> np.ndarray:
    """``_latent_power_sums`` by batched gemm on a row-major copy of the block.

    N = H' (w * H) is a product of two distinct buffers, which BLAS runs
    as gemm.  The block is copied once into a row-major (m, n, n) stack
    for the batched matmul, and is then overwritten: its memory holds two
    slots of m // 2 draws (a lone draw takes two fresh ones).  The stack
    is taken in parts of m // 2 draws, the last of one draw for odd m: per
    part, w * H fills one slot and N the other; the next power goes to the
    part of the stack, and the third power buffer that f >= 5 needs reuses
    the first slot.
    """
    n, m = block.shape[0], block.shape[2]
    q = np.empty((m, n, n))
    np.copyto(q, block.transpose(2, 0, 1))
    half = max(1, m // 2)
    if m > 1:
        slots = block.reshape(-1)[: 2 * half * n * n].reshape(2, half, n, n)
    else:
        slots = np.empty((2, 1, n, n))
    sums = np.empty((f, m))
    for start in range(0, m, half):
        h = q[start : start + half]
        k = len(h)
        spare, base = slots[0, :k], slots[1, :k]
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
        out = np.zeros(sums.shape[1])
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
    statistic = _splitting_statistic(kappa, np.array(a.floats()), np.array(b.floats()))
    return _monte_carlo(exact, n, samples, rng, threads, statistic)


def mc_linear_trace_power(a, f: int, samples: int, rng, threads: int = 1) -> MomentReport:
    """Haar moment of tr(D_a H)^f for a rational spectrum a of any signs.

    By Haar invariance the moments of tr(A H) depend only on the singular
    values of A, so a diagonal A covers every A.  Odd powers integrate to
    zero by the H -> -H symmetry and f = 0 to one; both are reported
    exactly, with no sample drawn or counted.  Even powers compare against
    the exact value

        sum_kappa chi(kappa) Z_kappa(a^2) / Z_kappa(I_n)

    over partitions kappa of f/2 with at most n parts.
    """
    a = DiagonalSpec.of(a)
    n = len(a)
    exact = _linear_trace_power_value(a, f)
    if f % 2 == 1 or f == 0:  # odd powers vanish by H -> -H; no sampling either way
        _check_budget(samples, threads)
        return MomentReport(exact, float(exact), 0.0, 0, 0.0)
    av = np.array(a.floats())

    def statistic(q: np.ndarray) -> np.ndarray:
        # the diagonal entries are every (n + 1)-th row of the draw-minor block;
        # f is even, so |tr(A H)|^f: pow on a nonnegative base stays vectorized
        return np.abs(np.einsum("k,km->m", av, q.reshape(n * n, -1)[:: n + 1])) ** f

    return _monte_carlo(exact, n, samples, rng, threads, statistic)


def mc_exponential_trace(a, b, reference: float, samples: int, rng, threads: int = 1) -> MomentReport:
    """MC mean of exp(tr(D_a Q D_b Q') / 2), z-scored against ``reference``.

    The natural reference is a truncated hyper0f0 value, so the z-score
    mixes truncation error with sampling error.  A draw whose exponential
    overflows makes the mean infinite, which raises OverflowError.
    """
    a, b, n = _spectra(a, b)
    w = np.outer(a.floats(), b.floats()).ravel()

    def statistic(q: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # an infinite mean raises OverflowError
            return np.exp(0.5 * _squares_dot(w, q))

    return _monte_carlo(reference, n, samples, rng, threads, statistic)
