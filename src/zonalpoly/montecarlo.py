"""Monte Carlo estimates of orthogonal-group moments, z-scored against exact values.

Each estimator draws Haar matrices from ``haar``'s batch sampler, takes
one statistic per draw, and reports the sample mean, its standard error
and a z-score against the exact value from ``moments``.  No sample is
kept: each block of statistics becomes its (count, mean, M2) at once,
and those triples are merged by the pairwise update of Chan, Golub and
LeVeque.  The lanes of a budget run on at most
min(threads, lanes, usable CPUs) workers, each lane in turn in its
worker's one sampler workspace (a block and the sampler's scratch), so
memory stays at one workspace per worker whatever the budget.  The
splitting check needs Z_kappa at the latent roots of each draw; a
symmetric polynomial depends on the roots only through their power sums,
which come with no eigensolve and no square root, so the spectra may
take any real signs.  Up to n = 3 they follow by Newton's identities
from the elementary symmetric functions of the roots, which are weighted
sums of the squared entries of each draw along the draw axis of the
sampler's block; above, they are traces of powers of H' D_a H D_b,
through a batched matmul on row-major copies of the block in chunks of
CHUNK // n^2 draws, so a worker holds its block and three chunks of at
most CHUNK entries, not a second block.  This module and ``haar`` are
the only ones that import numpy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import isfinite, sqrt

import numpy as np

from .haar import _generator, _realize, _workspace
from .moments import (
    DiagonalSpec,
    _linear_trace_power_value,
    _spectra,
    _splitting_value,
    exact_trace_power_integral,
)
from .partitions import Partition
from .symfunc import _powersum_value
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


#: The lanes of a sample budget, each on its own spawned stream.  The lanes,
#: not the threads, fix the draws; threads only set how many lanes run at
#: once, on up to LANES cores.  A lane costs a stream and a partial block; the
#: sampler buffers belong to the worker that runs it: 1 to 16 lanes ran within
#: noise on one thread at n = 3 (1e6 draws), and 2 to 16 on two threads at
#: n = 30 (8000 draws).
LANES = 8


def _sample_chunks(samples: int, rng) -> list[tuple[int, np.random.Generator]]:
    """Split a budget into min(LANES, samples) (count, stream) lanes on spawned children.

    ``rng`` is a seed, which means ``Generator(SFC64(seed))``, or a
    Generator, used as given (``haar._generator``); its ``.spawn`` gives
    children of the same bit generator on the spawned SeedSequences, and
    child k does not depend on how many are spawned.
    """
    lanes = min(LANES, samples)
    base, extra = divmod(samples, lanes)
    streams = _generator(rng).spawn(lanes)
    return [(base + (k < extra), gen) for k, gen in enumerate(streams)]


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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _monte_carlo(exact, n: int, samples: int, rng, threads: int, statistic) -> MomentReport:
    """The Haar mean over O(n) of a per-draw statistic, compared with ``exact``.

    Each lane of ``_sample_chunks`` draws its matrices block by block from
    ``haar._realize`` on its own spawned stream, SFC64 for a seed (the
    quaternion normals for n >= 3, whose w gives each draw's reflection
    bit, then each sweep's normals as it runs; for n <= 2 the sweeps'
    normals, then the block's reflection bits) and reduces
    ``statistic(block) -> values`` to the block's (count, mean, M2) at
    once, so it holds one block of draws and its values, whatever the
    budget.  The lanes run on
    min(threads, lanes, ``_usable_cpus()``) workers, lane k on worker
    k mod workers; each worker builds one ``haar._workspace`` for its
    longest lane and runs its lanes in it in turn.  A lane's blocks take
    min(count, BLOCK // n) draws for its own count, so the workspace's
    size moves no draw.  A block is the sampler's draw-minor (n, n, m)
    array, entry (i, j) of draw k at [i, j, k]; a statistic may overwrite
    it and must return a fresh array of m values, which ``_moments``
    overwrites.  A lane takes its values less its
    first value (the shifted data of Chan, Golub and LeVeque), so the
    means that the fold rounds are of deviations, not of a mean that may
    dwarf them, and it folds its block triples left to right, in block
    order.  One worker runs in the calling thread, so ``threads == 1``
    starts no pool; more run on as many pool threads, sharing nothing
    mutable.  Nothing outlives the call.  The lane triples, rebased to the
    first lane's shift, are folded the same way, in lane order, and that
    shift is added back to the mean, so results depend only on
    (seed, samples), whatever ``threads``.
    An ``exact`` value too large for a float raises OverflowError before
    anything is drawn; a sample mean or sample variance that is not finite
    raises it after the draws, so an overflow is never reported as an
    infinite std_err with a zero z-score.  A ``statistic`` of None marks
    an integrand known to equal ``exact`` on every draw: it is reported
    exactly, with no sample drawn or counted.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    reference = float(exact)
    if statistic is None:
        return MomentReport(exact, reference, 0.0, 0, 0.0)
    chunks = _sample_chunks(samples, rng)
    workers = min(threads, len(chunks), _usable_cpus())

    def lane(count: int, gen: np.random.Generator, workspace) -> tuple[float, Moments]:
        blocks = _realize(n, count, gen, workspace)
        values = statistic(next(blocks))
        shift = float(values[0])
        first = _moments(values, shift)
        del values  # no block's values outlive its moments
        return shift, reduce(_merge, (_moments(statistic(q), shift) for q in blocks), first)

    def worker(share: list[tuple[int, np.random.Generator]]) -> list[tuple[float, Moments]]:
        # _sample_chunks puts the longer lanes first, so a share's first lane is its longest
        workspace = _workspace(n, share[0][0])
        return [lane(count, gen, workspace) for count, gen in share]

    if workers == 1:
        lanes = worker(chunks)
    else:
        # imported here: it loads logging, which no single-thread run needs
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            shares = list(pool.map(worker, (chunks[k::workers] for k in range(workers))))
        lanes = [shares[k % workers][k // workers] for k in range(len(chunks))]
    base = lanes[0][0]
    m, mean, m2 = reduce(_merge, ((k, (shift - base) + mu, m2) for shift, (k, mu, m2) in lanes))
    return _summarize(exact, reference, (m, base + mean, m2))


def mc_trace_power(a, b, f: int, samples: int, rng, threads: int = 1) -> MomentReport:
    """Monte Carlo counterpart of exact_trace_power_integral.

    f = 0 is reported exactly, with no sample drawn or counted.
    """
    a, b, n = _spectra(a, b)
    exact = exact_trace_power_integral(a, b, f)
    if f == 0:  # the integrand is 1: nothing is drawn
        return _monte_carlo(exact, n, samples, rng, threads, None)
    statistic = _trace_power_statistic(np.array(a.floats()), np.array(b.floats()), f)
    return _monte_carlo(exact, n, samples, rng, threads, statistic)


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """rows[0] + rows[1] + ..., added into rows[0] in place, one row per call; returns rows[0].

    Each call is elementwise along the draw axis and the rows are added
    from the first down, so no draw's sum depends on the block size.
    """
    total = rows[0]
    for row in rows[1:]:
        total += row
    return total


def _squares_dot(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """tr(D_a Q D_b Q') = sum_ij a_i b_j Q_ij^2 per draw Q of a draw-minor block.

    ``w`` is outer(a, b).  The block is squared and weighted in place, and
    the terms are added as sum_j (sum_i w_ij Q_ij^2), each sum from index
    0 up: 2n calls along the draw axis, with separately rounded products
    and sums, so a draw's bits do not depend on the block it lands in.
    No BLAS is called: with two lanes running at once, each lane's BLAS
    call would start its own threads.  Returns a view of the block.
    """
    q *= q
    q *= w[:, :, None]
    return _sum_rows(_sum_rows(q))


def _trace_power_statistic(av: np.ndarray, bv: np.ndarray, f: int):
    """statistic(block) -> tr(D_a Q D_b Q')^f per draw Q; overwrites the block.

    numpy's pow leaves its vectorized loop for a negative base, so the
    power is taken of |tr| and the sign restored for odd f: the bits of
    ``tr ** f`` for a nonnegative trace, and within one ulp of them for a
    negative one (measured on 1e6 signed normals at f = 3, 4, 5 and 7).
    """
    w = np.outer(av, bv)

    def statistic(q: np.ndarray) -> np.ndarray:
        trace = _squares_dot(w, q)
        power = np.abs(trace)
        power **= f
        return np.copysign(power, trace, out=power) if f % 2 else power

    return statistic


def _latent_power_sums(w: np.ndarray, f: int):
    """power_sums(block) -> p_1..p_f of the latent roots of D_a H D_b H' per draw H.

    ``w`` is the outer product a b' of the two spectra, which may take any
    real signs, and the block is draw-minor.  Up to n = 3 the elementary
    symmetric functions of the roots are closed forms in the squared
    entries of H, and ``_squares_power_sums`` takes the power sums from
    them, with the cofactor weights computed here, once per estimate;
    above, where e_2, ..., e_(n-2) would need larger minors,
    ``_gemm_power_sums`` takes traces of powers by one gemm per draw.
    Either way the block is overwritten, and the result is an (f, m)
    array whose row k-1 is p_k.
    """
    if len(w) <= 3:
        cofactors = _cofactor_weights(w)
        return lambda block: _squares_power_sums(block, w, cofactors, f)
    return lambda block: _gemm_power_sums(block, w, f)


def _cofactor_weights(w: np.ndarray) -> np.ndarray:
    """The outer product of a^ and b^, a^_i the product of a_k over k != i, from w = a b'.

    Entry (i, j) is the product of w over any matching of the rows other
    than i with the columns other than j; for n = 1 it is 1.
    """
    n = len(w)
    out = np.ones((n, n))
    for i in range(n):
        for j in range(n):
            rows, cols = [k for k in range(n) if k != i], [k for k in range(n) if k != j]
            out[i, j] = np.prod(w[rows, cols])
    return out


def _weighted_sum(v: np.ndarray, squares: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = sum_k v_k squares[k] per draw; ``tmp`` is one (m) row.

    The terms are added one at a time, so no draw's sum depends on m.
    """
    np.multiply(squares[0], v[0], out=out)
    for k in range(1, len(v)):
        np.multiply(squares[k], v[k], out=tmp)
        out += tmp
    return out


def _squares_power_sums(block: np.ndarray, w: np.ndarray, cofactors: np.ndarray, f: int) -> np.ndarray:
    """``_latent_power_sums`` at n <= 3, from the squared entries of each draw.

    By Cauchy-Binet, e_k of the roots of D_a H D_b H' is the sum over
    |I| = |J| = k of a_I b_J det(H_IJ)^2.  For orthogonal H each
    (n - 1)-minor is +-det(H) H_ij, since the adjugate is det(H) H', so
    e_1 = sum a_i b_j H_ij^2, e_(n-1) = sum a^_i b^_j H_ij^2 from
    ``cofactors``, the ``_cofactor_weights`` of w, and
    e_n = prod a_i prod b_j.  At n <= 3 every k is 1, n - 1 or n; at
    n = 2, e_(n-1) is e_1.  Newton's identities
    give p_1..p_f, for spectra of any real signs.  The block is squared
    in place, and every call is elementwise over rows of m draws with the
    squared terms added one at a time, so each draw's bits do not depend
    on the block size.
    """
    n, m = block.shape[0], block.shape[2]
    squares = block.reshape(n * n, m)
    squares *= squares
    sums, tmp = np.empty((f, m)), np.empty(m)
    e = {1: _weighted_sum(w.ravel(), squares, sums[0], tmp)}
    if n == 3:
        e[2] = _weighted_sum(cofactors.ravel(), squares, np.empty(m), tmp)
    if n > 1:
        e[n] = float(np.prod(np.diagonal(w)))
    # p_k = sum_(i = 1..min(k, n)) (-1)^(i-1) e_i p_(k-i), where p_0 counts as k
    for k in range(2, f + 1):
        out = sums[k - 1]
        np.multiply(sums[k - 2], e[1], out=out)
        for i in range(2, min(k, n) + 1):
            if i < k:
                np.multiply(sums[k - i - 1], e[i], out=tmp)
            else:
                np.multiply(e[i], k, out=tmp)
            if i % 2:
                out += tmp
            else:
                out -= tmp
    return sums


#: Matrix entries in one chunk of ``_gemm_power_sums``, CHUNK // n^2 draws (at
#: least one): each of its three chunk buffers takes at most 256 KB, whatever
#: the block, for n <= 181.  At n = 30 a chunk is 36 draws, where chunks of an
#: eighth of a block (68 draws) took 1.47 MB per running worker.
CHUNK = 2**15


def _gemm_power_sums(block: np.ndarray, w: np.ndarray, f: int) -> np.ndarray:
    """``_latent_power_sums`` by batched gemm on row-major chunks of the block.

    The roots are those of N = H' D_a H D_b, a cyclic shift of
    D_a H D_b H', so p_k = tr(N^k); N need not be symmetric and its roots
    may be complex, but the traces are real.  N = H' (w * H) is a product
    of two distinct buffers, which BLAS runs as gemm.  The block is taken
    in chunks of CHUNK // n^2 draws (at least one, at most m), and each
    chunk is copied to a row-major (k, n, n) stack H for the batched
    matmul, so no block-sized copy is made and the block is left as it
    is.  Three chunk buffers serve every chunk: H, w * H and N; the next
    power goes to w * H, and the third power buffer that f >= 5 needs
    reuses H.  Each draw's matrices are multiplied on their own, so its
    power sums do not depend on the block or the chunk it lands in.
    """
    n, m = block.shape[0], block.shape[2]
    chunk = max(1, min(m, CHUNK // (n * n)))
    bufs = np.empty((3, chunk, n, n))
    sums = np.empty((f, m))
    for start in range(0, m, chunk):
        k = min(chunk, m - start)
        h, spare, base = bufs[:, :k]
        np.copyto(h, block[:, :, start : start + k].transpose(2, 0, 1))
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
    from ``_latent_power_sums``, by the term loop of ``SymPoly.evaluate``
    (``_powersum_value``); both spectra may take any real signs.
    """
    f = kappa.weight
    power_sums = _latent_power_sums(np.outer(av, bv), f)
    terms = [(lam, float(c)) for lam, c in zonal_in_powersums(kappa).sorted_items()]

    def statistic(q: np.ndarray) -> np.ndarray:
        sums = power_sums(q)
        return _powersum_value(terms, sums, np.zeros(sums.shape[1]))

    return statistic


def mc_splitting(kappa, a, b, samples: int, rng, threads: int = 1) -> MomentReport:
    """Monte Carlo check of the zonal splitting rule.

    Estimates the Haar mean of Z_kappa at the latent roots of
    D_a H D_b H', against the exact value Z_kappa(a) Z_kappa(b) / Z_kappa(I_n).
    The power sums of the roots come, with no eigensolve, from the
    squared entries of each draw at n <= 3 (e_1, e_(n-1) and e_n of the
    roots in closed form, then Newton's identities) and from traces of
    matrix powers above, so a and b may be any real spectra: where the
    roots are complex, their power sums, and so Z_kappa, are still real.
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
        return _monte_carlo(exact, n, samples, rng, threads, None)
    av = np.array(a.floats())

    def statistic(q: np.ndarray) -> np.ndarray:
        # the diagonal entries are every (n + 1)-th row of the draw-minor block,
        # weighted in place and added from a_0 Q_00 up; f is even, so
        # |tr(A H)|^f: pow on a nonnegative base stays vectorized
        diagonal = q.reshape(n * n, -1)[:: n + 1]
        diagonal *= av[:, None]
        return np.abs(_sum_rows(diagonal)) ** f

    return _monte_carlo(exact, n, samples, rng, threads, statistic)


def mc_exponential_trace(a, b, reference: float, samples: int, rng, threads: int = 1) -> MomentReport:
    """MC mean of exp(tr(D_a Q D_b Q') / 2), z-scored against ``reference``.

    The natural reference is a truncated hyper0f0 value, so the z-score
    mixes truncation error with sampling error.  A draw whose exponential
    overflows makes the mean infinite, which raises OverflowError.
    """
    a, b, n = _spectra(a, b)
    w = np.outer(a.floats(), b.floats())

    def statistic(q: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # an infinite mean raises OverflowError
            return np.exp(0.5 * _squares_dot(w, q))

    return _monte_carlo(reference, n, samples, rng, threads, statistic)
