"""Monte Carlo estimates of orthogonal-group moments, z-scored against exact values.

Each estimator draws from ``haar``, takes one statistic per draw, and
reports the sample mean, its standard error and a z-score against the
exact value from ``moments``.  No sample is kept: each block of values
becomes its (count, mean, M2) at once, and the triples merge by the
pairwise update of Chan, Golub and LeVeque, so memory stays at one
sampler workspace per worker whatever the budget.  A budget splits into
lanes on spawned streams whose results merge in lane order, so an
estimate depends only on (seed, samples), whatever ``threads``.

Trace-power, exp-series and zonal-split read p_1^f, exp(p_1 / 2) and
Z_kappa(p) of the power sums p_k of the latent roots of D_a H D_b H',
from one builder (``_power_sums``), so Z_(1) and tr^1 are the same bits;
trace-AH is linear in H and reads tr(D_a H).  The power sums need no
eigensolve and no square root, so the spectra may take any real signs.
At n = 3 a draw is a quaternion from ``haar._quaternions`` and every
statistic is a closed form in q: the squares of an orthogonal matrix are
doubly stochastic, so each weighted sum of them reduces to the leading
2 x 2 minor (``_reduced``), and tr(D_a R(q)) is a quadratic form in q
(Davenport's q-method; Shuster and Oh, J. Guid. Control 4, 1981).  At
n = 1 every statistic but exp-series' is constant and is reported
exactly, with no draw.  This module and ``haar`` are the only ones that
import numpy.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from functools import reduce
from math import isfinite, prod, sqrt

import numpy as np

from .haar import _generator, _quaternion_workspace, _quaternions, _realize, _workspace
from .moments import (
    DiagonalSpec,
    _linear_trace_power_value,
    _spectra,
    _splitting_value,
    exact_trace_power_integral,
)
from .partitions import Partition
from .symfunc import _powersum_value, _Record
from .zonal import zonal_in_powersums

__all__ = [
    "MomentReport",
    "mc_trace_power",
    "mc_splitting",
    "mc_linear_trace_power",
    "mc_exponential_trace",
]


class MomentReport(_Record):
    """One exact-vs-Monte-Carlo comparison."""

    _fields = ("exact_value", "mc_estimate", "mc_std_err", "samples", "z_score")

    def __init__(
        self, exact_value: Fraction | float, mc_estimate: float, mc_std_err: float, samples: int, z_score: float
    ) -> None:
        self._set(exact_value, mc_estimate, mc_std_err, samples, z_score)


#: The lanes of a sample budget, each on its own spawned stream.  The lanes,
#: not the threads, fix the draws; threads only set how many lanes run at
#: once, on up to LANES cores.  A lane costs a stream and a partial block; the
#: sampler buffers belong to the worker that runs it.
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

    ``statistic(block) -> values`` maps a block of draws, the sampler's
    draw-minor (n, n, m) array or at n = 3 a (``haar.QUATERNION_ROWS``, m)
    quaternion block, to a fresh array of m values; it may overwrite the
    block.  Each lane of ``_sample_chunks`` reduces each block's values at
    once to their (count, mean, M2), taken less the lane's first value
    (the shifted data of Chan, Golub and LeVeque) so that a large mean
    does not dwarf the deviations, and folds them in block order.  The
    lanes run on min(threads, lanes, ``_usable_cpus()``) workers, lane k
    on worker k mod workers, each worker in one workspace for its longest
    lane.  Worker 0 runs in the calling thread and the others on
    ``threading.Thread``s that share nothing mutable; an error that a
    worker raises is raised again here once every worker has ended, the
    lowest worker's first.  The lane triples fold in lane order, so
    results depend only on (seed, samples), whatever ``threads``.

    OverflowError for an ``exact`` too large for a float, before anything
    is drawn, and for a sample mean or variance that is not finite, after
    the draws, so an overflow is never reported as an infinite std_err.
    A ``statistic`` of None marks an integrand equal to ``exact`` on every
    draw: it is reported exactly, with no sample drawn or counted.
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
        blocks = _quaternions(count, gen, workspace) if n == 3 else _realize(n, count, gen, workspace)
        values = statistic(next(blocks))
        shift = float(values[0])
        first = _moments(values, shift)
        del values  # no block's values outlive its moments
        return shift, reduce(_merge, (_moments(statistic(q), shift) for q in blocks), first)

    def worker(share: list[tuple[int, np.random.Generator]]) -> list[tuple[float, Moments]]:
        # _sample_chunks puts the longer lanes first, so a share's first lane is its longest
        longest = share[0][0]
        workspace = _quaternion_workspace(longest) if n == 3 else _workspace(n, longest)
        return [lane(count, gen, workspace) for count, gen in share]

    shares = [None] * workers

    def run(k: int) -> None:
        try:
            shares[k] = worker(chunks[k::workers])
        except BaseException as exc:  # raised again in the calling thread
            shares[k] = exc

    pool = [threading.Thread(target=run, args=(k,)) for k in range(1, workers)]
    for thread in pool:
        thread.start()
    run(0)
    for thread in pool:
        thread.join()
    for share in shares:
        if isinstance(share, BaseException):
            raise share
    lanes = [shares[k % workers][k // workers] for k in range(len(chunks))]
    base = lanes[0][0]
    m, mean, m2 = reduce(_merge, ((k, (shift - base) + mu, m2) for shift, (k, mu, m2) in lanes))
    return _summarize(exact, reference, (m, base + mean, m2))


def mc_trace_power(a, b, f: int, samples: int, rng, threads: int = 1) -> MomentReport:
    """Monte Carlo counterpart of exact_trace_power_integral.

    f = 0, and n = 1, where tr(D_a Q D_b Q') = a_0 b_0 on O(1) = {-1, 1},
    are reported exactly, with no sample drawn or counted.
    """
    a, b, n = _spectra(a, b)
    exact = exact_trace_power_integral(a, b, f)
    if f == 0 or n == 1:  # the integrand is constant: nothing is drawn
        return _monte_carlo(exact, n, samples, rng, threads, None)
    return _monte_carlo(exact, n, samples, rng, threads, _trace_power_statistic(a, b, f))


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


def _outer(a, b) -> list[list]:
    """The outer product a b' of two vectors, exact for Fractions: spectra, or their ``_complements``."""
    return [[x * y for y in b] for x in a]


def _reduced(w) -> tuple[float, np.ndarray]:
    """(c, v) with sum_ij w_ij P_ij = c + sum_(i, j < 2) v_ij P_ij for every doubly stochastic 3 x 3 P.

    ``w`` is an exact 3 x 3 matrix (nested sequences of Fractions).  P's
    last row and column follow from its leading 2 x 2 minor, so
    v_ij = w_ij - w_i2 - w_2j + w_22 and c = w_02 + w_12 + w_20 + w_21 - w_22.
    Both are taken exactly and rounded once, so a w whose rows, or whose
    columns, are all equal (a scalar spectrum on either side) gives v = 0
    and a constant sum, bit for bit.  v is returned in the row order of
    ``_minor_squares``, 00, 01, 10, 11, times the (1, 4, 4, 1) that it
    leaves out.
    """
    c = w[0][2] + w[1][2] + w[2][0] + w[2][1] - w[2][2]
    v = [(w[i][j] - w[i][2] - w[2][j] + w[2][2]) * (1 if i == j else 4) for i in (0, 1) for j in (0, 1)]
    return float(c), np.array([float(x) for x in v])


def _minor_squares(block: np.ndarray) -> np.ndarray:
    """The squared leading 2 x 2 minor of |q|^2 R(q), per draw of a quaternion block, into its rows 0-3; returns |q|^4.

    The block is a ``haar._quaternions`` block: q = (w, x, y, z) in rows
    0-3, no column all zero.  With u = w^2 - z^2 and v = x^2 - y^2,
    Shoemake's R (Graphics Gems III, 1992) has |q|^2 R_00 = u + v,
    |q|^2 R_11 = u - v, |q|^2 R_01 = 2 (xy - wz) and
    |q|^2 R_10 = 2 (xy + wz), and |q|^2 = (w^2 + z^2) + (x^2 + y^2).  Rows
    0-3 become (u + v)^2, (xy - wz)^2, (xy + wz)^2 and (u - v)^2, the
    factors 2 left to the weights, and row 6 |q|^4; row 4 holds xy and
    row 5 wz.  The reflection sign is not read: a flipped row 0 leaves
    every square as it is.  Every call is elementwise along the draw axis,
    so no draw's bits depend on the block.
    """
    w, x, y, z = block[:4]
    xy, wz, norm = block[4:7]
    np.multiply(x, y, out=xy)
    np.multiply(w, z, out=wz)
    squares = block[:4]
    squares *= squares
    np.add(w, z, out=norm)
    np.subtract(w, z, out=w)  # u
    np.add(x, y, out=z)
    np.subtract(x, y, out=x)  # v
    norm += z
    np.subtract(w, x, out=z)
    w += x
    np.subtract(xy, wz, out=x)
    np.add(xy, wz, out=y)
    squares *= squares
    norm *= norm
    return norm


def _reduced_sum(reduced: tuple[float, np.ndarray], block: np.ndarray, norm: np.ndarray, out: np.ndarray):
    """c + (sum_k v_k block[k]) / norm into ``out``, (c, v) = ``reduced``, after ``_minor_squares``.

    The four terms are added one at a time, and row 4 of the block is
    scratch.  Returns ``out``.
    """
    c, v = reduced
    total = _weighted_sum(v, block[:4], out, block[4])
    total /= norm
    total += c
    return total


def _power_sums(a: DiagonalSpec, b: DiagonalSpec, k: int):
    """power_sums(block) -> p_1..p_k of the latent roots of D_a H D_b H' per draw H of one lane's block.

    The result is a fresh (k, m) array whose row j - 1 is p_j; the block is
    overwritten.  p_1 = tr(D_a H D_b H') is taken one way at each n: at
    n = 3, where the block is a quaternion block, as ``_reduced`` of the
    exact a b' on the leading minor of ``_minor_squares``, over |q|^4, so a
    scalar spectrum gives an exactly constant p_1; elsewhere as
    ``_squares_dot`` of the draw-minor block.

    By Cauchy-Binet, e_j of the roots is the sum over |I| = |J| = j of
    a_I b_J det(H_IJ)^2, so e_1 = p_1 and e_n = prod a_i prod b_j, taken
    exactly and rounded once; each (n - 1)-minor of an orthogonal H is
    +-det(H) H_ij, since the adjugate is det(H) H', so at n = 3
    e_2 = sum a^_i b^_j H_ij^2, a^ and b^ the ``_complements``, read on
    p_1's squares.  Up to n = 3 that is every e_j, and Newton's identities
    (``_newton``) give p_2..p_k.  Above, ``_gemm_power_sums`` takes them
    as traces of matrix powers, reading the block before ``_squares_dot``
    squares it.  No draw's bits depend on the block it lands in.
    """
    n = len(a)
    newton = n <= 3 and k > 1
    # only Newton's identities read e_2 and e_n, which may overflow where p_1 does not
    e_n = float(prod(a) * prod(b)) if newton else None
    if n == 3:
        w = _outer(a, b)
        e1 = _reduced(w)
        e2 = _reduced(_outer(_complements(a), _complements(b))) if newton else None
    else:
        w = np.outer(a.floats(), b.floats())

    def power_sums(block: np.ndarray) -> np.ndarray:
        sums = np.empty((k, block.shape[-1]))
        if n == 3:
            norm = _minor_squares(block)
            _reduced_sum(e1, block, norm, sums[0])
            if newton:
                _newton({1: sums[0], 2: _reduced_sum(e2, block, norm, block[5]), 3: e_n}, sums, block[4])
            return sums
        if n > 3 and k > 1:
            _gemm_power_sums(block, w, sums)
        sums[0] = _squares_dot(w, block)
        if newton:
            # block[-1, -1] is a row _squares_dot is done with; at n = 1, e_1 is e_n: p_1 stands for both
            _newton({n: e_n, 1: sums[0]}, sums, block[-1, -1])
        return sums

    return power_sums


def _trace_power_statistic(a: DiagonalSpec, b: DiagonalSpec, f: int):
    """statistic(block) -> tr(D_a Q D_b Q')^f per draw Q, p_1^f from ``_power_sums``; overwrites the block.

    numpy's pow leaves its vectorized loop for a negative base, so the
    power is taken of |tr| and the sign restored for odd f: the bits of
    ``tr ** f`` for a nonnegative trace, and within one ulp of them for a
    negative one (measured on 1e6 signed normals at f = 3, 4, 5 and 7).
    """
    power_sums = _power_sums(a, b, 1)

    def statistic(block: np.ndarray) -> np.ndarray:
        (trace,) = power_sums(block)
        power = np.abs(trace)
        power **= f
        return np.copysign(power, trace, out=power) if f % 2 else power

    return statistic


def _complements(a) -> list:
    """a^, a^_i the product of a_k over k != i, in the type of a's entries (exact for Fractions)."""
    return [prod(x for k, x in enumerate(a) if k != i) for i in range(len(a))]


def _weighted_sum(v: np.ndarray, squares: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = sum_k v_k squares[k] per draw; ``tmp`` is one (m) row.

    The terms are added one at a time, so no draw's sum depends on m.
    """
    np.multiply(squares[0], v[0], out=out)
    for k in range(1, len(v)):
        np.multiply(squares[k], v[k], out=tmp)
        out += tmp
    return out


def _newton(e: dict, sums: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Rows 1.. of the (f, m) ``sums`` from p_1 in row 0 and e_1..e_n, by Newton's identities; returns ``sums``.

    ``e`` maps i to e_i, a (m) row or a float, for i = 1..n; ``tmp`` is
    one (m) row.  p_k = sum_(i = 1..min(k, n)) (-1)^(i-1) e_i p_(k-i),
    where p_0 counts as k; every call is elementwise along the draw axis.
    """
    n = len(e)
    for k in range(2, len(sums) + 1):
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
#: the block, for n <= 181.
CHUNK = 2**15


def _gemm_power_sums(block: np.ndarray, w: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Rows 1.. of the (f, m) ``sums``, p_2..p_f, by batched gemm on row-major chunks of the block; returns ``sums``.

    The roots are those of N = H' D_a H D_b, a cyclic shift of
    D_a H D_b H', so p_k = tr(N^k); N need not be symmetric and its roots
    may be complex, but the traces are real.  N = H' (w * H) is a product
    of two distinct buffers, which BLAS runs as gemm.  The block is taken
    in chunks of CHUNK // n^2 draws, each copied to a row-major stack for
    the batched matmul, so no block-sized copy is made and the block is
    left as it is.  Three chunk buffers serve every chunk and every power.
    Each draw's matrices are multiplied on their own, so its power sums do
    not depend on the block or the chunk it lands in.  Row 0 is left alone.
    """
    n, m = block.shape[0], block.shape[2]
    f = len(sums)
    chunk = max(1, min(m, CHUNK // (n * n)))
    bufs = np.empty((3, chunk, n, n))
    for start in range(0, m, chunk):
        k = min(chunk, m - start)
        h, spare, base = bufs[:, :k]
        np.copyto(h, block[:, :, start : start + k].transpose(2, 0, 1))
        np.multiply(h, w, out=spare)
        np.matmul(h.transpose(0, 2, 1), spare, out=base)
        out = sums[:, start : start + k]
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


def _splitting_statistic(kappa: Partition, a: DiagonalSpec, b: DiagonalSpec):
    """statistic(block) -> Z_kappa at the latent roots of D_a H D_b H', per draw H.

    Z_kappa is evaluated from its integer power-sum row at the power sums
    from ``_power_sums``, by the term loop of ``SymPoly.evaluate``
    (``_powersum_value``); both spectra may take any real signs.
    """
    power_sums = _power_sums(a, b, kappa.weight)
    terms = [(lam, float(c)) for lam, c in zonal_in_powersums(kappa).sorted_items()]

    def statistic(q: np.ndarray) -> np.ndarray:
        sums = power_sums(q)
        return _powersum_value(terms, sums, np.zeros(sums.shape[1]))

    return statistic


def mc_splitting(kappa, a, b, samples: int, rng, threads: int = 1) -> MomentReport:
    """Monte Carlo check of the zonal splitting rule.

    Estimates the Haar mean of Z_kappa at the latent roots of
    D_a H D_b H', against the exact value Z_kappa(a) Z_kappa(b) / Z_kappa(I_n).
    a and b may be any real spectra: where the roots are complex, their
    power sums (``_power_sums``), and so Z_kappa, are still real.  At n = 1
    the one root a_0 b_0 is the same on every draw, and the exact value is
    reported with no sample drawn or counted.
    """
    kappa = Partition(kappa)
    a, b, n = _spectra(a, b)
    if len(kappa) > n:
        raise ValueError(f"kappa {tuple(kappa)} has more than {n} parts")
    exact = _splitting_value(kappa, a, b)
    statistic = None if n == 1 else _splitting_statistic(kappa, a, b)
    return _monte_carlo(exact, n, samples, rng, threads, statistic)


def _linear_trace(a: DiagonalSpec):
    """trace(block) -> tr(D_a H) per draw H of one lane's block, which it overwrites.

    Elsewhere than at n = 3 the diagonal entries are every (n + 1)-th row
    of the draw-minor block, weighted in place and added from a_0 H_00 up.
    At n = 3, H = F^b R(q) with the sign s of w, -1 where b is set, and
    the diagonal of |q|^2 R(q) is linear in the squares of q, so
    tr(D_a H) = (sum_k c_k q_k^2 - (1 - s) a_0 (w^2 + x^2 - y^2 - z^2)) / |q|^2,
    c = (a0 + a1 + a2, a0 - a1 - a2, -a0 + a1 - a2, -a0 - a1 + a2),
    taken exactly and rounded once: (1 - s) a_0 is 0 or 2 a_0, exactly.
    s is read from w before it is squared, and the sum is taken in place
    on the squares, once the scratch rows hold w^2 + x^2 and y^2 + z^2.
    """
    n = len(a)
    if n != 3:
        av = np.array(a.floats())

        def trace(block: np.ndarray) -> np.ndarray:
            diagonal = block.reshape(n * n, -1)[:: n + 1]
            diagonal *= av[:, None]
            return _sum_rows(diagonal)

        return trace
    a0, a1, a2 = a
    c = np.array([float(x) for x in (a0 + a1 + a2, a0 - a1 - a2, -a0 + a1 - a2, -a0 - a1 + a2)])
    first = float(a0)

    def trace(block: np.ndarray) -> np.ndarray:
        squares = block[:4]
        flips, first_row, tmp = block[4:7]
        np.copysign(1.0, squares[0], out=flips)
        squares *= squares
        w, x, y, z = squares
        np.add(w, x, out=first_row)
        np.add(y, z, out=tmp)
        np.subtract(1.0, flips, out=flips)
        flips *= first
        total = _weighted_sum(c, squares, w, x)  # the squares are read once each, in order
        norm = y  # read by the sum already
        np.add(first_row, tmp, out=norm)
        first_row -= tmp  # |q|^2 R_00
        flips *= first_row
        total -= flips
        total /= norm
        return total

    return trace


def mc_linear_trace_power(a, f: int, samples: int, rng, threads: int = 1) -> MomentReport:
    """Haar moment of tr(D_a H)^f for a rational spectrum a of any signs.

    By Haar invariance the moments of tr(A H) depend only on the singular
    values of A, so a diagonal A covers every A.  Odd powers integrate to
    zero by the H -> -H symmetry, f = 0 to one, and at n = 1, where
    H = +-1, an even power is a_0^f on every draw; all three are reported
    exactly, with no sample drawn or counted.  Other even powers compare
    against the exact value

        sum_kappa chi(kappa) Z_kappa(a^2) / Z_kappa(I_n)

    over partitions kappa of f/2 with at most n parts.
    """
    a = DiagonalSpec.of(a)
    n = len(a)
    exact = _linear_trace_power_value(a, f)
    if f % 2 == 1 or f == 0 or n == 1:  # odd powers vanish by H -> -H; the rest are constant
        return _monte_carlo(exact, n, samples, rng, threads, None)
    trace = _linear_trace(a)

    def statistic(block: np.ndarray) -> np.ndarray:
        # f is even, so |tr(A H)|^f: pow on a nonnegative base stays vectorized
        return np.abs(trace(block)) ** f

    return _monte_carlo(exact, n, samples, rng, threads, statistic)


def mc_exponential_trace(a, b, reference: float, samples: int, rng, threads: int = 1) -> MomentReport:
    """MC mean of exp(tr(D_a Q D_b Q') / 2), z-scored against ``reference``.

    The natural reference is a truncated hyper0f0 value, so the z-score
    mixes truncation error with sampling error; so unlike the other
    kinds it draws at n = 1 too.  A draw whose exponential overflows
    makes the mean infinite, which raises OverflowError.
    """
    a, b, n = _spectra(a, b)
    power_sums = _power_sums(a, b, 1)

    def statistic(block: np.ndarray) -> np.ndarray:
        (half,) = power_sums(block)
        half *= 0.5
        with np.errstate(over="ignore"):  # an infinite mean raises OverflowError
            return np.exp(half)

    return _monte_carlo(reference, n, samples, rng, threads, statistic)
