"""Haar sampling on the orthogonal group O(n).

The primary sampler drives a rotation/reflection decomposition: a matrix
is a product of n reflection factors U_i^{eps_i} (reflections first, on
the left) and a triangular family of plane rotations V_j(theta_ij),
where V_j rotates the (j, j+1) coordinate plane.  Sweep i contributes the
factors V_{n-1}(theta_{i,n-1}) ... V_i(theta_{i,i}), and sweeps are
multiplied left to right for i = 1, ..., n-1.

Angle theta_ij carries the density sin(theta)^(n-j-1): angles with a
positive exponent live on [0, pi] and are drawn through a symmetric Beta
transform of cos(theta); at exponent one that Beta(1, 1) is U(0, 1),
one uniform double per draw.  Exponent-zero angles are uniform on
[0, 2*pi).  Reflection bits are fair and independent.  An independent
oracle, the Q factor of a Gaussian matrix with diag(R) made positive, is
provided for cross-validation.

The sampler draws all angles at the call, in lexicographic (i, j)
order, and builds matrices in one loop over blocks of BLOCK // n draws,
drawing each block's reflection bits as it is realized; the stream is that
of all angles followed by all bits in one draw.  A block is held as
``cols[col, row, draw]``: the two columns a rotation touches are one
contiguous view that stays in cache, updated by three in-place calls
along the draw axis, and one cos, one sin and one negative give the
cosines and signed sines of a whole sweep.  Few, long numpy calls thus
leave the GIL free for most of the time, and shards run in parallel.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = [
    "as_generator",
    "sample_orthogonal_batch",
    "oracle_sample_batch",
    "orthogonality_check",
]


def as_generator(rng) -> np.random.Generator:
    """Coerce a seed or Generator into a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


#: Matrix entries in one column of a realized block, which holds BLOCK // n
#: draws: the two columns a rotation touches and their scratch pair take
#: 512 KB at every n, and the cosines and signed sines of the widest sweep
#: 3 (n - 1) / n * 128 KB, under 384 KB.  On two threads at n = 30, 2**14
#: ran fastest of 2**12 to 2**16 (2-core VM, 2 MB L2 per core): a smaller
#: block spends more of each call in Python, holding the GIL.
BLOCK = 2**14


def _draw(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Angles ``thetas`` (n(n-1)/2, count), drawn row by row in lexicographic (i, j) order.

    Each row is written in place: 2c - 1 and its arccos for a
    Beta((k+1)/2, (k+1)/2) draw c (the roundings of ``2.0 * c - 1.0``), and
    2*pi times a uniform double for an exponent-zero angle (the bits of
    ``rng.uniform(0, 2*pi)``).  Beta(1, 1) is U(0, 1), so an exponent-one
    row takes its c from ``rng.random``, one double per draw; every other
    Beta row comes from ``rng.beta``.
    """
    thetas = np.empty((n * (n - 1) // 2, count))
    exponents = (n - j - 1 for i in range(1, n) for j in range(i, n))
    for row, k in zip(thetas, exponents):
        if k == 0:
            rng.random(out=row)
            row *= 2.0 * math.pi
            continue
        if k == 1:
            rng.random(out=row)
        else:
            row[:] = rng.beta((k + 1) / 2.0, (k + 1) / 2.0, size=count)
        row *= 2.0
        row -= 1.0
        np.arccos(row, out=row)
    return thetas


def _realize(thetas: np.ndarray, n: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Matrices from ``thetas`` as C-contiguous (m, n, n) blocks, m <= BLOCK // n.

    Each block draws the (m, n) reflection bits of its m draws from
    ``rng`` in one ``rng.integers(0, 2, size=(m, n))`` call, as it is
    realized.  A block is held as ``cols[col, row, draw]``, so the two
    columns a rotation touches are one contiguous (2, n, m) view ``pair``.
    Sweep i's angle rows are contiguous in ``thetas``: one cos, one sin and
    one negative per sweep give every cosine and signed sine pair (-s, s)
    of its rotations.  A rotation is then three in-place calls on
    ``pair``: the swapped pair times (-s, s) into scratch, ``pair *= c``
    and ``pair += scratch``, which is c*left - s*right and c*right + s*left
    with the roundings of an out-of-place update ((-s)*r is -(s*r) exactly
    and x + (-y) is x - y), so the bits depend on neither layout nor block
    size.  The signs multiply the block in place, which is then transposed
    to row-major into one buffer reused by every block.
    """
    count = thetas.shape[1]
    size = max(1, min(count, BLOCK // n))
    col_buf = np.empty(n * n * size)
    scratch = np.empty(2 * n * size)
    # cosines and signed sines of the widest sweep, n - 1 rotations
    cos_buf = np.empty((n - 1) * size)
    sin_buf = np.empty(2 * (n - 1) * size)
    out_buf = np.empty((size, n, n))
    eye = np.eye(n)[:, :, None]
    for start in range(0, count, size):
        stop = min(start + size, count)
        m = stop - start
        cols = col_buf[: n * n * m].reshape(n, n, m)
        cols[...] = eye
        tmp = scratch[: 2 * n * m].reshape(2, n, m)
        cos = cos_buf[: (n - 1) * m].reshape(n - 1, m)
        # row r holds (-s, s) of rotation r as a (2, 1, m) broadcast operand
        sin = sin_buf[: 2 * (n - 1) * m].reshape(n - 1, 2, 1, m)
        first = 0
        for i in range(1, n):
            # sweep i: rows first + j - i for j = i..n-1, applied from j = n-1 down
            width = n - i
            angles = thetas[first : first + width, start:stop]
            c, s = cos[:width], sin[:width]
            np.cos(angles, out=c)
            np.sin(angles, out=s[:, 1, 0])
            np.negative(s[:, 1], out=s[:, 0])
            for r in range(width - 1, -1, -1):
                pair = cols[i + r - 1 : i + r + 1]
                np.multiply(pair[::-1], s[r], out=tmp)
                pair *= c[r]
                pair += tmp
            first += width
        cols *= 1.0 - 2.0 * rng.integers(0, 2, size=(m, n)).T
        out = out_buf[:m]
        np.copyto(out, cols.transpose(2, 1, 0))
        yield out


def _sample_blocks(n: int, count: int, rng) -> Iterator[np.ndarray]:
    """``count`` Haar draws as C-contiguous (m, n, n) blocks of m <= BLOCK // n.

    All angles are drawn from ``rng`` at the call, and each block's
    reflection bits as the block is realized; blocks are realized as they
    are consumed, in the (col, row, draw) layout, each into the one
    row-major buffer that the next overwrites.  Concatenated, the blocks
    are the bits of sample_orthogonal_batch.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = as_generator(rng)
    return _realize(_draw(n, count, rng), n, rng)


def sample_orthogonal_batch(n: int, count: int, rng) -> np.ndarray:
    """A C-contiguous (count, n, n) stack of independent Haar draws.

    Vectorized across the batch; for a fixed (n, count, seed) the output
    is bit-reproducible.  All angles are drawn first, row by row in
    lexicographic (i, j) order, then the count x n reflection bits.
    """
    blocks = _sample_blocks(n, count, rng)
    out = np.empty((count, n, n))
    start = 0
    for block in blocks:
        out[start : start + len(block)] = block
        start += len(block)
    return out


def oracle_sample_batch(n: int, count: int, rng) -> np.ndarray:
    """Independent verifier: QR of standard-Gaussian matrices.

    The Q factor, with each column's sign flipped so that diag(R) is
    positive (Mezzadri, Notices AMS 2007); the law is Haar by rotational
    invariance of the Gaussian.  Numerically singular draws (some
    |R_kk| <= 1e-12, probability zero) are redrawn.
    """
    rng = as_generator(rng)
    out = np.empty((count, n, n))
    pending = np.arange(count)
    while pending.size:
        q, r = np.linalg.qr(rng.standard_normal((pending.size, n, n)))
        diag = np.diagonal(r, axis1=1, axis2=2)
        q *= np.sign(diag)[:, None, :]
        ok = np.all(np.abs(diag) > 1e-12, axis=1)
        out[pending[ok]] = q[ok]
        pending = pending[~ok]
    return out


def orthogonality_check(q: np.ndarray, tol: float) -> bool:
    """Whether max-abs of Q^T Q - I is below ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    return bool(np.max(np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(n))) < tol)
