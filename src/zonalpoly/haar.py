"""Haar sampling on the orthogonal group O(n).

The primary sampler drives a rotation/reflection decomposition: a matrix
is one reflection factor F^eps, F = diag(-1, 1, ..., 1), on the left of a
triangular family of plane rotations V_j(theta_ij), where V_j rotates the
(j, j+1) coordinate plane.  Sweep i contributes the factors
V_{n-1}(theta_{i,n-1}) ... V_i(theta_{i,i}), and the matrix is the
product of sweeps i = 1, ..., n-1 in that order.  It is formed right to
left, as in the subgroup algorithm (Diaconis and Shahshahani, Prob. Eng.
Inf. Sci. 1, 1987): the product of sweeps i + 1, ..., n-1 is the identity
outside its trailing (n - i) x (n - i) corner, so sweep i rotates rows
over the trailing n - i + 1 columns only.

Angle theta_ij carries the density sin(theta)^(n-j-1): angles with a
positive exponent live on [0, pi] and exponent-zero angles are uniform on
[0, 2*pi).  The d = n - i angles of sweep i are the hyperspherical
coordinates of a uniform point on the sphere in d + 1 dimensions, so the
sampler takes their cosines and sines from d + 1 standard normals by
square roots and divisions (Muller, Comm. ACM 2, 1959; the Givens-angle
view of Haar generation of Anderson, Olkin and Underhill, SIAM J. Sci.
Stat. Comput. 8, 1987), with no angle and no transcendental call.
Each rotation has det 1 and each sweep's last angle is uniform on the
full circle, so the product of sweeps is Haar on SO(n); F SO(n) is the
other coset of O(n), so one fair bit eps per draw, which flips the sign
of row 0, makes the draw Haar on O(n).  An independent oracle, the Q
factor of a Gaussian matrix with diag(R) made positive, is provided for
cross-validation.

The sampler builds matrices in blocks of BLOCK // n draws, and each block
consumes the stream in two calls: its normals, all n(n+1)/2 - 1 per draw
in one (rows, m) array whose rows go to sweeps 1, ..., n - 1 in turn,
then its m reflection bits, one per draw.  A block is held draw-minor, as
``rows[row, col, draw]``: the two rows a rotation touches, over the
columns it reaches, are one view of two contiguous runs that stays in
cache, updated by three in-place calls along the draw axis, so few, long
numpy calls do the work.  The Monte Carlo statistics take the draw-minor
block as it is; sample_orthogonal_batch transposes it to one matrix per
draw.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "as_generator",
    "sample_orthogonal_batch",
    "oracle_sample_batch",
]


def as_generator(rng) -> np.random.Generator:
    """Coerce a seed or Generator into a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


#: Matrix entries in one row of a realized block, which holds BLOCK // n
#: draws: the two rows a rotation of the widest sweep touches and their
#: scratch pair take 512 KB at every n, and the block n * 128 KB, which the
#: statistics overwrite in place, so no second copy is made.  The cosines
#: and signed sines of the widest sweep take 3 (n - 1) / n * 128 KB, under
#: 384 KB, the radii of a sweep 128 KB, and the block's normals
#: ((n + 1) / 2 - 1 / n) * 128 KB, 1.9 MB at n = 30.  On two threads at
#: n = 30, 2**14 ran fastest of 2**12 to 2**16 (2-core VM, 2 MB L2 per
#: core): a smaller block spends more of each call in Python, holding the
#: GIL.
BLOCK = 2**14


def _sweep_rotations(g: np.ndarray, radii: np.ndarray, c: np.ndarray, s: np.ndarray) -> None:
    """Cosines ``c`` and sines ``s`` (d, m) of a sweep's rotations from its normals ``g`` (d + 1, m).

    With R_k = sqrt(g_k^2 + ... + g_d^2), the tail sums added in place
    from g_d^2 up in ``radii`` (d + 1, m), rotation r gets c = g_r / R_r
    and s = R_(r+1) / R_r, or s = g_d / R_(d-1) for the last one: the
    hyperspherical coordinates of the uniform point g / R_0 on the sphere
    in d + 1 dimensions (Muller 1959), so the angle of rotation r has the
    density sin(theta)^(d-1-r) on [0, pi] for r < d - 1, and is uniform on
    [0, 2*pi) for the last.  A zero tail g_r = ... = g_d = 0 (numpy's
    normals include +-0.0) leaves rotation r at 0 / 0; it is the identity,
    c = 1 and s = 0, instead.  R_r = 0 forces R_(d-1) = 0, so one test of
    the smallest radius guards the sweep.
    """
    d = len(c)
    np.multiply(g, g, out=radii)
    for k in range(d - 1, -1, -1):
        radii[k] += radii[k + 1]
    radii = radii[:d]
    np.sqrt(radii, out=radii)
    if radii[-1].min() > 0.0:
        _divide(g, radii, c, s)
        return
    with np.errstate(invalid="ignore"):  # only 0 / 0: R_r = 0 forces g_r = R_(r+1) = 0
        _divide(g, radii, c, s)
    undefined = radii == 0.0
    c[undefined] = 1.0
    s[undefined] = 0.0


def _divide(g: np.ndarray, radii: np.ndarray, c: np.ndarray, s: np.ndarray) -> None:
    """c = g_r / R_r, s = R_(r+1) / R_r and, for the last rotation, s = g_d / R_(d-1)."""
    np.divide(g[:-1], radii, out=c)
    np.divide(radii[1:], radii[:-1], out=s[:-1])
    np.divide(g[-1], radii[-1], out=s[-1])


def _realize(n: int, count: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """``count`` Haar draws as C-contiguous draw-minor (n, n, m) blocks, m <= BLOCK // n.

    Each block of m draws makes two calls on ``rng``: one
    ``rng.standard_normal(out=...)`` into a reused (n(n+1)/2 - 1, m)
    buffer, then ``rng.integers(0, 2, size=m)`` for the reflection bits,
    one per draw.  The rows of normals go to sweeps i = 1, ..., n - 1 in
    turn, n - i + 1 rows each, from which ``_sweep_rotations`` gives the
    cosines and sines of the sweep's d = n - i rotations, with no angle
    and no transcendental call.  The sweeps are multiplied onto the identity from
    the left, i from n - 1 down to 1, so before sweep i the product is the
    identity outside its trailing d x d corner, and rotation
    r = 0, ..., d - 1 of the sweep turns rows (i + r - 1, i + r) over the
    trailing d + 1 columns only.  A block is held as
    ``rows[row, col, draw]``, so those two rows are one (2, d + 1, m) view
    ``pair``; one negative per sweep gives every signed sine pair (s, -s).
    A rotation is then three in-place calls on ``pair``: the swapped pair
    times (s, -s) into scratch, ``pair *= c`` and ``pair += scratch``,
    which is c*top + s*bottom and c*bottom - s*top with the roundings of an
    out-of-place update ((-s)*t is -(s*t) exactly and x + (-y) is x - y),
    so the bits depend on the layout of neither the block nor the stack.
    The product of the sweeps is Haar on SO(n); a draw's reflection bit b
    becomes the sign 1 - 2b in the rotations' scratch, which is free once
    the sweeps are done, and multiplies row 0 in place, which is Haar on
    O(n).  Each block is yielded in the one buffer that the next
    overwrites.
    """
    size = max(1, min(count, BLOCK // n))
    normal_rows = n * (n + 1) // 2 - 1
    normal_buf = np.empty(normal_rows * size)
    radii_buf = np.empty(n * size)
    row_buf = np.empty(n * n * size)
    scratch = np.empty(2 * n * size)
    # cosines and signed sines of the widest sweep, n - 1 rotations
    cos_buf = np.empty((n - 1) * size)
    sin_buf = np.empty(2 * (n - 1) * size)
    eye = np.eye(n)[:, :, None]
    for start in range(0, count, size):
        m = min(size, count - start)
        normals = normal_buf[: normal_rows * m].reshape(normal_rows, m)
        rng.standard_normal(out=normals)
        rows = row_buf[: n * n * m].reshape(n, n, m)
        rows[...] = eye
        cos = cos_buf[: (n - 1) * m].reshape(n - 1, m)
        # row r holds (s, -s) of rotation r as a (2, 1, m) broadcast operand
        sin = sin_buf[: 2 * (n - 1) * m].reshape(n - 1, 2, 1, m)
        # sweep i takes the d + 1 rows of normals just before those of sweep i + 1
        last = normal_rows
        for i in range(n - 1, 0, -1):
            d = n - i
            c, s = cos[:d], sin[:d]
            g = normals[last - d - 1 : last]
            last -= d + 1
            radii = radii_buf[: (d + 1) * m].reshape(d + 1, m)
            _sweep_rotations(g, radii, c, s[:, 0, 0])
            np.negative(s[:, 0], out=s[:, 1])
            tmp = scratch[: 2 * (d + 1) * m].reshape(2, d + 1, m)
            for r in range(d):
                pair = rows[i + r - 1 : i + r + 1, i - 1 :]
                np.multiply(pair[::-1], s[r], out=tmp)
                pair *= c[r]
                pair += tmp
        signs = scratch[:m]
        np.multiply(rng.integers(0, 2, size=m), -2.0, out=signs)
        signs += 1.0
        rows[0] *= signs
        yield rows


def _sample_blocks(n: int, count: int, rng) -> Iterator[np.ndarray]:
    """``count`` Haar draws as C-contiguous draw-minor (n, n, m) blocks of m <= BLOCK // n.

    Entry [i, j, k] of a block is entry (i, j) of its draw k.  Blocks are
    drawn and realized as they are consumed, each with its own normals and
    then its own reflection bits, one per draw, from ``rng``, each into
    the one buffer that the next overwrites, which the caller may
    overwrite too; so a caller holds one block of normals and matrices at
    a time, whatever ``count``.  Transposed to (m, n, n) and concatenated,
    the blocks are the bits of sample_orthogonal_batch.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _realize(n, count, as_generator(rng))


def sample_orthogonal_batch(n: int, count: int, rng) -> np.ndarray:
    """A C-contiguous (count, n, n) stack of independent Haar draws.

    Vectorized across the batch; for a fixed (n, count, seed) the output
    is bit-reproducible.  The draws come in blocks of BLOCK // n, and each
    block draws its normals, then one reflection bit per draw, which
    flips the sign of row 0 (see ``_realize``).
    """
    blocks = _sample_blocks(n, count, rng)
    out = np.empty((count, n, n))
    start = 0
    for block in blocks:
        m = block.shape[2]
        out[start : start + m] = block.transpose(2, 0, 1)
        start += m
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

