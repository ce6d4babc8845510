"""Haar sampling on O(n).

The primary sampler runs the subgroup algorithm (Diaconis and
Shahshahani, Prob. Eng. Inf. Sci. 1, 1987): if C is Haar on SO(d) and M
is in SO(d + 1) with M e_0 = u, u uniform on the sphere in d + 1
dimensions and independent of C, then M diag(1, C) is Haar on SO(d + 1).
Sweep i = n - 1, ..., 1, with d = n - i, takes d + 1 standard normals g,
whose direction u = g / |g| is uniform on that sphere (Muller, Comm. ACM
2, 1959), and multiplies the trailing (d + 1) x (d + 1) block of the
product so far, which is diag(1, C), by one step M: the Householder
reflection that takes e_0 to -sign(g_0) u (Householder, J. ACM 5, 1958),
times diag(-sign(g_0), sign(g_0), 1, ..., 1), so that M e_0 = u and
det M = 1 for every draw.  Starting from SO(1) = {1}, the product of the
steps is Haar on SO(n); F SO(n), F = diag(-1, 1, ..., 1), is the other
coset of O(n), so one fair bit per draw, which flips the sign of row 0,
makes the draw Haar on O(n).  A step with det -1 on some draws and +1 on
others would not: the bit flips the coset, not the law within it.  An
independent oracle, the Q factor of a Gaussian matrix with diag(R) made
positive, is provided for cross-validation.

The sampler builds matrices in blocks of BLOCK // n draws.  Each block
consumes the stream sweep by sweep, in the order the sweeps run: sweep
i = n - 1, ..., 1 draws its own (d + 1, m) normals just before its step,
n(n+1)/2 - 1 per draw in all, and after the last sweep the block draws
its m reflection bits, one per draw.  So a block holds n rows of normals,
not all of them.  A block is held draw-minor, as
``rows[row, col, draw]``, so a step is one contraction along the draw
axis and one rank-1 update of the trailing block, a few long numpy calls
per sweep whatever its width.  The Monte Carlo statistics take the
draw-minor block as it is; sample_orthogonal_batch transposes it to one
matrix per draw.
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
#: draws: the block takes n * 128 KB, and the statistics overwrite it in
#: place or read it in chunks, so no second block is made.  Its normals
#: take the widest sweep's n rows, 128 KB, since each sweep draws its own
#: into the same buffer.  A step's contraction takes n rows of BLOCK // n
#: doubles, its rank-1 update UPDATE_ROWS rows of the widest sweep,
#: UPDATE_ROWS * (n - 1), and its per-draw radius, sign and scale three:
#: 5n rows with the normals, 640 KB at most.  On two threads at n = 30
#: (2-core VM, 2 MB L2 per core), 2**12 and 2**13 ran 1.4-2x slower than
#: 2**14: a smaller block spends more of each call in Python, holding the
#: GIL.  2**15 ran about 14% faster (two shards of 4000 draws, median
#: 0.148 s against 0.172 s), but BLOCK sets which normals and bits each
#: block takes, so a new value changes every estimate.
BLOCK = 2**14

#: Rows of the widest sweep's trailing block that one multiply and one add
#: of the rank-1 update cover; a narrower sweep takes more rows per call.
UPDATE_ROWS = 3


def _step(corner: np.ndarray, g: np.ndarray, dots: np.ndarray, work: np.ndarray, draws: np.ndarray) -> None:
    """Multiply diag(1, C) by one step M of the subgroup algorithm, in place, for every draw.

    ``corner`` is the draw-minor (d + 1, d + 1, m) trailing block, whose
    first row and column are those of the identity; ``g`` holds the
    sweep's (d + 1, m) normals, R = |g|; ``dots`` is a (d + 1, m) buffer,
    ``work`` the rank-1 update's scratch and ``draws`` three (m) rows.
    With s = sign(g_0), u = g / R and v = u + s e_0, the Householder
    reflection H = I - 2 v v' / |v|^2 takes e_0 to -s u, so
    M = H diag(-s, s, 1, ..., 1) has M e_0 = u and det M = 1 for every
    draw.  On diag(1, C) that is: row 0 of C times s; with
    y = (g[1:]' C) / (R (R + |g_0|)), C - g[1:] y' below and
    -s (|g_0| + R) y' above, since v_0 = s (|g_0| + R) / R, which cancels
    nothing; and g / R in the first column.

    One einsum along the draw axis takes g' against the corner with g
    copied into its first column, so its first entry is R^2 and the rest
    g[1:]' C.  The scale w = -(|g_0| + R) makes z = dots / (R w) = -y, so
    the update adds g[1:] z' in calls of the rows that ``work`` holds and
    the first row is s (|g_0| + R) z, the same bits as subtracting and
    negating.  Every call is elementwise along the draw axis, or in the
    einsum adds its terms from k = 0 up, separately rounded, so no draw's
    bits depend on the block.  An all-zero g (numpy's normals include
    +-0.0) has no direction: its g_0 is taken as 1, so u = e_0, s = 1 and
    M is the identity.
    """
    d = len(g) - 1
    m = g.shape[1]
    g0, tail = g[0], g[1:]
    if not g0.all():  # an all-zero g starts with a zero
        g0[~g.any(axis=0)] = 1.0
    radius, sign, scale = draws
    np.copysign(1.0, g0, out=sign)
    corner[1, 1:] *= sign
    np.copyto(corner[:, 0], g)
    np.einsum("km,kjm->jm", g, corner, out=dots)
    np.sqrt(dots[0], out=radius)
    np.copysign(g0, -1.0, out=scale)
    scale -= radius
    den = sign  # spent on row 0 of C
    np.multiply(radius, scale, out=den)
    z = dots[1:]
    z /= den
    rows = max(1, len(work) // (d * m))
    for r in range(0, d, rows):
        k = min(rows, d - r)
        product = work[: k * d * m].reshape(k, d, m)
        np.multiply(tail[r : r + k, None], z, out=product)
        corner[1 + r : 1 + r + k, 1:] += product
    np.copysign(scale, g0, out=scale)
    np.multiply(z, scale, out=corner[0, 1:])
    np.divide(g, radius, out=corner[:, 0])


def _realize(n: int, count: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """``count`` Haar draws as C-contiguous draw-minor (n, n, m) blocks, m <= BLOCK // n.

    Each block of m draws makes n calls on ``rng``: sweep i = n - 1, ...,
    1, with d = n - i, draws its d + 1 rows of normals by one
    ``rng.standard_normal(out=...)`` into a reused (n, m) buffer just
    before its step, and after the last sweep ``rng.integers(0, 2,
    size=m)`` draws the reflection bits, one per draw.  The sweeps are
    applied to the identity from the left, i from n - 1 down to 1 (the
    subgroup algorithm): before sweep i the product is diag(I_i, C), C in
    SO(d) Haar, and ``_step`` multiplies its trailing (d + 1) x (d + 1)
    block diag(1, C) by one M in SO(d + 1) with M e_0 = g / |g|, uniform
    on the sphere, which leaves M diag(1, C) Haar on SO(d + 1).  A block
    is held as ``rows[row, col, draw]``, so a step is O(1) numpy calls
    over the whole corner along the draw axis, plus its rank-1 update in
    calls of UPDATE_ROWS rows of the widest sweep.  The product of the
    steps is Haar on SO(n); a draw's reflection bit b becomes the sign
    1 - 2b, which multiplies row 0 in place, and F SO(n),
    F = diag(-1, 1, ..., 1), is the other coset, so the draws are Haar on
    O(n).  Each block is yielded in the one buffer that the next
    overwrites.
    """
    size = max(1, min(count, BLOCK // n))
    normal_buf = np.empty(n * size)
    row_buf = np.empty(n * n * size)
    dots_buf = np.empty(n * size)
    work = np.empty(UPDATE_ROWS * (n - 1) * size)
    draw_buf = np.empty(3 * size)
    eye = np.eye(n)[:, :, None]
    for start in range(0, count, size):
        m = min(size, count - start)
        rows = row_buf[: n * n * m].reshape(n, n, m)
        rows[...] = eye
        draws = draw_buf[: 3 * m].reshape(3, m)
        for i in range(n - 1, 0, -1):
            d = n - i
            g = normal_buf[: (d + 1) * m].reshape(d + 1, m)
            rng.standard_normal(out=g)
            dots = dots_buf[: (d + 1) * m].reshape(d + 1, m)
            _step(rows[i - 1 :, i - 1 :], g, dots, work, draws)
        signs = draws[0]
        np.multiply(rng.integers(0, 2, size=m), -2.0, out=signs)
        signs += 1.0
        rows[0] *= signs
        yield rows


def _sample_blocks(n: int, count: int, rng) -> Iterator[np.ndarray]:
    """``count`` Haar draws as C-contiguous draw-minor (n, n, m) blocks of m <= BLOCK // n.

    Entry [i, j, k] of a block is entry (i, j) of its draw k.  Blocks are
    drawn and realized as they are consumed, each with its own normals,
    sweep by sweep, and then its own reflection bits, one per draw, from
    ``rng``, each into the one buffer that the next overwrites, which the
    caller may overwrite too; so a caller holds one block of matrices and
    n rows of normals at a time, whatever ``count``.  Transposed to
    (m, n, n) and concatenated, the blocks are the bits of
    sample_orthogonal_batch.
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
    block draws each sweep's normals as the sweep runs, then one
    reflection bit per draw, which flips the sign of row 0 (see
    ``_realize``).
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

