"""Haar sampling on O(n).

The sampler runs the subgroup algorithm (Diaconis and Shahshahani, Prob.
Eng. Inf. Sci. 1, 1987): if C is Haar on SO(d) and M is in SO(d + 1)
with M e_0 = u, u uniform on the sphere in d + 1 dimensions and
independent of C, then M diag(1, C) is Haar on SO(d + 1).  It starts
from SO(1) = {1} at every n.  Each sweep takes d + 1 standard normals g,
whose direction u = g / |g| is uniform on the sphere (Muller, Comm.
ACM 2, 1959), and M is the Householder reflection that takes e_0 to
-sign(g_0) u (Householder, J. ACM 5, 1958) times diag(-sign(g_0),
sign(g_0), 1, ..., 1), so det M = 1 on every draw.  The product is Haar
on SO(n).  One fair bit per draw, drawn independently of the rotation,
flips the sign of row 0, which moves the draw to the other coset
F SO(n), F = diag(-1, 1, ..., 1), so the draws are Haar on O(n).  A step
whose determinant varied from draw to draw would break this: the bit
flips the coset, not the law within it.  The tests check the sampler
against an independent oracle, the Q factor of a Gaussian matrix with
diag(R) made positive.

Draws come in blocks of BLOCK // n, held draw-minor as
``rows[row, col, draw]``.  Each block consumes the stream in the order
it uses it: each sweep's normals just before its step, then one
reflection bit per draw in one ``integers`` call.  No draw's bits depend
on the block it lands in.

The Monte Carlo lane at n = 3 builds no matrix: ``_quaternions`` gives
4 normals q per draw, whose direction is uniform on the 3-sphere, so
R(q / |q|) is Haar on SO(3) (Shoemake, Graphics Gems III, 1992).  The
sign of w is the reflection bit: q and -q are equally likely and
R(q) = R(-q), so it is fair and independent of the rotation.
``sample_orthogonal_batch`` is the one sampler function that checks its
input.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "sample_orthogonal_batch",
]


#: Matrix entries in one row of a realized block, which holds BLOCK // n
#: draws, so a block takes n * 128 KB; the statistics overwrite it in place
#: or read it in chunks, so no second block is made.  A smaller block spends
#: more of each call in Python, holding the GIL.  BLOCK also sets which
#: normals and bits each block takes, so a new value changes every estimate.
BLOCK = 2**14

#: Rows of the widest sweep's trailing block that one multiply and one add
#: of the rank-1 update cover; a narrower sweep takes more rows per call.
UPDATE_ROWS = 3

#: Rows of one block of ``_quaternions``: the four normals (w, x, y, z), whose
#: w carries the reflection bit in its sign, and three rows of scratch for
#: the Monte Carlo statistic that reads the block at n = 3.
QUATERNION_ROWS = 7


def _generator(rng) -> np.random.Generator:
    """``Generator(SFC64(rng))`` for a seed; a Generator is used as given.

    A seed (None, an integer or a sequence of them, or a SeedSequence)
    means SFC64, whose ziggurat normals are cheaper than PCG64's, and
    ``.spawn`` gives SFC64 children of the seed's SeedSequence.  A
    BitGenerator or RandomState is wrapped as ``np.random.default_rng``
    wraps it.
    """
    if isinstance(rng, (np.random.Generator, np.random.BitGenerator, np.random.RandomState)):
        return np.random.default_rng(rng)
    return np.random.Generator(np.random.SFC64(rng))


def _direct_zeros(g: np.ndarray) -> None:
    """Set the first entry of each all-zero column of ``g`` to 1, in place.

    An all-zero draw of normals (numpy's normals include +-0.0) has no
    direction; taking it as e_0 makes its step the identity.
    """
    if not g[0].all():  # an all-zero column starts with a zero
        g[0][~g.any(axis=0)] = 1.0


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
    nothing; and g / R in the first column.  An all-zero g (numpy's normals
    include +-0.0) has no direction: its g_0 is taken as 1, so M is the
    identity.

    The update adds g[1:] z' with z = -y, which gives the same bits as
    subtracting g[1:] y'.  Every call is elementwise along the draw axis,
    or in the einsum adds its terms from k = 0 up, separately rounded, so
    no draw's bits depend on the block.
    """
    d = len(g) - 1
    m = g.shape[1]
    g0, tail = g[0], g[1:]
    _direct_zeros(g)
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


def _quaternion_workspace(count: int) -> np.ndarray:
    """The (QUATERNION_ROWS, c) buffer, c = min(count, BLOCK // 3) (at least one), of ``_quaternions``.

    Nothing is filled in: ``_quaternions`` writes rows 0-3 of every block,
    and its caller every scratch row it reads.
    """
    return np.empty((QUATERNION_ROWS, max(1, min(count, BLOCK // 3))))


def _quaternions(count: int, rng: np.random.Generator, workspace: np.ndarray) -> Iterator[np.ndarray]:
    """``count`` draws' quaternions as C-contiguous (QUATERNION_ROWS, m) blocks, m <= BLOCK // 3.

    Nothing is checked: count >= 0, a Generator ``rng`` and a
    ``_quaternion_workspace(c)`` for some c >= count are taken as given.
    The blocks take min(count, BLOCK // 3) draws, the last one fewer.
    Each block makes one ``rng.standard_normal`` call of (4, m), the
    normals q = (w, x, y, z) in rows 0-3.  The sign of each w, signed zeros
    included, is the draw's reflection sign, and an all-zero q is taken as
    (+-1, 0, 0, 0), the sign of its w as drawn, whose rotation is the
    identity.  Rows 4-6 are the caller's scratch, left as they are.  Each
    block is yielded in the first entries of ``workspace``, which the next
    overwrites, and which the caller may overwrite too.  The draws are
    F^b R(q), b set where w is negative; the Monte Carlo statistics at
    n = 3 read the blocks as they are and build no rotation.
    """
    size = max(1, min(count, BLOCK // 3))
    flat = workspace.reshape(-1)
    for start in range(0, count, size):
        m = min(size, count - start)
        block = flat[: QUATERNION_ROWS * m].reshape(QUATERNION_ROWS, m)
        q = block[:4]
        rng.standard_normal(out=q)
        if not q[0].all():  # an all-zero q starts with a zero
            w, zero = q[0], ~q.any(axis=0)
            w[zero] = np.copysign(1.0, w[zero])
        yield block


def _workspace(n: int, count: int) -> tuple[np.ndarray, ...]:
    """The five flat buffers in which ``_realize`` runs up to ``count`` draws.

    They take blocks of up to min(count, BLOCK // n) draws (at least one),
    in the order ``_realize`` takes them: normals (n rows, the widest
    sweep's), the draw-minor block (n^2 rows), the step's dots (n rows)
    and rank-1 update scratch (UPDATE_ROWS (n - 1) rows), and four per-draw
    rows: the step's radius, sign and scale, then the reflection signs.
    At n = 1, where no sweep runs, the normals and dots are empty.  Nothing
    is filled in: ``_realize`` writes every entry it reads.
    """
    size = max(1, min(count, BLOCK // n))
    widest = n * size if n > 1 else 0  # the normals of the widest sweep, if any sweep runs
    return (
        np.empty(widest),
        np.empty(n * n * size),
        np.empty(widest),
        np.empty(UPDATE_ROWS * (n - 1) * size),
        np.empty(4 * size),
    )


def _realize(n: int, count: int, rng: np.random.Generator, workspace: tuple[np.ndarray, ...]) -> Iterator[np.ndarray]:
    """``count`` Haar draws as C-contiguous draw-minor (n, n, m) blocks, m <= BLOCK // n.

    Nothing is checked: n >= 1, count >= 0, a Generator ``rng`` and a
    ``_workspace(n, c)`` for some c >= count are taken as given.  Entry
    [i, j, k] of a block is entry (i, j) of its draw k.  The blocks take
    min(count, BLOCK // n) draws, the last one fewer, whatever the
    workspace's size, so they draw the same normals and bits in any
    workspace.

    Each block starts from the identity.  Sweep i = n - 1, ..., 1, with
    d = n - i, draws its (d + 1, m) normals in one ``rng.standard_normal``
    call just before its ``_step``, n(n+1)/2 - 1 normals per draw in all;
    after the last sweep one ``rng.integers(0, 2, size=m)`` call draws the
    reflection bits, and a set bit negates row 0.  Each block is yielded
    in the workspace's block buffer, which the next overwrites and which
    the caller may overwrite too, so a caller may pass the workspace to
    the next call once this one is spent.  Transposed to (m, n, n) and
    concatenated, the blocks are the bits of sample_orthogonal_batch.
    """
    size = max(1, min(count, BLOCK // n))
    normal_buf, row_buf, dots_buf, work, draw_buf = workspace
    eye = np.eye(n)[:, :, None]
    for start in range(0, count, size):
        m = min(size, count - start)
        rows = row_buf[: n * n * m].reshape(n, n, m)
        draws = draw_buf[: 4 * m].reshape(4, m)
        rows[...] = eye
        for i in range(n - 1, 0, -1):
            d = n - i
            g = normal_buf[: (d + 1) * m].reshape(d + 1, m)
            rng.standard_normal(out=g)
            dots = dots_buf[: (d + 1) * m].reshape(d + 1, m)
            _step(rows[i - 1 :, i - 1 :], g, dots, work, draws[:3])
        signs = draws[3]
        np.multiply(rng.integers(0, 2, size=m), -2.0, out=signs)
        signs += 1.0
        rows[0] *= signs
        yield rows


def sample_orthogonal_batch(n: int, count: int, rng) -> np.ndarray:
    """A C-contiguous (count, n, n) stack of independent Haar draws on O(n).

    ``rng`` is a seed, which means ``Generator(SFC64(seed))``, or a
    Generator, used as given; for a fixed (n, count, seed) the output is
    bit-reproducible.  ValueError for n < 1 or count < 0, before anything
    is drawn.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    out = np.empty((count, n, n))
    start = 0
    for block in _realize(n, count, _generator(rng), _workspace(n, count)):
        m = block.shape[2]
        out[start : start + m] = block.transpose(2, 0, 1)
        start += m
    return out

