"""Haar sampling on the orthogonal group O(n).

The primary sampler drives a rotation/reflection decomposition: a matrix
is a product of n reflection factors U_i^{eps_i} (reflections first, on
the left) and a triangular family of plane rotations V_j(theta_ij),
where V_j rotates the (j, j+1) coordinate plane.  Sweep i contributes the
factors V_{n-1}(theta_{i,n-1}) ... V_i(theta_{i,i}), and sweeps are
multiplied left to right for i = 1, ..., n-1.

Angle theta_ij carries the density sin(theta)^(n-j-1): angles with a
positive exponent live on [0, pi] and are drawn through a symmetric Beta
transform of cos(theta); exponent-zero angles are uniform on [0, 2*pi).
Reflection bits are fair and independent.  An independent Gram-Schmidt
oracle sampler is provided for cross-validation.

The n(n-1)/2 rotations run over a column-major (n, count, n) copy of the
stack, where the two columns a rotation touches are contiguous blocks; on
a row-major stack each rotation would stride through the whole stack.
The result is transposed back into a C-ordered (count, n, n) array once,
together with the reflection signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "AngleSet",
    "angle_exponent",
    "as_generator",
    "realize",
    "sample_angle_set",
    "sample_orthogonal",
    "sample_orthogonal_batch",
    "oracle_sample",
    "oracle_sample_batch",
    "orthogonality_check",
]


def as_generator(rng) -> np.random.Generator:
    """Coerce a seed or Generator into a numpy Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def angle_exponent(n: int, j: int) -> int:
    """Density exponent of angle theta_ij: sin(theta)^(n-j-1)."""
    return n - j - 1


def _angle_keys(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(i, n)]


@dataclass(frozen=True)
class AngleSet:
    """Rotation angles and reflection bits parametrizing one matrix.

    ``angles`` maps (i, j) with 1 <= i <= j <= n-1 to radians;
    ``reflections`` holds one 0/1 bit per axis.
    """

    n: int
    angles: Mapping[tuple[int, int], float]
    reflections: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        expected = set(_angle_keys(self.n))
        if set(self.angles) != expected:
            raise ValueError(f"angle keys must be exactly {sorted(expected)}")
        for (i, j), theta in self.angles.items():
            if angle_exponent(self.n, j) > 0:
                if not 0.0 <= theta <= math.pi:
                    raise ValueError(f"theta[{i},{j}] = {theta} outside [0, pi]")
            elif not 0.0 <= theta < 2.0 * math.pi:
                raise ValueError(f"theta[{i},{j}] = {theta} outside [0, 2*pi)")
        if len(self.reflections) != self.n or any(
            b not in (0, 1) for b in self.reflections
        ):
            raise ValueError(f"reflections must be {self.n} bits")
        object.__setattr__(self, "angles", dict(self.angles))
        object.__setattr__(self, "reflections", tuple(int(b) for b in self.reflections))


def _apply_rotations(cols: np.ndarray, thetas: Mapping[tuple[int, int], object]) -> None:
    """Right-multiply a column-major stack by the rotation factors in reading order.

    ``cols`` has shape (n, count, n): ``cols[j]`` is column j of every
    matrix, one row per draw, so the two columns a plane rotation touches
    are contiguous (count, n) blocks rather than strided slices of a
    row-major stack.  ``thetas[(i, j)]`` is a scalar or a per-draw array.
    Each rotation updates in place through two scratch buffers, computing
    c*left - s*right and c*right + s*left: the same products and roundings
    as an out-of-place update, so the bits do not depend on the layout.
    """
    n, count = cols.shape[:2]
    s_left = np.empty((count, n))
    s_right = np.empty((count, n))
    for i in range(1, n):
        for j in range(n - 1, i - 1, -1):
            theta = thetas[(i, j)]
            c = np.reshape(np.cos(theta), (-1, 1))
            s = np.reshape(np.sin(theta), (-1, 1))
            left = cols[j - 1]
            right = cols[j]
            np.multiply(s, left, out=s_left)
            np.multiply(s, right, out=s_right)
            left *= c
            left -= s_right
            right *= c
            right += s_left


def _orthogonal_stack(thetas: Mapping[tuple[int, int], object], bits: np.ndarray) -> np.ndarray:
    """The C-ordered (count, n, n) stack of products for reflection bits of shape (count, n).

    Rotates identity columns, then flips row r of draw m when bits[m, r]
    is 1 while transposing back to row-major in the same pass.
    """
    count, n = bits.shape
    cols = np.broadcast_to(np.eye(n)[:, None, :], (n, count, n)).copy()
    _apply_rotations(cols, thetas)
    out = np.empty((count, n, n))
    np.multiply((1.0 - 2.0 * bits)[:, :, None], cols.transpose(1, 2, 0), out=out)
    return out


def realize(angle_set: AngleSet) -> np.ndarray:
    """The orthogonal matrix determined by an AngleSet; deterministic."""
    bits = np.asarray([angle_set.reflections], dtype=float)
    return _orthogonal_stack(angle_set.angles, bits)[0]


def sample_angle_set(n: int, rng) -> AngleSet:
    """Draw an AngleSet with the stated angle densities and fair bits.

    Angles are drawn in lexicographic (i, j) order, then the n reflection
    bits, so identical seeds give identical angle sequences.
    """
    rng = as_generator(rng)
    angles = {}
    for i, j in _angle_keys(n):
        k = angle_exponent(n, j)
        if k > 0:
            c = rng.beta((k + 1) / 2.0, (k + 1) / 2.0)
            angles[(i, j)] = float(np.arccos(2.0 * c - 1.0))
        else:
            angles[(i, j)] = float(rng.uniform(0.0, 2.0 * math.pi))
    bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
    return AngleSet(n, angles, bits)


def sample_orthogonal(n: int, rng) -> np.ndarray:
    """One Haar-distributed matrix from the rotation/reflection sampler."""
    return realize(sample_angle_set(n, as_generator(rng)))


def sample_orthogonal_batch(n: int, count: int, rng) -> np.ndarray:
    """A C-contiguous (count, n, n) stack of independent Haar draws.

    Vectorized across the batch; for a fixed (n, count, seed) the output
    is bit-reproducible, and a batch of one matches sample_orthogonal.
    All angles are drawn first, in the order of sample_angle_set, then
    the count x n reflection bits.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = as_generator(rng)
    thetas: dict[tuple[int, int], np.ndarray] = {}
    for i, j in _angle_keys(n):
        k = angle_exponent(n, j)
        if k > 0:
            c = rng.beta((k + 1) / 2.0, (k + 1) / 2.0, size=count)
            thetas[(i, j)] = np.arccos(2.0 * c - 1.0)
        else:
            thetas[(i, j)] = rng.uniform(0.0, 2.0 * math.pi, size=count)
    bits = rng.integers(0, 2, size=(count, n))
    return _orthogonal_stack(thetas, bits)


def oracle_sample_batch(n: int, count: int, rng) -> np.ndarray:
    """Independent verifier: Gram-Schmidt of standard-Gaussian matrices.

    Stabilized (modified) Gram-Schmidt on the columns, with the sign
    convention that every diagonal scale factor is positive; the law is
    Haar by rotational invariance of the Gaussian.  Numerically singular
    draws (probability zero) are resampled.
    """
    rng = as_generator(rng)
    out = np.empty((count, n, n))
    pending = np.arange(count)
    while pending.size:
        g = rng.standard_normal((pending.size, n, n))
        q = np.empty_like(g)
        ok = np.ones(pending.size, dtype=bool)
        for k in range(n):
            v = g[:, :, k].copy()
            for j in range(k):
                proj = np.einsum("mi,mi->m", q[:, :, j], v)
                v -= proj[:, None] * q[:, :, j]
            norm = np.linalg.norm(v, axis=1)
            ok &= norm > 1e-12
            safe = np.where(norm > 0, norm, 1.0)
            q[:, :, k] = v / safe[:, None]
        out[pending[ok]] = q[ok]
        pending = pending[~ok]
    return out


def oracle_sample(n: int, rng) -> np.ndarray:
    """One Haar draw from the Gram-Schmidt oracle."""
    return oracle_sample_batch(n, 1, as_generator(rng))[0]


def orthogonality_check(q: np.ndarray, tol: float) -> bool:
    """Whether max-abs of Q^T Q - I is below ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    return bool(np.max(np.abs(q.T @ q - np.eye(n))) < tol)
