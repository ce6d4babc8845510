"""Independent references that only the tests use.

The package itself needs none of them: ``zonal_row`` keeps every
coefficient inside kappa's dominance interval without a dominance test,
its raising moves are grouped by value and summed by target rather than
listed one choice at a time, and no package code checks a sampled matrix
for orthogonality.
"""

from typing import Sequence

import numpy as np


def dominated_by(g: Sequence[int], f: Sequence[int]) -> bool:
    """Whether ``g`` is below or equal to ``f`` in the dominance order.

    True iff every prefix sum of ``g`` is at most the corresponding prefix
    sum of ``f``.  Both partitions must have the same weight.
    """
    if sum(g) != sum(f):
        raise ValueError("dominance compares partitions of equal weight")
    gs = fs = 0
    for k in range(max(len(g), len(f))):
        gs += g[k] if k < len(g) else 0
        fs += f[k] if k < len(f) else 0
        if gs > fs:
            return False
    return True


def raising_moves(g: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """Every single raise of ``g``, one per choice (i, j, t): (g_i - g_j + 2t, h).

    Moves t units, 1 <= t <= g_j, from part j up to part i < j; h is the
    result re-sorted with a zero part dropped.  Choices that give the same
    h are listed separately.
    """
    moves = []
    for j in range(len(g)):
        for i in range(j):
            for t in range(1, g[j] + 1):
                lifted = list(g)
                lifted[i] += t
                lifted[j] -= t
                h = tuple(sorted((part for part in lifted if part), reverse=True))
                moves.append((g[i] - g[j] + 2 * t, h))
    return moves


def orthogonality_check(q: np.ndarray, tol: float) -> bool:
    """Whether max-abs of Q^T Q - I is below ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    return bool(np.max(np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(n))) < tol)
