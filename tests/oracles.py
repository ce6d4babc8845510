"""Independent references that only the tests use.

The package itself needs neither: ``zonal_row`` keeps every coefficient
inside kappa's dominance interval without a dominance test, and no
package code checks a sampled matrix for orthogonality.
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


def orthogonality_check(q: np.ndarray, tol: float) -> bool:
    """Whether max-abs of Q^T Q - I is below ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = np.asarray(q, dtype=float)
    n = q.shape[-1]
    return bool(np.max(np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(n))) < tol)
