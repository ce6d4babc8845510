"""References that only the tests use.

The package itself needs none of them.  All but ``residual_values`` are
independent of it: ``zonal_row`` keeps every coefficient inside kappa's
dominance interval without a dominance test, its raising moves are
grouped by value and summed by target rather than listed one choice at
a time, its exact values come from an integer recursion over the
variables rather than from orbit sums or the branching rule, its Haar
sampler runs the subgroup algorithm rather than a QR factorization, and
no package code checks a sampled matrix for orthogonality or builds the
rotation of a quaternion.
``bilinear_reference`` reads the package's full rows and closed forms,
but none of its exact-integral machinery: no capped row and no cached
character table.  ``residual_values`` is no independent reference: it is
criterion 4b's quantity, computed from the package's public exact
values, so the tests can show that it depends on the dimension.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

from zonalpoly.moments import bilinear_coefficient
from zonalpoly.partitions import Partition, partitions_of
from zonalpoly.zonal import character_degree, double_factorial, zonal_at_identity, zonal_row


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


def oracle_sample_batch(n: int, count: int, rng) -> np.ndarray:
    """Independent verifier: QR of standard-Gaussian matrices.

    The Q factor, with each column's sign flipped so that diag(R) is
    positive (Mezzadri, Notices AMS 2007); the law is Haar by rotational
    invariance of the Gaussian.  Numerically singular draws (some
    |R_kk| <= 1e-12, probability zero) are redrawn.
    """
    rng = np.random.default_rng(rng)
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


def reflect_row_zero(q: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Each draw of a (count, n, n) stack with row 0 times 1 - 2 b, b its bit, in place."""
    q[:, 0] *= (1.0 - 2.0 * bits)[:, None]
    return q


def quaternion_rotation(quats: np.ndarray) -> np.ndarray:
    """Row-major (count, 3, 3) rotations R(q / |q|) of (count, 4) quaternions q = (w, x, y, z).

    The textbook formula R = I + 2 / |q|^2 (w [v]x + [v]x^2) (Euler and
    Rodrigues) for the quaternion (w, v) of any length, written entry by
    entry with [v]x^2 = v v' - |v|^2 I; sums add from left to right.  An
    all-zero q is taken as (1, 0, 0, 0): the identity.
    """
    quats = quats.copy()
    quats[~quats.any(axis=1), 0] = 1.0
    w, x, y, z = quats.T
    vv = x * x + y * y + z * z
    s = 2.0 / (w * w + vv)
    entries = [
        [1.0 + s * (x * x - vv), s * (x * y - w * z), s * (x * z + w * y)],
        [s * (y * x + w * z), 1.0 + s * (y * y - vv), s * (y * z - w * x)],
        [s * (z * x - w * y), s * (z * y + w * x), 1.0 + s * (z * z - vv)],
    ]
    return np.stack([np.stack(row, axis=1) for row in entries], axis=1)


def quaternion_matrices(block: np.ndarray) -> np.ndarray:
    """The (m, 3, 3) draws F^b R(q) of one ``haar._quaternions`` block, b set where its row 4 is -1."""
    return reflect_row_zero(quaternion_rotation(block[:4].T), (block[4] < 0).astype(np.int64))


def residual_values(f: int, g, h, n_values: Iterable[int]) -> list[tuple[int, Fraction]]:
    """The residual (2f-1)!! c(n) a_{g,h} - b_{(f),g} b_{(f),h} at each n.

    c(n) = n (n+2) ... (n+2f-2) is Z_(f)(I_n), from ``zonal_at_identity``.
    """
    g = Partition(g)
    h = Partition(h)
    if g.weight != f or h.weight != f:
        raise ValueError("g and h must be partitions of f")
    single = Partition((f,))
    if g == single or h == single:
        raise ValueError("the residual excludes the single-row partition")
    top = zonal_row(single)
    cross = top.coefficient(g) * top.coefficient(h)
    out = []
    for n in n_values:
        value = (
            double_factorial(2 * f - 1)
            * zonal_at_identity(single, n)
            * bilinear_coefficient(f, n, g, h)
            - cross
        )
        out.append((n, value))
    return out


def bilinear_reference(f: int, n: int, g, h) -> Fraction:
    """The coefficient of m_g(a) m_h(b) in the trace-power integral, as a plain Fraction sum.

    (1 / (2f-1)!!) sum_kappa chi(kappa) c_g c_h / Z_kappa(I_n) over every
    kappa of f >= 1 with at most n parts, where c_g and c_h are
    coefficients of the full row ``zonal_row(kappa)``, so g and h may have
    more than n parts.
    """
    total = Fraction(0)
    for kappa in partitions_of(f):
        if len(kappa) <= n:
            row = zonal_row(kappa)
            total += Fraction(
                character_degree(kappa) * row.coefficient(g) * row.coefficient(h),
                zonal_at_identity(kappa, n),
            )
    return total / double_factorial(2 * f - 1)


def evaluate_by_terms(poly, xs: Sequence):
    """Value of the SymPoly ``poly`` at the point ``xs``, term by term.

    Exact when the coordinates are rationals.  In the monomial basis
    m_lambda sums over all distinct permutations of lambda padded with
    zeros to len(xs), and vanishes when lambda has more parts than there
    are coordinates; in the power-sum basis each p_k is a sum of powers.
    """
    total = 0
    if poly.basis == "powersum":
        sums: dict[int, object] = {}
        for lam, c in poly.coeffs.items():
            term = c
            for k in lam:
                if k not in sums:
                    sums[k] = sum(x**k for x in xs)
                term = term * sums[k]
            total = total + term
        return total
    n = len(xs)
    for lam, c in poly.coeffs.items():
        if len(lam) > n:
            continue
        orbit = 0
        for expo in _distinct_permutations(tuple(lam) + (0,) * (n - len(lam))):
            monomial = 1
            for x, e in zip(xs, expo):
                if e:
                    monomial = monomial * x**e
            orbit = orbit + monomial
        total = total + c * orbit
    return total


def _distinct_permutations(pool: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every distinct ordering of the nonincreasing tuple ``pool``, once each."""
    if not pool:
        yield ()
        return
    prev = None
    for idx, v in enumerate(pool):
        if v == prev:
            continue
        prev = v
        rest = pool[:idx] + pool[idx + 1 :]
        for tail in _distinct_permutations(rest):
            yield (v,) + tail


def zonal_by_branching(xs: Sequence):
    """A function kappa -> Z_kappa(xs), by the Jack branching rule at alpha = 2.

    Z_kappa(x_1, ..., x_k) is the sum, over the mu with kappa / mu a
    horizontal strip, of Z_mu(x_1, ..., x_(k-1)) x_k^|kappa / mu|
    beta(kappa, mu) (Stanley, Adv. Math. 77, 1989; Macdonald, Symmetric
    Functions and Hall Polynomials, VI (7.14'); Koev and Edelman, Math.
    Comp. 75, 2006, Sec. 4), from Z_() = 1 at no variables, where a
    nonempty kappa vanishes.  It shares no code with the package's
    raising recursion.  Values at the prefixes of ``xs`` are memoized
    across every kappa asked of one function.
    """
    xs = tuple(Fraction(x) for x in xs)

    @lru_cache(maxsize=None)
    def value(kappa: tuple[int, ...], k: int) -> Fraction:
        if not kappa:
            return Fraction(1)
        if len(kappa) > k:
            return Fraction(0)
        x = xs[k - 1]
        total = Fraction(0)
        below = kappa[1:] + (0,)
        for mu in product(*(range(low, high + 1) for low, high in zip(below, kappa))):
            mu = tuple(part for part in mu if part)
            z = value(mu, k - 1)
            if z:
                total += z * x ** (sum(kappa) - sum(mu)) * _branching_coefficient(kappa, mu)
        return total

    return lambda kappa: value(tuple(kappa), len(xs))


@lru_cache(maxsize=None)
def _branching_coefficient(kappa: tuple[int, ...], mu: tuple[int, ...]) -> Fraction:
    """beta(kappa, mu) at alpha = 2, for kappa / mu a horizontal strip.

    The product over the cells s of kappa of B_kappa(s), over the product
    over the cells of mu of B_mu(s).  B_nu(s) is the upper hook
    l(s) + 2 (a(s) + 1) of s in nu where kappa and mu have columns of the
    same length at s, and the lower hook l(s) + 1 + 2 a(s) elsewhere.
    """
    kappa_cols, mu_cols = _columns(kappa), _columns(mu)

    def hooks(nu: tuple[int, ...], nu_cols: list[int]) -> int:
        out = 1
        for i, row in enumerate(nu):
            for j in range(row):
                arm, leg = row - j - 1, nu_cols[j] - i - 1
                if kappa_cols[j] == (mu_cols[j] if j < len(mu_cols) else 0):
                    out *= leg + 2 * (arm + 1)
                else:
                    out *= leg + 1 + 2 * arm
        return out

    return Fraction(hooks(kappa, kappa_cols), hooks(mu, mu_cols))


def _columns(nu: tuple[int, ...]) -> list[int]:
    """The column lengths of the diagram of ``nu``, its conjugate."""
    return [sum(1 for part in nu if part > j) for j in range(nu[0] if nu else 0)]
