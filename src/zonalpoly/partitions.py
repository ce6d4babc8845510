"""Integer partitions and their scalar statistics.

Partitions index every polynomial, character, and coefficient in this
package.  They are stored as nonincreasing tuples of positive integers
without trailing zeros; padding to a fixed number of parts happens at
the call sites that need it.  The empty partition (weight 0) is valid.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import index
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Partition",
    "partitions_of",
    "conjugate",
    "rho",
    "sym_group_degree",
]


class Partition(tuple):
    """A nonincreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is Partition:  # immutable, and validated when built
            return parts
        parts = tuple(parts)
        try:
            parts = tuple(map(index, parts))  # int() would truncate 2.7 to 2
        except TypeError as exc:
            raise ValueError(f"parts must be integers: {parts}") from exc
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive integers: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be nonincreasing: {parts}")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        """Sum of the parts."""
        return sum(self)

    def doubled(self) -> "Partition":
        """The partition with every part doubled."""
        return _trusted_partition(2 * p for p in self)

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


def _trusted_partition(parts: Iterable[int]) -> Partition:
    """A Partition from parts already nonincreasing and positive, unvalidated.

    For the inner loops that build partitions from partitions (raising
    moves, power-sum products); every outside input goes through
    ``Partition``.
    """
    return tuple.__new__(Partition, parts)


def _descending(remaining: int, cap: int, slots: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``remaining`` into at most ``slots`` parts of at most ``cap``, descending.

    A head h can finish only if h * slots >= remaining, and that fails for
    every smaller head too, so no branch is walked that yields nothing.
    """
    if remaining == 0:
        yield ()
        return
    for head in range(min(remaining, cap), 0, -1):
        if head * slots < remaining:
            return
        for tail in _descending(remaining - head, head, slots - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def partitions_of(f: int) -> tuple[Partition, ...]:
    """All partitions of ``f``, in descending lexicographic order.

    ``(f,)`` comes first and ``(1,)*f`` last; ``f = 0`` yields the single
    empty partition.
    """
    if f < 0:
        raise ValueError("f must be nonnegative")
    return tuple(map(_trusted_partition, _descending(f, f, f)))


@lru_cache(maxsize=None)
def _partitions_capped(f: int, n: int) -> tuple[Partition, ...]:
    """The partitions of ``f`` with at most ``n`` parts, in the order of ``partitions_of(f)``.

    Enumerated with the cap, so it walks only the partitions it returns.
    """
    if n >= f:
        return partitions_of(f)
    return tuple(map(_trusted_partition, _descending(f, f, n)))


def conjugate(p: Sequence[int]) -> Partition:
    """Transpose of the Young diagram; an involution.

    Column j holds the i parts of at least j + 1, so reading the parts
    from the last, part i (counted from 1) fills the columns up to p_i
    with i.
    """
    p = Partition(p)
    columns: list[int] = []
    for i in range(len(p), 0, -1):
        columns += [i] * (p[i - 1] - len(columns))
    return _trusted_partition(columns)


def rho(p: Sequence[int]) -> int:
    """The statistic sum(p_i * (p_i - i)), with rows indexed from 1.

    For g strictly below f in dominance (equal weights),
    rho(f) - rho(g) > 0, which keeps the recursion denominators of the
    zonal table away from zero.
    """
    return sum(q * (q - i) for i, q in enumerate(p, 1))


def _hook_product(p: Partition, alpha: int, shift: int) -> int:
    """prod over the cells s of p of alpha a(s) + l(s) + shift.

    The arm a(s) counts the cells to the right of s in its row, the leg
    l(s) the cells below it in its column.  alpha = shift = 1 multiplies
    the hook lengths; alpha = 2 gives Stanley's c_p(2) at shift 1 and
    c'_p(2) at shift 2 (Adv. Math. 77, 1989).
    """
    legs = conjugate(p)
    out = 1
    for i, row in enumerate(p):
        for j in range(row):
            out *= alpha * (row - j - 1) + legs[j] - i - 1 + shift
    return out


def sym_group_degree(p: Sequence[int]) -> int:
    """Degree of the symmetric-group irreducible indexed by ``p``.

    Hook-length formula: |p|! divided by the product of hook lengths.
    """
    p = Partition(p)
    return factorial(p.weight) // _hook_product(p, 1, 1)
