"""Print a fixed set of exact integrals, one per line, for a byte-for-byte pin.

Run from the repository root with the package importable:

    python tests/exact_bytes.py | sha256sum

It imports the package only, so it runs where no test-only package is
installed.  Its digest is pinned in ``tests/test_cli.py`` (``EXACT_BYTES_SHA256``)
and in the CI console-script job; change both together.
"""

from fractions import Fraction

from zonalpoly.moments import bilinear_coefficient, exact_trace_power_integral, hyper0f0
from zonalpoly.partitions import partitions_of

A10 = tuple(Fraction(p, q) for p, q in (
    (3, 4), (4, 1), (-1, 2), (3, 2), (2, 3), (8, 3), (-5, 2), (9, 2), (9, 4), (5, 4),
))
B10 = tuple(Fraction(p, q) for p, q in (
    (7, 3), (8, 1), (1, 4), (-3, 1), (4, 3), (5, 2), (8, 3), (7, 2), (-5, 1), (2, 1),
))


def lines():
    """Each output line: its label, then the exact value."""
    yield f"trace-power n=10 f=6 {exact_trace_power_integral(A10, B10, 6)}"
    parts = partitions_of(6)
    for g in parts:
        for h in parts:
            pair = f"g={','.join(map(str, g))} h={','.join(map(str, h))}"
            yield f"bilinear f=6 n=5 {pair} {bilinear_coefficient(6, 5, g, h)}"
    for f, term in enumerate(hyper0f0(A10[:4], B10[:4], 12).terms):
        yield f"hyper0f0 n=4 f={f} {term}"


if __name__ == "__main__":
    for line in lines():
        print(line)
