"""Outside-in correctness checks on the text each op prints.

Every check takes the op's exit code and stdout and returns ``None`` when
the output is right, or a one-line reason.  The checks re-derive what
they compare against from first principles (partition enumeration, hook
lengths, Muirhead's closed form for Z_kappa(I_n)) and import nothing
from zonalpoly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


def partitions(f: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of f in descending lexicographic order."""
    cap = f if cap is None else cap
    if f == 0:
        return [()]
    return [(head, *tail) for head in range(min(f, cap), 0, -1) for tail in partitions(f - head, head)]


def _hook_degree(p: tuple[int, ...]) -> int:
    """Symmetric-group character degree by the hook-length formula."""
    conj = [sum(1 for q in p if q > j) for j in range(p[0])] if p else []
    hooks = 1
    for i, row in enumerate(p):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return math.factorial(sum(p)) // hooks


def character_degree(kappa: tuple[int, ...]) -> int:
    """chi(kappa): the degree indexed by the doubled partition 2*kappa."""
    return _hook_degree(tuple(2 * k for k in kappa))


def double_factorial(k: int) -> int:
    return math.prod(range(k, 0, -2))


def zonal_at_identity(kappa: tuple[int, ...], n: int) -> int:
    """Muirhead's closed form prod_i prod_{j < kappa_i} (n - i + 1 + 2j)."""
    return math.prod(n - i + 1 + 2 * j for i, part in enumerate(kappa, start=1) for j in range(part))


def _label(p) -> str:
    return ",".join(str(x) for x in p)


def _table(code: int, out: str, degree: int, basis: str):
    if code != 0:
        return None, f"exit code {code}"
    payload = json.loads(out)
    expected = [_label(p) for p in partitions(degree)]
    if payload["degree"] != degree or payload["basis"] != basis:
        return None, "wrong degree or basis in the payload"
    if payload["columns"] != expected or [r["partition"] for r in payload["rows"]] != expected:
        return None, "rows or columns are not the partitions of f in order"
    return payload, None


def check_powersum_table(code: int, out: str, degree: int) -> str | None:
    """Integer rows, p_1^f coefficient 1, sum chi * row = (2f-1)!! p_1^f."""
    payload, error = _table(code, out, degree, "powersum")
    if error:
        return error
    ones = len(payload["columns"]) - 1
    total = [0] * len(payload["columns"])
    for row, kappa in zip(payload["rows"], partitions(degree)):
        coeffs = [Fraction(c) for c in row["coefficients"]]
        if any(c.denominator != 1 for c in coeffs):
            return f"row {row['partition']} has a non-integer coefficient"
        if coeffs[ones] != 1:
            return f"row {row['partition']} has p_1^f coefficient {coeffs[ones]}"
        chi = character_degree(kappa)
        if row["character_degree"] != chi:
            return f"row {row['partition']} has character degree {row['character_degree']}, not {chi}"
        total = [t + chi * int(c) for t, c in zip(total, coeffs)]
    want = [0] * ones + [double_factorial(2 * degree - 1)]
    if total != want:
        return "sum_kappa chi(kappa) Z_kappa is not (2f-1)!! p_1^f"
    return None


def check_monomial_table(code: int, out: str, degree: int) -> str | None:
    """Every row's m_{1^f} coefficient is f!."""
    payload, error = _table(code, out, degree, "monomial")
    if error:
        return error
    for row in payload["rows"]:
        if Fraction(row["coefficients"][-1]) != math.factorial(degree):
            return f"row {row['partition']} has m_(1^f) coefficient {row['coefficients'][-1]}"
    return None


def check_verify(code: int, out: str, degrees: range) -> str | None:
    """Exit 0, no FAIL line, and a passing trace identity at every degree."""
    if code != 0:
        return f"exit code {code}"
    lines = out.splitlines()
    if any(line.startswith("FAIL") for line in lines):
        return "a FAIL line was printed"
    missing = [f for f in degrees if f"f={f} trace identity: ok" not in lines]
    if missing:
        return f"no passing trace identity line for f in {missing}"
    return None


def check_estimate(code: int, out: str, samples: int) -> str | None:
    """Exit 0, the requested sample count, and |z_score| <= 5."""
    if code != 0:
        return f"exit code {code}"
    report = json.loads(out)
    if report["samples"] != samples:
        return f"{report['samples']} samples reported, {samples} requested"
    z = float(report["z_score"])
    if not abs(z) <= 5:
        return f"z_score {z} is beyond 5"
    return None


def check_trace_integrals(code: int, out: str, calls) -> str | None:
    """The f = 1 integral equals tr a * tr b / n."""
    if code != 0:
        return f"exit code {code}"
    for (a, b, f), value in zip(calls, json.loads(out)):
        value = Fraction(value)
        if f == 1:
            want = sum(map(Fraction, a)) * sum(map(Fraction, b)) / len(a)
            if value != want:
                return f"f=1 integral at n={len(a)} is {value}, not {want}"
    return None


def check_zonal_at_identity(code: int, out: str, calls) -> str | None:
    """Z_kappa(I_n) equals Muirhead's closed form."""
    if code != 0:
        return f"exit code {code}"
    for (kappa, n), value in zip(calls, json.loads(out)):
        want = zonal_at_identity(tuple(kappa), n)
        if Fraction(value) != want:
            return f"Z_{_label(kappa)}(I_{n}) is {value}, not {want}"
    return None


def check_bilinear(code: int, out: str, calls) -> str | None:
    """The coefficient of m_g(a) m_h(b) is symmetric in (g, h)."""
    if code != 0:
        return f"exit code {code}"
    values = {(_label(g), _label(h)): Fraction(v) for (_f, _n, g, h), v in zip(calls, json.loads(out))}
    for (g, h), v in values.items():
        if values.get((h, g)) != v:
            return f"coefficient at ({g}; {h}) differs from ({h}; {g})"
    return None


def check_hyper0f0(code: int, out: str, calls) -> str | None:
    """Terms 0 and 1 are 1 and tr a tr b / (2n); value is the terms' sum."""
    if code != 0:
        return f"exit code {code}"
    for (a, b, max_degree), result in zip(calls, json.loads(out)):
        terms = [Fraction(t) for t in result["terms"]]
        if len(terms) != max_degree + 1 or terms[0] != 1:
            return "series must start at 1 and stop at max_degree"
        want = sum(map(Fraction, a)) * sum(map(Fraction, b)) / (2 * len(a))
        if max_degree >= 1 and terms[1] != want:
            return f"degree-1 term is {terms[1]}, not {want}"
        if not math.isclose(float(result["value"]), float(sum(terms)), rel_tol=1e-12):
            return "value is not the sum of the terms"
    return None
