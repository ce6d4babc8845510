"""Command-line surface: table generation, verification, and estimation.

Output conventions: exact rationals serialize as strings like ``3/8``
(plain integers omit the denominator), floats with 17 significant
digits, partitions as comma-joined parts with the empty partition as an
empty string.  Exit codes: 0 success, 1 verification failure, 2 usage
error.  All commands are deterministic given the same options and seed.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Iterator

import click
from click.core import ParameterSource

from .moments import DiagonalSpec, hyper0f0
from .partitions import Partition, partitions_of
from .symfunc import MONOMIAL, POWERSUM
from .zonal import (
    DataIntegrityError,
    character_degree,
    check_orthogonality,
    check_trace_identity,
    zonal_in_powersums,
    zonal_row,
)

#: Table generation beyond this degree is refused; the recursion stays
#: exact but the partition count makes it slow.
DEGREE_CEILING = 12

#: ``verify`` runs the Jack orthogonality certificate up to this degree.  It
#: needs the power-sum form of every row: to degree 6 that costs about 2 ms,
#: while to degree 12 a cold ``verify --f 1..12`` would take 0.18 s instead
#: of 0.11 s (2-core shared VM, Python 3.11).
ORTHOGONALITY_CEILING = 6

#: Each ``estimate`` kind and the options it needs; it takes no other of them,
#: but for ``--max-degree``, which ``exp-series`` reads with a default.
ESTIMATE_KINDS = {
    "trace-power": ("--f", "--B"),
    "zonal-split": ("--kappa", "--B"),
    "trace-AH": ("--f",),
    "exp-series": ("--B",),
}


def format_partition(p) -> str:
    return ",".join(str(x) for x in p)


def parse_partition(text: str) -> Partition:
    if not text.strip():
        return Partition()
    try:
        return Partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"bad partition {text!r}: {exc}") from exc


def parse_spectrum(text: str, option: str) -> DiagonalSpec:
    try:
        spec = DiagonalSpec.of(text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"bad eigenvalue list for {option}: {text!r}") from exc
    try:
        spec.floats()
    except OverflowError as exc:
        raise click.UsageError(
            f"an eigenvalue in {option} is too large for a float: {text!r}"
        ) from exc
    return spec


def format_float(x: float) -> str:
    return f"{x:.17g}"


def _powersum_monomial(p, sep: str, factor: str, power: str) -> str:
    """p_lambda as one ``factor`` per distinct part k, ``power`` added at multiplicity m > 1."""
    return sep.join(
        factor.format(k) + (power.format(p.count(k)) if p.count(k) > 1 else "")
        for k in sorted(set(p))
    )


def powersum_label(p) -> str:
    return _powersum_monomial(p, "*", "s{}", "^{}")


def powersum_latex(p) -> str:
    return _powersum_monomial(p, " ", "s_{{{}}}", "^{{{}}}")


@click.group()
def main() -> None:
    """Exact zonal polynomial tables, identities, and Monte Carlo checks."""


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _column_label(lam, basis: str, latex: bool) -> str:
    if basis == POWERSUM:
        return f"${powersum_latex(lam)}$" if latex else powersum_label(lam)
    return f"$m_{{({format_partition(lam)})}}$" if latex else f"m[{format_partition(lam)}]"


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _emit_csv(header: list[str], body: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *body])
    return buf.getvalue()


def _emit_text(header: list[str], body: list[list[str]]) -> str:
    widths = [max(len(line[i]) for line in [header, *body]) for i in range(len(header))]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths))
        for line in [header, *body]
    ]
    return "\n".join(lines) + "\n"


def _emit_latex(header: list[str], body: list[list[str]]) -> str:
    lines = [
        r"\begin{tabular}{|c|" + "c" * (len(header) - 2) + "|c|}",
        r"\hline",
        " & ".join(header) + r" \\",
        r"\hline",
        *(" & ".join(line) + r" \\" for line in body),
        r"\hline",
        r"\end{tabular}",
    ]
    return "\n".join(lines) + "\n"


@main.command()
@click.option(
    "--f", "degree", type=click.IntRange(1, DEGREE_CEILING), required=True, help="Degree of the table."
)
@click.option(
    "--basis",
    type=click.Choice([MONOMIAL, POWERSUM]),
    default=POWERSUM,
    show_default=True,
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv", "latex", "text"]),
    default="text",
    show_default=True,
)
def table(degree: int, basis: str, fmt: str) -> None:
    """Print the full coefficient table for one degree."""
    columns = partitions_of(degree)
    rows = []
    for kappa in columns:
        poly = zonal_row(kappa) if basis == MONOMIAL else zonal_in_powersums(kappa)
        coefficients = [str(poly.coeffs.get(lam, 0)) for lam in columns]
        rows.append((format_partition(kappa), coefficients, character_degree(kappa)))
    if fmt == "json":
        payload = {
            "degree": degree,
            "basis": basis,
            "columns": [format_partition(lam) for lam in columns],
            "rows": [
                {"partition": kappa, "coefficients": coefficients, "character_degree": chi}
                for kappa, coefficients, chi in rows
            ],
        }
        click.echo(_emit_json(payload), nl=False)
        return
    latex = fmt == "latex"
    kappa_head, chi_head = (r"$\kappa$", r"$\chi$") if latex else ("kappa", "chi")
    header = [kappa_head, *(_column_label(lam, basis, latex) for lam in columns), chi_head]
    body = [
        [f"({kappa})" if latex else kappa, *coefficients, str(chi)]
        for kappa, coefficients, chi in rows
    ]
    emit = {"csv": _emit_csv, "latex": _emit_latex, "text": _emit_text}[fmt]
    click.echo(emit(header, body), nl=False)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def parse_degree_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            degrees = list(range(int(lo), int(hi) + 1))
        else:
            degrees = [int(text)]
    except ValueError as exc:
        raise click.UsageError(f"bad degree range {text!r}; use N or A..B") from exc
    if not degrees:
        raise click.UsageError(f"degree range {text!r} is empty")
    if degrees[0] < 1:
        raise click.UsageError(f"degree range {text!r} must start at 1 or above")
    return degrees


def _verify_degree(f: int) -> Iterator[str]:
    """One line per check; failing lines start with FAIL.

    Normalization, triangularity and the top coefficient need no line:
    ``zonal_row`` builds every row to satisfy them and raises
    DataIntegrityError otherwise, which ``verify`` prints as a FAIL line
    after the lines already given.
    """
    ok, diff = check_trace_identity(f)
    yield (
        f"f={f} trace identity: ok"
        if ok
        else f"FAIL f={f} trace identity: discrepancy "
        + str({format_partition(k): str(v) for k, v in diff.items()})
    )
    if f <= ORTHOGONALITY_CEILING:
        ok, bad = check_orthogonality(f)
        if ok:
            yield f"f={f} Jack orthogonality: ok ({len(partitions_of(f))} rows)"
        else:
            (kappa, mu), gap = next(iter(bad.items()))
            yield (
                f"FAIL f={f} Jack orthogonality: <Z({format_partition(kappa)}), "
                f"Z({format_partition(mu)})> off by {gap} ({len(bad)} bad pairs)"
            )


@main.command()
@click.option("--f", "frange", default="1..6", show_default=True, help="Degree or range A..B.")
@click.pass_context
def verify(ctx: click.Context, frange: str) -> None:
    """Check the trace identity and, to degree 6, prove the rows by Jack orthogonality.

    Each row is built triangular in the lexicographic order, which refines
    dominance, with m_(1^f) = f!, and orthogonality with Stanley's norms
    then proves every row of its degree.  Proven rows are linearly
    independent, so the trace identity sum_kappa chi(kappa) Z_kappa =
    (2f-1)!! p_1^f has exactly one solution chi: the character degrees
    need no check of their own.
    """
    failed = False
    for f in parse_degree_range(frange):
        try:
            for line in _verify_degree(f):
                click.echo(line)
                failed = failed or line.startswith("FAIL")
        except DataIntegrityError as exc:  # a row that cannot be built
            click.echo(f"FAIL f={f} data integrity: {exc}")
            failed = True
    ctx.exit(1 if failed else 0)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def _in_float_range(kind: str, holds: str, remedy: str, fn, *args):
    """``fn(*args)``; a float overflow, or memory that cannot hold what ``fn`` holds, is a usage error.

    ``holds`` names what the step allocates and ``remedy`` says what
    shrinks it, for the MemoryError message.
    """
    try:
        return fn(*args)
    except OverflowError as exc:
        raise click.UsageError(
            f"{kind} needs a value too large for a float ({exc}); scale the eigenvalues down"
        ) from exc
    except MemoryError as exc:
        raise click.UsageError(f"{kind} cannot allocate {holds} ({exc}); {remedy}") from exc


@main.command()
@click.argument("kind", type=click.Choice(tuple(ESTIMATE_KINDS)))
@click.option("--f", "degree", type=click.IntRange(min=0), default=None, help="Trace power.")
@click.option("--n", "dim", type=int, default=None, help="Expected dimension (validated).")
@click.option("--A", "a_spec", "--a", required=True, help="Eigenvalues, e.g. 1,2 or 1/2,3.")
@click.option("--B", "b_spec", "--b", default=None, help="Eigenvalues of the second matrix.")
@click.option("--kappa", default=None, help="Partition, e.g. 2,1.")
@click.option("--samples", type=click.IntRange(min=2), default=100_000, show_default=True)
@click.option(
    "--seed", type=click.IntRange(min=0), default=0, show_default=True, help="Nonnegative integer RNG seed."
)
@click.option(
    "--threads",
    type=click.IntRange(min=1),
    default=1,
    show_default=True,
    help="Worker threads for MC; they change the speed, not the estimate.",
)
@click.option(
    "--max-degree", type=click.IntRange(min=0), default=12, show_default=True, help="Series truncation."
)
def estimate(
    kind: str,
    degree: int | None,
    dim: int | None,
    a_spec: str,
    b_spec: str | None,
    kappa: str | None,
    samples: int,
    seed: int,
    threads: int,
    max_degree: int,
) -> None:
    """Run one Monte Carlo experiment and print a JSON report."""
    # imported here, so that table and verify never load numpy
    from .haar import BLOCK
    from .montecarlo import (
        mc_exponential_trace,
        mc_linear_trace_power,
        mc_splitting,
        mc_trace_power,
    )

    a = parse_spectrum(a_spec, "--A")
    if dim is not None and len(a) != dim:
        raise click.UsageError(f"--A has {len(a)} eigenvalues but --n is {dim}")

    options = {"--f": degree, "--B": b_spec, "--kappa": kappa}
    given = [option for option, value in options.items() if value is not None]
    needs = ESTIMATE_KINDS[kind]
    if any(option not in given for option in needs):
        raise click.UsageError(f"{kind} needs {' and '.join(needs)}")
    # --max-degree has a default, so only its source tells whether it was given
    source = click.get_current_context().get_parameter_source("max_degree")
    if kind != "exp-series" and source is not ParameterSource.DEFAULT:
        given.append("--max-degree")
    unused = [option for option in given if option not in needs]
    if unused:
        raise click.UsageError(f"{kind} takes no {' or '.join(unused)}")
    if b_spec is not None:
        b = parse_spectrum(b_spec, "--B")
        if len(a) != len(b):
            raise click.UsageError("--A and --B must have the same length")

    if kind == "trace-power":
        run = (mc_trace_power, a, b, degree)
    elif kind == "zonal-split":
        part = parse_partition(kappa)
        if not part:
            raise click.UsageError("--kappa must be a nonempty partition")
        if len(part) > len(a):
            raise click.UsageError("--kappa has more parts than there are eigenvalues")
        run = (mc_splitting, part, a, b)
    elif kind == "trace-AH":
        run = (mc_linear_trace_power, a, degree)
    else:  # exp-series
        terms = f"the series terms to degree {max_degree}"
        series = _in_float_range(kind, terms, "lower --max-degree", hyper0f0, a, b, max_degree)
        run = (mc_exponential_trace, a, b, series.value)
    n = len(a)
    # a worker at n = 3 reads the quaternions and builds no matrix
    held = "quaternions" if n == 3 else f"{n} x {n} matrices"
    block = f"a block of up to {max(1, BLOCK // n)} draws of {held}"
    remedy = "each of up to --threads workers holds one, whatever --samples, so lower --threads or n"
    report = _in_float_range(kind, block, remedy, *run, samples, seed, threads)

    # the checks above leave set exactly the options that this kind takes
    params = {
        "kappa": kappa,
        "f": degree,
        "A": a_spec,
        "B": b_spec,
        "max_degree": max_degree if kind == "exp-series" else None,
        "seed": seed,
        "threads": threads,
    }
    exact = report.exact_value
    payload = {
        "kind": kind,
        "parameters": {k: v for k, v in params.items() if v is not None},
        "exact": str(exact) if isinstance(exact, Fraction) else format_float(exact),
        "estimate": format_float(report.mc_estimate),
        "std_err": format_float(report.mc_std_err),
        "z_score": format_float(report.z_score),
        "samples": report.samples,
        "resampled": 0,  # kept for the report schema: no estimator redraws
    }
    if kind == "exp-series":
        payload["series_value"] = str(sum(series.terms))
        payload["tail_bound"] = format_float(series.tail_bound)
    click.echo(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main()
