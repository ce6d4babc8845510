"""Command-line surface: table generation, verification, and estimation.

Output conventions: exact rationals serialize as strings like ``3/8``
(plain integers omit the denominator), floats with 17 significant
digits, partitions as comma-joined parts with the empty partition as an
empty string.  Exit codes: 0 success, 1 verification failure, 2 usage
error.  All commands are deterministic given the same options and seed.

The command line is read by a small table-driven parser on the standard
library.  Each command declares its options once (``_Option``), with the
range or choices that a value must meet and that ``--help`` shows.  An
option takes the next token as its value whatever it looks like, so a
signed spectrum such as ``--A -30,30`` is a value; ``--A=-30,30`` works
too, and the last of a repeated option counts.  A usage error writes the
usage line and ``Error: <message>`` to stderr, nothing to stdout, and
exits 2.  ``main(args)`` runs one command line and returns its exit code;
``main.main(args, prog_name)`` exits with it, as the console script does.
Every run looks up ``main.commands[name].callback``, so a wrapper put
there sees each call.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Iterator

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
#: needs the power-sum form of every row, whose cost grows fast with the
#: degree; above it, a degree gets the trace identity only.
ORTHOGONALITY_CEILING = 6

#: Each ``estimate`` kind and the options it needs; it takes no other of them,
#: but for ``--max-degree``, which ``exp-series`` reads with a default.
ESTIMATE_KINDS = {
    "trace-power": ("--f", "--B"),
    "zonal-split": ("--kappa", "--B"),
    "trace-AH": ("--f",),
    "exp-series": ("--B",),
}

#: The degree to which ``exp-series`` sums the series when ``--max-degree``
#: is not given.
_SERIES_DEGREE = 12


class _UsageError(Exception):
    """A bad command line: ``main`` writes it to stderr and returns exit code 2."""


class _Option:
    """``--name VALUE``: the parameter it sets, the values it takes, and its line in ``--help``.

    A value is text; or an integer when ``integer`` is set or ``low`` is
    given, at least ``low`` and at most ``high`` where they are given; or
    one of ``choices``.  An option that is not given takes ``default``, and
    ``--help`` shows ``shown``, or else a ``default`` other than None.  The
    one positional argument of a command is an _Option too, named by its
    metavar.
    """

    def __init__(self, names, dest, help="", *, default=None, shown=None, required=False,
                 integer=False, low=None, high=None, choices=None):
        self.names, self.dest, self.help = names, dest, help
        self.default, self.required, self.choices = default, required, choices
        self.shown = default if shown is None else shown
        self.integer = integer or low is not None
        self.low, self.high = low, high

    def read(self, text: str):
        """The value that ``text`` gives this option; _UsageError naming both if it is not one."""
        invalid = f"Invalid value for {self.names[0]!r}: "
        if self.choices is not None:
            if text not in self.choices:
                raise _UsageError(f"{invalid}{text!r} is not one of {', '.join(map(repr, self.choices))}.")
            return text
        if not self.integer:
            return text
        try:
            value = int(text)
        except ValueError:
            kind = "integer" if self.low is None else "integer range"
            raise _UsageError(f"{invalid}{text!r} is not a valid {kind}.") from None
        if self.low is not None and (value < self.low or self.high is not None and value > self.high):
            raise _UsageError(f"{invalid}{value} is not in the range {self._range()}.")
        return value

    def _range(self) -> str:
        return f"x>={self.low}" if self.high is None else f"{self.low}<=x<={self.high}"

    def help_row(self) -> tuple[str, str]:
        """The option's two columns in ``--help``: names and metavar, then help and limits."""
        if self.choices is not None:
            metavar = f"[{'|'.join(self.choices)}]"
        else:
            metavar = "TEXT" if not self.integer else "INTEGER" if self.low is None else "INTEGER RANGE"
        limits = [f"default: {self.shown}"] if self.shown is not None else []
        limits += [self._range()] if self.low is not None else []
        limits += ["required"] if self.required else []
        text = f"{self.help}  [{'; '.join(limits)}]" if limits else self.help
        return f"{', '.join(self.names)} {metavar}", text.strip()


class _Command:
    """A subcommand: ``callback`` takes each option's parameter, and the argument's, by name."""

    def __init__(self, callback, options, argument=None) -> None:
        self.callback, self.options, self.argument = callback, options, argument
        self.doc = callback.__doc__
        self.usage = "[OPTIONS]" + (f" {argument.names[0]}" if argument else "")


    def parse(self, args: list[str]) -> dict | None:
        """The parameters that ``args`` give, or None where ``--help`` is one of its tokens.

        Every token that does not start with ``-`` (``-`` alone included),
        and every token after ``--``, is positional.  _UsageError for an
        unknown option, an option without its value, a positional token
        this command does not take, a missing argument or required option,
        or a value out of its option's range or choices; values are read
        after every token is placed, in the order the options are declared.
        """
        options = {name: option for option in self.options for name in option.names}
        texts, positional = {}, []
        tokens = iter(args)
        for token in tokens:
            if token == "--help":
                return None
            if token == "--":
                positional += tokens
            elif token == "-" or not token.startswith("-"):
                positional.append(token)
            else:
                name, eq, text = token.partition("=")
                if name not in options:
                    raise _UsageError(f"No such option {name!r}.")
                if not eq:
                    text = next(tokens, None)
                    if text is None:
                        raise _UsageError(f"Option {name!r} requires an argument.")
                texts[options[name].dest] = text
        values = {}
        if self.argument is not None:
            if not positional:
                choices = ",\n\t".join(self.argument.choices)
                raise _UsageError(f"Missing argument {self.argument.names[0]!r}. Choose from:\n\t{choices}")
            values[self.argument.dest] = self.argument.read(positional.pop(0))
        if positional:
            s = "s" if len(positional) > 1 else ""
            raise _UsageError(f"Got unexpected extra argument{s} ({' '.join(positional)})")
        for option in self.options:
            if option.dest in texts:
                values[option.dest] = option.read(texts[option.dest])
            elif option.required:
                raise _UsageError(f"Missing option {' / '.join(map(repr, option.names))}.")
            else:
                values[option.dest] = option.default
        return values


def _usage(prog: str, args: str) -> str:
    """The usage line, ``args`` wrapped at 78 columns under their first word."""
    import textwrap  # only --help and usage errors read it

    first = f"Usage: {prog} "
    return "\n".join(textwrap.wrap(args, 78, initial_indent=first, subsequent_indent=" " * len(first)))


def _short_help(doc: str, limit: int) -> str:
    """The first sentence of ``doc``, or as many of its words as fit ``limit`` with "..."."""
    words = doc.split("\n\n")[0].split()
    for i, word in enumerate(words):
        if len(" ".join(words[: i + 1])) > limit:
            break
        if word.endswith("."):
            return " ".join(words[: i + 1])
    else:
        return " ".join(words)
    while i and len(" ".join(words[:i])) + 3 > limit:
        i -= 1
    return " ".join(words[:i]) + "..."


def _help(usage: str, doc: str, sections: list[tuple[str, list[tuple[str, str]]]]) -> str:
    """``--help`` text: the usage, ``doc`` reflowed by paragraph, then each titled two-column section."""
    import textwrap

    lines = [usage, ""]
    for paragraph in doc.split("\n\n"):
        text = " ".join(line.strip() for line in paragraph.strip().splitlines())
        lines += textwrap.wrap(text, 78, initial_indent="  ", subsequent_indent="  ", replace_whitespace=False)
        lines.append("")
    for title, rows in sections:
        width = max(len(first) for first, _ in rows) + 2
        lines.append(f"{title}:")
        for first, text in rows:
            wrapped = textwrap.wrap(text, 76 - width) or [""]
            lines.append(f"  {first.ljust(width)}{wrapped[0]}".rstrip())
            lines += [" " * (width + 2) + more for more in wrapped[1:]]
        lines.append("")
    return "\n".join(lines[:-1]) + "\n"


_HELP_ROW = ("--help", "Show this message and exit.")


class _Main:
    """The ``zonalpoly`` command line; ``commands`` maps each subcommand's name to its _Command."""

    def __init__(self, doc: str) -> None:
        self.doc = doc
        self.commands: dict[str, _Command] = {}

    def command(self, *options, argument=None):
        """Register the decorated function as the subcommand of its name, with these options."""

        def register(callback):
            self.commands[callback.__name__] = _Command(callback, options, argument)
            return callback

        return register

    def _help(self, prog: str, usage: str) -> str:
        """The top-level ``--help``: each command with the first sentence of its docstring."""
        limit = 72 - max(map(len, self.commands))
        rows = [(name, _short_help(self.commands[name].doc, limit)) for name in sorted(self.commands)]
        return _help(_usage(prog, usage), self.doc, [("Options", [_HELP_ROW]), ("Commands", rows)])

    def __call__(self, args=None, prog_name: str = "zonalpoly") -> int:
        """Run the command line ``args`` (default ``sys.argv[1:]``) and return its exit code.

        A reader that closes stdout early, as ``| head`` does, ends the run
        with exit code 1 and no traceback; so does an interrupt, after
        ``Aborted!`` on stderr.
        """
        try:
            code = self._run(sys.argv[1:] if args is None else list(args), prog_name)
            sys.stdout.flush()  # a closed pipe shows here, not at exit
            return code
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # what is left of stdout goes nowhere
            return 1
        except KeyboardInterrupt:
            sys.stderr.write("\nAborted!\n")
            return 1

    def _run(self, args: list[str], prog_name: str) -> int:
        prog, usage = prog_name, "[OPTIONS] COMMAND [ARGS]..."
        try:
            if args[:1] in (["--help"], []):  # with no command, the help is a usage error
                (sys.stdout if args else sys.stderr).write(self._help(prog, usage))
                return 0 if args else 2
            name, *rest = args
            if name not in self.commands:
                raise _UsageError(f"No such command {name!r}.")
            command = self.commands[name]
            prog, usage = f"{prog_name} {name}", command.usage
            values = command.parse(rest)
            if values is None:
                rows = [option.help_row() for option in command.options]
                sys.stdout.write(_help(_usage(prog, usage), command.doc, [("Options", [*rows, _HELP_ROW])]))
                return 0
            return command.callback(**values) or 0
        except _UsageError as exc:
            sys.stderr.write(f"{_usage(prog, usage)}\nTry '{prog} --help' for help.\n\nError: {exc}\n")
            return 2

    def main(self, args=None, prog_name: str = "zonalpoly"):
        """Run the command line ``args`` and exit with its code (SystemExit), as the console script does."""
        sys.exit(self(args, prog_name))


def format_partition(p) -> str:
    return ",".join(str(x) for x in p)


def parse_partition(text: str) -> Partition:
    if not text.strip():
        return Partition()
    try:
        return Partition(int(x) for x in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad partition {text!r}: {exc}") from exc


def parse_spectrum(text: str, option: str) -> DiagonalSpec:
    try:
        spec = DiagonalSpec.of(text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad eigenvalue list for {option}: {text!r}") from exc
    try:
        spec.floats()
    except OverflowError as exc:
        raise _UsageError(
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


main = _Main("Exact zonal polynomial tables, identities, and Monte Carlo checks.")


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


@main.command(
    _Option(("--f",), "degree", "Degree of the table.", required=True, low=1, high=DEGREE_CEILING),
    _Option(("--basis",), "basis", default=POWERSUM, choices=(MONOMIAL, POWERSUM)),
    _Option(("--format",), "fmt", default="text", choices=("json", "csv", "latex", "text")),
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
        sys.stdout.write(_emit_json(payload))
        return
    latex = fmt == "latex"
    kappa_head, chi_head = (r"$\kappa$", r"$\chi$") if latex else ("kappa", "chi")
    header = [kappa_head, *(_column_label(lam, basis, latex) for lam in columns), chi_head]
    body = [
        [f"({kappa})" if latex else kappa, *coefficients, str(chi)]
        for kappa, coefficients, chi in rows
    ]
    emit = {"csv": _emit_csv, "latex": _emit_latex, "text": _emit_text}[fmt]
    sys.stdout.write(emit(header, body))


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
        raise _UsageError(f"bad degree range {text!r}; use N or A..B") from exc
    if not degrees:
        raise _UsageError(f"degree range {text!r} is empty")
    if degrees[0] < 1:
        raise _UsageError(f"degree range {text!r} must start at 1 or above")
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


@main.command(_Option(("--f",), "frange", "Degree or range A..B.", default="1..6"))
def verify(frange: str) -> int:
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
                print(line)
                failed = failed or line.startswith("FAIL")
        except DataIntegrityError as exc:  # a row that cannot be built
            print(f"FAIL f={f} data integrity: {exc}")
            failed = True
    return 1 if failed else 0


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
        raise _UsageError(
            f"{kind} needs a value too large for a float ({exc}); scale the eigenvalues down"
        ) from exc
    except MemoryError as exc:
        raise _UsageError(f"{kind} cannot allocate {holds} ({exc}); {remedy}") from exc


@main.command(
    _Option(("--f",), "degree", "Trace power.", low=0),
    _Option(("--n",), "dim", "Expected dimension (validated).", integer=True),
    _Option(("--A", "--a"), "a_spec", "Eigenvalues, e.g. 1,2 or 1/2,3.", required=True),
    _Option(("--B", "--b"), "b_spec", "Eigenvalues of the second matrix."),
    _Option(("--kappa",), "kappa", "Partition, e.g. 2,1."),
    _Option(("--samples",), "samples", default=100_000, low=2),
    _Option(("--seed",), "seed", "Nonnegative integer RNG seed.", default=0, low=0),
    _Option(
        ("--threads",), "threads", "Worker threads for MC; they change the speed, not the estimate.", default=1, low=1
    ),
    _Option(("--max-degree",), "max_degree", "Series truncation.", shown=_SERIES_DEGREE, low=0),
    argument=_Option((f"{{{'|'.join(ESTIMATE_KINDS)}}}",), "kind", choices=tuple(ESTIMATE_KINDS)),
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
    max_degree: int | None,
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
        raise _UsageError(f"--A has {len(a)} eigenvalues but --n is {dim}")

    options = {"--f": degree, "--B": b_spec, "--kappa": kappa, "--max-degree": max_degree}
    given = [option for option, value in options.items() if value is not None]
    needs = ESTIMATE_KINDS[kind]
    if any(option not in given for option in needs):
        raise _UsageError(f"{kind} needs {' and '.join(needs)}")
    takes = (*needs, "--max-degree") if kind == "exp-series" else needs
    unused = [option for option in given if option not in takes]
    if unused:
        raise _UsageError(f"{kind} takes no {' or '.join(unused)}")
    if max_degree is None:
        max_degree = _SERIES_DEGREE
    if b_spec is not None:
        b = parse_spectrum(b_spec, "--B")
        if len(a) != len(b):
            raise _UsageError("--A and --B must have the same length")

    if kind == "trace-power":
        run = (mc_trace_power, a, b, degree)
    elif kind == "zonal-split":
        part = parse_partition(kappa)
        if not part:
            raise _UsageError("--kappa must be a nonempty partition")
        if len(part) > len(a):
            raise _UsageError("--kappa has more parts than there are eigenvalues")
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
    print(json.dumps(payload, indent=2))


if __name__ == "__main__":
    main.main(prog_name="python -m zonalpoly.cli")
