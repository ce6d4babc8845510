"""Command-line surface: formats, exit codes, determinism, verification."""

import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import zonalpoly
from zonalpoly import cli, zonal
from zonalpoly.cli import _emit_json, main
from zonalpoly.partitions import Partition, partitions_of
from zonalpoly.symfunc import SymPoly

from clirun import Runner


@pytest.fixture()
def runner():
    return Runner()


def assert_refused(result, option, value):
    """A usage error (exit 2, nothing on stdout) whose message names ``option`` and ``value``."""
    assert result.exit_code == 2
    assert result.stdout == ""
    assert option in result.output
    assert value in result.output


class TestTable:
    def test_degree_one_text(self, runner):
        result = runner.invoke(main, ["table", "--f", "1"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].split() == ["kappa", "s1", "chi"]
        assert lines[1].split() == ["1", "1", "1"]

    def test_degree_two_powersum_csv(self, runner):
        result = runner.invoke(
            main, ["table", "--f", "2", "--basis", "powersum", "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "kappa,s2,s1^2,chi"
        assert lines[1] == "2,2,1,1"
        assert lines[2] == '"1,1",-1,1,2'

    def test_degree_six_powersum_grid(self, runner):
        result = runner.invoke(
            main, ["table", "--f", "6", "--basis", "powersum", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert len(payload["rows"]) == 11
        row = {r["partition"]: r for r in payload["rows"]}["3,3"]
        # s3^2 column is the partition (3,3)
        idx = payload["columns"].index("3,3")
        assert row["coefficients"][idx] == "136"
        assert row["character_degree"] == 132

    def test_monomial_basis(self, runner):
        result = runner.invoke(
            main, ["table", "--f", "2", "--basis", "monomial", "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == 'kappa,m[2],"m[1,1]",chi'
        assert lines[1] == "2,3,2,1"
        assert lines[2] == '"1,1",0,2,2'

    def test_json_round_trip_idempotent(self, runner):
        result = runner.invoke(main, ["table", "--f", "3", "--format", "json"])
        assert result.exit_code == 0
        assert _emit_json(json.loads(result.output)) == result.output

    def test_latex_format(self, runner):
        result = runner.invoke(main, ["table", "--f", "2", "--format", "latex"])
        assert result.exit_code == 0
        assert result.output.startswith(r"\begin{tabular}")
        assert r"\end{tabular}" in result.output

    def test_ceiling_is_usage_error(self, runner):
        for value in ("13", "0"):
            assert_refused(runner.invoke(main, ["table", "--f", value]), "--f", value)

    def test_help_shows_the_degree_range(self, runner):
        assert "[1<=x<=12; required]" in runner.invoke(main, ["table", "--help"]).output

    def test_unknown_format_is_usage_error(self, runner):
        result = runner.invoke(main, ["table", "--f", "2", "--format", "yaml"])
        assert result.exit_code == 2

    def test_deterministic_output(self, runner):
        first = runner.invoke(main, ["table", "--f", "4", "--format", "json"]).output
        second = runner.invoke(main, ["table", "--f", "4", "--format", "json"]).output
        assert first == second


class TestVerify:
    def test_full_range_passes(self, runner):
        result = runner.invoke(main, ["verify", "--f", "1..6"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            line
            for f in range(1, 7)
            for line in (
                f"f={f} trace identity: ok",
                f"f={f} Jack orthogonality: ok ({len(partitions_of(f))} rows)",
            )
        ]

    def test_single_degree(self, runner):
        result = runner.invoke(main, ["verify", "--f", "1"])
        assert result.exit_code == 0

    def test_degree_above_certificate_still_checked(self, runner):
        result = runner.invoke(main, ["verify", "--f", "6..7"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "f=6 trace identity: ok",
            "f=6 Jack orthogonality: ok (11 rows)",
            "f=7 trace identity: ok",
        ]

    def test_corrupted_powersum_row_names_bad_pair(self, runner, monkeypatch):
        # the trace identity reads the monomial rows, the certificate the power-sum
        # rows: the p_2 coefficient of Z_(2) = p_1^2 + 2 p_2 becomes 99
        two = Partition((2,))
        row = zonal.zonal_in_powersums

        def corrupted(k):
            poly = row(k)
            if k != two:
                return poly
            return SymPoly(poly.degree, poly.basis, {**poly.coeffs, two: 99})

        monkeypatch.setattr(zonal, "zonal_in_powersums", corrupted)
        result = runner.invoke(main, ["verify", "--f", "1..2"])
        assert result.exit_code == 1
        # <Z_(2), Z_(2)> = 1 * 8 + 99^2 * 4 against 24; <Z_(2), Z_(1,1)> = 8 - 99 * 4
        assert result.output.splitlines() == [
            "f=1 trace identity: ok",
            "f=1 Jack orthogonality: ok (1 rows)",
            "f=2 trace identity: ok",
            "FAIL f=2 Jack orthogonality: <Z(2), Z(2)> off by 39188 (2 bad pairs)",
        ]

    def test_corrupted_row_fails_each_degree(self, runner, monkeypatch):
        caches = (zonal.zonal_row, zonal.zonal_in_powersums)
        top = zonal._top_coefficient
        monkeypatch.setattr(zonal, "_top_coefficient", lambda kappa: top(kappa) + 1)
        for cache in caches:
            cache.cache_clear()
        try:
            result = runner.invoke(main, ["verify", "--f", "1..3"])
        finally:
            for cache in caches:
                cache.cache_clear()
        assert result.exit_code == 1
        assert not isinstance(result.exception, zonal.DataIntegrityError)
        lines = result.output.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"FAIL f={f} data integrity" for f in (1, 2, 3)
        ]
        assert "expected 1!" in lines[0]

    def test_corrupted_row_fails_trace_identity(self, runner, monkeypatch):
        kappa, lam = Partition((2, 2)), Partition((2, 1, 1))
        # the certificate reads the cached power-sum rows, built from the true rows
        for k in partitions_of(4):
            zonal.zonal_in_powersums(k)
        row = zonal.zonal_row

        def corrupted(k):
            poly = row(k)
            if k != kappa:
                return poly
            coeffs = dict(poly.coeffs)
            coeffs[lam] += 1
            return SymPoly(poly.degree, poly.basis, coeffs)

        monkeypatch.setattr(zonal, "zonal_row", corrupted)
        assert zonal.check_trace_identity(4) == (False, {lam: zonal.character_degree(kappa)})
        result = runner.invoke(main, ["verify", "--f", "4"])
        assert result.exit_code == 1
        assert [line for line in result.output.splitlines() if line.startswith("FAIL")] == [
            "FAIL f=4 trace identity: discrepancy {'2,1,1': '14'}"
        ]

    def test_corrupted_row_fails_trace_identity_and_certificate(self, runner, monkeypatch):
        kappa, lam = Partition((2, 2)), Partition((2, 1, 1))
        row = zonal.zonal_row

        def corrupted(k):
            poly = row(k)
            if k != kappa:
                return poly
            coeffs = dict(poly.coeffs)
            coeffs[lam] += 1
            return SymPoly(poly.degree, poly.basis, coeffs)

        monkeypatch.setattr(zonal, "zonal_row", corrupted)
        zonal.zonal_in_powersums.cache_clear()
        try:
            assert zonal.check_trace_identity(4) == (False, {lam: zonal.character_degree(kappa)})
            result = runner.invoke(main, ["verify", "--f", "4..5"])
        finally:
            zonal.zonal_in_powersums.cache_clear()
        assert result.exit_code == 1
        assert not isinstance(result.exception, zonal.DataIntegrityError)
        lines = result.output.splitlines()
        # the certificate cannot convert the row, and verify goes on to the next degree
        assert [line.split(":")[0] for line in lines] == [
            "FAIL f=4 trace identity",
            "FAIL f=4 data integrity",
            "f=5 trace identity",
            "f=5 Jack orthogonality",
        ]
        assert lines[0] == "FAIL f=4 trace identity: discrepancy {'2,1,1': '14'}"
        assert lines[1].startswith(
            "FAIL f=4 data integrity: power-sum coefficients for "
            "Partition((2, 2)) are not integers"
        )

    def test_bad_range_is_usage_error(self, runner):
        assert runner.invoke(main, ["verify", "--f", "x..y"]).exit_code == 2
        assert runner.invoke(main, ["verify", "--f", "0..2"]).exit_code == 2
        empty = runner.invoke(main, ["verify", "--f", "3..1"])
        assert empty.exit_code == 2
        assert "'3..1' is empty" in empty.output


def package_env() -> dict:
    """The environment with this package's source directory first on PYTHONPATH."""
    src = str(Path(zonalpoly.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def last_line_of_python(code: str) -> str:
    """The last stdout line of ``code`` run in a fresh interpreter on this package."""
    result = subprocess.run(
        [sys.executable, "-c", code], env=package_env(), capture_output=True, text=True, check=True
    )
    return result.stdout.splitlines()[-1]


def test_cli_imports_no_scipy():
    # scipy is a test-only dependency, and only the Monte Carlo side needs
    # numpy: the package, the exact layer, table and verify load neither
    code = (
        "import sys, zonalpoly, zonalpoly.cli, zonalpoly.moments\n"
        "for args in (['table', '--f', '3'], ['verify', '--f', '1..3']):\n"
        "    assert zonalpoly.cli.main(args) in (None, 0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    assert last_line_of_python(code) == "[]"


def test_cli_loads_no_click_dataclasses_or_inspect():
    # the command line is parsed by the standard library, and the records are
    # plain classes: a table and a verify run load none of these (numpy loads
    # inspect, so an estimate does)
    code = (
        "import sys, zonalpoly.cli\n"
        "for args in (['table', '--f', '3'], ['verify', '--f', '1..3']):\n"
        "    assert zonalpoly.cli.main(args) == 0\n"
        "print([m for m in ('click', 'dataclasses', 'inspect') if m in sys.modules])"
    )
    assert last_line_of_python(code) == "[]"


def test_a_closed_stdout_ends_the_run_quietly():
    # a reader that stops early, as `| head` does: exit code 1, no traceback,
    # also where stdout is buffered and the pipe fails only on the flush
    read, write = os.pipe()
    os.close(read)
    try:
        for unbuffered in ("1", ""):
            result = subprocess.run(
                [sys.executable, "-m", "zonalpoly.cli", "table", "--f", "3"],
                stdout=write, stderr=subprocess.PIPE, env={**package_env(), "PYTHONUNBUFFERED": unbuffered}, timeout=60,
            )
            assert (result.returncode, result.stderr) == (1, b""), unbuffered
    finally:
        os.close(write)


class TestBenchmarkHooks:
    """The two hooks by which ``perfbench`` drives the command line.

    ``perfbench/worker.py`` runs an op as ``main.main(args=..., prog_name=...)``
    and reads the exit code from its SystemExit; ``perfbench/spans.py`` puts a
    wrapper into ``main.commands[name].callback``, which every run must call.
    """

    @pytest.mark.parametrize(
        "args, code",
        [(["table", "--f", "2"], 0), (["verify", "--f", "1..2"], 1), (["table", "--f", "2", "--zzz", "1"], 2)],
        ids=["table", "failing-verify", "bad-option"],
    )
    def test_main_main_exits_with_the_code(self, monkeypatch, capsys, args, code):
        # the trace identity of every degree reported broken: verify exits 1
        monkeypatch.setattr(cli, "check_trace_identity", lambda f: (False, {Partition((f,)): 1}))
        with pytest.raises(SystemExit) as exit_info:
            main.main(args=args, prog_name="zonalpoly")
        assert exit_info.value.code == code
        out, err = capsys.readouterr()
        assert (out == "") == (code == 2) and (err == "") == (code != 2)

    def test_a_wrapped_callback_sees_each_call(self, monkeypatch, capsys):
        calls = []
        for name in ("table", "verify", "estimate"):
            command = main.commands[name]

            def wrapper(*args, _name=name, _callback=command.callback, **kwargs):
                calls.append(_name)
                return _callback(*args, **kwargs)

            monkeypatch.setattr(command, "callback", wrapper)
        runs = [
            ["table", "--f", "2"],
            ["verify", "--f", "1"],
            ["estimate", "trace-power", "--f", "1", "--A", "1,2", "--B", "3,1", "--samples", "10"],
            ["table", "--f", "3", "--format", "json"],
        ]
        for args in runs:
            with pytest.raises(SystemExit) as exit_info:
                main.main(args=args, prog_name="zonalpoly")
            assert exit_info.value.code == 0
        assert calls == ["table", "verify", "estimate", "table"]
        capsys.readouterr()


@pytest.mark.parametrize("threads", ("1", "2"))
def test_no_estimate_imports_a_thread_pool(threads):
    # the workers run on threading.Thread, which numpy loads anyway:
    # concurrent.futures, and the logging it loads, cost an estimate
    # several ms of import at any --threads
    code = (
        "import sys, zonalpoly.cli\n"
        "args = ['estimate', 'trace-power', '--f', '2', '--A', '1,2', '--B', '3,1',\n"
        f"        '--samples', '100', '--threads', '{threads}']\n"
        "assert zonalpoly.cli.main(args) == 0\n"
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
    )
    assert last_line_of_python(code) == "[]"


def test_every_exported_name_resolves():
    # the tracer in perfbench/spans.py looks up every name in these lists
    modules = [zonalpoly] + [
        importlib.import_module(f"zonalpoly.{info.name}")
        for info in pkgutil.iter_modules(zonalpoly.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_lazy_names_agree_with_all():
    # a stale _LAZY entry would keep a name visible after __all__ drops it
    for name, short in zonalpoly._LAZY.items():
        module = importlib.import_module(f"zonalpoly.{short}")
        assert name in zonalpoly.__all__, name
        assert name in vars(module) and name in module.__all__, (name, short)
    # _LAZY is the one list of names in __init__.py: every public name of the
    # numpy modules is on it
    haar, montecarlo = (importlib.import_module(f"zonalpoly.{m}") for m in ("haar", "montecarlo"))
    public = [*montecarlo.__all__, *haar.__all__]
    assert [n for n in public if n not in zonalpoly._LAZY] == []
    code = (
        "import sys, zonalpoly\n"
        "eager = [n for n in zonalpoly.__all__ if n not in zonalpoly._LAZY]\n"
        "print([n for n in eager if n not in vars(zonalpoly)], 'numpy' in sys.modules)"
    )
    assert last_line_of_python(code) == "[] False"
    assert set(zonalpoly.__all__) <= set(dir(zonalpoly))


#: ``series_value`` of ``estimate exp-series --A 1/4,1/2,3/4 --B 1,1/2,1/4
#: --max-degree 20``: the exact sum of the series' terms to degree 20.
EXP_SERIES_DEGREE_20 = (
    "81705805075927871605048587829790539809310302226949"
    "/52705178433578662706368265390809011339028070400000"
)

#: sha256 of the stdout of ``python tests/exact_bytes.py``; the CI
#: console-script job pins the same digest.
EXACT_BYTES_SHA256 = "bab0203b4347573836ad6315d1d33659dd78eca5ef5140a2ecbb8a54fac23e9a"


class TestOutputBytes:
    """Exact-integer outputs and the ``--help`` screens pinned byte for byte; any changed byte fails.

    The ``estimate`` pins are at n = 3, where each statistic takes only
    elementwise IEEE operations (no exp, no power beyond a square, no
    einsum or BLAS), so every numpy build rounds them alike.
    """

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["table", "--f", "12", "--basis", "powersum", "--format", "json"],
                "9ffaf076aaafb23abb7d30c886e1a7747847e8d3eda465877645d96b7b9bb798",
            ),
            (
                ["table", "--f", "10", "--basis", "powersum", "--format", "json"],
                "46d9e79626a0cb75ec1150c57bd1507fac3eed08d83ad2ccbec9e8606e6ef897",
            ),
            (
                ["table", "--f", "11", "--basis", "powersum", "--format", "json"],
                "6ac39b4841d9dcb75f8e7c71c973b52f5b78a00c7791dc4588af1dba1ae567a2",
            ),
            (
                ["table", "--f", "12", "--basis", "monomial", "--format", "json"],
                "837c704fc536808cffee7cb84b7f70eef656a7da231b8e4a7a62fe1ead32bf20",
            ),
            (
                ["verify", "--f", "1..12"],
                "60ca600d00cfc9deff19fde36c7cb449b2d30a50266b8f4b44267b163a48f64b",
            ),
            (
                ["table", "--f", "6", "--basis", "powersum", "--format", "csv"],
                "042e50dec975f1940bccbc4696c012fcff163a3a94d67214838bcb1cfc78a550",
            ),
            (
                ["table", "--f", "6", "--basis", "powersum", "--format", "text"],
                "61d913fb9c6c34cf7c64dc00e42bf77265cf54824c0eef2f64b961b54fe4e4ef",
            ),
            (
                ["table", "--f", "6", "--basis", "powersum", "--format", "latex"],
                "3b1508a3db7371ba3203eccb095835c92107486f5760ce768a6c5a8a1b31bbe7",
            ),
            (
                ["table", "--f", "6", "--basis", "monomial", "--format", "csv"],
                "c375c1639727b7e57afbb1878571b6204c56f8e48933488039ae5cc34976de1c",
            ),
            (
                ["table", "--f", "6", "--basis", "monomial", "--format", "text"],
                "c18edd7716e913be2f7d465de9679aab21c3fac7c0e1bfbb89eeccb65705f9db",
            ),
            (
                ["table", "--f", "6", "--basis", "monomial", "--format", "latex"],
                "24615fe7024c4ce0f6eed35db429865d0d3c5f93ba5b050fbfdd42dcc13cc935",
            ),
            (
                ["estimate", "trace-power", "--f", "2", "--A", "1,2,3", "--B", "3,1,2",
                 "--samples", "20000", "--seed", "7"],
                "19a09612c084ab1152811fb0498192d4b8b7d78bc008da5253175bd23fff3092",
            ),
            (
                ["estimate", "zonal-split", "--kappa", "2,1", "--A", "1,2,3", "--B", "3,1,2",
                 "--samples", "20000", "--seed", "7"],
                "348b61bbe63ccf7031ed50af1128e0fe1c9739fd93c0bedd8cfca93edf9bdeb4",
            ),
            (
                ["estimate", "trace-AH", "--f", "2", "--A", "1,2,3", "--samples", "20001", "--seed", "7"],
                "4e1a57f3a97adbab18f22b459d7f69d2f331f3b4389f7ba16463aa9550721823",
            ),
            (["--help"], "46dae151ac73609534970d8edcaa52d99d92ffcdbfdf7bc7010b9e276f5ce4e1"),
            (["table", "--help"], "6dabdb92ce9dd509bb6c007add37738db5a47d7df480b5eef3e1ff9f871e4e37"),
            (["verify", "--help"], "48a02d83288d1dc7c5f2180d2d7093ec3cd582e95e135007b3d07bf6262cdef9"),
            (["estimate", "--help"], "af1c35fec1f7d3c9a23e180d9fd20d04f0fa1507044a330f9a458b541da12b58"),
        ],
        ids=[
            "table-f12-powersum",
            "table-f10-powersum",
            "table-f11-powersum",
            "table-f12-monomial",
            "verify-f1-12",
            "table-f6-powersum-csv",
            "table-f6-powersum-text",
            "table-f6-powersum-latex",
            "table-f6-monomial-csv",
            "table-f6-monomial-text",
            "table-f6-monomial-latex",
            "estimate-trace-power-n3",
            "estimate-zonal-split-n3",
            "estimate-trace-AH-n3",
            "help",
            "table-help",
            "verify-help",
            "estimate-help",
        ],
    )
    def test_stdout_sha256(self, runner, args, digest):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest

    def test_exact_layer_sha256(self):
        # the trace-power integral, the bilinear sweep and the hyper0f0 terms
        # of tests/exact_bytes.py, in a fresh interpreter as the CI step runs it
        script = Path(__file__).resolve().parent / "exact_bytes.py"
        result = subprocess.run(
            [sys.executable, str(script)], env=package_env(), capture_output=True, check=True
        )
        assert hashlib.sha256(result.stdout).hexdigest() == EXACT_BYTES_SHA256


#: Each ``estimate`` kind's required options, with a valid value each at n = 2.
KIND_OPTIONS = {
    "trace-power": {"--f": "1", "--B": "3,1"},
    "zonal-split": {"--kappa": "2", "--B": "3,1"},
    "trace-AH": {"--f": "2"},
    "exp-series": {"--B": "3,1"},
}

#: A value for each option that some kind does not take: malformed where the
#: command, not the option parser, reads it, since such an option is refused
#: before it is read.
UNUSED_VALUES = {"--f": "2", "--B": "x", "--kappa": "x"}


class TestEstimate:
    def test_trace_power_first_moment(self, runner):
        result = runner.invoke(
            main,
            [
                "estimate", "trace-power",
                "--f", "1", "--A", "1,2", "--B", "3,1",
                "--samples", "20000", "--seed", "7",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["exact"] == "6"
        assert abs(float(payload["z_score"])) <= 4
        assert payload["samples"] == 20000

    def test_trace_power_zeroth_moment(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "trace-power", "--f", "0", "--A", "1,2", "--B", "3,1",
             "--samples", "100", "--seed", "0"],
        )
        payload = json.loads(result.output)
        assert payload["exact"] == "1"
        assert float(payload["std_err"]) == 0.0
        assert payload["samples"] == 0  # nothing is drawn
        result = runner.invoke(
            main,
            ["estimate", "trace-AH", "--f", "0", "--A", "1,2", "--samples", "100", "--seed", "0"],
        )
        payload = json.loads(result.output)
        assert payload["exact"] == "1"
        assert payload["samples"] == 0

    def test_zonal_split(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "zonal-split", "--kappa", "2", "--A", "1,2", "--B", "3,1",
             "--samples", "20000", "--seed", "3"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        # Z_(2)(1,2) * Z_(2)(3,1) / Z_(2)(I_2) = 19 * 36 / 8
        assert payload["exact"] == "171/2"
        assert abs(float(payload["z_score"])) <= 4

    def test_zonal_split_takes_spectra_signed_on_both_sides(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "zonal-split", "--kappa", "2,1", "--A=-1,2,3", "--B=1,-2,1/2",
             "--samples", "20000", "--seed", "7"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        # Z_(2,1)(-1,2,3) Z_(2,1)(1,-2,1/2) / Z_(2,1)(I_3) = 52 * 11 / 30
        assert payload["exact"] == "286/15"
        assert abs(float(payload["z_score"])) <= 4
        assert payload["samples"] == 20000

    def test_trace_ah(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "trace-AH", "--f", "4", "--A", "1,2",
             "--samples", "20000", "--seed", "3"],
        )
        payload = json.loads(result.output)
        assert payload["exact"] == "123/8"
        assert abs(float(payload["z_score"])) <= 4

    def test_exp_series(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "exp-series", "--A", "1,2", "--B", "1,3",
             "--max-degree", "12", "--samples", "50000", "--seed", "5"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        estimate = float(payload["estimate"])
        exact = float(payload["exact"])
        assert abs(exact - estimate) / estimate < 0.02
        assert "tail_bound" in payload

    def test_exp_series_value_at_degree_20_is_pinned(self, runner):
        # the exact series to degree 20 at n = 3, read from rows capped at 3
        # parts; CI's "Exact series at degree 20" step checks the same string
        result = runner.invoke(
            main,
            ["estimate", "exp-series", "--A", "1/4,1/2,3/4", "--B", "1,1/2,1/4",
             "--max-degree", "20", "--samples", "1000", "--seed", "1"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["series_value"] == EXP_SERIES_DEGREE_20

    def test_exp_series_bounds_the_tail_of_signed_spectra(self, runner):
        # a = (-1, 2) and b = (1, 3) pair to 5 sorted alike and to -1 sorted
        # opposite, so |tr| <= 5 on every draw, as for a = b = (1, 2); the
        # absolute values would pair to 7
        signed, unsigned = (
            json.loads(
                runner.invoke(
                    main,
                    ["estimate", "exp-series", "--A", a, "--B", b, "--samples", "1000"],
                ).output
            )
            for a, b in (("-1,2", "1,3"), ("1,2", "1,2"))
        )
        assert signed["tail_bound"] == unsigned["tail_bound"] == "2.9045483506499294e-05"

    def test_exp_series_of_wide_signed_spectra_is_bounded(self, runner):
        # |tr| <= 30 on O(2): the pairings are -30 * 29 + 30 * 30 = 30 and
        # -30 * 30 + 30 * 29 = -30, where |a| and |b| would pair to 1770
        result = runner.invoke(
            main,
            ["estimate", "exp-series", "--A", "-30,30", "--B", "29,30", "--samples", "1000", "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        assert float(json.loads(result.output)["tail_bound"]) == pytest.approx(2394192.2552465633, rel=1e-15)

    def test_constant_integrand_z_score_is_bounded(self, runner):
        # A scalar A makes tr(A Q B Q') constant; the sample spread is only
        # rounding noise and must not blow up the z-score.
        result = runner.invoke(
            main,
            ["estimate", "exp-series", "--A", "1/2,1/2,1/2", "--B", "1/4,1/2,1",
             "--samples", "20000", "--seed", "3"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert float(payload["std_err"]) < 1e-15
        assert abs(float(payload["z_score"])) <= 5

    def test_rational_eigenvalues_accepted(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "trace-power", "--f", "1", "--A", "1/2,2", "--B", "3,1",
             "--samples", "1000", "--seed", "0"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["exact"] == "5"

    def test_deterministic_given_seed(self, runner):
        args = ["estimate", "trace-power", "--f", "2", "--A", "1,2", "--B", "3,1",
                "--samples", "5000", "--seed", "11", "--threads", "2"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_only_the_threads_line_depends_on_threads(self, runner):
        args = ["estimate", "zonal-split", "--kappa", "2,1", "--A", "1,2,3", "--B", "3,1,2",
                "--samples", "5000", "--seed", "11", "--threads"]
        one, two = (runner.invoke(main, [*args, threads]).output.splitlines() for threads in "12")
        assert len(one) == len(two)
        changed = [(a, b) for a, b in zip(one, two) if a != b]
        assert changed == [('    "threads": 1', '    "threads": 2')]

    def test_eigenvalue_count_mismatch_is_usage_error(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "trace-power", "--f", "1", "--A", "1,2", "--B", "3",
             "--samples", "100"],
        )
        assert result.exit_code == 2

    def test_kappa_longer_than_dimension_is_usage_error(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "zonal-split", "--kappa", "1,1,1", "--A", "1,2", "--B", "3,1",
             "--samples", "100"],
        )
        assert result.exit_code == 2
        result = runner.invoke(
            main,
            ["estimate", "zonal-split", "--kappa=", "--A", "1,2", "--B", "3,1",
             "--samples", "100"],
        )
        assert result.exit_code == 2
        assert "--kappa must be a nonempty partition" in result.output

    def test_too_few_samples_is_usage_error(self, runner):
        # and every other integer out of its range
        for args, option, value in (
            (["trace-power", "--f", "1", "--B", "1,2"], "--samples", "1"),
            (["trace-power", "--f", "1", "--B", "1,2"], "--samples", "0"),
            (["trace-power", "--f", "1", "--B", "1,2"], "--threads", "0"),
            (["trace-power", "--f", "1", "--B", "1,2"], "--seed", "-1"),
            (["trace-power", "--B", "1,2"], "--f", "-1"),
            (["trace-AH"], "--f", "-2"),
            (["exp-series", "--B", "1,2"], "--max-degree", "-1"),
        ):
            result = runner.invoke(main, ["estimate", *args, "--A", "1,2", option, value])
            assert_refused(result, option, value)

    def test_missing_A_is_usage_error(self, runner):
        for kind, options in KIND_OPTIONS.items():
            result = runner.invoke(main, ["estimate", kind, *sum(options.items(), ())])
            assert result.exit_code == 2
            assert result.stdout == ""
            assert "--A" in result.output

    def test_help_shows_the_integer_ranges(self, runner):
        # --help wraps its lines; joined, each entry runs to its bracket
        output = " ".join(runner.invoke(main, ["estimate", "--help"]).output.split())
        for option, shown in (
            ("--f", "x>=0"),
            ("--A", "required"),
            ("--samples", "default: 100000; x>=2"),
            ("--seed", "default: 0; x>=0"),
            ("--threads", "default: 1; x>=1"),
            ("--max-degree", "default: 12; x>=0"),
        ):
            assert re.search(rf" {option}\b[^\[]*\[([^\]]*)\]", output)[1] == shown

    def test_seed_is_any_nonnegative_integer(self, runner):
        # numpy seeds from an integer of any size, so --seed is not capped at 64 bits
        assert "Nonnegative integer RNG seed." in runner.invoke(main, ["estimate", "--help"]).output
        result = runner.invoke(
            main,
            ["estimate", "trace-power", "--f", "1", "--A", "1,2", "--B", "3,1",
             "--samples", "100", "--seed", str(2**100)],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["parameters"]["seed"] == 2**100

    def test_float_overflow_is_usage_error(self, runner):
        # 1e400 has no float; with 1e300 the exact moment (about 1e600) has none
        base = ["estimate", "trace-power", "--f", "2", "--B", "1,2", "--samples", "100"]
        result = runner.invoke(main, [*base, "--A", "1e400,1"])
        assert result.exit_code == 2
        assert "an eigenvalue in --A is too large for a float" in result.output
        result = runner.invoke(main, [*base, "--A", "1e300,1"])
        assert result.exit_code == 2
        assert "trace-power needs a value too large for a float" in result.output

    def test_exp_series_overflow_is_usage_error(self, runner):
        # the series value is finite, but exp(tr / 2) overflows on some draws;
        # |tr| <= s = 40 * 40 - 40 * 1 on every draw, attained at a permutation,
        # so the tail bound exp(s / 2) overflows first, before a single draw
        args = ["estimate", "exp-series", "--A", "-40,40", "--B", "40,1", "--samples", "1000", "--seed", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "exp-series needs a value too large for a float" in result.output
        assert "the tail bound needs exp(780)" in result.output

    def test_variance_overflow_is_usage_error(self, runner):
        # every sample is finite and so is their mean, but their squares are not
        args = [
            "estimate", "trace-power", "--f", "20", "--A", "1000000,2000000,3000000",
            "--B", "1000000,2000000,3000000", "--samples", "1000",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "trace-power needs a value too large for a float" in result.output
        assert "variance is not finite" in result.output

    def test_unallocatable_samples_is_usage_error(self, runner, monkeypatch):
        # a block of draws too large for memory, without allocating one: the
        # message names the block, which lowering --samples does not shrink,
        # by what a worker holds: quaternions at n = 3, matrices elsewhere
        from zonalpoly.haar import BLOCK

        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr("zonalpoly.montecarlo.mc_trace_power", out_of_memory)
        for spec, held in (("1,2,3", "quaternions"), ("1,2,3,4", "4 x 4 matrices")):
            n = spec.count(",") + 1
            result = runner.invoke(main, ["estimate", "trace-power", "--f", "2", "--A", spec, "--B", spec])
            assert result.exit_code == 2
            assert "Unable to allocate" in result.output
            assert f"a block of up to {BLOCK // n} draws of {held}" in result.output
            assert "lower --samples" not in result.output

    def test_unallocatable_series_is_usage_error(self, runner, monkeypatch):
        # the series step holds its exact terms, not a block of draws: lowering
        # --max-degree is what shrinks it
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr("zonalpoly.cli.hyper0f0", out_of_memory)
        result = runner.invoke(main, ["estimate", "exp-series", "--A", "1,2,3", "--B", "1,2,3"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Unable to allocate" in result.output
        assert "lower --max-degree" in result.output
        assert "block of" not in result.output

    def test_report_keeps_resampled_key_at_zero(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "trace-power", "--f", "2", "--A", "1,2", "--B", "3,1", "--samples", "100"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["resampled"] == 0

    def test_bad_eigenvalue_list_is_usage_error(self, runner):
        for spec in ("1,x", "1,1/0"):
            result = runner.invoke(
                main,
                ["estimate", "trace-power", "--f", "1", "--A", spec, "--B", "1,2",
                 "--samples", "100"],
            )
            assert result.exit_code == 2
            assert "bad eigenvalue list for --A" in result.output

    def test_unknown_kind_is_usage_error(self, runner):
        result = runner.invoke(main, ["estimate", "bogus", "--A", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "kind, missing, message",
        [
            ("trace-power", "--f", "trace-power needs --f and --B"),
            ("trace-power", "--B", "trace-power needs --f and --B"),
            ("zonal-split", "--kappa", "zonal-split needs --kappa and --B"),
            ("zonal-split", "--B", "zonal-split needs --kappa and --B"),
            ("trace-AH", "--f", "trace-AH needs --f"),
            ("exp-series", "--B", "exp-series needs --B"),
        ],
    )
    def test_missing_option_is_usage_error(self, runner, kind, missing, message):
        options = {k: v for k, v in KIND_OPTIONS[kind].items() if k != missing}
        result = runner.invoke(
            main, ["estimate", kind, "--A", "1,2", *sum(options.items(), ()), "--samples", "100"]
        )
        assert result.exit_code == 2
        assert f"Error: {message}\n" in result.output

    @pytest.mark.parametrize(
        "kind, unused",
        [
            (kind, option)
            for kind, options in KIND_OPTIONS.items()
            for option in UNUSED_VALUES
            if option not in options
        ],
    )
    def test_option_the_kind_does_not_take_is_usage_error(self, runner, kind, unused):
        options = {**KIND_OPTIONS[kind], unused: UNUSED_VALUES[unused]}
        result = runner.invoke(
            main, ["estimate", kind, "--A", "1,2", *sum(options.items(), ()), "--samples", "100"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Error: {kind} takes no {unused}\n" in result.output

    @pytest.mark.parametrize("kind", [kind for kind in KIND_OPTIONS if kind != "exp-series"])
    @pytest.mark.parametrize("value", ("20", "12"))
    def test_max_degree_on_a_kind_that_does_not_read_it_is_usage_error(self, runner, kind, value):
        # only exp-series reads --max-degree; given to any other kind, even at
        # its default value, it is refused like any option the kind does not take
        options = {**KIND_OPTIONS[kind], "--max-degree": value}
        result = runner.invoke(
            main, ["estimate", kind, "--A", "1,2", *sum(options.items(), ()), "--samples", "100"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Error: {kind} takes no --max-degree\n" in result.output


class TestDimensionFlag:
    def test_matching_dimension_accepted(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "trace-power", "--f", "1", "--n", "2", "--A", "1,2",
             "--B", "3,1", "--samples", "100", "--seed", "0"],
        )
        assert result.exit_code == 0

    def test_mismatched_dimension_is_usage_error(self, runner):
        result = runner.invoke(
            main,
            ["estimate", "trace-power", "--f", "1", "--n", "3", "--A", "1,2",
             "--B", "3,1", "--samples", "100"],
        )
        assert result.exit_code == 2
