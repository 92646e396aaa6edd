"""End-to-end CLI checks: headers, formats, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import _exact_sums, delta_exact_qubit
from pbtbounds import cli, pbt, pbt_oracle
from pbtbounds.cli import JSON_SCHEMA, OUT_DIR_ENV, main

HEADERS = {
    "xi-table": "M,xi,f_e,delta,delta_upper,M_xi,identity_ok",
    "oracle-verify": "M,xi_closed,xi_oracle,abs_diff,isotropy_residual",
    "ad-sweep": "p,block_lower,block_upper,lb_M10,lb_M100,lb_optimized,argmax_M",
    "resolution": "s,F_closed,F_choi,bound_small_s,bound_exact_eps,bound_linear,regime_ok",
    "illumination": "eta,F_exact,F_approx,approx_regime_ok,bound_lower,separable_upper",
    "metrology": "p,qfi,step_sensitivity,qfi_bound,variance_floor,step_ok",
    "keyrate": "e_r,m_tilde,K_at_m_tilde,argmin_M,K_min,finite_R,finite_valid",
}

DATA_DIR = Path(__file__).parent / "data"
# the xi kernel's computing half: below 100 ports it reads its literal table of exact sums
_KERNELS = ("_xi_series",)

# trimmed arguments so the whole matrix stays fast
FAST_ARGS = {
    "xi-table": ["xi-table", "--m-max", "8"],
    "oracle-verify": ["oracle-verify", "--m-max", "4"],
    "ad-sweep": ["ad-sweep", "--steps", "4", "--m-list", "10,100"],
    "resolution": ["resolution", "--steps", "5"],
    "illumination": ["illumination", "--steps", "4"],
    "metrology": ["metrology", "--steps", "3"],
    "keyrate": ["keyrate"],
}


# a 401-digit integer: far past 2**53 and past the float range
HUGE = "1" + "0" * 400

# argv that argparse rejects: main exits 1 with the usage message on stderr
PARSE_ERROR_ARGV = [
    ["ad-sweep", "--m-list", "a"],
    ["xi-table", "--m-max", "x"],
    ["keyrate", "--measure", "XX"],
    ["--format", "yaml", "xi-table"],
    ["no-such-command"],
    [],
]


def _run(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


class TestCsvOutput:
    @pytest.mark.parametrize("command", sorted(HEADERS))
    def test_header_and_exit_code(self, command, capsys):
        argv = list(FAST_ARGS[command])
        if command == "ad-sweep":
            argv = ["ad-sweep", "--steps", "2", "--m-list", "10,100"]
        code, out = _run(argv, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == HEADERS[command]
        assert len(lines) > 1

    def test_repeated_port_count_gives_one_column(self, capsys):
        code, out = _run(["ad-sweep", "--steps", "2", "--m-list", "10,10"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,block_lower,block_upper,lb_M10,lb_optimized,argmax_M"
        assert all(line.count(",") == 5 for line in lines)

    def test_booleans_render_lowercase(self, capsys):
        _, out = _run(["xi-table", "--m-max", "4"], capsys)
        for line in out.strip().split("\n")[1:]:
            assert line.split(",")[-1] == "true"

    def test_cells_round_trip_at_requested_precision(self, capsys):
        for precision, rel in ((3, 1e-2), (12, 1e-11), (15, 1e-14)):
            _, out = _run(
                ["--precision", str(precision), "xi-table", "--m-min", "6", "--m-max", "6"],
                capsys,
            )
            cells = out.strip().split("\n")[1].split(",")
            assert float(cells[1]) == pytest.approx(pbt.xi(6), rel=rel)
            assert float(cells[3]) == pytest.approx(delta_exact_qubit(6), rel=rel)

    def test_xi_table_runs_each_port_count_once(self, capsys, monkeypatch):
        # the series runs once per port count from 100 on, the rows below read the exact sums,
        # and the delta column comes from the xi column in hand
        series, runs = pbt._xi_series, []
        monkeypatch.setattr(pbt, "_xi_series", lambda M: runs.append(M) or series(M))
        code, out = _run(["--precision", "17", "xi-table", "--m-min", "60", "--m-max", "140"], capsys)
        assert code == 0
        assert runs == list(range(100, 141))
        exact = _exact_sums(np.arange(60, 100))
        for line in out.strip().split("\n")[1:]:
            M, x, fe, delta = line.split(",")[:4]
            assert float(delta) == delta_exact_qubit(int(M))
            if int(M) < 100:
                assert [float(x), float(fe)] == [v[int(M) - 60] for v in exact]


class TestJsonOutput:
    def test_schema_and_shape(self, capsys):
        code, out = _run(["--format", "json", "xi-table", "--m-max", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == JSON_SCHEMA
        assert payload["command"] == "xi-table"
        assert payload["columns"] == HEADERS["xi-table"].split(",")
        assert len(payload["rows"]) == 4
        assert all(isinstance(cell, str) for row in payload["rows"] for cell in row)


class TestExitCodes:
    def test_validation_failure(self, capsys):
        code = main(["xi-table", "--m-min", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        # e_r <= log2 d for REE and squashed entanglement; the error names e_r
        assert main(["keyrate", "--d", "2", "--e-r-list", "1.5"]) == 1
        err = capsys.readouterr().err
        assert "e_r = 1.5" in err and "port count" not in err
        assert main(["keyrate", "--d", "3", "--e-r-list", "3"]) == 1
        capsys.readouterr()
        # e_r = log2 d is accepted and gives the smallest m_tilde, sqrt(2d(d-1))
        code, out = _run(["keyrate", "--d", "2", "--e-r-list", "1"], capsys)
        assert code == 0
        assert out.split("\n")[1].split(",")[1] == "2"

    def test_bad_precision(self, capsys):
        for precision in (0, 18):
            assert main(["--precision", str(precision), "xi-table"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: precision {precision} outside [1, 17]\n"

    def test_metrology_step_collision(self, capsys):
        assert main(["metrology", "--p-min", "0.0", "--steps", "2"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["illumination", "--b", "nan"],
            ["keyrate", "--c", "nan"],
            ["keyrate", "--c", "inf"],
            ["metrology", "--dtheta", "1e-170"],  # (dtheta/2)^2 underflows to 0
            ["keyrate", "--e-r-list", "1e-300"],  # its port grid would end above 2^53
        ],
    )
    def test_rejected_float_exits_one_with_one_error_line(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["resolution", "--s-max", "inf", "--steps", "3"], "range end inf outside [0.0, inf)"),
            (["metrology", "--p-max", "inf", "--steps", "2"], "range end inf outside [0.2, inf)"),
            (["resolution", "--s-min", "nan", "--s-max", "1"], "range start nan outside (-inf, inf)"),
            (["resolution", "--s-min=-inf", "--s-max", "1"], "range start -inf outside (-inf, inf)"),
            (["resolution", "--s-min", "inf", "--s-max", "inf", "--steps", "1"],
             "range start inf outside (-inf, inf)"),
            (["ad-sweep", "--p-max", "nan"], "range end nan outside [0.8, inf]"),
            # the step is checked before the grid points, so p is not blamed
            (["metrology", "--dtheta", "nan"], "step nan outside (0, inf)"),
            (["metrology", "--dtheta", "inf"], "step inf outside (0, inf)"),
        ],
    )
    def test_non_finite_range_end_is_named(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, unreached",
        [
            (["keyrate", "--e-r-list", "1e-25"], _KERNELS),  # argmin_M 30259696881948
            (["ad-sweep", "--m-list", "9223372036854775808"], _KERNELS),
            (["xi-table", "--m-max", "10000000001"], ("_series",)),  # rejected before the range
        ],
        ids=["keyrate", "ad-sweep", "xi-table"],
    )
    def test_port_count_above_the_kernel_limit_exits_one(self, argv, unreached, capsys, monkeypatch):
        # rejected before any kernel pass: the series is pinned only up to 10**10
        for name in unreached:
            monkeypatch.setattr(pbt, name, lambda *a, name=name: pytest.fail(f"{name} reached"))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "10000000000" in captured.err

    @pytest.mark.parametrize(
        "m_min, m_max", [(2, 10**10), (2, 100_002), (10**9, 10**9 + 100_000)]
    )
    def test_xi_table_above_the_row_limit_exits_one(self, m_min, m_max, capsys, monkeypatch):
        # every port count is within the kernel's limit, but the range is
        # rejected before the kernel checks a member
        monkeypatch.setattr(pbt, "_series", lambda *a: pytest.fail("_series reached"))
        assert main(["xi-table", "--m-min", str(m_min), "--m-max", str(m_max)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: xi-table prints at most 100000 rows, got [{m_min}, {m_max}]\n"

    def test_xi_table_at_the_row_limit_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_ROWS", 3)
        code, out = _run(["xi-table", "--m-min", "2", "--m-max", "4"], capsys)
        assert code == 0 and len(out.splitlines()) == 4
        assert main(["xi-table", "--m-min", "2", "--m-max", "5"]) == 1

    def test_xi_table_at_the_top_of_the_port_range_runs_small(self, capsys):
        # 1000 port counts at 10**10: the series costs the same at any M
        tracemalloc.start()
        try:
            code = main(["xi-table", "--m-min", "9999999001", "--m-max", "10000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0 and len(out.splitlines()) == 1001
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("command", ["ad-sweep", "resolution", "illumination", "metrology"])
    def test_steps_above_the_row_limit_exits_one(self, command, capsys, monkeypatch):
        # rejected before the grid is built: 10**9 points would exhaust memory
        monkeypatch.setattr(cli, "range", lambda *a: pytest.fail("grid built"), raising=False)
        assert main([command, "--steps", "1000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: steps 1000000000 must be an integer in [1, 100000]\n"

    def test_steps_at_the_row_limit_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_ROWS", 3)
        code, out = _run(["resolution", "--steps", "3"], capsys)
        assert code == 0 and len(out.splitlines()) == 4
        assert main(["resolution", "--steps", "4"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["metrology", "--n", HUGE],
            ["resolution", "--n", HUGE],
            ["illumination", "--n", HUGE],
            ["keyrate", "--n", HUGE],
            ["illumination", "--d", HUGE],
            ["keyrate", "--d", HUGE],
            ["metrology", "--n", str(2**53 + 1)],
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}={'401-digit' if argv[2] == HUGE else argv[2]}",
    )
    def test_integer_above_2_53_exits_one_with_one_error_line(self, argv, capsys):
        # a ValueError naming the argument, not an OverflowError traceback
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "above 2**53" in captured.err

    def test_integer_at_2_53_runs(self, capsys):
        code, out = _run(["metrology", "--n", str(2**53), "--steps", "1"], capsys)
        assert code == 0 and len(out.splitlines()) == 2

    @pytest.mark.parametrize("argv", [["keyrate", "--e-r-list", ""], ["ad-sweep", "--m-list", ""]])
    def test_empty_list_argument_rejected(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parameter grids must be nonempty\n"

    def test_io_failure(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        code = main(["--out", str(target), "xi-table", "--m-max", "4"])
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("argv", PARSE_ERROR_ARGV)
    def test_parse_error_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [None, *HEADERS], ids=lambda c: c or "top-level")
    def test_help_exits_zero(self, command, capsys):
        # a subcommand's help comes from the parser built only for that subcommand
        argv = ["--help"] if command is None else [command, "--help"]
        assert main(argv) == 0
        usage = "usage: pbtbounds" if command is None else f"usage: pbtbounds {command} "
        assert capsys.readouterr().out.startswith(usage)

    def test_oracle_verify_passes(self, capsys):
        assert main(["oracle-verify", "--m-max", "3"]) == 0
        capsys.readouterr()

    def test_oracle_verify_above_m_max_exits_one(self, monkeypatch, capsys):
        # rejected before any sector is solved; M = 13 would need ~0.8 GB
        monkeypatch.setattr(pbt_oracle, "_solve_sectors", lambda M: pytest.fail("solve reached"))
        assert main(["oracle-verify", "--m-max", "13"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: M_max 13 outside [2, 12]\n"

    def test_oracle_mismatch_exits_two(self, monkeypatch, capsys):
        # the closed-form xi column shifted past the 1e-9 agreement bound
        series = pbt._series

        def shifted(grid):
            xis, fes = series(grid)
            return [x + 1e-6 for x in xis], fes

        monkeypatch.setattr(pbt, "_series", shifted)
        assert main(["oracle-verify", "--m-max", "3"]) == 2
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert lines[0] == HEADERS["oracle-verify"]
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "3"]
        assert all(float(line.split(",")[3]) > 1e-9 for line in lines[1:])
        assert captured.err.splitlines() == ["error: oracle disagrees with the closed form"]


def _eager_parser() -> argparse.ArgumentParser:
    """The same command table with plain subparsers and every argument added up front."""
    parser = argparse.ArgumentParser(prog="pbtbounds", description=cli._DESCRIPTION)
    cli._with_arguments(parser, cli._OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli._COMMANDS.items():
        cli._with_arguments(sub.add_parser(name, help=command.help), command.arguments)
    return parser


class TestDeferredParser:
    """Only the subcommand being run gets a parser, and no call can tell."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            *([name, "--help"] for name in HEADERS),
            *PARSE_ERROR_ARGV,
            ["--prec", "5", "xi-table", "--m-ma", "3"],  # abbreviated options
            ["--prec", "5", "xi-table", "--m-m", "3"],  # an ambiguous abbreviation
            ["xi-table", "--precision", "5"],  # a global option after the subcommand
        ],
        ids=lambda argv: " ".join(argv) or "no-argv",
    )
    def test_matches_an_eager_parser(self, argv, capsys, monkeypatch):
        deferred = main(argv), capsys.readouterr()
        monkeypatch.setattr(cli, "_build_parser", _eager_parser)
        assert (main(argv), capsys.readouterr()) == deferred

    def test_main_builds_two_parsers(self, capsys, monkeypatch):
        progs, init = [], argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        assert main(["keyrate"]) == 0
        capsys.readouterr()
        assert progs == ["pbtbounds", "pbtbounds keyrate"]


class TestProcessExitCodes:
    """The console entry point hands main's exit code to the shell."""

    @pytest.mark.parametrize(
        "argv, code", [(["xi-table", "--m-max", "3"], 0), (["xi-table", "--m-min", "1"], 1)]
    )
    def test_exit_code_reaches_the_shell(self, argv, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "pbtbounds.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == code
        if code == 0:
            assert proc.stdout.startswith(HEADERS["xi-table"] + "\n")
        else:
            assert proc.stdout == "" and proc.stderr.startswith("error: ")


class TestFileOutput:
    def test_absolute_path(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        assert main(["--out", str(target), "xi-table", "--m-max", "4"]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith(HEADERS["xi-table"])

    def test_relative_path_resolves_under_env_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        assert main(["--out", "rel.csv", "xi-table", "--m-max", "4"]) == 0
        capsys.readouterr()
        assert (tmp_path / "rel.csv").read_text().startswith(HEADERS["xi-table"])


class TestDeterminism:
    @pytest.mark.parametrize("command", sorted(FAST_ARGS))
    def test_repeat_runs_are_byte_identical(self, command, capsys):
        code1, out1 = _run(FAST_ARGS[command], capsys)
        code2, out2 = _run(FAST_ARGS[command], capsys)
        assert code1 == code2 == 0
        assert out1 == out2


class TestGoldenTables:
    """Tables pinned byte for byte; a kernel change must reproduce them.

    Default precision, except two tables at 17 digits: the 61-row metrology
    grid, captured from the per-state route before the stacked route replaced
    it, and the xi table, which pins the last bits of the batched xi/f_e kernel.
    """

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["xi-table", "--m-max", "64"], "xi_table_m64.csv"),
            (["ad-sweep"], "ad_sweep_default.csv"),
            (["keyrate"], "keyrate_default.csv"),
            (["keyrate", "--d", "3"], "keyrate_d3.csv"),
            (["keyrate", "--measure", "SE", "--n", "10", "--epsilon", "1e-4"], "keyrate_se.csv"),
            (["resolution"], "resolution_default.csv"),
            (["illumination"], "illumination_default.csv"),
            (["illumination", "--d", "8", "--b", "0.0015", "--eta-min", "1e-4", "--eta-max", "0.0085"],
             "illumination_d8.csv"),
            (["metrology"], "metrology_default.csv"),
            (["--precision", "17", "metrology", "--steps", "61"], "metrology_steps61.csv"),
            (["--precision", "17", "xi-table", "--m-max", "64"], "xi_table_m64_p17.csv"),
        ],
    )
    def test_matches_committed_table(self, argv, name, capsys):
        code, out = _run(argv, capsys)
        assert code == 0
        assert out.encode() == (DATA_DIR / name).read_bytes()

    def test_oracle_verify_pinned_by_tolerance(self, capsys):
        # the closed-form cells are pinned byte for byte by the xi table; the
        # oracle's differences are float rounding noise, so they get a bound
        code, out = _run(["oracle-verify", "--m-max", "8"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        xi_rows = (DATA_DIR / "xi_table_m64.csv").read_text().strip().split("\n")[1:]
        assert [r[:2] for r in rows] == [line.split(",")[:2] for line in xi_rows[:7]]
        for _, closed, oracle, abs_diff, residual in rows:
            assert abs(float(oracle) - float(closed)) <= 1e-12
            assert float(abs_diff) <= 1e-12
            assert float(residual) <= 1e-12
