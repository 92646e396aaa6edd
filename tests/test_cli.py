"""End-to-end CLI checks: headers, formats, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from pbtbounds import pbt
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
            assert float(cells[3]) == pytest.approx(pbt.delta_exact_qubit(6), rel=rel)


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
        ],
    )
    def test_rejected_float_exits_one_with_one_error_line(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_nan_range_end_is_named(self, capsys):
        assert main(["ad-sweep", "--p-max", "nan"]) == 1
        assert capsys.readouterr().err == "error: range end nan outside [0.8, inf]\n"

    def test_io_failure(self, tmp_path, capsys):
        target = tmp_path / "missing" / "table.csv"
        code = main(["--out", str(target), "xi-table", "--m-max", "4"])
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["ad-sweep", "--m-list", "a"],
            ["xi-table", "--m-max", "x"],
            ["keyrate", "--measure", "XX"],
            ["--format", "yaml", "xi-table"],
            ["no-such-command"],
            [],
        ],
    )
    def test_parse_error_exits_one(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_oracle_verify_passes(self, capsys):
        assert main(["oracle-verify", "--m-max", "3"]) == 0
        capsys.readouterr()


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

    Default precision, except the 61-row metrology grid at 17 digits, captured
    from the per-state route before the stacked route replaced it.
    """

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["xi-table", "--m-max", "64"], "xi_table_m64.csv"),
            (["ad-sweep"], "ad_sweep_default.csv"),
            (["keyrate"], "keyrate_default.csv"),
            (["keyrate", "--d", "3"], "keyrate_d3.csv"),
            (["resolution"], "resolution_default.csv"),
            (["illumination"], "illumination_default.csv"),
            (["illumination", "--d", "8", "--b", "0.0015", "--eta-min", "1e-4", "--eta-max", "0.0085"],
             "illumination_d8.csv"),
            (["metrology"], "metrology_default.csv"),
            (["--precision", "17", "metrology", "--steps", "61"], "metrology_steps61.csv"),
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
