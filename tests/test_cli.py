"""Command-line interface: formats, round-trips, determinism, exit codes."""

import csv
import io
import json
import math

import numpy as np
import pytest

import extremal.hilbert as hb
from extremal.cli import RunConfig, main
from extremal.majorants import G_closed, M_closed, beurling_b


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_csv_header_and_shape(self, capsys):
        code, out, _ = run(capsys, "eval", "--grid", "-5:5:11")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,G,M,B,psi,phi"
        assert len(lines) == 12

    def test_csv_round_trip_bit_exact(self, capsys):
        code, out, _ = run(capsys, "eval", "--grid", "-2.5:3.5:13")
        assert code == 0
        reader = csv.DictReader(io.StringIO(out))
        for row in reader:
            x = float(row["x"])
            assert float(row["G"]) == G_closed(x)
            assert float(row["M"]) == M_closed(x)
            assert float(row["B"]) == beurling_b(x)

    def test_majorant_property_columnwise(self, capsys):
        _, out, _ = run(capsys, "eval", "--grid", "-5:5:11")
        for row in csv.DictReader(io.StringIO(out)):
            x = float(row["x"])
            assert float(row["M"]) >= np.sign(x) - 1e-12
            assert float(row["B"]) >= np.sign(x) - 1e-12

    def test_integer_grid_beurling_interpolates(self, capsys):
        _, out, _ = run(capsys, "eval", "--grid", "-3:3:7")
        for row in csv.DictReader(io.StringIO(out)):
            x = float(row["x"])
            expected = 1.0 if x >= 0.0 else -1.0
            assert float(row["B"]) == expected

    def test_origin_row(self, capsys):
        _, out, _ = run(capsys, "eval", "--grid", "0:1:2")
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["G"]) == pytest.approx(1.0749, abs=5e-4)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "eval", "--grid", "0:2:3", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["columns"]["x"] == [0.0, 1.0, 2.0]
        assert set(rep["columns"]) == {"x", "G", "M", "B", "psi", "phi"}
        assert rep["tolerance_achieved"] <= rep["tolerance_requested"]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "eval", "--grid", "0:1:2", "-o", str(target))
        assert code == 0
        assert target.read_text().startswith("x,G,M,B,psi,phi")

    @pytest.mark.parametrize(
        "grid", ["5:1:10", "1:1:5", "0:1:1", "abc", "1:2", "1:2:3:4", "nan:1:5"]
    )
    def test_bad_grid_exits_2(self, grid, capsys):
        code, _, err = run(capsys, "eval", "--grid", grid)
        assert code == 2

    def test_bad_tol_exits_2(self, capsys):
        code, _, _ = run(capsys, "eval", "--grid", "0:1:2", "--tol", "1e-15")
        assert code == 2


class TestVerify:
    def test_passes_and_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["all_passed"] is True
        names = {c["name"] for c in rep["checks"]}
        assert "integral_psi" in names
        assert "band_residual_psi" in names
        for check in rep["checks"]:
            assert check["passed"] is True
            assert check["residual"] <= check["limit"]

    def test_psi_integral_value(self, capsys):
        _, out, _ = run(capsys, "verify", "--seed", "1")
        rep = json.loads(out)
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["integral_psi"]["residual"] <= 1e-8

    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run(capsys, "verify", "--seed", "7")
        _, out2, _ = run(capsys, "verify", "--seed", "7")
        assert out1 == out2

    def test_seed_changes_random_sections(self, capsys):
        _, out1, _ = run(capsys, "verify", "--seed", "1")
        _, out2, _ = run(capsys, "verify", "--seed", "2")
        rep1, rep2 = json.loads(out1), json.loads(out2)
        assert rep1["all_passed"] and rep2["all_passed"]
        assert rep1["seed"] != rep2["seed"]


class TestHilbert:
    def write_nodes(self, tmp_path, text):
        p = tmp_path / "nodes.txt"
        p.write_text(text)
        return str(p)

    def test_basic_report(self, tmp_path, capsys):
        nodes = self.write_nodes(tmp_path, "# three nodes\n1.0\n2.0\n\n3.0\n")
        code, out, _ = run(capsys, "hilbert", "--nodes", nodes)
        assert code == 0
        rep = json.loads(out)
        assert rep["n_nodes"] == 3
        assert rep["deltas"] == [1.0, 1.0, 1.0]
        assert rep["sharp_constant"]["value"] == pytest.approx(1.5, abs=1e-9)
        assert "bilinear_form" not in rep

    def test_with_coefficients(self, tmp_path, capsys):
        nodes = self.write_nodes(tmp_path, "0.0\n0.25\n")
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("1.0,0.0\n0.0,1.0\n")
        code, out, _ = run(
            capsys, "hilbert", "--nodes", nodes, "--coeffs", str(coeffs), "--constant", "6.5"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["bilinear_form"]["im"] == pytest.approx(8.0, rel=1e-12)
        assert rep["bilinear_form"]["re"] == pytest.approx(0.0, abs=1e-12)
        margins = rep["margins"]
        assert margins["user"] == pytest.approx(6.5 * 8.0 - 8.0, rel=1e-12)
        assert margins["fourier_2pi"] > 0.0

    def test_two_node_sharp_constant_is_one(self, tmp_path, capsys):
        nodes = self.write_nodes(tmp_path, "0.0\n1.0\n")
        _, out, _ = run(capsys, "hilbert", "--nodes", nodes)
        rep = json.loads(out)
        assert rep["sharp_constant"]["value"] == pytest.approx(1.0, abs=1e-9)

    def test_duplicate_nodes_exit_2(self, tmp_path, capsys):
        nodes = self.write_nodes(tmp_path, "1.0\n1.0\n")
        code, _, err = run(capsys, "hilbert", "--nodes", nodes)
        assert code == 2
        assert "too close" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "hilbert", "--nodes", "/nonexistent/nodes.txt")
        assert code == 2

    def test_parse_error_reports_line(self, tmp_path, capsys):
        nodes = self.write_nodes(tmp_path, "1.0\nbogus\n")
        code, _, err = run(capsys, "hilbert", "--nodes", nodes)
        assert code == 2
        assert ":2:" in err

    def test_coeffs_parse_error(self, tmp_path, capsys):
        nodes = self.write_nodes(tmp_path, "0.0\n1.0\n")
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("1.0,0.0\n1.0\n")
        code, _, err = run(capsys, "hilbert", "--nodes", nodes, "--coeffs", str(coeffs))
        assert code == 2

    def test_numerical_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        nodes = self.write_nodes(tmp_path, "0.0\n1.0\n")

        def exploding(*args, **kwargs):
            raise hb.PowerIterationError("no convergence", estimate=0.9, iterations=10)

        monkeypatch.setattr(hb, "sharp_constant", exploding)
        code, _, err = run(capsys, "hilbert", "--nodes", nodes)
        assert code == 3
        assert "no convergence" in err


class TestSearch:
    def test_remark_deterministic(self, capsys):
        code, out1, _ = run(capsys, "search", "--mode", "remark", "--n", "3",
                            "--trials", "5", "--seed", "7")
        assert code == 0
        _, out2, _ = run(capsys, "search", "--mode", "remark", "--n", "3",
                         "--trials", "5", "--seed", "7")
        assert out1 == out2
        rep = json.loads(out1)
        assert rep["experiment"] == "remark"
        assert len(rep["trial_values"]) == 5

    def test_constant_mode(self, capsys):
        code, out, _ = run(capsys, "search", "--mode", "constant", "--n", "4",
                           "--trials", "6", "--seed", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["experiment"] == "constant"
        assert rep["best_constant"] <= hb.BOUND_PREISSMANN + 1e-6

    def test_invalid_mode_exit_2(self, capsys):
        code, _, _ = run(capsys, "search", "--mode", "magic", "--n", "3",
                         "--trials", "2", "--seed", "0")
        assert code == 2

    def test_remark_node_bound_exit_2(self, capsys):
        code, _, _ = run(capsys, "search", "--mode", "remark", "--n", "33",
                         "--trials", "2", "--seed", "0")
        assert code == 2

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, _, _ = run(capsys, "search", "--mode", "remark", "--n", "2",
                         "--trials", "2", "--seed", "0", "-o", str(target))
        assert code == 0
        rep = json.loads(target.read_text())
        assert rep["trials"] == 2


class TestRunConfig:
    def test_frozen(self):
        config = RunConfig(command="eval", grid=(0.0, 1.0, 5))
        with pytest.raises(AttributeError):
            config.seed = 7

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(command="verify", seed=-1)

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            RunConfig(command="eval", output_format="xml")

    def test_single_point_grid_rejected(self):
        with pytest.raises(ValueError, match="N >= 2"):
            RunConfig(command="eval", grid=(0.0, 1.0, 1))

    def test_negative_seed_on_command_line_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--seed", "-3")
        assert code == 2
        assert "seed" in err


class TestTopLevel:
    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
