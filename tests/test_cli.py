"""Command-line interface: formats, round-trips, determinism, exit codes."""

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest

import extremal.fourier as fourier
import extremal.hilbert as hb
import extremal.cli as cli
import extremal.integrals as integrals
from extremal._float_text import _ROWS
from extremal.cli import main
from extremal.majorants import G_closed, M_closed, beurling_b, phi_closed, psi_closed


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
        branches = set()
        for row in reader:
            x = float(row["x"])
            assert float(row["G"]) == G_closed(x)
            assert float(row["M"]) == M_closed(x)
            assert float(row["B"]) == beurling_b(x)
            assert float(row["psi"]) == psi_closed(x)
            assert float(row["phi"]) == phi_closed(x)
            # G_closed calls si_cin at 2 pi x; its branches switch at 4 and 16.
            z = abs(2.0 * math.pi * x)
            branches.add("series" if z < 4.0 else "mid" if z < 16.0 else "far")
        assert branches == {"series", "mid", "far"}

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
        "n",
        # Either side of one and two row blocks, and of 4,096 rows (a
        # multiple of the block, and the block size of earlier versions).
        sorted({_ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1,
                4095, 4096, 4097, 8193}),
    )
    def test_csv_spanning_several_row_blocks(self, n, capsys):
        # The CSV is evaluated and written one row block at a time, the JSON
        # from the whole grid at once; on either side of a block boundary
        # the two must give the same table, byte for byte.
        _, out, _ = run(capsys, "eval", f"--grid=-5:5:{n}")
        _, js, _ = run(capsys, "eval", f"--grid=-5:5:{n}", "--format", "json")
        cols = json.loads(js)["columns"]
        names = ["x", "G", "M", "B", "psi", "phi"]
        rows = zip(*(cols[name] for name in names))
        expected = [",".join(names)] + [",".join(repr(v) for v in row) for row in rows]
        assert out == "\n".join(expected) + "\n"

    def test_csv_to_a_text_only_stream(self, capsys):
        # The CSV goes to stdout's binary buffer; a stdout without one (an
        # io.StringIO) gets the same text.
        _, want, _ = run(capsys, "eval", "--grid=-5:5:1500")
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            assert main(["eval", "--grid=-5:5:1500"]) == 0
        assert stream.getvalue() == want

    @pytest.mark.parametrize("n", [100_001, 300_001])
    def test_csv_memory_is_bounded(self, n, tmp_path):
        # CSV output holds the grid (8 bytes a point) and one row block, so
        # beyond the grid the peak does not grow with N.
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["eval", f"--grid=-50:50:{n}", "-o", str(tmp_path / "t.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - 8 * n < 4_000_000

    def test_huge_grid_is_quiet(self, capsys):
        # No overflow warning from the closed forms far from the origin.
        code, out, err = run(capsys, "eval", "--grid", "0:1e300:11")
        assert code == 0 and err == ""
        last = out.strip().splitlines()[-1].split(",")
        assert [float(v) for v in last] == [1e300, 1.0, 1.0, 1.0, 0.0, 0.0]

    def test_grid_to_the_largest_doubles_is_quiet(self, capsys):
        # 2 pi x overflows past 2.9e307; the closed forms are at their limits.
        code, out, err = run(capsys, "eval", "--grid", "0:1.7e308:3")
        assert code == 0 and err == ""
        assert out.strip().splitlines()[-1] == "1.7e+308,1.0,1.0,1.0,0.0,0.0"

    @pytest.mark.parametrize(
        "grid",
        [
            "5:1:10", "1:1:5", "0:1:1", "abc", "1:2", "1:2:3:4", "nan:1:5",
            "-1.7976931348623157e308:1.7976931348623157e308:3",
        ],
    )
    def test_bad_grid_exits_2(self, grid, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "eval", "--grid", grid)
        assert code == 2
        assert "grid" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_bad_tol_exits_2(self, capsys):
        for tol in ("1e-15", "1e-3", "nan"):
            code, _, err = run(capsys, "eval", "--grid", "0:1:2", "--tol", tol)
            assert code == 2
            assert "tol" in err

    def test_bad_format_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--grid", "0:1:2", "--format", "xml")
        assert code == 2
        assert "format" in err

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        # Stands in for a grid too large to allocate; the grid itself is
        # small, so nothing large is requested.
        def exhausted(x):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(cli, "closed_columns", exhausted)
        code, _, err = run(capsys, "eval", "--grid", "0:1:11")
        assert code == 2
        assert err.startswith("error:") and "745" in err


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

    def test_bad_tol_exits_2(self, capsys):
        for tol in ("1e-11", "1e-3", "nan"):
            code, out, err = run(capsys, "verify", "--tol", tol)
            assert code == 2
            assert out == "" and "tol" in err

    def test_sampled_checks_pass_for_seeds_0_to_19(self, capsys):
        # The sampled checks (kernel factorization, transforms against the
        # Filon route, telescoping systems) hold on every seed, not on one.
        for seed in range(20):
            code, out, _ = run(capsys, "verify", "--seed", str(seed))
            rep = json.loads(out)
            failed = [c["name"] for c in rep["checks"] if not c["passed"]]
            assert code == 0 and rep["all_passed"] is True, (seed, failed)

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

    def test_report_keys(self, tmp_path, capsys):
        # The report's schema, in its order: a change to it is a contract
        # change and shows up here.
        nodes = self.write_nodes(tmp_path, "0.0\n0.25\n1.0\n")
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("1.0,0.0\n0.0,1.0\n2.0,-1.0\n")
        head = ["command", "n_nodes", "lambdas", "deltas", "order", "sharp_constant"]
        _, out, _ = run(capsys, "hilbert", "--nodes", nodes)
        assert list(json.loads(out)) == head
        _, out, _ = run(capsys, "hilbert", "--nodes", nodes, "--coeffs", str(coeffs),
                        "--constant", "4")
        rep = json.loads(out)
        assert list(rep) == head + ["bilinear_form", "weighted_sum", "margins"]
        assert list(rep["sharp_constant"]) == ["value", "iterations", "residual"]
        assert list(rep["bilinear_form"]) == ["re", "im"]
        assert list(rep["margins"]) == ["schur_pi", "preissmann", "fourier_2pi", "user"]

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

    def test_nan_tol_exits_2(self, tmp_path, capsys):
        nodes = self.write_nodes(tmp_path, "0.0\n1.0\n")
        code, _, err = run(capsys, "hilbert", "--nodes", nodes, "--tol", "nan")
        assert code == 2
        assert "tol" in err


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

    def test_constant_mode_at_node_cap(self, capsys):
        code, out, _ = run(capsys, "search", "--mode", "constant", "--n", "2048",
                           "--trials", "1", "--seed", "0")
        assert code == 0
        assert len(json.loads(out)["best_lambdas"]) == 2048

    def test_invalid_mode_exit_2(self, capsys):
        code, _, _ = run(capsys, "search", "--mode", "magic", "--n", "3",
                         "--trials", "2", "--seed", "0")
        assert code == 2

    def test_remark_node_bound_exit_2(self, capsys):
        code, _, _ = run(capsys, "search", "--mode", "remark", "--n", "33",
                         "--trials", "2", "--seed", "0")
        assert code == 2

    def test_remark_duplicate_nodes_exit_2(self, capsys, monkeypatch):
        # Two equal nodes planted in the second trial of a chunk.
        sampler = hb._random_systems

        def planted(rng, count, n):
            lam, coeffs = sampler(rng, count, n)
            lam[1, 1] = lam[1, 0]
            return lam, coeffs

        monkeypatch.setattr(hb, "_random_systems", planted)
        code, _, err = run(capsys, "search", "--mode", "remark", "--n", "4",
                           "--trials", "5", "--seed", "0")
        assert code == 2
        assert "too close" in err

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, _, _ = run(capsys, "search", "--mode", "remark", "--n", "2",
                         "--trials", "2", "--seed", "0", "-o", str(target))
        assert code == 0
        rep = json.loads(target.read_text())
        assert rep["trials"] == 2


class TestTopLevel:
    @pytest.mark.parametrize(
        "site", ["integrate_adaptive", "numeric_ft", "sharp_constant"]
    )
    def test_numerical_failure_exit_3(self, site, tmp_path, capsys, monkeypatch):
        # Each certified routine refuses at its own raise site, given a
        # budget too small for its tol; every refusal is exit 3.
        if site == "integrate_adaptive":
            # verify's first integral on an 800-evaluation budget.
            with_tails = integrals.integrate_with_tails
            monkeypatch.setattr(
                integrals, "integrate_with_tails",
                lambda kind, tol: with_tails(kind, tol, max_evals=800),
            )
            argv, message = ["verify"], "quadrature budget exhausted"
        elif site == "numeric_ft":
            # verify's band checks, with a Filon estimate far above tol.
            panel_data = fourier._panel_data

            def coarse(kind):
                mono, _, evaluations = panel_data(kind)
                return mono, 1.0, evaluations

            monkeypatch.setattr(fourier, "_panel_data", coarse)
            argv, message = ["verify"], "fixed Filon scheme"
        else:
            # Three operator applications cannot converge at N = 64.
            monkeypatch.setattr(
                hb, "sharp_constant",
                functools.partial(hb.sharp_constant, max_iterations=3),
            )
            nodes = tmp_path / "nodes.txt"
            nodes.write_text("".join(f"{k}.0\n" for k in range(1, 65)))
            argv, message = ["hilbert", "--nodes", str(nodes)], "no convergence"
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure:") and message in err

    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command", ["verify", "search"])
    def test_negative_seed_exits_2(self, command, capsys):
        argv = [command, "--seed", "-3"]
        if command == "search":
            argv += ["--mode", "remark", "--n", "3", "--trials", "2"]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "seed" in err

    def test_parser_built_once(self, capsys, monkeypatch):
        def no_new_parser(*args, **kwargs):
            raise AssertionError("main built a parser")

        monkeypatch.setattr(argparse, "ArgumentParser", no_new_parser)
        code, out, _ = run(capsys, "eval", "--grid", "0:1:2")
        assert code == 0
        assert out.startswith("x,G,M,B,psi,phi")

    def test_commands_import_nothing(self, tmp_path):
        # The package loads no scipy, no numpy.random (nor OpenSSL's
        # _hashlib behind it) and no numpy.polynomial.  Once it is imported
        # (with the Filon panels built) verify, search --mode remark and a
        # JSON eval load no module at all: an import inside a command adds
        # to its run time.  The CSV formatter loads with the first CSV eval,
        # the only command that uses it.
        code = textwrap.dedent("""
            import sys
            import extremal
            from extremal import cli

            def heavy():
                names = ("scipy", "numpy.random", "numpy.polynomial", "_hashlib",
                         "extremal._float_text")
                return sorted(m for m in sys.modules
                              if any(m == n or m.startswith(n + ".") for n in names))

            assert not heavy(), heavy()
            for kind in ("g", "psi", "psi_beurling"):
                extremal.numeric_ft(kind, 0.0)
            before = set(sys.modules)
            for argv, new in (
                (["verify", "--seed", "0"], []),
                (["search", "--mode", "remark", "--n", "4", "--trials", "3"], []),
                (["eval", "--grid=-2:2:11", "--format", "json"], []),
                (["eval", "--grid=-2:2:11"], ["extremal._float_text"]),
            ):
                assert cli.main(argv + ["-o", sys.argv[1]]) == 0, argv
                loaded = sorted(set(sys.modules) - before)
                assert loaded == new, (argv, loaded)
            assert heavy() == ["extremal._float_text"], heavy()
        """)
        src = os.path.dirname(os.path.dirname(hb.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300, check=False,
        )
        assert proc.returncode == 0, proc.stderr
