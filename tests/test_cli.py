"""Command-line interface: formats, round-trips, determinism, exit codes."""

import argparse
import contextlib
import csv
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
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import extremal.fourier as fourier
import extremal.hilbert as hb
import extremal.quadrature as quadrature
import extremal.cli as cli
from extremal._float_text import _ROWS
from extremal.cli import main
from extremal.majorants import (
    G_closed,
    M_closed,
    beurling_b,
    closed_columns,
    psi_closed,
)


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
            assert float(row["phi"]) == psi_closed(-x)
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
        self.assert_eval_is_whole_grid(capsys, -5.0, 5.0, n)

    @pytest.mark.parametrize(
        "a, b, n",
        # The formatter's sparse cases through JSON: the largest double
        # (whose last step overflows), a subnormal span, an integer grid
        # across a block seam, and the smallest grid.
        [(0.0, sys.float_info.max, 73), (0.0, 5e-322, 2 * _ROWS + 1),
         (-512.0, 513.0, 1026), (0.0, 1.0, 2)],
    )
    def test_sparse_grids_are_whole_grid(self, a, b, n, capsys):
        self.assert_eval_is_whole_grid(capsys, a, b, n)

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(2, 2 * _ROWS + 2),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_eval_is_whole_grid_property(self, capsys, a, b, n):
        # capsys is safe to share: each run reads and clears what it wrote.
        assume(a != b)
        a, b = min(a, b), max(a, b)
        assume(math.isfinite(b - a))
        self.assert_eval_is_whole_grid(capsys, a, b, n)

    @staticmethod
    def assert_eval_is_whole_grid(capsys, a, b, n):
        # CSV and JSON are both evaluated one row block at a time; on either
        # side of a block boundary each must give the whole grid's table
        # byte for byte: the CSV as repr writes it, the JSON as json.dumps
        # writes the report with Python float columns.
        with np.errstate(over="ignore"):
            x = np.linspace(a, b, n)
        names = list(cli._EVAL_COLUMNS)
        whole = {name: c.tolist() for name, c in zip(names, (x, *closed_columns(x)))}
        report = {
            "command": "eval",
            "grid": {"start": a, "stop": b, "steps": n},
            "tolerance_requested": 1e-8,
            "tolerance_achieved": 5e-14,
            "columns": whole,
        }
        grid = f"--grid={a!r}:{b!r}:{n}"
        _, out, _ = run(capsys, "eval", grid)
        _, js, _ = run(capsys, "eval", grid, "--format", "json")
        assert js == json.dumps(report, indent=2) + "\n"
        rows = zip(*(whole[name] for name in names))
        expected = [",".join(names)] + [",".join(repr(v) for v in row) for row in rows]
        assert out == "\n".join(expected) + "\n"

    def test_csv_to_a_text_only_stream(self, capsys):
        # Reports go to stdout's binary buffer; a stdout without one (an
        # io.StringIO) gets the same text, for eval's CSV and JSON and a
        # JSON report.
        for argv in (["eval", "--grid=-5:5:1500"], ["eval", "--grid", "0:1:3"],
                     ["eval", "--grid=-5:5:1500", "--format", "json"],
                     ["search", "--mode", "remark", "--n", "6", "--trials", "4"]):
            _, want, _ = run(capsys, *argv)
            stream = io.StringIO()
            with contextlib.redirect_stdout(stream):
                assert main(argv) == 0
            assert stream.getvalue() == want

    @pytest.mark.parametrize("n", [100_001, 300_001])
    def test_csv_memory_is_bounded(self, n, tmp_path):
        # CSV output holds one row block, never the grid: the peak stays
        # under the formatter's (160 bytes a value, the bound its module
        # states) plus 1 MB for the block's closed forms, which a whole
        # grid (0.8 MB at N = 100,001) would break.
        path = str(tmp_path / "t.csv")
        assert main(["eval", "--grid=-50:50:3", "-o", path]) == 0  # lazy tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["eval", f"--grid=-50:50:{n}", "-o", path]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 160 * len(cli._EVAL_COLUMNS) * _ROWS + 1_000_000

    def test_json_memory_is_bounded(self, tmp_path):
        # JSON holds the table as one float64 array, 48 bytes a point, and
        # formats a block of one column at a time: the peak stays under the
        # array plus 2 MB, which Python float columns (about 860 bytes a
        # point) would break.
        n = 300_001
        path = str(tmp_path / "t.json")
        assert main(["eval", "--grid=-50:50:3", "--format", "json", "-o", path]) == 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["eval", f"--grid=-50:50:{n}", "--format", "json",
                         "-o", path]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n + 2_000_000

    def test_csv_memory_does_not_grow_with_n(self, tmp_path):
        # CSV output holds no grid: a hundred times the points leaves the
        # peak where it was, within a few closed-form temporaries.
        path = str(tmp_path / "t.csv")
        assert main(["eval", "--grid=-50:50:3", "-o", path]) == 0  # lazy tables
        peaks = {}
        for n in (3_001, 300_001):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert main(["eval", f"--grid=-50:50:{n}", "-o", path]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert abs(peaks[300_001] - peaks[3_001]) <= 64_000

    @staticmethod
    def assert_streams_linspace(a, b, n):
        # Near the largest doubles, (N - 1) steps can overflow before the
        # last point is set to B, in linspace as in the blocks.
        with np.errstate(over="ignore"):
            blocks = list(cli._grid_blocks(a, b, n, _ROWS))
            whole = np.linspace(a, b, n)
        assert [len(x) for x in blocks[:-1]] == [_ROWS] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
        assert blocks[-1][-1] == b

    @pytest.mark.parametrize(
        "a, b, n",
        [(-5.0, 5.0, 2), (0.0, 1.0, 2)]
        + [(-5.0, 5.0, n) for n in (_ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1)]
        + [(-3.25, 17.5, 2 * _ROWS + 1), (0.0, 1.7e308, 3)],
    )
    def test_streamed_grid_is_linspace(self, a, b, n):
        self.assert_streams_linspace(a, b, n)

    def test_streamed_grid_subnormal_span(self):
        # The step rounds to zero, so linspace divides by N - 1 first and
        # then multiplies by the span; the blocks must do the same.
        a, b, n = 0.0, 5e-322, 2 * _ROWS + 1
        assert (b - a) / (n - 1) == 0.0
        self.assert_streams_linspace(a, b, n)

    def test_streamed_grid_ends_exactly_at_b(self):
        # Here the last point by the step alone falls short of B.
        a, b, n = -50.5, 50.5, 3001
        assert a + (n - 1) * ((b - a) / (n - 1)) != b
        self.assert_streams_linspace(a, b, n)

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(2, 3 * _ROWS + 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_streamed_grid_is_linspace_property(self, a, b, n):
        assume(a != b)
        a, b = min(a, b), max(a, b)
        assume(math.isfinite(b - a))
        self.assert_streams_linspace(a, b, n)

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
        # Up to the largest double, (N - 1) * step overflows; that point is
        # set to B, in both formats.
        grid = "0:1.7976931348623157e308:73"
        code, out, err = run(capsys, "eval", "--grid", grid)
        assert code == 0 and err == ""
        assert out.strip().splitlines()[-1].startswith("1.7976931348623157e+308,")
        code, out, err = run(capsys, "eval", "--grid", grid, "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["columns"]["x"][-1] == sys.float_info.max

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

    def test_out_of_memory_exits_2(self, capsys, monkeypatch, tmp_path):
        # Stands in for a grid too large to allocate; the grid itself is
        # small, so nothing large is requested.
        def exhausted(x):
            raise MemoryError("Unable to allocate 745. GiB")

        monkeypatch.setattr(cli, "closed_columns", exhausted)
        code, _, err = run(capsys, "eval", "--grid", "0:1:11")
        assert code == 2
        assert err.startswith("error:") and "745" in err

        # A JSON table too large for memory (436 TiB) is refused at its
        # allocation, before the file opens.  The child's address-space cap
        # only keeps a build that fills memory instead from exhausting it.
        target = tmp_path / "t.json"
        child = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (2**30, resource.RLIM_INFINITY))
            from extremal.cli import main
            sys.exit(main())
        """)
        src = os.path.dirname(os.path.dirname(hb.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", child, "eval", "--grid=0:1:10000000000000",
             "--format", "json", "-o", str(target)],
            env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: out of memory")
        assert "(6, 10000000000000)" in proc.stderr, proc.stderr
        assert not target.exists()


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

    def test_five_line_integrals(self, capsys, monkeypatch):
        # g over the line, psi and H over each half-line: each integral once.
        calls = []
        line_integral = cli.line_integral

        def counted(kind, a, b, tol):
            calls.append((kind, a, b))
            return line_integral(kind, a, b, tol)

        monkeypatch.setattr(cli, "line_integral", counted)
        code, _, _ = run(capsys, "verify")
        assert code == 0
        assert sorted(calls) == sorted([
            ("g", -math.inf, math.inf),
            ("psi", -math.inf, 0.0), ("psi", 0.0, math.inf),
            ("H", -math.inf, 0.0), ("H", 0.0, math.inf),
        ])

    def test_each_check_named_once(self, capsys):
        # One check per fact, each named once: the Heaviside deficit
        # G - x_+^0 is psi / 2, so its integral is not a check of its own,
        # and neither is a second line integral of g.
        _, out, _ = run(capsys, "verify")
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert names == [
            "integral_g", "integral_psi", "poisson_sum_g", "poisson_sum_H",
            "poisson_integral_H", "moment_identity_negative_axis",
            "moment_identity_positive_axis", "band_residual_psi",
            "band_residual_beurling", "kernel_factorization",
            "g_hat_vs_numeric", "psi_hat_vs_numeric",
            "psi_beurling_hat_vs_numeric", "telescoping_vs_identity",
            "telescoping_nonnegative",
            "majorant_M_min_margin", "majorant_B_min_margin",
            "kernel_sign_pattern",
        ]

    def test_loose_tol_keeps_integral_limits(self, capsys):
        # One integral tolerance, min(tol, 1e-9), so the checks that read
        # the integrals hold to 1e-8 at the loosest tol as well.
        code, out, _ = run(capsys, "verify", "--tol", "1e-4")
        assert code == 0
        by_name = {c["name"]: c for c in json.loads(out)["checks"]}
        assert by_name["integral_g"]["limit"] == 1e-8
        assert by_name["integral_psi"]["limit"] == 1e-4
        for name in ("integral_g", "integral_psi", "poisson_integral_H",
                     "moment_identity_negative_axis",
                     "moment_identity_positive_axis"):
            assert by_name[name]["residual"] <= 1e-8, name

    def test_planted_beurling_error_below_the_band_fails(self, capsys, monkeypatch):
        # A relative error of 1e-5 in psi_beurling_hat on |t| < 1 only: the
        # band check cannot see it, the check against the Filon route must.
        closed = cli.psi_beurling_hat

        def planted(t):
            t = np.asarray(t, dtype=float)
            return closed(t) * np.where(np.abs(t) < 1.0, 1.0 + 1e-5, 1.0)

        monkeypatch.setattr(cli, "psi_beurling_hat", planted)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        rep = json.loads(out)
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert failed == ["psi_beurling_hat_vs_numeric"]

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

    def test_coefficients_evaluated_once(self, tmp_path, capsys, monkeypatch):
        # Phi and W once per report; each margin derives from the two.
        calls = []

        def counted(name):
            route = getattr(hb, name)

            def call(*args):
                calls.append(name)
                return route(*args)

            monkeypatch.setattr(hb, name, call)

        counted("bilinear_form")
        counted("weighted_norm")
        nodes = self.write_nodes(tmp_path, "0.0\n0.25\n1.0\n")
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("1.0,0.0\n0.0,1.0\n2.0,-1.0\n")
        code, out, _ = run(capsys, "hilbert", "--nodes", nodes,
                           "--coeffs", str(coeffs), "--constant", "3")
        assert code == 0
        assert sorted(calls) == ["bilinear_form", "weighted_norm"]
        rep = json.loads(out)
        phi = complex(rep["bilinear_form"]["re"], rep["bilinear_form"]["im"])
        constants = {"schur_pi": hb.BOUND_SCHUR, "preissmann": hb.BOUND_PREISSMANN,
                     "fourier_2pi": hb.BOUND_FOURIER, "user": 3.0}
        assert rep["margins"] == {
            name: C * rep["weighted_sum"] - abs(phi) for name, C in constants.items()
        }

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

    def test_overflowing_node_span_exit_2(self, tmp_path, capsys):
        # The separations of +-1e308 overflow; no report of infinite
        # deltas and a NaN constant is printed.
        nodes = self.write_nodes(tmp_path, "-1e308\n1e308\n")
        code, out, err = run(capsys, "hilbert", "--nodes", nodes)
        assert code == 2
        assert out == ""
        assert "node span must be finite" in err

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

    @pytest.mark.parametrize("with_coeffs", [False, True])
    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1", "abc"])
    def test_bad_constant_exits_2_at_parse(self, bad, with_coeffs, tmp_path,
                                           capsys, monkeypatch):
        # Refused where it is parsed, before the solve, with or without
        # the coefficients that would use it.
        def no_solve(*args, **kwargs):
            raise AssertionError("a bad --constant reached the solve")

        monkeypatch.setattr(hb, "sharp_constant", no_solve)
        argv = ["hilbert", "--nodes", self.write_nodes(tmp_path, "0.0\n1.0\n"),
                "--constant", bad]
        if with_coeffs:
            coeffs = tmp_path / "coeffs.txt"
            coeffs.write_text("1.0,0.0\n0.0,1.0\n")
            argv += ["--coeffs", str(coeffs)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("usage:") and "constant" in err


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
            monkeypatch.setattr(quadrature, "_MAX_EVALS", 800)
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
            # Three products with A cannot converge at N = 64.
            monkeypatch.setattr(hb, "_MAX_PRODUCTS", 3)
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
        # (with the Filon panels built) verify, hilbert and both search
        # modes load no module at all: an import inside a command adds to
        # its run time.  The float formatter loads with the first eval, CSV
        # or JSON, the only command that uses it.
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
                (["hilbert", "--nodes", sys.argv[2]], []),
                (["search", "--mode", "constant", "--n", "8", "--trials", "3"], []),
                (["search", "--mode", "remark", "--n", "4", "--trials", "3"], []),
                (["eval", "--grid=-2:2:11", "--format", "json"],
                 ["extremal._float_text"]),
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
        nodes = tmp_path / "nodes.txt"
        nodes.write_text("".join(f"{k}.0\n" for k in range(1, 41)))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "out"), str(nodes)],
            env=env, capture_output=True, text=True, timeout=300, check=False,
        )
        assert proc.returncode == 0, proc.stderr
