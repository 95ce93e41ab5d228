"""Smoke tests of the experiment scripts under ``scripts/`` at small sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from extremal import cli, specfun

import test_specfun

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120, check=False,
    )


def test_majorant_table_is_the_eval_csv(tmp_path):
    out = tmp_path / "table.csv"
    proc = run_script("majorant_table.py", "--half-width", 2.5, "--points", 11,
                      "-o", out)
    assert proc.returncode == 0, proc.stderr
    ref = tmp_path / "eval.csv"
    assert cli.main(["eval", "--grid=-2.5:2.5:11", "-o", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()
    assert "deficit of M" in proc.stderr
    assert "deficit of G vs Heaviside" in proc.stderr


def test_constant_ladder(tmp_path):
    out = tmp_path / "ladder.csv"
    proc = run_script("constant_ladder.py", "--max-n", 8, "-o", out)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "n,constant,gap_to_pi,residual,iterations,seconds"
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "4", "8"]


def test_sign_probe(tmp_path):
    out = tmp_path / "probe.json"
    proc = run_script("sign_probe.py", "--min-n", 2, "--max-n", 3,
                      "--trials", 5, "-o", out)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[:6] == ["N", "seed", "min", "value", "mean",
                                       "negatives"]
    reports = json.loads(out.read_text())
    assert len(reports) == 2
    assert all("min_value" in rep for rep in reports)


def test_sici_tables_are_the_specfun_tables():
    pytest.importorskip("mpmath")
    proc = run_script("sici_tables.py")
    assert proc.returncode == 0, proc.stderr
    tables = {}
    exec(proc.stdout, tables)
    for name in ("_AUX_MID", "_AUX_FAR"):
        assert tables[name] == getattr(specfun, name)
    # The Chebyshev rows the monomial tables come from are the ones
    # tests/test_specfun.py converts bit for bit.
    for name in ("AUX_MID_CHEBYSHEV", "AUX_FAR_CHEBYSHEV"):
        assert tables[name] == getattr(test_specfun, name)


def test_check_float_text():
    proc = run_script("check_float_text.py", "--count", 20_000, "--seed", 3)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("20000 values, seed 3: 0 mismatches")
