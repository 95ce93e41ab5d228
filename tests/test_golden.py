"""Golden reports: every subcommand's output, byte for byte, on fixed inputs.

Reports are a contract: the same bytes for the same arguments and seed.
``test_reports_match_goldens`` regenerates each report in ``REPORTS`` and
compares it with the file of that name under ``tests/golden/``.

The bytes depend on the numpy build and the CPU (SIMD loops for ``sin`` and
``exp``, BLAS kernels in ``hilbert``), so ``tests/golden/fingerprint.json``
records the numpy version, the BLAS and the machine the goldens were made
on.  A different fingerprint changes only the failure message: the test
still runs and still fails on any differing byte, and the message names
the fingerprint difference so a reader can tell a build effect from a
regression.  There is no skip.

Regenerate the goldens only on purpose, in a change that alters a report,
and name each changed file in CHANGES.md.  The run rewrites only the files
whose bytes changed, the fingerprint included, and prints their names:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import difflib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from extremal import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
FINGERPRINT = GOLDEN / "fingerprint.json"

REPORTS = {
    **{f"verify_seed{s}.json": ["verify", "--seed", str(s)] for s in range(4)},
    "verify_tol1e-10.json": ["verify", "--seed", "0", "--tol", "1e-10"],
    "eval_small.csv": ["eval", "--grid=-2.5:2.5:11"],
    "eval_offset.csv": ["eval", "--grid=-50.123456:50.123456:41"],
    "eval_largest.csv": ["eval", "--grid=0:1.7976931348623157e308:73"],
    "eval_tiny.csv": ["eval", "--grid=-1e-300:1e-300:5"],
    "eval_fraction.csv": ["eval", "--grid=-2e-4:2e-4:9"],
    "eval_huge.csv": ["eval", "--grid=-1e17:1e17:5"],
    "eval.json": ["eval", "--grid=-300:300:21", "--format", "json"],
    "hilbert.json": ["hilbert", "--nodes", str(GOLDEN / "nodes.txt"),
                     "--coeffs", str(GOLDEN / "coeffs.txt")],
    "hilbert_equal64.json": ["hilbert", "--nodes",
                             str(GOLDEN / "nodes_equal64.txt")],
    "hilbert_clustered64.json": ["hilbert", "--nodes",
                                 str(GOLDEN / "nodes_clustered64.txt")],
    "search_constant.json": ["search", "--mode", "constant", "--n", "8",
                             "--trials", "3", "--seed", "0"],
    "search_remark.json": ["search", "--mode", "remark", "--n", "6",
                           "--trials", "4", "--seed", "0"],
}


def fingerprint():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def render(argv):
    """The bytes ``extremal <argv> -o FILE`` writes to FILE."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        code = cli.main([*argv, "-o", str(out)])
        assert code == 0, (argv, code)
        return out.read_bytes()


def first_difference(name, want, got):
    diff = difflib.unified_diff(
        want.decode().splitlines(), got.decode().splitlines(),
        f"golden/{name}", "regenerated", n=1, lineterm="",
    )
    return "\n".join(list(diff)[:12])


def test_reports_match_goldens(capsys):
    # Nothing on stderr either: a report can have the right bytes and
    # still warn (the largest-double grid overflows one step product).
    failures = [
        first_difference(name, (GOLDEN / name).read_bytes(), got)
        for name, argv in REPORTS.items()
        if (got := render(argv)) != (GOLDEN / name).read_bytes()
    ]
    assert capsys.readouterr().err == ""
    if failures:
        recorded = json.loads(FINGERPRINT.read_text())
        here = fingerprint()
        note = ("" if recorded == here else
                f"\nthe goldens were made on {recorded}, this run is on "
                f"{here}: check whether the build explains the difference")
        raise AssertionError("\n\n".join(failures) + note)


if __name__ == "__main__":
    fresh = {name: render(argv) for name, argv in REPORTS.items()}
    fresh[FINGERPRINT.name] = (json.dumps(fingerprint(), indent=2) + "\n").encode()
    for name, data in fresh.items():
        path = GOLDEN / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            print(name)
