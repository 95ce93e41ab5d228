"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests

They check the harness, not the program's speed: that BENCHMARK.json and the
harness name the same metrics, that inputs follow from the seed alone, that
every measured iteration starts with cold caches, that the oracles catch
wrong values, and that the harness refuses to run without a source tree.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_harness_reports():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.LISTED)
    assert set(workloads.LISTED) <= set(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == [HERE.name]


def test_inputs_follow_from_the_seed_alone(tmp_path):
    def files(seed, where):
        ops = workloads.build("ladder", seed, str(tmp_path / where))
        return [Path(op.params["nodes"]).read_bytes() for op in ops]

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def _sign_probe_worker(tmp_path):
    ops = workloads.build("sign_probe", 3, str(tmp_path))
    spec = {"src": str(run.SRC), "argv": [op.argv for op in ops],
            "outputs": [op.output for op in ops],
            "spans_path": str(tmp_path / "spans.jsonl"), "trace": True}
    return run._run_worker(spec, tmp_path, deadline=time.monotonic() + 120)


def test_back_to_back_runs_start_cold_and_count_the_same_work(tmp_path):
    first = _sign_probe_worker(tmp_path)
    second = _sign_probe_worker(tmp_path)
    for result in (first, second):
        assert not any(result["caches_at_start"].values())
        assert result["codes"] == [0]
    freqs = first["counts"]["fourier.numeric_ft.freqs"]
    assert freqs > 0
    assert second["counts"]["fourier.numeric_ft.freqs"] == freqs
    assert run._work_counts(first) == run._work_counts(second)


def test_a_warm_process_would_time_cache_hits(tmp_path):
    """Why every iteration is a fresh interpreter: repeating the same seed
    in one process serves most transforms from the cache."""
    sys.path.insert(0, str(run.SRC))
    try:
        from extremal import cli
        import spans

        ops = workloads.build("sign_probe", 3, str(tmp_path))
        freqs = []
        for _ in range(2):
            tracer = spans.Tracer().install()
            try:
                assert cli.main(ops[0].argv) == 0
            finally:
                tracer.uninstall()
            freqs.append(tracer.counts.get("fourier.numeric_ft.freqs", 0))
    finally:
        sys.path.remove(str(run.SRC))
    assert freqs[1] < freqs[0] / 10


def test_dense_oracle_flags_a_constant_off_by_more_than_tol(tmp_path):
    lam = np.arange(16.0) + np.linspace(0.0, 0.3, 16) ** 2
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("".join(f"{float(v)!r}\n" for v in lam))
    exact = oracle.dense_constant(lam)
    params = {"nodes": str(nodes), "tol": 1e-10}
    for value, expected in ((exact, True), (exact + 1e-8, False)):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(
            {"n_nodes": 16, "sharp_constant": {"value": value}}))
        assert oracle.check_hilbert(str(report), params)[0] is expected


def test_separations_are_nearest_neighbour_distances():
    lam = np.array([3.0, 0.0, 1.0, 7.0])
    assert oracle.separations(lam).tolist() == [2.0, 1.0, 1.0, 4.0]


def test_g_reference_integrates_the_kernel():
    def g(u):
        return -mp.sin(mp.pi * u) ** 2 / (mp.pi**2 * u * (u + 1) ** 2)

    with mp.workdps(30):
        integral = mp.quad(g, [-3, -1, 0, 2.5])
    assert abs(float(integral) - (oracle.g_reference(2.5) - oracle.g_reference(-3.0))) < 1e-14


def test_b_reference_interpolates_sgn_and_majorizes_it():
    assert oracle.b_reference(0.0) == 1.0
    assert oracle.b_reference(-2.0) == -1.0
    for x in (-2.5, -0.3, 0.3, 4.75):
        assert oracle.b_reference(x) >= math.copysign(1.0, x)


def _eval_csv(path, xs, bump=0.0):
    rows = ["x,G,M,B,psi,phi"]
    for x in xs:
        G = oracle.g_reference(x) + bump
        M = 2.0 * G - 1.0
        B = oracle.b_reference(x)
        psi = M - float(np.sign(x))
        rows.append(",".join(repr(float(v)) for v in (x, G, M, B, psi, 0.0)))
    path.write_text("\n".join(rows) + "\n")


@pytest.mark.parametrize("bump, expected", [(0.0, True), (1e-6, False)])
def test_eval_oracle_checks_g_against_mpmath(tmp_path, bump, expected):
    xs = np.linspace(-3.0, 3.0, 13)
    path = tmp_path / "eval.csv"
    _eval_csv(path, xs, bump)
    params = {"start": -3.0, "stop": 3.0, "steps": 13, "tol": 1e-8,
              "sample_seed": 0}
    assert oracle.check_eval(str(path), params)[0] is expected


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ladder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
