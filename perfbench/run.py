"""Benchmark of the extremal command-line interface.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all`` of them) in a closed loop for about
``--seconds`` seconds.  Every iteration is a fresh interpreter
(``worker.py``) that pays import, the lazy table builds and an empty
transform cache, as a CLI user does.  Outside the timed region each report
is checked against an independent oracle (``oracle.py``) and against the
first iteration's bytes.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced iterations and
reports the per-layer metrics.  A summary table goes to stdout, the full
record (every iteration, every check, the environment fingerprint) to
``.perfbench_out/results/``, and the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import fingerprint  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit.  ".self_s" is the median over traced iterations
# of the span's self time; counts are exact and equal in every iteration.
PER_LAYER = {
    "hilbert.sharp_constant.calls": "count",
    "hilbert.sharp_constant.self_s": "s",
    "hilbert.sharp_constant.iterations": "count",
    "hilbert.sharp_constant.restarts": "count",
    "hilbert.sharp_constant.max_err": "abs",
    "hilbert.sharp_constant.bound_violations": "count",
    "hilbert.constant_search.self_s": "s",
    "hilbert.remark_experiment.self_s": "s",
    "hilbert.telescoping_sum.self_s": "s",
    "hilbert.ft_lookups": "count",
    "hilbert.ft_cache_hit_ratio": "ratio",
    "fourier.numeric_ft.calls": "count",
    "fourier.numeric_ft.freqs": "count",
    "fourier.numeric_ft.self_s": "s",
    "fourier.numeric_ft.us_per_freq": "us",
    "fourier.band_limit_check.self_s": "s",
    "fourier.psi_hat_scaled.self_s": "s",
    "integrals.integrate_with_tails.self_s": "s",
    "integrals.half_line_moments.self_s": "s",
    "integrals.poisson_check.self_s": "s",
    "quadrature.integrate_adaptive.calls": "count",
    "quadrature.integrate_adaptive.evals": "count",
    "quadrature.integrate_adaptive.self_s": "s",
    "majorants.tail_transform.calls": "count",
    "majorants.tail_transform.self_s": "s",
    "majorants.G_closed.points": "count",
    "majorants.G_closed.self_s": "s",
    "majorants.G_closed.ns_per_pt": "ns",
    "majorants.beurling_b.points": "count",
    "majorants.beurling_b.self_s": "s",
    "majorants.beurling_b.ns_per_pt": "ns",
    "specfun.sinc.points": "count",
    "specfun.sinc.self_s": "s",
    "specfun.sinc.ns_per_pt": "ns",
    "specfun.trigamma.points": "count",
    "specfun.trigamma.self_s": "s",
    "specfun.trigamma.ns_per_pt": "ns",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}

# Per-time metrics: metric -> (span, count it is divided by, scale).
_RATES = {
    "fourier.numeric_ft.us_per_freq": ("fourier.numeric_ft", "freqs", 1e6),
    "majorants.G_closed.ns_per_pt": ("majorants.G_closed", "points", 1e9),
    "majorants.beurling_b.ns_per_pt": ("majorants.beurling_b", "points", 1e9),
    "specfun.sinc.ns_per_pt": ("specfun.sinc", "points", 1e9),
    "specfun.trigamma.ns_per_pt": ("specfun.trigamma", "points", 1e9),
}


class HarnessError(RuntimeError):
    """The benchmark itself misbehaved; no result may be printed."""


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _stats(values):
    values = sorted(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"min": values[0], "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values)}


def _run_worker(spec, workdir, deadline):
    spec_path = workdir / "spec.json"
    result_path = workdir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise HarnessError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not result_path.exists():
        raise HarnessError(
            f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _judge(ops, result, refs):
    """Check each op of one iteration; returns the number that failed.

    ``refs[i]`` holds the first iteration's digest and oracle verdict for
    op i.  A later report passes only if its bytes equal the first one's.
    """
    failed = 0
    for i, op in enumerate(ops):
        code = result["codes"][i]
        digest = _digest(op.output)
        if refs[i] is None:
            if code == 0 and digest is not None:
                ok, detail = oracle.check(op)
            else:
                ok, detail = False, {"error": f"exit code {code}, report {digest}"}
            refs[i] = {"report": os.path.basename(op.output), "digest": digest,
                       "ok": ok, "detail": detail}
        if not (code == 0 and digest is not None
                and digest == refs[i]["digest"] and refs[i]["ok"]):
            failed += 1
    return failed


def _work_counts(result):
    counts = dict(result["counts"])
    counts["cli.bytes_out"] = result["bytes_out"]
    return counts


def _layer_metrics(name, traced, untraced, attempted, failed):
    """Per-layer metrics from the traced iterations of one run."""
    first = traced[0]
    for other in traced[1:]:
        if _work_counts(other) != _work_counts(first):
            raise HarnessError("work counts differ between two traced iterations "
                               "of the same seed")
    counts = _work_counts(first)

    def self_s(span):
        return statistics.median(r["self_s"].get(span, 0.0) for r in traced)

    values = {}
    for metric in PER_LAYER:
        if metric.endswith(".self_s"):
            span = metric[: -len(".self_s")]
            values[metric] = self_s("cli.main" if span == "cli" else span)
        elif metric in _RATES:
            span, count, scale = _RATES[metric]
            n = counts.get(f"{span}.{count}", 0)
            values[metric] = self_s(span) / n * scale if n else 0.0
        elif metric in counts:
            values[metric] = counts[metric]
        else:
            values[metric] = 0
    max_err, violations = oracle.solve_errors(first["solves"])
    lookups = workloads.ft_lookups(name)
    misses = counts.get("fourier.numeric_ft.freqs_from_hilbert", 0)
    values.update({
        "hilbert.sharp_constant.max_err": max_err,
        "hilbert.sharp_constant.bound_violations": violations,
        "hilbert.ft_lookups": lookups,
        "hilbert.ft_cache_hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "trace.overhead_ratio": (statistics.median(r["wall_s"] for r in traced)
                                 / statistics.median(r["wall_s"] for r in untraced)),
        "fail_ratio": failed / attempted,
    })
    return values


def measure(name, seed, seconds, trace):
    """Run one workload for about ``seconds``; return its record."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    workdir = OUT / "work" / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.build(name, seed, str(workdir))
    spec = {"src": str(SRC), "argv": [op.argv for op in ops],
            "outputs": [op.output for op in ops],
            "spans_path": str(workdir / "spans.jsonl")}
    refs = [None] * len(ops)
    untraced, traced, durations = [], [], []
    attempted = failed = 0
    while True:
        t0 = time.monotonic()
        is_traced = trace and len(untraced) > len(traced)
        for op in ops:
            Path(op.output).unlink(missing_ok=True)
        result = _run_worker(dict(spec, trace=is_traced), workdir, deadline)
        if any(result["caches_at_start"].values()):
            raise HarnessError(f"caches not empty at start: {result['caches_at_start']}")
        attempted += len(ops)
        failed += _judge(ops, result, refs)
        (traced if is_traced else untraced).append(result)
        durations.append(time.monotonic() - t0)
        enough = (len(untraced) >= 2 and len(traced) >= 2) if trace else len(untraced) >= 3
        elapsed = time.monotonic() - start
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        if elapsed + max(durations) > TIME_LIMIT_S:
            break

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "elapsed_s": time.monotonic() - start,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "checks": refs,
        "argv": spec["argv"],
        "end_to_end": {m: dict(_stats([r[m] for r in untraced]), unit=u)
                       for m, u in END_TO_END.items()},
        "iterations": [{k: v for k, v in r.items() if k != "solves"}
                       for r in untraced + traced],
    }
    if trace:
        values = _layer_metrics(name, traced, untraced, attempted, failed)
        record["per_layer"] = {m: {"value": values[m], "unit": u,
                                   "n": len(traced)}
                               for m, u in PER_LAYER.items()}
    return record


def _print_summary(record):
    name = record["workload"]
    n_u = record["end_to_end"]["wall_s"]["n"]
    print(f"== {name}  seed {record['seed']}  "
          f"iterations {len(record['iterations'])} ({n_u} untraced)  "
          f"elapsed {record['elapsed_s']:.1f} s")
    for metric, s in record["end_to_end"].items():
        print(f"  {metric:<12} median {s['median']:9.4f} {s['unit']:<3} "
              f"q1 {s['q1']:9.4f}  q3 {s['q3']:9.4f}  min {s['min']:9.4f}  "
              f"n={s['n']}")
    print(f"  {'fail_ratio':<14} {record['fail_ratio']:.4f} "
          f"({record['failed']} failed of {record['attempted']} CLI invocations)")
    for ref in record["checks"]:
        if ref and not ref["ok"]:
            print(f"  check failed: {ref['report']}: {json.dumps(ref['detail'])}")
    for metric, m in record.get("per_layer", {}).items():
        print(f"  {metric:<42} {m['value']:.6g} {m['unit']}  n={m['n']}")


def _contract_line(records, trace):
    def metrics_of(record, prefix):
        if trace:
            return {prefix + m: {"value": v["value"], "unit": v["unit"]}
                    for m, v in record["per_layer"].items()}
        return {prefix + m: {"value": v["median"], "unit": v["unit"]}
                for m, v in record["end_to_end"].items()}

    many = len(records) > 1
    metrics = {}
    for record in records:
        metrics.update(metrics_of(record, record["workload"] + "/" if many else ""))
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "extremal" / "__init__.py").is_file():
        print(f"error: no extremal source tree at {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    env = fingerprint.collect(ROOT, SRC)
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            record["fingerprint"] = env
            results = OUT / "results"
            results.mkdir(parents=True, exist_ok=True)
            path = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1), encoding="utf-8")
            _print_summary(record)
            records.append(record)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(_contract_line(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
