"""One iteration of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the source tree, the CLI argument lists, their report paths and
whether to trace.  The worker times set-up (``import extremal`` plus the
first build of the Filon panels), then runs the argument lists one after
the other through ``extremal.cli.main`` and writes timings, resource use
and, when traced, span self-times, work counts and the recorded spectral
solves to RESULT.  Nothing is imported before the set-up timer starts
except what reading SPEC needs.
"""

import json
import os
import resource
import sys
import time
import traceback

PANEL_KINDS = ("g", "psi", "psi_beurling")


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb():
    """High-water resident set of this process image.

    ``ru_maxrss`` is not used: Linux carries the parent's resident set into
    it across fork and exec, so it would report the harness's size.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _cache_sizes(fourier, hilbert):
    """Entries in the two module-level caches a CLI process starts without."""
    return {
        "fourier._panel_cache": len(getattr(fourier, "_panel_cache", {})),
        "hilbert._beurling_ft_cache": len(getattr(hilbert, "_beurling_ft_cache", {})),
    }


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    start = time.perf_counter()
    import extremal
    from extremal import cli, fourier, hilbert

    caches_at_start = _cache_sizes(fourier, hilbert)
    for kind in PANEL_KINDS:
        extremal.numeric_ft(kind, 0.0)
    setup_s = time.perf_counter() - start

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(extremal.__file__).startswith(src + os.sep):
        print(f"imported {extremal.__file__}, not the tree under {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        sys.dont_write_bytecode = True
        from spans import Tracer

        tracer = Tracer().install()

    codes, errors, op_seconds = [], [], []
    cpu0 = _cpu_seconds()
    wall0 = time.perf_counter()
    for i, argv in enumerate(spec["argv"]):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            codes.append(cli.main(argv))
        except Exception:  # the CLI raised instead of returning an exit code
            codes.append(-1)
            errors.append(traceback.format_exc())
        op_seconds.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - wall0
    cpu_s = _cpu_seconds() - cpu0
    peak_rss_mb = _peak_rss_mb()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "codes": codes,
        "errors": errors,
        "op_seconds": op_seconds,
        "bytes_out": sum(os.path.getsize(p) for p in spec["outputs"] if os.path.exists(p)),
        "caches_at_start": caches_at_start,
        "caches_at_end": _cache_sizes(fourier, hilbert),
        "traced": tracer is not None,
    }
    if tracer is not None:
        tracer.uninstall()
        result["self_s"] = tracer.self_times()
        result["counts"] = tracer.counts
        result["solves"] = tracer.solves
        result["span_count"] = len(tracer.spans)
        tracer.dump(spec["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
