"""In-memory span tracer for the extremal package.

``Tracer.install()`` replaces each function in ``TARGETS`` with a wrapper in
every ``extremal`` module namespace that binds it (``from .fourier import
numeric_ft`` in ``hilbert`` and ``cli`` as well as ``fourier`` itself), so
calls are seen where the calling modules look them up and nothing under
``src/`` changes.  Each call records a span ``[name, op, parent, start,
end]``; ``op`` is the index of the CLI invocation the span belongs to.
Work counts are taken from arguments and return values at the same
boundary.  Only the standard library is imported, so loading this module
costs the traced interpreter nothing before ``extremal`` is imported.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

PACKAGE = "extremal"


def _size(value):
    return int(getattr(value, "size", 1))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> the work count its calls add ("points", "freqs", "evals",
# "solve") or None for time only.
TARGETS = {
    "specfun.sinc": "points",
    "specfun.trigamma": "points",
    "majorants.G_closed": "points",
    "majorants.beurling_b": "points",
    "majorants.tail_transform": None,
    "quadrature.integrate_adaptive": "evals",
    "integrals.integrate_with_tails": None,
    "integrals.half_line_moments": None,
    "integrals.poisson_check": None,
    "fourier.numeric_ft": "freqs",
    "fourier.band_limit_check": None,
    "fourier.psi_hat_scaled": None,
    "hilbert.sharp_constant": "solve",
    "hilbert.constant_search": None,
    "hilbert.remark_experiment": None,
    "hilbert.telescoping_sum": None,
    "cli.main": None,
}


class Tracer:
    """Spans and counts for one process; ``self_times()`` aggregates them."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.solves = []
        self.op = 0
        self._stack = []
        self._patched = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, work in TARGETS.items():
            module, func = name.split(".")
            home = sys.modules.get(f"{PACKAGE}.{module}")
            original = getattr(home, func, None)
            if original is None:
                continue  # the layer no longer has this function
            wrapper = self._wrap(name, original, work)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if work == "solve" else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, self.op, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            self._add(name + ".calls", 1)
            # A call nested in a call of the same function (a recursion)
            # repeats its parent's work; count it once, at the outermost.
            if work is not None and (parent < 0 or spans[parent][0] != name):
                self._count(name, work, parent, args, kwargs, result, signature)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, work, parent, args, kwargs, result, signature):
        if work == "points":
            self._add(name + ".points", _size(args[0]))
        elif work == "freqs":
            n = _size(_arg(args, kwargs, 1, "t"))
            self._add(name + ".freqs", n)
            if parent >= 0 and self.spans[parent][0].startswith("hilbert."):
                self._add(name + ".freqs_from_hilbert", n)
        elif work == "evals":
            self._add(name + ".evals", int(result.evaluations))
        elif work == "solve":
            self._add(name + ".iterations", int(getattr(result, "iterations", 0)))
            self._add(name + ".restarts", int(getattr(result, "restarts", 0)))
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            nodes = next(iter(bound.arguments.values()))
            self.solves.append({
                "lambdas": [float(v) for v in nodes.lambdas],
                "tol": float(bound.arguments.get("tol", "nan")),
                "constant": float(result.constant),
                "residual": float(result.residual),
            })

    def self_times(self):
        """Per span name: total duration minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def dump(self, path):
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
