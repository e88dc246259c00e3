"""Tracing wrappers installed around ratsys functions for the traced run.

Each wrapped function records a span (name, start, end, parent, operation
id) or just a call count. A wrapper replaces the function under every name
that binds it in every loaded ratsys module, since the modules import each
other's functions by name; ``remove`` puts the originals back. Spans stay
in memory until ``write`` and ``metrics`` run after the traced pass.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (module, function) pairs that get a span: calls and self time.
SPANNED = (
    ("cli", "main"), ("cli", "build_parser"),
    ("analysis", "classify"), ("analysis", "compare"),
    ("core", "simulate"),
    ("transfer", "composed_matrix"), ("transfer", "rank_decision"),
    ("rank1", "classify_rank1"), ("rank1", "growth_and_ratio"),
    ("rank1", "rank1_solution"),
    ("rank2", "classify_rank2"), ("rank2", "eigenvalues"),
    ("rank2", "spectral_constants"), ("rank2", "rank2_solution_sequence"),
    ("rank2", "rank2_solution"), ("rank2", "limit_cycle"),
    ("rank2", "delta_sign_exact"),
)
# Functions called per step or per row: a count only, since a span each
# would cost more than the work it measures.
COUNTED = (("core", "step"), ("numeric", "format_number"))
COUNTS = ("core.step.calls", "numeric.format_number.calls",
          "core.PeriodicCoefficients.inits", "core.simulate.steps")
# Bookkeeping the tracer does inside a parent span; subtracted from the
# parent's self time like a child span, never reported.
OWN = "bench.trace"


def _bits(v) -> int:
    return max(v.numerator.bit_length(), v.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = Counter(dict.fromkeys(COUNTS, 0))
        self.op_id = -1  # run_rounds advances it before each operation
        self.peak_bits = 0
        self._restore: list = []

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        simulate = name == "core.simulate"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if simulate:
                self._orbit_work(result, parent)
            return result
        return wrapper

    def _orbit_work(self, orbit, parent: int) -> None:
        """Steps and, for exact orbits, peak bits of a simulate result."""
        start = time.perf_counter()
        self.counts["core.simulate.steps"] += len(orbit) - 1
        x, y = orbit.state(len(orbit) - 1)
        if isinstance(x, Fraction):
            self.peak_bits = max(self.peak_bits, max(
                max(_bits(p.x), _bits(p.y)) for p in orbit))
        self.spans.append((OWN, start, time.perf_counter(), parent, self.op_id))

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, rs) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "ratsys" or key.startswith("ratsys.")]
        for kind, table, suffix in ((self._span_wrapper, SPANNED, ""),
                                    (self._count_wrapper, COUNTED, ".calls")):
            for mod_name, fn_name in table:
                fn = getattr(getattr(rs, mod_name), fn_name)
                wrapper = kind(f"{mod_name}.{fn_name}{suffix}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        # every PeriodicCoefficients construction validates in __post_init__
        cls = rs.core.PeriodicCoefficients
        post = cls.__post_init__
        self._restore.append((cls, "__post_init__", post))
        cls.__post_init__ = self._count_wrapper(
            "core.PeriodicCoefficients.inits", post)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Calls and self time per spanned function, plus the counts."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            if name != OWN:
                calls[name] += 1
                self_s[name] += end - start - child[idx]
        out = {}
        for mod_name, fn_name in SPANNED:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        out["core.simulate.peak_bits"] = self.peak_bits
        return out

    def write(self, path) -> None:
        """All spans as CSV: name, start, end, parent index, operation id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")
