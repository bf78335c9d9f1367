"""Spans around dickesim's public functions, for the traced run only.

``Tracer.installed()`` replaces each function in TRACED with a wrapper in
every ``dickesim.*`` namespace that binds it (``cli`` and
``entanglement`` import them by name, ``dickesim`` re-exports them), and
puts the originals back on exit.  The untraced run never enters it.

A span records name, start, end, parent span, self time (its duration
minus the part its direct child spans cover) and the op it belongs to.
Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass


def svd_flops(args, kwargs):
    """Full complex SVD with both singular-vector sets: 4 x (4m^2n + 8mn^2 + 9n^3) real flops.

    The real-arithmetic count is Golub and Van Loan's for the R-SVD; a
    complex multiply-add costs four real ones.  Computed, not counted.
    """
    n = args[0].shape[0]
    return 4 * 21 * n ** 3


def liouvillian_bytes(args, kwargs):
    """One dense complex128 d^2 x d^2 matrix: 16 d^4 bytes, computed from d."""
    d = args[0].j.dim
    return 16 * d ** 4


# (module, function, work metric suffix, work function).  Each gets a span.
TRACED = (
    ("cli", "main", None, None),
    ("linalg", "null_vector", "flops_computed", svd_flops),
    ("dynamics", "build_liouvillian", "bytes_computed", liouvillian_bytes),
    ("dynamics", "steady_state_numeric", None, None),
    ("dynamics", "validate_density_matrix", None, None),
    ("dynamics", "evolve", None, None),
    ("spin_ops", "build_jminus", None, None),
    ("analytic", "steady_state_analytic", None, None),
    ("entanglement", "pair_reduced_state", None, None),
    ("entanglement", "concurrence", None, None),
    ("entanglement", "triplet_to_two_qubit", None, None),
    ("semiclassical", "find_fixed_points", None, None),
    ("semiclassical", "bifurcation_scan", None, None),
    ("semiclassical", "integrate_meanfield", None, None),
)
# Called hundreds of thousands of times per run: counted, no span.
COUNTED = (("semiclassical", "meanfield_rhs"),)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    self_s: float
    op: str | None


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []  # [span id, seconds covered by direct children]
        self._next_id = 0

    def span_wrapper(self, name, fn, work_name, work):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append(Span(span_id, name, start - self.t0, end - self.t0,
                                       None if parent is None else parent[0],
                                       end - start - frame[1], self.op))
                if work is not None:
                    self.counts[f"{name}.{work_name}"] += work(args, kwargs)

        return traced

    def count_wrapper(self, name, fn):
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every dickesim namespace for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dickesim" or name.startswith("dickesim."))]
        replaced = []
        try:
            for module, attr, work_name, work in TRACED:
                name = f"{module}.{attr}"
                original = getattr(sys.modules[f"dickesim.{module}"], attr)
                wrapper = self.span_wrapper(name, original, work_name, work)
                replaced += _rebind(modules, original, wrapper)
            for module, attr in COUNTED:
                original = getattr(sys.modules[f"dickesim.{module}"], attr)
                replaced += _rebind(modules, original, self.count_wrapper(f"{module}.{attr}", original))
            yield self
        finally:
            for module, key, original in reversed(replaced):
                setattr(module, key, original)

    def totals(self, since=0):
        """Per-layer totals over spans[since:]: calls, self seconds and work."""
        calls, self_s = Counter(), defaultdict(float)
        for span in self.spans[since:]:
            calls[span.name] += 1
            self_s[span.name] += span.self_s
        return calls, self_s

    def dump(self):
        return [asdict(s) for s in self.spans]


def _rebind(modules, original, wrapper):
    """Point every module attribute bound to original at wrapper."""
    out = []
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                out.append((module, key, original))
    return out
