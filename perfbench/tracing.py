"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public ``radialke`` functions in spans.  A span's self
time is its duration minus the durations of the spans it directly caused;
calls are synchronous, so those child spans never overlap.  ``install``
replaces every binding of a wrapped function in every loaded ``radialke``
module, so ``from .kernels import tridiag_solve`` copies are traced too;
``uninstall`` puts the originals back before any untraced timing.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Optional

# adds the work one call did to ``Tracer.counts``, from its arguments and result
CountFn = Optional[Callable[[Counter, tuple, object], None]]


def _rows(c, args, result):
    c["kernels.tridiag.rows"] += len(args[1])


def _cells(name: str, sections_arg: int) -> CountFn:
    def count(c, args, result):
        c[name] += len(args[0]) * len(args[sections_arg])
    return count


def _nodes(c, args, result):
    c["geometry.mollify.nodes"] += args[0].grid.node_count


def _newton(c, args, result):
    c["masolver.newton_iters"] += result.iterations


def _levels(c, args, result):
    c["bergman.levels"] += 1
    c["bergman.sections"] += result.basis.n_sections


def _quad(c, args, result):
    c["bergman.quad_nodes"] += result.grid.node_count


def _fibers(c, args, result):
    c["family.fibers"] += len(result.reports)


#: (module, function, span name, counter) of every wrapped function
SPANS: tuple[tuple[str, str, str, CountFn], ...] = (
    ("kernels", "tridiag_solve", "kernels.tridiag", _rows),
    ("kernels", "affine_lse_profile", "kernels.lse_profile",
     _cells("kernels.lse_profile.cells", 1)),
    ("kernels", "affine_lse_quadrature", "kernels.lse_quadrature",
     _cells("kernels.lse_quadrature.cells", 2)),
    ("kernels", "logsumexp", "kernels.logsumexp", None),
    ("geometry", "mollify_weight", "geometry.mollify", _nodes),
    ("masolver", "solve_ke_ode", "masolver.solve", _newton),
    ("masolver", "ke_problem", "masolver.problem", None),
    ("masolver", "ricci_problem", "masolver.problem", None),
    ("ricci", "ricci_step", "ricci.step", None),
    ("ricci", "run_ricci", "ricci.run", None),
    ("bergman", "bergman_step", "bergman.level", _levels),
    ("bergman", "run_levels", "bergman.run", _quad),
    ("bergman", "build_chain", "bergman.chain", None),
    ("family", "build_family", "family.build", None),
    ("family", "solve_fiberwise", "family.solve", _fibers),
    ("family", "base_positivity_check", "family.positivity", None),
    ("family", "ns_log_norm", "family.ns_norm", None),
)

#: per-layer metrics read from span statistics: (metric, span, field)
SPAN_METRICS = (
    ("kernels.tridiag.calls", "kernels.tridiag", "calls"),
    ("kernels.tridiag.self_s", "kernels.tridiag", "self"),
    ("kernels.lse_profile.calls", "kernels.lse_profile", "calls"),
    ("kernels.lse_profile.self_s", "kernels.lse_profile", "self"),
    ("kernels.lse_quadrature.calls", "kernels.lse_quadrature", "calls"),
    ("kernels.lse_quadrature.self_s", "kernels.lse_quadrature", "self"),
    ("kernels.logsumexp.calls", "kernels.logsumexp", "calls"),
    ("kernels.logsumexp.self_s", "kernels.logsumexp", "self"),
    ("geometry.mollify.calls", "geometry.mollify", "calls"),
    ("geometry.mollify.self_s", "geometry.mollify", "self"),
    ("masolver.solve.calls", "masolver.solve", "calls"),
    ("masolver.solve.self_s", "masolver.solve", "self"),
    ("masolver.problem.self_s", "masolver.problem", "self"),
    ("ricci.steps", "ricci.step", "calls"),
    ("ricci.step.self_s", "ricci.step", "self"),
    ("ricci.run.self_s", "ricci.run", "self"),
    ("bergman.level.self_s", "bergman.level", "self"),
    ("bergman.run.self_s", "bergman.run", "self"),
    ("bergman.chain.s", "bergman.chain", "total"),
    ("family.build.self_s", "family.build", "self"),
    ("family.solve.self_s", "family.solve", "self"),
    ("family.positivity.self_s", "family.positivity", "self"),
    ("family.ns_norm.calls", "family.ns_norm", "calls"),
    ("family.ns_norm.self_s", "family.ns_norm", "self"),
)

COUNT_METRICS = ("kernels.tridiag.rows", "kernels.lse_profile.cells",
                 "kernels.lse_quadrature.cells", "geometry.mollify.nodes",
                 "masolver.newton_iters", "bergman.levels", "bergman.sections",
                 "bergman.quad_nodes", "family.fibers")


class Tracer:
    """Span statistics per name: calls, self seconds, total seconds."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict[str, float]] = {}
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: CountFn = None) -> Callable:
        open_, clock = self._open, self.clock
        st = self.stats.setdefault(name, {"calls": 0, "self": 0.0, "total": 0.0})

        def traced(*args, **kwargs):
            open_.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                st["calls"] += 1
                st["self"] += dur - open_.pop()
                st["total"] += dur
                if open_:
                    open_[-1] += dur
            if count is not None:
                count(self.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of each function in ``SPANS``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "radialke" or n.startswith("radialke.")]
        for mod, fname, span, count in SPANS:
            fn = getattr(sys.modules[f"radialke.{mod}"], fname)
            traced = self.wrap(span, fn, count)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, attr, fn))
                        setattr(m, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            m, attr, fn = self._patches.pop()
            setattr(m, attr, fn)

    def metrics(self) -> dict[str, float]:
        """Per-layer values of everything recorded since construction."""
        out = {}
        for metric, span, field in SPAN_METRICS:
            out[metric] = self.stats.get(span, {}).get(field, 0)
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric]
        iters = out["masolver.newton_iters"]
        out["masolver.linear_per_iter"] = (
            out["kernels.tridiag.calls"] / iters if iters else 0.0)
        return out



def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("per_iter"):
        return "ratio"
    return "count"
