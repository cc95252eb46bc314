"""In-memory span tracing around the package's layer boundaries.

A span is ``[name, start_ns, end_ns, parent, request]``: ``parent`` is the
index of the enclosing span (-1 at a request's root) and ``request`` the id
of the request it served.  Spans stay in memory until the run ends and are
then written out as CSV.

Each wrapper is installed where the caller looks the name up: a function
imported with ``from .x import f`` is called through the importing module's
global, so a wrapper on the defining module alone would see no calls.
Wrappers are installed only for a traced pass and removed after it, so
untraced passes run the package unmodified.  A site the package no longer
has is an error, not a zero: a renamed or replaced function must be traced
anew before its layer's figures mean anything.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import math
import time
from pathlib import Path
from typing import Callable


def span_sites() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name); the span name is the callee's layer."""
    from carleman_cone import algebra, cli, conditions, identities, quad, solver

    return [
        (algebra.PowerSum, "eval_interval", "algebra.eval_interval"),
        (conditions, "certify_sign", "algebra.certify_sign"),
        (solver, "direct_feasibility", "conditions.direct_feasibility"),
        (cli, "direct_feasibility", "conditions.direct_feasibility"),
        (cli, "sufficient_route_check", "conditions.sufficient_route_check"),
        (solver, "frontier_epsilon", "solver.frontier_epsilon"),
        (cli, "frontier_epsilon", "solver.frontier_epsilon"),
        (solver, "scan_frontier", "solver.scan_frontier"),
        (cli, "solve_critical_system", "solver.solve_critical_system"),
        (cli, "solve_gamma1", "solver.solve_gamma1"),
        (cli, "run_identity_suite", "identities.run_identity_suite"),
        (quad, "carleman_integrals", "quad.carleman_integrals"),
        (quad, "verify_carleman", "quad.verify_carleman"),
        (cli, "parse_config", "cli.parse_config"),
        (cli, "execute", "cli.execute"),
    ]


def count_sites() -> list[tuple[object, str, str]]:
    """Pointwise weight evaluations: too many and too short for spans, so counted only."""
    from carleman_cone import identities

    return [(identities, name, "weights.pointwise.calls")
            for name in ("phi_eval", "grad_phi", "hess_phi")]


def _on_result(name: str, result, counters: collections.Counter) -> None:
    """Work counts read off a layer's return value."""
    if name == "algebra.certify_sign":
        kind = result.kind.value
        if kind == "indeterminate":
            counters["algebra.certify_sign.indeterminate"] += 1
        elif kind.endswith("_somewhere"):
            counters["algebra.certify_sign.refuted"] += 1
    elif name == "conditions.direct_feasibility":
        counters[f"conditions.verdict.{result.overall}"] += 1
    elif name == "solver.frontier_epsilon":
        counters["solver.frontier_epsilon.probes"] += result.evaluations
    elif name == "solver.solve_critical_system":
        counters["solver.solve_critical_system.iterations"] += result.iterations
    elif name == "quad.carleman_integrals":
        counters["quad.grid_nodes"] += math.prod(result.grid.counts)
    elif name == "quad.verify_carleman":
        counters["quad.a_values"] += len(result)


class MissingSite(RuntimeError):
    """A traced site is gone from the package."""


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: collections.Counter = collections.Counter()
        self.request = 0
        self._stack: list[int] = []

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            _on_result(name, result, counters)
            return result

        return traced

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def request_span(self, name: str, request: int):
        """Root span of one request; every span inside it carries ``request``."""
        self.request = request
        idx = len(self.spans)
        span = [name, time.perf_counter_ns(), 0, -1, request]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for sites, make in ((span_sites(), self._span_wrapper),
                                (count_sites(), self._count_wrapper)):
                for owner, attr, name in sites:
                    if not hasattr(owner, attr):
                        raise MissingSite(f"{getattr(owner, '__name__', owner)}.{attr} "
                                          f"(traced as {name}) no longer exists")
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, make(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_csv(self, path: Path) -> None:
        """Write every span recorded so far: id, parent, request, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "request", "name", "start_ns", "end_ns"])
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                out.writerow([i, parent, request, name, start, end])


# Counts read off return values (``_on_result``) or counted at a count site.
RESULT_COUNTS = (
    "algebra.certify_sign.indeterminate",
    "algebra.certify_sign.refuted",
    "conditions.verdict.feasible",
    "conditions.verdict.infeasible",
    "conditions.verdict.indeterminate",
    "solver.frontier_epsilon.probes",
    "solver.solve_critical_system.iterations",
    "quad.grid_nodes",
    "weights.pointwise.calls",
)


def layer_summary(spans: list[list], first: int, counters: collections.Counter) -> dict[str, float]:
    """Per-layer calls, self time and counts over ``spans[first:]``.

    Self time is a span's duration minus the durations of its direct
    children.  Every site's figures are present, zero where a pass did not
    call it.
    """
    n = len(spans)
    child = [0] * (n - first)
    evals_in = [0] * (n - first)
    for i in range(first, n):
        name, start, end, parent, _ = spans[i]
        if parent >= first:
            child[parent - first] += end - start
            if name == "algebra.eval_interval":
                evals_in[parent - first] += 1
    calls: collections.Counter = collections.Counter()
    self_ns: collections.Counter = collections.Counter()
    max_evals = 0
    for i in range(first, n):
        name, start, end, _, _ = spans[i]
        calls[name] += 1
        self_ns[name] += end - start - child[i - first]
        if name == "algebra.certify_sign":
            max_evals = max(max_evals, evals_in[i - first])
    out: dict[str, float] = dict.fromkeys(RESULT_COUNTS, 0)
    for name in {site[2] for site in span_sites()} | set(calls):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] * 1e-9
    out["algebra.certify_sign.evals_per_call.max"] = max_evals
    out["trace.spans"] = n - first
    out.update(counters)
    # verify_carleman makes one call per a; every further call escalated K.
    out["quad.k_escalations"] = (out["quad.carleman_integrals.calls"]
                                 - out.pop("quad.a_values", 0))
    return out
