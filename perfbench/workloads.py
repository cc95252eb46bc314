"""The benchmark's workloads: inputs made from a seed, and an oracle per request.

A workload is a fixed list of requests that one client sends in a closed
loop; one pass over the list is one complete result.  Each request calls the
package through module attributes looked up at call time, so the tracer's
wrappers see the calls.

* ``scan``: ``scan_frontier`` over the paper's 9-point m-grid at
  alpha = 1.999, one grid point per request, then one
  ``frontier_epsilon("beta_eq_alpha")``.  The seed picks one of the grid
  variants in ``reference.json``.
* ``session``: many short in-process CLI requests, about 90% ``check``.
* ``quadrature``: ``verify_carleman`` on the CLI's default bump in a
  concentrated, a resolved and a 3-D case.  The inputs are the paper's
  verification cases; the seed only orders the requests.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracles

FRONTIER_TOL = 1e-4
SCAN_ALPHA = 1.999

# Session mix per pass: check strata, then the other request kinds.
SESSION_MIX = {
    "check_feasible": 60,
    "check_refuted": 60,
    "check_near_frontier": 60,
    "frontier_alpha": 5,
    "solve": 5,
    "gamma1": 4,
    "identities_dim2": 3,
    "identities_dim3": 3,
}
SMOKE_SESSION_MIX = {kind: (4 if kind.startswith("check") else 1) for kind in SESSION_MIX}
SOLVE_TOL = 1e-12

# (case, dim, grid nodes per axis, K, a values); K_cap is the CLI default.
QUAD_CASES = (
    ("concentrated", 2, 161, 60.0, (0.1, 1.0, 10.0)),
    ("resolved", 2, 161, 0.5, (0.1, 1.0)),
    ("dim3", 3, 41, 60.0, (0.1, 1.0, 10.0)),
)
SMOKE_QUAD_CASES = (
    ("concentrated", 2, 41, 60.0, (1.0,)),
    ("resolved", 2, 81, 0.5, (0.1, 1.0)),
    ("dim3", 3, 21, 60.0, (1.0,)),
)
QUAD_K_CAP = 240.0


@dataclass
class Request:
    """One client call: ``call()`` returns its output, ``check(output)`` its problems.

    A CLI request's output is (exit code, text, parsed envelope or None).
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    via_cli: bool = False


def _feasibility(m: float, alpha: float, eps: float):
    """The package's direct certificate, from its defining module (never traced)."""
    from carleman_cone import conditions
    from carleman_cone.weights import WeightParams

    return conditions.direct_feasibility(WeightParams(m=m, alpha=alpha, gamma=1.0, epsilon=eps))


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def make_scan(seed: int, reference: dict, smoke: bool = False) -> list[Request]:
    """One request per frontier: each grid point's ``scan_frontier`` row, then
    the alpha family's frontier.  A pass is the whole scan."""
    from carleman_cone import solver

    variants = reference["scan"]["variants"]
    variant = variants[seed % len(variants)]
    points = 2 if smoke else len(variant["m_grid"])
    requests = []
    for m, ref in zip(variant["m_grid"][:points], variant["epsilon_sup"][:points]):

        def call(m=m):
            return tuple(solver.scan_frontier([m], alpha=SCAN_ALPHA, tol=FRONTIER_TOL))

        def check(rows, m=m, ref=ref):
            if [r.m for r in rows] != [m]:
                return [f"scan rows cover m = {[r.m for r in rows]}, expected [{m!r}]"]
            (row,) = rows
            if row.epsilon_sup is None:
                return [f"no frontier at m={row.m!r}: {row.error}"]
            return oracles.frontier_problems(
                row.m, SCAN_ALPHA, row.epsilon_sup, row.epsilon_sup + FRONTIER_TOL,
                _feasibility, ref, FRONTIER_TOL)

        requests.append(Request("scan_row", call, check))

    fam = variant["alpha_family"]

    def alpha_call():
        return solver.frontier_epsilon("beta_eq_alpha", alpha=fam["alpha"], tol=FRONTIER_TOL)

    def alpha_check(res):
        return oracles.frontier_problems(
            fam["alpha"], fam["alpha"], res.epsilon_sup, res.bracket.hi,
            _feasibility, fam["epsilon_sup"], FRONTIER_TOL)

    requests.append(Request("alpha_frontier", alpha_call, alpha_check))
    return requests


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------

def _cli_call(argv: list[str]) -> Callable[[], tuple]:
    from carleman_cone import cli

    def call():
        try:
            cfg = cli.parse_config(argv)
        except cli.UsageError:
            return 3, "", None
        buf = io.StringIO()
        code = cli.execute(cfg, stream=buf)
        text = buf.getvalue()
        return code, text, (json.loads(text) if text else None)

    return call


def _with_envelope(check: Callable[[dict, int], list[str]]) -> Callable[[tuple], list[str]]:
    def wrapped(out):
        code, _, env = out
        if code == 3 or env is None:
            return [f"usage error or no output (exit {code})"]
        return check(env, code)

    return wrapped


def _check_request(rng: random.Random, stratum: str) -> Request:
    alpha = rng.uniform(1.95, 1.999)
    if stratum == "check_near_frontier":
        # Boundary regime: l1's minimum sits at h = eps, so the frontier is the
        # boundary law eps^2 = (m-1)/(m+1) and certificates stay shallow.
        m = rng.uniform(2.1, 2.45)
        eps = math.sqrt((m - 1.0) / (m + 1.0)) + rng.choice((-1.0, 1.0)) * rng.uniform(5e-4, 1e-2)
    else:
        m = rng.uniform(2.1, 2.9)
        eps = rng.uniform(0.30, 0.55) if stratum == "check_feasible" else rng.uniform(0.70, 0.90)
    argv = ["check", "--m", repr(m), "--alpha", repr(alpha), "--eps", repr(eps), "--json"]
    return Request("check", _cli_call(argv), _with_envelope(
        lambda env, code: oracles.check_problems(env, code, m, alpha, eps)), True)


def _frontier_check(env: dict, code: int) -> list[str]:
    if code != 0:
        return [f"frontier exited {code}"]
    res = env["result"]
    alpha = res["alpha"]
    return oracles.frontier_problems(alpha, alpha, res["epsilon_sup"], res["bracket"][1],
                                     _feasibility, None, FRONTIER_TOL)


def _session_request(rng: random.Random, kind: str) -> Request:
    if kind.startswith("check"):
        return _check_request(rng, kind)
    if kind == "frontier_alpha":
        argv = ["frontier", "--family", "alpha", "--alpha", repr(rng.uniform(1.95, 1.999)), "--json"]
        return Request("frontier", _cli_call(argv), _with_envelope(_frontier_check), True)
    if kind == "solve":
        init = (rng.uniform(0.76, 0.84), rng.uniform(2.40, 2.50), rng.uniform(0.62, 0.68))
        argv = ["solve", "--init", ",".join(repr(v) for v in init), "--json"]
        return Request("solve", _cli_call(argv), _with_envelope(
            lambda env, code: oracles.solve_problems(env, code, SOLVE_TOL)), True)
    if kind == "gamma1":
        return Request("gamma1", _cli_call(["gamma1", "--json"]),
                       _with_envelope(oracles.gamma1_problems), True)
    # The suite's own default seed: about 5% of other seeds fail a fixed
    # tolerance (boundary_vanishing, powersum_derivative_fd), a package
    # defect recorded in the README rather than measured here.
    argv = ["identities", "--dim", kind[-1], "--json"]
    return Request("identities", _cli_call(argv), _with_envelope(oracles.identities_problems),
                   True)


def make_session(seed: int, reference: dict, smoke: bool = False) -> list[Request]:
    rng = random.Random(seed)
    mix = SMOKE_SESSION_MIX if smoke else SESSION_MIX
    requests = [_session_request(rng, kind) for kind, count in mix.items() for _ in range(count)]
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def make_quadrature(seed: int, reference: dict, smoke: bool = False) -> list[Request]:
    from carleman_cone import cli, quad
    from carleman_cone.weights import WeightParams

    params = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.60)
    resolved = reference["quadrature"]["resolved_ratio"]
    requests = []
    for case, dim, n, K, a_values in SMOKE_QUAD_CASES if smoke else QUAD_CASES:
        u = cli.default_bump(dim)
        grid = quad.GridSpec.from_support(u, n)
        for a in a_values:
            ref = resolved[repr(a)][str(n)] if case == "resolved" else None

            def call(u=u, grid=grid, a=a, K=K):
                return quad.verify_carleman(u, params, [a], K, QUAD_K_CAP, grid)

            def check(out, ref=ref):
                if len(out) != 1:
                    return [f"expected one report, got {len(out)}"]
                return oracles.quadrature_problems(out[0], ref)

            requests.append(Request(case, call, check))
    random.Random(seed).shuffle(requests)
    return requests


MAKERS = {"scan": make_scan, "session": make_session, "quadrature": make_quadrature}

# Workloads whose user asks for the whole pass at once: a scan is one request
# to its user, and its frontiers are separate requests only so that each gets
# its own median.
PASS_IS_ONE_REQUEST = {"scan"}

# Traced sites every pass of a workload calls.  One reading 0 means the
# package no longer calls the name where the tracer wraps it, and the traced
# run fails rather than report the layer's figures as zero.
REACHES = {
    "scan": ("algebra.eval_interval.calls", "algebra.certify_sign.calls",
             "conditions.direct_feasibility.calls", "solver.frontier_epsilon.calls",
             "solver.scan_frontier.calls"),
    "session": ("algebra.eval_interval.calls", "algebra.certify_sign.calls",
                "conditions.direct_feasibility.calls", "conditions.sufficient_route_check.calls",
                "solver.frontier_epsilon.calls", "solver.solve_critical_system.calls",
                "solver.solve_gamma1.calls", "identities.run_identity_suite.calls",
                "weights.pointwise.calls", "cli.parse_config.calls", "cli.execute.calls"),
    "quadrature": ("quad.carleman_integrals.calls", "quad.verify_carleman.calls"),
}


def cli_counts(requests: list[Request], outputs: list) -> dict[str, int]:
    """Exit codes and output bytes of the CLI requests of one pass."""
    counts = {f"cli.exit_code.{c}": 0 for c in range(4)}
    counts["cli.output_bytes"] = 0
    for req, out in zip(requests, outputs):
        if not req.via_cli or isinstance(out, BaseException):
            continue
        code, text, _ = out
        counts[f"cli.exit_code.{code}"] = counts.get(f"cli.exit_code.{code}", 0) + 1
        counts["cli.output_bytes"] += len(text.encode("utf-8"))
    return counts
