"""Record the oracle reference table, ``perfbench/reference.json``.

Run from the repository root::

    python3 perfbench/record_reference.py

It takes a few minutes on one core.  The table fixes the scan workload's
input variants and their frontier values, and the converged quadrature
ratios of the resolved case.  Rerun it only when the benchmark's inputs
change; a change to the program must be checked against the existing table.

Scan variants.  Certifier work is not smooth in m: at alpha = 1.999 the
frontier at m = 2.6 takes about 51k interval evaluations and the one at
m = 2.602 about 123k.  A jitter drawn freely would make the problem size
vary from seed to seed by more than the benchmark's bounds.  So every
jittered point is drawn at random within +-JITTER of the paper's grid point,
and a draw is kept only if its frontier's interval evaluations differ from
the paper point's by at most WORK_MATCH of that point's, or SCAN_SHARE of
the whole scan's, whichever is larger.  A point with no matching draw stays
on the paper's grid.  Variant 0 is the paper's grid.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pkg  # noqa: E402

OUT = Path(__file__).resolve().parent / "reference.json"

ALPHA = 1.999
FRONTIER_TOL = 1e-4
N_VARIANTS = 8
JITTER = 0.005
CANDIDATES = 12
WORK_MATCH = 0.10
SCAN_SHARE = 0.01
CANDIDATE_SEED = 20131023
# The comparison family's alpha is jittered below the paper's 1.999.
ALPHA_FAMILY_JITTER = 0.009

RESOLVED_A = (0.1, 1.0)
RESOLVED_GRIDS = (81, 161)
RESOLVED_K = 0.5


def _counting_frontier(solver, algebra):
    """frontier_epsilon that also returns its interval-evaluation count."""
    count = [0]
    original = algebra.PowerSum.eval_interval

    def counted(self, region):
        count[0] += 1
        return original(self, region)

    def run(family, alpha, m=None):
        count[0] = 0
        algebra.PowerSum.eval_interval = counted
        try:
            res = solver.frontier_epsilon(family, alpha=alpha, m=m, tol=FRONTIER_TOL)
        finally:
            algebra.PowerSum.eval_interval = original
        return res, count[0]

    return run


def record_scan():
    from carleman_cone import algebra, solver

    frontier = _counting_frontier(solver, algebra)
    base_grid = [float(v) for v in np.linspace(2.1, 2.9, 9)]
    rng = random.Random(CANDIDATE_SEED)
    # Per grid index: (m, epsilon_sup, evaluations) of the paper point, then of matched draws.
    points = []
    for base in base_grid:
        res, evals = frontier("beta_eq_m", ALPHA, base)
        points.append([(base, res.epsilon_sup, evals)])
    scan_total = sum(p[0][2] for p in points)
    for base, cands in zip(base_grid, points):
        evals = cands[0][2]
        slack = max(WORK_MATCH * evals, SCAN_SHARE * scan_total)
        for _ in range(CANDIDATES):
            m = round(base + rng.uniform(-JITTER, JITTER), 5)
            res_c, evals_c = frontier("beta_eq_m", ALPHA, m)
            if abs(evals_c - evals) <= slack:
                cands.append((m, res_c.epsilon_sup, evals_c))
        print(f"m={base:.3f}: {evals} evaluations, {len(cands) - 1} matched draws",
              file=sys.stderr, flush=True)

    variants = []
    for v in range(N_VARIANTS):
        pick = random.Random(v)
        chosen = [c[0] if v == 0 or len(c) == 1 else pick.choice(c[1:]) for c in points]
        alpha_v = ALPHA if v == 0 else round(ALPHA - pick.uniform(0.0, ALPHA_FAMILY_JITTER), 5)
        res, evals = frontier("beta_eq_alpha", alpha_v)
        variants.append({
            "m_grid": [m for m, _, _ in chosen],
            "epsilon_sup": [e for _, e, _ in chosen],
            "evaluations": [n for _, _, n in chosen],
            "alpha_family": {
                "alpha": alpha_v,
                "epsilon_sup": res.epsilon_sup,
                "evaluations": evals,
            },
        })
    return {"alpha": ALPHA, "tol": FRONTIER_TOL, "variants": variants}


def record_quadrature():
    from carleman_cone import cli, quad
    from carleman_cone.weights import WeightParams

    params = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.60)
    u = cli.default_bump(2)
    ratios = {}
    for n in RESOLVED_GRIDS:
        grid = quad.GridSpec.from_support(u, n)
        for rep in quad.verify_carleman(u, params, RESOLVED_A, RESOLVED_K, 240.0, grid):
            ratios.setdefault(repr(rep.a), {})[str(n)] = rep.ratio
    return {"resolved_K": RESOLVED_K, "resolved_ratio": ratios}


def main() -> int:
    pkg.load()
    start = time.perf_counter()
    table = {"scan": record_scan(), "quadrature": record_quadrature()}
    OUT.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT} in {time.perf_counter() - start:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
