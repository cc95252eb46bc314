"""Self-test of the benchmark: short runs, corrupted outputs, and a bare checkout.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* a short run of every workload, untraced and traced, ends in the JSON line
  the benchmark promises and prints every metric named in BENCHMARK.json;
* every oracle reports a failure when fed a deliberately corrupted output;
* a traced run fails when a traced site is gone or no longer called;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

It takes about a minute and exits non-zero if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pkg  # noqa: E402

RUN = HERE / "run.py"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def fires(problems: list[str], what: str, needle: str = "") -> None:
    expect(bool(problems) and all(isinstance(p, str) for p in problems)
           and any(needle in p for p in problems),
           f"oracle fires: {what}" + (f" ({problems[0]})" if problems else ""))


def short_runs(spec: dict) -> None:
    for workload in ("scan", "session", "quadrature"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                capture_output=True, text=True, timeout=600)
            what = f"short run {workload} --trace {trace}"
            if proc.returncode != 0 or not proc.stdout.strip():
                expect(False, f"{what} exits 0 with output: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: last line has exactly the four keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what}: correct, nothing failed")
            names = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            expect(set(got) == set(names), f"{what}: prints every {key} metric and no other")
            expect(all(isinstance(v["value"], (int, float)) and v["unit"] == names.get(k)
                       for k, v in got.items()), f"{what}: every value is a number with its unit")
            if trace == 0:
                expect(all(v["value"] > 0 for v in got.values()),
                       f"{what}: no end-to-end metric reads 0")


def corrupted_outputs() -> None:
    import oracles
    import run
    import workloads

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    # scan
    scan = workloads.make_scan(0, reference, smoke=True)
    row_req, alpha_req = scan[0], scan[-1]
    rows, alpha_res = row_req.call(), alpha_req.call()
    expect(row_req.check(rows) == [] and alpha_req.check(alpha_res) == [],
           "scan: true output passes")
    shifted = (dataclasses.replace(rows[0], epsilon_sup=rows[0].epsilon_sup - 3e-4),)
    fires(row_req.check(shifted), "scan epsilon_sup off the reference", "reference")
    too_wide = (dataclasses.replace(rows[0], epsilon_sup=0.9),)
    fires(row_req.check(too_wide), "scan epsilon_sup with a sampled violation", "violated at")
    too_low = (dataclasses.replace(rows[0], epsilon_sup=0.3),)
    fires(row_req.check(too_low), "scan point beyond the frontier certifies feasible",
          "beyond the frontier")
    fires(alpha_req.check(dataclasses.replace(alpha_res, epsilon_sup=alpha_res.epsilon_sup + 3e-4)),
          "alpha-family epsilon_sup off the reference", "reference")
    fires(oracles.witness_violation("l1_direct", 0.6, 2.46, 1.999, 0.6),
          "refutation witness that is no violation", "no violation")

    # session
    requests = workloads.make_session(0, reference, smoke=True)
    outs = {}
    for req in requests:
        out = req.call()
        expect(req.check(out) == [], f"session {req.kind}: true output passes")
        code, _, env = out
        key = req.kind if req.kind != "check" else f"check_{env['result']['overall']}"
        outs.setdefault(key, (req, out))

    def recheck(key, mutate, code=None):
        req, (c, text, env) = outs[key]
        env = json.loads(json.dumps(env))
        mutate(env["result"])
        return req.check((c if code is None else code, text, env))

    fires(recheck("check_infeasible", lambda r: None, code=0), "check exit code vs overall",
          "exit code")
    fires(recheck("check_infeasible", lambda r: r.update(overall="feasible"), code=0),
          "check refuted point reported feasible", "violated at")
    fires(recheck("check_feasible",
                  lambda r: r.update(overall="infeasible", failing_key="l1_direct",
                                     witness=1.0), code=1),
          "check witness that is no violation", "no violation")
    fires(recheck("solve", lambda r: r.update(theta_deg=r["theta_deg"] + 0.5)),
          "solve angle off", "theta_deg")
    fires(recheck("solve", lambda r: r.update(epsilon0=r["epsilon0"] + 1e-6)),
          "solve residual above tol", "residual")
    fires(recheck("gamma1", lambda r: r.update(m=r["m"] + 0.01)), "gamma1 m off", "gamma1")
    fires(recheck("identities", lambda r: r[0].update(**{"pass": False})),
          "identity reported failing", "failed")
    fires(recheck("frontier", lambda r: r.update(bracket=[r["bracket"][0], 0.3])),
          "frontier point beyond it certifies feasible", "beyond the frontier")
    req, _ = outs["gamma1"]
    fires(req.check((3, "", None)), "usage error counts as failure", "usage error")

    # quadrature
    requests = workloads.make_quadrature(0, reference, smoke=True)
    resolved = next(r for r in requests if r.kind == "resolved")
    (rep,) = resolved.call()
    expect(resolved.check([rep]) == [], "quadrature: true output passes")
    fires(resolved.check([dataclasses.replace(rep, passed=False)]), "quadrature verdict fails",
          "inequality failed")
    fires(resolved.check([dataclasses.replace(rep, lhs=float("nan"))]),
          "quadrature lhs not finite", "lhs")
    fires(resolved.check([dataclasses.replace(rep, rhs=0.0)]),
          "quadrature rhs not positive", "rhs")
    fires(resolved.check([dataclasses.replace(rep, ratio=rep.ratio * 1.02)]),
          "quadrature resolved ratio off the reference", "reference")

    # the loop: an exception and a corrupted repeat both count as failed
    loop = run.Loop([resolved])
    loop.check([[rep]])
    loop.check([RuntimeError("boom")])
    loop.check([[dataclasses.replace(rep, passed=False)]])
    expect((loop.attempted, loop.failed) == (3, 2),
           "loop counts an exception and a corrupted repeat as failed")


def tracer_refuses_lost_sites() -> None:
    import run
    import tracing
    import workloads

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    sites = tracing.count_sites
    tracing.count_sites = lambda: sites() + [(tracing, "no_such_function", "x.calls")]
    try:
        with tracing.Tracer().installed():
            pass
        expect(False, "tracer refuses a site the package no longer has")
    except tracing.MissingSite:
        expect(True, "tracer refuses a site the package no longer has")
    finally:
        tracing.count_sites = sites
    # A quadrature request traced as a scan leaves every scan site at 0.
    quad_req = workloads.make_quadrature(0, reference, smoke=True)[:1]
    with tempfile.TemporaryDirectory(prefix="bare-", dir=HERE) as tmp:
        try:
            run.run_traced(run.Loop(quad_req), 0.0, "scan", Path(tmp) / "spans.csv")
            expect(False, "traced run refuses a site its workload no longer reaches")
        except tracing.MissingSite:
            expect(True, "traced run refuses a site its workload no longer reaches")


def bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix="bare-", dir=HERE) as tmp:
        bare = Path(tmp)
        shutil.copy(pkg.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "traces", "bare-*"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    pkg.load()
    spec = json.loads((pkg.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    corrupted_outputs()
    tracer_refuses_lost_sites()
    bare_directory()
    short_runs(spec)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
