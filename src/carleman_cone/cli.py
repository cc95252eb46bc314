"""Command-line surface.

Subcommands: solve | gamma1 | check | frontier | scan | quadrature |
identities.  Each subcommand accepts only the flags it reads, plus
``--json`` and ``--config``; a ``--config`` key=value file may set any key.
Flag values take precedence over the file, which takes precedence over
defaults.  Exit codes: 0 success/pass, 1 certified failure or quadrature
fail, 2 indeterminate or non-convergence, 3 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

import numpy as np

from . import __version__
from .conditions import DIRECT_KEYS, ROUTE_KEYS, direct_feasibility, sufficient_route_check
from .identities import run_identity_suite
from .quad import (
    BumpFunction,
    GridSpec,
    SupportViolationError,
    verify_carleman,
)
from .solver import (
    AllInfeasibleError,
    NonConvergenceError,
    NoSignChangeError,
    SingularJacobianError,
    frontier_epsilon,
    scan_frontier,
    solve_critical_system,
    solve_gamma1,
)
from .weights import WeightParams

__all__ = ["RunConfig", "parse_config", "execute", "main"]

# The flags each subcommand reads, besides --json and --config; any other
# flag is a usage error.  Config-file keys are accepted by every subcommand.
_COMMAND_FLAGS = {
    "solve": ("init", "tol", "max_iter"),
    "gamma1": ("tol",),
    "check": ("m", "alpha", "gamma", "eps", "tol"),
    "frontier": ("m", "alpha", "family", "tol"),
    "scan": ("m_grid", "alpha", "tol", "csv"),
    "quadrature": ("m", "alpha", "eps", "dim", "a", "K", "K_cap", "grid"),
    "identities": ("m", "alpha", "gamma", "eps", "dim", "seed"),
}
COMMANDS = tuple(_COMMAND_FLAGS)

_DEFAULTS: dict[str, Any] = {
    "m": 2.46,
    "alpha": 1.999,
    "gamma": 0.8092,
    "eps": 0.60,
    "dim": 2,
    "a": [0.1, 1.0, 10.0],
    "K": 60.0,
    "K_cap": 240.0,
    "grid": None,           # resolved per dim: 81 for dim=2, 41 for dim=3
    "tol": None,            # resolved per command
    "max_iter": 100,
    "m_grid": None,
    "init": (0.80, 2.45, 0.65),
    "family": "m",
    "seed": 42,
    "json": False,
    "csv": None,
}

_TOL_DEFAULTS = {
    "solve": 1e-12,
    "gamma1": 1e-10,
    "check": 1e-12,
    "frontier": 1e-4,
    "scan": 1e-4,
    "quadrature": 1e-12,
    "identities": 1e-12,
}


class UsageError(Exception):
    """Invalid flags or config; maps to exit code 3."""


@dataclass
class RunConfig:
    command: str
    m: float
    alpha: float
    gamma: float
    eps: float
    dim: int
    a_list: list[float]
    K: float
    K_cap: float
    grid: int
    tol: float
    max_iter: int
    m_grid: Optional[list[float]]
    init: tuple[float, float, float]
    family: str
    seed: int
    as_json: bool
    csv_path: Optional[str]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _parse_m_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"m_grid must look like lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad m_grid {text!r}: {exc}") from exc
    if count < 1:
        raise UsageError(f"m_grid count must be >= 1, got {count}")
    return [float(v) for v in np.linspace(lo, hi, count)]


def _parse_init(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"init must look like gamma,m,e, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise UsageError(f"bad init {text!r}: {exc}") from exc


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argparse tree of every subcommand, built on first use and then reused.

    Not built at import, which every process pays for.  ``parse_args``
    leaves the parser as it was, so one instance serves every call.
    """
    parser = _Parser(prog="carleman-cone")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name, keys in _COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        for key in keys:
            flag = "--" + key.replace("_", "-")
            if key == "a":
                p.add_argument(flag, type=float, action="append")
            else:
                p.add_argument(flag, type=_CONFIG_PARSERS[key])
        p.add_argument("--json", action="store_const", const=True, default=None)
        p.add_argument("--config", type=str)
    return parser


_CONFIG_PARSERS = {
    "m": float,
    "alpha": float,
    "gamma": float,
    "eps": float,
    "dim": int,
    "a": lambda s: [float(v) for v in s.split(",")],
    "K": float,
    "K_cap": float,
    "grid": int,
    "tol": float,
    "max_iter": int,
    "m_grid": str,
    "init": str,
    "family": str,
    "seed": int,
    "json": lambda s: s.strip().lower() in ("1", "true", "yes"),
    "csv": str,
}


def _read_config_file(text: str) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise UsageError(f"unknown config key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value.strip())
        except (ValueError, UsageError) as exc:
            raise UsageError(f"bad config value for {key!r}: {exc}") from exc
    return values


def _require(ok: bool, key: str, message: str) -> None:
    if not ok:
        raise UsageError(f"{key}: {message}")


def parse_config(argv: Sequence[str], file_text: Optional[str] = None) -> RunConfig:
    """Resolve argv (+ optional config text) into a validated RunConfig.

    Precedence is flags > config file > defaults.  A subcommand accepts only
    the flags it reads (``_COMMAND_FLAGS``) plus ``--json`` and
    ``--config``; other flags and unknown config keys are rejected.
    """
    parser = _build_parser()
    ns = parser.parse_args(list(argv))
    if ns.command is None:
        raise UsageError(f"missing subcommand (one of {', '.join(COMMANDS)})")

    file_values: dict[str, Any] = {}
    if file_text is None and ns.config is not None:
        path = Path(ns.config)
        if not path.exists():
            raise UsageError(f"config: file not found: {ns.config}")
        file_text = path.read_text(encoding="utf-8")
    if file_text is not None:
        file_values = _read_config_file(file_text)

    def pick(key: str):
        flag_value = getattr(ns, key, None)
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return file_values[key]
        return _DEFAULTS[key]

    command = ns.command
    dim = pick("dim")
    _require(dim in (2, 3), "dim", f"must be 2 or 3, got {dim}")

    grid = pick("grid")
    if grid is None:
        grid = 81 if dim == 2 else 41
    tol = pick("tol")
    if tol is None:
        tol = _TOL_DEFAULTS[command]

    m_grid_raw = pick("m_grid")
    m_grid = _parse_m_grid(m_grid_raw) if isinstance(m_grid_raw, str) else m_grid_raw
    init_raw = pick("init")
    init = _parse_init(init_raw) if isinstance(init_raw, str) else tuple(init_raw)

    cfg = RunConfig(
        command=command,
        m=pick("m"),
        alpha=pick("alpha"),
        gamma=pick("gamma"),
        eps=pick("eps"),
        dim=dim,
        a_list=list(pick("a")),
        K=pick("K"),
        K_cap=pick("K_cap"),
        grid=grid,
        tol=tol,
        max_iter=pick("max_iter"),
        m_grid=m_grid,
        init=init,
        family=pick("family"),
        seed=pick("seed"),
        as_json=bool(pick("json")),
        csv_path=pick("csv"),
    )
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    cmd = cfg.command
    _require(cfg.tol > 0.0, "tol", f"must be positive, got {cfg.tol}")
    _require(cfg.max_iter >= 1, "max_iter", f"must be >= 1, got {cfg.max_iter}")
    if cmd in ("check", "frontier", "scan", "quadrature", "identities"):
        _require(1.0 < cfg.alpha <= 2.0, "alpha", f"must lie in (1, 2], got {cfg.alpha}")
        _require(0.0 < cfg.eps < 1.0, "eps", f"must lie in (0, 1), got {cfg.eps}")
        _require(0.5 < cfg.gamma <= 1.0, "gamma", f"must lie in (1/2, 1], got {cfg.gamma}")
    if cmd in ("check", "quadrature", "identities") or (cmd == "frontier" and cfg.family == "m"):
        _require(2.0 < cfg.m < 3.0, "m", f"out of (2, 3), got {cfg.m}")
    if cmd == "frontier":
        _require(cfg.family in ("m", "alpha"), "family", f"must be m or alpha, got {cfg.family!r}")
        _require(1.0 < cfg.alpha < 2.0, "alpha", f"frontier needs alpha in (1, 2), got {cfg.alpha}")
    if cmd == "scan":
        _require(cfg.m_grid is not None, "m_grid", "scan needs --m-grid lo:hi:count")
        _require(1.0 < cfg.alpha < 2.0, "alpha", f"scan needs alpha in (1, 2), got {cfg.alpha}")
        for v in cfg.m_grid or ():
            _require(2.0 < v < 3.0, "m_grid", f"entries must lie in (2, 3), got {v}")
    if cmd == "solve":
        g, m, e = cfg.init
        _require(0.5 < g <= 1.0, "init", f"gamma component out of (1/2, 1], got {g}")
        _require(2.0 < m < 3.0, "init", f"m component out of (2, 3), got {m}")
        _require(0.0 < e < 1.0, "init", f"e component out of (0, 1), got {e}")
    if cmd == "quadrature":
        _require(cfg.K > 0.0, "K", f"must be positive, got {cfg.K}")
        _require(cfg.K_cap >= cfg.K, "K_cap", f"must be >= K, got {cfg.K_cap}")
        # Newton's Hessian of the weight carries t**-(K+2), largest at the
        # lower end t_lo of the grid's time axis; past float64 it overflows.
        t_lo = default_bump(cfg.dim).support[-1][0]
        k_max = math.floor(1e3 * (math.log(sys.float_info.max) / -math.log(t_lo) - 2.0)) / 1e3
        _require(cfg.K_cap <= k_max, "K_cap",
                 f"t_lo**-(K_cap+2) leaves the float64 range for t_lo = {t_lo:g}; "
                 f"the largest admissible K is {k_max:g}, got {cfg.K_cap}")
        _require(all(math.isfinite(a) and a >= 0.0 for a in cfg.a_list), "a",
                 "all values must be finite and >= 0")
        _require(cfg.grid >= 2, "grid", f"needs at least 2 nodes per axis, got {cfg.grid}")
    if cmd == "identities":
        _require(cfg.seed >= 0, "seed", f"must be >= 0, got {cfg.seed}")


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _verdict_json(v) -> dict[str, Any]:
    return {
        "kind": v.kind.value,
        "margin": v.margin,
        "witness": v.witness,
        "zeros": list(v.zeros),
    }


def _envelope(cfg: RunConfig, result: Any, verdicts: dict[str, Any]) -> dict[str, Any]:
    return {
        "command": cfg.command,
        "params": {
            "m": cfg.m,
            "alpha": cfg.alpha,
            "gamma": cfg.gamma,
            "eps": cfg.eps,
            "dim": cfg.dim,
            "K": cfg.K,
            "a_list": cfg.a_list,
        },
        "result": result,
        "verdicts": verdicts,
        "version": __version__,
    }


def _flatten(prefix: str, value: Any, out: list[str]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, (list, tuple)) and any(isinstance(v, dict) for v in value):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    elif isinstance(value, (list, tuple)):
        out.append(f"{prefix}: {', '.join(str(v) for v in value)}")
    else:
        out.append(f"{prefix}: {value}")


def _emit(cfg: RunConfig, envelope: dict[str, Any], stream=None) -> None:
    stream = stream or sys.stdout
    if cfg.as_json:
        json.dump(envelope, stream, indent=2)
        stream.write("\n")
    else:
        lines: list[str] = []
        _flatten("", {"command": envelope["command"],
                      "result": envelope["result"],
                      "verdicts": envelope["verdicts"]}, lines)
        stream.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def _run_solve(cfg: RunConfig) -> tuple[int, Any, dict]:
    try:
        res = solve_critical_system(init=cfg.init, tol=cfg.tol, max_iter=cfg.max_iter)
    except (NonConvergenceError, SingularJacobianError) as exc:
        return 2, {"error": str(exc)}, {}
    result = {
        "gamma": res.gamma,
        "m": res.m,
        "epsilon0": res.epsilon0,
        "theta_deg": res.theta_deg,
        "residuals": list(res.residuals),
        "iterations": res.iterations,
        "converged": res.converged,
    }
    return 0, result, {}


def _run_gamma1(cfg: RunConfig) -> tuple[int, Any, dict]:
    try:
        m, eps0 = solve_gamma1(tol=cfg.tol)
    except NoSignChangeError as exc:
        return 2, {"error": str(exc)}, {}
    return 0, {"m": m, "epsilon0": eps0,
               "theta_deg": math.degrees(2.0 * math.acos(eps0))}, {}


def _run_check(cfg: RunConfig) -> tuple[int, Any, dict]:
    params = WeightParams(m=cfg.m, alpha=cfg.alpha, gamma=cfg.gamma, epsilon=cfg.eps)
    direct = direct_feasibility(params, tol=cfg.tol)
    route = sufficient_route_check(params)
    verdicts = {k: _verdict_json(route.checks[k]) for k in ROUTE_KEYS}
    verdicts.update({k: _verdict_json(direct.checks[k]) for k in DIRECT_KEYS})
    witness = None
    if direct.failing_key is not None:
        witness = direct.checks[direct.failing_key].witness
    result = {
        "overall": direct.overall,
        "failing_key": direct.failing_key,
        "witness": witness,
        "route_overall": route.overall,
        "route_failing_key": route.failing_key,
        "m_in_core_range": params.m_in_core_range,
        "concavity_route_available": params.concavity_route_available,
    }
    code = {"feasible": 0, "infeasible": 1, "indeterminate": 2}[direct.overall]
    return code, result, verdicts


def _run_frontier(cfg: RunConfig) -> tuple[int, Any, dict]:
    family = "beta_eq_m" if cfg.family == "m" else "beta_eq_alpha"
    try:
        res = frontier_epsilon(
            family, alpha=cfg.alpha,
            m=cfg.m if family == "beta_eq_m" else None, tol=cfg.tol,
        )
    except AllInfeasibleError as exc:
        return 1, {"error": str(exc)}, {}
    result = {
        "family": res.family,
        "alpha": res.alpha,
        "m": res.m,
        "epsilon_sup": res.epsilon_sup,
        "bracket": [res.bracket.lo, res.bracket.hi],
        "evaluations": res.evaluations,
        "theta_deg": res.theta_deg,
    }
    return 0, result, {}


def _run_scan(cfg: RunConfig) -> tuple[int, Any, dict]:
    rows = scan_frontier(cfg.m_grid or [], alpha=cfg.alpha, tol=cfg.tol)
    table = [
        {"m": r.m, "epsilon_sup": r.epsilon_sup, "theta_deg": r.theta_deg, "error": r.error}
        for r in rows
    ]
    if cfg.csv_path:
        with open(cfg.csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "epsilon_sup", "theta_deg"])
            for r in rows:
                writer.writerow([
                    repr(r.m),
                    "" if r.epsilon_sup is None else repr(r.epsilon_sup),
                    "" if r.theta_deg is None else repr(r.theta_deg),
                ])
    return 0, {"rows": table, "csv": cfg.csv_path}, {}


def default_bump(dim: int) -> BumpFunction:
    """Verification bump: centered at (4, 0, ..) x t = 0.5, well inside Q."""
    return BumpFunction(
        amplitude=1.0,
        center=(4.0,) + (0.0,) * (dim - 1) + (0.5,),
        radii=(0.8,) * dim + (0.3,),
    )


def _run_quadrature(cfg: RunConfig) -> tuple[int, Any, dict]:
    params = WeightParams(m=cfg.m, alpha=cfg.alpha, gamma=cfg.gamma, epsilon=cfg.eps)
    u = default_bump(cfg.dim)
    grid = GridSpec.from_support(u, cfg.grid)
    reports = verify_carleman(u, params, cfg.a_list, cfg.K, cfg.K_cap, grid)
    result = [
        {
            "a": r.a,
            "K": r.K,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "ratio": r.ratio,
            "log_scale": r.log_scale,
            "grid": list(r.grid.counts),
            "pass": r.passed,
        }
        for r in reports
    ]
    code = 0 if all(r.passed for r in reports) else 1
    return code, result, {}


def _run_identities(cfg: RunConfig) -> tuple[int, Any, dict]:
    params = WeightParams(m=cfg.m, alpha=cfg.alpha, gamma=cfg.gamma, epsilon=cfg.eps)
    results = run_identity_suite(seed=cfg.seed, params=params, dim=cfg.dim)
    table = [{"name": r.name, "pass": r.passed, "detail": r.detail} for r in results]
    return (0 if all(r.passed for r in results) else 1), table, {}


_DISPATCH = {
    "solve": _run_solve,
    "gamma1": _run_gamma1,
    "check": _run_check,
    "frontier": _run_frontier,
    "scan": _run_scan,
    "quadrature": _run_quadrature,
    "identities": _run_identities,
}


def execute(cfg: RunConfig, stream=None) -> int:
    """Dispatch a validated config; writes the report and returns the exit code."""
    try:
        code, result, verdicts = _DISPATCH[cfg.command](cfg)
    except SupportViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(cfg, _envelope(cfg, result, verdicts), stream=stream)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
