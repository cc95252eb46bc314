"""Command-line surface.

Subcommands: solve | gamma1 | check | frontier | scan | quadrature |
identities.  Each subcommand accepts only the flags it reads (``_COMMANDS``),
plus ``--json`` and ``--config``, and ``frontier --family alpha`` reads no
``--m`` and records none; a ``--config`` key=value file may set any key.
Flag values take precedence over the file, which takes precedence over
defaults.  Every value is checked by its key's rule (``_KEYS``) whichever
subcommand runs, and ``_validate`` checks the rules that tie keys together,
among them the bound on ``K_cap``.  Exit codes: 0 success/pass, 1 certified
failure or quadrature fail, 2 indeterminate or non-convergence, 3 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from dataclasses import asdict, make_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

from . import __version__
from .conditions import WeightParams, direct_feasibility, sufficient_route_check
from .solver import (
    DEFAULT_INIT,
    AllInfeasibleError,
    NonConvergenceError,
    SingularJacobianError,
    frontier_epsilon,
    scan_frontier,
    solve_critical_system,
    solve_gamma1,
)

__all__ = ["RunConfig", "parse_config", "execute", "main"]

_M_GRID_MAX = 10_000  # the most m values one scan takes, each a frontier search
# The most quadrature nodes per axis, math.isqrt(32 * quad._SLAB_NODES): a 3-D slab's
# one-row floor holds at most 2**17 nodes, and Gauss-Legendre's O(n**2) build stays small.
_GRID_MAX = 362
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class UsageError(Exception):
    """Invalid flags or config; maps to exit code 3."""


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
    if count > _M_GRID_MAX:
        raise UsageError(f"m_grid count must be at most {_M_GRID_MAX}, got {count}")
    if count == 1:
        return [0.0 * (hi - lo) + lo]
    # np.linspace(lo, hi, count) to the bit: i * step + lo, the last node hi,
    # and a step that underflows to 0 scaled after the division instead
    div = count - 1
    step = (hi - lo) / div
    return [(i * step if step != 0.0 else i / div * (hi - lo)) + lo for i in range(div)] + [hi]


def _parse_init(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"init must look like gamma,m,e, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise UsageError(f"bad init {text!r}: {exc}") from exc


class _Key(NamedTuple):
    parse: Callable[[str], Any]             # flag or file text -> value
    default: Any                            # None: unset, or resolved in parse_config
    rule: Optional[Callable[[Any], bool]]   # the key's domain; a None value skips it
    domain: str                             # what the rule requires, for its message


# Every config key.  Each value, from a flag, the file or a default, must
# pass its key's rule whichever subcommand runs.
_KEYS = {
    "m": _Key(float, 2.46, lambda v: 2.0 < v < 3.0, "must lie in (2, 3)"),
    "alpha": _Key(float, 1.999, lambda v: 1.0 < v <= 2.0, "must lie in (1, 2]"),
    "gamma": _Key(float, 0.8092, lambda v: 0.5 < v <= 1.0, "must lie in (1/2, 1]"),
    "eps": _Key(float, 0.60, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "dim": _Key(int, 2, lambda v: v in (2, 3), "must be 2 or 3"),
    "a": _Key(lambda s: [float(v) for v in s.split(",")], [0.1, 1.0, 10.0],
              lambda v: all(math.isfinite(x) and x >= 0.0 for x in v),
              "all values must be finite and >= 0"),
    "K": _Key(float, 60.0, lambda v: v > 0.0, "must be positive"),
    "K_cap": _Key(float, 240.0, None, ""),  # bounded in _validate
    "grid": _Key(int, None, lambda v: 2 <= v <= _GRID_MAX,  # default per dim
                 f"needs at least 2 and at most {_GRID_MAX} nodes per axis"),
    "tol": _Key(float, None, lambda v: v > 0.0, "must be positive"),  # per subcommand
    "max_iter": _Key(int, 100, lambda v: v >= 1, "must be >= 1"),
    "m_grid": _Key(_parse_m_grid, None, lambda v: all(2.0 < x < 3.0 for x in v),
                   "entries must lie in (2, 3)"),
    "init": _Key(_parse_init, DEFAULT_INIT,
                 lambda v: 0.5 < v[0] <= 1.0 and 2.0 < v[1] < 3.0 and 0.0 < v[2] < 1.0,
                 "gamma,m,e must lie in (1/2, 1] x (2, 3) x (0, 1)"),
    "family": _Key(str, "m", lambda v: v in ("m", "alpha"), "must be m or alpha"),
    "seed": _Key(int, 42, lambda v: v >= 0, "must be >= 0"),
    "json": _Key(lambda s: _BOOLS.get(s.strip().lower(), s), False,
                 lambda v: isinstance(v, bool), "must be true/false, yes/no or 1/0"),
    "csv": _Key(str, None, lambda v: v != "", "must be a non-empty path"),
}

# One field per key, after the subcommand; tol, m_grid and csv may be None.
RunConfig = make_dataclass("RunConfig", ["command", *_KEYS], namespace={
    "__module__": __name__,
    "params": property(lambda self: WeightParams(
        m=self.m, alpha=self.alpha, gamma=self.gamma, epsilon=self.eps)),
})


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


@functools.lru_cache(maxsize=1)
def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The argparse tree of every subcommand, and each subcommand's parser in it.

    Built on first use, not at import, which every process pays for, and
    then reused: ``parse_args`` leaves a parser as it was.
    """
    parser = _Parser(prog="carleman-cone")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(command=name)
        for key in command.flags:
            flag = "--" + key.replace("_", "-")
            if key == "a":
                p.add_argument(flag, type=float, action="append")
            else:
                p.add_argument(flag, type=_KEYS[key].parse)
        p.add_argument("--json", action="store_const", const=True, default=None)
        p.add_argument("--config", type=str)
    return parser, sub.choices


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
        if key not in _KEYS:
            raise UsageError(f"unknown config key {key!r}")
        try:
            values[key] = _KEYS[key].parse(value.strip())
        except (ValueError, UsageError) as exc:
            raise UsageError(f"bad config value for {key!r}: {exc}") from exc
    return values


def parse_config(argv: Sequence[str], file_text: Optional[str] = None) -> RunConfig:
    """Resolve argv (+ optional config text) into a validated RunConfig.

    Precedence is flags > config file > defaults.  A subcommand accepts only
    the flags it reads (``_COMMANDS``) plus ``--json`` and ``--config``;
    other flags and unknown config keys are rejected, and every value must
    pass its key's rule (``_KEYS``) and the rules tying keys together
    (``_validate``).
    """
    parser, commands = _build_parser()
    if argv and argv[0] in commands:  # the subcommand's parser, as the tree would hand it the rest
        parser, argv = commands[argv[0]], argv[1:]
    ns = parser.parse_args(argv)  # else the tree's: --version, -h, a missing or unknown subcommand
    if ns.command is None:
        raise UsageError(f"missing subcommand (one of {', '.join(_COMMANDS)})")

    if file_text is None and ns.config is not None:
        try:
            file_text = Path(ns.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"config: {exc}") from exc
    file_values = {} if file_text is None else _read_config_file(file_text)

    values: dict[str, Any] = {}
    for key, spec in _KEYS.items():
        flag_value = getattr(ns, key, None)
        values[key] = flag_value if flag_value is not None else file_values.get(key, spec.default)
    values["a"] = list(values["a"])  # the caller's own list, never the shared default
    if values["grid"] is None:
        values["grid"] = 81 if values["dim"] == 2 else 41
    if values["tol"] is None:
        values["tol"] = _COMMANDS[ns.command].tol
    for key, value in values.items():
        spec = _KEYS[key]
        if value is not None and spec.rule is not None and not spec.rule(value):
            raise UsageError(f"{key}: {spec.domain}, got {value!r}")
    if getattr(ns, "m", None) is not None and "m" not in _read_keys(ns.command, values["family"]):
        # frontier's alpha family; a config file may still set m
        raise UsageError(f"m: frontier --family alpha takes no --m, got {ns.m!r}")

    cfg = RunConfig(command=ns.command, **values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """The rules that tie keys together; each key has passed its own rule."""
    if not cfg.K_cap >= cfg.K:
        raise UsageError(f"K_cap: must be >= K, got {cfg.K_cap}")
    # Newton's Hessian of the weight carries the time curvature
    # 2a K(K+1) t**-(K+2) phi (quad._grad_hess), largest at the lower end
    # t_lo of the default bump's time axis and at phi's maximum on it,
    # phi(x_hi, 0) = x_hi**alpha * f(1); past float64 it overflows.
    t_lo, x_hi = _BUMP_T - _BUMP_T_RADIUS, _BUMP_X1 + _BUMP_RADIUS
    phi_max = math.pow(x_hi, cfg.alpha) * (1.0 - math.pow(cfg.eps, cfg.m))
    c, log_max, log_t = 2.0 * max(cfg.a) * phi_max, math.log(sys.float_info.max), -math.log(t_lo)

    def headroom(K: float) -> float:  # log(float max) - log(curvature), decreasing in K
        return log_max - (K + 2.0) * log_t - math.log(max(c * K * (K + 1.0), 1.0))

    if not headroom(cfg.K_cap) >= 0.0:
        lo, hi = 0.0, log_max / log_t
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if headroom(mid) >= 0.0 else (lo, mid)
        raise UsageError(
            f"K_cap: 2a K(K+1) t_lo**-(K+2) phi_max leaves the float64 range for "
            f"t_lo = {t_lo:g}, phi_max = {phi_max:g} and a = {max(cfg.a):g}; "
            f"the largest admissible K is {math.floor(1e3 * lo) / 1e3:g}, got {cfg.K_cap}")
    if cfg.command in ("frontier", "scan") and not cfg.alpha < 2.0:
        raise UsageError(f"alpha: {cfg.command} needs alpha in (1, 2), got {cfg.alpha}")
    if cfg.command == "scan" and cfg.m_grid is None:
        raise UsageError("m_grid: scan needs --m-grid lo:hi:count")


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
        "params": {key: getattr(cfg, key) for key in _read_keys(cfg.command, cfg.family)},
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


_JSON_NONFINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}  # with "NaN", json.dumps's names
_JSON_SCALARS = {  # how json.dumps writes each scalar type
    str: encode_basestring_ascii, int: int.__repr__, type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    float: lambda v: float.__repr__(v) if math.isfinite(v) else _JSON_NONFINITE.get(v, "NaN"),
}


def _json(value: Any, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` byte for byte, dict keys being str.

    ``pad`` starts each line at ``value``'s depth.  With ``indent`` set the stdlib leaves
    its C encoder for a pure-Python one, which costs a check envelope half again as much.
    """
    inner = pad + "  "  # an item of a scalar type is written without a call of _json
    if isinstance(value, dict):
        items = [encode_basestring_ascii(k) + ": " + (w(v) if (w := _JSON_SCALARS.get(type(v)))
                 else _json(v, inner)) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [w(v) if (w := _JSON_SCALARS.get(type(v))) else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    for kind in type(value).__mro__:  # a scalar, of a subclass too (numpy's float64)
        if kind in _JSON_SCALARS:
            return _JSON_SCALARS[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(cfg: RunConfig, envelope: dict[str, Any], stream=None) -> None:
    stream = stream or sys.stdout
    if cfg.json:
        stream.write(_json(envelope) + "\n")
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
    return 0, asdict(res), {}  # SolverResult's fields, in their order


def _run_gamma1(cfg: RunConfig) -> tuple[int, Any, dict]:
    try:
        m, eps0 = solve_gamma1(tol=cfg.tol)
    except (NonConvergenceError, SingularJacobianError) as exc:
        return 2, {"error": str(exc)}, {}
    return 0, {"m": m, "epsilon0": eps0,
               "theta_deg": math.degrees(2.0 * math.acos(eps0))}, {}


def _run_check(cfg: RunConfig) -> tuple[int, Any, dict]:
    params = cfg.params
    direct = direct_feasibility(params, tol=cfg.tol)
    route = sufficient_route_check(params)
    verdicts = {k: _verdict_json(v) for k, v in (route.checks | direct.checks).items()}
    failing = direct.failing_key
    result = {
        "overall": direct.overall,
        "failing_key": failing,
        "witness": None if failing is None else direct.checks[failing].witness,
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
        res = frontier_epsilon(family, alpha=cfg.alpha, m=cfg.m, tol=cfg.tol)
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
    rows = scan_frontier(cfg.m_grid, alpha=cfg.alpha, tol=cfg.tol)
    table = [
        {"m": r.m, "epsilon_sup": r.epsilon_sup, "theta_deg": r.theta_deg, "error": r.error}
        for r in rows
    ]
    if cfg.csv:
        with open(cfg.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "epsilon_sup", "theta_deg"])
            writer.writerows(["" if v is None else repr(v)
                              for v in (r.m, r.epsilon_sup, r.theta_deg)] for r in rows)
    return 0, {"rows": table, "csv": cfg.csv}, {}


# The default bump's center and radii: x1 and t, the other axes at 0.
_BUMP_X1, _BUMP_RADIUS, _BUMP_T, _BUMP_T_RADIUS = 4.0, 0.8, 0.5, 0.3


def default_bump(dim: int):
    """Verification bump: centered at (4, 0, ..) x t = 0.5, well inside Q."""
    from .quad import BumpFunction

    return BumpFunction(
        amplitude=1.0,
        center=(_BUMP_X1,) + (0.0,) * (dim - 1) + (_BUMP_T,),
        radii=(_BUMP_RADIUS,) * dim + (_BUMP_T_RADIUS,),
    )


def _run_quadrature(cfg: RunConfig) -> tuple[int, Any, dict]:
    from .quad import GridSpec, SupportViolationError, verify_carleman

    u = default_bump(cfg.dim)
    grid = GridSpec.from_support(u, cfg.grid)
    try:
        reports = verify_carleman(u, cfg.params, cfg.a, cfg.K, cfg.K_cap, grid)
    except SupportViolationError as exc:
        raise UsageError(str(exc)) from exc
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


def run_identity_suite(seed: int, params: WeightParams, dim: int) -> list:
    """``identities.run_identity_suite``, imported on call: only this subcommand needs it."""
    from . import identities

    return identities.run_identity_suite(seed=seed, params=params, dim=dim)


def _run_identities(cfg: RunConfig) -> tuple[int, Any, dict]:
    results = run_identity_suite(seed=cfg.seed, params=cfg.params, dim=cfg.dim)
    table = [{"name": r.name, "pass": r.passed, "detail": r.detail} for r in results]
    return (0 if all(r.passed for r in results) else 1), table, {}


class _Command(NamedTuple):
    run: Callable[[RunConfig], tuple[int, Any, dict]]
    tol: Optional[float]        # the default tol; None where the run reads none
    flags: tuple[str, ...]      # the keys it reads, besides --json and --config


# Every subcommand.  Any flag it does not list is a usage error; config-file
# keys are accepted by every subcommand.  The keys the run reads
# (``_read_keys``), with the values it used, are the --json envelope's params.
_COMMANDS = {
    "solve": _Command(_run_solve, 1e-12, ("init", "tol", "max_iter")),
    "gamma1": _Command(_run_gamma1, 1e-10, ("tol",)),
    "check": _Command(_run_check, 1e-12, ("m", "alpha", "gamma", "eps", "tol")),
    "frontier": _Command(_run_frontier, 1e-4, ("m", "alpha", "family", "tol")),
    "scan": _Command(_run_scan, 1e-4, ("m_grid", "alpha", "tol", "csv")),
    "quadrature": _Command(_run_quadrature, None,
                           ("m", "alpha", "eps", "dim", "a", "K", "K_cap", "grid")),
    "identities": _Command(_run_identities, None, ("m", "alpha", "gamma", "eps", "dim", "seed")),
}


def _read_keys(command: str, family: str) -> tuple[str, ...]:
    """The keys a run reads: its flags, but no m in frontier's alpha family (exponent alpha)."""
    unread = "m" if (command, family) == ("frontier", "alpha") else None
    return tuple(key for key in _COMMANDS[command].flags if key != unread)


def execute(cfg: RunConfig, stream=None) -> int:
    """Dispatch a validated config; writes the report and returns the exit code."""
    try:
        code, result, verdicts = _COMMANDS[cfg.command].run(cfg)
    except UsageError as exc:  # input that only the run itself can reject
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
