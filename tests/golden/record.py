"""Record the CLI output corpus that ``tests/test_golden.py`` replays.

    PYTHONPATH=src python tests/golden/record.py

writes ``tests/golden/cli.jsonl``, one request a line: its ``argv``, the
config-file text it reads (``config``, or null), its exit ``code``, and its
stdout (``stdout``), or the stdout's ``sha256`` where it is long and is
compared byte for byte anyway.  The requests are the distinct ``session``
argv of the benchmark's seeds 0 and 5, the README examples, the CI
commands, and every subcommand on the CI's all-keys config file (without
its ``csv`` key, which writes a file); the README and CI commands come in
text and ``--json``.

Rerun it only when an output changes on purpose, and list each changed
argv in CHANGES.md.  It keeps every recorded row whose replay still
matches (``mismatch``), so rows that no change touched keep their recorded
floats; it rewrites only the rows that differ or are new, and prints their
argv.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CORPUS = HERE / "cli.jsonl"

# Rows whose floats come from numpy and may move in the last bits between
# numpy versions; the replay compares their numbers at a relative bound.
FLOAT_COMMANDS = ("quadrature", "identities")
# The relative bound within which those rows' numbers replay.
REL = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
# Byte-compared stdout longer than this is stored as its sha256.
INLINE_LIMIT = 600

SESSION_SEEDS = (0, 5)

# The README's examples and synopsis lines with concrete values, the inputs
# it names as errors, and the CI's commands; each also runs with --json.
COMMANDS = (
    "solve",
    "gamma1",
    "check --eps 0.67",
    "check --m 2.46 --alpha 1.999 --eps 0.60",
    "frontier --m 2.46 --alpha 1.999",
    "frontier --family alpha --alpha 1.999",
    "quadrature",
    "identities",
    "solve --csv out.csv",
    "gamma1 --tol 1e-17",
    "identities --dim 2",
    "identities --dim 3",
    "identities --m 2.9 --eps 0.95",
    "identities --m 2.5 --eps 0.6546536707079771",
    "quadrature --dim 3",
    "quadrature --K 400 --K-cap 400 --grid 21",
    "quadrature --a 0 --K 439 --K-cap 439 --grid 21",
    "frontier --m 2.9",
    "scan --m-grid 2.1:2.9:9",
    "check --m 2.9 --alpha 1.999 --eps 0.6323693847656251",
    "check --m 2.9 --alpha 1.999 --eps 0.6323338",
)

ALL_KEYS = "\n".join((
    "m = 2.5", "alpha = 1.99", "gamma = 0.9", "eps = 0.5", "dim = 2", "a = 0.1,1", "K = 5",
    "K_cap = 10", "grid = 11", "tol = 1e-3", "max_iter = 50", "m_grid = 2.1:2.9:3",
    "init = 0.8,2.45,0.65", "family = m", "seed = 42", "json = false",
)) + "\n"
SUBCOMMANDS = ("solve", "gamma1", "check", "frontier", "scan", "quadrature", "identities")


def session_argv(seed: int) -> list[list[str]]:
    """The argv of every CLI request of one benchmark ``session`` pass."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    real = workloads._cli_call
    workloads._cli_call = list  # each request's ``call`` is then its argv
    try:
        return [req.call for req in workloads.make_session(seed, {})]
    finally:
        workloads._cli_call = real


def requests() -> list[tuple[list[str], str | None]]:
    """Every distinct (argv, config text) of the corpus, in a fixed order."""
    out = [(argv, None) for seed in SESSION_SEEDS for argv in session_argv(seed)]
    for line in COMMANDS:
        out += [(line.split(), None), (line.split() + ["--json"], None)]
    for cmd in SUBCOMMANDS:
        out += [([cmd], ALL_KEYS), ([cmd, "--json"], ALL_KEYS)]
    out.append((["gamma1"], ALL_KEYS + "K = -1\n"))
    seen, unique = set(), []
    for argv, config in out:
        key = (tuple(argv), config)
        if key not in seen:
            seen.add(key)
            unique.append((argv, config))
    return unique


def run(argv: list[str], config: str | None) -> tuple[int, str]:
    """Exit code and stdout of one request, in process."""
    from carleman_cone import cli

    try:
        cfg = cli.parse_config(argv, config)
    except cli.UsageError:
        return 3, ""
    buf = io.StringIO()
    code = cli.execute(cfg, stream=buf)
    return code, buf.getvalue()


def recorded_rows() -> list[dict]:
    if not CORPUS.exists():
        return []
    return [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def same_up_to_floats(got: str, want: str) -> bool:
    """Equal text between the numbers, and numbers within ``REL`` of each other."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return False
    return all(g == w or (i % 2 == 1 and math.isclose(float(g), float(w), rel_tol=REL))
               for i, (g, w) in enumerate(zip(got_parts, want_parts)))


def mismatch(row: dict, code: int, stdout: str) -> str | None:
    """What differs between one row and its replay, or None."""
    if code != row["code"]:
        return f"exit {code}, recorded {row['code']}"
    if "sha256" in row:
        same = hashlib.sha256(stdout.encode("utf-8")).hexdigest() == row["sha256"]
    elif row["argv"][0] in FLOAT_COMMANDS:
        same = same_up_to_floats(stdout, row["stdout"])
    else:
        same = stdout == row["stdout"]
    return None if same else f"stdout differs:\n{stdout}"


def row(argv: list[str], config: str | None, code: int, stdout: str) -> dict:
    out = {"argv": argv, "config": config, "code": code}
    if argv[0] in FLOAT_COMMANDS or len(stdout) <= INLINE_LIMIT:
        out["stdout"] = stdout
    else:
        out["sha256"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    return out


def main() -> int:
    recorded = {(tuple(r["argv"]), r["config"]): r for r in recorded_rows()}
    rows = []
    for argv, config in requests():
        code, stdout = run(argv, config)
        old = recorded.get((tuple(argv), config))
        if old is not None and mismatch(old, code, stdout) is None:
            rows.append(old)
            continue
        rows.append(row(argv, config, code, stdout))
        note = "" if config is None else " (with config)"
        print(f"{'changed' if old else 'new'}: {' '.join(argv)}{note}")
    CORPUS.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    print(f"wrote {len(rows)} rows to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
