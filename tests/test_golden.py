"""The CLI's exit codes and stdout replay unchanged from ``tests/golden/cli.jsonl``.

Each row runs in process through ``parse_config`` and ``execute``.  The
certifier and solver rows must match byte for byte; the ``quadrature`` and
``identities`` rows, whose floats come from numpy and may move in the last
bits between numpy versions, must match with every number within ``REL``
relative and every other character equal.  ``tests/golden/record.py``
rewrites the corpus after an intended change; the replay runs each row
with its ``run``.
"""

import dataclasses
import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from carleman_cone import cli

_spec = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).parent / "golden" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

REL = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def rows():
    return [json.loads(line) for line in record.CORPUS.read_text(encoding="utf-8").splitlines()]


def same_up_to_floats(got: str, want: str) -> bool:
    """Equal text between the numbers, and numbers within ``REL`` of each other."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return False
    return all(g == w or (i % 2 == 1 and math.isclose(float(g), float(w), rel_tol=REL))
               for i, (g, w) in enumerate(zip(got_parts, want_parts)))


def mismatch(row, code, stdout):
    """What differs between one row and its replay, or None."""
    if code != row["code"]:
        return f"exit {code}, recorded {row['code']}"
    if "sha256" in row:
        same = hashlib.sha256(stdout.encode("utf-8")).hexdigest() == row["sha256"]
    elif row["argv"][0] in record.FLOAT_COMMANDS:
        same = same_up_to_floats(stdout, row["stdout"])
    else:
        same = stdout == row["stdout"]
    return None if same else f"stdout differs:\n{stdout}"


@pytest.fixture
def shared_runs(monkeypatch):
    """The text and ``--json`` rows of one request share one run of its subcommand.

    The runs are deterministic, so this changes no output; it halves the
    replay's slowest rows.
    """
    memo = {}
    for name, command in cli._COMMANDS.items():
        def shared(cfg, real=command.run):
            key = repr(dataclasses.replace(cfg, json=False))
            if key not in memo:
                memo[key] = real(cfg)
            return memo[key]

        monkeypatch.setitem(cli._COMMANDS, name, command._replace(run=shared))


def test_corpus_replays_unchanged(shared_runs):
    failures = []
    for row in rows():
        why = mismatch(row, *record.run(row["argv"], row["config"]))
        if why is not None:
            config = "" if row["config"] is None else f" with config {row['config']!r}"
            failures.append(f"{' '.join(row['argv'])}{config}: {why}")
    assert not failures, f"{len(failures)} rows differ:\n" + "\n".join(failures[:5])


def test_float_comparison_bound():
    assert same_up_to_floats("lhs: 15.749609945968329", "lhs: 15.749609945968338")
    assert not same_up_to_floats("lhs: 15.7496099459", "lhs: 15.7496099460")
    assert not same_up_to_floats("pass: True", "pass: False")
    assert not same_up_to_floats("grid: 81, 81", "grid: 81, 81, 81")
