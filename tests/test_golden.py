"""The CLI's exit codes and stdout replay unchanged from ``tests/golden/cli.jsonl``.

Each row runs in process through ``parse_config`` and ``execute``.  The
certifier and solver rows must match byte for byte; the ``quadrature`` and
``identities`` rows, whose floats come from numpy and may move in the last
bits between numpy versions, must match with every number within ``REL``
relative and every other character equal.  ``tests/golden/record.py``
rewrites the corpus after an intended change, and holds that comparison
(``mismatch``); the replay runs each row with its ``run``.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from carleman_cone import cli

_spec = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).parent / "golden" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

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
    rows = record.recorded_rows()
    assert rows, f"{record.CORPUS} holds no rows"
    for row in rows:
        why = record.mismatch(row, *record.run(row["argv"], row["config"]))
        if why is not None:
            config = "" if row["config"] is None else f" with config {row['config']!r}"
            failures.append(f"{' '.join(row['argv'])}{config}: {why}")
    assert not failures, f"{len(failures)} rows differ:\n" + "\n".join(failures[:5])


def test_float_comparison_bound():
    assert record.same_up_to_floats("lhs: 15.749609945968329", "lhs: 15.749609945968338")
    assert not record.same_up_to_floats("lhs: 15.7496099459", "lhs: 15.7496099460")
    assert not record.same_up_to_floats("pass: True", "pass: False")
    assert not record.same_up_to_floats("grid: 81, 81", "grid: 81, 81, 81")
