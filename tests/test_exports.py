import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import carleman_cone

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    modules = [carleman_cone] + [
        importlib.import_module(f"carleman_cone.{info.name}")
        for info in pkgutil.iter_modules(carleman_cone.__path__)
        if info.name != "__main__"  # runs the CLI on import
    ]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_certifier_processes_never_import_numpy():
    # numpy serves the evidence modules (weights, quad, identities) alone
    code = (
        "import contextlib, io, json, sys\n"
        "seen = []\n"
        "import carleman_cone\n"
        "from carleman_cone import WeightParams, direct_feasibility\n"
        "seen.append(['root import', 'numpy' in sys.modules, 0])\n"
        "from carleman_cone.cli import main\n"
        "for argv in (['check'], ['frontier'], ['scan', '--m-grid', '2.4:2.5:2'],\n"
        "             ['solve'], ['gamma1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    seen.append([argv[0], 'numpy' in sys.modules, code])\n"
        "print(json.dumps(seen))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert json.loads(out.stdout) == [[step, False, 0] for step in
                                      ("root import", "check", "frontier", "scan", "solve",
                                       "gamma1")]


def test_no_subcommand_loads_numpy_random():
    # the identity suite draws its points from the standard library's random
    code = (
        "import contextlib, io, json, sys\n"
        "seen = []\n"
        "from carleman_cone.cli import main\n"
        "for argv in (['identities', '--dim', '2'], ['identities', '--dim', '3'],\n"
        "             ['quadrature', '--grid', '21']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    seen.append([argv[0], 'numpy.random' in sys.modules, code])\n"
        "print(json.dumps(seen))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert json.loads(out.stdout) == [[step, False, 0] for step in
                                      ("identities", "identities", "quadrature")]


def _benchmark_tracing() -> types.ModuleType:
    """``perfbench/tracing.py``, compiled from its text so that nothing is written beside it."""
    path = ROOT / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_benchmark_traced_site_exists():
    # a traced benchmark run stops with MissingSite on the first one that is gone
    tracing = _benchmark_tracing()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
               for owner, attr, name in tracing.span_sites() + tracing.count_sites()
               if not hasattr(owner, attr)]
    assert not missing


def test_names_the_benchmark_workloads_use_resolve():
    from carleman_cone import cli, quad, weights

    for owner, attr in ((weights, "WeightParams"), (cli, "default_bump"), (cli, "parse_config"),
                        (cli, "execute"), (cli, "UsageError"), (quad.GridSpec, "from_support")):
        assert hasattr(owner, attr), attr
