"""Locate and import the carleman_cone package of the checkout the benchmark sits in.

The benchmark always measures the source tree next to it (``<root>/src``),
never an installed copy, so that a checkout without the package fails
instead of silently measuring something else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingPackage(RuntimeError):
    """The checkout holds no importable carleman_cone source tree."""


def load():
    """Import ``carleman_cone`` and ``carleman_cone.cli`` from ``<root>/src``."""
    pkg_dir = SRC / "carleman_cone"
    if not (pkg_dir / "__init__.py").is_file():
        raise MissingPackage(f"no package source at {pkg_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import carleman_cone
    import carleman_cone.cli  # noqa: F401  (part of set-up: the CLI layer)

    if Path(carleman_cone.__file__).resolve().parent != pkg_dir.resolve():
        raise MissingPackage(f"imported carleman_cone from {carleman_cone.__file__}, not {pkg_dir}")
    return carleman_cone
