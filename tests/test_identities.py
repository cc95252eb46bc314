import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from carleman_cone import identities
from carleman_cone.identities import (
    DEFAULT_PARAMS,
    _boundary_vanishing,
    _euler,
    _grad_fd,
    _hess_fd,
    _hessian_correction_psd,
    _homogeneity,
    run_identity_suite,
)


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_vanishing_holds_for_every_seed(dim):
    # boundary points reach |x| = 99, where phi's rounding residue scales
    # like |x|^alpha; an absolute bound failed on a few percent of seeds
    failed = [seed for seed in range(200)
              if not _boundary_vanishing(DEFAULT_PARAMS, np.random.default_rng(seed), dim).passed]
    assert failed == []


@pytest.mark.parametrize("check", [_grad_fd, _hess_fd, _homogeneity, _euler,
                                   _hessian_correction_psd])
@pytest.mark.parametrize("dim", [2, 3])
def test_pointwise_check_holds_for_every_seed(check, dim):
    failed = [(seed, result.detail) for seed in range(200)
              if not (result := check(DEFAULT_PARAMS, np.random.default_rng(seed), dim)).passed]
    assert failed == []


def test_suite_evaluates_the_weight_on_stacks(monkeypatch):
    # each check passes all its points and stencil offsets in one call per
    # evaluator, so the count does not grow with the number of points
    calls = []
    for name in ("phi_eval", "grad_phi", "hess_phi"):
        fn = getattr(identities, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(identities, name, counted)
    for dim in (2, 3):
        calls.clear()
        assert all(r.passed for r in run_identity_suite(seed=0, dim=dim))
        assert 0 < len(calls) <= 50


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, checks", [
    ("phi_eval", [_grad_fd, _hess_fd, _homogeneity, _euler, _boundary_vanishing]),
    ("grad_phi", [_grad_fd, _homogeneity, _euler]),
    ("hess_phi", [_hess_fd, _homogeneity, _hessian_correction_psd]),
])
def test_a_nan_from_the_evaluator_fails_the_check(monkeypatch, name, checks):
    # the reductions must not skip NaN, as nanmax or a Python max would
    fn = getattr(identities, name)

    def first_nan(x, params):
        out = np.array(fn(x, params))
        out.reshape(-1)[0] = np.nan
        return out

    monkeypatch.setattr(identities, name, first_nan)
    for check in checks:
        assert not check(DEFAULT_PARAMS, np.random.default_rng(0), 2).passed, check.__name__


@pytest.fixture
def fresh_boundary_law():
    """An empty ``_boundary_law`` cache, emptied again afterwards."""
    identities._boundary_law.cache_clear()
    yield
    identities._boundary_law.cache_clear()


def test_boundary_law_grid_is_built_once_per_process(monkeypatch, fresh_boundary_law):
    built = []
    real = identities.conditions.build_l

    def counting(name, params):
        built.append(name)
        return real(name, params)

    monkeypatch.setattr(identities.conditions, "build_l", counting)
    first = run_identity_suite(seed=0)
    second = run_identity_suite(seed=1, dim=3)
    assert built.count("l1") == 400
    assert first[-1] is second[-1]
    assert first[-1].passed and first[-1].detail == "20x20 grid consistent"


def test_importing_the_cli_builds_no_grid_cell():
    code = ("import sys\n"
            "calls = []\n"
            "sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name)\n"
            "               if event == 'call' and frame.f_code.co_name == 'build_l' else None)\n"
            "import carleman_cone.cli\n"
            "sys.setprofile(None)\n"
            "print(len(calls))\n")
    src = str(Path(identities.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


def test_a_flipped_boundary_law_fails_the_row(monkeypatch, fresh_boundary_law):
    real = identities.conditions.l1_boundary_law
    monkeypatch.setattr(identities.conditions, "l1_boundary_law", lambda params: -real(params))
    row = run_identity_suite(seed=0)[-1]
    assert row.name == "l1_boundary_sign_law"
    assert not row.passed and row.detail.startswith("sign mismatch")
