import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from carleman_cone import identities
from carleman_cone.cli import main
from carleman_cone.identities import (
    DEFAULT_PARAMS,
    _boundary_vanishing,
    _derivative_consistency,
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


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, replace(DEFAULT_PARAMS, alpha=2.0, epsilon=0.3)],
                         ids=["defaults", "alpha_2_eps_0.3"])
def test_derivative_row_holds_for_every_seed(params):
    # at alpha = 2, eps = 0.3 seed 2 samples h = 0.8238, where l2' = -9.5e-5
    # nearly vanishes, so the error is measured against the size of the
    # terms of l2', not against |l2'|, which would magnify rounding past 1e-6
    failed = [(seed, result.detail) for seed in range(200)
              if not (result := _derivative_consistency(params, np.random.default_rng(seed))).passed]
    assert failed == []


@pytest.mark.parametrize("dim", ["2", "3"])
@pytest.mark.parametrize("eps", ["0.9998", "0.9999", "0.99999", "0.999999", "0.99999999"])
def test_every_row_passes_as_eps_nears_one(eps, dim, capsys):
    # phi = x1^m r^(a-m) - eps^m r^a cancels as eps -> 1, and so do its
    # derivatives; measured against |phi| rather than its terms, homogeneity
    # failed on rounding from eps = 0.9998 (1.1e-10 against its 1e-10 bound),
    # and measured against |grad phi| and alpha |phi|, grad_phi_fd and
    # euler_identity failed at eps = 0.999999 (1.6e-6 and 3.5e-10)
    assert main(["identities", "--eps", eps, "--dim", dim]) == 0, capsys.readouterr().out


# the boundary law (m-1) - (m+1) eps^2 is positive at the defaults, negative
# at the second set and zero to rounding at the third
@pytest.mark.parametrize("params", [
    DEFAULT_PARAMS,
    replace(DEFAULT_PARAMS, m=2.9, epsilon=0.95),
    replace(DEFAULT_PARAMS, m=2.5, epsilon=0.6546536707079771),
], ids=["law_positive", "law_negative", "law_knife_edge"])
def test_suite_evaluates_the_weight_on_stacks(monkeypatch, params):
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
        results = run_identity_suite(seed=0, params=params, dim=dim)
        assert len(results) == 10 and all(r.passed for r in results)
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


def test_importing_identities_builds_no_grid_cell():
    # the module itself, in a fresh interpreter: the cli imports it only
    # inside its runner, so importing the cli would prove nothing
    code = ("import sys\n"
            "calls = []\n"
            "sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name)\n"
            "               if event == 'call' and frame.f_code.co_name == 'build_l' else None)\n"
            "import carleman_cone.identities\n"
            "sys.setprofile(None)\n"
            "print(len(calls))\n")
    src = str(Path(identities.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


def test_a_flipped_boundary_law_fails_the_row(monkeypatch):
    real = identities.conditions.l1_boundary_law
    monkeypatch.setattr(identities.conditions, "l1_boundary_law", lambda params: -real(params))
    row = run_identity_suite(seed=0)[-1]
    assert row.name == "l1_boundary_sign_law"
    assert not row.passed and row.detail.startswith("sign mismatch")


@pytest.mark.parametrize("dim", ["2", "3"])
@pytest.mark.parametrize("eps", ["0.98", "0.99", "0.9995"])
def test_a_cone_too_narrow_for_the_sampling_offset_runs(eps, dim, capsys):
    # above eps = 0.979 no h lies in (eps + 0.02, 0.999), the sampler's
    # range; the suite reports its rows instead of raising, and every row
    # passes
    assert main(["identities", "--eps", eps, "--dim", dim]) == 0, capsys.readouterr().out
