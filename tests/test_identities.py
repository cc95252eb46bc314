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
