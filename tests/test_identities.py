import numpy as np
import pytest

from carleman_cone.identities import DEFAULT_PARAMS, _boundary_vanishing


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_vanishing_holds_for_every_seed(dim):
    # boundary points reach |x| = 99, where phi's rounding residue scales
    # like |x|^alpha; an absolute bound failed on a few percent of seeds
    failed = [seed for seed in range(200)
              if not _boundary_vanishing(DEFAULT_PARAMS, np.random.default_rng(seed), dim).passed]
    assert failed == []
