import numpy as np
import pytest

from limitlab.stats import LimitLaw, tv_distance_integer


def test_tv_distance_hand_computed():
    # Geo(1/2) has pmf 1/2, 1/4, 1/8 at 0, 1, 2 and mass 1/8 beyond 2; the
    # sample's pmf is 1/2, 1/4, 1/4, so TV = (0 + 0 + 1/8 + 1/8) / 2
    law = LimitLaw.geometric_from_mean(1.0)
    assert tv_distance_integer(np.array([0, 0, 1, 2]), law) == 0.125


def test_tv_distance_rejects_bad_input():
    geo = LimitLaw.geometric_from_mean(1.0)
    cases = [
        (np.array([0, 1]), LimitLaw.exponential(1.0), "geometric"),
        (np.array([], dtype=np.int64), geo, "nonempty"),
        (np.array([0.0, 1.0]), geo, "integer"),
        (np.array([0, -1]), geo, "nonnegative"),
    ]
    for sample, law, needle in cases:
        with pytest.raises(ValueError, match=needle):
            tv_distance_integer(sample, law)
