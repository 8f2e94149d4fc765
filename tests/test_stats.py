import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from limitlab.stats import LimitLaw, tv_distance_integer


def test_tv_distance_hand_computed():
    # Geo(1/2) has pmf 1/2, 1/4, 1/8 at 0, 1, 2 and mass 1/8 beyond 2; the
    # sample's pmf is 1/2, 1/4, 1/4, so TV = (0 + 0 + 1/8 + 1/8) / 2
    law = LimitLaw.geometric(1.0)
    assert tv_distance_integer(np.array([0, 0, 1, 2]), law) == 0.125


def test_tv_distance_rejects_bad_input():
    geo = LimitLaw.geometric(1.0)
    cases = [
        (np.array([0, 1]), LimitLaw.gamma(1.0, 1.0), "no pmf"),
        (np.array([], dtype=np.int64), geo, "nonempty"),
        (np.array([0.0, 1.0]), geo, "integer"),
        (np.array([0, -1]), geo, "nonnegative"),
    ]
    for sample, law, needle in cases:
        with pytest.raises(ValueError, match=needle):
            tv_distance_integer(sample, law)


@pytest.mark.parametrize("build", [
    lambda x: LimitLaw.geometric(x),
    lambda x: LimitLaw.gamma(x, 1.0),
    lambda x: LimitLaw.gamma(1.0, x),
], ids=["mean", "shape", "rate"])
@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
def test_a_law_refuses_a_parameter_that_is_not_positive(build, x):
    with pytest.raises(ValueError, match="positive"):
        build(x)


def test_gamma_moments_match_rising_factorials_at_50_digits():
    with mpmath.workdps(50):
        for shape in (0.05, 1 / 3, 0.5, 1.0, 1.6, 2.0, 4.7, 12.5):
            for rate in (0.2, 1.0, 1.6, 3.2, 7.0):
                law = LimitLaw.gamma(shape, rate)
                for k in range(9):
                    want = mpmath.rf(shape, k) / mpmath.mpf(rate) ** k
                    assert abs(law.moment(k) - want) <= 1e-14 * want, (shape, rate, k)


def test_a_gamma_moment_past_the_float_range_is_refused():
    # rate^k underflows to 0 where the moment is past the float range: it was a ZeroDivisionError
    law = LimitLaw.gamma(2.0, 1e-200)
    assert law.moment(1) == 2e200
    with pytest.raises(OverflowError, match="rate\\^2 underflows to 0"):
        law.moment(2)


def test_a_gamma_moment_whose_rate_power_overflows_is_refused_by_name():
    # Python's float power raised "(34, 'Numerical result out of range')", naming neither law nor order
    law = LimitLaw.gamma(1e300, 1e300)
    assert law.moment(1) == 1.0  # the moments are about 1: only rate^k and the product leave the float range
    with pytest.raises(OverflowError, match=r"order 2 of Gamma\(1e\+300, 1e\+300\) cannot be computed in floats: "
                                            r"rate\^2 overflows"):
        law.moment(2)
    assert LimitLaw.gamma(Fraction(10**300), Fraction(10**300)).moment(2) == Fraction(10**300 + 1, 10**300)


def test_exponential_moments_are_factorials():
    law = LimitLaw.gamma(1.0, 1.0)
    for k in range(19):
        assert law.moment(k) == math.factorial(k)


def test_geometric_law_keeps_its_mean():
    mean = math.pi**2 / 6 - 1
    law = LimitLaw.geometric(mean)
    assert law.params == (mean,) and law.moment(1) == mean
    assert str(law) == "Geo(0.607927)"


def test_geometric_pmf_and_tail_hold_all_the_mass():
    for mean in (0.25, 1.0, math.pi**2 / 6 - 1, 7.5):
        law = LimitLaw.geometric(mean)
        for top in (0, 1, 5, 40):
            assert abs(law.pmf(np.arange(top + 1)).sum() + law.tail(top) - 1.0) <= 1e-15, (mean, top)
        assert law.tail(-1) == 1.0 and law.pmf(-1) == 0.0


def test_a_gamma_law_has_no_pmf():
    law = LimitLaw.gamma(0.5, 2.0)
    assert str(law) == "Gamma(0.5, 2)"
    for read in (law.pmf, law.tail):
        with pytest.raises(ValueError, match="no pmf"):
            read(0)
