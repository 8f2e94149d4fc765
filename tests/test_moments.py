import math

import numpy as np
import pytest

from limitlab.kernels import ScaleSpec, kernel_branching, kernel_power, kernel_scale
from limitlab.moments import (
    MomentTable,
    composition_coefficient,
    count_moment_curve,
)
from limitlab.multisum import WeightSequence
from limitlab.special import zeta_tail
from limitlab.stats import LimitLaw

from oracles import (
    constant_schedule,
    count_moment_bruteforce,
    geometric_moment_bruteforce,
    psi_loop,
    success_prob,
    surjections_by_composition,
)


def count_moment(kernel, n, k):
    """E(count_n)^k read from ``count_moment_curve``."""
    return float(count_moment_curve(kernel, k, [n])[0])


def gw_kernel():
    return WeightSequence(weight=lambda i: (1.0 + np.asarray(i, dtype=float)) ** 2, label="(1+n)^2")


class TestCoefficients:
    def test_small_values(self):
        assert composition_coefficient(2, 1) == 1
        assert composition_coefficient(2, 2) == 2
        assert composition_coefficient(3, 2) == 6

    def test_against_composition_enumeration(self):
        for k in range(1, 9):
            for m in range(1, k + 1):
                assert composition_coefficient(k, m) == surjections_by_composition(k, m)

    def test_degenerate(self):
        assert composition_coefficient(0, 0) == 1
        assert composition_coefficient(3, 5) == 0


class TestCountMoment:
    def test_gw_second_moment(self):
        assert count_moment(gw_kernel(), 2, 2) == pytest.approx(35 / 72, rel=1e-14)

    def test_first_moment_is_marginal_sum(self):
        k = gw_kernel()
        for n in (1, 5, 20):
            expect = sum(success_prob(k, 0, j) for j in range(1, n + 1))
            assert count_moment(k, n, 1) == pytest.approx(expect, rel=1e-13)

    def test_bruteforce_oracle(self):
        kernels = [
            gw_kernel(),
            kernel_branching(constant_schedule(0.5)),
            kernel_scale(ScaleSpec.from_dimension(3, 1.0, 2.0)),
        ]
        for kern in kernels:
            for n in (1, 3, 6):
                for k in (1, 2, 3):
                    got = count_moment(kern, n, k)
                    want = count_moment_bruteforce(kern, n, k)
                    assert got == pytest.approx(want, rel=1e-12)

    def test_order_cap(self):
        # both entry points refuse orders whose coefficients exceed 2^53
        with pytest.raises(OverflowError):
            count_moment_curve(gw_kernel(), 21, [3])
        with pytest.raises(OverflowError):
            MomentTable.build(gw_kernel(), [3], 21)
        assert count_moment_curve(gw_kernel(), 20, [3])[0] > 0
        assert MomentTable.build(gw_kernel(), [3], 20).values.shape == (20, 1)

    def test_monotone_in_horizon(self):
        vals = count_moment_curve(gw_kernel(), 2, range(1, 200))
        assert np.all(np.diff(vals) >= 0)

    def test_bounded_by_geometric_limit(self):
        law = LimitLaw.geometric(zeta_tail(0, 2.0, 2).value)
        horizons = [10, 100, 1000, 10000]
        for k in (1, 2, 3):
            vals = count_moment_curve(gw_kernel(), k, horizons)
            assert np.all(vals <= law.moment(k) + 1e-9)
            assert np.all(np.diff(vals) >= 0)


class TestGeoLimitMoments:
    """The moments of the geometric limit law, read from ``LimitLaw.geometric``."""

    def test_mean_is_zeta(self):
        zeta = math.pi**2 / 6 - 1
        assert LimitLaw.geometric(zeta).moment(1) == pytest.approx(zeta, rel=1e-14)

    def test_unit_mean(self):
        law = LimitLaw.geometric(1.0)
        assert [law.moment(1), law.moment(2)] == pytest.approx([1.0, 3.0], rel=1e-14)

    def test_against_pmf_summation(self):
        for zeta in (1.0, math.pi**2 / 6 - 1, 0.25):
            p = 1.0 / (zeta + 1.0)
            law = LimitLaw.geometric(zeta)
            for k in range(1, 7):
                assert law.moment(k) == pytest.approx(
                    geometric_moment_bruteforce(p, k), rel=1e-10
                )

    def test_domain(self):
        with pytest.raises(ValueError):
            LimitLaw.geometric(0.0)


class TestScaledCurveAndTable:
    def test_unit_scaler_partial_sums(self):
        vals = count_moment_curve(gw_kernel(), 1, [1, 2])
        assert vals[0] == pytest.approx(1 / 4, rel=1e-14)
        assert vals[1] == pytest.approx(13 / 36, rel=1e-14)

    def test_horizons_must_increase(self):
        with pytest.raises(ValueError):
            MomentTable.build(gw_kernel(), [5, 5], 1)

    @pytest.mark.parametrize("horizons, message", [
        ([2.5, 3.9], "integers, got 2.5"),
        ([], "not be empty"),
    ])
    def test_fractional_or_empty_horizons_rejected(self, horizons, message):
        # 2.5 and 3.9 used to be truncated to the table at (2, 3)
        with pytest.raises(ValueError, match=message):
            MomentTable.build(gw_kernel(), horizons, 1)

    def test_moment_table(self):
        t = MomentTable.build(gw_kernel(), [2, 10, 50], 3)
        assert t.values.shape == (3, 3)
        assert np.all(t.values >= 0)
        assert np.all(np.diff(t.values, axis=1) >= 0)
        assert t.values[1, 0] == pytest.approx(35 / 72, rel=1e-13)

    @pytest.mark.parametrize("kernel", [gw_kernel(), kernel_power(2.0, 1.0)], ids=["distance", "power"])
    def test_table_rows_are_bit_identical_to_single_orders(self, kernel):
        hs = [10, 300, 3000]
        table = MomentTable.build(kernel, hs, 3)
        for k in (1, 2, 3):
            assert np.array_equal(table.values[k - 1], count_moment_curve(kernel, k, hs))

    def test_fast_path_matches_generic(self):
        # the distance kernel rides the convolution path inside MomentTable.build;
        # moments rebuilt from the pairwise column loop must agree
        k = gw_kernel()
        generic = psi_loop(k, 40, 3).sum(axis=1)
        table = MomentTable.build(k, [40], 3)
        for kk in (1, 2, 3):
            want = sum(
                composition_coefficient(kk, m) * generic[m - 1] for m in range(1, kk + 1)
            )
            assert table.values[kk - 1, 0] == pytest.approx(want, rel=1e-12)
