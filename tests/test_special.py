import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from limitlab import special
from limitlab.special import (
    iterated_log,
    lambda_weight,
    script_O,
    zeta_tail,
)
from limitlab.stats import LimitLaw


class TestGammaFn:
    """``math.gamma``, which ``experiments._dirichlet`` calls for its Gamma ratios,
    to the accuracy those constants need."""

    def test_integer_values(self):
        assert math.gamma(1.0) == pytest.approx(1.0, abs=1e-14)
        assert math.gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half(self):
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    @pytest.mark.parametrize("x", [0.5 + i for i in range(21)])
    def test_recurrence(self, x):
        assert math.gamma(x + 1.0) == pytest.approx(x * math.gamma(x), rel=1e-10)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        # a Gamma shape from outside enters through LimitLaw.gamma, which keeps x > 0
        with pytest.raises(ValueError):
            LimitLaw.gamma(x, 1.0)


class TestIteratedLog:
    def test_thresholds(self):
        assert [script_O(m) for m in range(5)] == [1, 2, 3, 16, 3814280]

    def test_threshold_overflow_names_the_depth(self):
        with pytest.raises(OverflowError, match=r"script_O\(m=5\)"):
            script_O(5)

    def test_threshold_is_minimal(self):
        # t-1 either yields a nonpositive iterated log or is outside the
        # domain entirely; both mean "below threshold"
        for m in range(4):
            t = script_O(m)
            assert iterated_log(m, t) > 0
            if t > 1:
                try:
                    assert iterated_log(m, t - 1) <= 0
                except ValueError:
                    pass


class TestLambdaWeight:
    def test_depth_zero_is_power(self):
        assert lambda_weight(0, 2.0, 3) == pytest.approx(9.0, abs=1e-14)
        assert lambda_weight(0, 0.0, 1) == 1.0

    def test_depth_one(self):
        assert lambda_weight(1, 1.0, 3) == pytest.approx(3.0 * math.log(3.0), rel=1e-14)

    def test_below_threshold(self):
        with pytest.raises(ValueError):
            lambda_weight(1, 1.0, 1)
        with pytest.raises(ValueError):
            lambda_weight(2, 2.0, 2)
        with pytest.raises(ValueError):
            lambda_weight(1, 1.0, np.array([3, 1, 4]))

    def test_array_matches_scalar(self):
        for m, s in [(0, 2.0), (1, 0.5), (2, 1.5)]:
            idx = np.arange(16, 40)
            arr = lambda_weight(m, s, idx)
            assert arr.shape == idx.shape
            assert list(arr) == pytest.approx([lambda_weight(m, s, int(i)) for i in idx], rel=1e-15)


class TestZetaTail:
    def test_basel(self):
        ts = zeta_tail(0, 2.0, 1)
        assert ts.truncation_bound <= 1e-10
        assert ts.value == pytest.approx(math.pi**2 / 6.0, abs=2e-10)

    def test_basel_from_two(self):
        ts = zeta_tail(0, 2.0, 2)
        assert ts.value == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=2e-10)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_against_mpmath(self, s):
        ours = zeta_tail(0, s, 1).value
        ref = float(mpmath.zeta(s))
        assert ours == pytest.approx(ref, abs=2e-10)

    def test_tolerance_contract(self):
        assert zeta_tail(0, 3.0, 1, tol=1e-10).truncation_bound <= 1e-10
        assert zeta_tail(1, 2.0, 2, tol=1e-6).truncation_bound <= 1e-6

    def test_telescoping(self):
        for m, s, n0 in [(0, 2.0, 1), (0, 1.5, 3), (1, 2.0, 2)]:
            tol = 1e-10 if m == 0 else 1e-6
            whole = zeta_tail(m, s, n0, tol=tol)
            rest = zeta_tail(m, s, n0 + 1, tol=tol)
            term = 1.0 / lambda_weight(m, s, n0)
            assert whole.value == pytest.approx(rest.value + term, abs=1e-12)

    # fsum rounds the exact sum of its terms and the tail estimate correctly,
    # so however the terms are gathered the values stay bit for bit
    @pytest.mark.parametrize("m, s, n0, tol, value", [
        (0, 2.0, 2, 1e-10, "0x1.4a34cc4a60fa6p-1"),
        (0, 2.0, 1, 1e-10, "0x1.a51a6625307d3p+0"),
        (1, 2.0, 2, 1e-10, "0x1.0e0c0d5724562p+1"),
        (0, 1.5, 1, 1e-10, "0x1.4e6250bfbd89dp+1"),
        (0, 3.0, 1, 1e-10, "0x1.33ba004f00621p+0"),
    ])
    def test_pinned_values(self, m, s, n0, tol, value):
        assert zeta_tail(m, s, n0, tol=tol).value == float.fromhex(value)

    def test_memory_stays_one_block(self):
        # 1/i^1.2 to 1e-12 sums 196,607 exact terms: held at once as Python floats
        # they peak at 9.0 MiB; fed to fsum 2^14 terms at a time, one block and
        # its arrays take about 1.1 MiB, so 2 MiB is about twice that
        tracemalloc.start()
        try:
            zeta_tail(0, 1.2, 1, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize("s, n0, exact", [
        (2.0, 1, math.pi**2 / 6.0),
        (2.0, 2, math.pi**2 / 6.0 - 1.0),
        (3.0, 1, float(mpmath.zeta(3))),
    ])
    def test_closed_forms_to_round_off(self, s, n0, exact):
        # the Euler-Maclaurin estimate sits far inside its 1e-10 enclosure
        assert abs(zeta_tail(0, s, n0).value - exact) <= 1e-15

    @pytest.mark.parametrize("m, s, n0, most", [(0, 2.0, 2, 4096), (1, 2.0, 2, 100_000)])
    def test_terms_evaluated(self, monkeypatch, m, s, n0, most):
        # the certified error falls like |f'(N)|, not f(N): 1/i^2 needs about 10^3 terms
        seen = []
        real = special.lambda_weight
        monkeypatch.setattr(special, "lambda_weight",
                            lambda m, s, i: seen.append(np.size(i)) or real(m, s, i))
        ts = zeta_tail(m, s, n0)
        assert ts.truncation_bound <= 1e-10
        assert 0 < sum(seen) <= most

    def test_enclosure_holds_far_from_the_cutoff(self):
        # a loose tolerance cuts early; the certified bound still covers the exact value
        for s in (1.5, 2.0, 3.0):
            exact = float(mpmath.zeta(s))
            for tol in (1.0, 1e-2, 1e-4, 1e-6):
                ts = zeta_tail(0, s, 1, tol=tol)
                assert ts.truncation_bound <= tol
                assert abs(ts.value - exact) <= ts.truncation_bound + 1e-15

    def test_self_consistency_across_cutoffs(self):
        a = zeta_tail(1, 2.0, 2, tol=1e-4).value
        b = zeta_tail(1, 2.0, 2, tol=1e-6).value
        assert a == pytest.approx(b, abs=2e-4)

    def test_divergent_domain(self):
        with pytest.raises(ValueError):
            zeta_tail(0, 1.0, 1)
        with pytest.raises(ValueError):
            zeta_tail(0, 0.5, 1)

    def test_n0_below_threshold(self):
        with pytest.raises(ValueError):
            zeta_tail(1, 2.0, 1)


class TestGammaMoment:
    """The unit-rate Gamma moments prod_{j<k} (j + shape), read from ``LimitLaw.gamma``."""

    def test_exponential_factorial(self):
        assert LimitLaw.gamma(1.0, 1.0).moment(3) == pytest.approx(6.0)

    def test_half(self):
        assert LimitLaw.gamma(0.5, 1.0).moment(2) == pytest.approx(0.75)

    def test_empty_product(self):
        assert LimitLaw.gamma(2.7, 1.0).moment(0) == 1

    def test_exact_rational_recursion(self):
        law = LimitLaw.gamma(Fraction(1, 3), Fraction(1))
        for k in range(8):
            assert law.moment(k + 1) == law.moment(k) * (k + Fraction(1, 3))
        assert isinstance(law.moment(8), Fraction)

    def test_domain(self):
        with pytest.raises(ValueError):
            LimitLaw.gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            LimitLaw.gamma(1.0, 1.0).moment(-1)
