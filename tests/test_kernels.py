import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limitlab.kernels import (
    OffspringSchedule,
    RhoKernel,
    ScaleSpec,
    kernel_branching,
    kernel_power,
    kernel_scale,
)
from limitlab.moments import MomentTable
from limitlab.multisum import WeightSequence, psi_curve
from limitlab.simulate import _sim_chain

from oracles import (
    column,
    constant_schedule,
    marginals,
    probability_range,
    rho,
    scale_success_prob,
    success_prob,
    table_schedule,
)


class TestDistanceKernel:
    """A distance kernel rho(i, j) = D(j - i) is its ``WeightSequence``."""

    def test_shifted_square(self):
        k = WeightSequence(weight=lambda i: (1.0 + np.asarray(i, dtype=float)) ** 2)
        assert success_prob(k, 3, 5) == pytest.approx(1 / 9, rel=1e-14)
        assert success_prob(k, 0, 1) == pytest.approx(1 / 4, rel=1e-14)

    def test_unit_shift(self):
        k = WeightSequence(weight=lambda i: np.asarray(i, dtype=float) + 1.0)
        assert success_prob(k, 7, 8) == pytest.approx(0.5, rel=1e-14)

    def test_diagonal_and_order(self):
        k = WeightSequence(weight=lambda i: np.asarray(i, dtype=float) + 1.0)
        assert success_prob(k, 4, 4) == 1.0
        with pytest.raises(ValueError):
            success_prob(k, 5, 4)

    def test_proper_range(self):
        k = WeightSequence(weight=lambda i: (1.0 + np.asarray(i, dtype=float)) ** 2)
        lo, hi = probability_range(k, 60)
        assert 0.0 < lo and hi < 1.0

    def test_cond_column_matches_scalar(self):
        k = WeightSequence(weight=lambda i: (1.0 + np.asarray(i, dtype=float)) ** 2)
        col = column(k, 6)
        assert col == pytest.approx([success_prob(k, i, 6) for i in range(1, 6)])
        assert col == pytest.approx([1.0 / (7.0 - i) ** 2 for i in range(1, 6)], rel=1e-14)

    def test_nonpositive_weight_rejected(self):
        k = WeightSequence(weight=lambda i: np.asarray(i, dtype=float) - 3.0)
        with pytest.raises(ValueError):
            success_prob(k, 0, 5)

    def test_success_prob_is_zero_below_the_gap(self):
        k = WeightSequence(weight=lambda i: (1.0 + i) ** 1.5, gap=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by zero on the way
            assert success_prob(k, 3, 4) == 0.0
            assert rho(k, 3, 4) == math.inf
            assert success_prob(k, 3, 5) == pytest.approx(3.0**-1.5, rel=1e-14)

    def test_nan_weight_is_refused_by_both_engines(self):
        # NaN passes a "d <= 0" test; the renewal sampler then drew about 20
        # successes by n = 50 where the kernel's mean is about 0.6, and the
        # moment table gave NaN rows
        k = WeightSequence(weight=lambda i: np.where(i == 3, np.nan, (1.0 + i) ** 2), label="nan-at-3")
        with pytest.raises(ValueError, match="nan-at-3"):
            _sim_chain(k, 50, 10, 0, None, 1)
        with pytest.raises(ValueError, match="nan-at-3"):
            MomentTable.build(k, [10, 50], 2)

    def test_infinite_weight_is_a_zero_probability(self):
        k = WeightSequence(weight=lambda i: np.where(i == 3, np.inf, (1.0 + i) ** 2))
        assert success_prob(k, 2, 5) == 0.0
        assert np.all(np.isfinite(MomentTable.build(k, [10, 50], 2).values))


class TestKernelPower:
    def test_alpha_one_is_distance(self):
        k = kernel_power(1.0, 1.0)
        for i, j in [(1, 3), (2, 6), (5, 9)]:
            assert success_prob(k, i, j) == pytest.approx(1.0 / (j - i), rel=1e-14)

    def test_alpha_two_example(self):
        k = kernel_power(2.0, 1.0)
        assert success_prob(k, 1, 2) == pytest.approx(2 / 3, rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_distance_envelope(self, alpha):
        # beta-normalized rho is sandwiched between (alpha^1)(j-i) with the
        # min/max of (alpha, 1) as the two constants
        beta = 1.7
        k = kernel_power(alpha, beta)
        lo_c, hi_c = min(alpha, 1.0), max(alpha, 1.0)
        for i in range(1, 40, 3):
            for j in range(i + 1, 60, 5):
                r = rho(k, i, j) / beta
                assert lo_c * (j - i) - 1e-9 <= r <= hi_c * (j - i) + 1e-9

    def test_proper_range_with_large_beta(self):
        lo, hi = probability_range(kernel_power(1.0, 1.5), 40)
        assert 0.0 < lo and hi < 1.0

    def test_bad_params(self):
        with pytest.raises(ValueError):
            kernel_power(0.0, 1.0)
        with pytest.raises(ValueError):
            kernel_power(1.0, -2.0)


class TestOffspringSchedule:
    def test_constant(self):
        s = constant_schedule(0.5)
        assert np.all(s.values(5) == 0.5)

    def test_decay_matches_drift_at_harmonic_rate(self):
        a = OffspringSchedule.from_decay(lambda t: 0.5 / t)
        b = OffspringSchedule.harmonic_drift(0.5)
        assert a.values(100) == pytest.approx(b.values(100), rel=1e-15)

    def test_zero_decay_equals_constant_half(self):
        a = OffspringSchedule.from_decay(lambda t: np.zeros_like(t, dtype=float))
        b = OffspringSchedule.harmonic_drift(0.0)
        assert np.all(a.values(50) == 0.5)
        assert np.all(b.values(50) == 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            OffspringSchedule.harmonic_drift(1.0)
        with pytest.raises(ValueError):
            OffspringSchedule.from_decay(lambda t: np.full(t.shape, 1.5)).values(3)
        with pytest.raises(ValueError):
            constant_schedule(0.0).values(3)

    def test_table_bounds(self):
        s = table_schedule([0.4, 0.5, 0.6])
        assert s.values(3) == pytest.approx([0.4, 0.5, 0.6])
        with pytest.raises(ValueError):
            s.values(4)


class TestKernelBranching:
    def test_constant_half_closed_form(self):
        k = kernel_branching(constant_schedule(0.5))
        assert success_prob(k, 2, 5) == pytest.approx(0.25, abs=1e-14)
        assert success_prob(k, 0, 3) == pytest.approx(0.25, abs=1e-14)
        for i, j in [(0, 1), (1, 2), (3, 9), (0, 50)]:
            assert success_prob(k, i, j) == pytest.approx(1.0 / (j - i + 1), rel=1e-13)

    def test_first_generation_is_p1(self):
        k = kernel_branching(table_schedule([1 / 3, 0.5]))
        assert success_prob(k, 0, 1) == pytest.approx(1 / 3, rel=1e-14)

    def test_direct_product_sum(self):
        # independent evaluation of 1 + sum of suffix products
        p = np.array([0.4, 0.55, 0.5, 0.45])
        m = (1 - p) / p
        k = kernel_branching(table_schedule(p))
        for i, j in [(0, 4), (1, 3), (2, 4)]:
            expect = 1.0 + sum(np.prod(m[t - 1 : j]) for t in range(i + 1, j + 1))
            assert rho(k, i, j) == pytest.approx(expect, rel=1e-13)

    def test_grid_matches_scalar(self):
        k = kernel_branching(OffspringSchedule.harmonic_drift(0.3))
        i = np.array([5, 10])
        j = np.array([20, 40])
        grid = rho(k, i, j)
        assert grid == pytest.approx([rho(k, 5, 20), rho(k, 10, 40)], rel=1e-13)

    def test_proper_range(self):
        lo, hi = probability_range(kernel_branching(OffspringSchedule.harmonic_drift(0.5)), 50)
        assert 0.0 < lo and hi < 1.0

    @pytest.mark.parametrize("B", [0.0, 0.5])
    def test_drift_family_distance_asymptotics(self, B):
        # rho(i, j) * (1-B) / (j^B (j^(1-B) - i^(1-B))) within 5% on the
        # declared scan grid
        k = kernel_branching(OffspringSchedule.harmonic_drift(B))
        i = np.arange(200, 2001, 200)
        gaps = np.arange(200, 2001, 200)
        ii, gg = np.meshgrid(i, gaps, indexing="ij")
        jj = ii + gg
        r = rho(k, ii.ravel(), jj.ravel())
        if B > 0:
            target = jj.ravel() ** B * (jj.ravel() ** (1 - B) - ii.ravel() ** (1 - B)) / (1 - B)
        else:
            target = gg.ravel().astype(float)
        ratio = r / target
        assert np.all(np.abs(ratio - 1.0) <= 0.05)

    def test_summable_decay_distance_asymptotics(self):
        k = kernel_branching(OffspringSchedule.from_decay(lambda t: t ** (-2.0)))
        i = np.arange(200, 2001, 200)
        gaps = np.arange(200, 2001, 200)
        ii, gg = np.meshgrid(i, gaps, indexing="ij")
        r = rho(k, ii.ravel(), (ii + gg).ravel())
        ratio = r / gg.ravel()
        assert np.all(np.abs(ratio - 1.0) <= 0.05)


class TestScaleSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleSpec(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            ScaleSpec(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            ScaleSpec.from_dimension(2, 1.0, 2.0)
        with pytest.raises(ValueError):
            ScaleSpec.from_gbm(0.5, 1.0, 1.0, 2.0)

    def test_constructors(self):
        assert ScaleSpec.from_dimension(3, 1.0, 2.0).gamma == 1.0
        assert ScaleSpec.from_gbm(1.0, 1.0, 1.0, 2.0).gamma == pytest.approx(1.0)
        assert ScaleSpec.from_gbm(1.5, 1.0, 1.0, 2.0).gamma == pytest.approx(2.0)


@pytest.mark.parametrize("build, needle", [
    (lambda: kernel_power(math.nan, 1.0), "alpha > 0, got nan"),
    (lambda: kernel_power(1.0, math.nan), "beta > 0, got nan"),
    (lambda: ScaleSpec(math.nan, 1.0, 2.0), "gamma must be positive, got nan"),
    (lambda: ScaleSpec(1.0, math.nan, 2.0), "a=nan"),
    (lambda: ScaleSpec.from_dimension(math.nan, 1.0, 2.0), "dimension d > 2, got nan"),
    (lambda: ScaleSpec.from_gbm(math.nan, 1.0, 1.0, 2.0), "mu=nan"),
    (lambda: ScaleSpec.from_gbm(1.0, math.nan, 1.0, 2.0), "sigma must be positive, got nan"),
    (lambda: OffspringSchedule.from_decay(lambda t: np.full(t.shape, np.nan)).values(3), "decay sequence"),
    (lambda: OffspringSchedule(p=lambda t: np.full(t.shape, np.nan), label="nan").values(3), r"\(0, 1\) \(nan\)"),
], ids=["power-alpha", "power-beta", "scale-gamma", "scale-a", "dimension-d", "gbm-mu", "gbm-sigma",
        "decay-r", "offspring-p"])
def test_nan_is_refused_at_construction(build, needle):
    # a NaN passes every "x <= 0" test; refused only later, it read "Cauchy data not finite ... generation 1"
    with pytest.raises(ValueError, match=needle):
        build()


class TestKernelScale:
    def test_marginal_example(self):
        k = kernel_scale(ScaleSpec.from_dimension(3, 1.0, 2.0))
        assert success_prob(k, 0, 1) == pytest.approx(1 / 3, rel=1e-13)

    def test_near_equal_offset(self):
        # offset ratio close to 1 reproduces the (w(1) - w(2))/w(1) = 1/2 value
        k = kernel_scale(ScaleSpec(1.0, 1.0, 1.0 + 1e-9))
        assert success_prob(k, 0, 1) == pytest.approx(0.5, rel=1e-6)

    def test_joint_equals_chained_conditionals(self):
        # the joint law of a success chain, straight from the scale function
        spec = ScaleSpec.from_dimension(3, 1.0, 2.0)
        k = kernel_scale(spec)
        for chain in ([2, 5], [2, 5, 11]):
            steps = list(zip([0] + chain, chain))
            joint = math.prod(scale_success_prob(spec, i, j) for i, j in steps)
            chained = math.prod(success_prob(k, i, j) for i, j in steps)
            assert chained == pytest.approx(joint, rel=1e-12)

    def test_marginal_asymptote(self):
        # rho(0, j) * (a/b) * gamma / j tends to 1
        spec = ScaleSpec.from_dimension(3, 1.0, 2.0)
        k = kernel_scale(spec)
        j = 10**4
        value = rho(k, 0, j) * spec.offset_ratio * spec.gamma / j
        assert abs(value - 1.0) < 0.01

    def test_proper_range(self):
        lo, hi = probability_range(kernel_scale(ScaleSpec.from_dimension(4, 0.5, 2.0)), 40)
        assert 0.0 < lo and hi < 1.0

    def test_cond_column_matches_scalar(self):
        spec = ScaleSpec.from_dimension(3, 1.0, 2.0)
        k = kernel_scale(spec)
        col = k.cond_column(7)
        assert col == pytest.approx([success_prob(k, i, 7) for i in range(1, 7)], rel=1e-13)
        assert col == pytest.approx([scale_success_prob(spec, i, 7) for i in range(1, 7)], rel=1e-13)


def _branching_rho(p, i, j):
    """1 + sum_{t=i+1}^{j} m_t ... m_j with m_t = (1-p_t)/p_t, summed directly."""
    m = (1.0 - p) / p
    return 1.0 + math.fsum(math.prod(m[t - 1 : j]) for t in range(i + 1, j + 1))


class TestCauchyForm:
    """rho(i, j) = a_j (x_j - y_i) against each family's defining formula, every i < j."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_power(self, alpha):
        k = kernel_power(alpha, 1.3)
        for j in (1, 2, 7, 50, 200):
            i = np.arange(j)
            want = 1.3 * j ** (1.0 - alpha) * (j**alpha - i.astype(float) ** alpha)
            assert rho(k, i, j) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("schedule", [
        OffspringSchedule.harmonic_drift(0.5),
        OffspringSchedule.from_decay(lambda t: t ** (-2.0)),
        table_schedule([0.4, 0.55, 0.5, 0.45, 0.6, 0.3, 0.5]),
    ])
    def test_branching(self, schedule):
        k = kernel_branching(schedule)
        top = 7 if schedule.label == "table[7]" else 200
        p = schedule.values(top)
        for j in (1, 2, 7, 50, 200):
            if j > top:
                continue
            want = [_branching_rho(p, i, j) for i in range(j)]
            assert rho(k, np.arange(j), j) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_scale(self, gamma):
        spec = ScaleSpec(gamma, 1.0, 2.0)
        k = kernel_scale(spec)
        for j in (1, 2, 7, 50, 200):
            want = [1.0 / scale_success_prob(spec, i, j) for i in range(j)]
            assert rho(k, np.arange(j), j) == pytest.approx(want, rel=1e-11)

    def test_arrays_are_cut_to_the_horizon(self):
        k = kernel_power(2.0, 1.0)
        k.cauchy(100)
        a, x, y = k.cauchy(10)
        assert a.size == x.size == y.size == 11
        assert y[0] == 0.0 and np.isnan(a[0]) and np.isnan(x[0])

    def test_the_arrays_belong_to_the_caller(self):
        # the arrays were cached views: x[50] = 0 turned psi_curve(k, [100], 2)[1, 0] into NaN
        k = kernel_power(2.0, 1.0)
        want = psi_curve(k, [100], 2)
        fresh = k.cauchy(100)
        for v in k.cauchy(100):
            v[50] = 0.0
        assert all(np.array_equal(v, w, equal_nan=True) for v, w in zip(k.cauchy(100), fresh))
        assert np.array_equal(psi_curve(k, [100], 2), want)

    def test_a_kernel_is_a_frozen_value(self):
        assert [f.name for f in dataclasses.fields(RhoKernel)] == ["description", "arrays"]
        k = kernel_power(2.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            k.description = "other"
        assert repr(k) == "RhoKernel(description='power(alpha=2.0, beta=1.0)')"

    @pytest.mark.parametrize("arrays", [
        lambda n: (np.ones(4), np.arange(2.0, 6.0), np.arange(1.0, 5.0)),
        lambda n: (np.ones(n + 1), np.arange(2.0, n + 3), np.arange(1.0, n + 2)),
        lambda n: (np.ones((n, 1)), np.arange(2.0, n + 2)[:, None], np.arange(1.0, n + 1)[:, None]),
        lambda n: (np.ones(n), np.arange(2.0, n + 2)),
    ], ids=["short", "long", "2-d", "two-arrays"])
    def test_malformed_arrays_are_refused_by_every_engine(self, arrays):
        # a short result was cut without error: psi_curve then failed to broadcast
        # (4,) into (10,), and the chain sampler raised IndexError
        runs = (lambda k: k.cauchy(10), lambda k: psi_curve(k, [10], 2), lambda k: _sim_chain(k, 10, 5, 0, None, 1))
        for run in runs:
            with pytest.raises(ValueError, match=r"^unit step: arrays\(10\) gave shapes"):
                run(RhoKernel("unit step", arrays))


class TestBranchingBreakdown:
    """Constant p != 1/2 overflows exp(L) or exp(-L) within a few thousand generations."""

    def test_subcritical_marginals_raise(self):
        k = kernel_branching(constant_schedule(0.6))
        with pytest.raises(ValueError, match=r"p=0\.6.*generation \d+"):
            k.cauchy(3000)

    def test_supercritical_column_raises(self):
        k = kernel_branching(constant_schedule(0.4))
        with pytest.raises(ValueError, match=r"p=0\.4.*generation \d+"):
            k.cond_column(3000)

    def test_below_the_breakdown_still_answers(self):
        k = kernel_branching(constant_schedule(0.6))
        assert np.all(np.isfinite(marginals(k, 1000)))
        with pytest.raises(ValueError):
            k.cauchy(3000)
        assert np.all(np.isfinite(marginals(k, 500)))


class TestChainSamplerPrecondition:
    """a_j (x_j - y_j) = 1: ``simulate._cauchy_chain_worker`` draws the kernel's chain only then.

    The identity is exact for the branching and scale families.  In floats it
    holds to 1e-12 relative plus the rounding of the difference x_j - y_j,
    which cancels by the factor x_j / (x_j - y_j): at j = 1e4 that factor is
    about 4e5 for gamma = 0.05, and the measured error 5.1e-11.
    """

    N = 10_000
    KERNELS = {
        "drift-0.5": lambda: kernel_branching(OffspringSchedule.harmonic_drift(0.5)),
        "decay-t^-2": lambda: kernel_branching(OffspringSchedule.from_decay(lambda t: t ** (-2.0))),
        "table": lambda: kernel_branching(table_schedule(0.5 + 0.1 * np.sin(np.arange(1, 10_001)))),
        **{f"scale-{g}": lambda g=g: kernel_scale(ScaleSpec(g, 1.0, 2.0)) for g in (0.05, 0.5, 1.0, 3.0)},
    }

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_identity(self, name):
        for n in (10, 1000, self.N):
            a, x, y = (v[1:] for v in self.KERNELS[name]().cauchy(n))
            assert np.all(np.diff(x) > 0)
            err = np.abs(a * (x - y) - 1.0)
            assert np.all(err <= 1e-12 + 2 * np.finfo(float).eps * x / (x - y))

    def test_power_family_does_not_meet_it(self):
        a, x, y = kernel_power(2.0, 1.3).cauchy(50)
        assert np.all(a[1:] * (x[1:] - y[1:]) == 0.0)


@st.composite
def cauchy_kernels(draw):
    """A power, branching-drift or scale kernel with random parameters."""
    family = draw(st.sampled_from(["power", "branching", "scale"]))
    if family == "power":  # rho(0, j) = beta j, so a probability needs beta >= 1
        return kernel_power(draw(st.floats(0.05, 4.0)), draw(st.floats(1.0, 10.0)))
    if family == "branching":
        return kernel_branching(OffspringSchedule.harmonic_drift(draw(st.floats(0.0, 0.99))))
    b = draw(st.floats(0.1, 10.0))
    return kernel_scale(ScaleSpec(draw(st.floats(0.05, 5.0)), b * draw(st.floats(0.01, 0.99)), b))


@settings(max_examples=60, deadline=None)
@given(kernel=cauchy_kernels(), n=st.integers(1, 3000))
def test_marginal_probs_are_probabilities(kernel, n):
    p = marginals(kernel, n)[1:]
    assert np.all((p > 0.0) & (p <= 1.0))
